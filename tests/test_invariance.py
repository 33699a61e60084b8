"""Answers are properties of the group H, not of how its generators are written.

Section leg: the diagonalizable + nilpotent pair (A, X) written as [A, X],
[A + X, A - 2X], [X, A] and [2A, -X] spans one algebra, so `section` gives
every point the same layer, sign and representative, and a witness c on the
written generators with exp(c_1 G_1 + c_2 G_2) v = v*.
"""

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope.families import E
from orbitscope.linalg import DilationAlgebra
from orbitscope.sections import diag_nilpotent_pair, normal_form, section_batch

from conftest import random_diag_nilpotent


def forms(A, X):
    return [[A, X], [A + X, A - 2.0 * X], [X, A], [2.0 * A, -X]]


def section_on_generators(gens, V):
    """What the `section` command computes: the section batch of V for the
    pair that `diag_nilpotent_pair` reads, and the witnesses c = s a + t x on
    the generators, one row per point."""
    alg = DilationAlgebra(gens)
    a, x = diag_nilpotent_pair(alg)
    fam = normal_form(alg.element(a), alg.element(x), tol=alg.tol)
    sec = section_batch(fam, V)
    return alg, fam, sec, np.outer(sec.s, a) + np.outer(sec.t, x)


def group_element(M):
    """exp(M) by scaling and squaring a 30-term series in np.longdouble (the
    80-bit format on x86-64).  A witness with a large nilpotent part has
    ||exp(M)|| far above ||M||, and double-precision squaring, as in
    mat_exp, then loses up to about 1e-9 of v*."""
    M = np.asarray(M, dtype=np.longdouble)
    k = max(0, int(np.ceil(np.log2(float(np.abs(M).sum())))) + 1)
    B = M / np.longdouble(2) ** k
    G = term = np.eye(M.shape[0], dtype=np.longdouble)
    for j in range(1, 30):
        term = term @ B / j
        G = G + term
    for _ in range(k):
        G = G @ G
    return G


def repeated_chain_blocks(fam):
    """Indices of the blocks with two chains of one length: their chain tops,
    and so their sections, are a choice of basis."""
    out = set()
    for k, blk in enumerate(fam.blocks):
        lengths = [len(run) + 1 for run in "".join(map(str, blk.epsilon)).split("0")]
        if len(lengths) != len(set(lengths)):
            out.add(k)
    return out


def _pairs():
    pairs = {"d": (np.diag([1.0, 1.0, 0.0]), E(2, 1)),
             "1a": (np.eye(3), E(2, 1) + E(3, 2)),
             "1c": (np.eye(3), E(2, 1) + E(3, 2) + 0.4 * E(3, 1))}
    for seed in range(20):
        rng = np.random.default_rng([seed, 23])
        pairs[f"random-{seed}"] = random_diag_nilpotent(rng, 3 + seed % 4)
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_section_does_not_depend_on_the_generators(name):
    A, X = PAIRS[name]
    V = np.random.default_rng(7).standard_normal((40, A.shape[0]))
    _, fam, ref, _ = section_on_generators([A, X], V)
    assert (ref.sign != 0).sum() >= 30
    fixed = ~np.isin(ref.block, list(repeated_chain_blocks(fam)))
    for gens in forms(A, X):
        alg, _, sec, c = section_on_generators(gens, V)
        npt.assert_array_equal(sec.block, ref.block)
        npt.assert_array_equal(sec.b[fixed], ref.b[fixed])
        npt.assert_array_equal(sec.sign[fixed], ref.sign[fixed])
        npt.assert_array_equal(sec.sign != 0, ref.sign != 0)
        for r in np.flatnonzero(sec.sign != 0):
            scale = 1e-9 * np.linalg.norm(ref.representative[r])
            if fixed[r]:
                assert np.linalg.norm(sec.representative[r] - ref.representative[r]) <= scale
            vstar = (group_element(alg.element(c[r])) @ V[r]).astype(float)
            assert np.linalg.norm(vstar - sec.representative[r]) <= scale, (r, vstar)


def test_written_pair_reaches_normal_form_exactly():
    # a generator that is semisimple (nilpotent) within tolerance is A (X)
    # itself, so [A, X] keeps the user's matrices and witnesses (s, t)
    A, X = PAIRS["random-3"]
    for gens, (a, x) in (([A, X], ([1, 0], [0, 1])), ([X, A], ([0, 1], [1, 0])),
                         ([2.0 * A, -X], ([1, 0], [0, 1]))):
        got = diag_nilpotent_pair(DilationAlgebra(gens))
        npt.assert_array_equal(got[0], a)
        npt.assert_array_equal(got[1], x)
    alg = DilationAlgebra([A + X, A - 2.0 * X])
    a, x = diag_nilpotent_pair(alg)
    npt.assert_allclose(alg.element(a), A, atol=1e-12 * np.linalg.norm(A))
    assert np.linalg.norm(np.linalg.matrix_power(alg.element(x), A.shape[0])) <= 1e-12


def test_no_pair():
    # two semisimple generators, two nilpotent ones, and a rotation-scaling pair
    assert diag_nilpotent_pair(DilationAlgebra([np.diag([1.0, 0, 1]),
                                                np.diag([0.0, 1, 1])])) is None
    assert diag_nilpotent_pair(DilationAlgebra([E(3, 1), E(3, 2)])) is None
    rot = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert diag_nilpotent_pair(DilationAlgebra([rot, np.diag([0.0, 0, 1])])) is None
    assert diag_nilpotent_pair(DilationAlgebra([np.eye(3)])) is None
