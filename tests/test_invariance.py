"""Answers are properties of the group H, not of how its generators are written.

Section leg: the diagonalizable + nilpotent pair (A, X) written as [A, X],
[A + X, A - 2X], [X, A] and [2A, -X] spans one algebra, so `section` gives
every point the same layer, sign and representative, and a witness c on the
written generators with exp(c_1 G_1 + c_2 G_2) v = v*.  So do [cA, cX] for
c from 1e-300 to 1e300, [A, cX] and [-A, X], which also keep the block and
the eigenvalue in A's units, and the `section` command answers every one.

Scale leg: s X_1, ..., s X_d span the group of X_1, ..., X_d, so the
diagonal action has the same blocks with weights times s, the quasi-section
verdict and its witness direction do not move, nor does classify3, and the
wavelet numbers that do not depend on the parametrization (sigma |det M|,
the Calderon value, the L1 estimate) keep their x1 values, as long as
|det M| = s^d |det M_1| is a float; past that, ZeroSigma.

Relative-scale leg: X_1, ..., c X_d also span the group, so classify3, the
admissibility verdict and the generic orbit dimension keep their x1 values
when one generator alone is scaled.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope import families as F
from orbitscope.classify import classify3
from orbitscope.cli import main
from orbitscope.errors import ZeroSigma
from orbitscope.families import E
from orbitscope.linalg import DilationAlgebra
from orbitscope.orbits import generic_orbit_dim, is_admissible
from orbitscope.quasisection import (BoxSet, c_i_box, diagonal_action, quasi_section_verdict,
                                     shell_box)
from orbitscope.sections import diag_nilpotent_pair, normal_form, section_batch
from orbitscope.wavelet import calderon_check, l1_estimate, synth_wavelet

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
    80-bit format on x86-64), for one matrix or a stack of them.  A witness
    with a large nilpotent part has ||exp(M)|| far above ||M||, and
    double-precision squaring, as in mat_exp, then loses up to about 1e-9
    of v*."""
    M = np.asarray(M, dtype=np.longdouble)
    k = max(0, int(np.ceil(np.log2(float(np.abs(M).sum(axis=(-2, -1)).max())))) + 1)
    B = M / np.longdouble(2) ** k
    G = term = np.broadcast_to(np.eye(M.shape[-1], dtype=np.longdouble), M.shape)
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


# X alone goes to 10^+-6 here; test_answers_do_not_depend_on_relative_scale
# takes one generator alone to 10^+-12
X_SCALES = [1e3, 1e-3, 1e6, 1e-6]


def scaled_forms(A, X):
    """(generators, c) with c the factor on A: [cA, cX] for c in SCALES,
    [A, cX] for c in X_SCALES, and [-A, X]."""
    return ([([c * A, c * X], c) for c in SCALES] + [([A, c * X], 1.0) for c in X_SCALES]
            + [([-A, X], 1.0)])


def section_records(gens, V, tmp_path, capsys):
    """The records of the `section` command on the generators gens and the
    points V; the job must exit 0 and answer every point."""
    path = tmp_path / "section.json"
    path.write_text(json.dumps({"n": V.shape[1], "generators": [G.ravel().tolist() for G in gens],
                                "points": V.tolist()}))
    assert main(["section", "--input", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)["payload"]["records"]
    assert [r["point"] for r in records] == V.tolist()
    return records


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_section_command_does_not_depend_on_scale_or_sign(name, tmp_path, capsys):
    # (cA, dX) spans the group of (A, X), so every form gets the x1 layers,
    # signs and representatives, and the eigenvalue, of the A with positive
    # top eigenvalue, times |c|; its witnesses are on the written generators
    A, X = PAIRS[name]
    V = np.random.default_rng(7).standard_normal((12, A.shape[0]))
    repeated = repeated_chain_blocks(normal_form(A, X))
    ref = section_records([A, X], V, tmp_path, capsys)
    answered = [i for i, r in enumerate(ref) if r["layer"] is not None]
    assert len(answered) >= 8
    fixed = [i for i in answered if ref[i]["block"] not in repeated]
    rep = np.array([ref[i]["representative"] for i in answered])
    bound = 1e-9 * np.linalg.norm(rep, axis=1)
    for label, (gens, c) in enumerate(scaled_forms(A, X)):
        recs = section_records(gens, V, tmp_path, capsys)
        assert [r.get("error") for r in recs] == [r.get("error") for r in ref], label
        assert [r.get("block") for r in recs] == [r.get("block") for r in ref], label
        assert all((recs[i]["layer"], recs[i]["sign"]) == (ref[i]["layer"], ref[i]["sign"])
                   for i in fixed), label
        npt.assert_allclose([recs[i]["eigenvalue"] / abs(c) for i in answered],
                            [ref[i]["eigenvalue"] for i in answered], rtol=1e-9, err_msg=str(label))
        got = np.array([recs[i]["representative"] for i in answered])
        err = np.linalg.norm(got - rep, axis=1)
        assert all(err[j] <= bound[j] for j, i in enumerate(answered) if i in fixed), label
        w = np.array([[recs[i]["witness_s"], recs[i]["witness_t"]] for i in answered])
        g = group_element(np.einsum("rj,jkl->rkl", w, np.stack(gens)))
        vstar = np.einsum("rkl,rl->rk", g, V[answered]).astype(float)
        assert np.all(np.linalg.norm(vstar - got, axis=1) <= bound), label


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


SCALES = [2.0 ** 3, 2.0 ** -3] + [10.0 ** (sign * p) for p in (3, 6, 12, 100, 200, 300)
                                   for sign in (1, -1)]

# family, probe set and orbit-space compactness of the quasi-section leg
QUASI = {
    "a": (F.family_a(1.0), shell_box(2.0, 2), True),
    "b11": (F.family_b(1.0, 1.0), [c_i_box(i, 2.0) for i in (1, 2, 3)], True),
    "e": (F.family_e(), shell_box(2.0, 3), True),
    "diag2": (DilationAlgebra([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), shell_box(2.0, 2), None),
}


def scaled(alg, s):
    return DilationAlgebra([s * G for G in alg.generators], tol=alg.tol)


def quasi_answers(alg, C, compact):
    action = diagonal_action(alg)
    verdict = quasi_section_verdict(action, C, orbit_space_compact=compact)
    return action, verdict


@pytest.mark.parametrize("name", sorted(QUASI))
def test_quasi_section_route_does_not_depend_on_scale(name):
    alg, C, compact = QUASI[name]
    ref_action, ref = quasi_answers(alg, C, compact)
    ref_table = classify3(alg).to_json() if alg.n == 3 else None
    for s in SCALES:
        action, verdict = quasi_answers(scaled(alg, s), C, compact)
        assert action.k == ref_action.k, s
        npt.assert_allclose(action.weights / s, ref_action.weights, rtol=1e-12, err_msg=str(s))
        assert verdict.exists == ref.exists, s
        if ref.witness_direction is None:
            assert verdict.witness_direction is None, s
        else:
            npt.assert_allclose(verdict.witness_direction, ref.witness_direction, atol=1e-12)
        if ref_table is not None:
            got = classify3(scaled(alg, s)).to_json()
            npt.assert_allclose(got.pop("normalized_params", []),
                                ref_table.get("normalized_params", []), rtol=1e-12)
            assert got == {k: v for k, v in ref_table.items() if k != "normalized_params"}, s


SPIRAL = np.array([[1.0, -1.0], [1.0, 1.0]])
WAVELETS = {
    "1d": ([np.array([[1.0]])], [(1.0, 2.0)]),
    "2d-spiral": ([SPIRAL], [(1.0, 2.0)]),
    "case-a": (list(F.family_a(1.0).generators), [(0.5, 2.0), (0.5, 2.0)]),
}


def wavelet_numbers(gens, bounds):
    """sigma |det M|, the Calderon value and the L1 estimate, on small rules."""
    action = diagonal_action(DilationAlgebra(gens))
    spec = synth_wavelet(action, BoxSet(bounds))
    xi = np.linalg.solve(action.basis.T, np.ones(action.alg.n))
    return (spec.sigma * abs(np.linalg.det(action.weights)),
            calderon_check(spec, xi[None], 8).value,
            l1_estimate(spec, shape=256, param_counts=8).value)


@pytest.mark.parametrize("name", sorted(WAVELETS))
def test_wavelet_numbers_do_not_depend_on_scale(name):
    gens, bounds = WAVELETS[name]
    ref = wavelet_numbers(gens, bounds)
    for s in SCALES:
        if len(gens) * abs(np.log10(s)) <= 300:
            npt.assert_allclose(wavelet_numbers([s * G for G in gens], bounds), ref,
                                rtol=1e-12, err_msg=str(s))
        else:  # |det M| = s^d leaves the float range, and sigma with it
            with pytest.raises(ZeroSigma):
                wavelet_numbers([s * G for G in gens], bounds)


# every golden and case family of the n = 3 table
RELATIVE = {"case0": F.case0(), "1a": F.case1a(), "1b": F.case1b(), "1c": F.case1c(),
            "2": F.case2(), "3b": F.case3b(), "a": F.family_a(1.0), "b11": F.family_b(1.0, 1.0),
            "c": F.family_c(), "d": F.family_d(), "e": F.family_e()}


@pytest.mark.parametrize("c", [10.0 ** (sign * p) for p in (3, 6, 9, 12) for sign in (1, -1)])
@pytest.mark.parametrize("name", sorted(RELATIVE))
def test_answers_do_not_depend_on_relative_scale(name, c):
    alg = RELATIVE[name]
    got = DilationAlgebra([*alg.generators[:-1], c * alg.generators[-1]], tol=alg.tol)
    assert classify3(got).to_json() == classify3(alg).to_json()
    assert is_admissible(got).status == is_admissible(alg).status
    assert generic_orbit_dim(got) == generic_orbit_dim(alg)
