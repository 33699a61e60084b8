import os

import numpy as np
import pytest

from orbitscope import families as F
from orbitscope.linalg import DilationAlgebra
from orbitscope.quasisection import BoxSet, diagonal_action
from orbitscope.wavelet import _mesh, synth_wavelet


# the CLI tests spawn `python -m orbitscope.cli`: let them import this checkout
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def series_exp(M, scale=1.0, terms=60):
    """Independent 60-term power-series oracle for the matrix exponential."""
    A = np.asarray(M, dtype=float) * scale
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        E = E + term
    return E


def diag_nilpotent_pair(n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The displayed n = 2 pair (A = I, X = e21), or its n-dim analogue."""
    A = np.eye(n)
    X = np.zeros((n, n))
    X[1, 0] = 1.0
    return A, X


def tangent_matrix(alg: DilationAlgebra, xi) -> np.ndarray:
    """n x d matrix [X_1^T xi | ... | X_d^T xi] spanning the orbit tangent."""
    x = np.asarray(xi, dtype=float).reshape(alg.n)
    return np.column_stack([G.T @ x for G in alg.generators])


def conjugated(alg: DilationAlgebra, P) -> DilationAlgebra:
    """alg in the basis P: the generators P^-1 G P, at alg's tolerance."""
    P = np.asarray(P, dtype=float)
    Pinv = np.linalg.inv(P)
    return DilationAlgebra([Pinv @ G @ P for G in alg.generators], tol=alg.tol)


def frequency_lattice(shape, dx) -> np.ndarray:
    """The points of the FFT frequency lattice, 2 pi fftfreq per axis, C order."""
    return _mesh([2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, dx)])


def random_diag_nilpotent(rng, n):
    """Commuting pair: positive eigenvalues with repeats, random epsilon pattern."""
    while True:
        sizes = []
        left = n
        while left > 0:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        if any(s >= 2 for s in sizes):
            break
    eigs = []
    N = np.zeros((n, n))
    off = 0
    for s in sizes:
        lam = float(rng.uniform(0.2, 3.0))
        eigs.extend([lam] * s)
        for i in range(1, s):
            if rng.random() < 0.6:
                N[off + i, off + i - 1] = 1.0
        off += s
    if not N.any():
        off = 0
        for s in sizes:
            if s >= 2:
                N[off + 1, off] = 1.0
                break
            off += s
    P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    A = np.linalg.solve(P, np.diag(eigs) @ P)
    X = np.linalg.solve(P, N @ P)
    return A, X


def near_scalar_jordan3(eps: float) -> np.ndarray:
    """P^-1 (I + eps J3) P, J3 = e21 + e32 and P = default_rng(3).standard_normal((3, 3))
    + 3I: for eps near 1e-9 its shift A - mu sits a little above the rounding of A."""
    P = np.random.default_rng(3).standard_normal((3, 3)) + 3.0 * np.eye(3)
    return np.linalg.solve(P, (np.eye(3) + eps * (F.E(2, 1) + F.E(3, 2))) @ P)


def family_3000(seed: int) -> tuple[list, list]:
    """(block sizes, generators) of the 3000-family's draw `seed` (0..2999):
    n in 3..6, block sizes drawn one at a time from what is left, d in 1..3,
    block b of generator j equal to lambda I + sum_k c_k J^k (J the lower shift,
    lambda ~ U[-3, 3], c_k ~ N(0, 1)), all conjugated to P^-1 G P with
    P = standard_normal((n, n)) + 3I, from one default_rng(seed) stream."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    sizes, left = [], n
    while left > 0:
        sizes.append(int(rng.integers(1, left + 1)))
        left -= sizes[-1]
    d = int(rng.integers(1, 4))
    gens = []
    for _ in range(d):
        G, off = np.zeros((n, n)), 0
        for s in sizes:
            J = np.diag(np.ones(s - 1), -1)
            B = rng.uniform(-3, 3) * np.eye(s)
            for k, c in enumerate(rng.standard_normal(s - 1), start=1):
                B = B + c * np.linalg.matrix_power(J, k)
            G[off:off + s, off:off + s] = B
            off += s
        gens.append(G)
    P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return sizes, [np.linalg.solve(P, G @ P) for G in gens]


_J3 = F.E(2, 1) + F.E(3, 2)
# the census shapes: the six maximal commutative subalgebras of gl(3) up to
# conjugacy, each as a basis in the order its coefficients C are drawn
CENSUS_SHAPES = {
    "diagonal": [F.E(1, 1), F.E(2, 2), F.E(3, 3)],
    "diag+J2": [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]), F.E(2, 1)],
    "poly(J3)": [np.eye(3), _J3, _J3 @ _J3],
    "rot+axis": [np.diag([1.0, 1.0, 0.0]), F.E(2, 1) - F.E(1, 2), np.diag([0.0, 0.0, 1.0])],
    "sqzero": [np.eye(3), F.E(2, 1), F.E(3, 1)],
    "sqzeroT": [np.eye(3), F.E(1, 2), F.E(1, 3)],
}


def census_draws() -> list:
    """The 3000 n = 3 census draws, as (shape, C, generators) for i = 0..2999,
    from one default_rng(0) stream: the (i mod 6)-th shape of CENSUS_SHAPES,
    d = integers(2, 4), C = standard_normal((d, 3)), replaced by
    integers(-2, 3, (d, 3)) when i mod 3 = 0 (the normal draw is made either
    way), and the generators C times the basis, each conjugated to P^-1 G P
    with P = standard_normal((3, 3)) + 3I.  C is the draw's exact coefficient
    array; the generators may be linearly dependent (87 integer draws are)."""
    rng = np.random.default_rng(0)
    names = list(CENSUS_SHAPES)
    draws = []
    for i in range(3000):
        shape = names[i % 6]
        d = int(rng.integers(2, 4))
        C = rng.standard_normal((d, 3))
        if i % 3 == 0:
            C = rng.integers(-2, 3, (d, 3)).astype(float)
        P = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        gens = [sum(c * B for c, B in zip(row, CENSUS_SHAPES[shape])) for row in C]
        draws.append((shape, C, [np.linalg.solve(P, G @ P) for G in gens]))
    return draws


@pytest.fixture(scope="session")
def golden_families():
    return {
        "a": F.family_a(1.0),
        "b11": F.family_b(1.0, 1.0),
        "b1m1": F.family_b(1.0, -1.0),
        "b10": F.family_b(1.0, 0.0),
        "c": F.family_c(),
        "d": F.family_d(),
        "e": F.family_e(),
        "case0": F.case0(),
        "case1a": F.case1a(),
        "case1b": F.case1b(),
        "case1c": F.case1c(),
        "case2": F.case2(),
        "case3b": F.case3b(),
    }


@pytest.fixture(scope="session")
def dilation_1d():
    return DilationAlgebra([np.array([[1.0]])])


@pytest.fixture(scope="session")
def spec_1d(dilation_1d):
    act = diagonal_action(dilation_1d)
    return synth_wavelet(act, BoxSet([(1.0, 2.0)]), BoxSet([(0.8, 2.5)]))


@pytest.fixture(scope="session")
def spec_case_a():
    act = diagonal_action(F.family_a(1.0))
    C = BoxSet([(0.5, 2.0), (0.5, 2.0)])
    return synth_wavelet(act, C)
