import numpy as np
import pytest

from orbitscope import families as F
from orbitscope.linalg import DilationAlgebra
from orbitscope.quasisection import BoxSet, diagonal_action
from orbitscope.wavelet import _mesh, synth_wavelet


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
