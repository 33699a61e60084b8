"""Canonical 3x3 dilation families used in the classification table and tests."""

from __future__ import annotations

import numpy as np

from .linalg import DilationAlgebra


def E(i: int, j: int, n: int = 3) -> np.ndarray:
    """Matrix unit e_ij (1-based indices)."""
    M = np.zeros((n, n))
    M[i - 1, j - 1] = 1.0
    return M


def family_a(alpha: float = 1.0) -> DilationAlgebra:
    """Rotation-scaling block plus an independent axis (alpha != 0)."""
    if alpha == 0:
        raise ValueError("family (a) requires alpha != 0")
    A = np.array([[1.0, -alpha, 0.0], [alpha, 1.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.diag([0.0, 0.0, 1.0])
    return DilationAlgebra([A, B])


def family_b(alpha: float, beta: float) -> DilationAlgebra:
    """Diagonal pair with third root (alpha, beta)."""
    return DilationAlgebra([np.diag([1.0, 0.0, alpha]), np.diag([0.0, 1.0, beta])])


def family_c() -> DilationAlgebra:
    """Identity with two square-zero nilpotents; two open orbits."""
    return DilationAlgebra([np.eye(3), E(2, 1), E(3, 1)])


def family_d() -> DilationAlgebra:
    """diag(1,1,0), diag(0,0,1), e21; four open orbits."""
    return DilationAlgebra([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]), E(2, 1)])


def family_e() -> DilationAlgebra:
    """Full diagonal group; eight open orbits."""
    return DilationAlgebra([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])


def case0() -> DilationAlgebra:
    """Purely nilpotent pair (single zero root)."""
    return DilationAlgebra([E(3, 1), E(3, 2)])


def case1a(x21: float = 1.0, x32: float = 1.0, x31: float = 0.0) -> DilationAlgebra:
    """Single root with semisimple part lambda*I (Y = 0)."""
    X = x21 * E(2, 1) + x31 * E(3, 1) + x32 * E(3, 2)
    return DilationAlgebra([np.eye(3), X])


def case1b() -> DilationAlgebra:
    """Single root, Y != 0 with Y^2 = 0."""
    return DilationAlgebra([np.eye(3) + E(2, 1), E(3, 1)])


def case1c() -> DilationAlgebra:
    """Single root, Y^2 != 0 (full Jordan semisimple-part defect)."""
    return DilationAlgebra([np.eye(3) + E(2, 1) + E(3, 2), E(3, 1)])


def case2(alpha: float = 2.0) -> DilationAlgebra:
    """Two dependent nonzero roots with one nilpotent direction."""
    if alpha in (0.0,):
        raise ValueError("case 2 requires a nonzero second root")
    return DilationAlgebra([np.diag([1.0, 1.0, alpha]), E(2, 1)])


def case3b() -> DilationAlgebra:
    """Pure rotation block plus an axis (c = i); hypotheses violated."""
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return DilationAlgebra([R, np.diag([0.0, 0.0, 1.0])])


GOLDEN_TABLE_BUILDERS = {
    "a": family_a,
    "b": family_b,
    "c": family_c,
    "d": family_d,
    "e": family_e,
    "case0": case0,
    "case1a": case1a,
    "case1b": case1b,
    "case1c": case1c,
    "case2": case2,
    "case3b": case3b,
}
