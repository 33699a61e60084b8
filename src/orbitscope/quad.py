"""Gauss-Legendre tensor quadrature over parameter boxes.

The reference rule on [-1, 1] is built here with numpy alone, by Newton's
method on the Legendre three-term recurrence (Golub & Welsch 1969; Hale &
Townsend 2013), and cached per order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_NEWTON_STEPS = 100


def _legendre(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_order(x) and its derivative, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=32)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights on [-1, 1]; read-only because every caller
    shares them.

    Newton's method from the guesses cos(pi (i - 1/4) / (n + 1/2)) runs on all
    nodes at once; weights are 2 / ((1 - x^2) P_n'(x)^2).  Raises when the
    iteration has not converged within its step cap.
    """
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes of order {order} did not converge")
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [a, b]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if not b > a:
        raise ValueError("empty quadrature interval")
    x, w = _reference_rule(int(order))
    half = 0.5 * (b - a)
    return half * (x + 1.0) + a, half * w


def tensor_rules(boxes, orders) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rules over m boxes at once.

    `boxes` is (m, d, 2), one (lo, hi) pair per axis and box; `orders` has
    one int per axis.  Returns nodes (m, N, d) and weights (m, N) with
    N = prod(orders), the nodes in C order over the axes.  Each axis maps
    the reference rule as gauss_legendre does, and the weights multiply
    axis by axis.
    """
    boxes = np.asarray(boxes, dtype=float)
    m, d = boxes.shape[:2]
    orders = tuple(int(o) for o in orders)
    if len(orders) != d:
        raise ValueError("one order per box axis required")
    if min(orders) < 1:
        raise ValueError("quadrature order must be >= 1")
    lo, hi = boxes[..., 0], boxes[..., 1]
    if not np.all(hi > lo):
        raise ValueError("empty quadrature interval")
    half = 0.5 * (hi - lo)
    nodes = np.empty((m, *orders, d))
    weights = np.ones((m, *orders))
    for j, o in enumerate(orders):
        x, w = _reference_rule(o)
        axis = (m,) + (1,) * j + (o,) + (1,) * (d - j - 1)
        nodes[..., j] = (half[:, j, None] * (x + 1.0) + lo[:, j, None]).reshape(axis)
        weights *= (half[:, j, None] * w).reshape(axis)
    return nodes.reshape(m, -1, d), weights.reshape(m, -1)


def boundary_shell_points(box, per_face: int = 9) -> np.ndarray:
    """Sample points on the faces of a box (used to check support containment)."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    d = len(box)
    lines = [np.linspace(lo, hi, per_face) for lo, hi in box]
    pts = []
    for k in range(d):
        grids = [lines[j] for j in range(d) if j != k]
        if grids:
            mesh = np.meshgrid(*grids, indexing="ij")
            face = np.stack([g.ravel() for g in mesh], axis=-1)
        else:
            face = np.zeros((1, 0))
        for value in box[k]:
            col = np.full((face.shape[0], 1), value)
            pts.append(np.concatenate([face[:, :k], col, face[:, k:]], axis=1))
    return np.concatenate(pts, axis=0)
