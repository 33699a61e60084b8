"""Gauss-Legendre tensor quadrature over parameter boxes.

The reference rule on [-1, 1] is built here with numpy alone, by Newton's
method on the Legendre three-term recurrence (Golub & Welsch 1969; Hale &
Townsend 2013), and cached per order.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class TensorRule:
    """Tensor-product rule: `nodes` is (N, d), `weights` is (N,)."""

    box: tuple[tuple[float, float], ...]
    orders: tuple[int, ...]
    nodes: np.ndarray
    weights: np.ndarray


def tensor_rule(box, orders) -> TensorRule:
    """Build a tensor Gauss-Legendre rule over a d-dimensional box.

    `box` is a sequence of (lo, hi) pairs, `orders` an int or one int per axis.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    d = len(box)
    if np.isscalar(orders):
        orders = (int(orders),) * d
    orders = tuple(int(o) for o in orders)
    if len(orders) != d:
        raise ValueError("one order per box axis required")
    axes = [gauss_legendre(o, lo, hi) for o, (lo, hi) in zip(orders, box)]
    node_grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    weight_grids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in node_grids], axis=-1)
    weights = np.ones(nodes.shape[0])
    for g in weight_grids:
        weights *= g.ravel()
    return TensorRule(box=box, orders=orders, nodes=nodes, weights=weights)


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
