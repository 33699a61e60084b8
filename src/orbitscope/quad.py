"""Gauss-Legendre tensor quadrature over parameter boxes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; read-only because every caller shares them.

    scipy is imported here, not at module load, so subcommands that build no
    quadrature rule never pay for it.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(order)
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
