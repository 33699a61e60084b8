"""Orbit dimensions, strata, and the admissibility test.

The group acts on frequency space by xi -> h^{-T} xi.  Orbit dimension at xi
is the rank of the tangent map X -> X^T xi over a basis of the algebra; the
strata O_i collect points whose orbit has dimension i.  The generic orbit
dimension d_max is decided exactly on an integer grid, and the top stratum
O_{d_max} is always conull (docs/generic_orbit_dimension.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DilationAlgebra, numerical_rank, roots_decompose, seeded_draws


def orbit_dims(alg: DilationAlgebra, points) -> np.ndarray:
    """Orbit dimension at every row of `points`, as one batched SVD.

    Row i of the (m, n, d) stack is [B_1^T xi | ... | B_d^T xi] at
    xi = points[i], B_j the balanced generators, which spans the orbit
    tangent; its rank is numerical_rank at alg.tol.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, alg.n)
    stack = np.einsum("jab,ma->mbj", np.stack(alg.balanced), pts)
    return numerical_rank(np.linalg.svd(stack, compute_uv=False), alg.tol)


def orbit_dim(alg: DilationAlgebra, xi) -> int:
    return int(orbit_dims(alg, np.asarray(xi, dtype=float).reshape(1, alg.n))[0])


def generic_orbit_dim(alg: DilationAlgebra) -> int:
    """The largest orbit dimension, which almost every xi attains, without samples.

    Round r evaluates the grid {1, ..., r + 2}^n.  A nonzero (r + 1)-minor of
    the tangent matrix has degree <= r + 1 in each coordinate, so it does not
    vanish on the whole grid (the grid lemma): a grid rank of r certifies r,
    and a larger one becomes the next r (docs/generic_orbit_dimension.md).
    """
    r = 0
    while True:
        grid = np.indices((r + 2,) * alg.n).reshape(alg.n, -1).T + 1.0
        top = int(orbit_dims(alg, grid).max())
        if top in (r, alg.d):  # d <= n columns bound the rank
            return top
        r = top


@dataclass(frozen=True)
class AdmissibilityVerdict:
    status: str  # admissible | not_admissible | hypotheses_violated
    reasons: tuple

    def __bool__(self) -> bool:
        return self.status == "admissible"


def is_admissible(alg: DilationAlgebra) -> AdmissibilityVerdict:
    """Admissibility of the quasi-regular representation for H = exp(h).

    Within the positive-spectrum class: admissible iff det is not identically
    one on H (some generator has nonzero trace) and the top stratum O_d is
    nonempty, that is, the generic orbit dimension is d.  Decided on the
    balanced generators, which span the same group, so the verdict does
    not depend on how any generator is scaled.
    """
    reasons = []
    rd = roots_decompose(alg)
    if not rd.all_real():
        reasons.append("non-real joint root: spec(h) in R+ fails")
        return AdmissibilityVerdict("hypotheses_violated", tuple(reasons))
    det_triv = all(abs(np.trace(B)) <= alg.tol * alg.scale() for B in alg.balanced)
    if det_triv:
        reasons.append("all generator traces vanish: det|_H = 1 identically")
    generic = generic_orbit_dim(alg)
    if generic < alg.d:
        reasons.append(f"generic orbit dimension {generic} < d: the top stratum O_d is empty")
    if det_triv or generic < alg.d:
        return AdmissibilityVerdict("not_admissible", tuple(reasons))
    reasons.append("nonzero trace and nonempty top stratum")
    return AdmissibilityVerdict("admissible", tuple(reasons))


@dataclass(frozen=True)
class StratumReport:
    probes: np.ndarray  # (count, n) probe points
    dims: np.ndarray  # (count,) orbit dimension at each probe
    census: dict  # dim -> count
    d_max: int  # the generic orbit dimension, decided exactly
    group_dim: int

    def to_json(self) -> dict:
        # the top stratum's complement is the zero set of the d_max-minors,
        # a proper algebraic set, so it is null
        return {
            "census": {str(k): v for k, v in sorted(self.census.items())},
            "d_max": self.d_max,
            "group_dim": self.group_dim,
            "top_stratum_conull": True,
        }


def stratify(alg: DilationAlgebra, count: int, seed: int) -> StratumReport:
    """Census of orbit dimensions over `count` probes 3 N(0, I) drawn by
    seeded_draws(seed); d_max is generic_orbit_dim, which no seed moves."""
    pts = 3.0 * seeded_draws(seed, count, alg.n)
    dims = orbit_dims(alg, pts)
    values, counts = np.unique(dims, return_counts=True)
    return StratumReport(
        probes=pts,
        dims=dims,
        census={int(k): int(c) for k, c in zip(values, counts)},
        d_max=generic_orbit_dim(alg),
        group_dim=alg.d,
    )
