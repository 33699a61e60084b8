"""Orbit dimensions, strata, and the admissibility test.

The group acts on frequency space by xi -> h^{-T} xi.  Orbit dimension at xi
is the rank of the tangent map X -> X^T xi over a basis of the algebra; the
strata O_i collect points whose orbit has dimension i, and O_d (the top
stratum) is conull exactly for the admissible families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DilationAlgebra, roots_decompose

PROBE_SEED = 424243
N_ADMISSIBILITY_PROBES = 64


def orbit_dims(alg: DilationAlgebra, points) -> np.ndarray:
    """Orbit dimension at every row of `points`, as one batched SVD.

    Row i of the (m, n, d) stack is [X_1^T xi | ... | X_d^T xi] at
    xi = points[i], which spans the orbit tangent; its rank counts the
    singular values above alg.tol times the largest, and is 0 when the
    largest is 0, which is rank_tol's rule.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, alg.n)
    stack = np.einsum("jab,ma->mbj", np.stack(alg.generators), pts)
    s = np.linalg.svd(stack, compute_uv=False)
    top = s[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(s > alg.tol * top, axis=1), 0)


def orbit_dim(alg: DilationAlgebra, xi) -> int:
    return int(orbit_dims(alg, np.asarray(xi, dtype=float).reshape(1, alg.n))[0])


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
    nonempty.  O_d is Zariski-open, so a handful of generic probes decides
    nonemptiness; 64 deterministic pseudo-random points guard rank flukes.
    """
    reasons = []
    rd = roots_decompose(alg)
    if not rd.all_real():
        reasons.append("non-real joint root: spec(h) in R+ fails")
        return AdmissibilityVerdict("hypotheses_violated", tuple(reasons))
    traces = [float(np.trace(G)) for G in alg.generators]
    scale = max(alg.scale(), 1.0)
    det_triv = all(abs(tr) <= alg.tol * scale for tr in traces)
    if det_triv:
        reasons.append("all generator traces vanish: det|_H = 1 identically")
    rng = np.random.default_rng(PROBE_SEED)
    probes = rng.standard_normal((N_ADMISSIBILITY_PROBES, alg.n))
    top_hit = bool(np.any(orbit_dims(alg, probes) == alg.d))
    if not top_hit:
        reasons.append(f"no probe of {N_ADMISSIBILITY_PROBES} reached orbit dimension d")
    if det_triv or not top_hit:
        return AdmissibilityVerdict("not_admissible", tuple(reasons))
    reasons.append("nonzero trace and nonempty top stratum")
    return AdmissibilityVerdict("admissible", tuple(reasons))


# stratify's probe cloud is this many times a standard normal cloud
_PROBE_EXTENT = 3.0
# the top observed stratum is flagged conull above this sample fraction
_CONULL_THRESHOLD = 0.99


@dataclass(frozen=True)
class StratumReport:
    probes: np.ndarray  # (count, n) probe points
    dims: np.ndarray  # (count,) orbit dimension at each probe
    census: dict  # dim -> count
    d_max: int
    group_dim: int
    top_conull: bool

    def to_json(self) -> dict:
        return {
            "census": {str(k): v for k, v in sorted(self.census.items())},
            "d_max": self.d_max,
            "group_dim": self.group_dim,
            "conull_threshold": _CONULL_THRESHOLD,
            "top_stratum_conull": self.top_conull,
        }


def stratify(alg: DilationAlgebra, count: int, seed: int) -> StratumReport:
    """Census of orbit dimensions over a seeded cloud of `count` probes.

    The top observed stratum is flagged conull when its sample fraction
    exceeds _CONULL_THRESHOLD.  This is a sampling surrogate for the measure
    statement, never used where an exact verdict is required.
    """
    rng = np.random.default_rng(seed)
    pts = _PROBE_EXTENT * rng.standard_normal((count, alg.n))
    dims = orbit_dims(alg, pts)
    values, counts = np.unique(dims, return_counts=True)
    census = {int(k): int(c) for k, c in zip(values, counts)}
    d_max = max(census) if census else 0
    frac = census.get(d_max, 0) / max(len(pts), 1)
    return StratumReport(
        probes=pts,
        dims=dims,
        census=census,
        d_max=d_max,
        group_dim=alg.d,
        top_conull=bool(frac > _CONULL_THRESHOLD),
    )
