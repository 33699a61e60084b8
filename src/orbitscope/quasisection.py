"""Palais meeting sets for box sets under diagonalizable dual actions.

For a semisimple family the transposed action is block-diagonal in adapted
coordinates w = P^T xi, and the absolute value of each block coordinate
scales exactly by exp(mu_k . t).  Membership of exp(sum t_j X_j) in the
meeting set ((C1, C2)) = {h : h^T C1 meets C2} then reduces, block by block
and after eliminating the point coordinate on logs, to the linear system

    ln(lo2_k / hi1_k)  <=  mu_k . t  <=  ln(hi2_k / lo1_k),

one-sided whenever a lower bound is zero.  Every system here has the rows
L = [M; -M], M = (mu_k), and only its right-hand side changes, so one exact
kernel answers every question asked of it: enumerating the bases of L once
gives all vertices of a whole batch of right-hand sides as one matrix
product, and with them emptiness, a point and, by LP duality, the bounding
box.  Relative compactness of the meeting set is the boundedness of this
polyhedron, decided by the extreme rays of its recession cone {u : L u <= 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (
    CoverageUnverified,
    InfeasibleSystem,
    NotDiagonalizableFamily,
)
from .linalg import (
    COVERAGE_MARGIN, POLY_RANK_TOL, POLY_SLACK, ROUNDING, SIGN_TOL,
    DilationAlgebra,
    null_space,
    numerical_rank,
    roots_decompose,
    seeded_draws,
)


@dataclass(frozen=True)
class DiagonalizedAction:
    """Adapted coordinates in which every generator acts block-diagonally.

    `basis` has the adapted basis in its columns; coordinates of a point are
    w = basis^T xi (the transposed action is the one the meeting sets use).
    Block k occupies `slices[k]` of w and its absolute value scales by
    exp(weights[k] . t).
    """

    alg: DilationAlgebra
    basis: np.ndarray
    slices: tuple
    weights: np.ndarray  # (k, d): real parts of the roots on the generators

    @property
    def k(self) -> int:
        return len(self.slices)

    @property
    def d(self) -> int:
        return self.alg.d

    def block_abs(self, points) -> np.ndarray:
        """(m, k) array of block coordinate magnitudes."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = pts @ self.basis
        return np.stack([np.linalg.norm(w[:, sl], axis=1) for sl in self.slices], axis=1)


def diagonal_action(alg: DilationAlgebra) -> DiagonalizedAction:
    """Derive the block coordinates; NotDiagonalizableFamily if any generator
    acts with a nilpotent part on some root block (not rd.semisimple).

    A real block's coordinates are its orthonormal basis; a complex block's
    are (Re B, Im B) of the kept root's eigenspace B: column pair i is
    (Re b_i, Im b_i), on which every generator acts as the rotation-scaling
    of its root, so the block's magnitude scales by exp(Re root . t) for
    any multiplicity."""
    rd = roots_decompose(alg)
    if not rd.semisimple:
        raise NotDiagonalizableFamily(
            "a generator acts non-semisimply on a root block; the exact "
            "meeting-set kernel needs semisimple block action"
        )
    # order blocks by their leading original coordinate so box bounds line up
    # with the natural coordinates of the family
    def leading(V):
        support = np.linalg.norm(V, axis=1)
        return int(np.argmax(support > np.max(support) * 0.5))

    order = sorted(range(rd.p), key=lambda kk: (leading(rd.blocks[kk]), kk))
    cols = []
    slices = []
    offset = 0
    for kk in order:
        B = rd.eigenspaces[kk]
        V = rd.blocks[kk] if rd.is_real(kk) else np.hstack([B.real, B.imag])
        cols.append(V)
        slices.append(slice(offset, offset + V.shape[1]))
        offset += V.shape[1]
    basis = np.hstack(cols)
    if offset != alg.n or abs(np.linalg.det(basis)) < ROUNDING:
        raise NotDiagonalizableFamily("adapted basis is singular")
    return DiagonalizedAction(
        alg=alg,
        basis=basis,
        slices=tuple(slices),
        weights=np.array([rd.roots[kk].real for kk in order]),
    )


@dataclass(frozen=True)
class BoxSet:
    """Per-block absolute-value bounds: lower = 0 encodes |w_k| <= upper,
    lower > 0 encodes the shell lower <= |w_k| <= upper."""

    bounds: tuple  # ((lo, hi), ...) one per block

    def __init__(self, bounds):
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        for lo, hi in bounds:
            if lo < 0 or hi <= lo or not np.isfinite(hi):
                raise ValueError(f"bad block bounds ({lo}, {hi})")
        if all(lo == 0 for lo, _ in bounds):
            raise ValueError("at least one block must be bounded below")
        object.__setattr__(self, "bounds", bounds)

    @property
    def k(self) -> int:
        return len(self.bounds)

    def to_json(self) -> dict:
        return {"bounds": [[lo, hi] for lo, hi in self.bounds]}


def shell_box(rho: float, k: int) -> BoxSet:
    """All blocks in the shell 1/rho <= |w| <= rho."""
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    return BoxSet([(1.0 / rho, rho)] * k)


def c_i_box(i: int, rho: float) -> BoxSet:
    """The set C_i(rho) in three blocks: block i only bounded above, shells
    elsewhere."""
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    bounds = [(1.0 / rho, rho)] * 3
    bounds[i - 1] = (0.0, rho)
    return BoxSet(bounds)


def _log_ratio(a, b):
    """ln(a / b), as ln a - ln b where a / b leaves the normal float range."""
    q = a / b
    return np.where((np.finfo(float).tiny <= q) & (q < np.inf), np.log(q), np.log(a) - np.log(b))


def _interval_system(action, lo1, hi1, lo2, hi2):
    """(L, c) with L = [M; -M] and c = [ln(hi2/lo1); -ln(lo2/hi1)], M = weights.

    The one builder of every interval system; c broadcasts over a batch of
    block bounds.  A row that does not exist (lo1 = 0 on the upper side,
    lo2 = 0 on the lower side) gets c = +inf, and a zero block (hi1 = 0)
    facing lo2 > 0 gets c = -inf: the system is empty.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper = np.where(lo1 > 0, _log_ratio(hi2, lo1), np.inf)
        lower = np.where(lo2 > 0, -_log_ratio(lo2, hi1), np.inf)
    return np.vstack([action.weights, -action.weights]), np.concatenate([upper, lower], axis=-1)


def _point_system(action, box: BoxSet, r):
    """{t : r_k exp(mu_k . t) inside the box bounds} for an (m, k) batch r."""
    lo, hi = np.array(box.bounds).T
    return _interval_system(action, r, r, lo, hi)


def _bases(LA):
    """Every set B of rank(LA) rows of LA of full rank (as row indices), the
    pseudo-inverses pinv(L_B), and an orthonormal basis (columns) of null(LA)."""
    null = null_space(LA, POLY_RANK_TOL)
    subsets = np.array(list(combinations(range(LA.shape[0]), LA.shape[1] - null.shape[1])),
                       dtype=int)
    if subsets.shape[1]:
        s = np.linalg.svd(LA[subsets], compute_uv=False)
        subsets = subsets[numerical_rank(s, POLY_RANK_TOL) == subsets.shape[1]]
    return subsets, np.linalg.pinv(LA[subsets]), null


def _polyhedra(L, c):
    """Nonemptiness, one point and the bounding box of {t : L t <= c_i} for
    every row c_i of the (m, p) array c, by exact enumeration.

    Samples are grouped by their set A of finite rows.  For each group the
    bases B of L_A are enumerated once, and every vertex t_B = pinv(L_B) c_B
    of every sample is one matrix product.  Modulo null(L_A) the polyhedron
    is pointed, so it is nonempty iff some t_B satisfies L_A t <= c_A + POLY_SLACK;
    the point is the mean of the feasible vertices.  By LP duality
    (c_B . pinv(L_B)^T e_j = (t_B)_j), max t_j is the minimum of (t_B)_j over
    the bases whose row j of pinv(L_B) is >= 0, and min t_j the maximum over
    the rows <= 0, when e_j lies in the row space of L_A; a side without
    such a basis is unbounded (+-inf).  Returns (nonempty, point, lo, hi),
    with nan points and boxes for empty systems.
    """
    c = np.atleast_2d(c)
    m, d = c.shape[0], L.shape[1]
    nonempty = np.zeros(m, dtype=bool)
    point, lo, hi = (np.full((m, d), np.nan) for _ in range(3))
    live = ~np.any(c == -np.inf, axis=1)
    patterns, group = np.unique(np.isfinite(c), axis=0, return_inverse=True)
    for g, rows in enumerate(patterns):
        idx = np.flatnonzero(live & (group.reshape(-1) == g))
        LA, cA = L[rows], c[idx][:, rows]
        bases, pinv, null = _bases(LA)
        T = np.einsum("bdr,mbr->mbd", pinv, cA[:, bases])
        ok = np.all(T @ LA.T <= cA[:, None, :] + POLY_SLACK, axis=2)
        nonempty[idx] = ok.any(axis=1)
        with np.errstate(invalid="ignore"):
            point[idx] = np.einsum("mb,mbd->md", ok, T) / ok.sum(axis=1)[:, None]
        eps = SIGN_TOL * np.abs(pinv).max(axis=(1, 2), keepdims=True, initial=0.0)
        spans = np.linalg.norm(null, axis=1) < POLY_RANK_TOL
        up = np.all(pinv >= -eps, axis=2) & spans
        down = np.all(pinv <= eps, axis=2) & spans
        hi[idx] = np.min(np.where(up, T, np.inf), axis=1, initial=np.inf)
        lo[idx] = np.max(np.where(down, T, -np.inf), axis=1, initial=-np.inf)
    lo[~nonempty] = hi[~nonempty] = np.nan
    return nonempty, point, lo, hi


def _recession_ray(L):
    """An extreme ray u of {u : L u <= 0} scaled to max|u| = 1, or None when
    the cone is {0}: a null vector of L when rank L < d, otherwise an edge
    -pinv(L_B) e_i at the vertex 0 of some basis B of L, verified by
    substitution against POLY_SLACK max|L| (L scales with the generators)."""
    _, pinv, null = _bases(L)
    candidates = null.T[:1] if null.shape[1] else -np.swapaxes(pinv, 1, 2).reshape(-1, L.shape[1])
    for u in candidates:
        ray = u / np.max(np.abs(u))
        ray[np.abs(ray) < ROUNDING] = 0.0
        if np.max(L @ ray, initial=-np.inf) <= POLY_SLACK * np.max(np.abs(L), initial=0.0):
            return ray
    return None


@dataclass(frozen=True)
class ParamInequalitySystem:
    """Linear system L t <= c in the group parameters; feasibility of the
    system is equivalent to nonemptiness of the meeting set by construction."""

    L: np.ndarray
    c: np.ndarray

    def feasible(self) -> bool:
        return bool(_polyhedra(self.L, self.c)[0][0])


def meeting_system(action: DiagonalizedAction, C1: BoxSet, C2: BoxSet) -> ParamInequalitySystem:
    """The inequality system whose solution set is {t : exp(.)^T C1 meets C2}.

    Point coordinates are eliminated block-wise on logs: |w| in [lo1, hi1]
    can be moved into [lo2, hi2] by the factor exp(mu.t) iff
    ln(lo2/hi1) <= mu.t <= ln(hi2/lo1).
    """
    if C1.k != action.k or C2.k != action.k:
        raise ValueError(f"boxes must have {action.k} block bounds")
    (lo1, hi1), (lo2, hi2) = np.array(C1.bounds).T, np.array(C2.bounds).T
    L, c = _interval_system(action, lo1, hi1, lo2, hi2)
    keep = c < np.inf
    return ParamInequalitySystem(L=L[keep], c=c[keep])


def is_relatively_compact(sys: ParamInequalitySystem) -> tuple[bool, np.ndarray | None]:
    """Boundedness of the meeting set via its recession cone {u : L u <= 0}.

    Raises InfeasibleSystem when the meeting set is empty (vacuously compact,
    reported distinctly).  When unbounded, returns an extreme ray of the
    cone, scaled to max|u| = 1 and verified by substitution.
    """
    if not sys.feasible():
        raise InfeasibleSystem("meeting set is empty")
    ray = _recession_ray(sys.L)
    return ray is None, ray


@dataclass(frozen=True)
class QuasiSectionVerdict:
    exists: str  # yes | no | unknown
    box_is_quasi_section: bool
    witness_direction: np.ndarray | None
    coverage_samples: int
    notes: tuple

    def to_json(self) -> dict:
        out = {
            "quasi_section_exists": self.exists,
            "box_is_quasi_section": self.box_is_quasi_section,
            "coverage_samples": self.coverage_samples,
            "notes": list(self.notes),
        }
        if self.witness_direction is not None:
            out["witness_direction"] = [float(x) for x in self.witness_direction]
        return out


def quasi_section_verdict(
    action: DiagonalizedAction,
    C,
    orbit_space_compact: bool | None = None,
    n_samples: int = 200,
    seed: int = 91,
) -> QuasiSectionVerdict:
    """Prop-2.5 dichotomy for a probe set C (one BoxSet or a union of them).

    Coverage H^T C = U is validated by sampling the top stratum (n_samples
    standard normal points from seeded_draws(seed)) and checking that the
    orbit of every sample meets C (one batched test per box).  The top
    stratum comes from structure, not from a census: every element
    sum_j t_j X_j of a semisimple family is semisimple, so if all its roots
    vanish it is 0 and t = 0; every xi with all blocks nonzero therefore
    lies on an orbit of dimension d.  With
    coverage, a bounded meeting set makes C itself a quasi-section; an
    unbounded one (plus compactness of the orbit space, supplied by the
    classifier) rules out every quasi-section for U.  For a union, ((C,C))
    decomposes into the pairwise meeting sets, so it is bounded iff every
    nonempty pair is.
    """
    boxes = [C] if isinstance(C, BoxSet) else list(C)
    xis = seeded_draws(seed, n_samples, action.alg.n)
    # skip the stratum boundary; conull coverage is what matters
    r = action.block_abs(xis)
    inside = np.min(r, axis=1) >= COVERAGE_MARGIN
    samples, rs = xis[inside], r[inside]
    covered = np.zeros(len(samples), dtype=bool)
    for box in boxes:
        covered |= _polyhedra(*_point_system(action, box, rs))[0]
    if not covered.all():
        xi = samples[np.argmin(covered)]
        raise CoverageUnverified(f"sample {np.round(xi, 4).tolist()} cannot be moved into C")
    witness = None
    for Ci, Cj in product(boxes, boxes):
        try:
            bounded, witness = is_relatively_compact(meeting_system(action, Ci, Cj))
        except InfeasibleSystem:
            continue  # this piece of the union never meets the other
        if not bounded:
            break
    if witness is None:
        exists, note = "yes", "((C,C)) bounded: C itself is a topological quasi-section"
    elif orbit_space_compact:
        exists, note = "no", ("orbit space compact and ((C,C)) unbounded: no "
                              "quasi-section exists for U at all")
    else:
        exists, note = "unknown", ("((C,C)) unbounded: C is not a quasi-section (no "
                                   "global conclusion without compactness of the orbit space)")
    return QuasiSectionVerdict(exists=exists, box_is_quasi_section=witness is None,
                               witness_direction=witness, coverage_samples=len(samples),
                               notes=(note,))
