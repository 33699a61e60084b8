"""Palais meeting sets for box sets under diagonalizable dual actions.

For a semisimple family the transposed action is block-diagonal in adapted
coordinates w = P^T xi, and the absolute value of each block coordinate
scales exactly by exp(mu_k . t).  Membership of exp(sum t_j X_j) in the
meeting set ((C1, C2)) = {h : h^T C1 meets C2} then reduces, block by block
and after eliminating the point coordinate on logs, to the linear system

    ln(lo2_k / hi1_k)  <=  mu_k . t  <=  ln(hi2_k / lo1_k),

one-sided whenever a lower bound is zero.  Relative compactness of the
meeting set is the boundedness of this polyhedron, decided by 2d linear
programs on the recession cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageUnverified,
    InfeasibleSystem,
    NotDiagonalizableFamily,
)
from .linalg import DilationAlgebra, blocks_semisimple, roots_decompose
from .orbits import orbit_dims


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first solve.

    Importing scipy.optimize takes longer than the whole of a classify or
    strata job, so only the subcommands that solve linear programs pay it.
    `wavelet` calls the same shim.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


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
    imag_weights: np.ndarray  # (k, d): imaginary parts (zero rows on real blocks)
    labels: tuple

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

    def group_transforms(self, ts) -> np.ndarray:
        """Batched exp(sum t_j X_j)^T via the exact block closed form.

        Semisimple action means exp is e^{mu.t} I on real blocks and
        e^{mu.t} times a rotation by nu.t on complex blocks; much faster
        than node-by-node mat_exp on quadrature grids.
        """
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        N, n = ts.shape[0], self.alg.n
        E = np.zeros((N, n, n))
        a = ts @ self.weights.T  # (N, k)
        b = ts @ self.imag_weights.T
        for i, sl in enumerate(self.slices):
            growth = np.exp(a[:, i])
            if sl.stop - sl.start == 2 and np.any(self.imag_weights[i]):
                cb, sb = np.cos(b[:, i]), np.sin(b[:, i])
                E[:, sl.start, sl.start] = growth * cb
                E[:, sl.start, sl.start + 1] = growth * sb
                E[:, sl.start + 1, sl.start] = -growth * sb
                E[:, sl.start + 1, sl.start + 1] = growth * cb
            else:
                for j in range(sl.start, sl.stop):
                    E[:, j, j] = growth
        PinvT = np.linalg.inv(self.basis).T
        # exp(Z)^T = P^{-T} exp(D)^T P^T
        return np.einsum("ab,qcb,cd->qad", PinvT, E, self.basis.T)


def diagonal_action(alg: DilationAlgebra) -> DiagonalizedAction:
    """Derive the block coordinates; NotDiagonalizableFamily if any generator
    acts with a nilpotent part on some root block."""
    rd = roots_decompose(alg)
    if not blocks_semisimple(alg, rd):
        raise NotDiagonalizableFamily(
            "a generator acts non-semisimply on a root block; only the "
            "sampling oracle applies to such families"
        )
    # order blocks by their leading original coordinate so box bounds line up
    # with the natural coordinates of the family
    def leading(V):
        support = np.linalg.norm(V, axis=1)
        return int(np.argmax(support > np.max(support) * 0.5))

    order = sorted(range(rd.p), key=lambda kk: (leading(rd.blocks[kk]), kk))
    cols = []
    slices = []
    weights = []
    imag_weights = []
    labels = []
    offset = 0
    rng = np.random.default_rng(1)
    for kk in order:
        lam, V = rd.roots[kk], rd.blocks[kk]
        real = rd.is_real(kk)
        m = V.shape[1]
        if real:
            cols.append(V)
            slices.append(slice(offset, offset + m))
            labels.append(f"real block (lambda = {np.round(lam.real, 9).tolist()})")
            weights.append(lam.real)
            imag_weights.append(np.zeros(alg.d))
            offset += m
        else:
            # rotate to a basis in which the block action is exactly
            # rotation-scaling: real/imag parts of a complex eigenvector of a
            # generic combination restricted to the plane
            coeffs = rng.standard_normal(alg.d)
            M = V.T @ alg.element(coeffs) @ V
            vals, vecs = np.linalg.eig(M)
            j = int(np.argmax(vals.imag))
            z = vecs[:, j]
            U = np.column_stack([z.real, z.imag])
            cols.append(V @ U)
            slices.append(slice(offset, offset + 2))
            labels.append(f"complex block (lambda = {np.round(lam, 9).tolist()})")
            # eigenvalues paired with this eigenvector (sign of the imaginary
            # part depends on the choice of z, not on the merge convention)
            row = np.array([
                complex(np.vdot(z, (V.T @ G @ V) @ z) / np.vdot(z, z))
                for G in alg.generators
            ])
            weights.append(row.real)
            imag_weights.append(row.imag)
            offset += 2
    basis = np.hstack(cols)
    if offset != alg.n or abs(np.linalg.det(basis)) < 1e-12:
        raise NotDiagonalizableFamily("adapted basis is singular")
    return DiagonalizedAction(
        alg=alg,
        basis=basis,
        slices=tuple(slices),
        weights=np.array(weights),
        imag_weights=np.array(imag_weights),
        labels=tuple(labels),
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

    def contains(self, block_abs: np.ndarray) -> np.ndarray:
        r = np.atleast_2d(block_abs)
        ok = np.ones(r.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            ok &= (r[:, i] >= lo) & (r[:, i] <= hi)
        return ok

    def enlarged(self, factor: float = 1.25) -> "BoxSet":
        return BoxSet([(lo / factor, hi * factor) for lo, hi in self.bounds])

    def to_json(self) -> dict:
        return {"bounds": [[lo, hi] for lo, hi in self.bounds]}


def shell_box(rho: float, k: int) -> BoxSet:
    """All blocks in the shell 1/rho <= |w| <= rho."""
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    return BoxSet([(1.0 / rho, rho)] * k)


def c_i_box(i: int, rho: float, k: int = 3) -> BoxSet:
    """The set C_i(rho): coordinate i only bounded above, shells elsewhere."""
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    bounds = [(1.0 / rho, rho)] * k
    bounds[i - 1] = (0.0, rho)
    return BoxSet(bounds)


@dataclass(frozen=True)
class ParamInequalitySystem:
    """Linear system L t <= c in the group parameters; feasibility of the
    system is equivalent to nonemptiness of the meeting set by construction."""

    L: np.ndarray
    c: np.ndarray
    labels: tuple
    d: int

    @property
    def rows(self) -> int:
        return self.L.shape[0]

    def satisfied(self, t, slack: float = 1e-9) -> bool:
        t = np.asarray(t, dtype=float)
        if self.rows == 0:
            return True
        return bool(np.all(self.L @ t <= self.c + slack))

    def feasible(self) -> bool:
        if self.rows == 0:
            return True
        res = linprog(
            np.zeros(self.d), A_ub=self.L, b_ub=self.c,
            bounds=[(None, None)] * self.d, method="highs",
        )
        return res.status == 0


@dataclass(frozen=True)
class MeetingSetDescription:
    """((Y, Z)) for a box pair: the derived system plus the boundedness verdict."""

    first: BoxSet
    second: BoxSet
    system: ParamInequalitySystem
    bounded: bool
    witness: np.ndarray | None

    def to_json(self) -> dict:
        out = {
            "first": self.first.to_json(),
            "second": self.second.to_json(),
            "n_inequalities": self.system.rows,
            "bounded": self.bounded,
        }
        if self.witness is not None:
            out["unbounded_direction"] = [float(x) for x in self.witness]
        return out


def meeting_system(action, C1: BoxSet, C2: BoxSet) -> ParamInequalitySystem:
    """The inequality system whose solution set is {t : exp(.)^T C1 meets C2}.

    Point coordinates are eliminated block-wise on logs: |w| in [lo1, hi1]
    can be moved into [lo2, hi2] by the factor exp(mu.t) iff
    ln(lo2/hi1) <= mu.t <= ln(hi2/lo1).
    """
    action = _as_action(action)
    if C1.k != action.k or C2.k != action.k:
        raise ValueError(f"boxes must have {action.k} block bounds")
    rows, rhs, labels = [], [], []
    for i in range(action.k):
        mu = action.weights[i]
        lo1, hi1 = C1.bounds[i]
        lo2, hi2 = C2.bounds[i]
        if lo1 > 0:  # upper side: mu.t <= ln(hi2/lo1)
            rows.append(mu)
            rhs.append(np.log(hi2 / lo1))
            labels.append(f"block {i}: mu.t <= ln(hi2/lo1)")
        if lo2 > 0:  # lower side: mu.t >= ln(lo2/hi1)
            rows.append(-mu)
            rhs.append(-np.log(lo2 / hi1))
            labels.append(f"block {i}: mu.t >= ln(lo2/hi1)")
    L = np.array(rows) if rows else np.zeros((0, action.d))
    c = np.array(rhs) if rhs else np.zeros(0)
    return ParamInequalitySystem(L=L, c=c, labels=tuple(labels), d=action.d)


def is_relatively_compact(sys: ParamInequalitySystem) -> tuple[bool, np.ndarray | None]:
    """Boundedness of the meeting set via its recession cone {u : L u <= 0}.

    Raises InfeasibleSystem when the meeting set is empty (vacuously compact,
    reported distinctly).  When unbounded, returns a nonzero recession
    direction verified by substitution.
    """
    if not sys.feasible():
        raise InfeasibleSystem("meeting set is empty")
    if sys.rows == 0:
        return False, np.eye(sys.d)[0]
    for k in range(sys.d):
        for sign in (1.0, -1.0):
            obj = np.zeros(sys.d)
            obj[k] = -sign  # maximize sign * u_k
            res = linprog(
                obj, A_ub=sys.L, b_ub=np.zeros(sys.rows),
                bounds=[(-1.0, 1.0)] * sys.d, method="highs",
            )
            if res.status == 0 and -res.fun > 1e-9:
                u = np.asarray(res.x)
                u[np.abs(u) < 1e-12] = 0.0
                if np.max(sys.L @ u) <= 1e-9 and np.linalg.norm(u) > 0:
                    return False, u
    return True, None


def describe_meeting_set(action, C1: BoxSet, C2: BoxSet) -> MeetingSetDescription:
    sys = meeting_system(action, C1, C2)
    bounded, witness = is_relatively_compact(sys)
    return MeetingSetDescription(first=C1, second=C2, system=sys,
                                 bounded=bounded, witness=witness)


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


def normalize_into(action, C: BoxSet, xi, slack: float = 0.0):
    """Parameters t with exp(.)^T xi inside C (block-wise log feasibility),
    or None when no such t exists.  Blocks with zero magnitude need lo = 0."""
    action = _as_action(action)
    r = action.block_abs(np.asarray(xi, dtype=float).reshape(1, -1))[0]
    rows, rhs = [], []
    for i in range(action.k):
        lo, hi = C.bounds[i]
        if r[i] <= 0:
            if lo > 0:
                return None
            continue
        rows.append(action.weights[i])
        rhs.append(np.log(hi / r[i]) - slack)
        if lo > 0:
            rows.append(-action.weights[i])
            rhs.append(-np.log(lo / r[i]) - slack)
    if not rows:
        return np.zeros(action.d)
    L, c = np.array(rows), np.array(rhs)
    res = linprog(np.zeros(action.d), A_ub=L, b_ub=c,
                  bounds=[(None, None)] * action.d, method="highs")
    if res.status != 0:
        return None
    return np.asarray(res.x)


def quasi_section_verdict(
    action,
    C,
    orbit_space_compact: bool | None = None,
    n_samples: int = 200,
    seed: int = 91,
) -> QuasiSectionVerdict:
    """Prop-2.5 dichotomy for a probe set C (one BoxSet or a union of them).

    Coverage H^T C = U is validated by sampling the top stratum and
    normalizing samples into C.  With coverage, a bounded meeting set makes
    C itself a quasi-section; an unbounded one (plus compactness of the
    orbit space, supplied by the classifier) rules out every quasi-section
    for U.  For a union, ((C,C)) decomposes into the pairwise meeting sets,
    so it is bounded iff every nonempty pair is.
    """
    action = _as_action(action)
    boxes = [C] if isinstance(C, BoxSet) else list(C)
    alg = action.alg
    rng = np.random.default_rng(seed)
    xis = rng.standard_normal((n_samples, alg.n))
    top = orbit_dims(alg, xis) == alg.d
    # skip the stratum boundary; conull coverage is what matters
    inside = np.min(action.block_abs(xis), axis=1) >= 1e-6
    samples = xis[top & inside]
    for xi in samples:
        if all(normalize_into(action, box, xi) is None for box in boxes):
            raise CoverageUnverified(
                f"sample {np.round(xi, 4).tolist()} cannot be moved into C"
            )
    checked = len(samples)
    bounded, witness = True, None
    for Ci in boxes:
        for Cj in boxes:
            try:
                ok, w = is_relatively_compact(meeting_system(action, Ci, Cj))
            except InfeasibleSystem:
                continue  # this piece of the union never meets the other
            if not ok:
                bounded, witness = False, w
                break
        if not bounded:
            break
    if bounded:
        return QuasiSectionVerdict(
            exists="yes",
            box_is_quasi_section=True,
            witness_direction=None,
            coverage_samples=checked,
            notes=("((C,C)) bounded: C itself is a topological quasi-section",),
        )
    if orbit_space_compact:
        return QuasiSectionVerdict(
            exists="no",
            box_is_quasi_section=False,
            witness_direction=witness,
            coverage_samples=checked,
            notes=("orbit space compact and ((C,C)) unbounded: no quasi-section "
                   "exists for U at all",),
        )
    return QuasiSectionVerdict(
        exists="unknown",
        box_is_quasi_section=False,
        witness_direction=witness,
        coverage_samples=checked,
        notes=("((C,C)) unbounded: C is not a quasi-section (no global "
               "conclusion without compactness of the orbit space)",),
    )


@dataclass(frozen=True)
class NumericalMeetingProbe:
    """Sampling surrogate for ((Y, Z)) when the family is not simultaneously
    diagonalizable.  Verdicts from this path are marked 'numerical': a hit
    outside the margin window means unbounded, absence of such hits is only
    evidence of boundedness."""

    hits: np.ndarray  # (m, d) parameters found inside the meeting set
    probe_box: tuple
    margin_box: tuple
    bounded_numerical: bool
    witness: np.ndarray | None

    def to_json(self) -> dict:
        out = {
            "bounded_numerical": self.bounded_numerical,
            "n_hits": int(self.hits.shape[0]),
            "probe_box": [list(b) for b in self.probe_box],
            "margin_box": [list(b) for b in self.margin_box],
            "verdict_quality": "numerical",
        }
        if self.witness is not None:
            out["witness_parameters"] = [float(x) for x in self.witness]
        return out


def meeting_probe(alg: DilationAlgebra, first_points, second_contains,
                  probe_box=None, per_axis: int = 21,
                  margin: float = 0.8) -> NumericalMeetingProbe:
    """Brute-force probe of ((Y, Z)) = {h : h^T Y meets Z} for any family.

    `first_points` is a finite sample of Y, `second_contains` a membership
    callable for Z.  Parameters are scanned on a grid over `probe_box`
    (default [-6, 6]^d); a hit outside the margin window certifies
    non-compactness, anything else is a numerical-only boundedness verdict.
    """
    from .linalg import mat_exp  # local import to avoid a cycle at module load

    pts = np.atleast_2d(np.asarray(first_points, dtype=float))
    d = alg.d
    if probe_box is None:
        probe_box = tuple((-6.0, 6.0) for _ in range(d))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in probe_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    ts = np.stack([g.ravel() for g in mesh], axis=-1)
    margin_box = tuple((lo * margin, hi * margin) for lo, hi in probe_box)
    hits = []
    witness = None
    for t in ts:
        hT = mat_exp(alg.element(t)).T
        if np.any(second_contains(pts @ hT.T)):
            hits.append(t)
            outside = any(t[j] < margin_box[j][0] or t[j] > margin_box[j][1]
                          for j in range(d))
            if outside and witness is None:
                witness = t
    hits = np.array(hits) if hits else np.zeros((0, d))
    return NumericalMeetingProbe(
        hits=hits,
        probe_box=probe_box,
        margin_box=margin_box,
        bounded_numerical=witness is None,
        witness=witness,
    )


def _as_action(action) -> DiagonalizedAction:
    if isinstance(action, DiagonalizedAction):
        return action
    if isinstance(action, DilationAlgebra):
        return diagonal_action(action)
    raise TypeError("expected a DiagonalizedAction or DilationAlgebra")
