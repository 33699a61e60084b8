"""Admissible-wavelet construction and verification.

Pipeline: a smooth bump phi sandwiched between a quasi-section box C and an
enlargement W; the Haar integral sigma = int_H |phi(h^T xi)|^2 dh (Haar
measure on H = exp(h) is Lebesgue dt in the parameters), which separates
into one 1-D integral per block, each by the trapezoid rule; the wavelet
ghat = phi / sqrt(sigma), which satisfies the Calderon normalization

    int_H |ghat(h^T xi)|^2 dh = 1

on the covered set by construction; the Calderon check, which integrates
that normalization over the group parameters with the d-dimensional rule
cell_rules and so checks sigma independently; the discrete wavelet transform

    V_g f(x, h) = |det h|^{1/2} (fhat . conj(ghat o h^T))^v (x)

computed slice by slice with FFTs: cwt_slices yields each slice as it is
made, so a caller that writes or sums them holds one slice at a time, and
cwt fills one array from them; and the L1 reproducing-kernel estimate whose
parameter support is confined to the meeting-set box of (W, W).

phi and ghat depend on xi only through its block magnitudes r, which h_t^T
scales as r_k exp(mu_k . t).  The Calderon integrals, the cwt slices and
the L1 slices are therefore all evaluated on r . exp(W t); no n x n group
transform is formed.

Every parameter integral (the Calderon check, the cwt lattice and the L1
estimate) uses one rule, cell_rules: cell centres with equal weights.  Each
integrand is C^infinity and vanishes to all orders at the faces of its
padded parameter box, where an equispaced rule converges faster than any
power (Trefethen & Weideman, SIAM Review 56, 2014); a Gauss rule would
spend its end-clustered nodes where the integrand is zero.  The Calderon
integrals of all samples go through one batched call, one parameter box
per sample.

The L1 estimate works on axis groups: the finest partition of the lattice
axes in which each block's adapted coordinates read only its own group's
axes.  A slice ghat . ghat(h_t^T .) is sigma^{-1} times one factor per
group, so its inverse FFT and its L1 norm are products of per-group sums
over the group's sub-lattice, each computed once per distinct row of the
group's block scales.  An aligned family splits (case (a) into
{x1, x2} | {x3}); a conjugated family is one group, the whole lattice.  A
group's factor is evaluated on its support only, and a row that vanishes
there runs no FFT.

Left Haar on G = R^n x| H is |det h|^{-1} dx dh and the modular function is
Delta_G(x, h) = |det h|^{-1}; see docs/haar_and_modular.md for the
derivation.  Delta_G^{-1/2} enters the L1 weight as |det h|^{+1/2}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandLimitViolation,
    InvalidSignal,
    QuasiSectionRefused,
    SetsNotNested,
    SupportUnbounded,
    ZeroSigma,
)
from .quasisection import (
    BoxSet,
    DiagonalizedAction,
    _point_system,
    _polyhedra,
    is_relatively_compact,
    meeting_system,
)


# the L1 weight |det h|^kappa at kappa = 1/2, which is Delta_G^{-1/2}
_WEIGHT_EXPONENT = 0.5


def smoothstep(x: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x)-mollified between,
    NaN at NaN.  exp runs only on 0 < x < 1 (and NaN), where p + q > 0."""
    x = np.asarray(x, dtype=float)
    above = x >= 1
    out = np.array(above, dtype=float)
    mid = ~(above | (x <= 0))
    xm = x[mid]
    p = np.exp(-1.0 / np.maximum(xm, 1e-300))
    q = np.exp(-1.0 / np.maximum(1.0 - xm, 1e-300))
    out[mid] = p / (p + q)
    return out


@dataclass(frozen=True)
class BumpFunction:
    """Smooth 1_{C} <= phi <= 1_{W} built from per-block radial profiles."""

    action: DiagonalizedAction
    inner: BoxSet
    outer: BoxSet

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.block_values(self.action.block_abs(pts))

    def factor(self, k: int, x: np.ndarray) -> np.ndarray:
        """Block k's factor of phi at the block magnitudes x."""
        (ci_lo, ci_hi), (wo_lo, wo_hi) = self.inner.bounds[k], self.outer.bounds[k]
        out = smoothstep((wo_hi - x) / (wo_hi - ci_hi))
        if wo_lo > 0:
            out *= smoothstep((x - wo_lo) / (ci_lo - wo_lo))
        return out

    def block_values(self, r: np.ndarray) -> np.ndarray:
        """phi as a function of the block-magnitude coordinates: the product
        of the per-block factors."""
        r = np.atleast_2d(r)
        out = np.ones(r.shape[0])
        for k in range(r.shape[1]):
            out *= self.factor(k, r[:, k])
        return out


def bump(action: DiagonalizedAction, C: BoxSet, W: BoxSet) -> BumpFunction:
    """Validated sandwich bump; SetsNotNested unless closure(C) sits inside W."""
    if C.k != W.k:
        raise SetsNotNested("C and W must bound the same blocks")
    for (c_lo, c_hi), (w_lo, w_hi) in zip(C.bounds, W.bounds):
        if not (c_hi < w_hi):
            raise SetsNotNested("upper bound of C must lie inside W")
        if c_lo > 0 and not (w_lo < c_lo):
            raise SetsNotNested("lower bound of C must lie inside W")
        if c_lo == 0 and w_lo != 0:
            raise SetsNotNested("full C-block needs a full W-block")
    return BumpFunction(action=action, inner=C, outer=W)


def _padded_boxes(L, c, margin: float):
    """Which systems {L t <= c_i} (rows of c) are nonempty, and their bounding
    boxes, (m', d, 2), padded by margin * max(hi - lo, 0.1) on each side.
    Raises SupportUnbounded when a box has an infinite side."""
    nonempty, _, lo, hi = _polyhedra(L, c)
    lo, hi = lo[nonempty], hi[nonempty]
    unbounded = np.flatnonzero(~np.isfinite(lo).all(axis=0) | ~np.isfinite(hi).all(axis=0))
    if unbounded.size:
        raise SupportUnbounded(f"parameter support unbounded in direction {unbounded[0]}")
    pad = margin * np.maximum(hi - lo, 0.1)
    return nonempty, np.stack([lo - pad, hi + pad], axis=-1)


def meeting_param_box(action: DiagonalizedAction, C1: BoxSet, C2: BoxSet, margin: float = 0.15):
    """Bounding box of the meeting-set polyhedron ((C1, C2)), enlarged by margin.

    Raises SupportUnbounded when the polyhedron is unbounded in some
    parameter direction (or empty).
    """
    sys = meeting_system(action, C1, C2)
    nonempty, boxes = _padded_boxes(sys.L, sys.c, margin)
    if not nonempty[0]:
        raise SupportUnbounded("the meeting set is empty: no parameter-support box")
    return tuple(map(tuple, boxes[0].tolist()))


# margin of a sample's parameter-support box, relative to its widths
_SUPPORT_PAD = 0.05

# node rows per batch of _haar_integral: bounds its temporaries whatever the
# number of rows
_GROUP_NODES = 8192


def cell_rules(boxes, counts) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centred product rules over m boxes at once.

    `boxes` is (m, d, 2), one (lo, hi) pair per axis and box; `counts` is
    one int, or one per axis.  Axis j of a box is cut into counts[j] cells
    of width h_j = (hi - lo) / counts[j]; the nodes are the cell centres
    lo + h_j (i + 1/2), in C order over the axes, and every weight is the
    cell volume prod_j h_j.  Returns nodes (m, N, d) and weights (m, N) with
    N = prod(counts).
    """
    boxes = np.asarray(boxes, dtype=float)
    m, d = boxes.shape[:2]
    counts = tuple(int(c) for c in np.broadcast_to(counts, d))
    lo = boxes[..., 0]
    h = (boxes[..., 1] - lo) / counts
    nodes = np.empty((m, *counts, d))
    for j, c in enumerate(counts):
        axis = (m,) + (1,) * j + (c,) + (1,) * (d - j - 1)
        nodes[..., j] = (lo[:, j, None] + h[:, j, None] * (np.arange(c) + 0.5)).reshape(axis)
    nodes = nodes.reshape(m, -1, d)
    return nodes, np.repeat(np.prod(h, axis=1)[:, None], nodes.shape[1], axis=1)


def _haar_integral(action: DiagonalizedAction, f, r: np.ndarray, boxes, orders) -> np.ndarray:
    """sum_q w_q |f(r . exp(W t_q))|^2 for each row of the block magnitudes r,
    over its own parameter box: `boxes` is (m, d, 2), one box per row of r.

    cell_rules with `orders` cells per group parameter (one int, or one per
    parameter) for int_H |f(h^T xi)|^2 dh, where f is a function of block
    magnitudes: equispaced, because the smooth integrands met here vanish
    to all orders at the box faces.  The rows go through in groups of at
    most _GROUP_NODES node rows.
    """
    boxes = np.reshape(boxes, (r.shape[0], action.d, 2))
    step = max(1, _GROUP_NODES // int(np.prod(np.broadcast_to(orders, action.d))))
    vals = np.empty(r.shape[0])
    for i in range(0, r.shape[0], step):
        nodes, weights = cell_rules(boxes[i:i + step], orders)
        rows = r[i:i + step, None, :] * np.exp(nodes @ action.weights.T)
        fv = f(rows.reshape(-1, r.shape[1])).reshape(weights.shape)
        # one dot per row: a single row reduces exactly as weights @ (fv * fv)
        vals[i:i + step] = (weights[:, None, :] @ (fv * fv)[:, :, None])[:, 0, 0]
    return vals


# trapezoid intervals N of sigma's block integrals, which run on 2N
_SIGMA_INTERVALS = 256


@dataclass(frozen=True)
class WaveletSpec:
    """Frequency-domain wavelet ghat = phi / sqrt(sigma).  The box's orbits
    are open, so sigma is one constant."""

    action: DiagonalizedAction
    phi: BumpFunction
    C: BoxSet
    W: BoxSet
    param_box: tuple
    sigma: float
    convergence: dict

    def block_values(self, r: np.ndarray) -> np.ndarray:
        """ghat as a function of the block-magnitude coordinates."""
        return self.phi.block_values(r) / np.sqrt(self.sigma)

    def ghat(self, points) -> np.ndarray:
        return self.block_values(self.action.block_abs(points))

    def to_json(self) -> dict:
        return {
            "basis": self.action.basis.tolist(),
            "slices": [[sl.start, sl.stop] for sl in self.action.slices],
            "C": self.C.to_json(),
            "W": self.W.to_json(),
            "param_box": [list(b) for b in self.param_box],
            "weight_exponent": _WEIGHT_EXPONENT,
            "sigma": self.sigma,
            "convergence": self.convergence,
        }


def synth_wavelet(action: DiagonalizedAction, C: BoxSet, W: BoxSet | None = None) -> WaveletSpec:
    """Construct ghat = phi / sqrt(sigma) over the box C.

    Refuses (with the checker's witness) when ((C, C)) is unbounded; W
    defaults to [lo / 1.25, 1.25 hi] in every block of C.  Only
    boxes with open orbits (one block per group parameter, every block of W
    bounded below) build a wavelet; other boxes raise ZeroSigma.  There
    h_t^T scales block k by exp(mu_k . t) with an invertible weight matrix
    M (rows mu_k), so s_k = ln r_k + mu_k . t separates the Haar integral:

        sigma = |det M|^{-1} prod_k int phi_k(e^s)^2 ds,

    the same for every xi whose blocks are all nonzero.  Each integrand
    vanishes to all orders at both ends of [ln lo_k(W), ln hi_k(W)], where
    the trapezoid rule (the step times the node sum) converges faster than
    any power (Trefethen & Weideman, SIAM Review 56, 2014).  `convergence`
    has each block's relative difference from N to 2N intervals; above 0.1%
    it warns.
    """
    sysCC = meeting_system(action, C, C)
    bounded, witness = is_relatively_compact(sysCC)
    if not bounded:
        raise QuasiSectionRefused(
            "((C,C)) is unbounded: C is not a quasi-section", witness=witness
        )
    if W is None:
        W = BoxSet([(lo / 1.25, hi * 1.25) for lo, hi in C.bounds])
    phi = bump(action, C, W)
    param_box = meeting_param_box(action, W, W)
    if action.k != action.d:
        raise ZeroSigma(
            f"orbits are not open ({action.k} blocks, {action.d} group parameters): "
            "sigma is not constant, and only boxes with open orbits build a wavelet"
        )
    if any(lo == 0 for lo, _ in W.bounds):
        raise ZeroSigma(
            "a block of W has lower bound 0, so its orbits are not open: sigma is "
            "not constant, and only boxes with open orbits build a wavelet"
        )
    integrals, rel_diff = [], []
    for k, (lo, hi) in enumerate(W.bounds):
        u, h = np.linspace(np.log(lo), np.log(hi), 2 * _SIGMA_INTERVALS + 1, retstep=True)
        f = phi.factor(k, np.exp(u)) ** 2
        fine, coarse = h * np.sum(f), 2.0 * h * np.sum(f[::2])
        integrals.append(fine)
        rel_diff.append(float(abs(fine - coarse) / fine))
    if max(rel_diff) > 1e-3:
        warnings.warn("sigma's block integrals not stable to 0.1% from "
                      f"{_SIGMA_INTERVALS} to {2 * _SIGMA_INTERVALS} trapezoid intervals")
    return WaveletSpec(
        action=action,
        phi=phi,
        C=C,
        W=W,
        param_box=param_box,
        sigma=float(np.prod(integrals) / abs(np.linalg.det(action.weights))),
        convergence={"block_rel_diff": rel_diff,
                     "trapezoid_intervals": [_SIGMA_INTERVALS, 2 * _SIGMA_INTERVALS]},
    )


@dataclass(frozen=True)
class CalderonReport:
    max_deviation: float
    n_covered: int
    n_uncovered: int
    orders: tuple
    values: np.ndarray

    def to_json(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "n_covered": self.n_covered,
            "n_uncovered": self.n_uncovered,
            "orders": list(self.orders),
        }


def calderon_check(spec: WaveletSpec, xis, orders) -> CalderonReport:
    """max |int_H |ghat(h^T xi)|^2 dh - 1| over covered samples, by
    cell_rules with `orders` cells per group parameter.  The integrand
    vanishes to all orders at the faces of each sample's box, so the
    equispaced rule converges faster than any power of the order.

    A sample is covered when its orbit meets C, decided exactly by the
    polyhedral kernel; uncovered samples are counted and excluded from the
    max.  Each covered sample integrates over its own tight parameter-support
    box (the integrand support shifts with the sample's orbit position), and
    all of them go through one batched _haar_integral call.  Never raises on
    large deviation.
    """
    action = spec.action
    orders = tuple(np.broadcast_to(orders, action.d).tolist())
    rs = action.block_abs(xis)
    covered = _polyhedra(*_point_system(action, spec.C, rs))[0]
    _, boxes = _padded_boxes(*_point_system(action, spec.W, rs[covered]), _SUPPORT_PAD)
    # sigma comes from the block structure, not from this rule, so the
    # deviation is the d-dimensional rule's error against an independent
    # sigma: 1.6e-5 on case (a) at order 64
    vals = _haar_integral(action, spec.block_values, rs[covered], boxes, orders)
    dev = float(np.max(np.abs(vals - 1.0))) if vals.size else float("nan")
    return CalderonReport(
        max_deviation=dev,
        n_covered=int(covered.sum()),
        n_uncovered=int((~covered).sum()),
        orders=orders,
        values=vals,
    )


@dataclass(frozen=True)
class TransformLattice:
    """The lattice of V_g f: (parameter lattice) x (spatial lattice), with
    the signal whose transform it carries."""

    spatial_shape: tuple
    dx: tuple
    param_points: np.ndarray  # (m, d)
    param_weights: np.ndarray  # (m,)
    dets: np.ndarray  # (m,)
    f: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real f, else complex128."""
        return np.dtype(complex if np.iscomplexobj(self.f) else float)

    def haar_energy(self, slice_energies) -> float:
        """Discrete L2(G) norm squared with left Haar |det h|^-1 dx dh, from
        slice_energy of each coefficient slice in parameter order."""
        cell = float(np.prod(self.dx))
        return float(np.sum(self.param_weights / self.dets * np.asarray(slice_energies)) * cell)

    def signal_energy(self) -> float:
        return float(np.sum(np.abs(self.f) ** 2) * np.prod(self.dx))


def slice_energy(c: np.ndarray) -> float:
    """sum |c|^2 over one coefficient slice."""
    return np.sum(np.abs(c.ravel()) ** 2)


@dataclass(frozen=True)
class TransformGrid(TransformLattice):
    """Wavelet coefficients V_g f on (parameter lattice) x (spatial lattice)."""

    coeffs: np.ndarray  # (m, *spatial_shape) of dtype

    def coefficient_energy(self) -> float:
        """Discrete L2(G) norm squared with left Haar |det h|^-1 dx dh."""
        return self.haar_energy([slice_energy(c) for c in self.coeffs])

    def isometry_ratio(self) -> float:
        return self.coefficient_energy() / self.signal_energy()


def _mesh(axes) -> np.ndarray:
    """The points of the product lattice of 1-D axes, C order, one per row."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _half_lattice(shape, dx) -> tuple[tuple, np.ndarray]:
    """The rfftn half of the FFT frequency lattice (2 pi fftfreq per axis,
    C order): its shape and its points.

    The last axis keeps bins 0..N/2, so bin N/2 keeps fftfreq's -Nyquist
    sign.  ghat is real and even in xi, so the half lattice carries the
    whole spectrum of every real slice.
    """
    axes = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, dx)]
    axes[-1] = axes[-1][: shape[-1] // 2 + 1]
    return tuple(len(a) for a in axes), _mesh(axes)


def _shell_share(fhat: np.ndarray, shape) -> float:
    """The share of the spectral mass of a signal on the lattice `shape`
    that sits in the outer 10% Nyquist shell.

    fhat is the rfftn half spectrum of one or more real parts, stacked on
    leading axes.  The shell is symmetric under xi -> -xi, so by Hermitian
    symmetry the half spectrum counts last-axis bins 1..N/2-1 twice (their
    mirrors are dropped) and bins 0 and N/2 once; for a complex f the
    cross terms of its two parts cancel over the symmetric shell."""
    power = np.abs(fhat) ** 2
    power = power.reshape((-1,) + power.shape[-len(shape):]).sum(axis=0)
    power[..., 1:(shape[-1] + 1) // 2] *= 2.0
    mask = np.zeros(power.shape, dtype=bool)
    for axis, N in enumerate(shape):
        k = np.abs(np.fft.fftfreq(N, 1.0))[:power.shape[axis]] * 2.0  # 1 = Nyquist
        edge = k > 0.9
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        mask |= edge[tuple(sl)]
    total = np.sum(power)
    return float(np.sum(power[mask]) / total) if total > 0 else 0.0


def cwt_slices(spec: WaveletSpec, f: np.ndarray, dx, param_counts):
    """The lattice of the discrete wavelet transform of f and an iterator of
    its coefficient slices V_g f(., h_t), one (*shape) array per parameter
    point in lattice order: one real inverse FFT per point and per real
    part of f.

    f must be finite and not all zero, have one axis per dimension of the
    action, live on a power-of-two lattice and be band-limited to its
    Nyquist box (at most 1e-8 of its spectral mass in the outer 10% shell);
    every check runs before this returns.  ghat(h^T xi) is ghat on the
    lattice's block magnitudes scaled by exp(mu_k . t).  ghat is real and
    even in xi, so a real f has real coefficients, computed on the rfftn
    half spectrum; a complex f gives V_g(Re f) + i V_g(Im f).
    """
    f = np.asarray(f)
    shape = f.shape
    if f.ndim != spec.action.alg.n:
        raise InvalidSignal(f"signal has {f.ndim} axes, the action acts on "
                            f"R^{spec.action.alg.n}")
    if any(N < 1 or N & (N - 1) for N in shape):
        raise InvalidSignal(f"signal lattice sizes must be powers of two, got {shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidSignal("signal samples must be finite")
    if not np.any(f):
        raise InvalidSignal("signal is zero everywhere: the isometry ratio is undefined")
    dx = (float(dx),) * f.ndim if np.isscalar(dx) else tuple(float(v) for v in dx)
    parts = np.stack([f.real, f.imag]) if np.iscomplexobj(f) else f[None]
    fhat = np.fft.rfftn(parts, axes=tuple(range(1, parts.ndim)))
    share = _shell_share(fhat, shape)
    if share > 1e-8:
        raise BandLimitViolation(f"{share:.3g} of the spectral mass sits in the Nyquist shell")
    (pts,), (w,) = cell_rules([spec.param_box], param_counts)
    traces = np.array([np.trace(G) for G in spec.action.alg.generators])
    lattice = TransformLattice(spatial_shape=shape, dx=dx, param_points=pts,
                               param_weights=w, dets=np.exp(pts @ traces), f=f)
    return lattice, _coefficient_slices(spec, lattice, fhat)


def _coefficient_slices(spec: WaveletSpec, lattice: TransformLattice, fhat: np.ndarray):
    """The slices of cwt_slices from fhat, the half spectra of f's real
    parts stacked on a leading axis."""
    shape = lattice.spatial_shape
    axes = tuple(range(1, fhat.ndim))
    half, freqs = _half_lattice(shape, lattice.dx)
    rf = spec.action.block_abs(freqs)
    for gh, det in zip(_lattice_slices(spec, rf, lattice.param_points), lattice.dets):
        out = np.fft.irfftn(fhat * (gh.reshape(half) * np.sqrt(det)), s=shape, axes=axes)
        yield out[0] if out.shape[0] == 1 else out[0] + 1j * out[1]


def cwt(spec: WaveletSpec, f: np.ndarray, dx, param_counts) -> TransformGrid:
    """Discrete wavelet transform: the slices of cwt_slices in one
    (m, *shape) array, float64 for a real f, else complex128."""
    lattice, slices = cwt_slices(spec, f, dx, param_counts)
    coeffs = np.empty(lattice.param_points.shape[:1] + lattice.spatial_shape, lattice.dtype)
    for i, c in enumerate(slices):
        coeffs[i] = c
    return TransformGrid(**vars(lattice), coeffs=coeffs)


@dataclass(frozen=True)
class L1Report:
    value: float
    param_box: tuple
    param_counts: tuple
    containment_max: float

    def to_json(self) -> dict:
        return {
            "l1_estimate": self.value,
            "param_box": [list(b) for b in self.param_box],
            "param_counts": list(self.param_counts),
            "support_containment_max": self.containment_max,
            "weight_exponent": _WEIGHT_EXPONENT,
        }


def l1_estimate(spec: WaveletSpec, shape, dx, param_counts=64) -> L1Report:
    """Upper bound for || Delta_G^{-1/2} V_g g ||_L1 via

        int ||(ghat . conj(ghat_h))^v||_L1 |det h|^{-1/2} |det h|^{1/2} dh,

    where Delta_G^{-1/2} = |det h|^{1/2} (_WEIGHT_EXPONENT) cancels the
    transform's |det h|^{-1/2}, so each slice counts with its L1 norm and
    its lattice weight alone.  The h-support is exactly the meeting set of
    (W, W): SupportUnbounded when that set is unbounded, and coefficients
    outside its box are checked to vanish.

    Each slice ghat . ghat_t is sigma^{-1} times a product over the axis
    groups of _axis_groups, and each factor reads only its group's axes.  So
    the slice's inverse FFT and its sum |.| factor too: a slice's L1 norm is
    sigma^{-1} times the product of its group sums, and each group sum is
    computed once per distinct row of its blocks' scales exp(mu_k . t).
    """
    action = spec.action
    box = meeting_param_box(action, spec.W, spec.W, margin=0.0)
    shape = (int(shape),) * action.alg.n if np.isscalar(shape) else tuple(shape)
    if np.isscalar(param_counts):
        param_counts = (int(param_counts),) * action.d
    dx = (float(dx),) * len(shape) if np.isscalar(dx) else tuple(float(v) for v in dx)
    (pts,), (w,) = cell_rules([box], param_counts)
    vals = _l1_values(spec, shape, dx, np.concatenate([pts, _containment_points(box)]))
    return L1Report(
        value=float(w @ vals[:len(w)]),
        param_box=box,
        param_counts=tuple(param_counts),
        containment_max=float(np.max(vals[len(w):])),
    )


def _l1_values(spec: WaveletSpec, shape, dx, ts) -> np.ndarray:
    """sum |(ghat . ghat_t)^v| over the lattice `shape`, one float per row of
    ts: sigma^{-1} times the product of the axis groups' sums."""
    scales = np.exp(ts @ spec.action.weights.T)
    vals = np.full(ts.shape[0], 1.0 / spec.sigma)
    for axes, blocks in _axis_groups(spec.action):
        rows, which = np.unique(scales[:, blocks], axis=0, return_inverse=True)
        vals *= _group_l1(spec, axes, blocks, shape, dx, rows)[which]
    return vals


def _axis_groups(action: DiagonalizedAction) -> list[tuple[tuple, tuple]]:
    """The finest partition of the lattice axes in which every block's
    adapted coordinates basis[:, slices[k]] read only the axes of its own
    group (exact zeros, no tolerance), as sorted (axes, blocks) pairs.

    A coordinate-aligned family splits; a conjugated one is one group."""
    groups = []
    for k, sl in enumerate(action.slices):
        axes, blocks = set(np.flatnonzero(action.basis[:, sl].any(axis=1)).tolist()), [k]
        rest = []
        for g_axes, g_blocks in groups:
            if g_axes & axes:
                axes |= g_axes
                blocks += g_blocks
            else:
                rest.append((g_axes, g_blocks))
        groups = rest + [(axes, blocks)]
    return sorted((tuple(sorted(a)), tuple(sorted(b))) for a, b in groups)


def _group_l1(spec: WaveletSpec, axes, blocks, shape, dx, scales) -> np.ndarray:
    """sum |(p_s)^v| over the sub-lattice of `shape` on `axes`, where
    p_s = prod_{k in blocks} phi_k(r_k) phi_k(s_k r_k), one float per row of
    scales (columns: the scales s_k of `blocks`).

    p_s is real and even in xi, so it lives on the sub-lattice's rfftn half.
    It vanishes off the support of its s = 1 factor, so it is evaluated on
    that support only, and a row whose product is zero there gives exactly
    0.0 without an FFT.
    """
    sub = tuple(shape[j] for j in axes)
    half, freqs = _half_lattice(sub, tuple(dx[j] for j in axes))
    pts = np.zeros((freqs.shape[0], len(shape)))
    pts[:, axes] = freqs
    rf = spec.action.block_abs(pts)
    g0 = np.ones(rf.shape[0])
    for k in blocks:
        g0 *= spec.phi.factor(k, rf[:, k])
    supp = np.flatnonzero(g0)
    g, rf = g0[supp], rf[supp]
    buf = np.zeros(half)  # zero off supp for every row
    out = np.zeros(scales.shape[0])
    for i, prod in enumerate(_factor_slices(spec.phi, blocks, rf, scales)):
        prod *= g
        if prod.any():
            buf.flat[supp] = prod
            out[i] = np.sum(np.abs(np.fft.irfftn(buf, s=sub, axes=tuple(range(len(sub))))))
    return out


def _factor_slices(phi: BumpFunction, blocks, rf: np.ndarray, scales: np.ndarray):
    """prod_{k in blocks} phi_k(s_k r_k) on a lattice with block magnitudes
    rf, one (m,) array per row of scales, whose columns are the scales s_k
    of `blocks` in order.

    Block k's factor is evaluated once per distinct scale (an exact
    np.unique, no tolerance) on the block's distinct magnitudes u_k, and
    each slice gathers its factors from those tables onto the lattice.
    """
    tables = []
    for j, k in enumerate(blocks):
        u, inverse = np.unique(rf[:, k], return_inverse=True)
        s, which = np.unique(scales[:, j], return_inverse=True)
        tables.append(([phi.factor(k, sk * u) for sk in s], which, inverse))
    for i in range(scales.shape[0]):
        out = np.ones(rf.shape[0])
        for table, which, inverse in tables:
            out *= table[which[i]][inverse]
        yield out


def _lattice_slices(spec: WaveletSpec, rf: np.ndarray, ts):
    """ghat(h_t^T xi) on a lattice with block magnitudes rf, one (m,) array per
    row of ts; block k's factor depends on t only through exp(mu_k . t)."""
    scales = np.exp(np.atleast_2d(ts) @ spec.action.weights.T)
    for out in _factor_slices(spec.phi, range(rf.shape[1]), rf, scales):
        yield out / np.sqrt(spec.sigma)


def _containment_points(box) -> np.ndarray:
    """The box centre moved to 0.75 beyond each face of the box, one row per
    face."""
    ts = []
    for j in range(len(box)):
        for side in (0, 1):
            t = np.array([0.5 * (lo + hi) for lo, hi in box])
            t[j] = box[j][side] + (0.75 if side else -0.75)
            ts.append(t)
    return np.array(ts)
