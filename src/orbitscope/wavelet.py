"""Admissible-wavelet construction and verification.

Pipeline: a smooth bump phi sandwiched between a quasi-section box C and an
enlargement W; the Haar integral sigma = int_H |phi(h^T xi)|^2 dh (Haar
measure on H = exp(h) is Lebesgue dt in the parameters), which separates
into one 1-D integral per block, each by the trapezoid rule; the wavelet
ghat = phi / sqrt(sigma), which satisfies the Calderon normalization

    int_H |ghat(h^T xi)|^2 dh = 1

on the covered set by construction; the Calderon check, which integrates
that normalization once with the d-dimensional rule cell_rule and so
checks sigma independently; the discrete wavelet transform

    V_g f(x, h) = |det h|^{1/2} (fhat . conj(ghat o h^T))^v (x)

computed slice by slice with FFTs: cwt_slices yields each slice as it is
made, so a caller that writes or sums them holds one slice at a time, and
cwt fills one array from them; and the L1 reproducing-kernel estimate whose
parameter support is confined to the meeting-set box of (W, W), meeting_box.

phi and ghat depend on xi only through its block magnitudes r, which h_t^T
scales as r_k exp(mu_k . t).  The Calderon integrals and the cwt slices are
therefore evaluated on r . exp(W t); no n x n group transform is formed.
phi is the product of one factor phi_k per block, and one object,
WaveletSpec, answers both questions: spec.factor(k, x) is phi_k, which does
not involve sigma, and spec.block_values(r) is ghat = prod_k phi_k / sqrt(sigma).

The d-dimensional parameter integrals (the Calderon check and the cwt
lattice) each run on one box, by one rule, cell_rule(box, counts): cell
centres with equal weights.  Each integrand is C^infinity and vanishes to
all orders at the faces of its padded parameter box, where an equispaced
rule converges faster than any power (Trefethen & Weideman, SIAM Review
56, 2014); a Gauss rule would spend its end-clustered nodes where the
integrand is zero.  The Calderon check's points only decide coverage,
which open orbits make certain: every covered orbit has the same
integral, computed once through C's centre.

The L1 estimate separates per block, as sigma does, into 1-D integrals over
s of radial profiles on one 1-D FFT lattice, with sigma's nested N/2N
trapezoid rule; so it does not depend on the basis.  One radial_l1 call per
block answers all its s-nodes.  Its convergence evidence does not measure
the Abel u-step or the rho-step.

Left Haar on G = R^n x| H is |det h|^{-1} dx dh and the modular function is
Delta_G(x, h) = |det h|^{-1}; see docs/haar_and_modular.md for the
derivation.  Delta_G^{-1/2} enters the L1 weight as |det h|^{+1/2}.
"""

from __future__ import annotations

import math
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
from .linalg import CALDERON_TOL, ISOMETRY_TOL, L1_STEP_TOL, NYQUIST_SHARE, SIGMA_STEP_TOL
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


def _block_factor(C: BoxSet, W: BoxSet, k: int, x: np.ndarray) -> np.ndarray:
    """Block k's factor phi_k of the bump 1_C <= phi <= 1_W at the block
    magnitudes x: 1 on C's shell, 0 outside W's, smoothstep ramps between.
    Every box that builds a wavelet has W, and so C, bounded below."""
    (c_lo, c_hi), (w_lo, w_hi) = C.bounds[k], W.bounds[k]
    return smoothstep((w_hi - x) / (w_hi - c_hi)) * smoothstep((x - w_lo) / (c_lo - w_lo))


def _padded_boxes(L, c, margin: float):
    """Which systems {L t <= c_i} (rows of c) are nonempty, and their bounding
    boxes, (m', d, 2), padded by margin * (hi - lo) on each side, in t-units.
    Raises SupportUnbounded when a box has an infinite side."""
    nonempty, _, lo, hi = _polyhedra(L, c)
    lo, hi = lo[nonempty], hi[nonempty]
    unbounded = np.flatnonzero(~np.isfinite(lo).all(axis=0) | ~np.isfinite(hi).all(axis=0))
    if unbounded.size:
        raise SupportUnbounded(f"parameter support unbounded in direction {unbounded[0]}")
    pad = margin * (hi - lo)
    return nonempty, np.stack([lo - pad, hi + pad], axis=-1)


def meeting_param_box(action: DiagonalizedAction, W: BoxSet):
    """Bounding box ((lo, hi), ...) of the meeting-set polyhedron ((W, W)) in
    t-units; it holds t = 0, so it is never empty.  Raises SupportUnbounded
    when the polyhedron is unbounded in some parameter direction."""
    return tuple(map(tuple, _padded_boxes(*meeting_system(action, W, W), 0.0)[1][0].tolist()))


# margin of a point's parameter-support box, relative to its widths
_SUPPORT_PAD = 0.05


def _mesh(axes) -> np.ndarray:
    """The points of the product lattice of 1-D axes, C order, one per row."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def cell_rule(box, counts) -> tuple[np.ndarray, np.ndarray]:
    """The cell-centred product rule on one box (d, 2): axis j is cut into
    counts[j] cells (`counts` one int, or one per axis) of width h_j; the
    nodes (N, d) are the cell centres lo_j + h_j (i + 1/2) in C order
    (_mesh), and every weight (N,) is the cell volume prod_j h_j."""
    lo, hi = np.asarray(box, dtype=float).T
    counts = [int(c) for c in np.broadcast_to(counts, lo.size)]
    h = (hi - lo) / counts
    nodes = _mesh([a + hj * (np.arange(c) + 0.5) for a, hj, c in zip(lo, h, counts)])
    return nodes, np.full(nodes.shape[0], np.prod(h))


def _haar_integral(action: DiagonalizedAction, f, r: np.ndarray, box, orders) -> float:
    """sum_q w_q |f(r . exp(W t_q))|^2 for the block magnitudes r (k,) over
    the parameter box `box` (d, 2).

    cell_rule with `orders` cells per group parameter (one int, or one per
    parameter) for int_H |f(h^T xi)|^2 dh, where f is a function of block
    magnitudes: equispaced, because the smooth integrands met here vanish
    to all orders at the box faces.
    """
    nodes, weights = cell_rule(box, orders)
    fv = f(r * np.exp(nodes @ action.weights.T))
    return float(weights @ (fv * fv))


# trapezoid intervals N of sigma's block integrals, which run on 2N
_SIGMA_INTERVALS = 256


def _nested_trapezoid(f: np.ndarray, h: float):
    """The trapezoid rule on 2N and on N intervals, (h sum f, 2h sum f[::2]),
    for samples f on 2N + 1 nodes (last axis) where f vanishes at both ends."""
    f = np.ascontiguousarray(f)  # summed in C order: f's memory layout moves no digit
    return h * np.sum(f, axis=-1), 2.0 * h * np.sum(f[..., ::2], axis=-1)


@dataclass(frozen=True)
class WaveletSpec:
    """Frequency-domain wavelet ghat = phi / sqrt(sigma), where the bump
    1_C <= phi <= 1_W is the product of one factor phi_k per block.  The
    box's orbits are open, so sigma is one constant."""

    action: DiagonalizedAction
    C: BoxSet
    W: BoxSet
    meeting_box: tuple  # ((W, W))'s bounding box: the L1 kernel's parameter support
    sigma: float
    convergence: dict

    @property
    def param_box(self) -> tuple:
        """The cwt lattice's box: meeting_box padded by 15% of its widths."""
        return tuple((lo - 0.15 * (hi - lo), hi + 0.15 * (hi - lo)) for lo, hi in self.meeting_box)

    def factor(self, k: int, x: np.ndarray) -> np.ndarray:
        """Block k's factor phi_k of phi at the block magnitudes x; it does
        not involve sigma."""
        return _block_factor(self.C, self.W, k, x)

    def block_values(self, r: np.ndarray) -> np.ndarray:
        """ghat as a function of the block-magnitude coordinates:
        prod_k phi_k(r_k) / sqrt(sigma)."""
        r = np.atleast_2d(r)
        out = np.ones(r.shape[0])
        for k in range(r.shape[1]):
            out *= self.factor(k, r[:, k])
        return out / np.sqrt(self.sigma)

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
    defaults to [lo / 1.25, 1.25 hi] in every block of C, and the call
    raises SetsNotNested unless closure(C) sits inside W, and
    SupportUnbounded when ((W, W)) is unbounded: with k = d, a block of W
    with lower bound 0 adds no row to it and leaves a null direction.  Only
    boxes with open orbits (one block per group parameter) build a wavelet;
    other boxes raise ZeroSigma, and so does a group with parameter directions
    that scale no block (rank M < d), before ((C, C)) is tested: those
    directions only rotate, and ((C, C)) is unbounded along them in t
    whatever C is.  There h_t^T scales block k by
    exp(mu_k . t) with an invertible weight matrix M (rows mu_k), so
    s_k = ln r_k + mu_k . t separates the Haar integral:

        sigma = |det M|^{-1} prod_k int phi_k(e^s)^2 ds,

    the same for every xi whose blocks are all nonzero.  Each integrand
    vanishes to all orders at both ends of [ln lo_k(W), ln hi_k(W)], where
    the trapezoid rule (the step times the node sum) converges faster than
    any power (Trefethen & Weideman, SIAM Review 56, 2014).  `convergence`
    has each block's relative difference from N to 2N intervals; above 0.1%
    it warns.  A sigma outside the float range (|det M| ~ s^d) raises ZeroSigma.
    """
    rotations = action.rotations()
    if rotations.size:
        raise ZeroSigma(f"the parameter directions {np.round(rotations.T, 4).tolist()} scale "
                        "no block and only rotate: only groups whose every direction scales "
                        "a block build a wavelet")
    bounded, witness = is_relatively_compact(*meeting_system(action, C, C))
    if not bounded:
        raise QuasiSectionRefused(
            "((C,C)) is unbounded: C is not a quasi-section", witness=witness
        )
    if W is None:
        W = BoxSet([(lo / 1.25, hi * 1.25) for lo, hi in C.bounds])
    if C.k != W.k:
        raise SetsNotNested("C and W must bound the same blocks")
    for (c_lo, c_hi), (w_lo, w_hi) in zip(C.bounds, W.bounds):
        if not (c_hi < w_hi):
            raise SetsNotNested("upper bound of C must lie inside W")
        if c_lo > 0 and not (w_lo < c_lo):
            raise SetsNotNested("lower bound of C must lie inside W")
        if c_lo == 0 and w_lo != 0:
            raise SetsNotNested("full C-block needs a full W-block")
    meeting_box = meeting_param_box(action, W)  # ((W, W)), solved once per spec
    if action.k != action.d:
        raise ZeroSigma(
            f"orbits are not open ({action.k} blocks, {action.d} group parameters): "
            "sigma is not constant, and only boxes with open orbits build a wavelet"
        )
    integrals, rel_diff = [], []
    for k, (lo, hi) in enumerate(W.bounds):
        u, h = np.linspace(np.log(lo), np.log(hi), 2 * _SIGMA_INTERVALS + 1, retstep=True)
        fine, coarse = _nested_trapezoid(_block_factor(C, W, k, np.exp(u)) ** 2, h)
        integrals.append(fine)
        rel_diff.append(float(abs(fine - coarse) / fine))
    if max(rel_diff) > SIGMA_STEP_TOL:
        warnings.warn("sigma's block integrals not stable to 0.1% from "
                      f"{_SIGMA_INTERVALS} to {2 * _SIGMA_INTERVALS} trapezoid intervals")
    with np.errstate(over="ignore", divide="ignore"):  # |det M| may leave the float range
        sigma = float(np.prod(integrals) / abs(np.linalg.det(action.weights)))
    if not 0.0 < sigma < np.inf:
        raise ZeroSigma(f"sigma = {sigma}: |det M| is outside the float range")
    return WaveletSpec(
        action=action,
        C=C,
        W=W,
        meeting_box=meeting_box,
        sigma=sigma,
        convergence={"block_rel_diff": rel_diff,
                     "trapezoid_intervals": [_SIGMA_INTERVALS, 2 * _SIGMA_INTERVALS]},
    )


@dataclass(frozen=True)
class CalderonReport:
    max_deviation: float
    n_covered: int
    n_uncovered: int
    orders: tuple
    value: float

    def to_json(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "n_covered": self.n_covered,
            "n_uncovered": self.n_uncovered,
            "orders": list(self.orders),
        }


def calderon_check(spec: WaveletSpec, xis, orders) -> CalderonReport:
    """|int_H |ghat(h^T xi)|^2 dh - 1| on the covered samples xis, by
    cell_rule with `orders` cells per group parameter; sigma comes from the
    block integrals, so this is the rule's error (1.55e-5 on case (a) at
    order 64).  Never raises on large deviation; above CALDERON_TOL it warns.

    A sample is covered when its orbit meets C, decided for every sample
    exactly by the polyhedral kernel; uncovered samples are only counted.
    A spec's orbits are open (k = d, M invertible): s = ln r + M t makes
    each orbit's padded support box (the pad depends only on its widths) a
    translate of one box and its integrand a translate of one integrand.
    So `value` is integrated once, on the orbit through C's centre
    (sqrt(lo_k hi_k))_k, and `max_deviation` is |value - 1|, NaN when no
    sample is covered.
    """
    action = spec.action
    orders = tuple(np.broadcast_to(orders, action.d).tolist())
    covered = _polyhedra(*_point_system(action, spec.C, action.block_abs(xis)))[0]
    r0 = np.sqrt(np.prod(spec.C.bounds, axis=1))
    _, (box,) = _padded_boxes(*_point_system(action, spec.W, r0[None]), _SUPPORT_PAD)
    value = _haar_integral(action, spec.block_values, r0, box, orders)
    deviation = abs(value - 1.0) if covered.any() else float("nan")
    if deviation > CALDERON_TOL:
        warnings.warn(f"the Calderon integral deviates from 1 by {deviation:.2g} on the "
                      f"{' x '.join(map(str, orders))} cell rule")
    return CalderonReport(
        max_deviation=deviation,
        n_covered=int(covered.sum()),
        n_uncovered=int((~covered).sum()),
        orders=orders,
        value=value,
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

    def energy_ratio(self, slice_energies) -> float:
        """The isometry ratio: the L2(G) norm squared (left Haar |det h|^-1 dx dh)
        of the slices with these slice_energy values, in parameter order, over
        the signal's energy.  Off 1 by more than ISOMETRY_TOL it warns."""
        cell = float(np.prod(self.dx))
        haar = float(np.sum(self.param_weights / self.dets * np.asarray(slice_energies)) * cell)
        ratio = haar / float(np.sum(np.abs(self.f) ** 2) * cell)
        if not abs(ratio - 1.0) <= ISOMETRY_TOL:
            warnings.warn(f"the isometry ratio {ratio:.3g} is off 1 by more than {ISOMETRY_TOL:g}: "
                          "the parameter lattice misses the signal's spectrum or is too coarse")
        return ratio


def slice_energy(c: np.ndarray) -> float:
    """sum |c|^2 over one coefficient slice."""
    return np.sum(np.abs(c.ravel()) ** 2)


@dataclass(frozen=True)
class TransformGrid(TransformLattice):
    """Wavelet coefficients V_g f on (parameter lattice) x (spatial lattice)."""

    coeffs: np.ndarray  # (m, *spatial_shape) of dtype

    def isometry_ratio(self) -> float:
        """energy_ratio of the coefficients."""
        return self.energy_ratio([slice_energy(c) for c in self.coeffs])


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
    point in lattice order, from one inverse FFT per chunk of points.

    f must be finite and not all zero, have one axis per dimension of the
    action, live on a power-of-two lattice and be band-limited to its
    Nyquist box (at most NYQUIST_SHARE of its spectral mass in the outer 10% shell);
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
    if share > NYQUIST_SHARE:
        raise BandLimitViolation(f"{share:.3g} of the spectral mass sits in the Nyquist shell")
    pts, w = cell_rule(spec.param_box, param_counts)
    traces = np.array([np.trace(G) for G in spec.action.alg.generators])
    lattice = TransformLattice(spatial_shape=shape, dx=dx, param_points=pts,
                               param_weights=w, dets=np.exp(pts @ traces), f=f)
    return lattice, _coefficient_slices(spec, lattice, fhat)


# half-lattice points times parameter points per chunk of cwt slices
_CWT_CHUNK_POINTS = 2 ** 14


def _coefficient_slices(spec: WaveletSpec, lattice: TransformLattice, fhat: np.ndarray):
    """The slices of cwt_slices from fhat, the half spectra of f's real
    parts stacked on a leading axis: one inverse FFT per chunk of at most
    _CWT_CHUNK_POINTS points (one slice when a slice has more), which bounds
    the FFT's buffers."""
    shape = lattice.spatial_shape
    axes = tuple(range(2, fhat.ndim + 1))
    half, freqs = _half_lattice(shape, lattice.dx)
    rows = max(1, _CWT_CHUNK_POINTS // freqs.shape[0])
    dets = np.sqrt(lattice.dets)[:, None]
    chunks = _lattice_slices(spec, spec.action.block_abs(freqs), lattice.param_points, rows)
    for i, gh in zip(range(0, dets.shape[0], rows), chunks):
        out = np.fft.irfftn(fhat * (gh * dets[i:i + rows]).reshape((-1, 1) + half), s=shape,
                            axes=axes)
        yield from out[:, 0] if out.shape[1] == 1 else out[:, 0] + 1j * out[:, 1]


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
    containment_max: float
    convergence: dict

    def to_json(self) -> dict:
        return {
            "l1_estimate": self.value,
            "param_box": [list(b) for b in self.param_box],
            "support_containment_max": self.containment_max,
            "weight_exponent": _WEIGHT_EXPONENT,
            "convergence": self.convergence,
        }


# points of the L1 estimate's 1-D lattice and of each batch of its Abel sums
_L1_MAX_POINTS = 2 ** 14


def l1_estimate(spec: WaveletSpec, shape=None, dx=None, param_counts=64) -> L1Report:
    """|| Delta_G^{-1/2} V_g g ||_L1 = int ||(ghat . ghat_h)^v||_L1 dh: the
    weight |det h|^{1/2} (_WEIGHT_EXPONENT) and the transform's |det h|^{1/2}
    cancel the Haar |det h|^{-1}.  With k = d and M invertible, as
    synth_wavelet requires, the slice separates per block and |det basis|
    cancels, so whatever the basis

        L1 = sigma^{-1} |det M|^{-1} prod_k int L_k(s) ds,
        L_k(s) = ||F^{-1}[phi_k(|w|) phi_k(e^s |w|)]||_{L1(R^{m_k})}.

    L_k is even and vanishes for |s| >= ln(hi_k / lo_k) of W: a trapezoid
    rule of `param_counts` (even) intervals, one radial_l1 call per block
    at all nodes s >= 0, on `shape` points at step dx: by default
    dx = pi / (4 max hi(W)), and shape is the least power of two with step
    2 pi / (shape dx) <= delta / 12 (delta: W's narrowest transition around
    C), at most _L1_MAX_POINTS.
    `convergence` has the relative differences to half the lattice (every
    other frequency) and to half the intervals; on its own lattice (no
    `shape`) it warns above 1% or when capped.  Neither difference measures
    the Abel u-step du or the rho-step dx, and on the 2-D spiral each is
    worth about 5e-4 at the default steps.  `containment_max` is the
    largest slice norm a third of the box width beyond the faces of the
    kernel's support box, spec.meeting_box, the bounding box of ((W, W)).
    """
    action = spec.action
    box = spec.meeting_box
    S = int(param_counts)
    if S < 2 or S % 2:
        raise ValueError(f"param_counts must be an even integer >= 2, got {param_counts}")
    delta = float(np.min(np.abs(np.subtract(spec.C.bounds, spec.W.bounds))))
    dx = np.pi / (4.0 * max(hi for _, hi in spec.W.bounds)) if dx is None else float(dx)
    own = shape is None
    wanted = 2 ** int(np.ceil(np.log2(24.0 * np.pi / (dx * delta)))) if own else int(shape)
    n, capped = min(wanted, _L1_MAX_POINTS) if own else wanted, wanted > _L1_MAX_POINTS and own
    du = max(delta / 4.0, 6.0 * np.pi / (n * dx))  # delta / 4, or 3 steps of a coarse lattice
    beyond = action.weights @ _containment_points(box).T  # their s, profiled with the nodes
    integrals, outside = [], 1.0
    for k, ((lo, hi), sl) in enumerate(zip(spec.W.bounds, action.slices)):
        h = 2.0 * np.log(hi / lo) / S
        with np.errstate(over="ignore"):  # c rho past the float range reads inf, where phi_k is 0
            c = np.exp(np.abs(np.concatenate([h * np.arange(S // 2 + 1), beyond[k]])))
            near, profile = c < np.inf, np.zeros((2, c.size))  # L_k = 0 at c = inf, not inf * 0
            profile[:, near] = radial_l1(lambda x: spec.factor(k, x), c[near], sl.stop - sl.start,
                                         n, dx, du, hi)
        integrals.append(_nested_trapezoid(profile[:, np.r_[S // 2:0:-1, :S // 2 + 1]], h))
        outside = outside * profile[0, S // 2 + 1:]
    (fine, lattice_half), (param_half, _) = np.prod(integrals, axis=0)
    norm = spec.sigma * abs(np.linalg.det(action.weights))
    rel_diff = [float(abs(fine - lattice_half) / fine), float(abs(fine - param_half) / fine)]
    if capped or (own and max(rel_diff) > L1_STEP_TOL):
        warnings.warn(f"the L1 estimate moves by {max(rel_diff):.2g} from {n // 2} to {n} lattice "
                      f"points or {S // 2} to {S} intervals" + ", lattice capped" * capped)
    return L1Report(value=float(fine / norm), param_box=box,
                    containment_max=float(np.max(outside) / norm),
                    convergence={"lattice": [n // 2, n], "lattice_rel_diff": rel_diff[0],
                                 "param_counts": [S // 2, S], "param_rel_diff": rel_diff[1],
                                 "lattice_capped": capped})


def radial_l1(phi, c, m: int, n: int, dx: float, du: float, rho_max: float) -> np.ndarray:
    """||F^{-1}[phi(|w|) phi(c |w|)]||_{L1(R^m)} for each scale c >= 1 of the
    array c, where phi vanishes beyond rho_max, on the 1-D FFT lattice of n
    points at step dx and on its half (every other frequency, same dx):
    [full, half], shape (2, len(c)).  The radial transform f starts from the
    1-D transform of q = phi(.) phi(c .) (odd m) or of the Abel projection
    pi^{-1} int_0^inf q(sqrt(xi^2 + u^2)) du by the cell-centred rule at step
    du (even m; spectrally accurate, the integrand is even in u): phi once
    per chunk of the (xi, u) grid, where scale c reads the corner up to
    rho_max / c.  Each step f -> -(2 pi rho)^{-1} f' adds 2 to the dimension,
    with derivatives (i xi)^j in the same irfft.  The norm |S^{m-1}| int |f|
    rho^{m-1} drho is the trapezoid rule, plus for m = 2 the end term
    dx^2/12 |f(0)|, the slope of rho |f| at 0.  Chunks and irfft batches
    hold at most _L1_MAX_POINTS points.
    """
    c = np.asarray(c, dtype=float)
    dxi = 2.0 * np.pi / (n * dx)
    xi = dxi * np.arange(min(n // 2, int(rho_max / dxi)) + 1)
    if m % 2:
        g = phi(xi) * phi(c[:, None] * xi)
    else:
        u = du * (np.arange(np.ceil(rho_max / du)) + 0.5)
        nx = np.minimum(n // 2, rho_max / c / dxi).astype(int) + 1  # each scale's corner
        nu = np.ceil(rho_max / c / du).astype(int)
        g = np.zeros((c.size, xi.size))
        rows = max(1, _L1_MAX_POINTS // max(1, u.size))  # an empty grid sums to 0
        for i in range(0, xi.size, rows):
            rho = np.sqrt(xi[i:i + rows, None] ** 2 + u * u)
            p = phi(rho)
            for j in np.flatnonzero(nx > i):
                sub = np.s_[:nx[j] - i, :nu[j]]  # scale j's corner of the chunk
                g[j, i:i + rows][:nx[j] - i] = du / np.pi * np.sum(p[sub] * phi(c[j] * rho[sub]),
                                                                   axis=-1)
    steps = (m - 1) // 2
    a = [1.0]  # (rho^-1 d/drho)^steps = sum_j a_j rho^(j - 2 steps) (d/drho)^j
    for i in range(steps):
        a = [(j - 2 * i) * (a + [0.0])[j] + ([0.0] + a)[j] for j in range(len(a) + 1)]
    out = np.empty((2, g.shape[0]))
    batch = max(1, _L1_MAX_POINTS // n)
    for half, (size, xs) in enumerate(((n, xi), (n // 2, xi[::2]))):
        rho = dx * np.arange(size // 2 + 1)
        r = np.concatenate([[np.inf], rho[1:]])  # the steps' f(0) = 0 has weight rho^{m-1} = 0
        for b in range(0, g.shape[0], batch):
            d = np.fft.irfft((1j * xs) ** np.arange(steps + 1)[:, None]
                             * g[b:b + batch, None, ::half + 1], n=size)[..., :size // 2 + 1] / dx
            f = (-0.5 / np.pi) ** steps * sum(aj * r ** (j - 2 * steps) * d[:, j]
                                              for j, aj in enumerate(a) if aj)
            F = np.abs(f) * rho ** (m - 1)
            out[half, b:b + batch] = (dx * (np.sum(F, axis=-1) - 0.5 * (F[:, 0] + F[:, -1]))
                                      + (m == 2) * dx * dx / 12.0 * np.abs(f[:, 0]))
    return 2.0 * np.pi ** (m / 2) / math.gamma(m / 2) * out


def _lattice_slices(spec: WaveletSpec, rf: np.ndarray, ts, rows: int):
    """ghat(h_t^T xi) on a lattice with block magnitudes rf, one (c, m) array
    per chunk of c <= rows consecutive rows of ts.  Block k's factor depends
    on t only through exp(mu_k . t), so it is evaluated once per distinct
    scale (an exact np.unique) on the block's distinct magnitudes, `rows`
    scales per call, and only inside (lo_k(W), hi_k(W)), where phi_k can be
    nonzero; each chunk gathers from those tables."""
    scales = np.exp(np.atleast_2d(ts) @ spec.action.weights.T)
    tables = []
    for k, (lo, hi) in enumerate(spec.W.bounds):
        u, inverse = np.unique(rf[:, k], return_inverse=True)
        s, which = np.unique(scales[:, k], return_inverse=True)
        table = np.zeros((s.size, u.size))
        for j in range(0, s.size, rows):
            x = np.outer(s[j:j + rows], u)
            band = (lo < x) & (x < hi)
            table[j:j + rows][band] = spec.factor(k, x[band])
        tables.append((table, which, inverse))
    for i in range(0, scales.shape[0], rows):
        out = 1.0
        for table, which, inverse in tables:
            out = out * table[which[i:i + rows]].take(inverse, axis=1)
        yield out / np.sqrt(spec.sigma)


def _containment_points(box) -> np.ndarray:
    """The box centre moved a third of the box width (t-units) beyond each
    face of the box, one row per face."""
    box = np.asarray(box, dtype=float)
    ts = np.repeat(box.mean(axis=1)[None], box.size, axis=0)
    ts[np.arange(box.size), np.arange(box.size) // 2] = (box + np.diff(box) / 3 * [-1, 1]).ravel()
    return ts
