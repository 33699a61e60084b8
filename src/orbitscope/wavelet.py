"""Admissible-wavelet construction and verification.

Pipeline: a smooth bump phi sandwiched between a quasi-section box C and an
enlargement W; the Haar integral sigma(xi) = int_H |phi(h^T xi)|^2 dh by
tensor Gauss-Legendre quadrature over the group parameters (Haar measure on
H = exp(h) is Lebesgue dt in the parameters); the wavelet ghat =
phi / sqrt(sigma), which satisfies the Calderon normalization

    int_H |ghat(h^T xi)|^2 dh = 1

on the covered set by construction; the discrete wavelet transform

    V_g f(x, h) = |det h|^{1/2} (fhat . conj(ghat o h^T))^v (x)

computed slice by slice with FFTs; and the L1 reproducing-kernel estimate
whose parameter support is confined to the meeting-set box of (W, W).

phi and ghat depend on xi only through its block magnitudes r, which h_t^T
scales as r_k exp(mu_k . t).  The quadrature sums, the Calderon integrals,
the cwt slices and the L1 slices are therefore all evaluated on
r . exp(W t); no n x n group transform is formed.

Left Haar on G = R^n x| H is |det h|^{-1} dx dh and the modular function is
Delta_G(x, h) = |det h|^{-1}; see docs/haar_and_modular.md for the
derivation.  Delta_G^{-1/2} enters the L1 weight as |det h|^{+1/2} and is
exposed as a pluggable exponent.
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
    SupportEscapesBox,
    SupportUnbounded,
    ZeroSigma,
)
from .quad import boundary_shell_points, tensor_rule
from .quasisection import (
    BoxSet,
    DiagonalizedAction,
    _as_action,
    _point_system,
    _polyhedra,
    is_relatively_compact,
    meeting_system,
)


def smoothstep(x: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x)-mollified between."""
    x = np.asarray(x, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    np.exp(-1.0 / np.clip(x, 1e-300, None), out=p, where=x > 0)
    np.exp(-1.0 / np.clip(1.0 - x, 1e-300, None), out=q, where=x < 1)
    return p / (p + q)


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


def bump(action, C: BoxSet, W: BoxSet) -> BumpFunction:
    """Validated sandwich bump; SetsNotNested unless closure(C) sits inside W."""
    action = _as_action(action)
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


def meeting_param_box(action, C1: BoxSet, C2: BoxSet, margin: float = 0.15):
    """Bounding box of the meeting-set polyhedron ((C1, C2)), enlarged by margin.

    Raises SupportUnbounded when the polyhedron is unbounded in some
    parameter direction (or empty).
    """
    sys = meeting_system(action, C1, C2)
    nonempty, boxes = _padded_boxes(sys.L, sys.c, margin)
    if not nonempty[0]:
        raise SupportUnbounded("the meeting set is empty: no parameter-support box")
    return tuple(map(tuple, boxes[0].tolist()))


def point_support_box(action, W: BoxSet, r, pad: float = 0.05):
    """Bounding box of {t : exp(mu_k . t) r_k inside the W bounds for all k},
    i.e. of the parameter support of t -> phi(h_t^T xi) for a point with
    block magnitudes r.  Returns None when the set is empty (phi vanishes on
    the whole orbit)."""
    r = np.reshape(np.asarray(r, dtype=float), (1, -1))
    nonempty, boxes = _padded_boxes(*_point_system(_as_action(action), W, r), pad)
    return tuple(map(tuple, boxes[0].tolist())) if nonempty[0] else None


def _orders_tuple(orders, d: int) -> tuple:
    return (int(orders),) * d if np.isscalar(orders) else tuple(orders)


def _orbit_magnitudes(action: DiagonalizedAction, r: np.ndarray, ts) -> np.ndarray:
    """Block magnitudes of h_t^T xi, one row per (t, xi) pair in t-major order,
    for the points xi with block magnitudes r: r_k exp(mu_k . t)."""
    scale = np.exp(np.atleast_2d(ts) @ action.weights.T)
    return (scale[:, None, :] * r[None, :, :]).reshape(-1, r.shape[1])


def _haar_integral(action: DiagonalizedAction, f, r: np.ndarray, box, orders,
                   refine: bool = True) -> tuple[np.ndarray, float]:
    """sum_q w_q |f(r . exp(W t_q))|^2 for each row of the block magnitudes r.

    Tensor Gauss-Legendre over `box` for int_H |f(h^T xi)|^2 dh, where f is
    a function of block magnitudes.  With `refine` the orders o go to 2o and,
    when that moves any value by more than 0.1%, once more to 4o, with a
    warning if the value is still unstable.  Returns the last values and
    their relative drift from the previous orders (0 without refine).
    """
    orders = _orders_tuple(orders, action.d)
    vals, drift = None, 0.0
    for factor in (1, 2, 4) if refine else (1,):
        rule = tensor_rule(box, tuple(factor * o for o in orders))
        fv = f(_orbit_magnitudes(action, r, rule.nodes)).reshape(rule.nodes.shape[0], -1)
        new = rule.weights @ (fv * fv)
        if vals is not None:
            drift = float(np.max(np.abs(new - vals)) / max(np.max(np.abs(new)), 1e-300))
        vals = new
        if factor == 2 and drift <= 1e-3:
            break
    if drift > 1e-3:
        warnings.warn("Haar integral not stable to 0.1% under order doubling")
    return vals, drift


def check_support_in_box(action: DiagonalizedAction, f, r: np.ndarray, box,
                         tol: float = 1e-10) -> None:
    """Integrand must be negligible on the boundary shell of the parameter box."""
    shell = _orbit_magnitudes(action, r, boundary_shell_points(box))
    worst = float(np.max(np.abs(f(shell))))
    if worst > tol:
        raise SupportEscapesBox(
            f"integrand reaches {worst:.3g} on the parameter-box boundary"
        )


def sigma(action, phi, xi, param_box=None, orders: int = 64,
          check: bool = True) -> float:
    """Haar integral int_H |phi(h^T xi)|^2 dh by tensor Gauss-Legendre.

    `phi` is a BumpFunction or a bare callable evaluated on (m, k) arrays of
    block magnitudes.  The parameter box (derived from the point's own
    support when phi is a BumpFunction) must contain the support of
    t -> phi(exp(.)^T xi), checked on its boundary shell; the value must be
    stable to 0.1% under order doubling (checked, with automatic escalation)
    and strictly positive (ZeroSigma otherwise).
    """
    action = _as_action(action)
    r = action.block_abs(np.asarray(xi, dtype=float).reshape(1, -1))
    f = phi.block_values if isinstance(phi, BumpFunction) else phi
    if param_box is None:
        if not isinstance(phi, BumpFunction):
            raise ValueError("param_box required for a bare-callable phi")
        param_box = point_support_box(action, phi.outer, r[0])
        if param_box is None:
            raise ZeroSigma("the orbit of xi never meets the support of phi")
    if check:
        check_support_in_box(action, f, r, param_box)
    val = float(_haar_integral(action, f, r, param_box, orders, refine=check)[0][0])
    if val <= 0:
        raise ZeroSigma("sigma vanished; xi is not actually covered by C")
    return val


@dataclass(frozen=True)
class WaveletSpec:
    """Frequency-domain wavelet ghat = phi / sqrt(sigma) with its quadrature
    configuration.  The box's orbits are open, so sigma is one constant."""

    action: DiagonalizedAction
    phi: BumpFunction
    C: BoxSet
    W: BoxSet
    param_box: tuple
    orders: tuple
    sigma: float
    weight_exponent: float
    convergence: dict

    def block_values(self, r: np.ndarray) -> np.ndarray:
        """ghat as a function of the block-magnitude coordinates."""
        return self.phi.block_values(r) / np.sqrt(self.sigma)

    def ghat(self, points) -> np.ndarray:
        return self.block_values(self.action.block_abs(points))

    def to_json(self) -> dict:
        return {
            "C": self.C.to_json(),
            "W": self.W.to_json(),
            "param_box": [list(b) for b in self.param_box],
            "orders": list(self.orders),
            "weight_exponent": self.weight_exponent,
            "sigma": self.sigma,
            "convergence": self.convergence,
        }


def synth_wavelet(action, C: BoxSet, W: BoxSet | None = None, orders: int = 64,
                  enlargement: float = 1.25,
                  override_quasisection: bool = False) -> WaveletSpec:
    """Construct ghat = phi / sqrt(sigma) over the box C.

    Refuses (with the checker's witness) when ((C, C)) is unbounded, unless
    overridden; W defaults to the 1.25x enlargement of C per block.  Only
    boxes with open orbits (one block per group parameter, every block of W
    bounded below) build a wavelet: there sigma is constant along orbits and
    the orbits fill the block magnitudes, so sigma is the single value at
    the centre of C.  Other boxes raise ZeroSigma.
    """
    action = _as_action(action)
    sysCC = meeting_system(action, C, C)
    bounded, witness = is_relatively_compact(sysCC)
    if not bounded:
        if not override_quasisection:
            raise QuasiSectionRefused(
                "((C,C)) is unbounded: C is not a quasi-section", witness=witness
            )
        warnings.warn("quasi-section check overridden; construction may not converge")
    if W is None:
        W = C.enlarged(enlargement)
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
    orders_t = _orders_tuple(orders, action.d)
    rstar = np.array([[np.sqrt(lo * hi) for lo, hi in C.bounds]])
    box = point_support_box(action, W, rstar[0])
    vals, drift = _haar_integral(action, phi.block_values, rstar, box, orders_t)
    if vals[0] <= 0:
        raise ZeroSigma("sigma vanished at the centre of C")
    return WaveletSpec(
        action=action,
        phi=phi,
        C=C,
        W=W,
        param_box=param_box,
        orders=orders_t,
        sigma=float(vals[0]),
        weight_exponent=0.5,
        convergence={"sigma_doubling_rel": drift, "base_orders": list(orders_t)},
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


def calderon_check(spec: WaveletSpec, xis, orders=None) -> CalderonReport:
    """max |int_H |ghat(h^T xi)|^2 dh - 1| over covered samples, at `orders`.

    A sample is covered when its orbit meets C, decided exactly by the
    polyhedral kernel; uncovered samples are counted and excluded from the
    max.  Each covered sample integrates over its own tight parameter-support
    box (the integrand support shifts with the sample's orbit position).
    Never raises on large deviation.
    """
    action = spec.action
    rs = action.block_abs(xis)
    orders_t = spec.orders if orders is None else _orders_tuple(orders, action.d)
    covered = _polyhedra(*_point_system(action, spec.C, rs))[0]
    _, boxes = _padded_boxes(*_point_system(action, spec.W, rs[covered]), 0.05)
    # one order, no doubling: at sigma's own orders the nodes line up along
    # the orbit and the integral is sigma / sigma = 1 whatever sigma's error
    vals = np.array([_haar_integral(action, spec.block_values, r.reshape(1, -1), box,
                                    orders_t, refine=False)[0][0]
                     for r, box in zip(rs[covered], boxes)])
    dev = float(np.max(np.abs(vals - 1.0))) if vals.size else float("nan")
    return CalderonReport(
        max_deviation=dev,
        n_covered=int(covered.sum()),
        n_uncovered=int((~covered).sum()),
        orders=orders_t,
        values=vals,
    )


@dataclass(frozen=True)
class TransformGrid:
    """Wavelet coefficients V_g f on (parameter lattice) x (spatial lattice)."""

    spatial_shape: tuple
    dx: tuple
    freqs: np.ndarray  # (prod N, n) frequency lattice
    param_points: np.ndarray  # (m, d)
    param_weights: np.ndarray  # (m,)
    dets: np.ndarray  # (m,)
    coeffs: np.ndarray  # (m, *spatial_shape), complex
    f: np.ndarray

    def coefficient_energy(self) -> float:
        """Discrete L2(G) norm squared with left Haar |det h|^-1 dx dh."""
        cell = float(np.prod(self.dx))
        per_slice = np.sum(np.abs(self.coeffs.reshape(self.coeffs.shape[0], -1)) ** 2, axis=1)
        return float(np.sum(self.param_weights / self.dets * per_slice) * cell)

    def signal_energy(self) -> float:
        return float(np.sum(np.abs(self.f) ** 2) * np.prod(self.dx))

    def isometry_ratio(self) -> float:
        return self.coefficient_energy() / self.signal_energy()


def frequency_lattice(shape, dx) -> np.ndarray:
    axes = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, dx)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def param_lattice(box, counts) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered lattice with uniform product weights over the box."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if np.isscalar(counts):
        counts = (int(counts),) * len(box)
    axes, deltas = [], []
    for (lo, hi), m in zip(box, counts):
        delta = (hi - lo) / m
        axes.append(lo + delta * (np.arange(m) + 0.5))
        deltas.append(delta)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    w = np.full(pts.shape[0], float(np.prod(deltas)))
    return pts, w


def check_band_limited(fhat: np.ndarray, shape, rel_tol: float = 1e-8) -> None:
    """Spectral mass in the outer 10% Nyquist shell must be negligible."""
    mask = np.zeros(shape, dtype=bool)
    for axis, N in enumerate(shape):
        k = np.abs(np.fft.fftfreq(N, 1.0)) * 2.0  # in (-1, 1], 1 = Nyquist
        edge = k > 0.9
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        mask |= edge[tuple(sl)]
    total = float(np.sum(np.abs(fhat) ** 2))
    outer = float(np.sum(np.abs(fhat[mask]) ** 2))
    if total > 0 and outer > rel_tol * total:
        raise BandLimitViolation(
            f"{outer / total:.3g} of the spectral mass sits in the Nyquist shell"
        )


def cwt(spec: WaveletSpec, f: np.ndarray, dx, param_counts=64,
        param_box=None) -> TransformGrid:
    """Discrete wavelet transform: one FFT slice per parameter-lattice point.

    f must be finite and not all zero, live on a power-of-two lattice and be
    band-limited to its Nyquist box; ghat(h^T xi) is ghat on the lattice's
    block magnitudes scaled by exp(mu_k . t).
    """
    f = np.asarray(f)
    shape = f.shape
    if any(N & (N - 1) for N in shape):
        raise ValueError("lattice sizes must be powers of two")
    if not np.all(np.isfinite(f)):
        raise InvalidSignal("signal samples must be finite")
    if not np.any(f):
        raise InvalidSignal("signal is zero everywhere: the isometry ratio is undefined")
    dx = (float(dx),) * f.ndim if np.isscalar(dx) else tuple(float(v) for v in dx)
    cell = float(np.prod(dx))
    fhat = np.fft.fftn(f) * cell
    check_band_limited(fhat, shape)
    freqs = frequency_lattice(shape, dx)
    pts, w = param_lattice(param_box or spec.param_box, param_counts)
    traces = np.array([np.trace(G) for G in spec.action.alg.generators])
    dets = np.exp(pts @ traces)
    coeffs = np.empty((pts.shape[0],) + shape, dtype=complex)
    rf = spec.action.block_abs(freqs)
    for i, gh in enumerate(_lattice_slices(spec, rf, pts)):
        F = fhat * np.conj(gh.reshape(shape)) * np.sqrt(dets[i])
        coeffs[i] = np.fft.ifftn(F) / cell
    return TransformGrid(
        spatial_shape=shape,
        dx=dx,
        freqs=freqs,
        param_points=pts,
        param_weights=w,
        dets=dets,
        coeffs=coeffs,
        f=f,
    )


@dataclass(frozen=True)
class L1Report:
    value: float
    param_box: tuple
    param_counts: tuple
    containment_max: float
    weight_exponent: float

    def to_json(self) -> dict:
        return {
            "l1_estimate": self.value,
            "param_box": [list(b) for b in self.param_box],
            "param_counts": list(self.param_counts),
            "support_containment_max": self.containment_max,
            "weight_exponent": self.weight_exponent,
        }


def l1_estimate(spec: WaveletSpec, shape, dx, param_counts=64,
                weight_exponent: float | None = None) -> L1Report:
    """Upper bound for || w(h) V_g g ||_L1 via

        int ||(ghat . conj(ghat_h))^v||_L1 |det h|^{-1/2} w(h) dh,

    with w(h) = |det h|^kappa (kappa = 1/2 reproduces Delta_G^{-1/2}).  The
    h-support is exactly the meeting set of (W, W): SupportUnbounded when
    that set is unbounded, and coefficients outside its box are checked to
    vanish.
    """
    kappa = spec.weight_exponent if weight_exponent is None else float(weight_exponent)
    action = spec.action
    sysWW = meeting_system(action, spec.W, spec.W)
    bounded, witness = is_relatively_compact(sysWW)
    if not bounded:
        raise SupportUnbounded(
            f"meeting set of (W, W) unbounded along {witness}; no L1 bound"
        )
    box = meeting_param_box(action, spec.W, spec.W, margin=0.0)
    shape = (int(shape),) * action.alg.n if np.isscalar(shape) else tuple(shape)
    if np.isscalar(param_counts):
        param_counts = (int(param_counts),) * action.d
    dx = (float(dx),) * len(shape) if np.isscalar(dx) else tuple(float(v) for v in dx)
    cell = float(np.prod(dx))
    rf = action.block_abs(frequency_lattice(shape, dx))
    g0 = spec.block_values(rf).reshape(shape)
    pts, w = param_lattice(box, param_counts)
    traces = np.array([np.trace(G) for G in action.alg.generators])
    total = 0.0
    for t, wt, gh in zip(pts, w, _lattice_slices(spec, rf, pts)):
        l1 = _slice_l1(g0, gh.reshape(shape), cell)
        det = float(np.exp(np.dot(t, traces)))
        total += wt * l1 * det ** (kappa - 0.5)
    containment = _containment_check(spec, g0, rf, cell, box)
    return L1Report(
        value=float(total),
        param_box=box,
        param_counts=tuple(param_counts),
        containment_max=containment,
        weight_exponent=kappa,
    )


def _lattice_slices(spec: WaveletSpec, rf: np.ndarray, ts):
    """ghat(h_t^T xi) on a lattice with block magnitudes rf, one (m,) array per
    row of ts.

    Each block's factor of phi is evaluated on that block's distinct
    magnitudes u_k scaled by exp(mu_k . t) and gathered onto the lattice, so
    a slice costs one bump evaluation per distinct magnitude, and memory
    stays O(lattice).
    """
    blocks = [np.unique(rf[:, k], return_inverse=True) for k in range(rf.shape[1])]
    for scale in np.exp(np.atleast_2d(ts) @ spec.action.weights.T):
        out = np.ones(rf.shape[0])
        for k, (u, inverse) in enumerate(blocks):
            out *= spec.phi.factor(k, scale[k] * u)[inverse]
        yield out / np.sqrt(spec.sigma)


def _slice_l1(g0, gh, cell) -> float:
    a = np.fft.ifftn(g0 * np.conj(gh)) / cell
    return float(np.sum(np.abs(a)) * cell)


def _containment_check(spec, g0, rf, cell, box, pad: float = 0.75) -> float:
    """Max slice-L1 just outside the meeting-set box (must be ~0)."""
    ts = []
    for j in range(len(box)):
        for side in (0, 1):
            t = np.array([0.5 * (lo + hi) for lo, hi in box])
            t[j] = box[j][side] + (pad if side else -pad)
            ts.append(t)
    return max(_slice_l1(g0, gh.reshape(g0.shape), cell)
               for gh in _lattice_slices(spec, rf, ts))
