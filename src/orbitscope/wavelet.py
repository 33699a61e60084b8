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
r . exp(W t); no n x n group transform is formed.  The Calderon integrals
of all samples go through one batched tensor rule, one parameter box per
sample.  The L1 slices ghat . ghat(h_t^T .) vanish off supp ghat, so they
are evaluated on that support only, and a slice that vanishes there too
runs no FFT.

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
from .quad import boundary_shell_points, tensor_rules
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


# node rows per batch of _haar_integral: bounds its temporaries whatever the
# number of rows
_GROUP_NODES = 8192


def _orders_tuple(orders, d: int) -> tuple:
    return (int(orders),) * d if np.isscalar(orders) else tuple(orders)


def _orbit_magnitudes(action: DiagonalizedAction, r: np.ndarray, ts) -> np.ndarray:
    """Block magnitudes of h_t^T xi, one row per (t, xi) pair in t-major order,
    for the points xi with block magnitudes r: r_k exp(mu_k . t)."""
    scale = np.exp(np.atleast_2d(ts) @ action.weights.T)
    return (scale[:, None, :] * r[None, :, :]).reshape(-1, r.shape[1])


def _haar_integral(action: DiagonalizedAction, f, r: np.ndarray, boxes, orders,
                   refine: bool = True) -> tuple[np.ndarray, float]:
    """sum_q w_q |f(r . exp(W t_q))|^2 for each row of the block magnitudes r,
    over its own parameter box: `boxes` is (m, d, 2), one box per row of r.

    Tensor Gauss-Legendre for int_H |f(h^T xi)|^2 dh, where f is a function
    of block magnitudes; the rows go through in groups of at most
    _GROUP_NODES node rows.  With `refine` the orders o go to 2o and, when
    that moves any value by more than 0.1%, once more to 4o, with a warning
    if the value is still unstable.  Returns the last values and their
    relative drift from the previous orders (0 without refine).
    """
    orders = _orders_tuple(orders, action.d)
    boxes = np.reshape(boxes, (r.shape[0], action.d, 2))
    vals, drift = None, 0.0
    for factor in (1, 2, 4) if refine else (1,):
        o = tuple(factor * q for q in orders)
        step = max(1, _GROUP_NODES // int(np.prod(o)))
        new = np.empty(r.shape[0])
        for i in range(0, r.shape[0], step):
            nodes, weights = tensor_rules(boxes[i:i + step], o)
            rows = r[i:i + step, None, :] * np.exp(nodes @ action.weights.T)
            fv = f(rows.reshape(-1, r.shape[1])).reshape(weights.shape)
            # one dot per row: a single row reduces exactly as weights @ (fv * fv)
            new[i:i + step] = (weights[:, None, :] @ (fv * fv)[:, :, None])[:, 0, 0]
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
            "basis": self.action.basis.tolist(),
            "slices": [[sl.start, sl.stop] for sl in self.action.slices],
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
    box (the integrand support shifts with the sample's orbit position), and
    all of them go through one batched _haar_integral call.  Never raises on
    large deviation.
    """
    action = spec.action
    rs = action.block_abs(xis)
    orders_t = spec.orders if orders is None else _orders_tuple(orders, action.d)
    covered = _polyhedra(*_point_system(action, spec.C, rs))[0]
    _, boxes = _padded_boxes(*_point_system(action, spec.W, rs[covered]), 0.05)
    # one order, no doubling: at sigma's own orders the nodes line up along
    # the orbit and the integral is sigma / sigma = 1 whatever sigma's error
    vals = _haar_integral(action, spec.block_values, rs[covered], boxes, orders_t,
                          refine=False)[0]
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
    param_points: np.ndarray  # (m, d)
    param_weights: np.ndarray  # (m,)
    dets: np.ndarray  # (m,)
    coeffs: np.ndarray  # (m, *spatial_shape), float64 for a real f, else complex128
    f: np.ndarray

    def coefficient_energy(self) -> float:
        """Discrete L2(G) norm squared with left Haar |det h|^-1 dx dh."""
        cell = float(np.prod(self.dx))
        # one slice at a time: no second coefficient-sized array
        per_slice = np.array([np.sum(np.abs(c) ** 2)
                              for c in self.coeffs.reshape(self.coeffs.shape[0], -1)])
        return float(np.sum(self.param_weights / self.dets * per_slice) * cell)

    def signal_energy(self) -> float:
        return float(np.sum(np.abs(self.f) ** 2) * np.prod(self.dx))

    def isometry_ratio(self) -> float:
        return self.coefficient_energy() / self.signal_energy()


def _mesh(axes) -> np.ndarray:
    """The points of the product lattice of 1-D axes, C order, one per row."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def frequency_lattice(shape, dx) -> np.ndarray:
    return _mesh([2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, dx)])


def _half_lattice(shape, dx) -> tuple[tuple, np.ndarray]:
    """The rfftn half of frequency_lattice: its shape and its points.

    The last axis keeps bins 0..N/2, so bin N/2 keeps fftfreq's -Nyquist
    sign.  ghat is real and even in xi, so the half lattice carries the
    whole spectrum of every real slice.
    """
    axes = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, dx)]
    axes[-1] = axes[-1][: shape[-1] // 2 + 1]
    return tuple(len(a) for a in axes), _mesh(axes)


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
    pts = _mesh(axes)
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
    """Discrete wavelet transform: one real inverse FFT per parameter-lattice
    point and per real part of f.

    f must be finite and not all zero, have one axis per dimension of the
    action, live on a power-of-two lattice and be band-limited to its
    Nyquist box; ghat(h^T xi) is ghat on the lattice's block magnitudes
    scaled by exp(mu_k . t).  ghat is real and even in xi, so a real f has
    real coefficients, computed on the rfftn half spectrum; a complex f
    gives V_g(Re f) + i V_g(Im f).
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
    check_band_limited(np.fft.fftn(f), shape)
    parts = np.stack([f.real, f.imag]) if np.iscomplexobj(f) else f[None]
    axes = tuple(range(1, parts.ndim))
    fhat = np.fft.rfftn(parts, axes=axes)
    half, freqs = _half_lattice(shape, dx)
    pts, w = param_lattice(param_box or spec.param_box, param_counts)
    traces = np.array([np.trace(G) for G in spec.action.alg.generators])
    dets = np.exp(pts @ traces)
    out = np.empty((parts.shape[0], pts.shape[0]) + shape)
    rf = spec.action.block_abs(freqs)
    for i, gh in enumerate(_lattice_slices(spec, rf, pts)):
        out[:, i] = np.fft.irfftn(fhat * (gh.reshape(half) * np.sqrt(dets[i])),
                                  s=shape, axes=axes)
    coeffs = out[0] if out.shape[0] == 1 else out[0] + 1j * out[1]
    return TransformGrid(
        spatial_shape=shape,
        dx=dx,
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
    vanish.  Each slice is evaluated on supp ghat only, and a slice whose
    product vanishes there contributes exactly 0 without an FFT.
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
    half, freqs = _half_lattice(shape, dx)
    rf = action.block_abs(freqs)
    g0 = spec.block_values(rf).reshape(half)
    pts, w = param_lattice(box, param_counts)
    traces = np.array([np.trace(G) for G in action.alg.generators])
    total = 0.0
    for t, wt, l1 in zip(pts, w, _support_l1(spec, g0, rf, pts, shape)):
        det = float(np.exp(np.dot(t, traces)))
        total += wt * l1 * det ** (kappa - 0.5)
    containment = max(_support_l1(spec, g0, rf, _containment_points(box), shape))
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

    Block k's factor of phi depends on t only through the scale
    s = exp(mu_k . t).  It is evaluated once per distinct computed scale (an
    exact np.unique, no tolerance) on the block's distinct magnitudes u_k,
    and each slice gathers its factors from those tables onto the lattice.
    """
    scales = np.exp(np.atleast_2d(ts) @ spec.action.weights.T)
    tables = []
    for k in range(rf.shape[1]):
        u, inverse = np.unique(rf[:, k], return_inverse=True)
        s, which = np.unique(scales[:, k], return_inverse=True)
        tables.append(([spec.phi.factor(k, sk * u) for sk in s], which, inverse))
    for i in range(scales.shape[0]):
        out = np.ones(rf.shape[0])
        for table, which, inverse in tables:
            out *= table[which[i]][inverse]
        yield out / np.sqrt(spec.sigma)


def _support_l1(spec: WaveletSpec, g0, rf, ts, shape):
    """sum |(g0 . ghat_t)^v| over the lattice `shape`, one float per row of ts.

    g0 is ghat on the rfftn half lattice, whose points have block magnitudes
    rf.  Every product vanishes off supp g0, so ghat_t is evaluated on the
    support only, and a slice whose product is zero there costs no FFT.
    """
    supp = np.flatnonzero(g0)
    g = g0.ravel()[supp]
    buf = np.zeros(g0.shape)  # zero off supp for every slice
    for gh in _lattice_slices(spec, rf[supp], ts):
        yield _slice_l1(g * gh, supp, buf, shape)


def _slice_l1(prod, supp, buf, shape) -> float:
    """sum |(p)^v| over the lattice `shape`, where p is real and even in xi,
    given on the rfftn half lattice by its values `prod` at the flat indices
    `supp` and 0 elsewhere; `buf` is a half-lattice array that is 0 off
    supp.  A zero product gives exactly 0.0 without an FFT."""
    if not prod.any():
        return 0.0
    buf.flat[supp] = prod
    return float(np.sum(np.abs(np.fft.irfftn(buf, s=shape, axes=tuple(range(len(shape)))))))


def _containment_points(box, pad: float = 0.75) -> np.ndarray:
    """The box centre moved to `pad` beyond each face of the box, one row per
    face."""
    ts = []
    for j in range(len(box)):
        for side in (0, 1):
            t = np.array([0.5 * (lo + hi) for lo, hi in box])
            t[j] = box[j][side] + (pad if side else -pad)
            ts.append(t)
    return np.array(ts)
