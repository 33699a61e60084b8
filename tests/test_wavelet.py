import dataclasses
import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from orbitscope.cli import _calderon_samples
from orbitscope.errors import (
    BandLimitViolation,
    InvalidSignal,
    QuasiSectionRefused,
    SetsNotNested,
    SupportEscapesBox,
    SupportUnbounded,
    ZeroSigma,
)
from orbitscope.families import family_b
from orbitscope.orbits import GroupElement
from orbitscope.linalg import DilationAlgebra
from orbitscope.quad import gauss_legendre
from orbitscope.quasisection import BoxSet, c_i_box, diagonal_action
from orbitscope.wavelet import (
    _containment_points,
    _haar_integral,
    _half_lattice,
    _lattice_slices,
    _orbit_magnitudes,
    _slice_l1,
    _support_l1,
    bump,
    calderon_check,
    cwt,
    frequency_lattice,
    l1_estimate,
    meeting_param_box,
    param_lattice,
    point_support_box,
    sigma,
    smoothstep,
    synth_wavelet,
)


@pytest.fixture(scope="module")
def act_1d(dilation_1d):
    return diagonal_action(dilation_1d)


@pytest.fixture(scope="module")
def phi_1d(act_1d):
    return bump(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(0.8, 2.5)]))


class TestBump:
    def test_sandwich(self, phi_1d):
        assert phi_1d(np.array([[1.5]]))[0] == 1.0
        assert phi_1d(np.array([[-1.2]]))[0] == 1.0  # depends on |xi| only
        assert phi_1d(np.array([[0.5]]))[0] == 0.0
        assert phi_1d(np.array([[3.0]]))[0] == 0.0

    def test_transition_monotone(self, phi_1d):
        # middle of the transition shell: strictly inside (0, 1); the extreme
        # edges underflow to exactly 0/1 in float, which is fine for a bump
        rs = np.linspace(2.05, 2.45, 40).reshape(-1, 1)
        vals = phi_1d(rs)
        mid = phi_1d(np.array([[2.25]]))[0]
        assert 0 < mid < 1
        assert np.all(np.diff(vals) <= 0)  # falling along the outward ray
        assert vals[0] > vals[-1]

    def test_smoothstep_endpoints(self):
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        vals = smoothstep(xs)
        npt.assert_allclose(vals[[0, 1]], 0.0)
        npt.assert_allclose(vals[[3, 4]], 1.0)
        assert 0 < vals[2] < 1

    def test_nesting_enforced(self, act_1d):
        with pytest.raises(SetsNotNested):
            bump(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(1.0, 2.5)]))
        with pytest.raises(SetsNotNested):
            bump(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(0.8, 2.0)]))


class TestSigma:
    def test_matches_adaptive_quadrature(self, act_1d, phi_1d):
        val = sigma(act_1d, phi_1d, [1.5], orders=64)

        def integrand(t):
            return phi_1d(np.array([[np.exp(t) * 1.5]]))[0] ** 2

        oracle, _ = quad(integrand, -3.0, 3.0, limit=400, epsabs=1e-13)
        assert abs(val - oracle) < 1e-6

    def test_haar_invariance(self, act_1d, phi_1d, dilation_1d):
        rng = np.random.default_rng(0)
        base = sigma(act_1d, phi_1d, [1.5], orders=64)
        for _ in range(5):
            g = GroupElement(dilation_1d, rng.uniform(-2, 2, 1))
            moved = g.h_inv_T @ np.array([1.5])
            assert abs(sigma(act_1d, phi_1d, moved, orders=64) - base) < 1e-6

    def test_indicator_log_closed_form(self, act_1d):
        # phi = shell indicator: sigma = ln(b/a) exactly
        a, b = 0.9, 2.2

        def indicator(pts):
            r = np.abs(np.atleast_2d(pts)[:, 0])
            return ((r >= a) & (r <= b)).astype(float)

        val = sigma(act_1d, indicator, [1.3], param_box=((-3.0, 3.0),),
                    orders=4096, check=False)
        assert abs(val - np.log(b / a)) < 2e-3

    def test_uncovered_point_raises(self, act_1d, phi_1d):
        with pytest.raises(ZeroSigma):
            sigma(act_1d, phi_1d, [0.0], orders=32)

    def test_support_escape_detected(self, act_1d, phi_1d):
        with pytest.raises(SupportEscapesBox):
            sigma(act_1d, phi_1d, [1.5], param_box=((-0.2, 0.2),), orders=32)

    def test_smoothness_second_differences(self, spec_1d):
        # finite-difference second derivatives of sigma stay bounded inside W
        rs = np.linspace(1.0, 2.0, 31)
        vals = np.array([
            sigma(spec_1d.action, spec_1d.phi, [r], orders=64) for r in rs
        ])
        h = rs[1] - rs[0]
        second = np.abs(np.diff(vals, 2)) / h ** 2
        assert np.max(second) < 50.0


class TestSynth:
    def test_1d_spec(self, spec_1d):
        assert spec_1d.convergence["sigma_doubling_rel"] < 1e-3
        vals = spec_1d.ghat(np.array([[1.5], [-1.5], [3.0]]))
        assert vals[0] > 0 and abs(vals[0] - vals[1]) < 1e-12 and vals[2] == 0.0

    def test_case_a_spec_on_3d_grid(self, spec_case_a):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 3))
        vals = spec_case_a.ghat(pts)
        assert np.all(np.isfinite(vals)) and np.any(vals > 0)

    def test_refuses_unbounded_meeting_set(self):
        act = diagonal_action(family_b(1.0, 1.0))
        C = BoxSet([(0.0, 2.0), (0.0, 2.0), (0.5, 2.0)])
        with pytest.raises(QuasiSectionRefused) as err:
            synth_wavelet(act, C, orders=16)
        assert err.value.witness is not None

    def test_forced_construction_hits_unbounded_support(self):
        act = diagonal_action(family_b(1.0, 1.0))
        C = BoxSet([(0.0, 2.0), (0.0, 2.0), (0.5, 2.0)])
        with pytest.warns(UserWarning):
            with pytest.raises(SupportUnbounded):
                synth_wavelet(act, C, orders=16, override_quasisection=True)

    @pytest.mark.parametrize("name", ["spec_1d", "spec_case_a"])
    def test_sigma_is_public_sigma_at_c_centre(self, name, request):
        spec = request.getfixturevalue(name)
        act = spec.action
        w = np.zeros(act.alg.n)
        for (lo, hi), sl in zip(spec.C.bounds, act.slices):
            w[sl.start] = np.sqrt(lo * hi)
        xi_star = np.linalg.solve(act.basis.T, w)
        val = sigma(act, spec.phi, xi_star, orders=64)
        assert abs(spec.sigma - val) <= 1e-12 * val

    def test_non_open_orbits_refused_diagonal(self):
        act = diagonal_action(DilationAlgebra([np.diag([1.0, 2.0])]))
        with pytest.raises(ZeroSigma):
            synth_wavelet(act, BoxSet([(1.0, 2.0), (1.0, 2.0)]), orders=16)

    def test_non_open_orbits_refused_family_b(self):
        act = diagonal_action(family_b(1.0, 1.0))
        with pytest.raises(ZeroSigma):
            synth_wavelet(act, c_i_box(1, 2.0), orders=16)

    def test_default_enlargement(self, act_1d):
        spec = synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]), orders=32)
        npt.assert_allclose(spec.W.bounds[0], (1.0 / 1.25, 2.0 * 1.25))


class TestCalderon:
    def test_1d_accuracy(self, spec_1d, dilation_1d):
        rng = np.random.default_rng(2)
        xis = (np.exp(rng.uniform(-2, 2, 50)) * rng.uniform(1, 2, 50)
               * np.sign(rng.standard_normal(50))).reshape(-1, 1)
        rep = calderon_check(spec_1d, xis, orders=64)
        assert rep.n_covered == 50 and rep.max_deviation < 1e-3

    def test_invariance_along_orbit(self, spec_1d, dilation_1d):
        g = GroupElement(dilation_1d, [0.9])
        xi0 = np.array([1.4])
        r0 = calderon_check(spec_1d, [xi0], orders=64)
        r1 = calderon_check(spec_1d, [g.h_inv_T @ xi0], orders=64)
        assert abs(r0.values[0] - r1.values[0]) < 1e-6

    def test_uncovered_excluded(self, spec_1d):
        rep = calderon_check(spec_1d, [[1.5], [0.0]], orders=64)
        assert rep.n_covered == 1 and rep.n_uncovered == 1

    def test_wrong_sigma_fails_instead_of_dropping_samples(self, spec_1d):
        # coverage comes from structure (the orbit meets C), not from the
        # size of the integral, so a 3x error in sigma shows as a deviation
        bad = dataclasses.replace(spec_1d, sigma=3 * spec_1d.sigma)
        xis = np.exp(np.random.default_rng(3).uniform(-2, 2, 20)).reshape(-1, 1)
        rep = calderon_check(bad, xis, orders=64)
        assert rep.n_covered == 20 and rep.n_uncovered == 0
        assert rep.max_deviation == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_peak_memory_case_a(self, spec_case_a):
        # the batched rule runs in groups of node rows, so its temporaries do
        # not grow with the number of samples
        xis = _calderon_samples(spec_case_a.action, spec_case_a, 100, 0)
        calderon_check(spec_case_a, xis[:2])  # reference rules cached
        tracemalloc.start()
        try:
            rep = calderon_check(spec_case_a, xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.orders == (64, 64) and rep.n_covered == 100
        assert peak <= 1.5e6


class TestHaarIntegral:
    @pytest.mark.parametrize("name, orders", [
        ("spec_1d", (8,)), ("spec_1d", (12,)), ("spec_case_a", (8, 12)),
    ])
    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_batched_rule_matches_nested_sums(self, name, orders, m, request):
        action = request.getfixturevalue(name).action
        rng = np.random.default_rng(m)
        r = rng.uniform(0.5, 2.0, (m, action.k))
        lo = rng.uniform(-1.0, 0.0, (m, action.d))
        boxes = np.stack([lo, lo + rng.uniform(0.5, 1.5, (m, action.d))], axis=-1)

        def f(rows):
            return np.exp(-np.sum(np.log(rows) ** 2, axis=1))

        vals, drift = _haar_integral(action, f, r, boxes, orders, refine=False)
        assert vals.shape == (m,) and drift == 0.0
        for ri, box, val in zip(r, boxes, vals):
            axes = [gauss_legendre(o, lo_, hi_) for o, (lo_, hi_) in zip(orders, box)]
            ref = 0.0
            for nodes in itertools.product(*(list(zip(*ax)) for ax in axes)):
                t = np.array([tq for tq, _ in nodes])
                w = np.prod([wj for _, wj in nodes])
                ref += w * f((ri * np.exp(action.weights @ t))[None])[0] ** 2
            npt.assert_allclose(val, ref, rtol=1e-14, atol=0)


class TestCwt:
    def test_autocorrelation_peak(self, spec_1d):
        N, dx = 256, 0.3
        freqs = frequency_lattice((N,), (dx,))
        g = np.fft.ifftn(spec_1d.ghat(freqs).reshape(N)) / dx
        tg = cwt(spec_1d, g, dx, param_counts=65)
        i0 = int(np.argmin(np.abs(tg.param_points[:, 0])))
        slice0 = np.abs(tg.coeffs[i0])
        assert int(np.argmax(slice0)) == 0
        npt.assert_allclose(slice0[0], np.sum(np.abs(g) ** 2) * dx, rtol=1e-10)

    def test_disjoint_support_gives_zero(self, spec_1d):
        # frequencies unreachable from W within the parameter lattice; the
        # lattice must be long enough for nonzero frequencies below lo
        N, dx = 1024, 0.3
        freqs = frequency_lattice((N,), (dx,))
        lo = 0.8 * np.exp(spec_1d.param_box[0][0]) * 0.25
        mask = (np.abs(freqs[:, 0]) > 0) & (np.abs(freqs[:, 0]) < lo)
        assert mask.any()
        rng = np.random.default_rng(3)
        fh = rng.standard_normal(N) * mask.reshape(N)
        f = np.fft.ifftn(fh) / dx
        tg = cwt(spec_1d, f, dx, param_counts=32)
        assert np.max(np.abs(tg.coeffs)) < 1e-12

    def test_isometry_band_limited(self, spec_1d):
        N, dx = 256, 0.3
        freqs = frequency_lattice((N,), (dx,))
        band = (np.abs(freqs[:, 0]) > 0.72) & (np.abs(freqs[:, 0]) < 2.8)
        rng = np.random.default_rng(4)
        for _ in range(5):
            fh = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * band.reshape(N)
            f = np.fft.ifftn(fh) / dx
            ratio = cwt(spec_1d, f, dx, param_counts=64).isometry_ratio()
            assert 0.95 < ratio < 1.05

    def test_band_limit_enforced(self, spec_1d):
        N, dx = 256, 0.3
        f = np.cos(np.pi / dx * np.arange(N) * dx)  # pure Nyquist tone
        with pytest.raises(BandLimitViolation):
            cwt(spec_1d, f, dx)

    def test_power_of_two_required(self, spec_1d):
        with pytest.raises(InvalidSignal):
            cwt(spec_1d, np.zeros(100), 0.3)


@pytest.fixture(scope="module")
def spec_2d_rotation_scaling():
    act = diagonal_action(DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]))
    return synth_wavelet(act, BoxSet([(1.0, 2.0)]), orders=64)


class TestLatticeSlices:
    @pytest.mark.parametrize("name, shape, dx", [
        ("spec_1d", (256,), 0.3),
        ("spec_2d_rotation_scaling", (32, 32), 0.3),
        ("spec_case_a", (16, 16, 16), 0.4),
    ])
    def test_matches_block_values_on_orbit_magnitudes(self, name, shape, dx, request):
        spec = request.getfixturevalue(name)
        rf = spec.action.block_abs(frequency_lattice(shape, (dx,) * len(shape)))
        pts, _ = param_lattice(spec.param_box, 5)
        # the containment check evaluates slices just outside the meeting box
        lo = np.array([b[0] for b in spec.param_box])
        hi = np.array([b[1] for b in spec.param_box])
        ts = np.concatenate([pts, [lo - 0.75, hi + 0.75, np.zeros_like(lo)]])
        slices = list(_lattice_slices(spec, rf, ts))
        assert len(slices) == len(ts)
        for t, gh in zip(ts, slices):
            ref = spec.block_values(_orbit_magnitudes(spec.action, rf, t))
            assert gh.shape == (rf.shape[0],)
            npt.assert_allclose(gh, ref, rtol=1e-14, atol=0)
        assert any(np.count_nonzero(gh) for gh in slices)

    @pytest.mark.parametrize("name, shape, dx, lattice", [
        ("spec_case_a", (16, 16, 16), 0.4, "l1"),
        ("spec_case_a", (16, 16, 16), 0.4, "containment"),
        ("spec_1d", (256,), 0.3, "cwt"),
    ], ids=["case-a-l1-20x20", "case-a-containment", "1d-cwt-64"])
    def test_bit_equal_to_block_values(self, name, shape, dx, lattice, request):
        # the factor tables see the same floats as block_values on rf . exp(W t)
        spec = request.getfixturevalue(name)
        rf = spec.action.block_abs(_half_lattice(shape, (dx,) * len(shape))[1])
        box = meeting_param_box(spec.action, spec.W, spec.W, margin=0.0)
        if lattice == "l1":
            ts = param_lattice(box, 20)[0]
        elif lattice == "containment":
            ts = _containment_points(box)
        else:
            ts = param_lattice(spec.param_box, 64)[0]
        scales = np.exp(ts @ spec.action.weights.T)
        slices = list(_lattice_slices(spec, rf, ts))
        assert len(slices) == len(ts)
        for scale, gh in zip(scales, slices):
            assert np.array_equal(gh, spec.block_values(rf * scale))
        assert lattice == "containment" or any(np.count_nonzero(gh) for gh in slices)


def _band_signal(shape, dx, band, seed, complex_valued=False):
    """A signal on the lattice whose spectrum lies in band[0] < |xi| < band[1]."""
    rad = np.linalg.norm(frequency_lattice(shape, (dx,) * len(shape)), axis=1)
    rng = np.random.default_rng(seed)
    fh = (rng.standard_normal(rad.size) + 1j * rng.standard_normal(rad.size)) \
        * ((rad > band[0]) & (rad < band[1]))
    f = np.fft.ifftn(fh.reshape(shape))
    return f if complex_valued else f.real


def _full_spectrum_cwt(spec, f, dx, param_points):
    """V_g f by complex FFTs on the whole frequency lattice, slice by slice:
    |det h|^{1/2} (fhat . conj(ghat o h^T))^v."""
    shape = f.shape
    cell = dx ** f.ndim
    rf = spec.action.block_abs(frequency_lattice(shape, (dx,) * f.ndim))
    traces = np.array([np.trace(G) for G in spec.action.alg.generators])
    fhat = np.fft.fftn(f) * cell
    out = []
    for t in param_points:
        gh = spec.block_values(_orbit_magnitudes(spec.action, rf, t)).reshape(shape)
        out.append(np.fft.ifftn(fhat * np.conj(gh) * np.exp(0.5 * t @ traces)) / cell)
    return np.array(out)


class TestCwtMatchesFullSpectrum:
    @pytest.mark.parametrize("name, shape, dx, complex_valued, dtype", [
        ("spec_1d", (256,), 0.3, False, np.float64),
        ("spec_2d_rotation_scaling", (32, 32), 0.3, False, np.float64),
        ("spec_1d", (256,), 0.3, True, np.complex128),
    ], ids=["real-1d", "real-2d-rotation-scaling", "complex-1d"])
    def test_against_complex_reference(self, name, shape, dx, complex_valued, dtype,
                                       request):
        spec = request.getfixturevalue(name)
        f = _band_signal(shape, dx, (0.72, 2.8), seed=11, complex_valued=complex_valued)
        tg = cwt(spec, f, dx, param_counts=16)
        assert tg.coeffs.dtype == dtype
        assert tg.coeffs.shape == (tg.param_points.shape[0],) + shape
        ref = _full_spectrum_cwt(spec, f, dx, tg.param_points)
        scale = np.max(np.abs(tg.coeffs))
        assert scale > 0
        assert np.max(np.abs(tg.coeffs - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("name, shape, dx", [
        ("spec_1d", (256,), 0.3),
        ("spec_2d_rotation_scaling", (32, 32), 0.3),
    ])
    def test_slice_l1_against_complex_reference(self, name, shape, dx, request):
        spec = request.getfixturevalue(name)
        rf = spec.action.block_abs(frequency_lattice(shape, (dx,) * len(shape)))
        g0 = spec.block_values(rf).reshape(shape)
        h = shape[-1] // 2 + 1  # the rfftn half of the last axis
        supp = np.flatnonzero(g0[..., :h])
        buf = np.zeros(g0[..., :h].shape)
        for t in param_lattice(spec.param_box, 5)[0]:
            gh = spec.block_values(_orbit_magnitudes(spec.action, rf, t)).reshape(shape)
            ref = np.sum(np.abs(np.fft.ifftn(g0 * gh)))
            prod = (g0 * gh)[..., :h].ravel()[supp]
            npt.assert_allclose(_slice_l1(prod, supp, buf, shape), ref, rtol=1e-12)

    def test_support_l1_bit_equal_to_dense(self, spec_case_a):
        # the CLI's case-(a) L1 lattice: 32^3 points, 20 x 20 slices
        shape = (32, 32, 32)
        dx = (np.pi / (4.0 * max(hi for _, hi in spec_case_a.W.bounds)),) * 3
        half, freqs = _half_lattice(shape, dx)
        rf = spec_case_a.action.block_abs(freqs)
        g0 = spec_case_a.block_values(rf).reshape(half)
        box = meeting_param_box(spec_case_a.action, spec_case_a.W, spec_case_a.W,
                                margin=0.0)
        ts = param_lattice(box, 20)[0]
        got = list(_support_l1(spec_case_a, g0, rf, ts, shape))
        dense = [float(np.sum(np.abs(np.fft.irfftn(g0 * gh.reshape(half), s=shape,
                                                   axes=(0, 1, 2)))))
                 for gh in _lattice_slices(spec_case_a, rf, ts)]
        assert len(got) == 400 and got == dense
        assert 0.0 in got and any(got)


class TestL1Estimate:
    def test_finite_and_stable(self, spec_1d):
        r1 = l1_estimate(spec_1d, 128, 0.6, param_counts=96)
        r2 = l1_estimate(spec_1d, 256, 0.3, param_counts=96)
        assert np.isfinite(r1.value) and r1.value > 0
        assert abs(r1.value - r2.value) <= 0.1 * r2.value

    def test_support_containment(self, spec_1d):
        rep = l1_estimate(spec_1d, 128, 0.6, param_counts=64)
        assert rep.containment_max <= 1e-12

    def test_zero_wavelet_gives_zero(self, spec_1d):
        import dataclasses

        # ghat with infinite sigma is identically zero
        dead = dataclasses.replace(spec_1d, sigma=np.inf)
        rep = l1_estimate(dead, 64, 0.6, param_counts=16)
        assert rep.value == 0.0

    def test_pluggable_weight(self, spec_1d):
        r_half = l1_estimate(spec_1d, 128, 0.6, param_counts=64)
        r_zero = l1_estimate(spec_1d, 128, 0.6, param_counts=64, weight_exponent=0.0)
        assert r_half.weight_exponent == 0.5 and r_zero.weight_exponent == 0.0
        assert r_half.value != r_zero.value


class TestPointSupportBox:
    def test_contains_true_support(self, act_1d, phi_1d):
        box = point_support_box(act_1d, phi_1d.outer, [1.5])
        lo, hi = box[0]
        assert lo < np.log(0.8 / 1.5) and hi > np.log(2.5 / 1.5)

    def test_unreachable_point_none(self, act_1d, phi_1d):
        assert point_support_box(act_1d, phi_1d.outer, [0.0]) is None
