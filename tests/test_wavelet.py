import dataclasses
import itertools
import tracemalloc
import warnings

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
    SupportUnbounded,
    ZeroSigma,
)
from orbitscope.families import family_a, family_b, family_e
from orbitscope.linalg import DilationAlgebra, mat_exp
from orbitscope.quasisection import (
    BoxSet,
    _point_system,
    _polyhedra,
    c_i_box,
    diagonal_action,
)
from orbitscope.wavelet import (
    _SUPPORT_PAD,
    _containment_points,
    _haar_integral,
    _half_lattice,
    _lattice_slices,
    _padded_boxes,
    _shell_share,
    cell_rules,
    calderon_check,
    cwt,
    cwt_slices,
    l1_estimate,
    meeting_param_box,
    radial_l1,
    smoothstep,
    synth_wavelet,
)

from conftest import conjugated, frequency_lattice


@pytest.fixture(scope="module")
def act_1d(dilation_1d):
    return diagonal_action(dilation_1d)


@pytest.fixture(scope="module")
def spec_spiral():
    # the 2-D spiral group exp(t [[1, -1], [1, 1]]): one block of magnitude |xi|
    act = diagonal_action(DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]))
    return synth_wavelet(act, BoxSet([(1.0, 2.0)]))


@pytest.fixture(scope="module")
def phi_1d(spec_1d):
    """The bump phi of spec_1d (C = [1, 2], W = [0.8, 2.5]) at points xi."""
    return lambda points: spec_1d.factor(0, spec_1d.action.block_abs(points)[:, 0])


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

    def test_smoothstep_matches_unmasked_formula(self):
        # exp runs only on 0 < x < 1 now; every float agrees bit for bit with
        # the formula that evaluated both exponentials everywhere
        def unmasked(x):
            p, q = np.zeros_like(x), np.zeros_like(x)
            np.exp(-1.0 / np.clip(x, 1e-300, None), out=p, where=x > 0)
            np.exp(-1.0 / np.clip(1.0 - x, 1e-300, None), out=q, where=x < 1)
            return p / (p + q)

        edges = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, np.inf, -np.inf]
        xs = np.concatenate([np.linspace(-3.0, 4.0, 70001), edges])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # without the clip, -1/5e-324 overflows
            got = smoothstep(xs)
            got_nan = smoothstep(np.array([np.nan, 0.5]))
        with np.errstate(all="ignore"):
            want = unmasked(xs)
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(got_nan[0]) and got_nan[1] == 0.5
        assert got.shape == xs.shape and got.dtype == np.float64

    def test_nesting_enforced(self, act_1d):
        with pytest.raises(SetsNotNested):
            synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(1.0, 2.5)]))
        with pytest.raises(SetsNotNested):
            synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(0.8, 2.0)]))


class TestSigma:
    def test_matches_adaptive_quadrature(self, spec_1d):
        lo, hi = spec_1d.C.bounds[0]
        rstar = np.sqrt(lo * hi)

        def integrand(t):
            return spec_1d.factor(0, np.array([np.exp(t) * rstar]))[0] ** 2

        oracle, _ = quad(integrand, -3.0, 3.0, limit=400, epsabs=1e-13)
        assert abs(spec_1d.sigma - oracle) < 1e-6

    def test_haar_invariance(self, act_1d, spec_1d, dilation_1d):
        rng = np.random.default_rng(0)
        xi = np.array([1.5])
        moved = [mat_exp(-dilation_1d.element(rng.uniform(-2, 2, 1)).T) @ xi
                 for _ in range(5)]
        r = act_1d.block_abs([xi, *moved])
        boxes = _padded_boxes(*_point_system(act_1d, spec_1d.W, r), _SUPPORT_PAD)[1]
        vals = _haar_integral(act_1d, spec_1d.block_values, r, boxes, 64)
        assert np.max(np.abs(vals[1:] - vals[0])) < 1e-6

    def test_indicator_log_closed_form(self, act_1d):
        # phi = shell indicator: sigma = ln(b/a) exactly
        a, b = 0.9, 2.2

        def indicator(r):
            return ((r[:, 0] >= a) & (r[:, 0] <= b)).astype(float)

        vals = _haar_integral(act_1d, indicator, np.array([[1.3]]), [((-3.0, 3.0),)], 4096)
        assert abs(vals[0] - np.log(b / a)) < 2e-3

    def test_smoothness_second_differences(self, spec_1d):
        # finite-difference second derivatives of sigma stay bounded inside W
        rs = np.linspace(1.0, 2.0, 31)
        boxes = _padded_boxes(*_point_system(spec_1d.action, spec_1d.W, rs[:, None]),
                              _SUPPORT_PAD)[1]
        vals = spec_1d.sigma * _haar_integral(spec_1d.action, spec_1d.block_values,
                                              rs[:, None], boxes, 64)
        h = rs[1] - rs[0]
        second = np.abs(np.diff(vals, 2)) / h ** 2
        assert np.max(second) < 50.0


class TestSynth:
    def test_1d_spec(self, spec_1d):
        assert spec_1d.convergence["trapezoid_intervals"] == [256, 512]
        assert max(spec_1d.convergence["block_rel_diff"]) < 1e-10
        vals = spec_1d.block_values(spec_1d.action.block_abs([[1.5], [-1.5], [3.0]]))
        assert vals[0] > 0 and abs(vals[0] - vals[1]) < 1e-12 and vals[2] == 0.0

    def test_case_a_spec_on_3d_grid(self, spec_case_a):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 3))
        vals = spec_case_a.block_values(spec_case_a.action.block_abs(pts))
        assert np.all(np.isfinite(vals)) and np.any(vals > 0)

    def test_refuses_unbounded_meeting_set(self):
        act = diagonal_action(family_b(1.0, 1.0))
        C = BoxSet([(0.0, 2.0), (0.0, 2.0), (0.5, 2.0)])
        with pytest.raises(QuasiSectionRefused) as err:
            synth_wavelet(act, C)
        assert err.value.witness is not None

    def test_unbounded_w_support_raises(self):
        # ((C, C)) is bounded, but W's first block is bounded above only, so
        # ((W, W)) and the parameter support of ghat are unbounded
        act = diagonal_action(family_a(1.0))
        C = BoxSet([(1.0, 2.0), (1.0, 2.0)])
        W = BoxSet([(0.0, 2.5), (0.8, 2.5)])
        with pytest.raises(SupportUnbounded):
            synth_wavelet(act, C, W)

    @pytest.mark.parametrize("name", ["spec_1d", "spec_case_a"])
    def test_sigma_is_haar_integral_on_c_centre_orbit(self, name, request):
        # the frequency xi* whose block magnitudes are C's centre, and points
        # of its orbit, all integrate to the one sigma the spec stores: the
        # d-dimensional cell-centred rule at 512 cells per parameter is an
        # oracle independent of the block integrals
        spec = request.getfixturevalue(name)
        act = spec.action
        w = np.zeros(act.alg.n)
        for (lo, hi), sl in zip(spec.C.bounds, act.slices):
            w[sl.start] = np.sqrt(lo * hi)
        xi_star = np.linalg.solve(act.basis.T, w)
        rng = np.random.default_rng(5)
        xis = [xi_star] + [mat_exp(-act.alg.element(rng.uniform(-1, 1, act.d)).T) @ xi_star
                           for _ in range(4)]
        r = act.block_abs(xis)
        boxes = _padded_boxes(*_point_system(act, spec.W, r), _SUPPORT_PAD)[1]
        vals = spec.sigma * _haar_integral(act, spec.block_values, r, boxes, 512)
        npt.assert_allclose(vals, spec.sigma, rtol=1e-10, atol=0)

    def test_family_e_is_a_product_of_1d_specs(self):
        # three blocks, one per parameter: sigma and, on one lattice, the L1
        # estimate are the products of the 1-D specs' on the same block
        # bounds, and the L1 kernel stays inside the meeting box
        C = [(0.5, 2.0), (0.7, 1.5), (1.0, 3.0)]
        spec = synth_wavelet(diagonal_action(family_e()), BoxSet(C))
        act_1d = diagonal_action(DilationAlgebra([np.array([[1.0]])]))
        parts = [synth_wavelet(act_1d, BoxSet([c]), BoxSet([w]))
                 for c, w in zip(C, spec.W.bounds)]
        npt.assert_allclose(spec.sigma, np.prod([p.sigma for p in parts]), rtol=1e-14)
        rep = l1_estimate(spec)
        n, dx = rep.convergence["lattice"][1], np.pi / (4.0 * spec.W.bounds[2][1])
        npt.assert_allclose(rep.value, np.prod([l1_estimate(p, n, dx).value for p in parts]),
                            rtol=1e-12)
        assert rep.containment_max == 0.0

    def test_unresolved_block_integral_warns(self, act_1d):
        # W's lower ramp is 1e-4 wide in ln r, far below the trapezoid step
        with pytest.warns(UserWarning, match="not stable to 0.1%"):
            spec = synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(0.9999, 2.0002)]))
        assert spec.convergence["block_rel_diff"][0] > 1e-3

    def test_non_open_orbits_refused_diagonal(self):
        act = diagonal_action(DilationAlgebra([np.diag([1.0, 2.0])]))
        with pytest.raises(ZeroSigma):
            synth_wavelet(act, BoxSet([(1.0, 2.0), (1.0, 2.0)]))

    def test_non_open_orbits_refused_family_b(self):
        act = diagonal_action(family_b(1.0, 1.0))
        with pytest.raises(ZeroSigma):
            synth_wavelet(act, c_i_box(1, 2.0))

    def test_default_enlargement(self, act_1d):
        spec = synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]))
        npt.assert_allclose(spec.W.bounds[0], (1.0 / 1.25, 2.0 * 1.25))


class TestCalderon:
    def test_1d_accuracy(self, spec_1d, dilation_1d):
        rng = np.random.default_rng(2)
        xis = (np.exp(rng.uniform(-2, 2, 50)) * rng.uniform(1, 2, 50)
               * np.sign(rng.standard_normal(50))).reshape(-1, 1)
        rep = calderon_check(spec_1d, xis, orders=64)
        assert rep.n_covered == 50 and rep.max_deviation < 1e-3

    @pytest.mark.parametrize("name, bound", [("spec_1d", 1e-6), ("spec_case_a", 3e-5)])
    def test_order_64_deviation(self, name, bound, request):
        # the one integral reads the rule's error: 2.0e-7 (1-D) and 1.55e-5
        # (case (a)) with cell centres, 8.9e-6 and 4.6e-5 with the
        # Gauss-Legendre rule of the same order
        spec = request.getfixturevalue(name)
        xis = _calderon_samples(spec.action, spec, 100, 1729)
        rep = calderon_check(spec, xis, orders=64)
        assert rep.n_covered == 100 and rep.max_deviation < bound

    @pytest.mark.parametrize("seed", [0, 1, 1729])
    @pytest.mark.parametrize("name", ["spec_1d", "spec_spiral", "spec_case_a"])
    def test_value_is_each_covered_samples_integral(self, name, seed, request):
        # the reference computation: every covered sample integrated over its
        # own padded support box, as many integrals as samples
        spec = request.getfixturevalue(name)
        act = spec.action
        xis = _calderon_samples(act, spec, 100, seed)
        rep = calderon_check(spec, xis, orders=64)
        rs = act.block_abs(xis)
        covered = _polyhedra(*_point_system(act, spec.C, rs))[0]
        boxes = _padded_boxes(*_point_system(act, spec.W, rs[covered]), _SUPPORT_PAD)[1]
        vals = _haar_integral(act, spec.block_values, rs[covered], boxes, 64)
        assert rep.n_covered == covered.sum() == 100
        npt.assert_allclose(vals, rep.value, rtol=1e-14, atol=0)
        assert rep.max_deviation == abs(rep.value - 1.0)

    def test_uncovered_excluded(self, spec_1d):
        rep = calderon_check(spec_1d, [[1.5], [0.0]], orders=64)
        assert rep.n_covered == 1 and rep.n_uncovered == 1
        assert np.isnan(calderon_check(spec_1d, [[0.0]], orders=64).max_deviation)

    def test_wrong_sigma_fails_instead_of_dropping_samples(self, spec_1d):
        # coverage comes from structure (the orbit meets C), not from the
        # size of the integral, so a 3x error in sigma shows as a deviation
        bad = dataclasses.replace(spec_1d, sigma=3 * spec_1d.sigma)
        xis = np.exp(np.random.default_rng(3).uniform(-2, 2, 20)).reshape(-1, 1)
        rep = calderon_check(bad, xis, orders=64)
        assert rep.n_covered == 20 and rep.n_uncovered == 0
        assert rep.max_deviation == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_peak_memory_case_a(self, spec_case_a):
        # the rule runs on one box whatever the number of samples, so its
        # temporaries do not grow with them
        xis = _calderon_samples(spec_case_a.action, spec_case_a, 100, 0)
        calderon_check(spec_case_a, xis[:2], orders=64)  # first-call allocations
        tracemalloc.start()
        try:
            rep = calderon_check(spec_case_a, xis, orders=64)
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

        vals = _haar_integral(action, f, r, boxes, orders)
        assert vals.shape == (m,)
        for ri, box, val in zip(r, boxes, vals):
            # the cell-centred rule, one (node, weight) list per axis
            axes = [[(lo_ + (hi_ - lo_) / o * (i + 0.5), (hi_ - lo_) / o) for i in range(o)]
                    for o, (lo_, hi_) in zip(orders, box)]
            ref = 0.0
            for nodes in itertools.product(*axes):
                t = np.array([tq for tq, _ in nodes])
                w = np.prod([wj for _, wj in nodes])
                ref += w * f((ri * np.exp(action.weights @ t))[None])[0] ** 2
            npt.assert_allclose(val, ref, rtol=1e-14, atol=0)


class TestCwt:
    def test_autocorrelation_peak(self, spec_1d):
        N, dx = 256, 0.3
        freqs = frequency_lattice((N,), (dx,))
        g = np.fft.ifftn(spec_1d.block_values(spec_1d.action.block_abs(freqs)).reshape(N)) / dx
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
            cwt(spec_1d, f, dx, param_counts=64)

    def test_power_of_two_required(self, spec_1d):
        with pytest.raises(InvalidSignal):
            cwt(spec_1d, np.zeros(100), 0.3, param_counts=64)

    @pytest.mark.parametrize("f, error", [
        (np.cos(np.pi * np.arange(256)), BandLimitViolation),
        (np.zeros(100), InvalidSignal),
        (np.r_[np.nan, np.ones(255)], InvalidSignal),
    ], ids=["nyquist-tone", "length-100", "nan-sample"])
    def test_slices_check_before_returning(self, spec_1d, f, error):
        # the checks are eager: no slice has to be drawn for them to run
        with pytest.raises(error):
            cwt_slices(spec_1d, f, 0.3, 8)

    def test_slices_are_cwt(self, spec_1d):
        f = _band_signal((256,), 0.3, (0.72, 2.8), seed=2)
        lattice, slices = cwt_slices(spec_1d, f, 0.3, 16)
        tg = cwt(spec_1d, f, 0.3, param_counts=16)
        assert lattice.dtype == tg.coeffs.dtype == np.float64
        assert np.array_equal(lattice.param_points, tg.param_points)
        assert np.array_equal(np.array(list(slices)), tg.coeffs)

    def test_complex_peak_memory(self, spec_2d_rotation_scaling):
        # one complex128 array and one slice's temporaries; the parent's real
        # and imaginary stack plus its complex copy peaked at 2.1x
        f = _band_signal((128, 128), np.pi / 10.0, (0.9, 2.0), seed=5, complex_valued=True)
        tracemalloc.start()
        try:
            tg = cwt(spec_2d_rotation_scaling, f, np.pi / 10.0, param_counts=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tg.coeffs.dtype == np.complex128
        assert peak < 1.3 * tg.coeffs.nbytes


def _full_shell_share(f) -> float:
    """The Nyquist-shell share of the spectral mass from the full complex
    spectrum: the outer 10% of every axis."""
    mask = np.zeros(f.shape, dtype=bool)
    for axis, N in enumerate(f.shape):
        edge = np.abs(np.fft.fftfreq(N)) * 2.0 > 0.9
        mask |= edge.reshape([-1 if j == axis else 1 for j in range(f.ndim)])
    power = np.abs(np.fft.fftn(f)) ** 2
    return np.sum(power[mask]) / np.sum(power)


class TestShellShare:
    @pytest.mark.parametrize("shape", [
        (1,), (2,), (8,), (256,), (4, 1), (4, 2), (16, 8), (2, 2, 2), (8, 4, 1), (4, 8, 2),
        (8, 8, 16),
    ])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_half_spectrum_matches_full(self, shape, complex_valued):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        f = rng.standard_normal(shape)
        if complex_valued:
            f = f + 1j * rng.standard_normal(shape)
        parts = np.stack([f.real, f.imag]) if complex_valued else f[None]
        share = _shell_share(np.fft.rfftn(parts, axes=tuple(range(1, parts.ndim))), shape)
        npt.assert_allclose(share, _full_shell_share(f), rtol=1e-12, atol=0)
        assert share > 0.0 or shape == (1,)


@pytest.fixture(scope="module")
def spec_2d_rotation_scaling():
    act = diagonal_action(DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]))
    return synth_wavelet(act, BoxSet([(1.0, 2.0)]))


class TestLatticeSlices:
    @pytest.mark.parametrize("name, shape, dx", [
        ("spec_1d", (256,), 0.3),
        ("spec_2d_rotation_scaling", (32, 32), 0.3),
        ("spec_case_a", (16, 16, 16), 0.4),
    ])
    def test_matches_block_values_on_orbit_magnitudes(self, name, shape, dx, request):
        spec = request.getfixturevalue(name)
        rf = spec.action.block_abs(frequency_lattice(shape, (dx,) * len(shape)))
        (pts,), _ = cell_rules([spec.param_box], 5)
        # the containment check evaluates slices just outside the meeting box
        lo = np.array([b[0] for b in spec.param_box])
        hi = np.array([b[1] for b in spec.param_box])
        ts = np.concatenate([pts, [lo - 0.75, hi + 0.75, np.zeros_like(lo)]])
        # chunks of 7 rows: the last one is short
        slices = np.concatenate(list(_lattice_slices(spec, rf, ts, 7)))
        assert len(slices) == len(ts)
        for t, gh in zip(ts, slices):
            ref = spec.block_values(rf * np.exp(spec.action.weights @ t))
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
        box = meeting_param_box(spec.action, spec.W, margin=0.0)
        if lattice == "l1":
            ts = cell_rules([box], 20)[0][0]
        elif lattice == "containment":
            ts = _containment_points(box)
        else:
            ts = cell_rules([spec.param_box], 64)[0][0]
        scales = np.exp(ts @ spec.action.weights.T)
        # chunks of 7 rows: the last one is short
        slices = np.concatenate(list(_lattice_slices(spec, rf, ts, 7)))
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
        gh = spec.block_values(rf * np.exp(spec.action.weights @ t)).reshape(shape)
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


def _sine_transform_l1(q, lo, hi, R=600.0, h=0.02, dk=2e-3):
    """||F^{-1}[q(|w|)]||_{L1(R^3)} for a profile q supported in [lo, hi], by
    f(rho) = (2 pi^2 rho)^{-1} int q(k) k sin(k rho) dk (midpoint rule in k)
    and 4 pi int |f| rho^2 drho (a Riemann sum in rho up to R)."""
    k = np.arange(lo, hi, dk) + dk / 2
    w = q(k) * k * dk
    rho = np.arange(h, R, h)
    f = np.concatenate([np.sin(np.outer(rho[i:i + 4096], k)) @ w
                        for i in range(0, rho.size, 4096)]) / (2.0 * np.pi ** 2 * rho)
    return 4.0 * np.pi * h * np.sum(np.abs(f) * rho ** 2)


@pytest.fixture(scope="module")
def bump_profile():
    """phi(rho) phi(e^0.4 rho) for the bump between C = [1, 2] and W = [0.5, 3]."""
    act = diagonal_action(DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]))
    spec = synth_wavelet(act, BoxSet([(1.0, 2.0)]), BoxSet([(0.5, 3.0)]))
    return lambda rho: spec.factor(0, rho) * spec.factor(0, np.exp(0.4) * rho)


class TestRadialL1:
    @pytest.mark.parametrize("m, tol", [(1, 1e-11), (2, 3e-6), (3, 1e-11), (4, 3e-6),
                                        (5, 1e-11), (6, 1e-8)])
    def test_gaussian_has_unit_norm(self, m, tol):
        # F^{-1}[exp(-|w|^2/2)] = (2 pi)^{-m/2} exp(-|x|^2/2) has L1 norm 1 in
        # every dimension; even m leaves an O(dx^4) end error at rho = 0
        full, half = radial_l1(lambda rho: np.exp(-rho ** 2 / 2), m, 256, 0.15, 0.1, 12.0)
        assert abs(full - 1.0) <= tol and abs(half - 1.0) <= tol

    @pytest.mark.parametrize("m", [1, 2])
    def test_bump_against_dense_fft(self, bump_profile, m):
        # sum |inverse FFT| over the whole m-D lattice is the L1 norm
        n, dx = 1024, np.pi / 12.0
        axes = [2.0 * np.pi * np.fft.fftfreq(n, dx)] * (m - 1) + [
            2.0 * np.pi * np.fft.rfftfreq(n, dx)]
        rad = np.sqrt(sum(g ** 2 for g in np.meshgrid(*axes, indexing="ij")))
        dense = np.sum(np.abs(np.fft.irfftn(bump_profile(rad), s=(n,) * m, axes=range(m))))
        full, _ = radial_l1(bump_profile, m, n, dx, 0.125, 3.0)
        npt.assert_allclose(full, dense, rtol=1e-4)

    def test_m3_bump_against_sine_transform(self, bump_profile):
        full, _ = radial_l1(bump_profile, 3, 4096, np.pi / 24.0, 0.125, 3.0)
        npt.assert_allclose(full, _sine_transform_l1(bump_profile, 0.5, 3.0), rtol=2e-4)


# the unscaled boxes of the benchmark's wavelet jobs
_WAVELET_INPUTS = {
    "1d": (DilationAlgebra([np.array([[1.0]])]), [(1.0, 2.0)]),
    "2d": (DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]), [(1.0, 2.0)]),
    "case-a": (family_a(1.0), [(0.5, 2.0), (0.5, 2.0)]),
}


class TestL1Estimate:
    @pytest.mark.parametrize("name", list(_WAVELET_INPUTS))
    def test_within_1e3_of_doubled_resolution(self, name):
        alg, C = _WAVELET_INPUTS[name]
        spec = synth_wavelet(diagonal_action(alg), BoxSet(C))
        rep = l1_estimate(spec)
        conv = rep.convergence
        n = conv["lattice"][1]
        assert conv["param_counts"] == [32, 64] and not conv["lattice_capped"]
        assert max(conv["lattice_rel_diff"], conv["param_rel_diff"]) <= 1e-2
        assert rep.containment_max == 0.0
        fine = l1_estimate(spec, 2 * n, param_counts=128)
        npt.assert_allclose(rep.value, fine.value, rtol=1e-3)

    @pytest.mark.parametrize("P", [
        np.eye(3)[[2, 0, 1]],
        np.random.default_rng(3).standard_normal((3, 3)) + 3.0 * np.eye(3),
        np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
    ], ids=["a-permuted", "a-conjugated", "a-P"])
    def test_basis_independent(self, spec_case_a, P):
        spec = synth_wavelet(diagonal_action(conjugated(family_a(1.0), P)),
                             BoxSet([(0.5, 2.0)] * 2))
        rep, ref = l1_estimate(spec), l1_estimate(spec_case_a)
        npt.assert_allclose(rep.value, ref.value, rtol=1e-10)
        assert rep.convergence == ref.convergence
        assert rep.containment_max == 0.0

    def test_family_e_against_dense_reference(self):
        # three 1-D blocks: the per-block route on a 32-point lattice equals
        # the whole 32^3 lattice's sum |inverse FFT of ghat . ghat_s| on the
        # product trapezoid grid in s = M t, over |det M|.  The slice norm is
        # even in each s_k, and the route samples s_k >= 0 only: on a lattice
        # this coarse the two signs differ, so the reference takes |s|
        spec = synth_wavelet(diagonal_action(family_e()), BoxSet([(0.5, 2.0)] * 3))
        n, S = 32, 8
        dx = np.pi / (4.0 * max(hi for _, hi in spec.W.bounds))
        rep = l1_estimate(spec, n, dx, param_counts=S)
        h = [2.0 * np.log(hi / lo) / S for lo, hi in spec.W.bounds]
        rf = spec.action.block_abs(frequency_lattice((n,) * 3, (dx,) * 3))
        g0 = spec.block_values(rf)
        dense = sum(np.sum(np.abs(np.fft.ifftn((g0 * spec.block_values(rf * np.exp(np.abs(s))))
                                              .reshape((n,) * 3))))
                    for s in itertools.product(*[hk * np.arange(-S // 2, S // 2 + 1) for hk in h]))
        ref = np.prod(h) * dense / abs(np.linalg.det(spec.action.weights))
        assert ref > 0
        npt.assert_allclose(rep.value, ref, rtol=1e-12)
        assert rep.containment_max == 0.0

    def test_capped_lattice_warns(self, act_1d):
        # W's upper ramp is 1e-3 wide: the lattice would need about 2^19 points
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sigma's own warning
            spec = synth_wavelet(act_1d, BoxSet([(1.0, 2.0)]), BoxSet([(0.8, 2.001)]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = l1_estimate(spec)
        assert any("lattice capped" in str(w.message) for w in caught)
        assert rep.convergence["lattice_capped"]
        assert rep.convergence["lattice"] == [2 ** 13, 2 ** 14]

    def test_odd_param_counts_refused(self, spec_1d):
        with pytest.raises(ValueError, match="even"):
            l1_estimate(spec_1d, param_counts=63)

    def test_finite_and_stable(self, spec_1d):
        r1 = l1_estimate(spec_1d, 128, 0.6, param_counts=96)
        r2 = l1_estimate(spec_1d, 256, 0.3, param_counts=96)
        assert np.isfinite(r1.value) and r1.value > 0
        assert abs(r1.value - r2.value) <= 0.1 * r2.value

    def test_support_containment(self, spec_1d):
        rep = l1_estimate(spec_1d, 128, 0.6, param_counts=64)
        assert rep.containment_max <= 1e-12
        # the weight is Delta_G^{-1/2} = |det h|^{1/2}; reports name its exponent
        assert rep.to_json()["weight_exponent"] == spec_1d.to_json()["weight_exponent"] == 0.5

    def test_zero_wavelet_gives_zero(self, spec_1d):
        import dataclasses

        # ghat with infinite sigma is identically zero
        dead = dataclasses.replace(spec_1d, sigma=np.inf)
        rep = l1_estimate(dead, 64, 0.6, param_counts=16)
        assert rep.value == 0.0


class TestPointSupportBox:
    # the padded parameter-support boxes; calderon_check integrates over the
    # one of C's centre
    def test_contains_true_support(self, act_1d, spec_1d):
        nonempty, boxes = _padded_boxes(*_point_system(act_1d, spec_1d.W, np.array([[1.5]])),
                                        _SUPPORT_PAD)
        lo, hi = boxes[0, 0]
        assert nonempty[0] and lo < np.log(0.8 / 1.5) and hi > np.log(2.5 / 1.5)

    def test_unreachable_point_none(self, act_1d, spec_1d):
        nonempty, boxes = _padded_boxes(*_point_system(act_1d, spec_1d.W, np.array([[0.0]])),
                                        _SUPPORT_PAD)
        assert not nonempty[0] and boxes.shape[0] == 0
