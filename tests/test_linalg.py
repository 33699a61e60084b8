import random

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope.errors import IllConditioned, MatrixOverflow, NonCommuting
from orbitscope.families import E, family_a, family_e
from orbitscope import linalg
from orbitscope.linalg import (
    MAX_DIM,
    DilationAlgebra,
    check_commuting,
    kernel_filtration,
    mat_exp,
    rank_tol,
    roots_decompose,
    seeded_draws,
)

from conftest import series_exp


class TestMatExp:
    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        npt.assert_allclose(mat_exp(0.0 * M), np.eye(4), atol=1e-15)

    def test_diagonal_closed_form(self):
        alpha, s = 0.7, 1.3
        got = mat_exp(s * np.diag([1.0, 0.0, alpha]))
        npt.assert_allclose(got, np.diag([np.exp(s), 1.0, np.exp(alpha * s)]), rtol=1e-14)

    def test_nilpotent_truncates(self):
        X = E(2, 1)
        t = 2.5
        npt.assert_allclose(mat_exp(t * X), np.eye(3) + t * X, atol=1e-15)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            n = rng.integers(2, 7)
            M = rng.standard_normal((n, n))
            M *= 2.0 / max(np.linalg.norm(M), 1e-12)
            s = rng.uniform(-1, 1)
            worst = max(worst, np.max(np.abs(mat_exp(s * M) - series_exp(M, s))))
        assert worst < 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            M = rng.standard_normal((3, 3))
            M *= 2.0 / np.linalg.norm(M)
            s, t = rng.uniform(-2, 2, 2)
            lhs = mat_exp(s * M) @ mat_exp(t * M)
            rhs = mat_exp((s + t) * M)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)

    def test_det_is_exp_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            M = rng.standard_normal((4, 4))
            s = rng.uniform(-1.5, 1.5)
            det = np.linalg.det(mat_exp(s * M))
            expected = np.exp(s * np.trace(M))
            assert abs(det - expected) <= 1e-9 * abs(expected)

    def test_overflow_reported(self):
        with pytest.raises(MatrixOverflow):
            mat_exp(1e6 * np.diag([1.0, 1.0]))


class TestCheckCommuting:
    def test_case_b_pair(self):
        ok, worst = check_commuting([np.diag([1.0, 0, 1]), np.diag([0.0, 1, 1])])
        assert ok and worst < 1e-15

    def test_case_d_pair(self):
        ok, _ = check_commuting([np.diag([1.0, 1, 0]), E(2, 1)])
        assert ok

    def test_noncommuting_pair(self):
        ok, worst = check_commuting([E(2, 1), E(3, 2)])
        assert not ok
        npt.assert_allclose(worst, 1.0)  # commutator is -e31

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scaled_noncommuting_pair(self, scale):
        # decided on pow2-scaled copies, so the norm product neither
        # overflows (every pair passing) nor underflows
        with pytest.raises(NonCommuting):
            DilationAlgebra([scale * E(1, 2, 2), scale * E(2, 1, 2)])

    def test_worst_in_the_generators_units(self):
        ok, worst = check_commuting([1e100 * E(2, 1), E(3, 2)])
        assert not ok
        npt.assert_allclose(worst, 1e100, rtol=1e-15)


class TestRootsDecompose:
    def test_case_e_three_axes(self):
        rd = roots_decompose(family_e())
        assert rd.p == 3
        got = sorted(tuple(np.round(r.real, 9)) for r in rd.roots)
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        assert all(b.shape[1] == 1 for b in rd.blocks)
        assert not rd.nilpotent_basis

    def test_case_a_merged_complex_pair(self):
        alpha = 1.0
        rd = roots_decompose(family_a(alpha))
        assert rd.p == 2
        complex_roots = [r for r in rd.roots if np.max(np.abs(r.imag)) > 1e-9]
        assert len(complex_roots) == 1
        lam = complex_roots[0]
        npt.assert_allclose(lam[0], 1.0 + 1.0j, atol=1e-9)
        npt.assert_allclose(lam[1], 0.0, atol=1e-9)
        # conjugate-pair convention: positive imaginary part retained
        assert lam.imag[0] > 0

    def test_scalar_algebra(self):
        rd = roots_decompose(DilationAlgebra([np.eye(4)]))
        assert rd.p == 1
        npt.assert_allclose(rd.roots[0], [1.0], atol=1e-12)
        assert rd.blocks[0].shape == (4, 4)

    def test_near_scalar_generator(self):
        # P^-1 (lambda I) P is lambda I up to rounding: its one root block is
        # the whole space (A - mu scaled to unit norm would be pure noise)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, MAX_DIM + 1))
            lam = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            rd = roots_decompose(DilationAlgebra([np.linalg.solve(P, lam * P)]))
            assert rd.p == 1 and rd.blocks[0].shape == (n, n), seed
            npt.assert_allclose(rd.roots[0], [lam], rtol=1e-12)

    def test_eigenspace_invariance(self, golden_families):
        for alg in golden_families.values():
            rd = roots_decompose(alg)
            assert sum(b.shape[1] for b in rd.blocks) == alg.n
            for G in alg.generators:
                for V in rd.blocks:
                    resid = np.linalg.norm(G @ V - V @ (V.T @ G @ V))
                    assert resid <= 1e-8 * max(np.linalg.norm(G), 1.0)

    def test_close_roots_raise(self):
        # two distinguishable roots closer than tol: ambiguous clustering
        alg = DilationAlgebra([np.diag([1.0, 1.0 + 1e-4, 2.0])], tol=1e-3)
        with pytest.raises(IllConditioned):
            roots_decompose(alg)

    def test_roots_orthogonal_to_the_combination_raise(self):
        # the roots (0, 1) and (1.3158..., -0.1305...) differ by a vector
        # orthogonal to _ROOT_DRAWS[:2], so the combination has one double
        # eigenvalue whose eigenspace holds two joint roots
        alg = DilationAlgebra([np.diag([0.0, 1.315808323692046]),
                               np.diag([1.0, -0.1305643663071248])])
        npt.assert_allclose(np.diag(alg.element(linalg._ROOT_DRAWS[:2])), -1.315808323692046,
                            rtol=1e-15)
        with pytest.raises(IllConditioned):
            roots_decompose(alg)

    def test_root_draws_are_the_seeded_normals(self):
        # a d-generator family uses _ROOT_DRAWS[:d], the first d values of a
        # default_rng(_ROOT_SEED) stream
        npt.assert_array_equal(
            linalg._ROOT_DRAWS,
            np.random.default_rng(linalg._ROOT_SEED).standard_normal(MAX_DIM))


class TestSeededDraws:
    def test_stream_is_random_random(self):
        # U is the first count * uniforms values of Random(seed).random(), row
        # by row, and Z the Box-Muller map of the next pairs
        u, z = seeded_draws(11, 3, 2, 3)
        stream = random.Random(11)
        want_u = [stream.random() for _ in range(6)]
        pairs = [(stream.random(), stream.random()) for _ in range(5)]
        want_z = []
        for u1, u2 in pairs:
            radius = np.sqrt(-2.0 * np.log1p(-u1))
            want_z += [radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)]
        npt.assert_array_equal(u, np.reshape(want_u, (3, 2)))
        npt.assert_array_equal(z, np.reshape(want_z[:9], (3, 3)))

    def test_shapes_and_moments(self):
        u, z = seeded_draws(5, 4000, 1, 3)
        assert u.shape == (4000, 1) and z.shape == (4000, 3)
        assert np.all((u >= 0) & (u < 1)) and np.all(np.isfinite(z))
        assert abs(u.mean() - 0.5) < 0.02
        npt.assert_allclose(z.mean(axis=0), 0.0, atol=0.06)
        npt.assert_allclose(np.cov(z.T), np.eye(3), atol=0.08)

    def test_empty_parts(self):
        u, z = seeded_draws(5, 7, 0, 2)
        assert u.shape == (7, 0) and z.shape == (7, 2)
        npt.assert_array_equal(z, seeded_draws(5, 7, 0, 2)[1])

    def test_negative_seed_refused(self):
        # Random(-s) would repeat the stream of s
        with pytest.raises(ValueError, match="seed must be >= 0"):
            seeded_draws(-1, 2, 1, 1)


class TestKernelFiltration:
    def test_jordan_block(self):
        # ker N^k of a nilpotent Jordan block in a random basis has dimension k
        rng = np.random.default_rng(5)
        P = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        N = np.linalg.solve(P, np.diag(np.ones(4), -1) @ P)
        kernels = kernel_filtration(N)
        assert [K.shape[1] for K in kernels] == [1, 2, 3, 4, 5]
        for k, K in enumerate(kernels, start=1):
            assert np.linalg.norm(np.linalg.matrix_power(N, k) @ K) <= 1e-10

    def test_stops_where_the_kernel_stops_growing(self):
        assert [K.shape[1] for K in kernel_filtration(np.diag([0.0, 1.0, 2.0]))] == [1]
        assert [K.shape[1] for K in kernel_filtration(np.eye(3))] == [0]


class TestRankTol:
    def test_zero(self):
        assert rank_tol(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_tol(np.eye(3)) == 3

    def test_rank_one(self):
        assert rank_tol(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


class TestDilationAlgebra:
    def test_rejects_noncommuting(self):
        with pytest.raises(NonCommuting):
            DilationAlgebra([E(2, 1), E(3, 2)])

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            DilationAlgebra([np.eye(3), 2 * np.eye(3)])

    def test_generators_frozen(self, golden_families):
        G = golden_families["d"].generators[0]
        with pytest.raises(ValueError):
            G[0, 0] = 5.0
