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
    null_space,
    numerical_rank,
    orth_columns,
    rank_tol,
    roots_decompose,
    seeded_draws,
)

from conftest import family_3000, near_scalar_jordan3, series_exp


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

    @pytest.mark.parametrize("eps", [1e-9, 1.5e-9, 2e-9, 3e-9, 5e-9])
    def test_small_jordan_block_above_the_floor(self, eps):
        # A - mu is a few 1e-9 of A: its rounding must not count as a singular
        # value, so the 3-block reads as at eps = 5e-10 (below) and 1e-8 (above)
        rd = roots_decompose(DilationAlgebra([near_scalar_jordan3(eps)]))
        assert [b.shape[1] for b in rd.blocks] == [3] and rd.semisimple

    def test_3000_family(self):
        # the ROADMAP's 3000-family: block dimensions are the drawn sizes or
        # IllConditioned is raised, and only on the seven known d = 1 draws
        # with a Jordan block of size >= 4
        known = {179, 240, 568, 999, 1707, 2132, 2479}
        raised, wrong = set(), []
        for seed in range(3000):
            sizes, gens = family_3000(seed)
            try:
                rd = roots_decompose(DilationAlgebra(gens))
            except IllConditioned:
                raised.add(seed)
                continue
            if sorted(b.shape[1] for b in rd.blocks) != sorted(sizes):
                wrong.append(seed)
        assert wrong == [] and raised <= known, (wrong, sorted(raised - known))

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
        # the roots (1, 0, 0) and (1, 0, 0) + v differ by v orthogonal to both
        # combinations tried, _ROOT_DRAWS[:3] and _ROOT_DRAWS[::-1][:3], so
        # each has one double eigenvalue whose eigenspace holds two joint
        # roots; every largest entry is 1, so balancing keeps the orthogonality
        draws = linalg._ROOT_DRAWS
        v = np.cross(draws[:3], draws[::-1][:3])
        v = 0.5 * v / np.max(np.abs(v))
        roots = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0] + v, [0.0, 1.0, -1.0]])
        alg = DilationAlgebra([np.diag(roots[:, j]) for j in range(3)])
        for w in (draws[:3], draws[::-1][:3]):
            combo = np.diag(alg.element(w))
            npt.assert_allclose(combo[0], combo[1], rtol=1e-15)
        with pytest.raises(IllConditioned):
            roots_decompose(alg)

    def test_second_combination(self):
        # the roots (0, 1) and (1.3158..., -0.1305...) differ by a vector
        # orthogonal to _ROOT_DRAWS[:2]: that combination has one double
        # eigenvalue holding two joint roots, and the reversed draws separate them
        alg = DilationAlgebra([np.diag([0.0, 1.315808323692046]),
                               np.diag([1.0, -0.1305643663071248])])
        npt.assert_allclose(np.diag(alg.element(linalg._ROOT_DRAWS[:2])), -1.315808323692046,
                            rtol=1e-15)
        rd = roots_decompose(alg)
        got = sorted(tuple(r.real) for r in rd.roots)
        npt.assert_allclose(got, [(0.0, 1.0), (1.315808323692046, -0.1305643663071248)],
                            atol=1e-15)

    def test_root_draws_are_the_seeded_normals(self):
        # a d-generator family uses _ROOT_DRAWS[:d], the first d values of a
        # default_rng(_ROOT_SEED) stream
        npt.assert_array_equal(
            linalg._ROOT_DRAWS,
            np.random.default_rng(linalg._ROOT_SEED).standard_normal(MAX_DIM))


# the six commutative subalgebras of gl(3) of the census, each with the
# indices of its nilpotent basis elements
_J3 = E(2, 1) + E(3, 2)
CENSUS_SHAPES = {
    "diagonal": ([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])], ()),
    "diag+J2": ([np.diag([1.0, 1, 0]), np.diag([0, 0, 1.0]), E(2, 1)], (2,)),
    "poly(J3)": ([np.eye(3), _J3, _J3 @ _J3], (1, 2)),
    "rot+axis": ([np.diag([1.0, 1, 0]), E(2, 1) - E(1, 2), np.diag([0, 0, 1.0])], ()),
    "sqzero": ([np.eye(3), E(2, 1), E(3, 1)], (1, 2)),
    "sqzero_t": ([np.eye(3), E(1, 2), E(1, 3)], (1, 2)),
}


def _integer_census_draws(shape, count=24):
    """(alg, C) for integer coefficient draws C on one census shape,
    unconjugated; dependent draws are skipped."""
    basis, _ = CENSUS_SHAPES[shape]
    rng = np.random.default_rng(46)
    for _ in range(count):
        C = rng.integers(-2, 3, (int(rng.integers(2, 4)), 3)).astype(float)
        try:
            alg = DilationAlgebra([sum(c * B for c, B in zip(row, basis)) for row in C])
        except ValueError:
            continue
        yield alg, C


class TestJordanChevalleyRecord:
    @pytest.mark.parametrize("shape", CENSUS_SHAPES)
    def test_semisimple_is_the_exact_truth(self, shape):
        # semisimple iff C has zero columns on the nilpotent basis elements
        nilpotent = list(CENSUS_SHAPES[shape][1])
        draws = list(_integer_census_draws(shape))
        assert draws
        for alg, C in draws:
            assert roots_decompose(alg).semisimple == (not C[:, nilpotent].any()), C

    def test_complex_jordan_block_is_not_semisimple(self):
        R = np.array([[0.5, -2.0], [2.0, 0.5]])
        A = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        rd = roots_decompose(DilationAlgebra([A]))
        assert rd.p == 1 and not rd.is_real(0)
        assert not rd.semisimple

    @pytest.mark.parametrize("shape", ["diagonal", "diag+J2", "rot+axis"])
    def test_eigenspaces_carry_the_roots(self, shape):
        # on a semisimple family every balanced generator maps each kept
        # root's complex eigenspace B to lambda_j B, and every nilpotent part
        # is at rounding level (the other shapes draw no semisimple family)
        decomposed = [(alg, roots_decompose(alg)) for alg, _ in _integer_census_draws(shape)]
        semisimple = [(alg, rd) for alg, rd in decomposed if rd.semisimple]
        assert semisimple
        for alg, rd in semisimple:
            assert rd.nilpotent.shape == (rd.p, alg.d)
            assert np.all(rd.nilpotent <= 1e-12 * alg.scale())
            for lam, B, V in zip(rd.balanced_roots, rd.eigenspaces, rd.blocks):
                assert V.shape[1] == B.shape[1] * (1 if not np.any(lam.imag) else 2)
                for X, lam_j in zip(alg.balanced, lam):
                    npt.assert_allclose(X @ B, lam_j * B, rtol=1e-12, atol=1e-12 * alg.scale())

    def test_zero_root(self):
        # the first root that vanishes on every generator, within tol * scale
        rd = roots_decompose(DilationAlgebra([np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0])]))
        assert rd.zero_root is not None
        npt.assert_array_equal(rd.roots[rd.zero_root], [0.0, 0.0])
        assert roots_decompose(family_e()).zero_root is None


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
        kernels = kernel_filtration(N, np.linalg.norm(N))
        assert [K.shape[1] for K in kernels] == [1, 2, 3, 4, 5]
        for k, K in enumerate(kernels, start=1):
            assert np.linalg.norm(np.linalg.matrix_power(N, k) @ K) <= 1e-10

    def test_stops_where_the_kernel_stops_growing(self):
        assert [K.shape[1] for K in kernel_filtration(np.diag([0.0, 1.0, 2.0]), 1.0)] == [1]
        assert [K.shape[1] for K in kernel_filtration(np.eye(3), 1.0)] == [0]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_below_the_floor_is_the_whole_space(self, dtype):
        # M = 0, and an M whose norm is below SHIFT_ZERO_TOL * ref: rounding of
        # its source, so the kernel is everything, as the identity in M's dtype
        M = 0.9 * linalg.SHIFT_ZERO_TOL * (E(2, 1) + E(3, 2)) / np.sqrt(2.0)
        for A in (np.zeros((3, 3), dtype), M.astype(dtype)):
            (K,) = kernel_filtration(A, 1.0)
            assert K.dtype == np.dtype(dtype)
            npt.assert_array_equal(K, np.eye(3))

    def test_just_above_the_floor_is_a_jordan_block(self):
        # eps J3 in a random basis, with ref 1 and both nonzero singular values
        # twice SHIFT_ZERO_TOL: its rounding sits far below the floor, so its
        # kernels are those of J3, not of noise
        P = np.random.default_rng(3).standard_normal((3, 3)) + 3.0 * np.eye(3)
        N = np.linalg.solve(P, (E(2, 1) + E(3, 2)) @ P)
        M = 2.0 * linalg.SHIFT_ZERO_TOL * N / np.linalg.svd(N, compute_uv=False)[1]
        assert [K.shape[1] for K in kernel_filtration(M, 1.0)] == [1, 2, 3]

    def test_invertible_has_one_empty_basis(self):
        P = np.random.default_rng(3).standard_normal((3, 3)) + 3.0 * np.eye(3)
        kernels = kernel_filtration(np.linalg.solve(P, np.diag([1.0, 2.0, 3.0]) @ P), 1.0)
        assert [K.shape for K in kernels] == [(3, 0)]


class TestRankTol:
    def test_zero(self):
        assert rank_tol(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_tol(np.eye(3)) == 3

    def test_rank_one(self):
        assert rank_tol(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


# The rank rule as its five callers wrote it before numerical_rank, kept as
# the reference that the one helper must reproduce bit for bit.
def _former_rank_tol(M, tol):
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _former_null_space(M, tol, scale=None):
    u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(M)))
    ref = scale if scale is not None else (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol * ref)) if ref > 0 else 0
    return vh[r:].conj().T


def _former_orth_columns(M, tol):
    u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(M)), full_matrices=False)
    top = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * top)) if top > 0 else 0
    return u[:, :r]


def _former_orbit_dims(s, tol):
    top = s[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(s > tol * top, axis=1), 0)


def _former_bases(LA, tol):
    from itertools import combinations

    null = _former_null_space(LA, tol)
    subsets = np.array(list(combinations(range(LA.shape[0]), LA.shape[1] - null.shape[1])),
                       dtype=int)
    if subsets.shape[1]:
        s = np.linalg.svd(LA[subsets], compute_uv=False)
        subsets = subsets[s[:, -1] > tol * s[:, 0]]
    return subsets, np.linalg.pinv(LA[subsets]), null


def _rank_rule_matrices():
    """Random, rank-deficient, all-zero and empty matrices, each also scaled
    by 10^300 and 10^-300."""
    rng = np.random.default_rng(48)
    mats = [np.zeros((3, 3)), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 4))]
    for m, k in ((3, 3), (4, 2), (2, 5), (6, 6), (1, 3)):
        mats.append(rng.standard_normal((m, k)))
        for r in range(1, min(m, k)):
            mats.append(rng.standard_normal((m, r)) @ rng.standard_normal((r, k)))
    mats.append(np.diag([1.0, 1e-8, 1e-10, 0.0]))
    return [c * M for M in mats for c in (1.0, 1e300, 1e-300)]


class TestOneRankRule:
    TOLS = (1e-9, 1e-8, 1e-10, 0.5)

    def test_helper_is_the_former_rule(self):
        for M in _rank_rule_matrices():
            s = np.linalg.svd(np.atleast_2d(M), compute_uv=False)
            for tol in self.TOLS:
                assert numerical_rank(s, tol) == _former_rank_tol(M, tol)
                for scale in (1.0, 1e-300, 0.0):
                    ref = _former_null_space(M, tol, scale)
                    assert numerical_rank(s, tol, scale) == M.shape[1] - ref.shape[1]

    def test_callers_are_the_former_rules(self):
        for M in _rank_rule_matrices():
            for tol in self.TOLS:
                assert rank_tol(M, tol) == _former_rank_tol(M, tol)
                npt.assert_array_equal(orth_columns(M, tol), _former_orth_columns(M, tol))
                for scale in (None, 1.0, 1e-300):
                    npt.assert_array_equal(null_space(M, tol, scale),
                                           _former_null_space(M, tol, scale))

    def test_stacks_with_a_zero_row(self):
        rng = np.random.default_rng(7)
        for c in (1.0, 1e300, 1e-300):
            s = np.linalg.svd(c * rng.standard_normal((5, 4, 3)), compute_uv=False)
            s[2] = 0.0
            s[3, 1:] = 0.0
            got = numerical_rank(s, 1e-9)
            npt.assert_array_equal(got, _former_orbit_dims(s, 1e-9))
            assert got.tolist() == [3, 3, 0, 1, 3]
            # null_space's former absolute cut, row by row
            npt.assert_array_equal(numerical_rank(s, 1e-9, scale=c),
                                   [int(np.sum(row > 1e-9 * c)) for row in s])
        assert numerical_rank(np.zeros((0, 3)), 1e-9).shape == (0,)

    def test_orbit_dims_is_the_former_rule(self):
        from orbitscope import orbits

        rng = np.random.default_rng(11)
        for alg in (family_a(), family_e()):
            pts = np.vstack([np.zeros(3), np.eye(3), rng.standard_normal((20, 3))])
            for c in (1.0, 1e300, 1e-300):
                stack = np.einsum("jab,ma->mbj", np.stack(alg.balanced), c * pts)
                s = np.linalg.svd(stack, compute_uv=False)
                npt.assert_array_equal(orbits.orbit_dims(alg, c * pts),
                                       _former_orbit_dims(s, alg.tol))

    def test_polyhedral_bases_are_the_former_rule(self):
        from orbitscope import quasisection

        rng = np.random.default_rng(5)
        systems = [np.vstack([M, -M]) for M in (
            rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
            rng.standard_normal((3, 1)) @ rng.standard_normal((1, 2)),
            np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1e-12]]))]
        for L in systems:
            for c in (1.0, 1e300, 1e-300):
                for got, ref in zip(quasisection._bases(c * L),
                                    _former_bases(c * L, linalg.POLY_RANK_TOL)):
                    npt.assert_array_equal(got, ref)


class TestDilationAlgebra:
    def test_rejects_noncommuting(self):
        with pytest.raises(NonCommuting):
            DilationAlgebra([E(2, 1), E(3, 2)])

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            DilationAlgebra([np.eye(3), 2 * np.eye(3)])

    @pytest.mark.parametrize("c", [1e-9, 1e-12, 1e12])
    def test_accepts_any_relative_scale(self, c):
        # [A, cX] spans the group of [A, X]: each generator is divided by the
        # 2^e of its own largest entry, exactly, before the checks
        alg = DilationAlgebra([np.diag([1.0, 1.0, 0.0]), c * E(2, 1)])
        npt.assert_array_equal(alg.generators[1], c * E(2, 1))
        for G, B, e in zip(alg.generators, alg.balanced, alg.exponents):
            npt.assert_array_equal(np.ldexp(B, e), G)
            assert 0.5 <= np.max(np.abs(B)) < 1.0

    def test_rejects_nearly_dependent_as_written(self):
        # [A, A + 1e-12 X] also spans the group of [A, X], but the basis as
        # written is nearly dependent, whatever each generator's scale
        A, X = np.diag([1.0, 1.0, 0.0]), E(2, 1)
        with pytest.raises(ValueError, match="as written are nearly linearly dependent"):
            DilationAlgebra([A, A + 1e-12 * X])

    def test_generators_frozen(self, golden_families):
        G = golden_families["d"].generators[0]
        with pytest.raises(ValueError):
            G[0, 0] = 5.0
