import warnings

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope import orbits
from orbitscope.families import E, case0, family_b, family_c, family_d, family_e
from orbitscope.linalg import DilationAlgebra, mat_exp, null_space, rank_tol
from orbitscope.orbits import (
    generic_orbit_dim,
    is_admissible,
    orbit_dim,
    orbit_dims,
    stratify,
)

from conftest import conjugated, tangent_matrix


def fd_orbit_rank(alg, xi, h=1e-5, ambiguous_band=(1e-7, 1e-3)):
    """Finite-difference rank of t -> h_t^{-T} xi; None when a singular
    value sits in the ambiguous band (tol-flagged boundary)."""
    cols = []
    for j in range(alg.d):
        e = np.zeros(alg.d)
        e[j] = h
        cols.append((mat_exp(-alg.element(e).T) @ xi - mat_exp(-alg.element(-e).T) @ xi)
                    / (2 * h))
    J = np.column_stack(cols)
    s = np.linalg.svd(J, compute_uv=False)
    top = max(s[0], 1.0)
    if any(ambiguous_band[0] < sv / top < ambiguous_band[1] for sv in s):
        return None
    return int(np.sum(s / top >= ambiguous_band[1]))


class TestDualAct:
    def test_identity_fixes(self):
        alg = family_d()
        xi = np.array([1.0, -2.0, 3.0])
        npt.assert_allclose(mat_exp(-alg.element(np.zeros(3)).T) @ xi, xi, atol=1e-14)

    def test_diagonal_closed_form(self):
        alpha, s = 0.6, 1.1
        alg = DilationAlgebra([np.diag([1.0, 0.0, alpha])])
        xi = np.array([2.0, -1.0, 0.5])
        expected = np.array([np.exp(-s) * 2.0, -1.0, np.exp(-alpha * s) * 0.5])
        npt.assert_allclose(mat_exp(-alg.element([s]).T) @ xi, expected, rtol=1e-12)

    def test_matches_exp_invert_transpose_oracle(self):
        rng = np.random.default_rng(1)
        alg = family_b(1.0, -1.0)
        for _ in range(50):
            t = rng.uniform(-2, 2, 2)
            xi = rng.standard_normal(3)
            h = mat_exp(alg.element(t))
            oracle = np.linalg.inv(h).T @ xi
            npt.assert_allclose(mat_exp(-alg.element(t).T) @ xi, oracle, atol=1e-10)

    def test_action_property(self):
        rng = np.random.default_rng(2)
        alg = family_d()
        for _ in range(20):
            t1, t2 = rng.uniform(-1, 1, (2, 3))
            xi = rng.standard_normal(3)
            lhs = mat_exp(-alg.element(t1 + t2).T) @ xi
            rhs = mat_exp(-alg.element(t1).T) @ (mat_exp(-alg.element(t2).T) @ xi)
            npt.assert_allclose(lhs, rhs, atol=1e-9)

    def test_group_element_caches_consistent(self):
        # exp(-Z^T) is the transpose-inverse of h = exp(Z)
        Z = family_d().element([0.3, -0.7, 1.1])
        h = mat_exp(Z)
        npt.assert_allclose(h @ mat_exp(-Z), np.eye(3), atol=1e-12)
        npt.assert_allclose(mat_exp(-Z.T), np.linalg.inv(h).T, atol=1e-12)


class TestOrbitDim:
    def test_origin_fixed(self, golden_families):
        for alg in golden_families.values():
            assert orbit_dim(alg, np.zeros(alg.n)) == 0

    def test_case_e_generic(self):
        assert orbit_dim(family_e(), [1.0, 1.0, 1.0]) == 3

    def test_case_b_axis_point(self):
        assert orbit_dim(family_b(1.0, 1.0), [1.0, 0.0, 0.0]) == 1

    def test_matches_finite_difference(self, golden_families):
        rng = np.random.default_rng(3)
        checked = 0
        for alg in golden_families.values():
            for _ in range(20):
                xi = rng.standard_normal(alg.n)
                fd = fd_orbit_rank(alg, xi)
                if fd is None:
                    continue
                assert orbit_dim(alg, xi) == fd
                checked += 1
        assert checked > 100


class TestStabilizerAndCoadjoint:
    # the stabilizer algebra at xi is the null space of the tangent map
    # X -> X^T xi, so its dimension is d - orbit_dim

    def test_origin(self, golden_families):
        for alg in golden_families.values():
            xi = np.zeros(alg.n)
            assert null_space(tangent_matrix(alg, xi)).shape[1] == alg.d
            assert orbit_dim(alg, xi) == 0

    def test_free_point_case_b(self):
        alg = family_b(1.0, 1.0)
        assert null_space(tangent_matrix(alg, [1.0, 1.0, 1.0])).shape[1] == 0
        assert orbit_dim(alg, [1.0, 1.0, 1.0]) == alg.d

    def test_rank_nullity_and_doubling(self, golden_families):
        rng = np.random.default_rng(4)
        for alg in golden_families.values():
            for _ in range(25):
                xi = rng.standard_normal(alg.n)
                stab = null_space(tangent_matrix(alg, xi), tol=alg.tol).shape[1]
                assert orbit_dim(alg, xi) + stab == alg.d

    def test_orbit_dim_invariance_under_action(self, golden_families):
        # 1000 random (g, xi) pairs across the families
        rng = np.random.default_rng(5)
        for alg in golden_families.values():
            for _ in range(80):
                xi = rng.standard_normal(alg.n)
                moved = mat_exp(-alg.element(rng.uniform(-1.5, 1.5, alg.d)).T) @ xi
                assert orbit_dim(alg, moved) == orbit_dim(alg, xi)


def diagonal_group(n):
    return DilationAlgebra([np.diag(row) for row in np.eye(n)])


def square_zero_6d():
    """span{I, E21, ..., E61} on R^6: generic orbit dimension 2."""
    return DilationAlgebra([np.eye(6)] + [E(i, 1, 6) for i in range(2, 7)])


def transposed(alg):
    return DilationAlgebra([G.T for G in alg.generators], tol=alg.tol)


def sampled_d_max(alg, count=4000, seed=1):
    """The largest orbit dimension over count 3 N(0, I) samples: the sampled
    rule that set stratify's d_max before the grid lemma decided it."""
    pts = 3.0 * np.random.default_rng(seed).standard_normal((count, alg.n))
    return int(orbit_dims(alg, pts).max())


SCALES = [2.0 ** 3, 2.0 ** -3, *(10.0 ** (sign * e) for e in (6, 12, 100, 200)
                                 for sign in (1, -1))]


class TestAdmissibility:
    def test_case_e_admissible(self):
        v = is_admissible(family_e())
        assert v.status == "admissible"

    def test_traceless_not_admissible(self):
        v = is_admissible(DilationAlgebra([np.diag([1.0, -1.0])]))
        assert v.status == "not_admissible"
        assert any("det" in r for r in v.reasons)

    def test_rotation_violates_hypotheses(self, golden_families):
        v = is_admissible(golden_families["case3b"])
        assert v.status == "hypotheses_violated"

    def test_ae_freeness_fraction(self):
        # admissible positive-spectrum families: top stratum fraction > 0.99
        rng = np.random.default_rng(6)
        for alg in (family_b(1.0, 1.0), family_d(), family_e()):
            hits = sum(orbit_dim(alg, rng.standard_normal(alg.n)) == alg.d
                       for _ in range(1000))
            assert hits / 1000 > 0.99

    def test_does_not_depend_on_the_basis(self, golden_families):
        for name in ("b11", "c", "d", "e", "case1a"):
            alg = golden_families[name]
            statuses = {is_admissible(conjugated(
                alg, np.random.default_rng(s).standard_normal((3, 3)) + 3.0 * np.eye(3))).status
                for s in range(10)}
            assert statuses == {is_admissible(alg).status}, name

    # decided on the balanced generators, so no scale of the generators
    # moves the verdict or raises
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("alg, expected", [
        (family_b(1.0, 1.0), "admissible"), (family_d(), "admissible"),
        (family_e(), "admissible"), (DilationAlgebra([np.diag([1.0, -1.0])]), "not_admissible"),
    ], ids=["b11", "d", "e", "traceless"])
    def test_verdict_at_every_scale(self, alg, expected, scale):
        scaled = DilationAlgebra([scale * G for G in alg.generators], tol=alg.tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_admissible(scaled).status == expected


class TestGenericOrbitDim:
    @pytest.mark.parametrize("name", ["a", "b11", "b1m1", "b10", "c", "d", "e", "case0",
                                      "case1a", "case1b", "case1c", "case2", "case3b"])
    def test_matches_sampling(self, golden_families, name):
        # the family, its transpose and three conjugates by randn + 3I
        alg = golden_families[name]
        variants = [alg, transposed(alg)] + [
            conjugated(alg, np.random.default_rng(s).standard_normal((3, 3)) + 3.0 * np.eye(3))
            for s in range(3)]
        for var in variants:
            assert generic_orbit_dim(var) == sampled_d_max(var)

    @pytest.mark.parametrize("alg, expected", [
        (family_c(), 2), (transposed(family_c()), 3),
        (diagonal_group(4), 4), (diagonal_group(6), 6),
    ], ids=["c", "c-transposed", "diagonal-4", "diagonal-6"])
    def test_pinned_values(self, alg, expected):
        assert generic_orbit_dim(alg) == expected == sampled_d_max(alg)

    def test_square_zero_6d_steps_the_grid(self, monkeypatch):
        # rank 2 on {1, 2}^6 (64 points), certified on {1, ..., 4}^6 (4096),
        # not the 7^6 = 117649 points of the one-shot grid
        evaluated = []
        batched = orbits.orbit_dims
        monkeypatch.setattr(orbits, "orbit_dims",
                            lambda alg, pts: evaluated.append(len(pts)) or batched(alg, pts))
        alg = square_zero_6d()
        assert generic_orbit_dim(alg) == 2
        assert sum(evaluated) <= 4160
        monkeypatch.undo()
        assert sampled_d_max(alg) == 2

    @pytest.mark.parametrize("name", ["a", "c", "d", "e", "case0", "case2"])
    def test_stratify_d_max_does_not_depend_on_the_seed(self, golden_families, name):
        alg = golden_families[name]
        assert {stratify(alg, 64, seed).d_max for seed in range(10)} == {generic_orbit_dim(alg)}


class TestStratify:
    def test_case_d_census(self):
        rep = stratify(family_d(), 256, 11)
        assert rep.d_max == 3
        # the plane killing the nilpotent column drops the dimension
        assert orbit_dim(family_d(), [1.0, 0.0, 1.0]) < 3

    def test_nilpotent_case0_capped(self):
        rep = stratify(case0(), 256, 12)
        assert rep.d_max <= 2
        assert rep.dims.shape == (256,) and np.all(rep.dims <= 2)

    def test_scalar_family(self):
        rep = stratify(DilationAlgebra([np.eye(2)]), 128, 13)
        assert set(rep.census) == {1}

    def test_report_json_shape(self):
        rep = stratify(family_e(), 64, 14)
        assert rep.probes.shape == (64, 3)
        doc = rep.to_json()
        assert doc["group_dim"] == 3 and doc["top_stratum_conull"] is True
        assert sum(doc["census"].values()) == 64


class TestBatchedCensus:
    @staticmethod
    def points_with_lower_strata(rng):
        """The zero vector, scaled coordinate axes, points on the coordinate
        planes and a generic cloud."""
        axes = np.vstack([np.eye(3), -2.5 * np.eye(3)])
        planes = rng.standard_normal((12, 3))
        planes[np.arange(12), np.arange(12) % 3] = 0.0
        return np.vstack([np.zeros((1, 3)), axes, planes, rng.standard_normal((64, 3))])

    @pytest.mark.parametrize("name", ["a", "b11", "c", "d", "e", "case0", "case1b", "case2"])
    def test_matches_per_point_rank(self, golden_families, name):
        alg = golden_families[name]
        pts = self.points_with_lower_strata(np.random.default_rng(21))
        loop = [rank_tol(tangent_matrix(alg, xi), alg.tol) for xi in pts]
        batched = orbit_dims(alg, pts)
        assert batched.tolist() == loop
        assert loop[0] == 0
        assert min(loop[1:]) < alg.d  # lower strata are exercised

    def test_empty_batch(self):
        assert orbit_dims(family_d(), np.zeros((0, 3))).shape == (0,)
