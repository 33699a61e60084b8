from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope import families as F
from orbitscope.errors import (
    CoverageUnverified,
    DomainError,
    InfeasibleSystem,
    NotDiagonalizableFamily,
    QuasiSectionRefused,
    UnclassifiedFamily,
)
from orbitscope.families import E, case3b, family_a, family_b, family_e
from orbitscope.linalg import DilationAlgebra, mat_exp, roots_decompose
from orbitscope.orbits import generic_orbit_dim
from orbitscope.quasisection import (
    _point_system,
    _polyhedra,
    BoxSet,
    c_i_box,
    diagonal_action,
    is_relatively_compact,
    meeting_system,
    quasi_section_verdict,
    shell_box,
)
from orbitscope.wavelet import synth_wavelet

from conftest import conjugated


def geometric_meeting_test(action, C1, C2, t):
    """Direct test exp(t)^T C1 meets C2: per-block interval intersection of
    the scaled magnitude ranges (exact for box sets)."""
    factors = np.exp(action.weights @ np.asarray(t, dtype=float))
    for i in range(action.k):
        lo1, hi1 = C1.bounds[i]
        lo2, hi2 = C2.bounds[i]
        lo, hi = factors[i] * lo1, factors[i] * hi1
        if hi < lo2 or lo > hi2:
            return False
    return True


class TestMeetingSystem:
    def test_paper_reduction_case_b11(self):
        act = diagonal_action(family_b(1.0, 1.0))
        L, c = meeting_system(act, c_i_box(1, 2.0), c_i_box(2, 2.0))
        # exactly the displayed constraints: s >= -2ln2, t <= 2ln2, |s+t| <= 2ln2
        assert L.shape[0] == 4
        got = sorted((tuple(np.round(row, 9)), round(ci, 9))
                     for row, ci in zip(L, c))
        l2 = round(2 * np.log(2.0), 9)
        assert got == sorted([
            ((-1.0, -0.0), l2),
            ((0.0, 1.0), l2),
            ((1.0, 1.0), l2),
            ((-1.0, -1.0), l2),
        ])

    def test_scalar_full_shell_pair(self):
        act = diagonal_action(DilationAlgebra([np.eye(3)]))
        L, c = meeting_system(act, shell_box(2.0, 1), shell_box(2.0, 1))
        bounded, _ = is_relatively_compact(L, c)
        assert bounded
        assert np.all(L @ [2 * np.log(2.0)] <= c + 1e-9)
        assert not np.all(L @ [2.5 * np.log(2.0)] <= c + 1e-9)

    def test_membership_matches_geometric_oracle(self):
        rng = np.random.default_rng(20)
        agree = 0
        for _ in range(200):
            d = int(rng.integers(1, 3))
            k = int(rng.integers(d, 4))
            weights = np.round(rng.uniform(-2, 2, (k, d)), 3)
            gens = [np.diag(weights[:, j].repeat(1)) for j in range(d)]
            # build a diagonal algebra realizing these block weights
            diag_entries = weights  # k coordinates
            gens = [np.diag(diag_entries[:, j]) for j in range(d)]
            try:
                alg = DilationAlgebra(gens, tol=1e-9)
            except ValueError:
                continue
            act = diagonal_action(alg)
            boxes = []
            for _ in range(2):
                bounds = []
                for i in range(act.k):
                    hi = float(rng.uniform(1.5, 4.0))
                    lo = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.2, 1.0))
                    bounds.append((lo, hi))
                if all(b[0] == 0 for b in bounds):
                    bounds[0] = (0.5, bounds[0][1])
                boxes.append(BoxSet(bounds))
            L, c = meeting_system(act, *boxes)
            for _ in range(25):
                t = rng.uniform(-4, 4, act.d)
                margin = np.max(np.abs(L @ t - c)) if L.shape[0] else 1.0
                if L.shape[0] and np.min(np.abs(L @ t - c)) < 1e-3:
                    continue  # near-boundary excluded by construction
                member = bool(np.all(L @ t <= c + 1e-9))
                assert member == geometric_meeting_test(act, *boxes, t)
                agree += 1
        assert agree > 1000


class TestRelativeCompactness:
    def test_case_b11_unbounded_with_witness(self):
        act = diagonal_action(family_b(1.0, 1.0))
        L, c = meeting_system(act, c_i_box(1, 2.0), c_i_box(2, 2.0))
        bounded, u = is_relatively_compact(L, c)
        assert not bounded
        assert u is not None and np.linalg.norm(u) > 0
        assert np.max(L @ u) <= 1e-9  # witness verified by substitution

    def test_case_b1m1_unbounded_c2_c3(self):
        act = diagonal_action(family_b(1.0, -1.0))
        bounded, u = is_relatively_compact(*meeting_system(act, c_i_box(2, 2.0), c_i_box(3, 2.0)))
        assert not bounded
        npt.assert_allclose(u, [0.0, 1.0], atol=1e-9)

    def test_section_thickened_box_bounded(self):
        act = diagonal_action(family_b(1.0, 0.0))
        bounded, u = is_relatively_compact(*meeting_system(act, shell_box(2.0, act.k),
                                                           shell_box(2.0, act.k)))
        assert bounded and u is None

    def test_infeasible_reported_distinctly(self):
        act = diagonal_action(DilationAlgebra([np.diag([1.0, 1.0, 2.0])]))
        L, c = meeting_system(act, BoxSet([(1, 2), (1, 2)]), BoxSet([(8, 16), (0.01, 0.02)]))
        with pytest.raises(InfeasibleSystem):
            is_relatively_compact(L, c)

    def test_symmetry_of_pair_order(self):
        act = diagonal_action(family_b(1.0, 1.0))
        for pair in ((1, 2), (2, 3), (1, 3)):
            s_ab = meeting_system(act, c_i_box(pair[0], 2.0), c_i_box(pair[1], 2.0))
            s_ba = meeting_system(act, c_i_box(pair[1], 2.0), c_i_box(pair[0], 2.0))
            assert is_relatively_compact(*s_ab)[0] == is_relatively_compact(*s_ba)[0]

    def test_oracle_grid_probe_agreement(self):
        # boundedness agrees with brute-force probing on [-50, 50]^d
        rng = np.random.default_rng(21)
        cases = 0
        while cases < 200:
            d = 2
            k = int(rng.integers(2, 4))
            weights = np.round(rng.uniform(-1.5, 1.5, (k, d)), 2)
            gens = [np.diag(weights[:, j]) for j in range(d)]
            try:
                act = diagonal_action(DilationAlgebra(gens))
            except (ValueError, NotDiagonalizableFamily):
                continue
            bounds = []
            for i in range(k):
                lo = 0.0 if rng.random() < 0.35 else 0.5
                bounds.append((lo, 2.0))
            if all(b[0] == 0 for b in bounds):
                bounds[0] = (0.5, 2.0)
            C = BoxSet(bounds)
            L, c = meeting_system(act, C, C)
            try:
                bounded, _ = is_relatively_compact(L, c)
            except InfeasibleSystem:
                continue
            if bounded:
                # exclude near-boundary cases: bounded systems whose polyhedron
                # is wider than the probe window cannot be certified by it
                from orbitscope.wavelet import meeting_param_box

                box = meeting_param_box(act, C)
                if max(max(abs(lo), abs(hi)) for lo, hi in box) > 35:
                    continue
            axis = np.linspace(-50, 50, 41)
            tt = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            feas = (
                np.all(L @ tt.T <= c[:, None] + 1e-9, axis=0)
                if L.shape[0] else np.ones(tt.shape[0], dtype=bool)
            )
            hit_outside = bool(np.any(feas & (np.max(np.abs(tt), axis=1) > 40)))
            if hit_outside != (not bounded):
                raise AssertionError(f"oracle disagrees: weights {weights}")
            cases += 1


class TestQuasiSectionVerdict:
    def test_case_b11_union_probe_refuted(self):
        act = diagonal_action(family_b(1.0, 1.0))
        union = [c_i_box(i, 2.0) for i in (1, 2, 3)]
        v = quasi_section_verdict(act, union, orbit_space_compact=True)
        assert v.exists == "no"
        assert v.witness_direction is not None

    def test_case_a_shell_exists(self):
        act = diagonal_action(family_a(1.0))
        v = quasi_section_verdict(act, shell_box(2.0, act.k), orbit_space_compact=True)
        assert v.exists == "yes" and v.box_is_quasi_section

    def test_case_b10_thickened_section_exists(self):
        act = diagonal_action(family_b(1.0, 0.0))
        v = quasi_section_verdict(act, shell_box(2.0, act.k), orbit_space_compact=True)
        assert v.exists == "yes"

    def test_dichotomy_between_probe_boxes(self):
        # two valid probe boxes give the same verdict (Prop 2.5 dichotomy)
        act = diagonal_action(family_a(1.0))
        v1 = quasi_section_verdict(act, shell_box(2.0, act.k), orbit_space_compact=True)
        v2 = quasi_section_verdict(act, shell_box(3.5, act.k), orbit_space_compact=True)
        assert v1.exists == v2.exists == "yes"
        # and on the negative side, for two different union probes
        act11 = diagonal_action(family_b(1.0, 1.0))
        for rho in (2.0, 3.0):
            union = [c_i_box(i, rho) for i in (1, 2, 3)]
            v = quasi_section_verdict(act11, union, orbit_space_compact=True)
            assert v.exists == "no"

    def test_coverage_failure_reported(self):
        act = diagonal_action(family_b(1.0, 1.0))
        with pytest.raises(CoverageUnverified):
            quasi_section_verdict(act, c_i_box(1, 2.0), orbit_space_compact=True)

    def test_noncompact_family_cannot_be_covered(self):
        # for (-1,-1) the product of block magnitudes is invariant, so no
        # bounded box union can absorb a point with product 125 > 8: coverage
        # fails, consistently with the classifier's compact = no verdict
        act = diagonal_action(family_b(-1.0, -1.0))
        union = [c_i_box(i, 2.0) for i in (1, 2, 3)]
        big = np.array([5.0, 5.0, 5.0])
        r = act.block_abs(big[None])
        assert not any(_polyhedra(*_point_system(act, box, r))[0][0] for box in union)
        # the compact (1,1) family absorbs the same point
        act11 = diagonal_action(family_b(1.0, 1.0))
        r11 = act11.block_abs(big[None])
        assert any(_polyhedra(*_point_system(act11, box, r11))[0][0] for box in union)

    def test_nondiagonalizable_family_rejected(self):
        with pytest.raises(NotDiagonalizableFamily):
            diagonal_action(DilationAlgebra([np.eye(3) + E(2, 1), E(3, 1)]))


# Brute-force oracle for meeting sets, one matrix exponential per grid node;
# the package answers the same questions exactly (meeting_system and
# is_relatively_compact).
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


def _inside(box, r):
    """Which rows of the block magnitudes r lie in the box."""
    lo, hi = np.array(box.bounds).T
    return np.all((r >= lo) & (r <= hi), axis=1)


def meeting_probe(alg: DilationAlgebra, first_points, second_contains,
                  probe_box=None, per_axis: int = 21,
                  margin: float = 0.8) -> NumericalMeetingProbe:
    """Brute-force probe of ((Y, Z)) = {h : h^T Y meets Z} for any family.

    `first_points` is a finite sample of Y, `second_contains` a membership
    callable for Z.  Parameters are scanned on a grid over `probe_box`
    (default [-6, 6]^d); a hit outside the margin window certifies
    non-compactness, anything else is a numerical-only boundedness verdict.
    """
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


class TestMeetingProbe:
    def test_numerical_oracle_matches_exact_on_diagonal_family(self):
        alg = family_b(1.0, 1.0)
        act = diagonal_action(alg)
        C1, C2 = c_i_box(1, 2.0), c_i_box(2, 2.0)
        rng = np.random.default_rng(30)
        pts = []
        while len(pts) < 200:
            p = rng.uniform(-2, 2, 3)
            if _inside(C1, act.block_abs(p.reshape(1, -1)))[0]:
                pts.append(p)
        probe = meeting_probe(
            alg, np.array(pts),
            lambda q: _inside(C2, act.block_abs(q)),
            per_axis=25,
        )
        # exact route says unbounded; the sampling route must find escape hits
        assert not probe.bounded_numerical
        assert probe.witness is not None
        assert probe.to_json()["verdict_quality"] == "numerical"
        # same boxes through the exact kernel: same verdict, and every hit of
        # the probe lies in the exact meeting set
        L, c = meeting_system(act, C1, C2)
        assert is_relatively_compact(L, c)[0] == probe.bounded_numerical
        assert np.all(L @ probe.hits.T <= c[:, None] + 1e-9)

    def test_probe_applies_to_nondiagonalizable_family(self):
        # triangular-with-nilpotent family: only the sampling oracle applies
        alg = DilationAlgebra([np.diag([1.0, 1.0, 0.0]) + E(2, 1),
                               np.diag([0.0, 0.0, 1.0])])
        ball = np.array([[1.0, 0.5, 1.0], [0.8, -0.4, 1.2], [1.1, 0.2, 0.9]])

        def contains(q):
            return np.linalg.norm(q - np.array([1.0, 0.0, 1.0]), axis=1) < 0.5

        probe = meeting_probe(alg, ball, contains, per_axis=13)
        assert probe.hits.shape[0] > 0
        assert isinstance(probe.bounded_numerical, bool)


class TestNormalizeInto:
    def test_roundtrip(self):
        act = diagonal_action(family_a(1.0))
        C = shell_box(2.0, act.k)
        rng = np.random.default_rng(22)
        xis = rng.standard_normal((50, 3))
        xis = xis[np.min(act.block_abs(xis), axis=1) >= 1e-3]
        nonempty, ts, _, _ = _polyhedra(*_point_system(act, C, act.block_abs(xis)))
        assert nonempty.all()
        for xi, t in zip(xis, ts):
            moved = mat_exp(act.alg.element(t)).T @ xi
            r = act.block_abs(moved.reshape(1, -1))[0]
            for (lo, hi), val in zip(C.bounds, r):
                assert lo - 1e-9 <= val <= hi + 1e-9


def _random_basis(alg, seed):
    """alg conjugated by randn + 3I."""
    n = alg.n
    return conjugated(alg, np.random.default_rng(seed).standard_normal((n, n)) + 3 * np.eye(n))


def _two_planes_and_a_line():
    """n = 5, d = 3: two rotation-scaling blocks and one real block."""
    rng = np.random.default_rng(57)
    gens = []
    for _ in range(3):
        G = np.zeros((5, 5))
        for i in (0, 2):
            a, b = rng.standard_normal(2)
            G[i:i + 2, i:i + 2] = [[a, -b], [b, a]]
        G[4, 4] = rng.standard_normal()
        gens.append(G)
    return DilationAlgebra(gens)


def _complex_scalars_on_c2():
    """n = 4, d = 2: C* acting on C^2, [I, J + J] with J = [[0, -1], [1, 0]];
    its one complex root has a 4-dimensional block."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    return DilationAlgebra([np.eye(4), np.kron(np.eye(2), J)])


BLOCK_FAMILIES = {
    "dilation_1d": (DilationAlgebra([np.array([[1.0]])]), 1e-12),
    "rotation_scaling_2d": (DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])]), 1e-12),
    "family_a": (family_a(1.0), 1e-12),
    "family_e": (family_e(), 1e-12),
    # random bases: the block coordinates carry the conditioning of P
    "family_a_random_basis": (_random_basis(family_a(1.0), 5), 1e-9),
    "two_planes_and_a_line_random_basis": (_random_basis(_two_planes_and_a_line(), 6), 1e-9),
    "complex_scalars_on_c2_random_basis": (_random_basis(_complex_scalars_on_c2(), 7), 1e-9),
}


class TestBlockMagnitudeScaling:
    @pytest.mark.parametrize("alg, rtol", BLOCK_FAMILIES.values(), ids=BLOCK_FAMILIES)
    def test_transform_scales_block_magnitudes(self, alg, rtol):
        # the identity the wavelet layer evaluates on instead of n x n transforms
        act = diagonal_action(alg)
        rng = np.random.default_rng(31)
        ts = rng.uniform(-2.0, 2.0, (40, act.d))
        xis = rng.standard_normal((40, alg.n))
        for t, xi in zip(ts, xis):
            moved = mat_exp(act.alg.element(t)).T @ xi
            npt.assert_allclose(act.block_abs(moved),
                                act.block_abs(xi) * np.exp(act.weights @ t),
                                rtol=rtol)

    def test_block_norms_do_not_over_or_underflow(self):
        # one square of 1e160 overflows and one of 1e-200 underflows to 0,
        # and 1e-160's square is subnormal: row_norms returns each exactly
        act = diagonal_action(BLOCK_FAMILIES["dilation_1d"][0])
        r = act.block_abs([[1e160], [1e-200], [-1e-160]])
        assert r[:, 0].tolist() == [1e160, 1e-200, 1e-160]

    @pytest.mark.parametrize("alg", [alg for alg, _ in BLOCK_FAMILIES.values()],
                             ids=BLOCK_FAMILIES)
    def test_weights_are_the_real_parts_of_the_roots(self, alg):
        # block i spans root block k (orthonormal columns V_k), and its weight
        # row is that root's real part, read off the decomposition as it is
        act = diagonal_action(alg)
        rd = roots_decompose(alg)
        assert act.k == rd.p
        for w, sl in zip(act.weights, act.slices):
            cols = act.basis[:, sl]
            k = min(range(rd.p), key=lambda k: np.linalg.norm(
                cols - rd.blocks[k] @ (rd.blocks[k].T @ cols)))
            assert np.array_equal(w, rd.roots[k].real)


def lp_answers(L, c):
    """Feasibility and bounding box of {t : L t <= c} from scipy's linprog,
    the reference oracle for the polyhedral kernel.  A side is unbounded when
    the recession cone {u : L u <= 0} reaches it within the unit cube."""
    from scipy.optimize import linprog

    d, rows = L.shape[1], L.shape[0]
    system = dict(A_ub=L if rows else None, method="highs")
    free = [(None, None)] * d
    if linprog(np.zeros(d), b_ub=c if rows else None, bounds=free, **system).status == 2:
        return False, None, None
    lo, hi = np.empty(d), np.empty(d)
    for j in range(d):
        for sign, side in ((1.0, lo), (-1.0, hi)):
            obj = sign * np.eye(d)[j]
            ray = linprog(obj, b_ub=np.zeros(rows) if rows else None,
                          bounds=[(-1.0, 1.0)] * d, **system)
            if ray.fun < -1e-9:
                side[j] = -sign * np.inf
                continue
            res = linprog(obj, b_ub=c if rows else None, bounds=free, **system)
            assert res.status == 0, res.message
            side[j] = res.x[j]
    return True, lo, hi


def lp_point_system(action, W, r):
    """The rows of {t : r_k exp(mu_k . t) inside W}, built block by block;
    None when a zero block faces a positive lower bound."""
    rows, rhs = [], []
    for i, (lo, hi) in enumerate(W.bounds):
        if r[i] <= 0:
            if lo > 0:
                return None
            continue
        rows.append(action.weights[i])
        rhs.append(np.log(hi / r[i]))
        if lo > 0:
            rows.append(-action.weights[i])
            rhs.append(-np.log(lo / r[i]))
    return np.reshape(rows, (-1, action.d)), np.array(rhs)


def random_action(rng):
    """A diagonal action with d <= 3 parameters and up to 4 blocks, or one of
    the rank-deficient rotation families (weights of rank below d)."""
    pick = rng.random()
    if pick < 0.1:
        return diagonal_action(case3b())
    if pick < 0.15:
        return diagonal_action(DilationAlgebra([np.array([[0.0, -1.0], [1.0, 0.0]])]))
    while True:
        d = int(rng.integers(1, 4))
        k = int(rng.integers(d, 5))
        weights = np.round(rng.uniform(-1.5, 1.5, (k, d)), 1)
        try:
            return diagonal_action(DilationAlgebra([np.diag(weights[:, j]) for j in range(d)]))
        except (ValueError, NotDiagonalizableFamily):
            continue


def random_box(rng, k):
    """Per-block shells at seeded scales, about a third of them balls."""
    scale = np.exp(rng.uniform(-2.0, 2.0, k))
    lo = np.where(rng.random(k) < 0.35, 0.0, scale * rng.uniform(0.2, 1.0, k))
    if not lo.any():
        lo[0] = 0.5 * scale[0]
    return BoxSet(zip(lo, scale * rng.uniform(1.2, 3.0, k)))


class TestPolyhedralKernel:
    """The exact kernel against linprog on seeded random systems."""

    def test_meeting_systems_match_linprog(self):
        rng = np.random.default_rng(40)
        seen = {"empty": 0, "bounded": 0, "unbounded": 0}
        for _ in range(100):
            act = random_action(rng)
            L, c = meeting_system(act, random_box(rng, act.k), random_box(rng, act.k))
            feasible, lo, hi = lp_answers(L, c)
            nonempty, point, klo, khi = _polyhedra(L, c)
            assert nonempty[0] == feasible
            if not feasible:
                seen["empty"] += 1
                with pytest.raises(InfeasibleSystem):
                    is_relatively_compact(L, c)
                continue
            assert np.all(L @ point[0] <= c + 1e-9)
            npt.assert_allclose(klo[0], lo, rtol=1e-9, atol=1e-9)
            npt.assert_allclose(khi[0], hi, rtol=1e-9, atol=1e-9)
            bounded, u = is_relatively_compact(L, c)
            assert bounded == bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))
            if bounded:
                seen["bounded"] += 1
                assert u is None
            else:
                seen["unbounded"] += 1
                assert np.max(np.abs(u)) == pytest.approx(1.0)
                assert np.max(L @ u, initial=-np.inf) <= 1e-9
        assert min(seen.values()) >= 10, seen

    def test_point_systems_match_linprog(self):
        rng = np.random.default_rng(41)
        checked = {"empty": 0, "nonempty": 0}
        for _ in range(25):
            act = random_action(rng)
            W = random_box(rng, act.k)
            rs = np.exp(rng.uniform(-2.0, 2.0, (12, act.k)))
            rs[rng.random(rs.shape) < 0.15] = 0.0  # points on coordinate planes
            nonempty, point, lo, hi = _polyhedra(*_point_system(act, W, rs))
            for i, r in enumerate(rs):
                system = lp_point_system(act, W, r)
                feasible, plo, phi = (False, None, None) if system is None else lp_answers(*system)
                assert nonempty[i] == feasible, (act.weights, W.bounds, r)
                checked["nonempty" if feasible else "empty"] += 1
                if feasible:
                    L, c = system
                    assert np.all(L @ point[i] <= c + 1e-9)
                    npt.assert_allclose(lo[i], plo, rtol=1e-9, atol=1e-9)
                    npt.assert_allclose(hi[i], phi, rtol=1e-9, atol=1e-9)
        assert min(checked.values()) >= 30, checked


def _c_star(copies: int) -> DilationAlgebra:
    """C*^copies on R^(2 copies): in each plane the generators I and
    R = E21 - E12, the similitude group of the classical 2-D transform.  The
    R directions scale no block: M = [I, 0] up to the order of its columns."""
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    gens = []
    for i in range(copies):
        for G in (np.eye(2), R):
            B = np.zeros((2 * copies, 2 * copies))
            B[2 * i:2 * i + 2, 2 * i:2 * i + 2] = G
            gens.append(B)
    return DilationAlgebra(gens)


def _c_star_times_r_star() -> DilationAlgebra:
    """C* on the plane of R^3 and the dilations of its third axis."""
    gens = [np.zeros((3, 3)) for _ in range(3)]
    gens[0][:2, :2] = np.eye(2)
    gens[1][:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    gens[2][2, 2] = 1.0
    return DilationAlgebra(gens)


ROTATING = {
    "c_star": (_c_star(1), [[0.0, 1.0]]),
    "c_star_squared": (_c_star(2), [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    "c_star_on_c2": (_complex_scalars_on_c2(), [[0.0, 1.0]]),
}


class TestRotationDirections:
    @pytest.mark.parametrize("name", ROTATING)
    def test_rotations_span_null_m(self, name):
        alg, span = ROTATING[name]
        rot = diagonal_action(alg).rotations()
        # the same subspace as the expected columns, whatever basis the SVD picks
        npt.assert_allclose(rot @ rot.T, np.array(span).T @ np.array(span), atol=1e-12)

    @pytest.mark.parametrize("name", ["dilation_1d", "family_a", "family_e"])
    def test_no_rotations_at_full_rank(self, name):
        act = diagonal_action(BLOCK_FAMILIES[name][0])
        assert act.rotations().shape == (act.d, 0)

    @pytest.mark.parametrize("compact", [True, None])
    @pytest.mark.parametrize("name", ROTATING)
    def test_bounded_scaling_directions_are_unclassified(self, name, compact):
        # exp(t R) only rotates, so ((C, C)) is bounded in every scaling
        # direction: no "no" with a rotation witness, and no "yes" either
        alg, span = ROTATING[name]
        act = diagonal_action(alg)
        with pytest.raises(UnclassifiedFamily, match="only rotate"):
            quasi_section_verdict(act, BoxSet([(1.0, 2.0)] * act.k), orbit_space_compact=compact)

    def test_escaping_scaling_direction_answers_no(self):
        # a block bounded above only lets the third axis's dilation escape:
        # the witness scales that block, mapped back to the parameters
        act = diagonal_action(_c_star_times_r_star())
        union = [BoxSet([(1.0, 2.0), (0.0, 2.0)]), BoxSet([(0.0, 2.0), (1.0, 2.0)])]
        v = quasi_section_verdict(act, union, orbit_space_compact=True)
        assert v.exists == "no"
        assert v.witness_direction.tolist() == [0.0, 0.0, -1.0]

    def test_no_scaling_direction_is_unclassified(self):
        # a pure rotation: M = 0 and nothing scales
        act = diagonal_action(DilationAlgebra([np.array([[0.0, -1.0], [1.0, 0.0]])]))
        with pytest.raises(UnclassifiedFamily, match=r"\[\[1\.0\]\] only rotate"):
            quasi_section_verdict(act, BoxSet([(1e-9, 1e9)]), orbit_space_compact=True)


def _transposed(alg: DilationAlgebra) -> DilationAlgebra:
    return DilationAlgebra([G.T for G in alg.generators], tol=alg.tol)


_GOLDEN = {"a": F.family_a(1.0), "b11": F.family_b(1.0, 1.0), "b1m1": F.family_b(1.0, -1.0),
           "b10": F.family_b(1.0, 0.0), "c": F.family_c(), "d": F.family_d(), "e": F.family_e(),
           "case0": F.case0(), "case1a": F.case1a(), "case1b": F.case1b(),
           "case1c": F.case1c(), "case2": F.case2(), "case3b": F.case3b()}
ORBIT_FAMILIES = {
    **_GOLDEN,
    **{f"{name}-transposed": _transposed(alg) for name, alg in _GOLDEN.items()},
    "dilation_1d": BLOCK_FAMILIES["dilation_1d"][0],
    "spiral_2d": BLOCK_FAMILIES["rotation_scaling_2d"][0],
    "c_star": _c_star(1),
    "c_star_squared": _c_star(2),
}


@pytest.mark.parametrize("name", ORBIT_FAMILIES)
def test_refusals_agree_with_orbit_structure(name):
    # with shells [1, 2] in every block: where the generic orbits are open no
    # wavelet refusal says they are not, and no refusal or "no" verdict rests
    # on a witness that scales no block (M w = 0 only rotates)
    alg = ORBIT_FAMILIES[name]

    def scales_a_block(witness):
        return np.max(np.abs(act.weights @ witness)) > 1e-9 * np.max(np.abs(act.weights))

    try:
        act = diagonal_action(alg)
    except NotDiagonalizableFamily:
        return  # the exact kernel needs semisimple blocks: nothing to compare
    box = BoxSet([(1.0, 2.0)] * act.k)
    try:
        synth_wavelet(act, box)
    except QuasiSectionRefused as err:
        assert scales_a_block(err.witness), str(err)
    except DomainError as err:
        assert not (generic_orbit_dim(alg) == alg.n and "orbits are not open" in str(err)), \
            str(err)
    try:
        v = quasi_section_verdict(act, box, orbit_space_compact=True)
    except DomainError:
        return
    assert v.exists != "no" or scales_a_block(v.witness_direction), v.to_json()
