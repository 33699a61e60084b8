import math

import numpy as np
import numpy.testing as npt
import pytest

from orbitscope.errors import NonCommuting, NotDiagonalizable, NotNilpotent
from orbitscope.families import E
from orbitscope.linalg import DilationAlgebra, mat_exp
from orbitscope.orbits import orbit_dim
from orbitscope.sections import normal_form, section_batch

from conftest import random_diag_nilpotent

D_PAIR = (np.diag([1.0, 1.0, 0.0]), E(2, 1))
CASE1A_PAIR = (np.eye(3), E(2, 1) + E(3, 2))
CASE1C_PAIR = (np.eye(3), E(2, 1) + E(3, 2) + 0.4 * E(3, 1))


EXACT_FIELDS = ("block", "b", "marginal", "sign", "not_in_layer", "zero_eigenvalue")


def assert_has_section(sec):
    assert not (sec.not_in_layer.any() or sec.zero_eigenvalue.any())


class TestNormalForm:
    def test_d_pair_already_normal(self):
        fam = normal_form(*D_PAIR)
        eps = [b.epsilon for b in fam.blocks]
        assert eps == [(1,), ()]
        assert [b.eigenvalue for b in fam.blocks] == [1.0, 0.0]

    def test_full_jordan(self):
        fam = normal_form(np.eye(3), E(2, 1) + E(3, 2))
        assert [b.epsilon for b in fam.blocks] == [(1, 1)]
        # chains [2, 1], whichever basis vector the length-2 chain starts on
        for X in (E(2, 1), E(3, 2)):
            fam = normal_form(np.eye(3), X)
            assert [b.epsilon for b in fam.blocks] == [(1, 0)]

    def test_zero_nilpotent_degenerate(self):
        fam = normal_form(np.diag([2.0, 2.0]), np.zeros((2, 2)))
        assert fam.blocks[0].active == ()
        assert section_batch(fam, [[1.0, 1.0]]).block[0] == -1

    @pytest.mark.parametrize("delta", [1.5e-9, 2e-9, 3e-9])
    def test_small_chain_above_the_floor(self, delta):
        # X = e21 + delta e43 is a few 1e-9 of X on A's second eigenspace: a
        # chain, as for larger delta, not a kernel read from rounding
        P = np.random.default_rng(3).standard_normal((4, 4)) + 3.0 * np.eye(4)
        A, X = np.diag([1.0, 1.0, 2.0, 2.0]), E(2, 1, 4) + delta * E(4, 3, 4)
        fam = normal_form(np.linalg.solve(P, A @ P), np.linalg.solve(P, X @ P))
        assert [b.epsilon for b in fam.blocks] == [(1,), (1,)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(NotNilpotent):
            normal_form(np.eye(2), np.eye(2))
        with pytest.raises(NonCommuting):
            normal_form(np.diag([1.0, 2.0, 3.0]), E(2, 1))
        with pytest.raises(NotDiagonalizable):
            normal_form(np.eye(2) + E(2, 1, 2), E(2, 1, 2))
        with pytest.raises(NotDiagonalizable):
            normal_form(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2)))

    def test_adapted_form_exact(self):
        rng = np.random.default_rng(0)
        P0 = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        D = np.diag([1.0, 1.0, 1.0, 3.0])
        N = E(2, 1, 4) + E(3, 2, 4)
        A = np.linalg.solve(P0, D @ P0)
        X = np.linalg.solve(P0, N @ P0)
        fam = normal_form(A, X)
        # the adapted form is that of the canonical X / ||X||_2
        Xa = fam.basis_inv @ X @ fam.basis / np.linalg.norm(X, 2)
        sub = np.diag(Xa, -1)
        assert set(np.round(sub, 9)) <= {0.0, 1.0}

    def test_chain_tops_oriented(self):
        # each chain's top column has its first entry of largest magnitude
        # positive, whatever the sign or scale of X
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 5, 6):
            A, X = random_diag_nilpotent(rng, n)
            for Y in (X, -X, 3.0 * X):
                fam = normal_form(A, Y)
                for blk in fam.blocks:
                    tops = [1] + [i for i in range(2, blk.dim + 1) if blk.epsilon[i - 2] == 0]
                    for i in tops:
                        u = fam.basis[:, blk.offset + i - 1]
                        assert u[np.argmax(np.abs(u))] > 0


class TestCanonicalPair:
    """(aA, bX) spans the group of (A, X), so neither factor moves a layer,
    an eigenvalue of sigma A or a representative."""

    def test_scale_of_x_at_layer_3(self):
        A, X = CASE1A_PAIR
        reps = [section_batch(normal_form(A, c * X), [[0.0, 1.0, 0.3]]).representative[0]
                for c in (1.0, 3.0, 0.5)]
        npt.assert_allclose(reps, [[0.0, 1.0, 0.0]] * 3, atol=1e-12)

    def test_sign_of_a(self):
        # the eigenvalue of largest |lambda| is made positive; the witness s
        # stays in the units of the A passed in
        A, X = np.diag([1.0, 1.0, 2.0]), E(2, 1)
        sec, neg = (section_batch(normal_form(B, X), [[1.0, 5.0, 7.0]]) for B in (A, -A))
        assert (sec.block[0], sec.eigenvalue[0]) == (neg.block[0], neg.eigenvalue[0]) == (1, 1.0)
        npt.assert_array_equal(neg.representative, sec.representative)
        npt.assert_allclose(neg.s, -sec.s, rtol=1e-15)

    def test_sign_ties(self):
        # -lambda ties the top eigenvalue: the trace decides, and a trace of
        # 0 keeps the given sign
        X = E(2, 1, 4)
        A = np.diag([2.0, 2.0, -2.0, 1.0])
        assert [b.eigenvalue for b in normal_form(A, X).blocks] == [2.0, 1.0, -2.0]
        assert [b.eigenvalue for b in normal_form(-A, X).blocks] == [-2.0, -1.0, 2.0]
        A = np.diag([1.0, 1.0, -1.0, -1.0])
        for B in (A, -A):
            assert [b.eigenvalue for b in normal_form(B, X).blocks] == [1.0, -1.0]


class TestLayerIndex:
    def test_d_type_examples(self):
        fam = normal_form(*D_PAIR)
        sec = section_batch(fam, [[1.0, 5.0, 7.0], [0.0, 5.0, 7.0]])
        assert sec.b[0] == 2 and sec.eigenvalue[0] == 1.0
        assert sec.block[1] == -1

    def test_case1a_deeper_layer(self):
        fam = normal_form(*CASE1A_PAIR)
        assert section_batch(fam, [[0.0, 1.0, 0.0]]).b[0] == 3

    def test_invariance_under_group(self):
        rng = np.random.default_rng(1)
        for A, X in (D_PAIR, CASE1A_PAIR, CASE1C_PAIR):
            fam = normal_form(A, X)
            for _ in range(100):
                v = rng.standard_normal(3)
                s, t = rng.uniform(-2, 2, 2)
                w = mat_exp(s * A + t * X) @ v
                sec = section_batch(fam, np.stack([v, w]))
                assert (sec.block[1], sec.b[1]) == (sec.block[0], sec.b[0])

    def test_partition_of_o2(self):
        # every orbit-dim-2 point of the diag+nilpotent family lies in a layer
        A, X = np.diag([1.0, 1.0, 2.0, 2.0]), E(2, 1, 4) + E(4, 3, 4)
        alg = DilationAlgebra([A.T, X.T])  # orbit machinery acts by transposes
        fam = normal_form(A, X)
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(300):
            v = rng.standard_normal(4)
            if orbit_dim(alg, v) == 2:
                assert section_batch(fam, v[None]).block[0] >= 0
                hits += 1
        assert hits > 250


class TestSectionPoint:
    def test_idempotent_on_section(self):
        fam = normal_form(*D_PAIR)
        sp = section_batch(fam, [[1.0, 0.0, 7.0]])
        assert_has_section(sp)
        npt.assert_allclose(sp.representative[0], [1.0, 0.0, 7.0], atol=1e-12)
        npt.assert_allclose([sp.s[0], sp.t[0]], 0.0, atol=1e-12)

    def test_d_type_example(self):
        fam = normal_form(*D_PAIR)
        sp = section_batch(fam, [[1.0, 5.0, 7.0]])
        assert_has_section(sp)
        npt.assert_allclose(sp.representative[0], [1.0, 0.0, 7.0], atol=1e-10)
        npt.assert_allclose([sp.s[0], sp.t[0]], (0.0, -5.0), atol=1e-12)
        assert sp.sign[0] == 1

    def test_d_type_scaled_example(self):
        A, X = D_PAIR
        fam = normal_form(A, X)
        sp = section_batch(fam, [[2.0, 5.0, 7.0]])
        assert_has_section(sp)
        npt.assert_allclose([sp.s[0], sp.t[0]], (-np.log(2.0), -2.5), atol=1e-12)
        npt.assert_allclose(sp.representative[0, :2], [1.0, 0.0], atol=1e-10)
        # verify the witness against the exponential oracle
        v = np.array([2.0, 5.0, 7.0])
        s, t = sp.s[0], sp.t[0]
        npt.assert_allclose(mat_exp(s * A + t * X) @ v, sp.representative[0], atol=1e-10)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_point_whose_square_overflows(self, scale):
        # |v|^2 overflows beyond |v| ~ 1e154: the layer cut and the residual
        # tolerance take their norms on rows scaled by a power of two, so the
        # point keeps the block, layer and sign of (1, 2, 3)
        fam = normal_form(*D_PAIR)
        unit = section_batch(fam, [[1.0, 2.0, 3.0]])
        far = section_batch(fam, [[scale, 2.0 * scale, 3.0 * scale]])
        assert_has_section(far)
        assert [a.tolist() for a in (far.block, far.b, far.sign)] == \
               [a.tolist() for a in (unit.block, unit.b, unit.sign)]
        npt.assert_allclose(far.representative[0], [1.0, 0.0, 3.0 * scale], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pair", [D_PAIR, CASE1A_PAIR, CASE1C_PAIR])
    def test_canonical_on_orbits(self, pair):
        A, X = pair
        fam = normal_form(A, X)
        rng = np.random.default_rng(3)
        count = 0
        for _ in range(300):
            v = rng.standard_normal(3)
            p0 = section_batch(fam, v[None])
            if p0.block[0] < 0:
                continue
            s, t = rng.uniform(-3, 3, 2)
            w = mat_exp(s * A + t * X) @ v
            p1 = section_batch(fam, w[None])
            assert_has_section(p0)
            assert_has_section(p1)
            err = np.linalg.norm(p1.representative[0] - p0.representative[0])
            assert err <= 1e-8 * (1.0 + np.linalg.norm(p0.representative[0]))
            count += 1
        assert count > 250

    def test_zero_eigenvalue_rejected(self):
        A = np.diag([0.0, 0.0, 1.0])
        X = E(2, 1)
        fam = normal_form(A, X)
        sp = section_batch(fam, [[1.0, 5.0, 7.0]])
        assert sp.zero_eigenvalue[0] and not sp.not_in_layer[0]
        assert sp.block[0] >= 0 and sp.sign[0] == 0
        assert np.isnan(sp.representative).all() and np.isnan([sp.s, sp.t]).all()

    def test_not_in_layer(self):
        fam = normal_form(*D_PAIR)
        sp = section_batch(fam, [[0.0, 5.0, 7.0]])
        assert sp.not_in_layer[0] and not sp.zero_eigenvalue[0]
        assert sp.block[0] == -1 and sp.sign[0] == 0
        assert np.isnan(sp.representative).all() and np.isnan([sp.s, sp.t]).all()


def reference_section(fam, v):
    """Per-point reference for section_batch: scan the blocks for the layer,
    then v* = exp(sA) exp(tX) v with the general matrix exponential for A and
    the finite series for the nilpotent X; the adapted coordinates are those
    of X / ||X||_2, which moves p_b by ||X||_2 p_{b-1} per unit of t.
    Returns the error name or ((block, b), (s, t), v*)."""
    w = fam.basis_inv @ v
    thr = fam.tol * max(np.linalg.norm(v), 1.0)
    for bi, blk in enumerate(fam.blocks):
        for i in blk.active:
            c = blk.offset + i - 2
            if abs(w[c]) > thr:
                if abs(blk.eigenvalue) <= fam.tol:
                    return "ZeroEigenvalue"
                t = -w[c + 1] / (np.linalg.norm(fam.X, 2) * w[c])
                s = -np.log(abs(w[c])) / blk.eigenvalue
                # in np.longdouble: the series' terms grow with ||tX||, which
                # the canonical basis, and so the tolerance, does not carry
                tx = np.longdouble(t) * fam.X.astype(np.longdouble)
                exp_tx_v = sum(np.linalg.matrix_power(tx, k) @ v / math.factorial(k)
                               for k in range(fam.n))
                return (bi, i), (s, t), mat_exp(s * fam.A) @ exp_tx_v.astype(float)
    return "NotInLayer"


class TestSectionBatch:
    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(11)
        checked = 0
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                A, X = random_diag_nilpotent(rng, n)
                fam = normal_form(A, X)
                V = rng.standard_normal((30, n))
                V[0] = 0.0
                sec = section_batch(fam, V)
                # the reference exponentiates A in the original coordinates,
                # so its own error grows with the condition of the basis
                rtol = 1e-12 * np.linalg.cond(fam.basis)
                for r, v in enumerate(V):
                    ref = reference_section(fam, v)
                    if ref == "NotInLayer":
                        assert sec.block[r] == -1 and sec.not_in_layer[r]
                        continue
                    (bi, b), (s, t), vstar = ref
                    assert (sec.block[r], sec.b[r]) == (bi, b)
                    assert not (sec.not_in_layer[r] or sec.zero_eigenvalue[r])
                    npt.assert_allclose([sec.s[r], sec.t[r]], [s, t], rtol=1e-12, atol=1e-12)
                    err = np.linalg.norm(sec.representative[r] - vstar)
                    assert err <= rtol * (1.0 + np.linalg.norm(vstar))
                    checked += 1
        assert checked > 500

    def test_rows_independent(self):
        # each row of a batch equals the batch of that row alone, bit for bit:
        # layers, flags, values and NaN positions.  The batches mix rows with
        # a section, rows without a layer, zero-eigenvalue rows and rows whose
        # v* overflows
        rng = np.random.default_rng(12)
        cases = [(normal_form(*D_PAIR), [[1.0, 5.0, 7.0], [0.0, 5.0, 7.0]]),
                 (normal_form(np.diag([0.0, 0.0, 1.0]), E(2, 1)), [[1.0, 5.0, 7.0]]),
                 (normal_form(np.diag([1e-3, 1e-3, 1.0]), E(2, 1)), [[1e-5, 0.0, 1.0]])]
        for n in (2, 3, 4, 5, 6):
            for _ in range(3):
                cases.append((normal_form(*random_diag_nilpotent(rng, n)), np.zeros((1, n))))
        flags = set()
        for fam, extra in cases:
            V = np.vstack([rng.standard_normal((20, fam.n)), extra])
            sec = section_batch(fam, V)
            for i in range(V.shape[0]):
                row = section_batch(fam, V[i:i + 1])
                for name in EXACT_FIELDS + ("eigenvalue", "representative", "s", "t"):
                    npt.assert_array_equal(getattr(row, name)[0], getattr(sec, name)[i],
                                           err_msg=name)
                flags.add((bool(sec.not_in_layer[i]), bool(sec.zero_eigenvalue[i]),
                           int(sec.block[i]) >= 0))
        assert flags == {(False, False, True), (True, False, False), (False, True, True),
                         (True, False, True)}

    def test_masks_and_precedence(self):
        # rows: in a layer; no layer; zero eigenvalue; v* overflows (eigenvalue
        # 1e-3 on the layer, 1 elsewhere: e^{s} with s = ln(1e5) / 1e-3)
        fam_d = normal_form(*D_PAIR)
        sec = section_batch(fam_d, [[1.0, 5.0, 7.0], [0.0, 5.0, 7.0]])
        npt.assert_allclose(sec.representative[0], [1.0, 0.0, 7.0], atol=1e-10)
        assert list(sec.not_in_layer) == [False, True]
        assert sec.block[1] == -1 and sec.sign[1] == 0 and np.isnan(sec.s[1])
        fam_0 = normal_form(np.diag([0.0, 0.0, 1.0]), E(2, 1))
        sec = section_batch(fam_0, [[1.0, 5.0, 7.0], [0.0, 5.0, 7.0]])
        assert list(sec.zero_eigenvalue) == [True, False]
        assert list(sec.not_in_layer) == [False, True]
        fam_s = normal_form(np.diag([1e-3, 1e-3, 1.0]), E(2, 1))
        sec = section_batch(fam_s, [[1e-5, 0.0, 1.0], [1.0, 0.0, 1.0]])
        assert sec.block[0] == 1 and sec.not_in_layer[0] and not sec.zero_eigenvalue[0]
        assert not sec.not_in_layer[1]

    def test_rejects_wrong_shape(self):
        fam = normal_form(*D_PAIR)
        with pytest.raises(ValueError):
            section_batch(fam, [1.0, 5.0, 7.0])
        with pytest.raises(ValueError):
            section_batch(fam, np.ones((2, 4)))

    def test_marginal_warning_once_per_batch(self):
        fam = normal_form(*D_PAIR)
        V = np.array([[5e-9, 1.0, 0.0]] * 3)  # |p_2(Xv)| within 10x of 1e-9
        with pytest.warns(UserWarning, match="within 10x") as rec:
            sec = section_batch(fam, V)
        assert len(rec) == 1 and sec.marginal.all()


class TestCase1Sections:
    def test_section_property_numerically(self):
        # points on Sigma_2 stay fixed; orbit mates map onto Sigma_2
        A, X = np.eye(3), E(2, 1)
        fam = normal_form(A, X)
        rng = np.random.default_rng(4)
        V = np.array([[np.sign(rng.standard_normal()), 0.0, rng.standard_normal()]
                      for _ in range(50)])
        sp = section_batch(fam, V)
        assert_has_section(sp)
        npt.assert_allclose(sp.representative, V, atol=1e-10)
