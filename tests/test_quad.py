import numpy as np
import numpy.testing as npt
import pytest

from orbitscope import quad
from orbitscope.quad import _reference_rule, gauss_legendre, tensor_rules

ORDERS = (1, 2, 3, 8, 64, 128, 256, 1024, 2048)


def legendre_moments(x, w, count):
    """sum_i w_i P_k(x_i) for k < count, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    moments = [w.sum(), w @ x]
    for k in range(2, count):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        moments.append(w @ p)
    return np.array(moments[:count])


@pytest.mark.parametrize("order", ORDERS)
def test_legendre_moments_exact(order):
    # the n-point rule integrates P_k exactly for k <= 2n - 1: int P_k = 2 delta_k0
    x, w = _reference_rule(order)
    exact = np.zeros(2 * order)
    exact[0] = 2.0
    npt.assert_allclose(legendre_moments(x, w, 2 * order), exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", ORDERS)
def test_agrees_with_scipy_oracle(order):
    from scipy.special import roots_legendre  # test oracle only

    x, w = _reference_rule(order)
    xs, ws = roots_legendre(order)
    npt.assert_allclose(x, xs, rtol=0, atol=1e-14)
    npt.assert_allclose(w, ws, rtol=0, atol=1e-12)


def test_rule_is_read_only_and_mapped_copies_are_not():
    x, w = _reference_rule(16)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    nodes, weights = gauss_legendre(16, 1.0, 3.0)
    assert nodes.flags.writeable and weights.flags.writeable
    npt.assert_allclose(weights.sum(), 2.0, rtol=1e-15)
    assert np.all(np.diff(nodes) > 0) and 1.0 < nodes[0] and nodes[-1] < 3.0


def test_unconverged_rule_raises(monkeypatch):
    # a rule that fell short of convergence is never returned
    monkeypatch.setattr(quad, "_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError):
        quad._reference_rule.__wrapped__(64)


def test_tensor_rules_are_gauss_legendre_products():
    # bit for bit: the same affine map per axis, weights multiplied axis by axis
    boxes = np.array([[[0.0, 1.0], [-2.0, 0.5]], [[1.0, 3.0], [0.25, 0.75]]])
    nodes, weights = tensor_rules(boxes, (5, 7))
    assert nodes.shape == (2, 35, 2) and weights.shape == (2, 35)
    for box, nd, wt in zip(boxes, nodes, weights):
        (x0, w0), (x1, w1) = (gauss_legendre(o, lo, hi) for o, (lo, hi) in zip((5, 7), box))
        grid = np.stack(np.meshgrid(x0, x1, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.array_equal(nd, grid)
        assert np.array_equal(wt, (w0[:, None] * w1[None, :]).ravel())
    with pytest.raises(ValueError):
        tensor_rules([[[1.0, 1.0]]], (4,))
