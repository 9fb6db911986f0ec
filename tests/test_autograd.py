import math

import numpy as np
import pytest

from gradcheck import check_op
from reviewpt import autograd as ag
from reviewpt.autograd import Tensor

RNG = np.random.default_rng(1234)


def rand(*shape):
    return RNG.uniform(-1.0, 1.0, shape)


# -- forward values -----------------------------------------------------------


def test_matmul_identity():
    b = rand(2, 3)
    out = ag.matmul(Tensor(np.eye(2)), Tensor(b))
    np.testing.assert_allclose(out.data, b)


def test_matmul_hand_example():
    out = ag.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    np.testing.assert_allclose(out.data, [[17.0], [39.0]])


def test_matmul_zero_annihilates():
    out = ag.matmul(Tensor(np.zeros((3, 4))), Tensor(rand(4, 2)))
    assert np.all(out.data == 0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ag.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 5)))


def test_softmax_uniform_row():
    out = ag.softmax_rows(Tensor([[1.0, 1.0, 1.0, 1.0]]))
    np.testing.assert_allclose(out.data, [[0.25] * 4])


def test_softmax_closed_form():
    out = ag.softmax_rows(Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    x = rand(5, 7)
    a = ag.softmax_rows(Tensor(x), axis=-1).data
    b = ag.softmax_rows(Tensor(x + 123.456), axis=-1).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=-1), np.ones(5), atol=1e-6)


def test_layer_norm_constant_row_is_zero():
    out = ag.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_fixed_point():
    x = np.array([[-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738]])
    out = ag.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, x, atol=1e-4)


def test_layer_norm_two_point_row():
    out = ag.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_gelu_values():
    x = Tensor([0.0, 10.0, 1.0])
    out = ag.gelu(x)
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-6
    assert abs(out.data[2] - 0.8413447460685429) < 1e-9


def test_cross_entropy_perfect_prediction():
    probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
    loss = ag.cross_entropy(probs, np.array([0, 1]))
    assert loss.item() < 1e-9


def test_cross_entropy_uniform():
    k = 7
    probs = Tensor(np.full((3, k), 1.0 / k))
    loss = ag.cross_entropy(probs, np.array([0, 3, 6]))
    assert abs(loss.item() - math.log(k)) < 1e-9


def test_cross_entropy_half_probability_rows():
    probs = Tensor([[0.5, 0.5], [0.5, 0.5]])
    loss = ag.cross_entropy(probs, np.array([0, 1]))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_no_targets():
    with pytest.raises(ValueError, match="no targets"):
        ag.cross_entropy(Tensor(rand(3, 4) + 2.0), np.array([0, 1, 2]), row_mask=np.zeros(3, dtype=bool))


def test_cross_entropy_row_mask_selects_rows():
    probs = Tensor([[0.5, 0.5], [0.1, 0.9]])
    loss = ag.cross_entropy(probs, np.array([0, 0]), row_mask=np.array([True, False]))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


# -- backward semantics ---------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(rand(2, 2), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ag.mul(x, x).backward()


def test_linear_loss_gradient_is_coefficients():
    x = rand(6)
    w = Tensor(rand(6), requires_grad=True)
    loss = ag.tsum(ag.mul(w, x))
    loss.backward()
    np.testing.assert_allclose(w.grad, x)


def test_backward_accumulates_not_overwrites():
    x = Tensor(rand(4), requires_grad=True)
    ag.tsum(ag.mul(x, x)).backward()
    once = x.grad.copy()
    ag.tsum(ag.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2 * once, rtol=1e-12)


def test_zero_grad_resets_to_exact_zero():
    x = Tensor(rand(4), requires_grad=True)
    ag.tsum(ag.mul(x, x)).backward()
    x.zero_grad()
    assert np.all(x.grad == 0.0)


def test_shared_subexpression_gradient():
    # y = (x + x) * x => dy/dx = 4x at every entry
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    ag.tsum(ag.mul(ag.add(x, x), x)).backward()
    np.testing.assert_allclose(x.grad, 4 * x.data)


def test_no_grad_blocks_graph():
    x = Tensor(rand(3), requires_grad=True)
    with ag.no_grad():
        y = ag.mul(x, x)
    assert not y.requires_grad and y._backward_fn is None


# -- gradient checks against the finite-difference oracle -----------------------


def test_gradcheck_matmul_both_sides():
    a, b = rand(4, 5), rand(5, 3)
    check_op(lambda x, y: ag.tsum(ag.matmul(x, y)), [a, b], wrt=0)
    check_op(lambda x, y: ag.tsum(ag.matmul(x, y)), [a, b], wrt=1)


def test_gradcheck_batched_matmul_broadcast():
    a, b = rand(2, 3, 4, 5), rand(5, 3)
    check_op(lambda x, y: ag.tsum(ag.matmul(x, y)), [a, b], wrt=0)
    check_op(lambda x, y: ag.tsum(ag.matmul(x, y)), [a, b], wrt=1)


def test_gradcheck_softmax():
    x, w = rand(3, 6), rand(3, 6)
    check_op(lambda t: ag.tsum(ag.mul(ag.softmax_rows(t, axis=-1), w)), [x], wrt=0)


def test_gradcheck_layer_norm_all_inputs():
    x, g, b = rand(3, 8), rand(8) + 1.5, rand(8)
    w = rand(3, 8)
    for wrt in range(3):
        check_op(lambda t, gg, bb: ag.tsum(ag.mul(ag.layer_norm(t, gg, bb), w)), [x, g, b], wrt=wrt)


def test_gradcheck_gelu():
    x, w = rand(4, 4), rand(4, 4)
    check_op(lambda t: ag.tsum(ag.mul(ag.gelu(t), w)), [x], wrt=0)


def test_gradcheck_cross_entropy():
    probs = RNG.uniform(0.1, 1.0, (5, 4))
    targets = RNG.integers(0, 4, 5)
    check_op(lambda p: ag.cross_entropy(p, targets), [probs], wrt=0)


def test_gradcheck_take_rows_with_duplicates():
    table = rand(6, 3)
    ids = np.array([0, 2, 2, 5, 0])
    w = rand(5, 3)
    check_op(lambda t: ag.tsum(ag.mul(ag.take_rows(t, ids), w)), [table], wrt=0)


def test_gradcheck_indexing_and_reshape():
    x = rand(4, 6)
    w1, w2, w3 = rand(2, 6), rand(2, 12), rand(6, 4)
    check_op(lambda t: ag.tsum(ag.mul(ag.take(t, (slice(1, 3), slice(None))), w1)), [x], wrt=0)
    check_op(lambda t: ag.tsum(ag.mul(ag.reshape(t, (2, 12)), w2)), [x], wrt=0)
    check_op(lambda t: ag.tsum(ag.mul(ag.transpose(t, (1, 0)), w3)), [x], wrt=0)


def test_gradcheck_dropout_with_fixed_mask():
    x, w = rand(5, 5), rand(5, 5)
    check_op(lambda t: ag.tsum(ag.mul(ag.dropout(t, 0.4, np.random.default_rng(7)), w)), [x], wrt=0)


def test_gradcheck_sum_axis():
    x, w = rand(3, 5), rand(3)
    check_op(lambda t: ag.tsum(ag.mul(ag.tsum(t, axis=1), w)), [x], wrt=0)


def test_gradcheck_broadcast_add_mul():
    x, b = rand(4, 5), rand(5)
    w = rand(4, 5)
    check_op(lambda t, u: ag.tsum(ag.mul(ag.add(t, u), w)), [x, b], wrt=1)
    check_op(lambda t, u: ag.tsum(ag.mul(ag.mul(t, u), w)), [x, b], wrt=1)


# -- fused ops ------------------------------------------------------------------


def test_gradcheck_linear_all_inputs():
    x, w, b = rand(2, 3, 4), rand(4, 5), rand(5)
    weights = rand(2, 3, 5)
    for wrt in range(3):
        check_op(lambda t, ww, bb: ag.tsum(ag.mul(ag.linear(t, ww, bb), weights)), [x, w, b], wrt=wrt)


def attention_inputs():
    """q, k, v [2, 4, 6] for 2 heads, an output weighting, and a bias masking one key of row 1."""
    q, k, v = rand(2, 4, 6), rand(2, 4, 6), rand(2, 4, 6)
    bias = np.zeros((2, 1, 1, 4))
    bias[1, ..., 3] = ag.MASK_FILL
    return q, k, v, bias, rand(2, 4, 6)


def test_gradcheck_attention_with_dropout_and_masked_key():
    q, k, v, bias, weights = attention_inputs()

    def build(qq, kk, vv):
        out = ag.attention(qq, kk, vv, bias, 2, 0.1, np.random.default_rng(3), True)
        return ag.tsum(ag.mul(out, weights))

    for wrt in range(3):
        check_op(build, [q, k, v], wrt=wrt)


def _values_and_grads(fn, arrays, weights):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    ag.tsum(ag.mul(out, weights)).backward()
    return out.data, [t.grad for t in tensors]


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(6, 5\)"):
        ag.linear(Tensor(rand(2, 3, 4)), Tensor(rand(6, 5)), Tensor(rand(5)))


def test_linear_matches_matmul_then_add():
    x, w, b = rand(2, 3, 4), rand(4, 5), rand(5)
    weights = rand(2, 3, 5)
    fused = _values_and_grads(ag.linear, [x, w, b], weights)
    composed = _values_and_grads(lambda t, ww, bb: ag.add(ag.matmul(t, ww), bb), [x, w, b], weights)
    np.testing.assert_allclose(fused[0], composed[0], rtol=0, atol=1e-12)
    for got, want in zip(fused[1], composed[1]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def attention_by_composition(q, k, v, bias, heads, rate, rng, train):
    """The per-op chain :func:`ag.attention` replaces, dropout draw included."""
    b, length, h = q.shape
    dh = h // heads

    def heads_view(y):
        return ag.transpose(ag.reshape(y, (b, length, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = heads_view(q), heads_view(k), heads_view(v)
    scores = ag.add(ag.mul(ag.matmul(qh, ag.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh)), bias)
    probs = ag.dropout(ag.softmax_rows(scores, axis=-1), rate, rng, train=train)
    return ag.reshape(ag.transpose(ag.matmul(probs, vh), (0, 2, 1, 3)), (b, length, h))


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_matches_composition_under_the_same_seed(rate):
    q, k, v, bias, weights = attention_inputs()
    rngs = np.random.default_rng(9), np.random.default_rng(9)
    fused = _values_and_grads(lambda *t: ag.attention(*t, bias, 2, rate, rngs[0], True), [q, k, v], weights)
    composed = _values_and_grads(
        lambda *t: attention_by_composition(*t, bias, 2, rate, rngs[1], True), [q, k, v], weights
    )
    np.testing.assert_allclose(fused[0], composed[0], rtol=0, atol=1e-12)
    for got, want in zip(fused[1], composed[1]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the mask took the same draws, so both generators are at the same state
    assert rngs[0].random() == rngs[1].random()


def test_attention_draws_nothing_when_dropout_is_off():
    q, k, v, bias, _ = attention_inputs()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    off = ag.attention(q, k, v, bias, 2, 0.5, rng, False).data
    zero_rate = ag.attention(q, k, v, bias, 2, 0.0, rng, True).data
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(off, zero_rate)
