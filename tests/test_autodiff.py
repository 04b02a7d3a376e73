"""Gradient checks for every op, plus tape/shape/dtype behavior."""

import numpy as np
import pytest

import voicesep.autodiff as ad
from voicesep.errors import (ConfigurationError, DimensionError, UsageError)

RNG = np.random.default_rng(20240817)


def t64(shape, scale=1.0, rng=RNG):
    x = ad.Tensor(rng.uniform(-scale, scale, shape))
    x.requires_grad = True
    return x


def weighted_sum(out, seed=0):
    """Reduce any tensor to a scalar with fixed random weights."""
    w = ad.Tensor(np.random.default_rng(seed).standard_normal(
        out.data.shape))
    return ad.tsum(ad.mul(out, w))


def check(f, tensors, tol=1e-4):
    rep = ad.grad_check_many(f, tensors, tol=tol)
    assert rep.passed, f"max rel err {rep.max_rel_err}: {rep.worst[:3]}"


# --- elementwise / scalar ops ---

def test_add_sub_mul_div_grads():
    a, b = t64((3, 4)), t64((3, 4))
    b.data += 2.5  # keep the divisor away from zero
    check(lambda: weighted_sum(ad.add(a, b)), [("a", a), ("b", b)])
    check(lambda: weighted_sum(ad.sub(a, b)), [("a", a), ("b", b)])
    check(lambda: weighted_sum(ad.mul(a, b)), [("a", a), ("b", b)])
    check(lambda: weighted_sum(ad.div(a, b)), [("a", a), ("b", b)])


def test_scale_smul_relu_prelu_clamp_grads():
    x = t64((5, 3))
    s = t64(())
    s.data += 1.5
    slope = ad.Tensor(np.asarray(0.3))
    slope.requires_grad = True
    check(lambda: weighted_sum(ad.scale(x, -1.7)), [("x", x)])
    check(lambda: weighted_sum(ad.smul(x, s)), [("x", x), ("s", s)])
    check(lambda: weighted_sum(ad.relu(x)), [("x", x)])
    check(lambda: weighted_sum(ad.prelu(x, slope)),
          [("x", x), ("slope", slope)])
    check(lambda: weighted_sum(ad.clamp_min(x, 0.1)), [("x", x)])


def test_log_center_dot_grads():
    x = t64((40,))
    x.data = np.abs(x.data) + 0.5
    y = t64((40,))
    check(lambda: ad.log10(ad.dot(x, x)), [("x", x)])
    check(lambda: weighted_sum(ad.log1p(ad.mul(x, x))), [("x", x)])
    check(lambda: weighted_sum(ad.center(y)), [("y", y)])
    check(lambda: ad.dot(x, y), [("x", x), ("y", y)])


def test_reductions_grads():
    x = t64((4, 5, 3))
    check(lambda: ad.tsum(x), [("x", x)])
    check(lambda: ad.tmean(x), [("x", x)])
    check(lambda: weighted_sum(ad.mean_axes(x, (1, 2))), [("x", x)])


def test_row_scale_const_mul_grads():
    x = t64((6, 3))
    c = RNG.uniform(0.5, 2.0, 6)
    m = RNG.standard_normal((6, 3))
    check(lambda: weighted_sum(ad.row_scale(x, c)), [("x", x)])
    check(lambda: weighted_sum(ad.const_mul(x, m)), [("x", x)])


# --- shape ops ---

def test_shape_ops_grads():
    x = t64((4, 6))
    check(lambda: weighted_sum(ad.reshape(x, (2, 12))), [("x", x)])
    check(lambda: weighted_sum(ad.transpose(x, (1, 0))), [("x", x)])
    check(lambda: weighted_sum(ad.slice_rows(x, 1, 3)), [("x", x)])
    check(lambda: weighted_sum(ad.pad_rows(x, 2, 1)), [("x", x)])


def test_concat_split_stack_grads():
    a, b = t64((3, 4)), t64((2, 4))
    check(lambda: weighted_sum(ad.concat([a, b], axis=0)),
          [("a", a), ("b", b)])
    c = t64((5, 4))

    def f_split():
        parts = ad.split(c, [2, 3], axis=0)
        return ad.add(weighted_sum(parts[0], 1), weighted_sum(parts[1], 2))
    check(f_split, [("c", c)])
    d, e = t64((3, 4)), t64((3, 4))
    check(lambda: weighted_sum(ad.stack0([d, e])), [("d", d), ("e", e)])


def test_gather_rows_grad_with_repeats():
    x = t64((5, 3))
    idx = np.array([0, 2, 2, 4, 1, 2])
    check(lambda: weighted_sum(ad.gather_rows(x, idx)), [("x", x)])


def test_chunk_ola_grads():
    x = t64((18, 3))
    check(lambda: weighted_sum(ad.chunk_rows(x, 6, 3)), [("x", x)])
    c = t64((5, 6, 3))
    check(lambda: weighted_sum(ad.ola_rows(c, 3, 18)), [("c", c)])
    # non-half-overlap hop exercises the scatter fallback
    check(lambda: weighted_sum(ad.chunk_rows(x, 6, 2)), [("x", x)])
    c2 = t64((7, 6, 3))
    check(lambda: weighted_sum(ad.ola_rows(c2, 2, 18)), [("c2", c2)])


# --- linear algebra / convolutions ---

def test_matmul_linear_grads():
    a, b = t64((4, 5)), t64((5, 3))
    check(lambda: weighted_sum(ad.matmul(a, b)), [("a", a), ("b", b)])
    x, w, bias = t64((2, 6, 5)), t64((5, 3)), t64((3,))
    check(lambda: weighted_sum(ad.linear(x, w, bias)),
          [("x", x), ("w", w), ("bias", bias)])
    check(lambda: weighted_sum(ad.linear(x, w)), [("x", x), ("w", w)])


def test_conv1d_grads():
    x, k = t64((2, 24)), t64((3, 2, 4))
    check(lambda: weighted_sum(ad.conv1d(x, k, stride=2)),
          [("x", x), ("k", k)])


def test_conv1d_transpose_grads():
    x, k = t64((3, 9)), t64((3, 1, 4))
    check(lambda: weighted_sum(ad.conv1d_transpose(x, k, stride=2)),
          [("x", x), ("k", k)])


def test_conv1d_transpose_inverts_length():
    x, k = t64((2, 11)), t64((2, 1, 8))
    out = ad.conv1d_transpose(x, k, stride=4)
    assert out.data.shape == (1, (11 - 1) * 4 + 8)


def test_conv2d_avgpool_grads():
    x, k = t64((2, 9, 7)), t64((3, 2, 3, 3))
    check(lambda: weighted_sum(ad.conv2d(x, k)), [("x", x), ("k", k)])
    y = t64((2, 6, 8))
    check(lambda: weighted_sum(ad.avgpool2d(y)), [("y", y)])


def test_conv2d_index_cache_is_bounded():
    k = ad.Tensor(np.ones((1, 1, 2, 2)))
    cache = ad._conv2d_scatter_index
    for w in range(2, 2 + 3 * cache.cache_info().maxsize):
        x = t64((1, 3, w))
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.conv2d(x, k)))
        np.testing.assert_array_equal(x.grad[0, 1, 1:-1],
                                      np.full(w - 2, 4.0))
        assert cache.cache_info().currsize <= cache.cache_info().maxsize


def test_avgpool_trims_odd_edges():
    y = t64((1, 5, 7))
    assert ad.avgpool2d(y).data.shape == (1, 2, 3)


# --- recurrence ---

def make_lstm_params(f, h, rng=RNG):
    return ad.LSTMParams(t64((2, f, 4 * h), 0.4, rng),
                         t64((2, h, 4 * h), 0.4, rng),
                         t64((2, 4 * h), 0.4, rng))


def test_bilstm_grads():
    x = t64((2, 6, 3))
    p = make_lstm_params(3, 4)
    check(lambda: weighted_sum(ad.bilstm(x, p)),
          [("x", x), ("wx", p.wx), ("wh", p.wh), ("b", p.b)])


def test_bilstm_unbatched_matches_batched():
    x = t64((1, 6, 3))
    p = make_lstm_params(3, 4)
    full = ad.bilstm(x, p).data[0]
    single = ad.bilstm(ad.Tensor(x.data[0].copy()), p).data
    np.testing.assert_allclose(full, single, rtol=0, atol=0)


def test_bilstm_bank_grads_all_outputs():
    x = t64((2, 5, 3))
    p1, p2 = make_lstm_params(3, 4), make_lstm_params(3, 4)

    def f():
        o1, o2 = ad.bilstm_bank(x, [p1, p2])
        return weighted_sum(ad.mul(o1, o2))
    check(f, [("x", x), ("wx1", p1.wx), ("wh1", p1.wh), ("b1", p1.b),
              ("wx2", p2.wx), ("wh2", p2.wh), ("b2", p2.b)])


def test_bilstm_bank_partial_use():
    """A loss touching only one output still gets correct grads, and the
    unused set's grads come out zero."""
    x = t64((2, 5, 3))
    p1, p2 = make_lstm_params(3, 4), make_lstm_params(3, 4)

    def f():
        o1, o2 = ad.bilstm_bank(x, [p1, p2])
        return weighted_sum(o2)
    check(f, [("x", x), ("wx2", p2.wx)])
    with ad.Tape() as tape:
        o1, o2 = ad.bilstm_bank(x, [p1, p2])
        tape.backward(weighted_sum(o2))
    assert np.all(p1.wx.grad == 0)
    assert np.any(p2.wx.grad != 0)


def test_bilstm_bank_matches_separate_calls():
    x = t64((2, 5, 3))
    p1, p2 = make_lstm_params(3, 4), make_lstm_params(3, 4)
    o1, o2 = ad.bilstm_bank(x, [p1, p2])
    np.testing.assert_array_equal(o1.data, ad.bilstm(x, p1).data)
    np.testing.assert_array_equal(o2.data, ad.bilstm(x, p2).data)


def test_bilstm_reversal_symmetry():
    """Running a palindromic-parameter LSTM on a reversed sequence reverses
    and swaps the direction halves of the output."""
    rng = np.random.default_rng(3)
    f, h = 3, 4
    wx1 = rng.standard_normal((1, f, 4 * h))
    wh1 = rng.standard_normal((1, h, 4 * h))
    b1 = rng.standard_normal((1, 4 * h))
    p = ad.LSTMParams(ad.Tensor(np.concatenate([wx1, wx1])),
                      ad.Tensor(np.concatenate([wh1, wh1])),
                      ad.Tensor(np.concatenate([b1, b1])))
    x = rng.standard_normal((1, 7, f))
    out_fwd = ad.bilstm(ad.Tensor(x), p).data[0]
    out_rev = ad.bilstm(ad.Tensor(x[:, ::-1].copy()), p).data[0]
    np.testing.assert_allclose(out_fwd[:, :h], out_rev[::-1, h:], atol=1e-12)


def test_cross_entropy_grad_and_value():
    logits = t64((4, 5))
    labels = np.array([0, 3, 2, 2])
    check(lambda: ad.cross_entropy(logits, labels),
          [("logits", logits)])
    uniform = ad.Tensor(np.zeros((2, 4)))
    assert ad.cross_entropy(uniform, np.array([1, 2])).item() == \
        pytest.approx(np.log(4))


# --- engine behavior ---

def test_no_broadcasting():
    a, b = t64((3, 4)), t64((3, 1))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with pytest.raises(DimensionError):
            op(a, b)


def test_mixed_dtype_rejected():
    a = ad.Tensor(np.ones((2,), dtype=np.float32))
    b = ad.Tensor(np.ones((2,), dtype=np.float64))
    with pytest.raises(UsageError):
        ad.add(a, b)


def test_backward_requires_scalar_and_same_tape():
    x = t64((3,))
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(UsageError):
            tape.backward(y)  # not a scalar
    with ad.Tape() as other:
        loss = ad.tsum(ad.mul(x, x))
    with pytest.raises(UsageError):
        ad.Tape().backward(loss)  # produced under a different tape


def test_leaf_grads_accumulate_intermediates_reset():
    x = t64((3,))
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        loss = ad.tsum(y)
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_detach_blocks_gradient():
    x = t64((3,))
    with ad.Tape() as tape:
        y = ad.mul(x, x).detach()
        z = ad.tsum(ad.mul(y, y))
    assert not z.requires_grad


def test_no_tape_records_nothing():
    x = t64((3,))
    y = ad.mul(x, x)
    assert y._tape is None and y.requires_grad


def test_float32_ops_stay_float32():
    x = ad.Tensor(np.ones((2, 3), dtype=np.float32))
    x.requires_grad = True
    assert ad.relu(x).data.dtype == np.float32
    assert ad.tmean(x).data.dtype == np.float32


def test_conv1d_stride_must_divide():
    x, k = t64((1, 1, 11)), t64((2, 1, 4))
    with pytest.raises(DimensionError):
        ad.conv1d(x, k, stride=2)


def test_bilstm_rejects_bad_shapes():
    x = t64((2, 5, 3))
    p = make_lstm_params(4, 4)  # wrong feature width
    with pytest.raises(ConfigurationError):
        ad.bilstm(x, p)
