"""Gradient checks for every op, plus tape/shape/dtype behavior."""

import sys
import threading

import numpy as np
import pytest

import voicesep.autodiff as ad
from voicesep.errors import (ConfigurationError, DegenerateTargetError,
                             DimensionError, UsageError)

RNG = np.random.default_rng(20240817)


def t64(shape, scale=1.0, rng=RNG):
    x = ad.Tensor(rng.uniform(-scale, scale, shape))
    x.requires_grad = True
    return x


def weighted_sum(out, seed=0):
    """Reduce any tensor to a scalar with fixed random weights: the
    flattened output times a weight column, so the output's gradient is
    exactly the weights."""
    w = np.random.default_rng(seed).standard_normal(out.data.size)
    return ad.linear(ad.reshape(out, (1, -1)), ad.Tensor(w.reshape(-1, 1)))


def check(f, tensors):
    rep = ad.grad_check_many(f, tensors)
    assert rep.max_rel_err < 1e-4, \
        f"max rel err {rep.max_rel_err}: {rep.worst[:3]}"


# --- elementwise / scalar ops ---

def test_add_sub_mul_grads():
    a, b = t64((3, 4)), t64((3, 4))
    check(lambda: weighted_sum(ad.add(a, b)), [("a", a), ("b", b)])
    check(lambda: weighted_sum(ad.sub(a, b)), [("a", a), ("b", b)])
    check(lambda: weighted_sum(ad.mul(a, b)), [("a", a), ("b", b)])


def test_scale_prelu_clamp_grads():
    x = t64((5, 3))
    slope = ad.Tensor(np.asarray(0.3))
    slope.requires_grad = True
    check(lambda: weighted_sum(ad.scale(x, -1.7)), [("x", x)])
    check(lambda: weighted_sum(ad.clamp_min(x, 0.0)), [("x", x)])
    check(lambda: weighted_sum(ad.prelu(x, slope)),
          [("x", x), ("slope", slope)])
    check(lambda: weighted_sum(ad.clamp_min(x, 0.1)), [("x", x)])


def test_log1p_grad():
    x = t64((40,))
    check(lambda: weighted_sum(ad.log1p(ad.mul(x, x))), [("x", x)])


def test_reductions_grads():
    x = t64((4, 5, 3))
    check(lambda: ad.mean_axes(x, (0, 1, 2)), [("x", x)])
    check(lambda: weighted_sum(ad.mean_axes(x, (1, 2))), [("x", x)])


# --- shape ops ---

def test_shape_ops_grads():
    x = t64((4, 6))
    check(lambda: weighted_sum(ad.reshape(x, (2, 12))), [("x", x)])
    check(lambda: weighted_sum(ad.transpose(x, (1, 0))), [("x", x)])
    check(lambda: weighted_sum(ad.slice_axis(x, 0, 1, 3)), [("x", x)])
    check(lambda: weighted_sum(ad.pad_rows(x, 2, 1)), [("x", x)])


def test_concat_split_grads():
    a, b = t64((3, 4)), t64((2, 4))
    check(lambda: weighted_sum(ad.concat([a, b], axis=0)),
          [("a", a), ("b", b)])
    c = t64((3, 2, 6))

    def f_split():
        """Both halves along axis 2 of one tensor: the two zero-filled
        gradients add up to a full one."""
        parts = [ad.slice_axis(c, 2, 0, 4), ad.slice_axis(c, 2, 4, 6)]
        return ad.add(weighted_sum(parts[0], 1), weighted_sum(parts[1], 2))
    check(f_split, [("c", c)])
    with pytest.raises(DimensionError):
        ad.slice_axis(c, 2, 4, 7)


def test_gather_grad_with_repeats():
    """gather reads along the last axis, every batch row alike; repeated
    indices sum their gradients."""
    x = t64((2, 5))
    idx = np.array([[0, 2, 2], [4, 1, 2]])
    out = ad.gather(x, idx)
    assert out.data.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[1], x.data[1][idx])
    check(lambda: weighted_sum(ad.gather(x, idx)), [("x", x)])
    with pytest.raises(DimensionError):
        ad.gather(x, np.array([5]))


def test_chunk_ola_grads():
    x = t64((18, 3))
    check(lambda: weighted_sum(ad.chunk_rows(x, 6)), [("x", x)])
    c = t64((5, 6, 3))
    check(lambda: weighted_sum(ad.ola_rows(c, 18)), [("c", c)])
    with pytest.raises(ConfigurationError):
        ad.chunk_rows(x, 5)
    with pytest.raises(DimensionError):
        ad.ola_rows(c, 17)


# --- linear algebra / convolutions ---

def test_matmul_linear_grads():
    a, b = t64((4, 5)), t64((5, 3))
    check(lambda: weighted_sum(ad.linear(a, b)), [("a", a), ("b", b)])
    x, w, bias = t64((2, 6, 5)), t64((5, 3)), t64((3,))
    check(lambda: weighted_sum(ad.linear(x, w, bias)),
          [("x", x), ("w", w), ("bias", bias)])
    check(lambda: weighted_sum(ad.linear(x, w)), [("x", x), ("w", w)])


def test_conv2d_avgpool_grads():
    x, k = t64((2, 2, 9, 7)), t64((3, 2, 3, 3))
    check(lambda: weighted_sum(ad.conv2d(x, k)), [("x", x), ("k", k)])
    y = t64((2, 2, 6, 8))
    check(lambda: weighted_sum(ad.avgpool2d(y)), [("y", y)])


def test_conv2d_batch_rows_convolve_alone():
    """Each image of a batch gets exactly the output and input gradient it
    gets alone; the kernel gradient is the sum over the images."""
    x, k = t64((3, 2, 6, 5)), t64((4, 2, 3, 3))
    with ad.Tape() as tape:
        out = ad.conv2d(x, k)
        tape.backward(weighted_sum(out))
    w = np.random.default_rng(0).standard_normal(out.data.size).reshape(
        out.data.shape)
    gk = np.zeros_like(k.data)
    for b in range(3):
        xb = ad.Tensor(x.data[b:b + 1].copy(), requires_grad=True)
        kb = ad.Tensor(k.data, requires_grad=True)
        with ad.Tape() as tape:
            ob = ad.conv2d(xb, kb)
            tape.backward(ad.linear(ad.reshape(ob, (1, -1)),
                                    ad.Tensor(w[b].reshape(-1, 1))))
        np.testing.assert_array_equal(ob.data[0], out.data[b])
        np.testing.assert_array_equal(xb.grad[0], x.grad[b])
        gk += kb.grad
    np.testing.assert_allclose(k.grad, gk, rtol=1e-12)


def test_conv2d_index_cache_is_bounded():
    k = ad.Tensor(np.ones((1, 1, 2, 2)))
    cache = ad._conv2d_scatter_index
    for w in range(2, 2 + 3 * cache.cache_info().maxsize):
        x = t64((2, 1, 3, w))
        with ad.Tape() as tape:
            out = ad.conv2d(x, k)
            ones = ad.Tensor(np.ones((out.data.size, 1)))
            tape.backward(ad.linear(ad.reshape(out, (1, -1)), ones))
        np.testing.assert_array_equal(x.grad[:, 0, 1, 1:-1],
                                      np.full((2, w - 2), 4.0))
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
    check(lambda: weighted_sum(ad.bilstm_bank(x, [p])),
          [("x", x), ("wx", p.wx), ("wh", p.wh), ("b", p.b)])


def test_bilstm_bank_grads_all_outputs():
    x = t64((2, 5, 3))
    p1, p2 = make_lstm_params(3, 4), make_lstm_params(3, 4)
    check(lambda: weighted_sum(ad.bilstm_bank(x, [p1, p2])),
          [("x", x), ("wx1", p1.wx), ("wh1", p1.wh), ("b1", p1.b),
           ("wx2", p2.wx), ("wh2", p2.wh), ("b2", p2.b)])


def test_bilstm_bank_matches_separate_calls():
    """The gate is the product of the two sets run alone, bit for bit."""
    x = t64((2, 5, 3))
    p1, p2 = make_lstm_params(3, 4), make_lstm_params(3, 4)
    gated = ad.bilstm_bank(x, [p1, p2]).data
    np.testing.assert_array_equal(
        gated, ad.bilstm_bank(x, [p1]).data * ad.bilstm_bank(x, [p2]).data)


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
    out_fwd = ad.bilstm_bank(ad.Tensor(x), [p]).data[0]
    out_rev = ad.bilstm_bank(ad.Tensor(x[:, ::-1].copy()), [p]).data[0]
    np.testing.assert_allclose(out_fwd[:, :h], out_rev[::-1, h:], atol=1e-12)


def test_cross_entropy_grad_and_value():
    logits = t64((4, 5))
    labels = np.array([0, 3, 2, 2])
    check(lambda: ad.cross_entropy(logits, labels),
          [("logits", logits)])
    uniform = ad.Tensor(np.zeros((2, 4)))
    assert ad.cross_entropy(uniform, np.array([1, 2])).item() == \
        pytest.approx(np.log(4))


def test_si_snr_grad():
    rng = np.random.default_rng(4)
    target = rng.standard_normal(64)
    est = ad.Tensor(0.7 * target + rng.standard_normal(64))
    check(lambda: ad.si_snr(target, est), [("est", est)])
    rows = rng.standard_normal((3, 32))
    est = ad.Tensor(0.7 * rows + rng.standard_normal((3, 32)))
    check(lambda: weighted_sum(ad.si_snr(rows, est)), [("est", est)])


def test_si_snr_rows_match_one_dimensional_calls():
    """float32 (C, T) rows score and differentiate bit for bit like C
    separate 1-D calls, each given the same output gradient."""
    rng = np.random.default_rng(5)
    target = rng.standard_normal((3, 257)).astype(np.float32)
    est = ad.Tensor(0.6 * target + rng.standard_normal((3, 257))
                    .astype(np.float32), requires_grad=True)
    w = rng.standard_normal(3).astype(np.float32)
    with ad.Tape() as tape:
        rows = ad.si_snr(target, est)
        tape.backward(ad.linear(ad.reshape(rows, (1, 3)),
                                ad.Tensor(w.reshape(3, 1))))
    assert rows.shape == (3,) and rows.dtype == np.float32
    for c in range(3):
        one = ad.Tensor(est.data[c].copy(), requires_grad=True)
        with ad.Tape() as tape:
            val = ad.si_snr(target[c].copy(), one)
            tape.backward(ad.scale(val, w[c]))
        assert rows.data[c].tobytes() == val.data.tobytes()
        assert est.grad[c].tobytes() == one.grad.tobytes()


@pytest.mark.parametrize("target,est", [
    ((2, 8), (2, 9)), ((2, 8), (3, 8)), ((8,), (1, 8)),
    ((2, 2, 8), (2, 2, 8))])
def test_si_snr_rejects_other_shapes(target, est):
    with pytest.raises(DimensionError):
        ad.si_snr(np.ones(target), t64(est))


def test_si_snr_rejects_mixed_dtypes():
    est = ad.Tensor(np.ones(8, dtype=np.float32))
    with pytest.raises(UsageError):
        ad.si_snr(np.arange(8.0), est)


def test_si_snr_zero_energy_target_records_nothing():
    est = t64((8,))
    with ad.Tape() as tape:
        with pytest.raises(DegenerateTargetError):
            ad.si_snr(np.full(8, 3.0), est)
    assert len(tape) == 0


# --- engine behavior ---

def test_no_broadcasting():
    a, b = t64((3, 4)), t64((3, 1))
    for op in (ad.add, ad.sub, ad.mul):
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
        loss = weighted_sum(x)
    with pytest.raises(UsageError):
        ad.Tape().backward(loss)  # produced under a different tape


def test_leaf_grads_accumulate_intermediates_reset():
    """A leaf's grad sums over the tapes it took part in, each with
    intermediates of its own."""
    x = t64((3,))
    grads = []
    for _ in range(2):
        with ad.Tape() as tape:
            loss = ad.mean_axes(ad.mul(x, x), (0,))
        tape.backward(loss)
        grads.append(x.grad.copy())
    np.testing.assert_allclose(grads[1], 2 * grads[0])


def test_backward_runs_once_per_tape():
    x = t64((3,))
    with ad.Tape() as tape:
        loss = weighted_sum(ad.mul(x, x))
    tape.backward(loss)
    first = x.grad.copy()
    with pytest.raises(UsageError):
        tape.backward(loss)
    assert np.array_equal(x.grad, first)


def test_owned_first_grads_are_adopted_and_grads_unchanged(monkeypatch):
    """A first gradient given as owned becomes the grad without a copy.
    Where one array reaches two inputs, or one input is read twice, the
    grads are those of copying every first gradient."""
    t = ad.Tensor(np.zeros(3))
    g = np.ones(3)
    t.accumulate_grad(g, owned=True)
    assert t.grad is g

    def graphs():
        rng = np.random.default_rng(5)
        x, z = t64((3, 4), rng=rng), t64((3, 4), rng=rng)
        w, a = t64((4, 2), rng=rng), t64((5, 4), rng=rng)
        p = make_lstm_params(4, 3, rng)
        seq = t64((2, 3, 4), rng=rng)
        losses = [
            weighted_sum(ad.add(x, x)),
            weighted_sum(ad.mul(x, x)),
            weighted_sum(ad.concat([ad.linear(x, w), ad.linear(a, w)], 0)),
            weighted_sum(ad.add(ad.linear(x, t64((4, 4), rng=rng)),
                                ad.add(x, z))),
            weighted_sum(ad.concat([ad.reshape(ad.bilstm_bank(seq, [p, p]),
                                               (6, 6)),
                                    ad.reshape(seq, (6, 4))], 1)),
        ]
        return losses, [x, z, w, a, seq] + list(p)

    def grads():
        with ad.Tape() as tape:
            losses, leaves = graphs()
            total = losses[0]
            for loss in losses[1:]:
                total = ad.add(total, loss)
        tape.backward(total)
        return [leaf.grad for leaf in leaves]

    adopted = grads()
    copy_first = ad.Tensor.accumulate_grad
    monkeypatch.setattr(ad.Tensor, "accumulate_grad",
                        lambda self, g, owned=False: copy_first(self, g))
    for got, want in zip(adopted, grads()):
        assert np.array_equal(got, want)


def test_backward_drops_every_intermediate_grad():
    """Once a node's backward has used its output's grad, the tape lets
    it go: no recorded output holds a grad after backward, and the
    leaves hold theirs, here through an intermediate with two consumers."""
    x = t64((3,))
    w = np.random.default_rng(0).standard_normal(3)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        y3 = ad.scale(y, 3.0)
        total = ad.add(y, y3)
        row = ad.reshape(total, (1, -1))
        loss = ad.linear(row, ad.Tensor(w.reshape(-1, 1)))
        recorded = [y, y3, total, row, loss]
        assert len(tape) == len(recorded)
        tape.backward(loss)
    assert all(out.grad is None for out in recorded)
    np.testing.assert_allclose(x.grad, 8.0 * x.data * w)


def test_detach_blocks_gradient():
    x = t64((3,))
    with ad.Tape() as tape:
        y = ad.mul(x, x).detach()
        z = weighted_sum(y)
    assert not z.requires_grad


def test_no_tape_records_nothing():
    """An op run outside every tape still requires grad but is recorded
    nowhere: a tape entered afterwards stays empty and refuses to
    back-propagate it."""
    x = t64((3,))
    y = weighted_sum(ad.mul(x, x))
    assert y.requires_grad
    with ad.Tape() as tape:
        pass
    assert len(tape) == 0
    with pytest.raises(UsageError, match="not produced under this tape"):
        tape.backward(y)
    assert x.grad is None


def test_threads_record_onto_their_own_tapes():
    """Two threads inside their own tapes at once, switching often: each
    tape holds exactly the nodes its own thread produced."""
    barrier = threading.Barrier(2, timeout=10)
    tapes, produced, errors = {}, {}, []

    def work(name):
        try:
            x = t64((4,))
            outs = []
            with ad.Tape() as tape:
                barrier.wait()  # both tapes are now entered
                for _ in range(300):
                    outs.append(ad.mul(x, x))
                barrier.wait()  # neither exits before both are done
            tapes[name], produced[name] = tape, outs
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for name in "ab":
        recorded = [node.out for node in tapes[name]._nodes]
        assert len(recorded) == 300
        assert all(r is o for r, o in zip(recorded, produced[name]))
    assert ad.active_tape() is None


def test_float32_ops_stay_float32():
    x = ad.Tensor(np.ones((2, 3), dtype=np.float32))
    x.requires_grad = True
    assert ad.clamp_min(x, 0.0).data.dtype == np.float32
    assert ad.mean_axes(x, (0, 1)).data.dtype == np.float32


def test_bilstm_rejects_bad_shapes():
    x = t64((2, 5, 3))
    p = make_lstm_params(4, 4)  # wrong feature width
    with pytest.raises(ConfigurationError):
        ad.bilstm_bank(x, [p])
