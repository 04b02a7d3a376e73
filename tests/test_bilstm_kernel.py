"""The time-major BiLSTM kernel against the original batch-major one.

`reference_bilstm_bank` is the earlier kernel, kept verbatim as a test
oracle: it stacks D copies of the input, stores every per-step buffer
batch-major and keeps tanh(c). The rewrite must give the same float32
bits for the outputs and for every gradient, and must hold less memory.
"""

import tracemalloc

import numpy as np
import pytest

import voicesep.autodiff as ad
from voicesep.autodiff import Tensor


def reference_bilstm_bank(x, param_sets):
    dims = [ad._check_lstm_params(p) for p in param_sets]
    F, H = dims[0]
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    B, S, _ = xd.shape
    dt = x.data.dtype
    n_sets = len(param_sets)
    D = 2 * n_sets
    wxs = np.concatenate([p.wx.data for p in param_sets])
    whs = np.concatenate([p.wh.data for p in param_sets])
    bs = np.concatenate([p.b.data for p in param_sets])

    xrev = xd[:, ::-1]
    X = np.empty((D, B, S, F), dtype=dt)
    for s in range(n_sets):
        X[2 * s] = xd
        X[2 * s + 1] = xrev
    pre = np.matmul(X.reshape(D, B * S, F), wxs)
    pre += bs[:, None, :]
    pre = pre.reshape(D, B, S, 4 * H)

    gates = np.empty((D, B, S, 4 * H), dtype=dt)
    cs = np.empty((D, B, S, H), dtype=dt)
    tcs = np.empty((D, B, S, H), dtype=dt)
    hs = np.empty((D, B, S, H), dtype=dt)
    h = np.zeros((D, B, H), dtype=dt)
    c = np.zeros((D, B, H), dtype=dt)
    H3 = 3 * H
    for t in range(S):
        z = pre[:, :, t, :] + np.matmul(h, whs)
        gt = gates[:, :, t, :]
        np.tanh(z[..., :H3] * 0.5, out=gt[..., :H3])
        gt[..., :H3] *= 0.5
        gt[..., :H3] += 0.5
        np.tanh(z[..., H3:], out=gt[..., H3:])
        c = gt[..., H:2 * H] * c + gt[..., :H] * gt[..., H3:]
        tc = np.tanh(c)
        h = gt[..., 2 * H:H3] * tc
        cs[:, :, t] = c
        tcs[:, :, t] = tc
        hs[:, :, t] = h

    outs = []
    for s in range(n_sets):
        od = np.concatenate([hs[2 * s], hs[2 * s + 1, :, ::-1]], axis=2)
        outs.append(Tensor(od[0] if squeeze else od))

    def make_backward(out_grads):
        gst = np.empty((D, B, S, H), dtype=dt)
        for s, g in enumerate(out_grads):
            g3 = g[None] if squeeze else g
            gst[2 * s] = g3[..., :H]
            gst[2 * s + 1] = g3[:, ::-1, H:]
        dZ = np.empty((D, B, S, 4 * H), dtype=dt)
        dh = np.zeros((D, B, H), dtype=dt)
        dc = np.zeros((D, B, H), dtype=dt)
        wh_t = np.ascontiguousarray(whs.transpose(0, 2, 1))
        for t in range(S - 1, -1, -1):
            gt = gates[:, :, t, :]
            zi = gt[..., :H]
            zf = gt[..., H:2 * H]
            zo = gt[..., 2 * H:H3]
            zg = gt[..., H3:]
            tc = tcs[:, :, t]
            dht = gst[:, :, t] + dh
            dct = dc + dht * zo * (1.0 - tc * tc)
            dzt = dZ[:, :, t, :]
            dzt[..., :H] = dct * zg
            if t > 0:
                dzt[..., H:2 * H] = dct * cs[:, :, t - 1]
            else:
                dzt[..., H:2 * H] = 0.0
            dzt[..., 2 * H:H3] = dht * tc
            sg = dzt[..., :H3]
            sgate = gt[..., :H3]
            sg *= sgate
            sg *= (1.0 - sgate)
            dzt[..., H3:] = dct * zi * (1.0 - zg * zg)
            dh = np.matmul(dzt, wh_t)
            dc = dct * zf
        dZ2 = dZ.reshape(D, B * S, 4 * H)
        for s, p in enumerate(param_sets):
            sl = slice(2 * s, 2 * s + 2)
            if p.b.requires_grad:
                p.b.accumulate_grad(dZ[sl].sum(axis=(1, 2)))
            if p.wh.requires_grad:
                h_prev = np.zeros((2, B, S, H), dtype=dt)
                h_prev[:, :, 1:] = hs[sl][:, :, :-1]
                p.wh.accumulate_grad(np.matmul(
                    h_prev.reshape(2, B * S, H).transpose(0, 2, 1),
                    dZ2[sl]))
            if p.wx.requires_grad:
                p.wx.accumulate_grad(np.matmul(
                    X[sl].reshape(2, B * S, F).transpose(0, 2, 1), dZ2[sl]))
        if x.requires_grad:
            dX = np.matmul(dZ2, wxs.transpose(0, 2, 1)).reshape(D, B, S, F)
            dx = dX[0::2].sum(axis=0) + dX[1::2, :, ::-1].sum(axis=0)
            x.accumulate_grad(dx[0] if squeeze else dx)

    tape = ad.active_tape()
    needs = x.requires_grad or any(
        p.wx.requires_grad or p.wh.requires_grad or p.b.requires_grad
        for p in param_sets)
    for o in outs:
        o.requires_grad = needs
    if tape is None or not needs:
        return outs
    pending = {}
    anchor = Tensor(np.zeros((), dtype=dt))
    anchor.requires_grad = True

    def anchor_backward(_g):
        zero_shape = (S, 2 * H) if squeeze else (B, S, 2 * H)
        make_backward([pending.get(i, np.zeros(zero_shape, dtype=dt))
                       for i in range(n_sets)])
        pending.clear()

    tape.record(anchor, anchor_backward)
    for idx, o in enumerate(outs):
        def buffer_backward(g, idx=idx):
            pending[idx] = g
            anchor.grad = np.ones((), dtype=dt)
        tape.record(o, buffer_backward)
    return outs


# (B, S, F, H): the paper config on a 1 s crop (N = H = 128, 64 chunks of
# 64 frames) and the N = H = 32 models of the small fit-and-evaluate run
SHAPES = {"paper": (64, 64, 128, 128), "small": (47, 44, 32, 32)}


def make_case(shape, n_sets, batched, seed=0):
    B, S, F, H = shape
    rng = np.random.default_rng(seed)
    xs = (B, S, F) if batched else (S, F)
    x = rng.standard_normal(xs).astype(np.float32)
    sets = []
    for _ in range(n_sets):
        lim_x, lim_h = 1 / np.sqrt(F), 1 / np.sqrt(H)
        b = rng.uniform(-0.1, 0.1, (2, 4 * H))
        b[:, H:2 * H] += 1.0
        sets.append((rng.uniform(-lim_x, lim_x, (2, F, 4 * H)),
                     rng.uniform(-lim_h, lim_h, (2, H, 4 * H)), b))
    sets = [tuple(a.astype(np.float32) for a in p) for p in sets]
    out_shape = xs[:-1] + (2 * H,)
    weights = [rng.standard_normal(out_shape).astype(np.float32)
               for _ in range(n_sets)]
    return x, sets, weights


def run(kernel, case, tape, used=None, requires_grad=True):
    """Outputs and [x, wx, wh, b, ...] grads of `kernel` on `case`; the
    loss is a fixed weighted sum of the outputs listed in `used`."""
    x_data, set_data, weights = case
    x = Tensor(x_data.copy(), requires_grad=requires_grad)
    sets = [ad.LSTMParams(*(Tensor(a.copy(), requires_grad=requires_grad)
                            for a in p)) for p in set_data]
    if not tape:
        return [o.data for o in kernel(x, sets)], []
    used = range(len(sets)) if used is None else used
    with ad.Tape() as t:
        outs = kernel(x, sets)
        if requires_grad:
            loss = None
            for i in used:
                term = ad.tsum(ad.mul(outs[i], Tensor(weights[i])))
                loss = term if loss is None else ad.add(loss, term)
            t.backward(loss)
    grads = [x.grad] + [a.grad for p in sets for a in p]
    return [o.data for o in outs], grads


def assert_same(new, ref):
    (outs, grads), (ref_outs, ref_grads) = new, ref
    assert len(outs) == len(ref_outs) and len(grads) == len(ref_grads)
    for o, r in zip(outs, ref_outs):
        assert o.dtype == r.dtype == np.float32
        assert np.array_equal(o, r)
    for g, r in zip(grads, ref_grads):
        assert (g is None) == (r is None)
        if g is not None:
            assert np.array_equal(g, r)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("batched", [True, False], ids=["BSF", "SF"])
@pytest.mark.parametrize("tape", [False, True], ids=["no_tape", "tape"])
def test_bit_identical_to_reference(shape, batched, tape):
    case = make_case(shape, n_sets=2, batched=batched)
    assert_same(run(ad.bilstm_bank, case, tape),
                run(reference_bilstm_bank, case, tape))


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_bit_identical_single_set_and_partial_use(shape):
    """One set (the ungated ablation), and a loss that reaches only the
    second of two sets, whose first set must get zero grads."""
    one = make_case(shape, n_sets=1, batched=True, seed=1)
    assert_same(run(ad.bilstm_bank, one, True),
                run(reference_bilstm_bank, one, True))
    two = make_case(shape, n_sets=2, batched=True, seed=2)
    new = run(ad.bilstm_bank, two, True, used=[1])
    assert_same(new, run(reference_bilstm_bank, two, True, used=[1]))
    assert all(np.all(g == 0) for g in new[1][1:4])


def test_tape_without_grads_records_nothing():
    case = make_case(SHAPES["small"], n_sets=2, batched=True)
    with ad.Tape() as tape:
        outs, _ = run(ad.bilstm_bank, case, False, requires_grad=False)
    assert len(tape) == 0
    assert_same((outs, []), run(reference_bilstm_bank, case, False))


def test_backward_closures_are_owned_by_bilstm_bank():
    """Per-op backward timing attributes a closure to the function whose
    name leads its __qualname__."""
    x_data, set_data, _ = make_case((2, 3, 4, 2), n_sets=2, batched=True)
    sets = [ad.LSTMParams(*(Tensor(a, requires_grad=True) for a in p))
            for p in set_data]
    with ad.Tape() as tape:
        ad.bilstm_bank(Tensor(x_data), sets)
    owners = {node.backward.__qualname__.split(".")[0]
              for node in tape._nodes}
    assert owners == {"bilstm_bank"}


def traced_call(fn):
    """(result, bytes still held, peak bytes above the start) of fn()."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


# B, S, F, H. The slack covers what does not grow with B * S: the stacked
# weights and the per-step h, c and gate scratch.
MEM_SHAPE = (64, 64, 32, 32)
SLACK = 512 * 1024


def mem_case():
    B, S, F, H = MEM_SHAPE
    x_data, set_data, _ = make_case(MEM_SHAPE, n_sets=2, batched=True)
    x = Tensor(x_data, requires_grad=True)
    sets = [ad.LSTMParams(*(Tensor(a, requires_grad=True) for a in p))
            for p in set_data]
    D, item = 4, 4
    sizes = {"proj": S * B * D * 4 * H * item,
             "outs": 2 * B * S * 2 * H * item,
             "gates": S * D * B * 4 * H * item,
             "cs": S * D * B * H * item,
             "input_copy": D * B * S * F * item,
             "tanh_c": D * B * S * H * item}
    assert SLACK < min(sizes["input_copy"], sizes["tanh_c"])
    return x, sets, sizes


def test_no_tape_call_peaks_at_projection_plus_outputs():
    x, sets, sizes = mem_case()
    _, _, peak = traced_call(lambda: ad.bilstm_bank(x, sets))
    assert sizes["proj"] <= peak < sizes["proj"] + sizes["outs"] + SLACK


def test_taped_call_holds_no_input_copy_or_tanh_c():
    x, sets, sizes = mem_case()
    tape = ad.Tape()

    def call():
        with tape:
            return ad.bilstm_bank(x, sets)
    _, held, _ = traced_call(call)
    saved = sizes["gates"] + sizes["cs"] + sizes["outs"]
    assert saved <= held < saved + SLACK
