"""The time-major BiLSTM gate against the original batch-major kernel.

`reference_bilstm_bank` is the earlier kernel, kept verbatim as a test
oracle: it returns one output per parameter set, stacks D copies of the
input, stores every per-step buffer batch-major and keeps tanh(c).
`bilstm_bank` returns one (B, S, 2H + F) output: the product of two sets
or the output of one, then a copy of its input (the MulCat skip). It
must give the same float32 bits as the oracle's outputs multiplied with
`ad.mul` and followed by the input, for the output and for every
gradient, also over a chain of taped calls. It must hold less memory:
under a tape it keeps only the gates and the stacked weights for
backward, which rebuilds the cell and hidden states from the gates,
writes the gate gradients over them, and then drops both, so a spent
tape holds neither.
"""

import tracemalloc

import numpy as np
import pytest

import voicesep.autodiff as ad
from voicesep.autodiff import Tensor
from voicesep.errors import ConfigurationError


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


def oracle(x, param_sets):
    """The reference kernel's outputs combined as the fused op returns
    them: the product of two sets, or the output of one, followed by
    the input along the last axis. The concatenation is a node of its
    own, whose backward hands each part its columns of the gradient."""
    outs = reference_bilstm_bank(x, param_sets)
    gated = ad.mul(*outs) if len(outs) == 2 else outs[0]
    h2 = gated.data.shape[-1]
    cat = Tensor(np.concatenate([gated.data, x.data], axis=-1))

    def backward(g):
        for part, cols in ((x, g[..., h2:]), (gated, g[..., :h2])):
            if part.requires_grad:
                part.accumulate_grad(cols)
    return ad._finish(cat, (gated, x), backward)


# (B, S, F, H): the paper config on a 1 s crop (N = H = 128, 64 chunks of
# 64 frames) and the N = H = 32 models of the small fit-and-evaluate run
SHAPES = {"paper": (64, 64, 128, 128), "small": (47, 44, 32, 32)}


def make_case(shape, n_sets, batched=True, seed=0):
    """Input, parameter sets and loss weight. Unbatched is one sequence,
    given as (1, S, F): the op takes batched input only."""
    B, S, F, H = shape
    B = B if batched else 1
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, S, F)).astype(np.float32)
    sets = []
    for _ in range(n_sets):
        lim_x, lim_h = 1 / np.sqrt(F), 1 / np.sqrt(H)
        b = rng.uniform(-0.1, 0.1, (2, 4 * H))
        b[:, H:2 * H] += 1.0
        sets.append((rng.uniform(-lim_x, lim_x, (2, F, 4 * H)),
                     rng.uniform(-lim_h, lim_h, (2, H, 4 * H)), b))
    sets = [tuple(a.astype(np.float32) for a in p) for p in sets]
    weight = rng.standard_normal((B, S, 2 * H + F)).astype(np.float32)
    return x, sets, weight


def run(kernel, case, tape, requires_grad=True):
    """Output and [x, wx, wh, b, ...] grads of `kernel` on `case`; the
    loss is a fixed weighted sum of the output."""
    x_data, set_data, weight = case
    x = Tensor(x_data.copy(), requires_grad=requires_grad)
    sets = [ad.LSTMParams(*(Tensor(a.copy(), requires_grad=requires_grad)
                            for a in p)) for p in set_data]
    if not tape:
        return kernel(x, sets).data, []
    with ad.Tape() as t:
        out = kernel(x, sets)
        if requires_grad:
            t.backward(ad.linear(ad.reshape(out, (1, -1)),
                                 Tensor(weight.reshape(-1, 1))))
    grads = [x.grad] + [a.grad for p in sets for a in p]
    return out.data, grads


def assert_same(new, ref):
    (out, grads), (ref_out, ref_grads) = new, ref
    assert out.dtype == ref_out.dtype == np.float32
    assert np.array_equal(out, ref_out)
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert (g is None) == (r is None)
        if g is not None:
            assert np.array_equal(g, r)


@pytest.mark.parametrize("n_sets", [1, 2])
def test_output_is_the_gate_then_the_input(n_sets):
    """The first 2H columns hold the reference's gate, the product of the
    two sets' outputs or the one set's output; the last F hold the input
    exactly."""
    x_data, set_data, _ = make_case(SHAPES["small"], n_sets)
    x = Tensor(x_data)
    sets = [ad.LSTMParams(*(Tensor(a) for a in p)) for p in set_data]
    refs = [o.data for o in reference_bilstm_bank(x, sets)]
    y = ad.bilstm_bank(x, sets).data
    h2 = refs[0].shape[-1]
    assert y.shape == x_data.shape[:2] + (h2 + x_data.shape[2],)
    assert np.array_equal(y[..., :h2], np.prod(refs, axis=0))
    assert np.array_equal(y[..., h2:], x_data)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("batched", [True, False], ids=["BSF", "SF"])
@pytest.mark.parametrize("tape", [False, True], ids=["no_tape", "tape"])
def test_bit_identical_to_reference(shape, batched, tape):
    case = make_case(shape, n_sets=2, batched=batched)
    assert_same(run(ad.bilstm_bank, case, tape), run(oracle, case, tape))


# (B, S, F, H) around the time blocks of the input projection: S one step
# past two blocks, S shorter than one block, and a single step. Unbatched,
# B = 1, so a block of one step would be a single-row product.
BLOCK = ad._PROJ_BLOCK
EDGE_SHAPES = {"tail": (3, 2 * BLOCK + 1, 128, 128),
               "short": (3, BLOCK // 2 + 1, 128, 128),
               "one_step": (3, 1, 128, 128)}


@pytest.mark.parametrize("shape", EDGE_SHAPES.values(),
                         ids=EDGE_SHAPES.keys())
@pytest.mark.parametrize("batched", [True, False], ids=["BSF", "SF"])
@pytest.mark.parametrize("tape", [False, True], ids=["no_tape", "tape"])
def test_bit_identical_across_time_blocks(shape, batched, tape):
    case = make_case(shape, n_sets=2, batched=batched, seed=3)
    assert_same(run(ad.bilstm_bank, case, tape), run(oracle, case, tape))


ALL_SHAPES = {**SHAPES, **EDGE_SHAPES}


@pytest.mark.parametrize("shape", ALL_SHAPES.values(), ids=ALL_SHAPES.keys())
def test_bit_identical_single_set(shape):
    """One set: the "-gating" ablation, with no product."""
    for batched in (True, False):
        case = make_case(shape, n_sets=1, batched=batched, seed=1)
        for tape in (False, True):
            assert_same(run(ad.bilstm_bank, case, tape),
                        run(oracle, case, tape))


def test_tape_without_grads_records_nothing():
    case = make_case(SHAPES["small"], n_sets=2)
    with ad.Tape() as tape:
        out, _ = run(ad.bilstm_bank, case, False, requires_grad=False)
    assert len(tape) == 0
    assert_same((out, []), run(oracle, case, False))


def test_backward_closures_are_owned_by_bilstm_bank():
    """The gate is one tape node, and per-op backward timing attributes
    its closure to the function whose name leads its __qualname__."""
    for n_sets in (1, 2):
        x_data, set_data, _ = make_case((2, 3, 4, 2), n_sets)
        sets = [ad.LSTMParams(*(Tensor(a, requires_grad=True) for a in p))
                for p in set_data]
        with ad.Tape() as tape:
            ad.bilstm_bank(Tensor(x_data), sets)
        assert [node.backward.__qualname__.split(".")[0]
                for node in tape._nodes] == ["bilstm_bank"]


def test_rejects_unbatched_input_and_other_set_counts():
    x_data, set_data, _ = make_case((2, 3, 4, 2), n_sets=3)
    sets = [ad.LSTMParams(*(Tensor(a) for a in p)) for p in set_data]
    with pytest.raises(ConfigurationError):
        ad.bilstm_bank(Tensor(x_data[0]), sets[:2])  # (S, F)
    for n in (0, 3):
        with pytest.raises(ConfigurationError):
            ad.bilstm_bank(Tensor(x_data), sets[:n])


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
# A wide input, so that a time-major copy of it or a (D, B, S, F)
# input-gradient block would not fit within the slack of a bound that
# leaves it out.
WIDE_SHAPE = (64, 64, 128, 32)


def mem_case(shape=MEM_SHAPE):
    B, S, F, H = shape
    x_data, set_data, _ = make_case(shape, n_sets=2)
    x = Tensor(x_data, requires_grad=True)
    sets = [ad.LSTMParams(*(Tensor(a, requires_grad=True) for a in p))
            for p in set_data]
    D, item = 4, 4
    sizes = {"proj": S * B * D * 4 * H * item,
             "proj_block": 2 * BLOCK * B * D // 2 * 4 * H * item,
             "step": (D * B * 4 * H + 3 * D * B * H) * item,
             "bwd_step": (7 * D * B * H + D * B * 3 * H
                          + D * B * 4 * H) * item,
             "params": D * (F + H + 1) * 4 * H * item,
             "stacked": D * (F + H) * 4 * H * item,
             "proj_weights": D * F * 4 * H * item,
             "staging": 2 * BLOCK * B * F * item,
             "outs": 2 * B * S * 2 * H * item,
             "out": B * S * (2 * H + F) * item,
             "gates": S * D * B * 4 * H * item,
             "cs": S * D * B * H * item,
             "hs": S * D * B * H * item,
             "dZ": D * B * S * 4 * H * item,
             "h_prev": 2 * B * S * H * item,
             "x": B * S * F * item,
             "x_time_major": S * B * F * item,
             "input_copy": D * B * S * F * item,
             "tanh_c": D * B * S * H * item}
    assert SLACK < min(sizes["input_copy"], sizes["tanh_c"])
    return x, sets, sizes


def test_no_tape_call_peaks_below_outputs_plus_one_input_copy():
    """No (S, B, D, 4H) projection, no time-major input copy, no
    (S, D, B, H) hidden-state staging and no per-set outputs: the input
    is staged and projected one block of steps at a time, and each step's
    hidden states, multiplied across the two sets, go straight into the
    one output, beside the skip copy of the input. So the peak is the
    output, one staging block, one projection block, the per-step
    scratch and the stacked weights. The input is wide, so that a
    time-major copy of it would not fit in the slack."""
    x, sets, sizes = mem_case(WIDE_SHAPE)
    _, _, peak = traced_call(lambda: ad.bilstm_bank(x, sets))
    floor = sizes["out"] + sizes["staging"] + sizes["proj_block"]
    bound = (floor + sizes["step"] + sizes["stacked"]
             + sizes["proj_weights"] + SLACK)
    assert bound < floor + min(sizes["x_time_major"], sizes["hs"],
                               sizes["outs"])
    assert floor <= peak < bound


def test_taped_call_holds_no_input_copy_or_tanh_c():
    """A taped call keeps only the gates for backward -- no input copy,
    no tanh(c), no cell states and no per-set outputs -- and returns the
    gated product beside the skip copy of the input."""
    x, sets, sizes = mem_case()
    tape = ad.Tape()

    def call():
        with tape:
            return ad.bilstm_bank(x, sets)
    _, held, _ = traced_call(call)
    saved = sizes["gates"] + sizes["out"]
    assert SLACK < min(sizes["cs"], sizes["outs"])
    assert saved <= held < saved + SLACK


def test_spent_tape_holds_no_gates_or_stacked_weights():
    """Once backward has run, a taped call holds none of what it saved:
    with the tape, the loss and the output still referenced -- each
    output refers to its tape, which keeps every backward closure alive
    -- only the output itself and the grads backward left stay, within
    less than the size of the stacked weights."""
    x, sets, sizes = mem_case()

    def call_and_backward():
        with ad.Tape() as tape:
            out = ad.bilstm_bank(x, sets)
            loss = ad.mean_axes(out, (0, 1, 2))
        tape.backward(loss)
        return tape, loss, out
    _, held, _ = traced_call(call_and_backward)
    kept = sizes["out"] + sizes["x"] + sizes["params"]
    assert sizes["stacked"] < sizes["gates"]
    assert kept <= held < kept + sizes["stacked"]


def test_backward_peaks_without_a_stacked_input_gradient():
    """Backward holds the output gradient, the rebuilt cell states, every
    direction's h_prev, which its step loop fills as it rebuilds h, and a
    reversed copy of the input rows for the reverse directions'
    input-weight gradient (the forward ones read x itself), besides the
    per-step scratch and the parameter gradients. No time-major tanh(c)
    or hidden states, and no staged set-output gradients; the cell
    states are dropped before the input gradient is built. dZ takes no
    memory of its own: it is written over the gates. The input gradient
    is built one direction at a time, in a forward sum, a reverse sum
    and one product: never a (D, B, S, F) block."""
    x, sets, sizes = mem_case(WIDE_SHAPE)
    with ad.Tape() as tape:
        loss = ad.mean_axes(ad.bilstm_bank(x, sets), (0, 1, 2))
    _, _, peak = traced_call(lambda: tape.backward(loss))
    held = sizes["out"] + sizes["hs"] + sizes["x"]
    bound = held + sizes["bwd_step"] + sizes["params"] + 3 * sizes["x"] \
        + SLACK
    assert bound < held + 3 * sizes["x"] + min(
        sizes["cs"], sizes["input_copy"], sizes["dZ"])
    assert held + 3 * sizes["x"] <= peak < bound


def test_chained_calls_match_the_reference():
    """Taped calls chained as the model's blocks chain them, each output
    projected back to the input width and alternating between (B, S, F)
    and (S, B, F) inputs, over three steps of a tape each: every call's
    output and every gradient keeps the reference's bits."""
    B, S, H = 6, 4, 8
    for step in range(3):
        rng = np.random.default_rng(step)
        cases = [make_case((B, S, 2 * H, H), n_sets, seed=10 * step + i)
                 for i, n_sets in enumerate((2, 2, 1, 2))]
        x_data = rng.standard_normal((B, S, 2 * H)).astype(np.float32)
        w_proj = rng.standard_normal((4 * H, 2 * H)).astype(np.float32)
        weight = rng.standard_normal((B * S * 2 * H, 1)).astype(np.float32)

        def chain(kernel):
            x = Tensor(x_data.copy(), requires_grad=True)
            calls = [[ad.LSTMParams(*(Tensor(a.copy(), requires_grad=True)
                                      for a in p)) for p in sets]
                     for _, sets, _ in cases]
            outs = []
            with ad.Tape() as tape:
                y = x
                for sets in calls:
                    outs.append(kernel(y, sets))
                    y = ad.transpose(ad.linear(outs[-1], Tensor(w_proj)),
                                     (1, 0, 2))
                tape.backward(ad.linear(ad.reshape(y, (1, -1)),
                                        Tensor(weight)))
            return ([o.data for o in outs],
                    [x.grad] + [a.grad for sets in calls for p in sets
                                for a in p])

        got, want = chain(ad.bilstm_bank), chain(oracle)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.shape == w.shape and np.array_equal(g, w)
