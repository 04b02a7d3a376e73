"""Separator wiring: init, shapes, gating ablation, encode constraints,
and the encoder and wave decoder against the convolutions they replace.

`reference_conv1d` and `reference_conv1d_transpose` are the forward math
of the earlier convolution ops, kept as plain-numpy oracles: `encode` is
the stride-L/2 convolution and the wave decoder its transpose, computed
by framing and overlap-add (`chunk_rows`, `ola_rows`) around `linear`.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voicesep.autodiff as ad
from voicesep import dsp
from voicesep.errors import ConfigurationError, InputError, NumericError
from voicesep.losses import MAX_CHANNELS
from voicesep.model import (ModelConfig, decode_head, encode, forward,
                            init_params, mulcat_block, separate)

SMALL = dict(n_filters=12, kernel_len=8, num_blocks=4, hidden=10,
             num_speakers=2)


def small_model(seed=0, **over):
    cfg = ModelConfig(**{**SMALL, **over})
    return init_params(cfg, seed=seed)


def count_parameters(model):
    return sum(p.data.size for _, p in model.named_parameters())


def test_init_deterministic_and_bounded():
    m1, m2 = small_model(7), small_model(7)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(),
                                  m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)
        assert np.all(np.isfinite(p1.data))
    assert m1.params["prelu.slope"].item() == 0.25
    # forget-gate biases +1, all other biases 0
    b = m1.params["block1.lstm1.b"].data
    h = SMALL["hidden"]
    assert np.all(b[:, h:2 * h] == 1.0)
    assert np.all(b[:, :h] == 0.0) and np.all(b[:, 2 * h:] == 0.0)
    # weights inside +-1/sqrt(fan-in)
    wx = m1.params["block1.lstm1.wx"].data
    assert np.max(np.abs(wx)) <= 1.0 / np.sqrt(SMALL["n_filters"])


def test_different_seeds_differ():
    a, b = small_model(0), small_model(1)
    assert np.any(a.params["encoder.kernel"].data
                  != b.params["encoder.kernel"].data)


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("t", [800, 2000])
def test_shape_contract(c, t):
    m = small_model(num_speakers=c)
    groups = forward(m, ad.Tensor(np.random.default_rng(0)
                                  .standard_normal(t).astype(np.float32)))
    assert len(groups) == SMALL["num_blocks"] // 2
    for group in groups:
        assert group.data.shape == (c, t)


def test_multiloss_false_only_final_group():
    m = small_model()
    x = np.random.default_rng(1).standard_normal(800).astype(np.float32)
    all_groups = forward(m, ad.Tensor(x.copy()), multiloss=True)
    final_only = forward(m, ad.Tensor(x.copy()), multiloss=False)
    assert len(final_only) == 1
    np.testing.assert_array_equal(all_groups[-1].data, final_only[0].data)


def test_separate_matches_final_group():
    m = small_model()
    x = np.random.default_rng(2).standard_normal(800).astype(np.float32)
    outs = separate(m, x)
    groups = forward(m, ad.Tensor(x.astype(np.float32)), multiloss=False)
    np.testing.assert_array_equal(np.stack(outs), groups[0].data)


def test_separate_keeps_any_length():
    """4001 samples is no multiple of the stride (4): the input is
    zero-padded to 4004 and every channel cropped back to 4001."""
    m = small_model()
    x = np.random.default_rng(5).standard_normal(4001).astype(np.float32)
    outs = separate(m, x)
    assert [o.shape for o in outs] == [(4001,), (4001,)]
    padded = separate(m, np.pad(x, (0, 3)))
    for a, b in zip(outs, padded):
        np.testing.assert_array_equal(a, b[:4001])


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_separate_rejects_non_finite_input(bad):
    """1e39 is finite in float64 but overflows the float32 the model uses."""
    x = np.zeros(800)
    x[123] = bad
    with pytest.raises(NumericError, match="non-finite"):
        separate(small_model(), x)


def test_gating_ablation_changes_param_count():
    full = small_model()
    nogate = small_model(gating=False)
    assert count_parameters(nogate) < count_parameters(full)
    # exactly one LSTM's worth per block
    h, n = SMALL["hidden"], SMALL["n_filters"]
    per_lstm = 2 * (n * 4 * h) + 2 * (h * 4 * h) + 2 * 4 * h
    diff = count_parameters(full) - count_parameters(nogate)
    assert diff == SMALL["num_blocks"] * per_lstm


@pytest.mark.parametrize("gating", [True, False])
def test_each_block_records_one_bilstm_bank_node(gating):
    """The MulCat gate (or the single LSTM of the ablation) is one tape
    node per block: no separate product, no per-output nodes."""
    m = small_model(gating=gating)
    x = np.random.default_rng(2).standard_normal(800).astype(np.float32)
    with ad.Tape() as tape:
        forward(m, ad.Tensor(x))
    owners = [node.backward.__qualname__.split(".")[0]
              for node in tape._nodes]
    assert owners.count("bilstm_bank") == SMALL["num_blocks"]


@pytest.mark.parametrize("index", [1, 2], ids=["along_r", "along_k"])
def test_mulcat_block_frees_gate_and_concat_without_a_tape(monkeypatch,
                                                           index):
    """With no tape, the gated product is freed once the concatenation
    has read it, and the concatenation once the projection has: neither
    is alive when a later op of the block starts."""
    m = small_model()
    v = ad.Tensor(np.random.default_rng(4).standard_normal(
        (5, 6, SMALL["n_filters"])).astype(np.float32))
    outputs = {}   # op -> weak reference to the array of its last output
    starts = []    # (op, the ops whose last output is alive as it starts)

    def spy(name, op):
        def call(*args, **kwargs):
            starts.append((name, {k for k, ref in outputs.items()
                                  if ref() is not None}))
            out = op(*args, **kwargs)
            outputs[name] = weakref.ref(out.data)
            return out
        return call
    for name in ("bilstm_bank", "concat", "linear", "transpose"):
        monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
    mulcat_block(m, v, index)
    ops = [name for name, _ in starts]
    at_linear = ops.index("linear")
    assert "bilstm_bank" not in starts[at_linear][1]
    assert ops[at_linear + 1:] == (["transpose"] if index == 1 else [])
    for _, alive in starts[at_linear + 1:]:
        assert not alive & {"bilstm_bank", "concat"}


def test_gating_false_still_forward():
    m = small_model(gating=False)
    x = np.random.default_rng(3).standard_normal(800).astype(np.float32)
    outs = separate(m, x)
    assert len(outs) == 2 and outs[0].shape == (800,)


def test_encode_rejects_bad_lengths():
    m = small_model()
    with pytest.raises(InputError):
        forward(m, ad.Tensor(np.zeros(801, dtype=np.float32)))
    with pytest.raises(InputError):
        forward(m, ad.Tensor(np.zeros(4, dtype=np.float32)))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "num_blocks": 3}).validate()  # must be even
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "kernel_len": 7}).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "num_speakers": 0}).validate()


def test_config_bounds_speakers_by_the_permutation_search():
    """C beyond losses.MAX_CHANNELS is refused, whether built directly
    or read back from a dict."""
    ModelConfig(**{**SMALL, "num_speakers": MAX_CHANNELS}).validate()
    with pytest.raises(ConfigurationError, match="num_speakers"):
        ModelConfig(num_speakers=10).validate()
    with pytest.raises(ConfigurationError, match="num_speakers"):
        ModelConfig.from_dict({**SMALL, "num_speakers": MAX_CHANNELS + 1})


def test_config_round_trip():
    cfg = ModelConfig(**SMALL, chunk_len=14)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_channel_order_is_arbitrary_convention():
    """Comparisons must go through optimal assignment, never raw order:
    two differently seeded models may emit channels in any order."""
    from voicesep import losses
    rng = np.random.default_rng(4)
    s = [rng.standard_normal(800) for _ in range(2)]
    mix = (s[0] + s[1]).astype(np.float32)
    m = small_model(5)
    outs = separate(m, mix)
    _, perm = losses.upit([si.astype(np.float32) for si in s],
                          np.stack(outs))
    assert sorted(perm) == [0, 1]  # whichever order appeared


# --- the encoder and wave decoder against the convolutions ---

def reference_conv1d(x, kernel, stride):
    """Valid 1-D convolution: (Cin, T) * (Cout, Cin, L) -> (Cout, T_out)."""
    cin, t = x.shape
    cout, _, L = kernel.shape
    t_out = (t - L) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, L, axis=1)
    cols = np.ascontiguousarray(
        win[:, ::stride].transpose(1, 0, 2).reshape(t_out, cin * L))
    kmat = kernel.reshape(cout, cin * L)
    return np.ascontiguousarray((cols @ kmat.T).T)


def reference_conv1d_transpose(x, kernel, stride):
    """Transposed 1-D conv: (Cin, T) * (Cin, Cout, L) -> (Cout, (T-1)s+L)."""
    t = x.shape[1]
    _, cout, L = kernel.shape
    y = np.tensordot(x.T, kernel, axes=([1], [0]))  # (T, Cout, L)
    out = np.zeros((cout, (t - 1) * stride + L), dtype=x.dtype)
    base = np.arange(t) * stride
    for ell in range(L):
        out[:, base + ell] += y[:, :, ell].T
    return out


@pytest.mark.parametrize("n", [12, 128])
def test_encode_is_the_strided_convolution(n):
    m = small_model(n_filters=n)
    x = np.random.default_rng(8).standard_normal(4000).astype(np.float32)
    z = encode(m, ad.Tensor(x))
    conv = reference_conv1d(x[None], m.params["encoder.kernel"].data, 4)
    assert z.data.shape == (999, n)
    assert np.array_equal(z.data, np.maximum(conv, 0).T)


@pytest.mark.parametrize("n,rtol", [(128, 0.0), (32, 1e-6)])
def test_decode_head_is_the_transposed_convolution(n, rtol):
    """Bit-identical at N=128. At N=32 the decoder GEMM's C-ordered left
    operand (the convolution read it transposed) moves outputs by up to
    about 2.1e-7 of the output's peak; near-zero outputs move by more
    than 1e-6 of their own size."""
    m = small_model(n_filters=n, num_speakers=3)
    rng = np.random.default_rng(9)
    t_latent, k = 999, 44
    v = ad.Tensor(rng.standard_normal((dsp.chunk_count(t_latent, k), k, n))
                  .astype(np.float32))
    outs = decode_head(m, v, t_latent)
    assert outs.data.shape == (3, 4000)
    # the head up to the latent, as decode_head computes it
    u = ad.prelu(v, m.params["prelu.slope"])
    y = ad.linear(u, m.params["decoder.w"], m.params["decoder.b"])
    kernel = m.params["wavedec.kernel"].data
    lats = dsp.overlap_add(y, t_latent).data.reshape(t_latent, 3, n)
    for i, out in enumerate(outs.data):
        want = reference_conv1d_transpose(np.ascontiguousarray(lats[:, i].T),
                                          kernel, 4)[0]
        assert out.shape == want.shape == (4000,)
        if rtol:
            np.testing.assert_allclose(out, want, rtol=rtol,
                                       atol=rtol * np.abs(want).max())
        else:
            assert np.array_equal(out, want)


def test_encode_decode_head_kernel_gradients():
    """float64 gradients of both kernels through encode, chunking and
    decode_head."""
    m = small_model(n_filters=6, num_speakers=2)
    for p in m.params.values():
        p.data = p.data.astype(np.float64)
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.standard_normal(96))
    w = ad.Tensor(rng.standard_normal((2 * 96, 1)))

    def f():
        z = encode(m, x)
        outs = decode_head(m, dsp.chunk(z, 6), z.shape[0])
        return ad.linear(ad.reshape(outs, (1, -1)), w)
    rep = ad.grad_check_many(
        f, [("encoder.kernel", m.params["encoder.kernel"]),
            ("wavedec.kernel", m.params["wavedec.kernel"])])
    assert rep.max_rel_err < 1e-4, rep.worst[:3]


TINY = {L: init_params(ModelConfig(n_filters=4, kernel_len=L, num_blocks=2,
                                   hidden=3, num_speakers=2), seed=0)
        for L in (2, 4, 8)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), L=st.sampled_from(sorted(TINY)))
def test_separate_accepts_any_length_it_can_encode(n, L):
    """C finite channels of exactly the input's length, or InputError
    exactly when the stride-padded input is shorter than one kernel."""
    x = np.random.default_rng(n).uniform(-0.5, 0.5, n).astype(np.float32)
    padded = n + (-n % (L // 2))
    if padded < L:
        with pytest.raises(InputError):
            separate(TINY[L], x)
        return
    outs = separate(TINY[L], x)
    assert len(outs) == 2
    for ch in outs:
        assert ch.shape == (n,) and np.isfinite(ch).all()
