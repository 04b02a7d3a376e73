"""Chunking, overlap-add, STFT exactness, and spectrogram features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voicesep.autodiff as ad
from voicesep import dsp
from voicesep.errors import ConfigurationError, InputError


def test_chunk_count_formula():
    # R = ceil(2*T'/K) + 1 at half overlap
    for tp in (5, 50, 999, 1000):
        for k in (4, 6, 44):
            assert dsp.chunk_count(tp, k) == int(np.ceil(2 * tp / k)) + 1


def test_default_chunk_len_is_even_and_near_sqrt():
    for tp in (10, 100, 999, 7999):
        k = dsp.default_chunk_len(tp)
        assert k % 2 == 0
        target = np.sqrt(2 * tp)
        # no even integer sits closer
        for cand in (k - 2, k + 2):
            if cand >= 2:
                assert abs(k - target) <= abs(cand - target)


def test_chunk_round_trip_exact():
    """Every kept frame lies in two chunks, and (z + z) * 0.5 == z in
    floating point, so the round trip is exact."""
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        z = ad.Tensor(rng.standard_normal((999, 8)), dtype=dtype)
        c = dsp.chunk(z, 44)
        assert c.data.shape[0] == dsp.chunk_count(999, 44)
        back = dsp.overlap_add(c, 999)
        assert back.data.dtype == dtype
        assert np.array_equal(back.data, z.data)


@settings(max_examples=40, deadline=None)
@given(tp=st.integers(5, 700), half_k=st.integers(2, 40),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_chunk_round_trip_property(tp, half_k, dtype):
    k = 2 * half_k
    rng = np.random.default_rng(tp * 1000 + k)
    z = ad.Tensor(rng.standard_normal((tp, 3)), dtype=dtype)
    c = dsp.chunk(z, k)
    assert c.data.shape == (dsp.chunk_count(tp, k), k, 3)
    back = dsp.overlap_add(c, tp)
    assert np.array_equal(back.data, z.data)


def test_chunk_requires_even_k_for_default_hop():
    z = ad.Tensor(np.zeros((20, 2)))
    with pytest.raises(ConfigurationError):
        dsp.chunk(z, 5)


def test_chunk_gradients_flow():
    rng = np.random.default_rng(1)
    z = ad.Tensor(rng.standard_normal((31, 2)))
    z.requires_grad = True
    w = np.random.default_rng(2).standard_normal((31, 2))

    def f():
        back = dsp.overlap_add(dsp.chunk(z, 8), 31)
        return ad.linear(ad.reshape(back, (1, -1)),
                         ad.Tensor(w.reshape(-1, 1)))
    rep = ad.grad_check_many(f, [("z", z)])
    assert rep.max_rel_err < 1e-4, rep.worst[:3]
    # round trip is the identity, so the gradient is exactly the weights
    assert np.array_equal(z.grad, w)


@pytest.mark.parametrize("win,hop,nfft", [(160, 80, 160), (256, 64, 2048)])
def test_istft_inverts_stft(win, hop, nfft):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4321)
    spec = dsp.stft(x, win, hop, nfft)
    back = dsp.istft(spec)
    assert back.shape == x.shape
    rms = np.sqrt(np.mean((back - x) ** 2))
    assert rms < 1e-6


def test_stft_frame_count():
    x = np.zeros(800)
    spec = dsp.stft(x, 160, 80, 160)
    assert spec.bins.shape == (81, 1 + int(np.ceil(800 / 80)))


def test_mixture_phase_reconstruct_mask_of_ones():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    spec = dsp.stft(x, 256, 64, 2048)
    back = dsp.mixture_phase_reconstruct(np.ones_like(np.abs(spec.bins)),
                                         spec)
    assert np.sqrt(np.mean((back - x) ** 2)) < 1e-6


def test_power_spectrogram_matches_stft():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 4000)).astype(np.float64)
    feats = dsp.power_spectrogram(ad.Tensor(x), win_len=160, hop=80, nfft=160)
    for row, x_row in zip(feats.data, x):
        spec = dsp.stft(x_row, 160, 80, 160)
        np.testing.assert_allclose(row.T, np.abs(spec.bins) ** 2,
                                   rtol=1e-8, atol=1e-8)


def test_power_spectrogram_gradients():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.standard_normal((2, 400)))
    x.requires_grad = True
    w = np.random.default_rng(13).standard_normal((2, 6, 41))

    def f():
        feats = dsp.power_spectrogram(x, win_len=80, hop=80, nfft=80)
        return ad.linear(ad.reshape(feats, (1, -1)),
                         ad.Tensor(w.reshape(-1, 1)))
    rep = ad.grad_check_many(f, [("x", x)])
    assert rep.max_rel_err < 5e-4, rep.worst[:3]
