"""Deterministic signal plumbing: chunking, overlap-add, STFT/iSTFT.

Latent sequences are stored frames-first: a latent of length T' with N
features is a (T', N) array; a chunked latent is (R, K, N). Waveforms are
1-D float arrays in [-1, 1); the differentiable power spectrogram of the
identity-loss features takes a (B, T) batch of them.

chunk() pads one hop in front and at least one hop behind, so every
latent frame lies in exactly two chunks: overlap_add() sums the chunks
and halves, and overlap_add(chunk(z), T') == z exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, InputError


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def chunk_count(t_latent: int, k: int) -> int:
    """Number of chunks R for hop K/2: ceil(2*T'/K) + 1."""
    return math.ceil(2 * t_latent / k) + 1


def default_chunk_len(t_latent: int) -> int:
    """Even chunk length nearest sqrt(2*T'): balances K against R."""
    k = 2 * int(round(math.sqrt(2.0 * t_latent) / 2.0))
    return max(k, 2)


def chunk(z: Tensor, k: int) -> Tensor:
    """Cut a (T', N) latent into (R, K, N): R = ceil(2*T'/K)+1 chunks of
    length K at hop K/2, after a front pad of one hop and a back pad of
    R*K/2 - T' >= K/2 frames.
    """
    if k <= 0 or k % 2 != 0:
        raise ConfigurationError(f"chunk: K must be positive and even, "
                                 f"got {k}")
    z = ad.as_tensor(z)
    t_latent = z.shape[0]
    if t_latent < 1:
        raise InputError("chunk: empty latent")
    hop = k // 2
    pad_back = chunk_count(t_latent, k) * hop - t_latent
    return ad.chunk_rows(ad.pad_rows(z, hop, pad_back), k)


def overlap_add(c: Tensor, t_latent: int) -> Tensor:
    """Invert chunk() for a latent of length T': sum the (R, K, ...)
    chunks at their offsets, strip the padding and halve, since every
    kept frame lies in exactly two chunks."""
    r, hop = c.shape[0], c.shape[1] // 2
    summed = ad.ola_rows(c, (r + 1) * hop)
    return ad.scale(ad.slice_axis(summed, 0, hop, hop + t_latent), 0.5)


# ---------------------------------------------------------------------------
# STFT / iSTFT (analysis path, plain numpy, Hamming window)
# ---------------------------------------------------------------------------

@dataclass
class Spectrogram:
    """Complex STFT bins (F_bins, frames) with the geometry that made them.
    The signal was reflect-padded by win_len // 2 samples at the front."""
    bins: np.ndarray
    win_len: int
    hop: int
    nfft: int
    orig_len: int


def _check_stft_sizes(win_len: int, hop: int, nfft: int) -> None:
    if win_len <= 0 or hop <= 0 or nfft <= 0:
        raise ConfigurationError("stft: window, hop and nfft must be positive")
    if win_len > nfft:
        raise ConfigurationError(
            f"stft: window {win_len} longer than nfft {nfft}")
    if hop > win_len:
        raise ConfigurationError(f"stft: hop {hop} larger than window "
                                 f"{win_len}")


def _frame_indices(n: int, win_len: int, hop: int) -> np.ndarray:
    """Reflect-padded frame index matrix: frame count is deterministic
    from the signal length."""
    pad = win_len // 2
    n_frames = 1 + math.ceil(n / hop)
    idx = (np.arange(n_frames)[:, None] * hop +
           np.arange(win_len)[None, :] - pad)
    # reflect (mirror without repeating the edge sample), then clip
    idx = np.abs(idx)
    over = idx > n - 1
    idx[over] = (2 * (n - 1) - idx[over])
    return np.clip(idx, 0, n - 1)


def stft(x: np.ndarray, win_len: int, hop: int, nfft: int) -> Spectrogram:
    """Hamming-windowed discrete STFT with reflect-padded edges."""
    _check_stft_sizes(win_len, hop, nfft)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("stft: input must be a 1-D waveform")
    if len(x) <= win_len:
        raise InputError(
            f"stft: input of {len(x)} samples not longer than one window "
            f"({win_len})")
    idx = _frame_indices(len(x), win_len, hop)
    frames = x[idx] * np.hamming(win_len)
    bins = np.fft.rfft(frames, n=nfft, axis=1).T  # (F_bins, frames)
    return Spectrogram(bins=bins, win_len=win_len, hop=hop, nfft=nfft,
                       orig_len=len(x))


def istft(spec: Spectrogram) -> np.ndarray:
    """Weighted overlap-add inverse with window-square normalization."""
    win = np.hamming(spec.win_len)
    frames = np.fft.irfft(spec.bins.T, n=spec.nfft, axis=1)[:, :spec.win_len]
    frames *= win
    n_frames = frames.shape[0]
    total = (n_frames - 1) * spec.hop + spec.win_len
    num = np.zeros(total)
    den = np.zeros(total)
    wsq = win * win
    for j in range(n_frames):
        lo = j * spec.hop
        num[lo:lo + spec.win_len] += frames[j]
        den[lo:lo + spec.win_len] += wsq
    lo = spec.win_len // 2
    hi = lo + spec.orig_len
    den = np.maximum(den, 1e-12)
    return (num / den)[lo:hi]


def mixture_phase_reconstruct(mask: np.ndarray, mix_spec: Spectrogram
                              ) -> np.ndarray:
    """Apply a real T-F mask to a mixture spectrogram and invert."""
    return istft(replace(mix_spec, bins=mix_spec.bins * mask))


# ---------------------------------------------------------------------------
# Differentiable power spectrogram (identity-loss feature path)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _dft_mats(win_len: int, nfft: int):
    n_bins = nfft // 2 + 1
    win = np.hamming(win_len)
    t = np.arange(win_len)[:, None]
    k = np.arange(n_bins)[None, :]
    ang = -2.0 * np.pi * t * k / nfft
    cos_m = np.cos(ang) * win[:, None]
    sin_m = np.sin(ang) * win[:, None]
    return cos_m, sin_m


def power_spectrogram(x: Tensor, win_len: int, hop: int,
                      nfft: int) -> Tensor:
    """|STFT|^2 of a (B, T) batch of waveforms, (B, frames, bins),
    differentiable w.r.t. x.

    The DFT is folded into two constant linear maps (cosine/sine), so the
    whole path is just gather + linear on the tape. Matches stft() framing.
    """
    _check_stft_sizes(win_len, hop, nfft)
    if x.data.ndim != 2:
        raise InputError("power_spectrogram: input must be (B, T)")
    if x.shape[1] <= win_len:
        raise InputError("power_spectrogram: input not longer than a window")
    idx = _frame_indices(x.shape[1], win_len, hop)
    frames = ad.gather(x, idx)  # (B, J, win_len)
    cos_m, sin_m = _dft_mats(win_len, nfft)
    dt = x.data.dtype
    re = ad.linear(frames, Tensor(cos_m, dtype=dt))
    im = ad.linear(frames, Tensor(sin_m, dtype=dt))
    return ad.add(ad.mul(re, re), ad.mul(im, im))  # (B, J, n_bins)
