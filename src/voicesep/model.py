"""The gated dual-path separator: encoder, MulCat blocks, decoding heads.

A MulCat block runs two bidirectional LSTMs over the same sequence,
multiplies their outputs elementwise and appends the block input (the
skip path) in one fused op (autodiff.bilstm_bank; the "-gating" ablation
keeps one LSTM and no product), then projects back to the feature width.
Odd blocks recur along the chunk index axis (long-term, length R), even
blocks along the intra-chunk axis (short-term, length K). After every
even block, a shared PReLU + 1x1 decoder produces one (C, T) tensor of
candidate waveforms, one row per output channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import LSTMParams, Tensor
from .errors import ConfigurationError, InputError, NumericError
from .losses import MAX_CHANNELS


@dataclass
class ModelConfig:
    """The separator's shape. Every model runs at data.SAMPLE_RATE, so
    the rate is no setting of its own. num_speakers is at most the
    permutation search's bound, losses.MAX_CHANNELS (9)."""
    n_filters: int = 128       # N: encoder output width
    kernel_len: int = 8        # L: encoder kernel, stride L/2
    num_blocks: int = 6        # b: MulCat blocks, must be even
    hidden: int = 128          # H: LSTM hidden width per direction
    num_speakers: int = 2      # C: output channels
    chunk_len: Optional[int] = None  # K: None = per-input default
    gating: bool = True        # False = single-LSTM ablation ("-gating")

    def validate(self) -> None:
        if self.num_blocks < 2 or self.num_blocks % 2 != 0:
            raise ConfigurationError(
                f"num_blocks must be even and >= 2, got {self.num_blocks}")
        if self.kernel_len < 2 or self.kernel_len % 2 != 0:
            raise ConfigurationError(
                f"kernel_len must be even and >= 2, got {self.kernel_len}")
        if self.n_filters < 1 or self.hidden < 1:
            raise ConfigurationError("n_filters and hidden must be positive")
        if not 1 <= self.num_speakers <= MAX_CHANNELS:
            raise ConfigurationError(
                f"num_speakers must be in 1..{MAX_CHANNELS}, got "
                f"{self.num_speakers}")
        if self.chunk_len is not None and (self.chunk_len < 2 or
                                           self.chunk_len % 2 != 0):
            raise ConfigurationError(
                f"chunk_len must be even and >= 2, got {self.chunk_len}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class SeparatorModel:
    """All learnable parameters plus the hyperparameters that shape them."""
    config: ModelConfig
    params: dict = field(default_factory=dict)  # name -> Tensor

    def named_parameters(self):
        return sorted(self.params.items())

    def set_requires_grad(self, flag: bool) -> None:
        for _, p in self.named_parameters():
            p.requires_grad = flag

    def lstm_params(self, block: int, which: int) -> LSTMParams:
        pre = f"block{block}.lstm{which}."
        return LSTMParams(wx=self.params[pre + "wx"],
                          wh=self.params[pre + "wh"],
                          b=self.params[pre + "b"])


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    lim = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-lim, lim, size=shape).astype(np.float32)


def init_params(config: ModelConfig, seed: int) -> SeparatorModel:
    """Deterministic float32 initialization: uniform +-1/sqrt(fan-in)
    weights, forget-gate biases +1, PReLU slope 0.25."""
    config.validate()
    rng = np.random.default_rng(seed)
    n, L, h, c = (config.n_filters, config.kernel_len, config.hidden,
                  config.num_speakers)
    p: dict[str, np.ndarray] = {}
    p["encoder.kernel"] = _uniform(rng, (n, 1, L), L)
    for i in range(1, config.num_blocks + 1):
        n_lstms = 2 if config.gating else 1
        for j in range(1, n_lstms + 1):
            pre = f"block{i}.lstm{j}."
            p[pre + "wx"] = _uniform(rng, (2, n, 4 * h), n)
            p[pre + "wh"] = _uniform(rng, (2, h, 4 * h), h)
            bias = np.zeros((2, 4 * h), dtype=np.float32)
            bias[:, h:2 * h] = 1.0  # forget gate
            p[pre + "b"] = bias
        p[f"block{i}.proj.w"] = _uniform(rng, (2 * h + n, n), 2 * h + n)
        p[f"block{i}.proj.b"] = np.zeros(n, dtype=np.float32)
    p["prelu.slope"] = np.asarray(0.25, dtype=np.float32).reshape(())
    p["decoder.w"] = _uniform(rng, (n, c * n), n)
    p["decoder.b"] = np.zeros(c * n, dtype=np.float32)
    p["wavedec.kernel"] = _uniform(rng, (n, 1, L), n)
    model = SeparatorModel(config=config)
    for name, arr in p.items():
        model.params[name] = Tensor(arr, requires_grad=True)
    return model


def encode(model: SeparatorModel, x) -> Tensor:
    """Waveform (T,) -> nonnegative latent (T', N), T' = 2T/L - 1.

    The length-L, stride-L/2 convolution: the input cut into length-L
    frames at hop L/2, times the kernel as an (L, N) matrix."""
    L = model.config.kernel_len
    x = ad.as_tensor(x)
    if x.data.ndim != 1:
        raise InputError("encode: input must be a 1-D waveform")
    t = x.shape[0]
    if t < L:
        raise InputError(f"encode: input of {t} samples shorter than "
                         f"kernel {L}")
    if t % (L // 2) != 0:
        raise InputError(
            f"encode: input length {t} not divisible by stride {L // 2}")
    n = model.config.n_filters
    w = ad.transpose(ad.reshape(model.params["encoder.kernel"], (n, L)),
                     (1, 0))
    return ad.clamp_min(ad.linear(ad.chunk_rows(x, L), w), 0.0)


def mulcat_block(model: SeparatorModel, v: Tensor, index: int) -> Tensor:
    """Apply block `index` (1-based) to (R, K, N) chunks. Odd = along R,
    even = along K."""
    if not 1 <= index <= model.config.num_blocks:
        raise ConfigurationError(f"block index {index} outside 1.."
                                 f"{model.config.num_blocks}")
    along_r = index % 2 == 1
    seqs = ad.transpose(v, (1, 0, 2)) if along_r else v  # (B, S, N)
    n_lstms = 2 if model.config.gating else 1
    # unbound, the (B, S, 2H + N) product-and-skip buffer is freed as soon
    # as the projection has read it when no tape holds it
    proj = ad.linear(
        ad.bilstm_bank(seqs, [model.lstm_params(index, j)
                              for j in range(1, n_lstms + 1)]),
        model.params[f"block{index}.proj.w"],
        model.params[f"block{index}.proj.b"])
    return ad.transpose(proj, (1, 0, 2)) if along_r else proj


def decode_head(model: SeparatorModel, v: Tensor, t_latent: int) -> Tensor:
    """Shared PReLU + 1x1 decoder, overlap-add of the chunks back to T'
    latent frames, then the wave decoder: each frame becomes L samples,
    overlap-added at hop L/2.

    Returns one (C, (T'+1)*L/2) tensor, a waveform per row. The same
    PReLU slope and decoder weights serve every scale.
    """
    cfg = model.config
    n, L, c = cfg.n_filters, cfg.kernel_len, cfg.num_speakers
    u = ad.prelu(v, model.params["prelu.slope"])
    y = ad.linear(u, model.params["decoder.w"], model.params["decoder.b"])
    lat = ad.reshape(dsp.overlap_add(y, t_latent), (t_latent, c, n))
    w = ad.reshape(model.params["wavedec.kernel"], (n, L))
    frames = ad.transpose(ad.linear(lat, w), (0, 2, 1))  # (T', L, C)
    return ad.transpose(ad.ola_rows(frames, (t_latent + 1) * L // 2), (1, 0))


def forward(model: SeparatorModel, x, multiloss: bool = True) -> list:
    """Full separator pass: returns b/2 (C, T) waveform tensors, one per
    scale (or only the final one when multiloss=False)."""
    z = encode(model, x)
    t_latent = z.shape[0]
    k = model.config.chunk_len or dsp.default_chunk_len(t_latent)
    v = dsp.chunk(z, k)
    del z   # without a tape, the latent is not needed past the chunker
    groups = []
    for i in range(1, model.config.num_blocks + 1):
        v = mulcat_block(model, v, i)
        if i % 2 == 0 and (multiloss or i == model.config.num_blocks):
            groups.append(decode_head(model, v, t_latent))
    return groups


def separate(model: SeparatorModel, x: np.ndarray) -> list[np.ndarray]:
    """Inference: final-scale estimates as plain arrays (no tape), each
    as long as the input.

    An input whose length is not a multiple of the encoder stride is
    zero-padded up to one, and every channel is cropped back. Raises
    NumericError if the input holds a NaN or an infinity (also one that
    appears on conversion to float32).
    """
    x = np.asarray(x, dtype=np.float32)
    if not np.isfinite(x).all():
        raise NumericError("separate: input holds non-finite samples")
    n = x.shape[0] if x.ndim == 1 else 0   # encode rejects other ranks
    pad = -n % (model.config.kernel_len // 2)
    if pad:
        x = np.pad(x, (0, pad))
    est = forward(model, Tensor(x), multiloss=False)[-1]
    return [ch[:n].copy() for ch in est.data]
