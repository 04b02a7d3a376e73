"""The gated dual-path separator: encoder, MulCat blocks, decoding heads.

A MulCat block runs two bidirectional LSTMs over the same sequence,
multiplies their outputs elementwise, concatenates the block input (the
skip path), and projects back to the feature width. Odd blocks recur along
the chunk index axis (long-term, length R), even blocks along the
intra-chunk axis (short-term, length K). After every even block, a shared
PReLU + 1x1 decoder produces one group of C candidate waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import LSTMParams, Tensor
from .errors import ConfigurationError, InputError, NumericError


@dataclass
class ModelConfig:
    n_filters: int = 128       # N: encoder output width
    kernel_len: int = 8        # L: encoder kernel, stride L/2
    num_blocks: int = 6        # b: MulCat blocks, must be even
    hidden: int = 128          # H: LSTM hidden width per direction
    num_speakers: int = 2      # C: output channels
    chunk_len: Optional[int] = None  # K: None = per-input default
    sample_rate: int = 8000
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
        if self.num_speakers < 1:
            raise ConfigurationError("num_speakers must be >= 1")
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

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def lstm_params(self, block: int, which: int) -> LSTMParams:
        pre = f"block{block}.lstm{which}."
        return LSTMParams(wx=self.params[pre + "wx"],
                          wh=self.params[pre + "wh"],
                          b=self.params[pre + "b"])

    def astype(self, dtype) -> "SeparatorModel":
        clone = SeparatorModel(config=self.config)
        for name, p in self.params.items():
            clone.params[name] = Tensor(p.data.astype(dtype),
                                        requires_grad=p.requires_grad)
        return clone


def _uniform(rng: np.random.Generator, shape, fan_in: int,
             dtype) -> np.ndarray:
    lim = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-lim, lim, size=shape).astype(dtype)


def init_params(config: ModelConfig, seed: int,
                dtype=np.float32) -> SeparatorModel:
    """Deterministic initialization: uniform +-1/sqrt(fan-in) weights,
    forget-gate biases +1, PReLU slope 0.25."""
    config.validate()
    rng = np.random.default_rng(seed)
    n, L, h, c = (config.n_filters, config.kernel_len, config.hidden,
                  config.num_speakers)
    p: dict[str, np.ndarray] = {}
    p["encoder.kernel"] = _uniform(rng, (n, 1, L), L, dtype)
    for i in range(1, config.num_blocks + 1):
        n_lstms = 2 if config.gating else 1
        for j in range(1, n_lstms + 1):
            pre = f"block{i}.lstm{j}."
            p[pre + "wx"] = _uniform(rng, (2, n, 4 * h), n, dtype)
            p[pre + "wh"] = _uniform(rng, (2, h, 4 * h), h, dtype)
            bias = np.zeros((2, 4 * h), dtype=dtype)
            bias[:, h:2 * h] = 1.0  # forget gate
            p[pre + "b"] = bias
        p[f"block{i}.proj.w"] = _uniform(rng, (2 * h + n, n), 2 * h + n,
                                         dtype)
        p[f"block{i}.proj.b"] = np.zeros(n, dtype=dtype)
    p["prelu.slope"] = np.asarray(0.25, dtype=dtype).reshape(())
    p["decoder.w"] = _uniform(rng, (n, c * n), n, dtype)
    p["decoder.b"] = np.zeros(c * n, dtype=dtype)
    p["wavedec.kernel"] = _uniform(rng, (n, 1, L), n, dtype)
    model = SeparatorModel(config=config)
    for name, arr in p.items():
        model.params[name] = Tensor(arr, requires_grad=True)
    return model


def encode(model: SeparatorModel, x) -> Tensor:
    """Waveform (T,) -> nonnegative latent (T', N), T' = 2T/L - 1."""
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
    x2 = ad.reshape(x, (1, t))
    z = ad.conv1d(x2, model.params["encoder.kernel"], L // 2)
    z = ad.relu(z)
    return ad.transpose(z, (1, 0))


def mulcat_block(model: SeparatorModel, ct: dsp.ChunkTensor,
                 index: int) -> dsp.ChunkTensor:
    """Apply block `index` (1-based). Odd = along R, even = along K."""
    if not 1 <= index <= model.config.num_blocks:
        raise ConfigurationError(f"block index {index} outside 1.."
                                 f"{model.config.num_blocks}")
    v = ct.data  # (R, K, N)
    along_r = index % 2 == 1
    seqs = ad.transpose(v, (1, 0, 2)) if along_r else v  # (B, S, N)
    if model.config.gating:
        out1, out2 = ad.bilstm_bank(
            seqs, [model.lstm_params(index, 1), model.lstm_params(index, 2)])
        gated = ad.mul(out1, out2)
    else:
        gated = ad.bilstm(seqs, model.lstm_params(index, 1))
    cat = ad.concat([gated, seqs], axis=2)  # (B, S, 2H + N)
    proj = ad.linear(cat, model.params[f"block{index}.proj.w"],
                     model.params[f"block{index}.proj.b"])
    if along_r:
        proj = ad.transpose(proj, (1, 0, 2))
    return dsp.ChunkTensor(data=proj, k=ct.k, hop=ct.hop,
                           pad_front=ct.pad_front, pad_back=ct.pad_back,
                           t_latent=ct.t_latent)


def decode_head(model: SeparatorModel, ct: dsp.ChunkTensor,
                out_len: int) -> list:
    """Shared PReLU + 1x1 decoder + overlap-add + transposed conv.

    Returns C waveform tensors of length out_len. The same PReLU slope and
    decoder weights serve every scale.
    """
    cfg = model.config
    u = ad.prelu(ct.data, model.params["prelu.slope"])
    y = ad.linear(u, model.params["decoder.w"], model.params["decoder.b"])
    channels = ad.split(y, [cfg.n_filters] * cfg.num_speakers, axis=2)
    outs = []
    for ch in channels:
        cct = dsp.ChunkTensor(data=ch, k=ct.k, hop=ct.hop,
                              pad_front=ct.pad_front, pad_back=ct.pad_back,
                              t_latent=ct.t_latent)
        lat = dsp.overlap_add(cct)                      # (T', N)
        lat = ad.transpose(lat, (1, 0))                 # (N, T')
        wav = ad.conv1d_transpose(lat, model.params["wavedec.kernel"],
                                  cfg.kernel_len // 2)  # (1, T)
        if wav.shape[1] != out_len:
            raise ConfigurationError(
                f"decode_head: reconstructed length {wav.shape[1]} != "
                f"input length {out_len}")
        outs.append(ad.reshape(wav, (out_len,)))
    return outs


def forward(model: SeparatorModel, x, multiloss: bool = True) -> list:
    """Full separator pass: returns b/2 groups of C waveform tensors
    (or only the final group when multiloss=False)."""
    x = ad.as_tensor(x)
    t = x.shape[0]
    z = encode(model, x)
    k = model.config.chunk_len or dsp.default_chunk_len(z.shape[0])
    ct = dsp.chunk(z, k)
    groups = []
    for i in range(1, model.config.num_blocks + 1):
        ct = mulcat_block(model, ct, i)
        if i % 2 == 0 and (multiloss or i == model.config.num_blocks):
            groups.append(decode_head(model, ct, t))
    return groups


def separate(model: SeparatorModel, x: np.ndarray) -> list[np.ndarray]:
    """Inference: final-scale estimates as plain arrays (no tape).

    Raises NumericError if the input holds a NaN or an infinity (also one
    that appears on conversion to float32).
    """
    x = np.asarray(x, dtype=np.float32)
    if not np.isfinite(x).all():
        raise NumericError("separate: input holds non-finite samples")
    groups = forward(model, Tensor(x), multiloss=False)
    return [ch.data.copy() for ch in groups[-1]]


def count_parameters(model: SeparatorModel) -> int:
    return sum(p.data.size for _, p in model.named_parameters())
