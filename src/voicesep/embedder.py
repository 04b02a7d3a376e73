"""Speaker embedding network for the identity loss.

A small 3-stage convolutional classifier over log-compressed power
spectrograms (20 ms Hamming window, 10 ms hop) of 500 ms clips at
SAMPLE_RATE, trained as a closed-set classifier on the training speakers.
The penultimate layer (width 64) is the embedding used by the identity
loss. Every forward method takes a (B, CLIP_LEN) batch of clips and runs
it through the network in one pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import Tensor
from .data import SAMPLE_RATE, load_wav
from .errors import DataError, InputError
from .optim import Adam

# Classifier training: Adam step size, clips per step, and the share of
# each speaker's clips held out to measure accuracy.
TRAIN_LR = 1e-3
TRAIN_BATCH = 16
HOLDOUT_FRAC = 0.2

# The network: spectrogram window and hop (the FFT is one window long),
# clip length, embedding width, and the channels of each conv stage.
WIN_MS = 20.0
HOP_MS = 10.0
CLIP_S = 0.5
EMBED_DIM = 64
CONV_CHANNELS = (8, 16, 32)
# ... and the window, hop and clip in samples at SAMPLE_RATE
WIN_LEN = int(round(WIN_MS * SAMPLE_RATE / 1000.0))
HOP = int(round(HOP_MS * SAMPLE_RATE / 1000.0))
CLIP_LEN = int(round(CLIP_S * SAMPLE_RATE))


@dataclass
class EmbedderConfig:
    """The one setting a trained embedder carries: its speaker count.
    Everything else about the network is a module constant."""
    n_classes: int = 0  # set when trained

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EmbedderConfig":
        return cls(**d)


@dataclass
class EmbedderModel:
    config: EmbedderConfig
    params: dict = field(default_factory=dict)

    def named_parameters(self):
        return sorted(self.params.items())

    def set_requires_grad(self, flag: bool) -> None:
        for _, p in self.named_parameters():
            p.requires_grad = flag

    # -- forward ----------------------------------------------------------

    def features(self, clips: Tensor) -> Tensor:
        """Log-compressed power spectrograms of (B, CLIP_LEN) clips as a
        (B, 1, frames, bins) batch of images."""
        p = dsp.power_spectrogram(clips, WIN_LEN, HOP, WIN_LEN)
        feat = ad.log1p(p)
        return ad.reshape(feat, (feat.shape[0], 1) + tuple(feat.shape[1:]))

    def embed_tensor(self, clips: Tensor) -> Tensor:
        """Differentiable (B, EMBED_DIM) embeddings of (B, CLIP_LEN)
        clips."""
        if clips.data.ndim != 2 or clips.shape[1] != CLIP_LEN:
            raise InputError(
                f"embed: clips must be (B, {CLIP_LEN}) samples "
                f"({CLIP_S:g} s at {SAMPLE_RATE} Hz), got shape "
                f"{tuple(clips.shape)}")
        h = self.features(clips)
        for stage in range(len(CONV_CHANNELS)):
            h = ad.conv2d(h, self.params[f"conv{stage}.kernel"])
            h = ad.clamp_min(h, 0.0)
            h = ad.avgpool2d(h)
        pooled = ad.mean_axes(h, (2, 3))       # (B, C_last)
        emb = ad.linear(pooled, self.params["embed.w"],
                        self.params["embed.b"])
        return ad.clamp_min(emb, 0.0)

    def logits_tensor(self, clips: Tensor) -> Tensor:
        """(B, n_classes) class scores of (B, CLIP_LEN) clips."""
        return ad.linear(self.embed_tensor(clips), self.params["cls.w"],
                         self.params["cls.b"])


def init_embedder(config: EmbedderConfig, seed: int) -> EmbedderModel:
    rng = np.random.default_rng(seed)
    cfg = config
    if cfg.n_classes < 2:
        raise DataError("embedder needs at least 2 speaker classes")
    p: dict[str, np.ndarray] = {}
    cin = 1
    for stage, cout in enumerate(CONV_CHANNELS):
        fan = cin * 9
        lim = 1.0 / np.sqrt(fan)
        p[f"conv{stage}.kernel"] = rng.uniform(
            -lim, lim, size=(cout, cin, 3, 3)).astype(np.float32)
        cin = cout
    lim = 1.0 / np.sqrt(cin)
    p["embed.w"] = rng.uniform(-lim, lim,
                               size=(cin, EMBED_DIM)).astype(np.float32)
    p["embed.b"] = np.zeros(EMBED_DIM, dtype=np.float32)
    lim = 1.0 / np.sqrt(EMBED_DIM)
    p["cls.w"] = rng.uniform(
        -lim, lim, size=(EMBED_DIM, cfg.n_classes)).astype(np.float32)
    p["cls.b"] = np.zeros(cfg.n_classes, dtype=np.float32)
    model = EmbedderModel(config=cfg)
    for name, arr in p.items():
        model.params[name] = Tensor(arr, requires_grad=True)
    return model


def _accuracy(model: EmbedderModel, clips: np.ndarray, labels) -> float:
    """Share of the (n, CLIP_LEN) clips classified as their labels, in
    batches of TRAIN_BATCH."""
    predicted = np.concatenate([
        np.argmax(model.logits_tensor(
            Tensor(clips[lo:lo + TRAIN_BATCH])).data, axis=1)
        for lo in range(0, len(clips), TRAIN_BATCH)])
    return float(np.mean(predicted == labels))


def embedder_corpus(root, split: str) -> list:
    """(clip, speaker id) pairs from a split's utterance pool, for the
    speaker classifier: each utterance cut into CLIP_LEN windows from its
    start, the remainder dropped. Each WAV is read by data.load_wav, so
    one at a rate other than SAMPLE_RATE raises DataError."""
    sdir = os.path.join(root, split)
    pairs = []
    for name in sorted(os.listdir(sdir)):
        if not name.endswith(".wav") or name.startswith("mix"):
            continue
        spk = name.split("_")[0]
        w = load_wav(os.path.join(sdir, name))
        for start in range(0, len(w) - CLIP_LEN + 1, CLIP_LEN):
            pairs.append((w[start:start + CLIP_LEN], spk))
    if not pairs:
        raise DataError(f"embedder_corpus: no utterances under {sdir}")
    return pairs


def train_embedder(corpus, epochs: int = 20, seed: int = 0):
    """Train the closed-set speaker classifier.

    corpus: sequence of (clip waveform, speaker id) with clips of exactly
    500 ms. Returns (model, held-out accuracy). Deterministic given seed.
    """
    by_speaker: dict = {}
    for clip, spk in corpus:
        by_speaker.setdefault(spk, []).append(np.asarray(clip,
                                                         dtype=np.float32))
    if len(by_speaker) < 2:
        raise DataError("train_embedder: need at least 2 speakers")
    for spk, clips in by_speaker.items():
        if len(clips) < 20:
            raise DataError(
                f"train_embedder: speaker {spk} has {len(clips)} clips, "
                "need at least 20")
    classes = sorted(by_speaker)
    cfg = EmbedderConfig(n_classes=len(classes))
    rng = np.random.default_rng(seed)

    train_clips, train_labels, hold_clips, hold_labels = [], [], [], []
    for label, spk in enumerate(classes):
        clips = by_speaker[spk]
        for clip in clips:
            if len(clip) != CLIP_LEN:
                raise DataError(
                    f"train_embedder: clip of {len(clip)} samples for "
                    f"speaker {spk}, expected {CLIP_LEN}")
        order = rng.permutation(len(clips))
        n_hold = max(1, int(round(HOLDOUT_FRAC * len(clips))))
        for pos, ci in enumerate(order):
            if pos < n_hold:
                hold_clips.append(clips[ci])
                hold_labels.append(label)
            else:
                train_clips.append(clips[ci])
                train_labels.append(label)

    model = init_embedder(cfg, seed)
    opt = Adam(model.named_parameters(), lr=TRAIN_LR)
    train_clips, train_labels = np.stack(train_clips), np.array(train_labels)
    n = len(train_clips)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, TRAIN_BATCH):
            batch = order[lo:lo + TRAIN_BATCH]
            opt.zero_grad()
            with ad.Tape() as tape:
                logits = model.logits_tensor(Tensor(train_clips[batch]))
                loss = ad.cross_entropy(logits, train_labels[batch])
                tape.backward(loss)
            opt.step()
    acc = _accuracy(model, np.stack(hold_clips), np.array(hold_labels))
    return model, acc

