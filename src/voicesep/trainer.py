"""Training loop: multi-scale uPIT objective, optional identity loss,
Adam with a stepped LR decay, gradient clipping, per-epoch validation."""

import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import evalkit
from . import losses
from . import model as separator
from .data import SAMPLE_RATE
from .errors import ConfigurationError, DataError, InputError, NumericError
from .optim import Adam, clip_global_norm

# The paper's training schedule: the learning rate decays by a factor of
# 0.98 every two epochs, gradients are clipped to a global L2 norm of 5,
# and the identity loss is weighted 0.001 against the separation loss.
LR_DECAY = 0.98
DECAY_EVERY = 2
CLIP_NORM = 5.0
ID_WEIGHT = 0.001


@dataclass
class TrainConfig:
    epochs: int
    seed: int = 0
    lr: float = 5e-4
    batch_size: int = 2
    segment_s: float = 4.0
    multiloss: bool = True
    idloss: bool = True

    def validate(self) -> None:
        # numpy's generators take only a seed that is an integer >= 0
        if isinstance(self.seed, bool) or not (
                isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigurationError(
                f"TrainConfig.seed must be an integer >= 0, got "
                f"{self.seed!r}")
        for name, kind, what in (
                ("epochs", numbers.Integral, "an integer"),
                ("lr", numbers.Real, "a real number"),
                ("batch_size", numbers.Integral, "an integer"),
                ("segment_s", numbers.Real, "a real number")):
            value = getattr(self, name)
            # a bool is an int to Python, but never a count or a rate
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(
                    f"TrainConfig.{name} must be {what}, got {value!r}")
            # False for NaN, an infinity and an int too large for a float
            if not 0 < value <= sys.float_info.max:
                raise ConfigurationError(
                    f"TrainConfig.{name} must be > 0 and in float range, "
                    f"got {value}")

    def lr_at(self, epoch: int) -> float:
        """LR for a 1-based epoch: decayed once per DECAY_EVERY epochs."""
        return self.lr * LR_DECAY ** ((epoch - 1) // DECAY_EVERY)


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_loss: float
    val_si_snri: float

    def line(self) -> str:
        val = "" if math.isnan(self.val_si_snri) else f"{self.val_si_snri:.4f}"
        return f"{self.epoch}|{self.lr:.8g}|{self.train_loss:.6f}|{val}"


def _crop(entry, seg_len: int, stride: int, rng) -> tuple:
    """Random training crop of a manifest entry (mixture + sources) that
    starts on a multiple of the encoder stride. An entry no longer than
    the crop is used whole, rounded down to the stride."""
    n = len(entry.mixture)
    if n <= seg_len:
        n -= n % stride
        return entry.mixture[:n], [s[:n] for s in entry.sources]
    off = int(rng.integers(n - seg_len + 1))
    off -= off % stride
    sl = slice(off, off + seg_len)
    return entry.mixture[sl], [s[sl] for s in entry.sources]


def crop_loss(model, embedder, x, targets, cfg: TrainConfig):
    """One crop's objective as train() builds it: the multi-scale uPIT
    loss of the separator's output groups plus, with cfg.idloss, the
    identity loss at the last group's permutation weighted by ID_WEIGHT.
    x and targets are arrays of the model's dtype."""
    groups = separator.forward(model, ad.Tensor(x), multiloss=cfg.multiloss)
    loss, perms = losses.multiscale_loss(targets, groups)
    if cfg.idloss:
        idl = losses.id_loss(targets, groups[-1], perms[-1], embedder)
        loss = ad.add(loss, ad.scale(idl, ID_WEIGHT))
    return loss


def load_resume(resume_from, config, cfg: TrainConfig, n_entries: int):
    """(loaded model, optimizer state, first epoch left) of the
    checkpoint train() resumes from over `n_entries` entries; writes
    nothing. Raises ConfigurationError for another model config, a step
    that is no whole number of epochs, or no epoch of cfg.epochs left."""
    loaded, _seed, step, opt_state = ckpt.load_separator(resume_from)
    if loaded.config.to_dict() != config.to_dict():
        raise ConfigurationError(
            "resume checkpoint config does not match the model")
    done, part = divmod(step, math.ceil(n_entries / cfg.batch_size))
    if step < 0 or part:
        raise ConfigurationError(
            f"resume: step {step} of {resume_from} is not a whole "
            f"number of epochs at batch size {cfg.batch_size}")
    if done >= cfg.epochs:
        raise ConfigurationError(
            f"resume: {resume_from} ends epoch {done}, so no epoch of "
            f"{cfg.epochs} is left to train")
    return loaded, opt_state, done + 1


def train(model, embedder, train_entries, cfg: TrainConfig,
          valid_entries=None, out_dir=None, resume_from=None):
    """Optimize `model` in place. Returns (model, list of EpochLog).

    Deterministic given cfg.seed: the shuffle and crop stream for epoch e
    derives from (seed, e), so resuming from an epoch-boundary checkpoint
    continues bit-identically. Every entry is SAMPLE_RATE audio; an empty
    entry list raises DataError, and an entry holding a NaN or an infinity
    NumericError, before anything is written. So does ConfigurationError
    for a checkpoint whose step is not a whole number of epochs at this
    batch size, or that leaves no epoch of cfg.epochs to train.
    """
    cfg.validate()
    if cfg.idloss and embedder is None:
        raise ConfigurationError("idloss flag set but no embedder given")
    if not train_entries:
        raise DataError("train: no training entries")
    c = model.config.num_speakers
    for i, entry in enumerate(train_entries):
        if len(entry.sources) != c:
            raise InputError(
                f"train: entry has {len(entry.sources)} sources, model "
                f"separates {c}")
        if not all(np.isfinite(a).all()
                   for a in (entry.mixture, *entry.sources)):
            raise NumericError(f"train: entry {i} holds non-finite samples")
    model.set_requires_grad(True)
    if embedder is not None:
        embedder.set_requires_grad(False)
    opt = Adam(model.named_parameters(), lr=cfg.lr)
    n = len(train_entries)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    start_epoch = 1
    if resume_from is not None:
        loaded, opt_state, start_epoch = load_resume(
            resume_from, model.config, cfg, n)
        for (_, dst), (_, src) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            dst.data = src.data
        if opt_state:
            opt.load_state_arrays(opt_state)

    stride = model.config.kernel_len // 2
    seg_len = int(round(cfg.segment_s * SAMPLE_RATE))
    seg_len -= seg_len % stride   # encode needs a multiple of the stride
    logs = []
    best_val = -np.inf
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train.log") if out_dir else None
    if log_path and start_epoch == 1:
        open(log_path, "w").close()
    for epoch in range(start_epoch, cfg.epochs + 1):
        opt.lr = cfg.lr_at(epoch)
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(n)
        epoch_losses = []
        for b0 in range(0, n, cfg.batch_size):
            idxs = order[b0:b0 + cfg.batch_size]
            step_no = (epoch - 1) * steps_per_epoch + b0 // cfg.batch_size + 1
            with ad.Tape() as tape:
                total = None
                for i in idxs:
                    x, targets = _crop(train_entries[i], seg_len, stride,
                                       rng)
                    loss = crop_loss(
                        model, embedder, np.asarray(x, dtype=np.float32),
                        [np.asarray(t, dtype=np.float32) for t in targets],
                        cfg)
                    total = loss if total is None else ad.add(total, loss)
                total = ad.scale(total, 1.0 / len(idxs))
                value = total.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"train: non-finite loss {value} at step {step_no} "
                        f"(epoch {epoch})")
                tape.backward(total)
            clip_global_norm(model.named_parameters(), CLIP_NORM)
            opt.step()
            opt.zero_grad()
            epoch_losses.append(value)
        val = (evalkit.evaluate(valid_entries, model).mean_si_snri
               if valid_entries is not None else float("nan"))
        entry = EpochLog(epoch=epoch, lr=opt.lr,
                         train_loss=float(np.mean(epoch_losses)),
                         val_si_snri=val)
        logs.append(entry)
        if out_dir:
            with open(log_path, "a") as f:
                f.write(entry.line() + "\n")
            step = epoch * steps_per_epoch
            ckpt.save_separator(os.path.join(out_dir, "last.ckpt"), model,
                                seed=cfg.seed, step=step, optimizer=opt)
            if valid_entries is not None and val > best_val:
                best_val = val
                ckpt.save_separator(os.path.join(out_dir, "best.ckpt"),
                                    model, seed=cfg.seed, step=step,
                                    optimizer=opt)
    return model, logs

