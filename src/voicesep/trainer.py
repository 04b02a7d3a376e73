"""Training loop: multi-scale uPIT objective, optional identity loss,
Adam with a stepped LR decay, gradient clipping, per-epoch validation."""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import evalkit
from . import losses
from . import model as separator
from .errors import ConfigurationError, InputError, NumericError
from .optim import Adam, clip_global_norm


@dataclass
class TrainConfig:
    epochs: int
    seed: int = 0
    lr: float = 5e-4
    lr_decay: float = 0.98
    decay_every: int = 2          # epochs between LR decay steps
    batch_size: int = 2
    segment_s: float = 4.0
    id_weight: float = 0.001
    clip_norm: float = 5.0
    multiloss: bool = True
    idloss: bool = True

    def validate(self) -> None:
        for name in ("epochs", "lr", "lr_decay", "decay_every",
                     "batch_size", "segment_s", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"TrainConfig.{name} must be > 0")
        if self.id_weight < 0:
            raise ConfigurationError("TrainConfig.id_weight must be >= 0")

    def lr_at(self, epoch: int) -> float:
        """LR for a 1-based epoch: decayed once per `decay_every` epochs."""
        return self.lr * self.lr_decay ** ((epoch - 1) // self.decay_every)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


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
    starts on a multiple of the encoder stride."""
    n = len(entry.mixture)
    if n <= seg_len:
        return entry.mixture, entry.sources
    off = int(rng.integers(n - seg_len + 1))
    off -= off % stride
    sl = slice(off, off + seg_len)
    return entry.mixture[sl], [s[sl] for s in entry.sources]


def train(model, embedder, train_entries, cfg: TrainConfig,
          valid_entries=None, out_dir=None, resume_from=None):
    """Optimize `model` in place. Returns (model, list of EpochLog).

    Deterministic given cfg.seed: the shuffle and crop stream for epoch e
    derives from (seed, e), so resuming from an epoch-boundary checkpoint
    continues bit-identically.
    """
    cfg.validate()
    if cfg.idloss and embedder is None:
        raise ConfigurationError("idloss flag set but no embedder given")
    c = model.config.num_speakers
    for entry in train_entries:
        if len(entry.sources) != c:
            raise InputError(
                f"train: entry has {len(entry.sources)} sources, model "
                f"separates {c}")
    model.set_requires_grad(True)
    if embedder is not None:
        embedder.set_requires_grad(False)
    opt = Adam(model.named_parameters(), lr=cfg.lr)
    n = len(train_entries)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    start_epoch = 1
    if resume_from is not None:
        loaded, _seed, step, opt_state = ckpt.load_separator(resume_from)
        if loaded.config.to_dict() != model.config.to_dict():
            raise ConfigurationError(
                "resume checkpoint config does not match the model")
        for (_, dst), (_, src) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            dst.data = src.data
        if opt_state:
            opt.load_state_arrays(opt_state)
        start_epoch = step // steps_per_epoch + 1

    seg_len = int(round(cfg.segment_s * model.config.sample_rate))
    stride = model.config.kernel_len // 2
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
                    x32 = np.asarray(x, dtype=np.float32)
                    t32 = [np.asarray(t, dtype=np.float32) for t in targets]
                    groups = separator.forward(model, ad.Tensor(x32),
                                               multiloss=cfg.multiloss)
                    loss, assigns = losses.multiscale_loss(t32, groups)
                    if cfg.idloss:
                        idl = losses.id_loss(t32, groups[-1], assigns[-1],
                                             embedder)
                        loss = ad.add(loss, ad.scale(idl, cfg.id_weight))
                    total = loss if total is None else ad.add(total, loss)
                total = ad.scale(total, 1.0 / len(idxs))
                value = total.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"train: non-finite loss {value} at step {step_no} "
                        f"(epoch {epoch})")
                tape.backward(total)
            clip_global_norm(model.named_parameters(), cfg.clip_norm)
            opt.step()
            model.zero_grad()
            epoch_losses.append(value)
        val = (validate(model, valid_entries)
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


def validate(model, entries) -> float:
    """Mean SI-SNRi of final-scale separations at the optimal channel
    assignment. Pure read: no parameter mutation."""
    vals = []
    for entry in entries:
        ests = separator.separate(model, entry.mixture)
        value, _ = evalkit.aligned_si_snri(entry.sources, ests,
                                           entry.mixture)
        vals.append(value)
    return float(np.mean(vals))
