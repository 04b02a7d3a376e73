"""Adaptive-moment gradient optimizer and gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

BETA1 = 0.9     # decay of the first-moment (mean) estimate
BETA2 = 0.999   # decay of the second-moment estimate
EPS = 1e-8      # added to the root of the second moment


class Adam:
    """Standard Adam with bias correction; no weight decay.

    A step with all-zero gradients leaves parameters exactly unchanged.
    """

    def __init__(self, named_params, lr: float = 5e-4):
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {name} at "
                                   f"optimizer step {self.t}")
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            if np.all(m == 0.0) and np.all(v == 0.0):
                continue  # zero gradient so far: exact no-op
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (self.lr * mhat /
                       (np.sqrt(vhat) + EPS)).astype(p.data.dtype)

    def state_arrays(self) -> dict:
        """Flat name->array view of optimizer state for checkpointing."""
        out = {"adam.t": np.asarray([self.t], dtype=np.float32)}
        for name, _ in self.named_params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        """Adopt state_arrays() output, as load_separator checks it."""
        self.t = int(arrays["adam.t"][0])
        for name, p in self.named_params:
            self.m[name] = arrays[f"adam.m.{name}"].astype(p.data.dtype)
            self.v[name] = arrays[f"adam.v.{name}"].astype(p.data.dtype)


def clip_global_norm(named_params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad *= p.grad.dtype.type(factor)
    return norm
