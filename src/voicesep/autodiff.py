"""Minimal reverse-mode automatic differentiation on numpy arrays.

The engine records operations on a dynamic tape (define-by-run). The op set
is deliberately closed: exactly what the separator network, the losses and
the speaker embedder need. There is NO implicit broadcasting -- every
elementwise op demands identical shapes, so chunk-axis bookkeeping bugs
surface immediately as DimensionError.

Training runs in float32; gradient checking runs the same graph in float64
(dtype follows the inputs through every op).
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateTargetError,
                     DimensionError, InputError, UsageError)

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A shaped buffer of 32- or 64-bit reals, optionally carrying a grad."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._tape: Optional["Tape"] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a scalar tensor, got shape "
                             f"{self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into grad. A first g is copied, unless `owned`: an array
        the caller just made and neither keeps nor hands to another
        tensor, which grad then adopts."""
        if self.grad is None:
            self.grad = (np.asarray(g, dtype=self.data.dtype) if owned else
                         np.array(g, dtype=self.data.dtype, copy=True))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"


class _Node(NamedTuple):
    out: Tensor
    backward: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of operations for one forward pass.

    Replaying the record in reverse visits every node after all of its
    consumers, so a single backward sweep suffices. A tape outlives its
    backward (every output it recorded refers to it), so an op whose
    saved arrays are large drops them when its backward closure ends:
    a spent tape then pins none of them.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _TAPE_STACK.get()
        assert stack[-1] is self
        _TAPE_STACK.set(stack[:-1])
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        out._tape = self
        self._nodes.append(_Node(out, backward))

    def backward(self, loss: Tensor) -> None:
        """Populate grads of every parameter reachable from `loss`.

        Runs once per tape: ops may have dropped the arrays they saved, so
        a second call raises UsageError. Parameter (leaf) grads accumulate
        across tapes. Each intermediate (recorded output) grad is dropped
        as soon as its node's backward has consumed it, so none is held
        after the call.
        """
        if loss._tape is not self:
            raise UsageError("backward() called on a tensor that was not "
                             "produced under this tape")
        if loss.data.size != 1:
            raise UsageError("backward() requires a scalar loss, got shape "
                             f"{loss.data.shape}")
        if self._spent:
            raise UsageError("backward() already ran on this tape")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            g, node.out.grad = node.out.grad, None
            if g is not None:
                node.backward(g)


# The tapes entered in this thread (or asyncio task), innermost last. A
# context variable, so that concurrent forward passes each record onto
# their own tape; a tuple, so that a copied context shares no list.
_TAPE_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "voicesep_tape_stack", default=())


def active_tape() -> Optional[Tape]:
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


def _finish(out: Tensor, inputs: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Propagate requires_grad and record on the active tape if any."""
    needs = any(t.requires_grad for t in inputs)
    out.requires_grad = needs
    tape = active_tape()
    if needs and tape is not None:
        tape.record(out, backward)
    return out


def _check_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        for ax, (da, db) in enumerate(zip(a.data.shape, b.data.shape)):
            if da != db:
                raise DimensionError(
                    f"{opname}: axis {ax} mismatch ({da} vs {db})")
        raise DimensionError(
            f"{opname}: rank mismatch ({a.data.shape} vs {b.data.shape})")


def _check_same_dtype(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise UsageError(f"{opname}: mixed dtypes {a.data.dtype} vs "
                         f"{b.data.dtype}; convert explicitly")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    _check_same_dtype(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)
    return _finish(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    _check_same_dtype(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)
    return _finish(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    _check_same_dtype(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)
    return _finish(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * x.data.dtype.type(c))

    def backward(g):
        x.accumulate_grad(g * x.data.dtype.type(c))
    return _finish(out, (x,), backward)


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """PReLU with a single learnable slope shared over the whole tensor."""
    if slope.data.size != 1:
        raise DimensionError("prelu: slope must be a scalar tensor")
    _check_same_dtype(x, slope, "prelu")
    a = slope.data.reshape(())
    neg = x.data < 0
    out = Tensor(np.where(neg, a * x.data, x.data))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(neg, a * g, g))
        if slope.requires_grad:
            slope.accumulate_grad(
                np.sum(g * np.where(neg, x.data, 0)).reshape(slope.data.shape))
    return _finish(out, (x, slope), backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x > floor."""
    out = Tensor(np.maximum(x.data, x.data.dtype.type(floor)))

    def backward(g):
        x.accumulate_grad(g * (x.data > floor))
    return _finish(out, (x,), backward)


def log1p(x: Tensor) -> Tensor:
    out = Tensor(np.log1p(x.data))

    def backward(g):
        x.accumulate_grad(g / (1.0 + x.data))
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def mean_axes(x: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    out_data = np.mean(x.data, axis=axes)
    n = int(np.prod([x.data.shape[a] for a in axes]))
    out = Tensor(out_data)

    def backward(g):
        ge = np.expand_dims(g, axes)
        x.accumulate_grad(np.broadcast_to(ge / n, x.data.shape).copy())
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        x.accumulate_grad(g.reshape(x.data.shape))
    return _finish(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))

    def backward(g):
        x.accumulate_grad(g.transpose(inv))
    return _finish(out, (x,), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous copy of the range [start, stop) along one axis."""
    n = x.data.shape[axis]
    if not 0 <= start <= stop <= n:
        raise DimensionError(
            f"slice_axis: range [{start}, {stop}) outside axis {axis} of "
            f"length {n}")
    idx = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor(np.ascontiguousarray(x.data[idx]))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        x.accumulate_grad(gx)
    return _finish(out, (x,), backward)


def pad_rows(x: Tensor, front: int, back: int) -> Tensor:
    """Zero-pad along axis 0."""
    widths = [(front, back)] + [(0, 0)] * (x.data.ndim - 1)
    out = Tensor(np.pad(x.data, widths))
    n = x.data.shape[0]

    def backward(g):
        x.accumulate_grad(g[front:front + n])
    return _finish(out, (x,), backward)


def gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """out = x[..., idx] along the last axis (idx may repeat / reflect)."""
    idx = np.asarray(idx)
    if idx.min() < 0 or idx.max() >= x.data.shape[-1]:
        raise DimensionError("gather: index out of range on the last axis")
    out = Tensor(x.data[..., idx])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (Ellipsis, idx), g)
        x.accumulate_grad(gx)
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Chunking / overlap-add kernels (axis 0 = frames)
# ---------------------------------------------------------------------------

def _ola_scatter(a: np.ndarray) -> np.ndarray:
    """Sum (R, K, ...) windows at hop K/2 into a ((R+1)*K/2, ...) buffer:
    each hop-slot receives exactly two half-windows."""
    r, hop = a.shape[0], a.shape[1] // 2
    out = np.zeros(((r + 1) * hop,) + a.shape[2:], dtype=a.dtype)
    slots = out.reshape((r + 1, hop) + a.shape[2:])
    slots[:r] += a[:, :hop]
    slots[1:] += a[:, hop:]
    return out


def _window_view(x: np.ndarray, k: int, hop: int, r: int) -> np.ndarray:
    """Strided (R, K, ...) view of windows of x along axis 0."""
    shape = (r, k) + x.shape[1:]
    strides = (hop * x.strides[0], x.strides[0]) + x.strides[1:]
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def chunk_rows(x: Tensor, k: int) -> Tensor:
    """Cut x (frames first) into windows of even length K at hop K/2 ->
    (R, K, ...).

    The padded length must tile exactly: (R-1)*K/2 + K == len(x).
    """
    n = x.data.shape[0]
    if k <= 0 or k % 2 != 0:
        raise ConfigurationError("chunk_rows: K must be positive and even")
    hop = k // 2
    if n < k or n % hop != 0:
        raise DimensionError(
            f"chunk_rows: length {n} does not tile with K={k}, hop={hop}")
    r = (n - k) // hop + 1
    out = Tensor(np.ascontiguousarray(_window_view(x.data, k, hop, r)))

    def backward(g):
        x.accumulate_grad(_ola_scatter(g))
    return _finish(out, (x,), backward)


def ola_rows(c: Tensor, out_len: int) -> Tensor:
    """Overlap-add (R, K, ...) windows at hop K/2 back to (out_len, ...):
    each hop-slot gets window t's first half, then window t-1's second
    half."""
    r, k = c.data.shape[0], c.data.shape[1]
    hop = k // 2
    if k % 2 != 0 or (r + 1) * hop != out_len:
        raise DimensionError(
            f"ola_rows: {r} windows of {k} at hop K/2 do not produce "
            f"{out_len} frames")
    out = Tensor(_ola_scatter(c.data))

    def backward(g):
        c.accumulate_grad(np.ascontiguousarray(
            _window_view(np.ascontiguousarray(g), k, hop, r)))
    return _finish(out, (c,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: (..., Fin) @ (Fin, Fout) + b. Rows
    split across calls, or merged into one, keep their bits only while
    every GEMM stays on one side of OpenBLAS's small-matrix switch
    (M*N*K = 10^6 in OpenBLAS 0.3.31), whose kernels sum in other orders."""
    fin, fout = w.data.shape
    if x.data.shape[-1] != fin:
        raise DimensionError(
            f"linear: last axis {x.data.shape[-1]} != weight input {fin}")
    if b is not None and b.data.shape != (fout,):
        raise DimensionError(f"linear: bias shape {b.data.shape} != ({fout},)")
    _check_same_dtype(x, w, "linear")
    x2 = x.data.reshape(-1, fin)
    y = x2 @ w.data
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(x.data.shape[:-1] + (fout,)))

    def backward(g):
        g2 = g.reshape(-1, fout)
        if x.requires_grad:
            x.accumulate_grad((g2 @ w.data.T).reshape(x.data.shape),
                              owned=True)
        if w.requires_grad:
            w.accumulate_grad(x2.T @ g2, owned=True)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
    inputs = (x, w) if b is None else (x, w, b)
    return _finish(out, inputs, backward)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _conv2d_scatter_index(cin: int, h: int, w: int, kh: int,
                          kw: int) -> np.ndarray:
    """Flat input offset of every (output position, patch element) pair of
    a valid stride-1 convolution; read-only, since callers share it."""
    ho, wo = h - kh + 1, w - kw + 1
    ci, di, dj = np.meshgrid(np.arange(cin), np.arange(kh), np.arange(kw),
                             indexing="ij")
    patch = (ci * h * w + di * w + dj).reshape(-1)  # (cin*kh*kw,)
    ii, jj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    origin = (ii * w + jj).reshape(-1)  # (ho*wo,)
    idx = origin[:, None] + patch[None, :]
    idx.flags.writeable = False
    return idx


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Valid 2-D convolution, stride 1, one GEMM per image of the batch:
    (B,Cin,H,W) * (Cout,Cin,kh,kw)."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError("conv2d: expects (B,Cin,H,W), (Cout,Cin,kh,kw)")
    bsz, cin, h, w = x.data.shape
    cout, kcin, kh, kw = kernel.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d: channel axis mismatch ({cin} vs {kcin})")
    if h < kh or w < kw:
        raise InputError("conv2d: input smaller than kernel")
    _check_same_dtype(x, kernel, "conv2d")
    ho, wo = h - kh + 1, w - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw),
                                                   axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5).reshape(
        bsz, ho * wo, cin * kh * kw))
    kmat = kernel.data.reshape(cout, cin * kh * kw)
    out = Tensor((cols @ kmat.T).transpose(0, 2, 1).reshape(bsz, cout, ho, wo))

    def backward(g):
        g2 = g.reshape(bsz, cout, ho * wo)
        if kernel.requires_grad:
            kernel.accumulate_grad(
                (g2 @ cols).sum(axis=0).reshape(kernel.data.shape))
        if x.requires_grad:
            dcols = g2.transpose(0, 2, 1) @ kmat  # (B, ho*wo, cin*kh*kw)
            gx = np.zeros((bsz, cin * h * w), dtype=x.data.dtype)
            idx = _conv2d_scatter_index(cin, h, w, kh, kw)
            for gx_row, dcols_row in zip(gx, dcols):  # add.at's fast path
                np.add.at(gx_row, idx, dcols_row)
            x.accumulate_grad(gx.reshape(x.data.shape))
    return _finish(out, (x, kernel), backward)


def avgpool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 average pooling over the last two axes; a
    trailing odd row or column is dropped."""
    *lead, h, w = x.data.shape
    ho, wo = h // 2, w // 2
    if ho == 0 or wo == 0:
        raise InputError("avgpool2d: input smaller than pool size")
    trimmed = x.data[..., :ho * 2, :wo * 2]
    out = Tensor(trimmed.reshape(*lead, ho, 2, wo, 2).mean(axis=(-3, -1)))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., :ho * 2, :wo * 2] = np.repeat(np.repeat(g, 2, axis=-2), 2,
                                              axis=-1) / 4
        x.accumulate_grad(gx)
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Recurrent cell
# ---------------------------------------------------------------------------

# Time steps per block of the BiLSTM input projection. At least 2, so a
# block is a single-row product only when the whole input is one row.
_PROJ_BLOCK = 8


class LSTMParams(NamedTuple):
    """Fused bidirectional LSTM parameters.

    Leading axis 0/1 = forward/backward direction; gate order along the
    last axis is input, forget, output, cell candidate (the three sigmoid
    gates first so they activate in one fused call). bilstm_bank takes
    one set, or two whose outputs it multiplies (the MulCat gate), and
    stacks their directions along one axis D = 2 * sets, forward and
    backward interleaved, so direction d of set s sits at 2 * s + d. Its
    input is always batched: (B, S, F).
    """
    wx: Tensor  # (2, F, 4H)
    wh: Tensor  # (2, H, 4H)
    b: Tensor   # (2, 4H)


def _check_lstm_params(params: LSTMParams):
    wx, wh, b = params
    if wx.data.ndim != 3 or wx.data.shape[0] != 2:
        raise ConfigurationError(
            "bilstm_bank: wx must have shape (2, F, 4H)")
    F, H4 = wx.data.shape[1], wx.data.shape[2]
    H = H4 // 4
    if H <= 0 or H4 != 4 * H:
        raise ConfigurationError(
            "bilstm_bank: hidden width must be positive")
    if wh.data.shape != (2, H, 4 * H) or b.data.shape != (2, 4 * H):
        raise ConfigurationError(
            "bilstm_bank: parameter shapes inconsistent")
    return F, H


def bilstm_bank(x: Tensor, param_sets: Sequence[LSTMParams]) -> Tensor:
    """The MulCat block's gate and skip: run one or two bidirectional
    LSTMs over the same input in one fused recurrence, and concatenate
    the input to their output.

    x: (B, S, F). Returns one (B, S, 2H + F) tensor: in its first 2H
    columns the output of the one parameter set (the "-gating"
    ablation), or the elementwise product of the outputs of the two; in
    its last F columns a copy of x. All D = 2 * sets directions advance
    together as one stacked batch, so each step is a handful of large
    numpy calls -- this loop is the hot path of training and inference.

    Layout: the input is projected outside the step loop, one block of
    _PROJ_BLOCK steps at a time: its time-major rows [t0, t0+block) for
    the forward directions and the mirrored rows [S-t0-block, S-t0) for
    the reverse ones, which read input row S-1-t at step t, are copied
    into one (2, block, B, F) staging buffer, and two (block*B, F) @
    (F, sets*4H) products fill one (2, block*B, sets*4H) buffer; the
    call reuses both. Each step's gate math runs in place in one
    contiguous (D, B, 4H) buffer, and its h goes into one contiguous
    (D, B, H) buffer, which the next step's recurrence reads. No hidden-state staging and no per-set outputs:
    each step writes h, or with two sets the product of the sets' h,
    straight into the output's first 2H columns, the forward directions
    at time t and the reverse ones at time S-1-t.

    Without a recording tape (or when nothing requires grad) the loop
    keeps only h, c and the output it fills. Under a tape the op saves
    for backward the activated gates, copied each step into one
    (D, B, S, 4H) buffer, and the stacked weights. Backward sends the
    skip columns' gradient to x and the first 2H columns' into the
    recurrence. It rebuilds c, and h = o * tanh(c) step by step, from
    the gates bit for bit, with the forward's ops in its order, and
    writes each step's gate grads over that step's gates, so that
    buffer ends as dZ. Its last act is to drop the gates and the
    stacked weights, so a spent tape holds neither.
    """
    if len(param_sets) not in (1, 2):
        raise ConfigurationError("bilstm_bank: expected 1 or 2 parameter "
                                 f"sets, got {len(param_sets)}")
    dims = [_check_lstm_params(p) for p in param_sets]
    F, H = dims[0]
    if any(d != (F, H) for d in dims):
        raise ConfigurationError("bilstm_bank: parameter sets disagree on "
                                 "feature or hidden width")
    xd = x.data
    if xd.ndim != 3 or xd.shape[2] != F:
        raise ConfigurationError(
            f"bilstm_bank: input shape {xd.shape} is not (B, S, {F})")
    B, S, _ = xd.shape
    dt = x.data.dtype
    for p in param_sets:
        if p.wx.data.dtype != dt:
            raise UsageError("bilstm_bank: mixed dtypes between input and "
                             "parameters")
    n_sets = len(param_sets)
    D = 2 * n_sets  # sets x directions
    G, H2, H3 = 4 * H, 2 * H, 3 * H
    inputs = (x,) + tuple(t for p in param_sets for t in p)
    tape = active_tape()
    keep = tape is not None and any(t.requires_grad for t in inputs)
    wxs = np.concatenate([p.wx.data for p in param_sets])
    whs = np.concatenate([p.wh.data for p in param_sets])
    bs = np.concatenate([p.b.data for p in param_sets])

    # forward and reverse directions project through their own
    # (F, sets * 4H) weights
    wp = wxs.reshape(n_sets, 2, F, G).transpose(1, 2, 0, 3).reshape(
        2, F, n_sets * G)
    bp = bs.reshape(n_sets, 2, G).transpose(1, 0, 2).reshape(2, n_sets * G)
    nb = min(_PROJ_BLOCK, S)
    xs = np.empty((2, nb, B, F), dtype=dt)
    pbuf = np.empty((2, nb * B, n_sets * G), dtype=dt)
    proj = pbuf.reshape(2, nb, B, n_sets, G)

    # the output, filled step by step: forward hidden states in its first
    # H columns and reverse ones, in input time order, in the next H; with
    # two sets, each is the product of the two sets' hidden states. The
    # skip path, x itself, fills the last F columns.
    y = np.empty((B, S, H2 + F), dtype=dt)
    y[..., H2:] = xd
    gates = np.empty((D, B, S, G), dtype=dt) if keep else None
    z = np.empty((D, B, G), dtype=dt)
    h = np.zeros((D, B, H), dtype=dt)
    h_sets = h.reshape(n_sets, 2, B, H)
    c = np.zeros((D, B, H), dtype=dt)
    tmp = np.empty((D, B, H), dtype=dt)
    for t in range(S):
        if t % nb == 0:
            # Every block has nb steps, so the last one may overlap the one
            # before: with B = 1 a one-step tail would be a single-row
            # product, which numpy hands to gemv, whose sums differ from
            # gemm's in the last bits.
            t0 = min(t, S - nb)
            xs[0] = xd[:, t0:t0 + nb].transpose(1, 0, 2)
            xs[1] = xd[:, S - t0 - nb:S - t0].transpose(1, 0, 2)
            np.matmul(xs[0].reshape(-1, F), wp[0], out=pbuf[0])
            np.matmul(xs[1].reshape(-1, F), wp[1], out=pbuf[1])
            pbuf += bp[:, None]
        np.matmul(h, whs, out=z)
        z[0::2] += proj[0, t - t0].transpose(1, 0, 2)
        z[1::2] += proj[1, t0 + nb - 1 - t].transpose(1, 0, 2)
        # sigmoid(v) = 0.5*tanh(v/2)+0.5 on the three sigmoid gates, so
        # one tanh call activates all four
        sig = z[..., :H3]
        sig *= 0.5
        np.tanh(z, out=z)
        sig *= 0.5
        sig += 0.5
        np.multiply(z[..., H:H2], c, out=c)
        np.multiply(z[..., :H], z[..., H3:], out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        # the next step's matmul reads this contiguous h, not a strided
        # view of the outputs: its sums could then differ in the last bits
        np.multiply(z[..., H2:H3], tmp, out=h)
        np.multiply.reduce(h_sets[:, 0], axis=0, out=y[:, t, :H])
        np.multiply.reduce(h_sets[:, 1], axis=0, out=y[:, S - 1 - t, H:H2])
        if keep:
            gates[:, :, t] = z
    out = Tensor(y)

    def backward(g):
        nonlocal gates, wxs, whs
        # rebuild c as the forward made it: f*c, then i*g, then +=
        cs = np.empty((S, D, B, H), dtype=dt)
        tmp = np.empty((D, B, H), dtype=dt)
        c = np.zeros((D, B, H), dtype=dt)
        for t in range(S):
            np.multiply(gates[:, :, t, H:H2], c, out=cs[t])
            np.multiply(gates[:, :, t, :H], gates[:, :, t, H3:], out=tmp)
            cs[t] += tmp
            c = cs[t]
        # the grads of the set outputs, time-major, the reverse directions
        # in step order
        g_time = g.transpose(1, 0, 2)
        fwd_g, rev_g = g_time[..., :H], g_time[::-1, :, H:H2]
        # each step's h as the next step read it, batch-major, the rows the
        # recurrent weight-gradient products reduce over; step 0 read none
        h_prev = np.empty((D, B, S, H), dtype=dt)
        h_prev[:, :, 0] = 0.0
        dh = np.zeros((D, B, H), dtype=dt)
        dc = np.zeros((D, B, H), dtype=dt)
        ht = np.empty((D, B, H), dtype=dt)
        tc = np.empty((D, B, H), dtype=dt)
        dht = np.empty((D, B, H), dtype=dt)
        ht_sets, dht_sets = (a.reshape(n_sets, 2, B, H) for a in (ht, dht))
        dct = np.empty((D, B, H), dtype=dt)
        tmp3 = np.empty((D, B, H3), dtype=dt)
        dzt = np.empty((D, B, G), dtype=dt)
        wh_t = np.ascontiguousarray(whs.transpose(0, 2, 1))
        for t in range(S - 1, -1, -1):
            gt = gates[:, :, t]
            zi = gt[..., :H]
            zf = gt[..., H:H2]
            zo = gt[..., H2:H3]
            zg = gt[..., H3:]
            np.tanh(cs[t], out=tc)
            np.multiply(tc, zo, out=ht)
            if t < S - 1:
                h_prev[:, :, t + 1] = ht
            # dht = the set output's grad + dh; through the product, as
            # mul's, when there are two sets
            if n_sets == 1:
                dht[0], dht[1] = fwd_g[t], rev_g[t]
            else:
                np.multiply(fwd_g[t], ht_sets[::-1, 0], out=dht_sets[:, 0])
                np.multiply(rev_g[t], ht_sets[::-1, 1], out=dht_sets[:, 1])
            dht += dh
            # dct = dc + dht * zo * (1 - tc^2)
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dht, zo, out=dct)
            dct *= tmp
            dct += dc
            # raw gate grads, then one fused sigmoid-derivative pass
            np.multiply(dct, zg, out=dzt[..., :H])
            if t > 0:
                np.multiply(dct, cs[t - 1], out=dzt[..., H:H2])
            else:
                dzt[..., H:H2] = 0.0
            np.multiply(dht, tc, out=dzt[..., H2:H3])
            sg = dzt[..., :H3]
            sgate = gt[..., :H3]
            sg *= sgate
            np.subtract(1.0, sgate, out=tmp3)
            sg *= tmp3
            np.multiply(zg, zg, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dg = dzt[..., H3:]
            np.multiply(dct, zi, out=dg)
            dg *= tmp
            np.matmul(dzt, wh_t, out=dh)
            np.multiply(dct, zf, out=dc)
            # step t's gates are spent; dZ takes their place, batch-major,
            # the row order the weight-gradient products reduce over
            gt[...] = dzt
        del cs, c   # spent: the weight and input grads need no cell state
        dZ = gates
        dZ2 = dZ.reshape(D, B * S, G)
        h_prev2 = h_prev.reshape(D, B * S, H)
        if any(p.wx.requires_grad for p in param_sets):
            # the rows each direction read: x itself for the forward ones,
            # a reversed copy for the reverse ones
            x_rows = (xd.reshape(B * S, F),
                      np.ascontiguousarray(xd[:, ::-1]).reshape(B * S, F))
        for s, p in enumerate(param_sets):
            sl = slice(2 * s, 2 * s + 2)
            if p.b.requires_grad:
                p.b.accumulate_grad(dZ[sl].sum(axis=(1, 2)), owned=True)
            if p.wh.requires_grad:
                p.wh.accumulate_grad(np.matmul(
                    h_prev2[sl].transpose(0, 2, 1), dZ2[sl]), owned=True)
            if p.wx.requires_grad:
                gwx = np.empty((2, F, G), dtype=dt)
                for d in range(2):
                    np.matmul(x_rows[d].T, dZ2[2 * s + d], out=gwx[d])
                p.wx.accumulate_grad(gwx, owned=True)
        if x.requires_grad:
            # one direction at a time, never a (D, B, S, F) block: the sum
            # over the forward directions, the one over the reverse
            # directions, then the reverse sum mirrored to input time and
            # the skip columns' grad
            fwd = np.matmul(dZ2[0], wxs[0].T)
            rev = np.matmul(dZ2[1], wxs[1].T)
            if n_sets == 2:
                part = np.matmul(dZ2[2], wxs[2].T)
                fwd += part
                rev += np.matmul(dZ2[3], wxs[3].T, out=part)
                del part
            fwd = fwd.reshape(B, S, F)
            fwd += rev.reshape(B, S, F)[:, ::-1]
            del rev
            fwd += g[..., H2:]
            x.accumulate_grad(fwd, owned=True)
        # drop what the forward saved: a spent tape lives as long as any
        # output it recorded, and would pin it
        gates = wxs = whs = None
    return _finish(out, inputs, backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; logits (B, n), integer labels (B,)."""
    if logits.data.ndim != 2:
        raise DimensionError("cross_entropy: logits must be (B, n)")
    labels = np.asarray(labels, dtype=np.int64)
    bsz, n = logits.data.shape
    if labels.shape != (bsz,):
        raise DimensionError(
            f"cross_entropy: labels shape {labels.shape} != ({bsz},)")
    zm = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(zm)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(zm[np.arange(bsz), labels] -
            np.log(ez.sum(axis=1)))
    out = Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype).reshape(()))

    def backward(g):
        gp = probs.copy()
        gp[np.arange(bsz), labels] -= 1.0
        logits.accumulate_grad(g.reshape(()) * gp / bsz)
    return _finish(out, (logits,), backward)


SNR_FLOOR = 1e-8  # floor of si_snr's residual energy and of its ratio


def si_snr(target: np.ndarray, est: Tensor) -> Tensor:
    """Scale-invariant SNR in dB (Le Roux et al. 2019) of an estimate
    against a constant target of the same shape and dtype: a 1-D pair
    gives a scalar, and (C, T) rows give (C,), row c scoring est[c]
    against target[c].

    Both signals are mean-subtracted; the estimate is projected onto the
    target, and the ratio of projection energy to residual energy gives
    the score, so any positive rescaling of the estimate leaves it
    unchanged. The residual energy and the ratio are floored at
    SNR_FLOOR, so a perfect estimate stays finite. A zero-energy target
    raises DegenerateTargetError. Each row runs the same numpy sequence
    as a 1-D call, so it scores and differentiates bit for bit alike.
    """
    target = np.asarray(target)
    if target.shape != est.data.shape or target.ndim not in (1, 2):
        raise DimensionError(f"si_snr: target {target.shape} and estimate "
                             f"{est.data.shape} must share one (T,) or "
                             "(C, T) shape")
    if target.dtype != est.data.dtype:
        raise UsageError(f"si_snr: mixed dtypes {target.dtype} vs "
                         f"{est.data.dtype}; convert explicitly")
    rows = [_si_snr_row(s, e) for s, e in zip(np.atleast_2d(target),
                                              np.atleast_2d(est.data))]
    out = Tensor(np.reshape([v for v, _ in rows], target.shape[:-1]))

    def backward(g):
        grads = [bwd(gi) for (_, bwd), gi in zip(rows, g.reshape(-1))]
        est.accumulate_grad(np.reshape(grads, est.data.shape), owned=True)
    return _finish(out, (est,), backward)


def _si_snr_row(target: np.ndarray, est: np.ndarray):
    """One si_snr row: its score and the map from the score's gradient
    to the estimate row's."""
    dt = target.dtype.type
    sc = target - np.mean(target)
    ec = est - np.mean(est)
    s_energy = np.vdot(sc, sc)
    if s_energy <= 0.0:
        raise DegenerateTargetError(
            "si_snr: zero-energy target; filter silent references upstream")
    sp = sc * (np.vdot(sc, ec) / s_energy)
    err = ec - sp
    num = np.vdot(sp, sp)
    den0 = np.vdot(err, err)
    den = np.maximum(den0, dt(SNR_FLOOR))
    q = num / den
    ratio = np.maximum(q, dt(SNR_FLOOR))

    def backward(g):
        # Every step keeps a fixed operation order (an energy's gradient
        # is t + t, not 2·t; products as written), which keeps float32
        # gradients bit-identical to this formula built from elementwise
        # engine ops.
        gq = g * dt(10.0) / (ratio * dt(math.log(10.0))) * (q > SNR_FLOOR)
        gnum = gq / den
        gden = -gq * num / (den * den) * (den0 > SNR_FLOOR)
        t = gden * err
        gerr = t + t
        t = gnum * sp
        gsp = t + t - gerr
        gsd = np.sum(gsp * sc) / s_energy
        gec = gerr + gsd * sc
        return gec - np.mean(gec)
    return np.log10(ratio) * dt(10.0), backward


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing tape gradients to central finite differences."""
    max_rel_err: float
    worst: list = field(default_factory=list)  # (name, flat index, analytic, numeric, rel)


_GRAD_CHECK_EPS = 1e-5    # central-difference step
_GRAD_CHECK_ATOL = 1e-6   # absolute floor of the relative error
_GRAD_CHECK_WORST = 5     # coordinates kept in GradCheckReport.worst


def _rel_err(a: float, n: float) -> float:
    """Relative error with an absolute floor: central differences on a
    float64 loss carry ~1e-10 cancellation noise, so coordinates whose
    true gradient is below _GRAD_CHECK_ATOL are judged on absolute
    error."""
    return abs(a - n) / max(abs(a), abs(n), _GRAD_CHECK_ATOL)


def grad_check_many(f: Callable[[], Tensor],
                    tensors: Sequence[tuple]) -> GradCheckReport:
    """Check tape gradients of f() w.r.t. each (name, tensor) pair.

    f must be scalar-valued and re-evaluable; run it in float64 for the
    comparison to be meaningful at a step of _GRAD_CHECK_EPS.
    """
    named = [(name, t) for name, t in tensors]
    for _, t in named:
        t.requires_grad = True
        t.zero_grad()
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = {name: (t.grad.copy() if t.grad is not None
                       else np.zeros_like(t.data)) for name, t in named}
    records = []
    for name, t in named:
        flat = t.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _GRAD_CHECK_EPS
            fp = f().item()
            flat[i] = orig - _GRAD_CHECK_EPS
            fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * _GRAD_CHECK_EPS)
            records.append((name, i, float(aflat[i]), num,
                            _rel_err(float(aflat[i]), num)))
    records.sort(key=lambda r: -r[4])
    max_err = records[0][4] if records else 0.0
    return GradCheckReport(max_rel_err=max_err,
                           worst=records[:_GRAD_CHECK_WORST])
