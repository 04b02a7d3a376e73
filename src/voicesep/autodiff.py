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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError, UsageError

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

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a scalar tensor, got shape "
                             f"{self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    # Operator sugar; all delegate to the module-level ops below.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"


class _Node(NamedTuple):
    out: Tensor
    backward: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of operations for one forward pass.

    Replaying the record in reverse visits every node after all of its
    consumers, so a single backward sweep suffices. clear() drops the
    recorded closures and with them all saved activations.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        out._tape = self
        self._nodes.append(_Node(out, backward))

    def backward(self, loss: Tensor) -> None:
        """Populate grads of every parameter reachable from `loss`.

        Parameter (leaf) grads accumulate across repeated calls;
        intermediate grads are reset on every call.
        """
        if loss._tape is not self:
            raise UsageError("backward() called on a tensor that was not "
                             "produced under this tape")
        if loss.data.size != 1:
            raise UsageError("backward() requires a scalar loss, got shape "
                             f"{loss.data.shape}")
        # Intermediates (= recorded outputs) start fresh; leaves keep theirs.
        for node in self._nodes:
            node.out.grad = None
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            g = node.out.grad
            if g is not None:
                node.backward(g)

    def clear(self) -> None:
        self._nodes.clear()


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


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


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


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


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    _check_same_dtype(a, b, "div")
    out = Tensor(a.data / b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g / b.data)
        if b.requires_grad:
            b.accumulate_grad(-g * a.data / (b.data * b.data))
    return _finish(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * x.data.dtype.type(c))

    def backward(g):
        x.accumulate_grad(g * x.data.dtype.type(c))
    return _finish(out, (x,), backward)


def smul(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar tensor (differentiable in both)."""
    if s.data.size != 1:
        raise DimensionError(f"smul: scalar operand has shape {s.data.shape}")
    _check_same_dtype(x, s, "smul")
    sval = s.data.reshape(())
    out = Tensor(x.data * sval)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * sval)
        if s.requires_grad:
            s.accumulate_grad(np.sum(g * x.data).reshape(s.data.shape))
    return _finish(out, (x, s), backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def backward(g):
        x.accumulate_grad(g * (x.data > 0))
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
    mask = x.data > floor

    def backward(g):
        x.accumulate_grad(g * mask)
    return _finish(out, (x,), backward)


def log10(x: Tensor) -> Tensor:
    out = Tensor(np.log10(x.data))
    c = x.data.dtype.type(math.log(10.0))

    def backward(g):
        x.accumulate_grad(g / (x.data * c))
    return _finish(out, (x,), backward)


def log1p(x: Tensor) -> Tensor:
    out = Tensor(np.log1p(x.data))

    def backward(g):
        x.accumulate_grad(g / (1.0 + x.data))
    return _finish(out, (x,), backward)


def row_scale(x: Tensor, c: np.ndarray) -> Tensor:
    """Scale row t of x (axis 0) by the constant c[t]."""
    c = np.asarray(c, dtype=x.data.dtype)
    if c.ndim != 1 or c.shape[0] != x.data.shape[0]:
        raise DimensionError(
            f"row_scale: axis 0 mismatch ({x.data.shape[0]} vs {c.shape})")
    cb = c.reshape((-1,) + (1,) * (x.data.ndim - 1))
    out = Tensor(x.data * cb)

    def backward(g):
        x.accumulate_grad(g * cb)
    return _finish(out, (x,), backward)


def const_mul(x: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array of the same shape."""
    c = np.asarray(c, dtype=x.data.dtype)
    if c.shape != x.data.shape:
        raise DimensionError(
            f"const_mul: shape mismatch ({x.data.shape} vs {c.shape})")
    out = Tensor(x.data * c)

    def backward(g):
        x.accumulate_grad(g * c)
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(np.sum(x.data)).reshape(()))

    def backward(g):
        x.accumulate_grad(np.full_like(x.data, g.reshape(())))
    return _finish(out, (x,), backward)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(np.asarray(np.sum(x.data) / n).reshape(()))

    def backward(g):
        x.accumulate_grad(np.full_like(x.data, g.reshape(()) / n))
    return _finish(out, (x,), backward)


def mean_axes(x: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    out_data = np.mean(x.data, axis=axes)
    n = int(np.prod([x.data.shape[a] for a in axes]))
    out = Tensor(out_data)

    def backward(g):
        ge = np.expand_dims(g, axes)
        x.accumulate_grad(np.broadcast_to(ge / n, x.data.shape).copy())
    return _finish(out, (x,), backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Sum of elementwise products (fused: avoids materializing a*b)."""
    _check_same_shape(a, b, "dot")
    _check_same_dtype(a, b, "dot")
    out = Tensor(np.asarray(np.vdot(a.data, b.data),
                            dtype=a.data.dtype).reshape(()))

    def backward(g):
        gv = g.reshape(())
        if a.requires_grad:
            a.accumulate_grad(gv * b.data)
        if b.requires_grad:
            b.accumulate_grad(gv * a.data)
    return _finish(out, (a, b), backward)


def center(x: Tensor) -> Tensor:
    """Subtract the mean (used by scale-invariant metrics)."""
    out = Tensor(x.data - np.mean(x.data))

    def backward(g):
        x.accumulate_grad(g - np.mean(g))
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


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise UsageError("concat of an empty sequence")
    ref = tensors[0]
    for k, t in enumerate(tensors[1:], start=1):
        if t.data.ndim != ref.data.ndim:
            raise DimensionError(f"concat: operand {k} rank mismatch")
        for ax in range(ref.data.ndim):
            if ax != axis % ref.data.ndim and \
                    t.data.shape[ax] != ref.data.shape[ax]:
                raise DimensionError(
                    f"concat: axis {ax} mismatch on operand {k} "
                    f"({t.data.shape[ax]} vs {ref.data.shape[ax]})")
        _check_same_dtype(ref, t, "concat")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])
    return _finish(out, tuple(tensors), backward)


def split(x: Tensor, sizes: Sequence[int], axis: int) -> list:
    if sum(sizes) != x.data.shape[axis]:
        raise DimensionError(
            f"split: sizes sum to {sum(sizes)} but axis {axis} has "
            f"{x.data.shape[axis]}")
    outs = []
    offsets = np.cumsum([0] + list(sizes))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * x.data.ndim
        idx[axis] = slice(int(lo), int(hi))
        idx = tuple(idx)
        piece = Tensor(np.ascontiguousarray(x.data[idx]))

        def backward(g, idx=idx):
            gx = np.zeros_like(x.data)
            gx[idx] = g
            x.accumulate_grad(gx)
        outs.append(_finish(piece, (x,), backward))
    return outs


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(np.ascontiguousarray(x.data[start:stop]))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
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


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    """Stack along a new leading axis."""
    expanded = [reshape(t, (1,) + tuple(t.shape)) for t in tensors]
    return concat(expanded, axis=0) if len(expanded) > 1 else expanded[0]


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[...] = x[idx[...]] along axis 0 (idx may repeat / reflect)."""
    idx = np.asarray(idx)
    if idx.min() < 0 or idx.max() >= x.data.shape[0]:
        raise DimensionError("gather_rows: index out of range on axis 0")
    out = Tensor(x.data[idx])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        x.accumulate_grad(gx)
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Chunking / overlap-add kernels (axis 0 = frames)
# ---------------------------------------------------------------------------

def _ola_scatter(a: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Sum (R, K, ...) windows into a (out_len, ...) buffer at offsets hop."""
    r, k = a.shape[0], a.shape[1]
    out = np.zeros((out_len,) + a.shape[2:], dtype=a.dtype)
    if k == 2 * hop and out_len == (r + 1) * hop:
        # 50% overlap: each hop-slot receives exactly two half-windows.
        slots = out.reshape((r + 1, hop) + a.shape[2:])
        slots[:r] += a[:, :hop]
        slots[1:] += a[:, hop:]
    else:
        for j in range(r):
            out[j * hop:j * hop + k] += a[j]
    return out


def _window_view(x: np.ndarray, k: int, hop: int, r: int) -> np.ndarray:
    """Strided (R, K, ...) view of windows of x along axis 0."""
    shape = (r, k) + x.shape[1:]
    strides = (hop * x.strides[0], x.strides[0]) + x.strides[1:]
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def chunk_rows(x: Tensor, k: int, hop: int) -> Tensor:
    """Cut x (frames first) into overlapping windows -> (R, K, ...).

    The padded length must tile exactly: (R-1)*hop + K == len(x).
    """
    n = x.data.shape[0]
    if k <= 0 or hop <= 0:
        raise ConfigurationError("chunk_rows: K and hop must be positive")
    if (n - k) % hop != 0:
        raise DimensionError(
            f"chunk_rows: length {n} does not tile with K={k}, hop={hop}")
    r = (n - k) // hop + 1
    out = Tensor(np.ascontiguousarray(_window_view(x.data, k, hop, r)))

    def backward(g):
        x.accumulate_grad(_ola_scatter(g, hop, n))
    return _finish(out, (x,), backward)


def ola_rows(c: Tensor, hop: int, out_len: int) -> Tensor:
    """Overlap-add (R, K, ...) windows back to (out_len, ...). Pure sum;
    coverage normalization is the caller's job (see dsp.overlap_add)."""
    r, k = c.data.shape[0], c.data.shape[1]
    if (r - 1) * hop + k != out_len:
        raise DimensionError(
            f"ola_rows: {r} windows of {k} at hop {hop} do not produce "
            f"{out_len} frames")
    out = Tensor(_ola_scatter(c.data, hop, out_len))

    def backward(g):
        c.accumulate_grad(np.ascontiguousarray(
            _window_view(np.ascontiguousarray(g), k, hop, r)))
    return _finish(out, (c,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul: both operands must be rank 2")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner axis mismatch ({a.data.shape[1]} vs "
            f"{b.data.shape[0]})")
    _check_same_dtype(a, b, "matmul")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)
    return _finish(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: (..., Fin) @ (Fin, Fout) + b."""
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
            x.accumulate_grad((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w.accumulate_grad(x2.T @ g2)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
    inputs = (x, w) if b is None else (x, w, b)
    return _finish(out, inputs, backward)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

def conv1d(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Valid 1-D convolution: (Cin, T) * (Cout, Cin, L) -> (Cout, T_out)."""
    if x.data.ndim != 2:
        raise DimensionError("conv1d: input must be (Cin, T)")
    if kernel.data.ndim != 3:
        raise DimensionError("conv1d: kernel must be (Cout, Cin, L)")
    cin, t = x.data.shape
    cout, kcin, L = kernel.data.shape
    if kcin != cin:
        raise DimensionError(
            f"conv1d: channel axis mismatch (input Cin={cin}, kernel "
            f"Cin={kcin})")
    if t < L:
        raise InputError(f"conv1d: input length {t} shorter than kernel {L}")
    if stride <= 0 or (t - L) % stride != 0:
        raise InputError(
            f"conv1d: stride {stride} does not divide sliding range {t - L}")
    _check_same_dtype(x, kernel, "conv1d")
    t_out = (t - L) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x.data, L, axis=1)
    cols = np.ascontiguousarray(
        win[:, ::stride].transpose(1, 0, 2).reshape(t_out, cin * L))
    kmat = kernel.data.reshape(cout, cin * L)
    out = Tensor(np.ascontiguousarray((cols @ kmat.T).T))

    def backward(g):
        # g: (Cout, T_out)
        if kernel.requires_grad:
            kernel.accumulate_grad((g @ cols).reshape(kernel.data.shape))
        if x.requires_grad:
            dcols = (g.T @ kmat).reshape(t_out, cin, L)
            gx = np.zeros_like(x.data)
            pos = (np.arange(t_out)[:, None] * stride + np.arange(L))
            for c in range(cin):
                np.add.at(gx[c], pos, dcols[:, c, :])
            x.accumulate_grad(gx)
    return _finish(out, (x, kernel), backward)


def conv1d_transpose(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Transposed 1-D conv: (Cin, T) * (Cin, Cout, L) -> (Cout, (T-1)s+L)."""
    if x.data.ndim != 2:
        raise DimensionError("conv1d_transpose: input must be (Cin, T)")
    cin, t = x.data.shape
    kcin, cout, L = kernel.data.shape
    if kcin != cin:
        raise DimensionError(
            f"conv1d_transpose: channel axis mismatch ({cin} vs {kcin})")
    _check_same_dtype(x, kernel, "conv1d_transpose")
    t_out = (t - 1) * stride + L
    # y[t', cout, l] then scatter to t'*stride + l
    y = np.tensordot(x.data.T, kernel.data, axes=([1], [0]))  # (T, Cout, L)
    outd = np.zeros((cout, t_out), dtype=x.data.dtype)
    base = np.arange(t) * stride
    for ell in range(L):
        outd[:, base + ell] += y[:, :, ell].T
    out = Tensor(outd)

    def backward(g):
        # windows of g aligned with each input step: (T, Cout, L)
        gw = np.lib.stride_tricks.as_strided(
            g, shape=(t, cout, L),
            strides=(stride * g.strides[1], g.strides[0], g.strides[1]))
        if kernel.requires_grad:
            kernel.accumulate_grad(
                np.tensordot(x.data, gw, axes=([1], [0])))
        if x.requires_grad:
            x.accumulate_grad(
                np.tensordot(gw, kernel.data, axes=([1, 2], [1, 2])).T)
    return _finish(out, (x, kernel), backward)


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
    """Valid 2-D convolution, stride 1: (Cin,H,W) * (Cout,Cin,kh,kw)."""
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError("conv2d: expects (Cin,H,W) and (Cout,Cin,kh,kw)")
    cin, h, w = x.data.shape
    cout, kcin, kh, kw = kernel.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d: channel axis mismatch ({cin} vs {kcin})")
    if h < kh or w < kw:
        raise InputError("conv2d: input smaller than kernel")
    _check_same_dtype(x, kernel, "conv2d")
    ho, wo = h - kh + 1, w - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw),
                                                   axis=(1, 2))
    cols = np.ascontiguousarray(
        win.transpose(1, 2, 0, 3, 4).reshape(ho * wo, cin * kh * kw))
    kmat = kernel.data.reshape(cout, cin * kh * kw)
    out = Tensor((cols @ kmat.T).T.reshape(cout, ho, wo))

    def backward(g):
        g2 = g.reshape(cout, ho * wo)
        if kernel.requires_grad:
            kernel.accumulate_grad((g2 @ cols).reshape(kernel.data.shape))
        if x.requires_grad:
            dcols = g2.T @ kmat  # (ho*wo, cin*kh*kw)
            gx = np.zeros(cin * h * w, dtype=x.data.dtype)
            np.add.at(gx, _conv2d_scatter_index(cin, h, w, kh, kw), dcols)
            x.accumulate_grad(gx.reshape(x.data.shape))
    return _finish(out, (x, kernel), backward)


def avgpool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping average pooling; trailing rows/cols are dropped."""
    c, h, w = x.data.shape
    ho, wo = h // size, w // size
    if ho == 0 or wo == 0:
        raise InputError("avgpool2d: input smaller than pool size")
    trimmed = x.data[:, :ho * size, :wo * size]
    out = Tensor(trimmed.reshape(c, ho, size, wo, size).mean(axis=(2, 4)))

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, :ho * size, :wo * size] = np.repeat(
            np.repeat(g, size, axis=1), size, axis=2) / (size * size)
        x.accumulate_grad(gx)
    return _finish(out, (x,), backward)


# ---------------------------------------------------------------------------
# Recurrent cell
# ---------------------------------------------------------------------------

class LSTMParams(NamedTuple):
    """Fused bidirectional LSTM parameters.

    Leading axis 0/1 = forward/backward direction; gate order along the
    last axis is input, forget, output, cell candidate (the three sigmoid
    gates first so they activate in one fused call). bilstm_bank stacks
    the directions of several sets along one axis D = 2 * sets, forward
    and backward interleaved, so direction d of set s sits at 2 * s + d.
    """
    wx: Tensor  # (2, F, 4H)
    wh: Tensor  # (2, H, 4H)
    b: Tensor   # (2, 4H)


def _check_lstm_params(params: LSTMParams):
    wx, wh, b = params
    if wx.data.ndim != 3 or wx.data.shape[0] != 2:
        raise ConfigurationError("bilstm: wx must have shape (2, F, 4H)")
    F, H4 = wx.data.shape[1], wx.data.shape[2]
    H = H4 // 4
    if H <= 0 or H4 != 4 * H:
        raise ConfigurationError("bilstm: hidden width must be positive")
    if wh.data.shape != (2, H, 4 * H) or b.data.shape != (2, 4 * H):
        raise ConfigurationError("bilstm: parameter shapes inconsistent")
    return F, H


def bilstm_bank(x: Tensor, param_sets: Sequence[LSTMParams]) -> list:
    """Run several bidirectional LSTMs over the same input in one fused
    recurrence.

    x: (S, F) or (B, S, F). Returns one (B, S, 2H) (or (S, 2H)) tensor per
    parameter set. All D = 2 * sets directions advance together as one
    stacked batch, so each step is a handful of large numpy calls -- this
    loop is the hot path of training and inference.

    Layout: one (S*B, F) @ (F, D*4H) product projects the time-major input
    for every direction at once; a reverse direction reads it at step
    S-1-t. Per-step buffers are time-major, (S, D, B, .), so step t is a
    contiguous slice, and the gate math runs in place.

    Without a recording tape (or when nothing requires grad) the loop
    keeps only h, c and the hidden states it returns. Under a tape it also
    saves the activated gates (S, D, B, 4H) and the cell states
    (S, D, B, H); backward recomputes tanh(c) from them, re-reads x for the
    input-weight gradient and the outputs for the hidden-weight gradient.
    """
    if not param_sets:
        raise ConfigurationError("bilstm_bank: no parameter sets")
    dims = [_check_lstm_params(p) for p in param_sets]
    F, H = dims[0]
    if any(d != (F, H) for d in dims):
        raise ConfigurationError("bilstm_bank: parameter sets disagree on "
                                 "feature or hidden width")
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3 or xd.shape[2] != F:
        raise ConfigurationError(
            f"bilstm: input feature width {xd.shape[-1]} != {F}")
    B, S, _ = xd.shape
    dt = x.data.dtype
    for p in param_sets:
        if p.wx.data.dtype != dt:
            raise UsageError("bilstm: mixed dtypes between input and "
                             "parameters")
    n_sets = len(param_sets)
    D = 2 * n_sets  # sets x directions
    G, H3 = 4 * H, 3 * H
    wxs = np.concatenate([p.wx.data for p in param_sets])  # (D, F, 4H)
    whs = np.concatenate([p.wh.data for p in param_sets])
    bs = np.concatenate([p.b.data for p in param_sets])
    tape = active_tape()
    needs = x.requires_grad or any(
        p.wx.requires_grad or p.wh.requires_grad or p.b.requires_grad
        for p in param_sets)
    keep = tape is not None and needs

    proj = xd.transpose(1, 0, 2).reshape(S * B, F) @ \
        wxs.transpose(1, 0, 2).reshape(F, D * G)
    proj += bs.reshape(D * G)
    proj = proj.reshape(S, B, D, G)

    hs = np.empty((S, D, B, H), dtype=dt)
    if keep:
        gates = np.empty((S, D, B, G), dtype=dt)
        cs = np.empty((S, D, B, H), dtype=dt)
    else:
        z = np.empty((D, B, G), dtype=dt)
    h = np.zeros((D, B, H), dtype=dt)
    c = np.zeros((D, B, H), dtype=dt)
    tmp = np.empty((D, B, H), dtype=dt)
    for t in range(S):
        gt = gates[t] if keep else z
        np.matmul(h, whs, out=gt)
        gt[0::2] += proj[t, :, 0::2].transpose(1, 0, 2)
        gt[1::2] += proj[S - 1 - t, :, 1::2].transpose(1, 0, 2)
        # sigmoid(v) = 0.5*tanh(v/2)+0.5 on the three sigmoid gates, so
        # one tanh call activates all four
        sig = gt[..., :H3]
        sig *= 0.5
        np.tanh(gt, out=gt)
        sig *= 0.5
        sig += 0.5
        cn = cs[t] if keep else c
        np.multiply(gt[..., H:2 * H], c, out=cn)
        np.multiply(gt[..., :H], gt[..., H3:], out=tmp)
        cn += tmp
        c = cn
        np.tanh(c, out=tmp)
        h = np.multiply(gt[..., 2 * H:H3], tmp, out=hs[t])
    del proj  # freed before the outputs are allocated

    ods = []
    for s in range(n_sets):
        od = np.empty((B, S, 2 * H), dtype=dt)
        od[..., :H] = hs[:, 2 * s].transpose(1, 0, 2)
        od[..., H:] = hs[::-1, 2 * s + 1].transpose(1, 0, 2)
        ods.append(od)
    outs = [Tensor(od[0] if squeeze else od) for od in ods]
    for o in outs:
        o.requires_grad = needs
    if not keep:
        return outs

    def make_backward(out_grads: list):
        gst = np.empty((S, D, B, H), dtype=dt)
        for s, g in enumerate(out_grads):
            g3 = g[None] if squeeze else g
            gst[:, 2 * s] = g3[..., :H].transpose(1, 0, 2)
            gst[:, 2 * s + 1] = g3[:, ::-1, H:].transpose(1, 0, 2)
        # dZ stays (D, B, S, 4H): the weight-gradient products below then
        # reduce over (B, S) rows in batch-major order
        dZ = np.empty((D, B, S, G), dtype=dt)
        dh = np.zeros((D, B, H), dtype=dt)
        dc = np.zeros((D, B, H), dtype=dt)
        tc = np.empty((D, B, H), dtype=dt)
        dht = np.empty((D, B, H), dtype=dt)
        dct = np.empty((D, B, H), dtype=dt)
        tmp = np.empty((D, B, H), dtype=dt)
        tmp3 = np.empty((D, B, H3), dtype=dt)
        wh_t = np.ascontiguousarray(whs.transpose(0, 2, 1))
        for t in range(S - 1, -1, -1):
            gt = gates[t]
            zi = gt[..., :H]
            zf = gt[..., H:2 * H]
            zo = gt[..., 2 * H:H3]
            zg = gt[..., H3:]
            np.tanh(cs[t], out=tc)
            np.add(gst[t], dh, out=dht)
            # dct = dc + dht * zo * (1 - tc^2)
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dht, zo, out=dct)
            dct *= tmp
            dct += dc
            dzt = dZ[:, :, t, :]
            # raw gate grads, then one fused sigmoid-derivative pass
            np.multiply(dct, zg, out=dzt[..., :H])
            if t > 0:
                np.multiply(dct, cs[t - 1], out=dzt[..., H:2 * H])
            else:
                dzt[..., H:2 * H] = 0.0
            np.multiply(dht, tc, out=dzt[..., 2 * H:H3])
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
        dZ2 = dZ.reshape(D, B * S, G)
        if any(p.wx.requires_grad for p in param_sets):
            X2 = np.stack([xd, xd[:, ::-1]]).reshape(2, B * S, F)
        for s, p in enumerate(param_sets):
            sl = slice(2 * s, 2 * s + 2)
            if p.b.requires_grad:
                p.b.accumulate_grad(dZ[sl].sum(axis=(1, 2)))
            if p.wh.requires_grad:
                # the outputs hold the hidden states; the reverse half is
                # stored in input time order
                h_prev = np.zeros((2, B, S, H), dtype=dt)
                h_prev[0, :, 1:] = ods[s][:, :-1, :H]
                h_prev[1, :, 1:] = ods[s][:, :0:-1, H:]
                p.wh.accumulate_grad(np.matmul(
                    h_prev.reshape(2, B * S, H).transpose(0, 2, 1),
                    dZ2[sl]))
            if p.wx.requires_grad:
                p.wx.accumulate_grad(np.matmul(X2.transpose(0, 2, 1),
                                               dZ2[sl]))
        if x.requires_grad:
            dX = np.matmul(dZ2, wxs.transpose(0, 2, 1)).reshape(D, B, S, F)
            dx = dX[0::2].sum(axis=0) + dX[1::2, :, ::-1].sum(axis=0)
            x.accumulate_grad(dx[0] if squeeze else dx)

    # Several tape outputs share one recurrence, so grads are buffered as
    # the reverse sweep delivers them and the fused BPTT runs once, from an
    # anchor node recorded *before* the outputs (reverse order visits it
    # after all of them). Outputs the loss never reached contribute zeros.
    pending: dict[int, np.ndarray] = {}
    anchor = Tensor(np.zeros((), dtype=dt))
    anchor.requires_grad = True

    def anchor_backward(_g):
        zero_shape = (S, 2 * H) if squeeze else (B, S, 2 * H)
        make_backward([pending.get(i, np.zeros(zero_shape, dtype=dt))
                       for i in range(n_sets)])
        pending.clear()

    tape.record(anchor, anchor_backward)
    for idx, o in enumerate(outs):
        def buffer_backward(g, idx=idx):
            pending[idx] = g
            anchor.grad = np.ones((), dtype=dt)
        tape.record(o, buffer_backward)
    return outs


def bilstm(x: Tensor, params: LSTMParams) -> Tensor:
    """Bidirectional LSTM over (S, F) or batched (B, S, F) sequences.

    Returns the per-step concatenation of the forward and backward hidden
    states: (..., S, 2H).
    """
    return bilstm_bank(x, [params])[0]


# ---------------------------------------------------------------------------
# Classification head
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


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing tape gradients to central finite differences."""
    max_rel_err: float
    tol: float
    worst: list = field(default_factory=list)  # (name, flat index, analytic, numeric, rel)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, n: float, atol: float = 1e-6) -> float:
    """Relative error with an absolute floor: central differences on a
    float64 loss carry ~1e-10 cancellation noise, so coordinates whose
    true gradient is below `atol` are judged on absolute error."""
    return abs(a - n) / max(abs(a), abs(n), atol)


def grad_check_many(f: Callable[[], Tensor], tensors: Sequence[tuple],
                    eps: float = 1e-5, tol: float = 1e-4,
                    atol: float = 1e-6, max_worst: int = 5) -> GradCheckReport:
    """Check tape gradients of f() w.r.t. each (name, tensor) pair.

    f must be scalar-valued and re-evaluable; run it in float64 for the
    comparison to be meaningful at the default eps.
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
            flat[i] = orig + eps
            fp = f().item()
            flat[i] = orig - eps
            fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * eps)
            records.append((name, i, float(aflat[i]), num,
                            _rel_err(float(aflat[i]), num, atol)))
    records.sort(key=lambda r: -r[4])
    max_err = records[0][4] if records else 0.0
    return GradCheckReport(max_rel_err=max_err, tol=tol,
                           worst=records[:max_worst])


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor,
               eps: float = 1e-5, tol: float = 1e-4,
               atol: float = 1e-6) -> GradCheckReport:
    """Check the gradient of a scalar tensor function at one point."""
    return grad_check_many(lambda: f(point), [("point", point)],
                           eps=eps, tol=tol, atol=atol)
