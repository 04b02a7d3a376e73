"""SI-SNR, permutation-invariant assignment, multi-scale and identity losses.

All losses are differentiable in the estimates: one (C, T) Tensor or
numpy array per scale, a waveform per row, as the separator's decode heads
return them. Targets are C constant waveforms: numpy arrays, or Tensors
that do not require grad.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embedder import CLIP_LEN
from .errors import InputError, NumericError, UsageError

# best_permutation tries every assignment: at 9 channels its 362,880
# candidates take about 0.2 s, and each further channel multiplies that
# by ten or more
MAX_CHANNELS = 9


def si_snr(target, estimate) -> Tensor:
    """Scale-invariant SNR in dB of estimate against target (scalar tensor,
    differentiable in the estimate); see autodiff.si_snr."""
    s = ad.as_tensor(target)
    if s.requires_grad:
        raise UsageError("si_snr: the target is a constant and takes no "
                         "gradient; pass it detached")
    return ad.si_snr(s.data, ad.as_tensor(estimate))


def pairwise_matrix(targets, estimates) -> np.ndarray:
    """len(targets) x len(estimates) dB matrix as plain floats, entry
    [i, j] = si_snr(s_i, e_j), recorded on no tape. Needs no more
    targets than estimates."""
    if len(targets) > len(estimates):
        raise InputError(
            f"pairwise matrix needs at least as many estimates as targets, "
            f"got {len(targets)} targets vs {len(estimates)} estimates")
    return np.array([[si_snr(s, e).item() for e in estimates]
                     for s in targets])


def best_permutation(score_matrix: np.ndarray) -> tuple:
    """Assignment of each row (target) to a distinct column (estimate)
    that maximizes the summed score, found by trying every injection of
    rows into columns. Accepts rows <= cols <= MAX_CHANNELS (more columns
    raise InputError before any search); row i maps to column perm[i].
    Of equal sums the lexicographically first injection wins, so the
    all-equal matrix gives the identity. A non-finite score raises
    NumericError."""
    rows, cols = score_matrix.shape
    if rows > cols:
        raise InputError(
            f"best_permutation: {rows} rows but only {cols} columns")
    if cols > MAX_CHANNELS:
        raise InputError(f"best_permutation: {cols} columns, at most "
                         f"{MAX_CHANNELS} are searched")
    if not np.all(np.isfinite(score_matrix)):
        raise NumericError(
            f"best_permutation: non-finite score in {score_matrix.tolist()}")
    # every injection in lexicographic order, one per row of perms
    n = math.perm(cols, rows)
    flat = itertools.chain.from_iterable(
        itertools.permutations(range(cols), rows))
    perms = np.fromiter(flat, np.intp, n * rows).reshape(n, rows)
    sums = score_matrix[np.arange(rows), perms].sum(axis=1)
    return tuple(perms[np.argmax(sums)].tolist())


def _check_rows(where: str, targets, estimates) -> Tensor:
    """The estimates as a Tensor; InputError unless (C, T) with C targets."""
    est = ad.as_tensor(estimates)
    if est.data.ndim != 2 or est.shape[0] != len(targets):
        raise InputError(f"{where}: estimates of shape {est.shape} for "
                         f"{len(targets)} targets; expected (C, T) rows")
    return est


def _matched(targets, perm) -> np.ndarray:
    """The targets as (C, T) rows in estimate order: row perm[i] is
    target i."""
    return np.stack([ad.as_tensor(targets[i]).data for i in np.argsort(perm)])


def upit(targets, estimates):
    """Utterance-level permutation-invariant loss of (C, T) estimate rows
    against C targets.

    Returns (loss tensor, perm), perm[i] the estimate row matched to
    target i. The score matrix is computed off the tape; loss = -mean
    SI-SNR at the best permutation (best_permutation's tie rule),
    recorded as one si_snr of the estimate rows against their matched
    targets, so gradients flow through the selected entries only.
    """
    est = _check_rows("upit", targets, estimates)
    perm = best_permutation(pairwise_matrix(targets, est.data))
    scores = si_snr(_matched(targets, perm), est)
    return ad.scale(ad.mean_axes(scores, (0,)), -1.0), perm


def multiscale_loss(targets, output_groups):
    """Mean of per-scale uPIT losses scaled by 1/b, b = 2 * scale count.

    output_groups holds one (C, T) estimate per scale, and each picks its
    own optimal permutation. Returns (loss tensor, list of per-scale perm
    tuples).
    """
    if not output_groups:
        raise InputError("multiscale_loss: no output groups")
    scored = [upit(targets, group) for group in output_groups]
    total = functools.reduce(ad.add, [loss for loss, _ in scored])
    return (ad.scale(total, 1.0 / (2 * len(scored))),
            [perm for _, perm in scored])


def id_loss(targets, estimates, perm: tuple, embedder):
    """Speaker-identity loss: MSE between embeddings of matched segments.

    Both signals are cut into non-overlapping windows of the embedder's
    CLIP_LEN samples from the start (remainder dropped); estimate row
    perm[i] is compared against target i. All C * n_seg estimate windows
    are embedded as one batch in row order, and so are the target
    windows, stacked in the same order, whose embeddings are constants.
    The embedder stays frozen; gradients reach the estimates through the
    differentiable spectrogram features.
    """
    est = _check_rows("id_loss", targets, estimates)
    c = len(targets)
    perm = tuple(perm)
    if sorted(perm) != list(range(c)):
        raise InputError(f"id_loss: perm {perm} is not a bijection")
    n = ad.as_tensor(targets[0]).shape[0]
    seg = CLIP_LEN
    n_seg = n // seg
    if n_seg == 0:
        warnings.warn("id_loss: utterance shorter than one segment; loss 0")
        return Tensor(np.zeros((), dtype=np.float32))
    used = n_seg * seg
    ref_clips = _matched(targets, perm)[:, :used].reshape(-1, seg)
    est_clips = ad.reshape(ad.slice_axis(est, 1, 0, used), (c * n_seg, seg))
    g_ref = embedder.embed_tensor(Tensor(ref_clips)).detach()
    diff = ad.sub(embedder.embed_tensor(est_clips), g_ref)
    return ad.mean_axes(ad.mul(diff, diff), (0, 1))
