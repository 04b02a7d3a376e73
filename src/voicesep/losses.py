"""SI-SNR, permutation-invariant assignment, multi-scale and identity losses.

All losses are differentiable in the estimates, which may be Tensors or
numpy arrays. Targets are constants: numpy arrays, or Tensors that do not
require grad.
"""

from __future__ import annotations

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


def pairwise_matrix_tensors(targets, estimates) -> list:
    """len(targets) x len(estimates) nested list of scalar tensors; entry
    [i][j] = si_snr(s_i, e_j). Needs no more targets than estimates."""
    if len(targets) > len(estimates):
        raise InputError(
            f"pairwise matrix needs at least as many estimates as targets, "
            f"got {len(targets)} targets vs {len(estimates)} estimates")
    return [[si_snr(s, e) for e in estimates] for s in targets]


def pairwise_matrix(targets, estimates) -> np.ndarray:
    """len(targets) x len(estimates) dB matrix as plain floats."""
    m = pairwise_matrix_tensors(targets, estimates)
    return np.array([[cell.item() for cell in row] for row in m])


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


def upit(targets, estimates):
    """Utterance-level permutation-invariant loss.

    Returns (loss tensor, perm), perm[i] the estimate matched to target
    i. loss = -mean SI-SNR at the best permutation (best_permutation's
    tie rule); gradients flow through the selected entries only.
    """
    c = len(targets)
    if c != len(estimates):
        raise InputError(f"upit: channel count mismatch ({c} vs "
                         f"{len(estimates)})")
    cells = pairwise_matrix_tensors(targets, estimates)
    values = np.array([[cell.item() for cell in row] for row in cells])
    perm = best_permutation(values)
    picked = [cells[i][perm[i]] for i in range(c)]
    total = picked[0]
    for cell in picked[1:]:
        total = ad.add(total, cell)
    mean_score = ad.scale(total, 1.0 / c)
    loss = ad.scale(mean_score, -1.0)
    return loss, perm


def multiscale_loss(targets, output_groups):
    """Mean of per-group uPIT losses scaled by 1/b, b = 2 * group count.

    Each group picks its own optimal permutation. Returns
    (loss tensor, list of per-group perm tuples).
    """
    if not output_groups:
        raise InputError("multiscale_loss: no output groups")
    n_groups = len(output_groups)
    b = 2 * n_groups
    total = None
    perms = []
    for group in output_groups:
        if len(group) != len(targets):
            raise InputError(
                f"multiscale_loss: group has {len(group)} channels, "
                f"expected {len(targets)}")
        loss, perm = upit(targets, group)
        perms.append(perm)
        total = loss if total is None else ad.add(total, loss)
    return ad.scale(total, 1.0 / b), perms


def id_loss(targets, estimates, perm: tuple, embedder):
    """Speaker-identity loss: MSE between embeddings of matched segments.

    Both signals are cut into non-overlapping windows of the embedder's
    CLIP_LEN samples from the start (remainder dropped); channel i of the
    targets is compared against estimate perm[i]. All C * n_seg estimate
    windows are embedded as one batch, and so are the target windows,
    whose embeddings are constants. The embedder stays frozen; gradients
    reach the estimates through the differentiable spectrogram features.
    """
    c = len(targets)
    if c != len(estimates):
        raise InputError("id_loss: channel count mismatch")
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
    ref_clips = np.concatenate([
        ad.as_tensor(t).data[:used].reshape(n_seg, seg) for t in targets])
    est_clips = ad.concat([
        ad.reshape(ad.slice_axis(ad.as_tensor(estimates[j]), 0, 0, used),
                   (n_seg, seg)) for j in perm], axis=0)
    g_ref = embedder.embed_tensor(Tensor(ref_clips)).detach()
    diff = ad.sub(embedder.embed_tensor(est_clips), g_ref)
    return ad.mean_axes(ad.mul(diff, diff), (0, 1))
