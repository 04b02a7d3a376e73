"""Inference-side procedures: scoring, speaker-count selection, test-time
augmentation, the channel-switch metric, and ideal-mask oracles."""

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import data
from . import dsp
from . import losses
from . import model as separator
from .errors import ConfigurationError, DataError, InputError, UsageError

ACTIVITY_FLOOR = 1e-12
SWITCH_ENERGY_GATE_DB = -60.0
SWITCH_CLIP_S = 0.25
# calibrate_threshold's candidates: -70 to -10 dB in 2.5 dB steps
THRESHOLD_GRID_DB = [float(g) for g in np.arange(-70.0, -9.9, 2.5)]


def _f64(chans) -> list:
    return [np.asarray(ch, dtype=np.float64) for ch in chans]


def aligned_si_snri(targets, estimates, mixture) -> tuple:
    """(mean SI-SNRi at the optimal assignment, that assignment).

    Targets map to distinct estimates by losses.best_permutation on the
    pairwise SI-SNR matrix (no gradients involved): deterministic, and
    the all-equal matrix gives the identity; target i maps to estimate
    perm[i]. Estimates may outnumber targets (the extra channels stay
    unassigned); fewer estimates than targets raise InputError. Each
    target's SI-SNR is the matrix cell: only the mixture's score is
    computed here.
    """
    if len(estimates) < len(targets):
        raise InputError(f"aligned_si_snri: {len(estimates)} channels for "
                         f"{len(targets)} sources")
    targets = _f64(targets)
    mat = losses.pairwise_matrix(targets, _f64(estimates))
    perm = losses.best_permutation(mat)
    mix = np.asarray(mixture, dtype=np.float64)
    vals = [mat[i, perm[i]] - losses.si_snr(t, mix).item()
            for i, t in enumerate(targets)]
    return float(np.mean(vals)), perm


def activity_level(ch: np.ndarray) -> float:
    """Average power of a channel in dB, floored at -120 dB."""
    ch = np.asarray(ch, dtype=np.float64)
    if ch.size == 0:
        raise InputError("activity_level: empty channel")
    return float(10.0 * np.log10(np.mean(np.square(ch)) + ACTIVITY_FLOOR))


@dataclass
class SelectionReport:
    chosen_c: int
    threshold: float
    path: list = field(default_factory=list)        # C values visited
    levels: dict = field(default_factory=dict)      # C -> per-channel dB


def _contiguous_counts(models: dict, who: str) -> list:
    """The cascade's C values in ascending order; ConfigurationError
    unless they form a non-empty contiguous range."""
    cs = sorted(models)
    if not cs or cs != list(range(cs[0], cs[-1] + 1)):
        raise ConfigurationError(
            f"{who}: model set {cs} is not a contiguous C range")
    return cs


def _descend(cs: list, levels, threshold: float) -> int:
    """The count selection rule: go down from the largest C and stop at
    the first C whose channel levels (levels(C), asked for only on the
    way down) are all at or above the threshold, or else at the
    smallest C."""
    for c in reversed(cs):
        if all(lv >= threshold for lv in levels(c)):
            return c
    return cs[0]


def select_count(x, models: dict, threshold: float):
    """Descend from the largest-C model while any channel looks silent.

    models: {C: SeparatorModel}, contiguous C range. Returns
    (SelectionReport, channels of the accepted model). A non-finite
    threshold, or an integer beyond float range, raises UsageError before
    anything is separated.
    """
    # False for NaN, an infinity and an int too large for a float alike
    if not abs(threshold) <= sys.float_info.max:
        raise UsageError(f"select_count: threshold {threshold} is not finite")
    cs = _contiguous_counts(models, "select_count")
    report = SelectionReport(chosen_c=cs[-1], threshold=float(threshold))
    chans = {}

    def levels(c):
        chans[c] = separator.separate(models[c], x)
        report.path.append(c)
        report.levels[c] = [activity_level(ch) for ch in chans[c]]
        return report.levels[c]
    report.chosen_c = _descend(cs, levels, threshold)
    return report, chans[report.chosen_c]


def calibrate_threshold(samples, models) -> float:
    """Pick the THRESHOLD_GRID_DB value that best recovers known counts.

    samples: iterable of (mixture, true C). Deterministic: ties go to the
    lowest grid value. Separations are computed once per (sample, model).
    """
    cs = _contiguous_counts(models, "calibrate_threshold")
    samples = list(samples)
    if not samples:
        raise DataError("calibrate_threshold: empty validation set")
    # precompute per-sample per-C channel levels
    level_sets = []
    for x, true_c in samples:
        per_c = {c: [activity_level(ch)
                     for ch in separator.separate(m, x)]
                 for c, m in models.items()}
        level_sets.append((per_c, true_c))
    best_thr, best_acc = THRESHOLD_GRID_DB[0], -1.0
    for thr in THRESHOLD_GRID_DB:
        hits = sum(_descend(cs, per_c.__getitem__, thr) == true_c
                   for per_c, true_c in level_sets)
        acc = hits / len(level_sets)
        if acc > best_acc:
            best_thr, best_acc = thr, acc
    return best_thr


def tta_separate(x, model, k: int, seed: int) -> list:
    """Average separations of k random cyclic rotations of the input.

    The unshifted separation is the reference; each rotated result is
    un-rotated, channel-matched to the reference by the least total MSE
    over all channels (losses.best_permutation on the negated per-pair MSE
    matrix, with its tie rule), and accumulated. k=0 returns the reference
    bit-exactly.
    """
    if k < 0:
        raise InputError("tta_separate: k must be nonnegative")
    x = np.asarray(x, dtype=np.float32)
    reference = separator.separate(model, x)
    if k == 0:
        return reference
    acc = [ch.astype(np.float64) for ch in reference]
    rng = np.random.default_rng(seed)
    for _ in range(k):
        cut = int(rng.integers(len(x)))
        rolled = separator.separate(model, np.roll(x, -cut))
        undone = [np.roll(ch, cut) for ch in rolled]
        mse = np.array([[np.mean(np.square(u - ref)) for u in undone]
                        for ref in reference])
        perm = losses.best_permutation(-mse)
        for i, j in enumerate(perm):
            acc[i] += undone[j]
    return [a / (k + 1) for a in acc]


def flag_switch(targets, estimates, clip_len: int) -> bool:
    """True if any estimate's best-SI-SNR target changes across the
    clip_len sub-clips where every target is active."""
    n = len(targets[0])
    assignments = []
    for start in range(0, n - clip_len + 1, clip_len):
        sl = slice(start, start + clip_len)
        tclips = _f64(t[sl] for t in targets)
        if any(activity_level(tc) < SWITCH_ENERGY_GATE_DB for tc in tclips):
            continue
        mat = losses.pairwise_matrix(tclips, _f64(e[sl] for e in estimates))
        assignments.append(np.argmax(mat, axis=0))
    return any(len(set(a)) > 1 for a in zip(*assignments))


# --- ideal-mask oracles (SAMPLE_RATE audio; 32 ms window, 8 ms hop,
# 2048-point FFT) ---

ORACLE_WIN_MS = 32
ORACLE_HOP_MS = 8
ORACLE_NFFT = 2048


def _oracle_specs(x, sources):
    win = data.SAMPLE_RATE * ORACLE_WIN_MS // 1000
    hop = data.SAMPLE_RATE * ORACLE_HOP_MS // 1000
    mix_spec = dsp.stft(x, win, hop, ORACLE_NFFT)
    src_mags = [np.abs(dsp.stft(s, win, hop, ORACLE_NFFT).bins)
                for s in sources]
    return mix_spec, src_mags


def ibm_oracle(x, sources) -> list:
    """Ideal binary masks: per-bin one-hot on the loudest source, applied
    to the mixture spectrogram with mixture phase."""
    if len(sources) == 1:
        return [np.asarray(x, dtype=np.float64).copy()]
    mix_spec, mags = _oracle_specs(x, sources)
    stacked = np.stack(mags)
    winner = np.argmax(stacked, axis=0)
    return [dsp.mixture_phase_reconstruct((winner == i).astype(np.float64),
                                          mix_spec)
            for i in range(len(sources))]


def irm_oracle(x, sources) -> list:
    """Ideal ratio masks |S_i| / sum_j |S_j| (denominator floored)."""
    if len(sources) == 1:
        return [np.asarray(x, dtype=np.float64).copy()]
    mix_spec, mags = _oracle_specs(x, sources)
    total = np.maximum(np.sum(np.stack(mags), axis=0), 1e-12)
    return [dsp.mixture_phase_reconstruct(m / total, mix_spec)
            for m in mags]


# --- evaluation reports ---

@dataclass
class SampleResult:
    index: int
    si_snri: float
    perm: tuple
    switched: bool
    true_c: int
    selected_c: int


@dataclass
class EvalReport:
    samples: list = field(default_factory=list)

    @property
    def mean_si_snri(self) -> float:
        return float(np.mean([s.si_snri for s in self.samples]))

    @property
    def switch_fraction(self) -> float:
        return float(np.mean([s.switched for s in self.samples]))

    def confusion(self) -> dict:
        """{true C: {selected C: count}}; rows sum to per-class totals."""
        table: dict = {}
        for s in self.samples:
            row = table.setdefault(s.true_c, {})
            row[s.selected_c] = row.get(s.selected_c, 0) + 1
        return table

    def count_accuracy(self) -> float:
        hits = sum(s.selected_c == s.true_c for s in self.samples)
        return hits / len(self.samples)

    def to_text(self) -> str:
        lines = []
        for s in self.samples:
            lines.append(json.dumps({
                "index": s.index, "si_snri": round(s.si_snri, 6),
                "perm": list(s.perm), "switched": s.switched,
                "true_c": s.true_c, "selected_c": s.selected_c},
                sort_keys=True))
        lines.append("# aggregate " + json.dumps({
            "mean_si_snri": round(self.mean_si_snri, 6),
            "switch_fraction": round(self.switch_fraction, 6),
            "count_accuracy": round(self.count_accuracy(), 6)},
            sort_keys=True))
        lines.append(self.confusion_table())
        return "\n".join(lines) + "\n"

    def confusion_table(self) -> str:
        """Percentage table, true counts as rows, selected as columns."""
        table = self.confusion()
        cols = sorted({c for row in table.values() for c in row}
                      | set(table))
        out = ["# confusion (%)  selected: " +
               " ".join(f"{c:>6d}" for c in cols)]
        for true_c in sorted(table):
            total = sum(table[true_c].values())
            cells = [100.0 * table[true_c].get(c, 0) / total for c in cols]
            out.append(f"# true {true_c}:          " +
                       " ".join(f"{v:6.1f}" for v in cells))
        return "\n".join(out)


def evaluate(entries, model, tta_k: int = 0, seed: int = 0,
             models=None, threshold=None) -> EvalReport:
    """Score a manifest's entries with one model or a selection cascade.

    When `models` (a C->model cascade) and `threshold` are given, the
    speaker count is auto-selected per sample; otherwise `model`
    separates each sample by tta_separate with k=tta_k (k=0 is its plain
    separation; a negative k raises InputError). Each sample is scored
    by aligned_si_snri: the references map to distinct channels, and
    superfluous channels are left out. Fewer channels than references
    raise InputError. A cascade without a threshold or with a tta_k other
    than 0, or neither a model nor a cascade, raises UsageError before
    anything is separated; an empty entry list raises DataError.
    """
    if models is not None and threshold is None:
        raise UsageError("evaluate: a cascade (models) needs a threshold")
    if models is not None and tta_k != 0:
        raise UsageError(f"evaluate: tta_k={tta_k}, but a cascade "
                         "(models) separates without test-time augmentation")
    if models is None and model is None:
        raise UsageError("evaluate: give a model or a cascade (models)")
    entries = list(entries)
    if not entries:
        raise DataError("evaluate: no samples")
    clip = int(round(SWITCH_CLIP_S * data.SAMPLE_RATE))
    report = EvalReport()
    for idx, entry in enumerate(entries):
        true_c = len(entry.sources)
        if models is not None:
            sel, ests = select_count(entry.mixture, models, threshold)
            selected_c = sel.chosen_c
        else:
            ests = tta_separate(entry.mixture, model, tta_k, seed + idx)
            selected_c = len(ests)
        refs = entry.sources
        value, perm = aligned_si_snri(refs, ests, entry.mixture)
        ordered = [ests[perm[i]] for i in range(len(refs))]
        switched = flag_switch(refs, ordered, clip)
        report.samples.append(SampleResult(
            index=idx, si_snri=value, perm=perm, switched=switched,
            true_c=true_c, selected_c=selected_c))
    return report

