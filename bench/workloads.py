"""The three benchmark workloads.

Every workload reports the same end-to-end metrics: `setup_s`,
`peak_rss_mb` and `ops_per_s`, the operations of its timed work done per
second. An operation is a training step on one crop (train-paper), one
separate() call on a long mixture (separate-long), or a training crop or
a scored test mixture (fit-eval-small). Figures that only some workloads
have (loss, real-time factor, scoring rate, count accuracy) are printed as
notes beside the metrics.

Each workload builds its inputs from the seed with the `data` module, sets
up several times and reports the median set-up time, then runs its measured
phase in a closed loop with one caller, repeating the timed work and
reporting a median. Model weights start from a fixed seed, so the seed
varies only the audio the program receives and its order (train-paper
keeps its crops fixed and fit-eval-small its training corpus and test
speakers; see there).

Sizes come from a spec; the command line uses `SPECS`, the tests use
miniatures. The work that decides the memory, loss and accuracy figures is
fixed by the spec, so that every commit does it alike for the same seed;
`seconds` only decides how often the timed work repeats.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from voicesep import data, evalkit, model, trainer
from voicesep.embedder import EmbedderConfig, init_embedder
from voicesep.errors import InputError
from voicesep.model import ModelConfig

MODEL_SEED = 0
FIXED_CORPUS_SEED = 0
SETUP_REPEATS = 5
# The timed work repeats while the next repetition is expected to end
# within `seconds`, but at least this often, so that every reported time is
# a median of three or more.
MIN_REPEATS = 3
WARMUP_S = 0.5


@dataclass
class Result:
    metrics: dict                     # name -> (value, unit)
    attempted: int
    failed: int
    checks: dict                      # name -> passed
    notes: dict = field(default_factory=dict)   # printed, not gated
    layer_metrics: dict = field(default_factory=dict)
    tracer: object = None             # the spans of a traced run

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metrics(setup_s: float, ops_per_s: float) -> dict:
    return {"setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ops_per_s": (ops_per_s, "1/s")}


def separation_ok(x, chans, c: int) -> bool:
    """C finite channels, each the length of the input."""
    return len(chans) == c and all(
        ch.shape == (len(x),) and bool(np.all(np.isfinite(ch)))
        for ch in chans)


def _median_setup(setup, workdir: str, repeats: int):
    """Run `setup(dir)` `repeats` times in fresh directories; return the
    last state and the median wall time."""
    times = []
    state = None
    for i in range(repeats):
        d = os.path.join(workdir, f"setup{i}")
        t0 = time.perf_counter()
        state = setup(d)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def _warm_up(m, x) -> bool:
    """A throwaway no-tape separation that absorbs the BLAS warm-up."""
    n = int(WARMUP_S * data.SAMPLE_RATE)
    x = x[:n]
    return separation_ok(x, model.separate(m, x), m.config.num_speakers)


# ---------------------------------------------------------------------------
# train-paper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainPaperSpec:
    model: ModelConfig = field(default_factory=ModelConfig)
    crop_s: float = 1.0
    # Steps per train() call. Every tape stays alive until a full garbage
    # collection (about 0.8 GB a step at the paper config), so a call is
    # kept short: three steps leave two earlier tapes alive at the third.
    steps: int = 3
    setup_repeats: int = SETUP_REPEATS


def train_paper(seed: int, seconds: float, workdir: str,
                spec: TrainPaperSpec) -> Result:
    checks = {}

    def setup(d):
        # The crops are a fixed corpus and the seed sets the order train()
        # visits them in: with only a few crops in a call, a fresh corpus
        # per seed moves the mean loss by more than its bound, while the
        # step time does not depend on the audio at a fixed crop length.
        manifests = data.build_corpus(
            d, n_speakers=12, utt_per_speaker=3,
            mixture_counts={2: {"train": spec.steps, "valid": 1, "test": 1}},
            seed=FIXED_CORPUS_SEED, duration_s=spec.crop_s,
            split_sizes={"train": 8, "valid": 2, "test": 2})
        entries = data.load_manifest(manifests["train"])
        m = model.init_params(spec.model, MODEL_SEED)
        emb = init_embedder(EmbedderConfig(n_classes=8), MODEL_SEED)
        checks["warmup_separation"] = _warm_up(m, entries[0].mixture)
        return entries, emb

    (entries, emb), setup_s = _median_setup(setup, workdir,
                                            spec.setup_repeats)
    cfg = trainer.TrainConfig(epochs=1, seed=seed, batch_size=1,
                              segment_s=spec.crop_s)
    # Each repetition trains a fresh model on the same crops, so all do the
    # same work and the median rate keeps a burst of contention out. The
    # tape retention still shows within each call (peak_rss_mb); between
    # calls a full collection returns the retained tapes, or the process
    # would run out of memory after a few calls.
    rates, train_losses = [], []
    t_start = time.perf_counter()
    while True:
        m = model.init_params(spec.model, MODEL_SEED)
        t0 = time.perf_counter()
        _, logs = trainer.train(m, emb, entries, cfg,
                                out_dir=os.path.join(workdir, "train-out"))
        dt = time.perf_counter() - t0
        rates.append(spec.steps / dt)
        train_losses.append(logs[-1].train_loss)
        gc.collect()
        elapsed = time.perf_counter() - t_start
        if len(rates) >= MIN_REPEATS and elapsed + dt > seconds:
            break
    checks["train_loss_finite"] = all(math.isfinite(v) for v in train_losses)
    checks["train_loss_repeatable"] = (
        max(train_losses) - min(train_losses) <= 1e-6 * abs(train_losses[0]))
    return Result(
        metrics=_metrics(setup_s, statistics.median(rates)),
        attempted=len(rates) * spec.steps, failed=0, checks=checks,
        notes={"train_loss_db": train_losses[0], "train_calls": len(rates),
               "steps_per_call": spec.steps})


# ---------------------------------------------------------------------------
# separate-long
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparateLongSpec:
    model: ModelConfig = field(default_factory=ModelConfig)
    mixture_s: float = 8.0
    n_mixtures: int = 3
    setup_repeats: int = SETUP_REPEATS


def separate_long(seed: int, seconds: float, workdir: str,
                  spec: SeparateLongSpec) -> Result:
    checks = {}

    def setup(d):
        manifests = data.build_corpus(
            d, n_speakers=6, utt_per_speaker=2,
            mixture_counts={2: {"train": 1, "valid": 1,
                                "test": spec.n_mixtures}},
            seed=seed, duration_s=spec.mixture_s,
            split_sizes={"train": 2, "valid": 2, "test": 2})
        mixtures = [e.mixture for e in data.load_manifest(manifests["test"])]
        m = model.init_params(spec.model, MODEL_SEED)
        checks["warmup_separation"] = _warm_up(m, mixtures[0])
        return mixtures, m

    (mixtures, m), setup_s = _median_setup(setup, workdir,
                                           spec.setup_repeats)
    c = spec.model.num_speakers
    rtfs = []
    outputs_ok = True
    t_start = time.perf_counter()
    while True:
        x = mixtures[len(rtfs) % len(mixtures)]
        t0 = time.perf_counter()
        chans = model.separate(m, x)
        dt = time.perf_counter() - t0
        rtfs.append(dt / (len(x) / data.SAMPLE_RATE))
        outputs_ok = outputs_ok and separation_ok(x, chans, c)
        # start another call only if it is expected to end in time
        elapsed = time.perf_counter() - t_start
        if len(rtfs) >= MIN_REPEATS and elapsed + dt > seconds:
            break
    checks["separation_outputs"] = outputs_ok
    rtf = statistics.median(rtfs)
    return Result(
        metrics=_metrics(setup_s, 1.0 / (rtf * spec.mixture_s)),
        attempted=len(rtfs), failed=0, checks=checks,
        notes={"separate_rtf": rtf, "separations": len(rtfs)})


# ---------------------------------------------------------------------------
# fit-eval-small
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitEvalSmallSpec:
    model: ModelConfig = field(default_factory=lambda: ModelConfig(
        n_filters=32, hidden=32, num_blocks=4))
    train_per_c: int = 8
    valid_per_c: int = 8
    test_per_c: int = 72
    # The tape retention (about 40 MB a crop here) bounds the epochs.
    epochs: int = 3
    setup_repeats: int = SETUP_REPEATS


SPEAKER_COUNTS = (2, 3)
CROP_S = 0.5
BATCH_SIZE = 2
N_SPEAKERS = 12
SPLIT_SIZES = {"train": 4, "valid": 4, "test": 4}


def _draw_mixture(speakers, c: int, duration_s: float, seed: list):
    """A c-speaker mixture of fresh utterances by `speakers`."""
    rng = np.random.default_rng(seed)
    chosen = [speakers[j] for j in rng.choice(len(speakers), size=c,
                                              replace=False)]
    sources = [data.synth_utterance(spk, duration_s, seed=seed + [j])
               for j, spk in enumerate(chosen)]
    mix = data.make_mixture(sources, [spk.id for spk in chosen],
                            seed=seed + [1000])
    return data.ManifestEntry(mixture=mix.x, sources=mix.scaled_sources(),
                              speaker_ids=mix.speaker_ids, gains=mix.gains)


def _assignment_ok(sample) -> bool:
    """Each target got its own estimate: a bijection when the selected
    count matches, an injection when the cascade over-selected."""
    perm = tuple(sample.perm)
    return (len(perm) == sample.true_c and len(set(perm)) == len(perm)
            and all(0 <= j < sample.selected_c for j in perm))


def fit_eval_small(seed: int, seconds: float, workdir: str,
                   spec: FitEvalSmallSpec) -> Result:
    checks = {}

    def setup(d):
        # The models and their count threshold come from a fixed corpus,
        # so every run scores with the same cascade. The seed draws the
        # test utterances and mixing gains for the corpus's fixed test
        # speakers: how many separations the cascade spends on a mixture
        # depends on who is speaking, and a new set of speakers per seed
        # would move the scoring rate by more than any bound can allow.
        fixed = data.build_corpus(
            d, n_speakers=N_SPEAKERS, utt_per_speaker=3,
            mixture_counts={c: {"train": spec.train_per_c,
                                "valid": spec.valid_per_c, "test": 1}
                            for c in SPEAKER_COUNTS},
            seed=FIXED_CORPUS_SEED, duration_s=CROP_S,
            split_sizes=SPLIT_SIZES)
        test_speakers = data.make_speakers(
            N_SPEAKERS, FIXED_CORPUS_SEED)[-SPLIT_SIZES["test"]:]
        test = [_draw_mixture(test_speakers, c, CROP_S, [seed, c, i])
                for c in SPEAKER_COUNTS
                for i in range(spec.test_per_c)]
        splits = {"train": data.load_manifest(fixed["train"]),
                  "valid": data.load_manifest(fixed["valid"]),
                  "test": test}
        models = {c: model.init_params(
            ModelConfig(**{**spec.model.to_dict(), "num_speakers": c}),
            MODEL_SEED) for c in SPEAKER_COUNTS}
        x = splits["valid"][0].mixture
        checks["warmup_separation"] = all(_warm_up(m, x)
                                          for m in models.values())
        return splits, models

    (splits, models), setup_s = _median_setup(setup, workdir,
                                              spec.setup_repeats)
    # Each train() call and the scoring start after a full collection, as
    # the repetitions of train-paper do. Otherwise whether the automatic
    # one frees the earlier tapes before the peak, and before scoring,
    # turns on how many objects every line of the program allocates: it
    # moved peak_rss_mb by a fifth and the scoring rate by more.
    crops = 0
    losses = []
    train_wall = 0.0
    t_start = time.perf_counter()
    for c, m in models.items():
        entries = [e for e in splits["train"] if len(e.sources) == c]
        cfg = trainer.TrainConfig(epochs=spec.epochs,
                                  seed=FIXED_CORPUS_SEED,
                                  batch_size=BATCH_SIZE, segment_s=CROP_S,
                                  idloss=False)
        gc.collect()
        t0 = time.perf_counter()
        _, logs = trainer.train(m, None, entries, cfg)
        train_wall += time.perf_counter() - t0
        crops += spec.epochs * len(entries)
        losses.extend(log.train_loss for log in logs)
    gc.collect()
    checks["train_loss_finite"] = all(math.isfinite(v) for v in losses)

    threshold = evalkit.calibrate_threshold(
        [(e.mixture, len(e.sources)) for e in splits["valid"]], models)

    # Every pass scores the same mixtures with the same cascade, so the
    # passes differ only in timing; they repeat as the timed work of the
    # other workloads does, `seconds` counting from the start of training.
    # Each mixture counts with its median time over the passes, which keeps
    # a burst of contention out of the rate.
    test = splits["test"]
    times = [[] for _ in test]
    samples = []
    failed = 0
    passes = 0
    while True:
        t_pass = time.perf_counter()
        scored = []
        for i, entry in enumerate(test):
            t0 = time.perf_counter()
            try:
                report = evalkit.evaluate([entry], None, models=models,
                                          threshold=threshold)
                scored.extend(report.samples)
            except InputError:
                # the cascade chose fewer channels than there are speakers
                failed += 1
            times[i].append(time.perf_counter() - t0)
        samples = samples or scored
        passes += 1
        now = time.perf_counter()
        expected_end = now - t_start + (now - t_pass)
        if passes >= MIN_REPEATS and expected_end > seconds:
            break
    # a mixture the cascade under-selects still cost its separations
    score_wall = sum(statistics.median(t) for t in times)
    checks["assignments_injective"] = all(_assignment_ok(s)
                                          for s in samples)
    hits = sum(s.selected_c == s.true_c for s in samples)
    si_snri = (float(np.mean([s.si_snri for s in samples]))
               if samples else float("nan"))
    return Result(
        metrics=_metrics(setup_s,
                         (crops + len(test)) / (train_wall + score_wall)),
        attempted=crops + passes * len(test), failed=failed, checks=checks,
        notes={"train_samples_per_s": crops / train_wall,
               "eval_mix_per_s": len(test) / score_wall,
               "eval_count_acc": hits / len(test),
               "eval_si_snri_db": si_snri, "threshold_db": threshold,
               "train_crops": crops, "eval_passes": passes,
               "test_mixtures": len(test)})


WORKLOADS = {
    "train-paper": train_paper,
    "separate-long": separate_long,
    "fit-eval-small": fit_eval_small,
}

SPECS = {
    "train-paper": TrainPaperSpec(),
    "separate-long": SeparateLongSpec(),
    "fit-eval-small": FitEvalSmallSpec(),
}

# Workloads whose traced run first samples live bytes with tracemalloc, in a
# pass of its own, and how that pass's spec differs from the workload's: it
# sets up once and scores only a few mixtures, because the tracemalloc hook
# slows every allocation and the pass is there for the training steps only.
SAMPLES_LIVE_BYTES = {
    "train-paper": {"setup_repeats": 1},
    "fit-eval-small": {"setup_repeats": 1, "test_per_c": 1},
}
