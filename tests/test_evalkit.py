"""Scoring, count selection, test-time augmentation, switch metric,
and ideal-mask oracles."""

import numpy as np
import pytest

from voicesep import data as dataio
from voicesep import evalkit, losses
from voicesep.errors import (ConfigurationError, DataError, InputError,
                             NumericError, UsageError)
from voicesep.model import ModelConfig, init_params

SMALL = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=4,
                    num_speakers=2, chunk_len=6)


def small_model(c=2, seed=0):
    return init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                   kernel_len=4, num_speakers=c,
                                   chunk_len=6), seed=seed)


# --- scoring ---

def test_si_snri_hand_case():
    rng = np.random.default_rng(10)
    t = rng.standard_normal(1000)
    t -= t.mean()
    n = rng.standard_normal(1000)
    n -= n.mean()
    n -= (n @ t) / (t @ t) * t  # zero-mean noise orthogonal to the target
    mixture = t + n
    est = t + 0.5 * n  # halves the interference: exactly +6.02 dB
    gain, perm = evalkit.aligned_si_snri([t], [est], mixture)
    assert perm == (0,)
    direct = (losses.si_snr(t, est).item()
              - losses.si_snr(t, mixture).item())
    assert gain == pytest.approx(direct)
    assert gain == pytest.approx(20 * np.log10(2), abs=1e-6)


def test_aligned_si_snri_finds_permutation():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(1000), rng.standard_normal(1000)
    mixture = a + b
    val, perm = evalkit.aligned_si_snri([a, b], [b, a], mixture)
    assert perm == (1, 0)
    assert val > 20.0


def test_align_maps_targets_into_more_estimates():
    """The extra estimate stays unassigned and leaves the score as it is
    without it."""
    rng = np.random.default_rng(11)
    a, b, c = (rng.standard_normal(1000) for _ in range(3))
    value, perm = evalkit.aligned_si_snri([a, b], [c, b, a], a + b)
    assert perm == (2, 1)
    assert value == evalkit.aligned_si_snri([a, b], [a, b], a + b)[0]


@pytest.mark.parametrize("c,e", [(1, 1), (2, 3), (3, 3)])
def test_aligned_si_snri_reuses_the_alignment_matrix(monkeypatch, c, e):
    """The same bits as the mean over targets of the per-channel
    difference of two losses.si_snr calls at the best assignment, from
    C fewer si_snr calls: each target's score is the matrix cell."""
    rng = np.random.default_rng(12 + c + e)
    targets = [rng.standard_normal(800) for _ in range(c)]
    ests = [rng.standard_normal(800).astype(np.float32) for _ in range(e)]
    mixture = np.sum(targets, axis=0)
    ests64 = [np.asarray(x, dtype=np.float64) for x in ests]
    perm = losses.best_permutation(losses.pairwise_matrix(targets, ests64))
    want = float(np.mean([losses.si_snr(t, ests64[j]).item()
                          - losses.si_snr(t, mixture).item()
                          for t, j in zip(targets, perm)]))
    calls = []
    si_snr = losses.si_snr
    monkeypatch.setattr(losses, "si_snr",
                        lambda t, x: calls.append(1) or si_snr(t, x))
    value, got_perm = evalkit.aligned_si_snri(targets, ests, mixture)
    assert got_perm == perm
    assert value == want
    assert len(calls) == c * e + c


def test_si_snri_length_mismatch():
    """Fewer estimates than targets leave a target unassigned."""
    rng = np.random.default_rng(14)
    a, b, c = (rng.standard_normal(100) for _ in range(3))
    with pytest.raises(InputError, match="2 channels for 3 sources"):
        evalkit.aligned_si_snri([a, b, c], [a, b], a + b + c)


# --- activity levels ---

def test_activity_levels():
    assert evalkit.activity_level(np.zeros(100)) == pytest.approx(-120.0)
    assert evalkit.activity_level(np.ones(100)) == pytest.approx(0.0, abs=1e-6)
    half = np.full(100, 0.5)
    assert evalkit.activity_level(half) == pytest.approx(-6.0206, abs=1e-3)
    with pytest.raises(InputError):
        evalkit.activity_level(np.array([]))


# --- count selection ---

def test_select_count_requires_contiguous_range():
    for models in ({2: small_model(2), 4: small_model(4)}, {}):
        with pytest.raises(ConfigurationError):
            evalkit.select_count(np.zeros(400, np.float32), models, -40.0)


def test_select_count_descends_and_reports():
    models = {2: small_model(2), 3: small_model(3)}
    x = np.random.default_rng(0).standard_normal(400).astype(np.float32)
    report, chans = evalkit.select_count(x, models, threshold=-120.0)
    # everything passes a -120 dB threshold, so the largest C wins
    assert report.chosen_c == 3
    assert report.path == [3]
    assert len(chans) == 3
    report2, chans2 = evalkit.select_count(x, models, threshold=1e9)
    # nothing passes an absurd threshold: falls through to the smallest C
    assert report2.chosen_c == 2
    assert report2.path == [3, 2]
    assert len(chans2) == 2


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int_beyond_float"])
def test_select_count_refuses_non_finite_threshold_before_separating(
        monkeypatch, threshold):
    calls = []
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: calls.append(m))
    with pytest.raises(UsageError, match="threshold"):
        evalkit.select_count(np.zeros(400, np.float32),
                             {2: small_model(2), 3: small_model(3)},
                             threshold)
    assert calls == []


def test_calibrate_threshold_prefers_lowest_tie():
    models = {2: small_model(2), 3: small_model(3)}
    x = np.random.default_rng(1).standard_normal(400).astype(np.float32)
    # with true C = the largest model, every threshold that accepts all
    # channels is a hit; ties resolve to the lowest grid value
    thr = evalkit.calibrate_threshold([(x, 3)], models)
    assert thr == evalkit.THRESHOLD_GRID_DB[0] == -70.0
    with pytest.raises(DataError):
        evalkit.calibrate_threshold([], models)


def test_calibrate_threshold_refuses_gapped_cascade_before_separating(
        monkeypatch):
    calls = []
    separate = evalkit.separator.separate
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: calls.append(m) or separate(m, x))
    m = small_model(2)
    x = np.zeros(400, np.float32)
    with pytest.raises(ConfigurationError, match="contiguous"):
        evalkit.calibrate_threshold([(x, 2)], {2: m, 4: m})
    assert calls == []


# --- test-time augmentation ---

def test_tta_k0_bit_identical():
    from voicesep.model import separate
    model = small_model()
    x = np.random.default_rng(2).standard_normal(400).astype(np.float32)
    plain = separate(model, x)
    tta = evalkit.tta_separate(x, model, k=0, seed=0)
    for p, t in zip(plain, tta):
        np.testing.assert_array_equal(p, t)


def test_tta_deterministic_and_shapes():
    model = small_model()
    x = np.random.default_rng(3).standard_normal(400).astype(np.float32)
    o1 = evalkit.tta_separate(x, model, k=3, seed=7)
    o2 = evalkit.tta_separate(x, model, k=3, seed=7)
    assert len(o1) == 2 and all(len(ch) == 400 for ch in o1)
    for a, b in zip(o1, o2):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(InputError):
        evalkit.tta_separate(x, model, k=-1, seed=0)


# --- switch metric ---

def test_flag_switch_midpoint_swap():
    rng = np.random.default_rng(4)
    n = 8000  # 1 s -> four 0.25 s sub-clips
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    clip = 2000
    swapped = [np.concatenate([a[:n // 2], b[n // 2:]]),
               np.concatenate([b[:n // 2], a[n // 2:]])]
    assert evalkit.flag_switch([a, b], swapped, clip)
    assert not evalkit.flag_switch([a, b], [a.copy(), b.copy()], clip)
    # 1.5 clips hold one whole sub-clip: nothing to switch between
    m = 3 * clip // 2
    short = [np.concatenate([a[:clip], b[clip:m]]),
             np.concatenate([b[:clip], a[clip:m]])]
    assert not evalkit.flag_switch([a[:m], b[:m]], short, clip)


def test_flag_switch_gates_silent_targets():
    rng = np.random.default_rng(5)
    n = 8000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    b[:4000] = 0.0  # first half silent: those sub-clips are excluded
    ests = [a.copy(), b.copy()]
    ests[0][:2000] = b[:2000]  # garbage only where b is gated out
    assert not evalkit.flag_switch([a, b], ests, 2000)


def test_evaluate_switch_fraction_counts_switching_samples(monkeypatch):
    """One of four samples swaps its channels midway: a switch fraction
    of a quarter."""
    rng = np.random.default_rng(6)
    n = 8000
    entries = []
    outputs = []
    for i in range(4):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        entries.append(dataio.ManifestEntry(
            mixture=a + b, sources=[a, b], speaker_ids=["x", "y"],
            gains=[1.0, 1.0]))
        if i == 0:
            outputs.append([np.concatenate([a[:n // 2], b[n // 2:]]),
                            np.concatenate([b[:n // 2], a[n // 2:]])])
        else:
            outputs.append([a.copy(), b.copy()])
    # one separation per entry, in order
    separations = iter(outputs)
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: next(separations))
    report = evalkit.evaluate(entries, small_model())
    assert [s.switched for s in report.samples] == [True] + [False] * 3
    assert report.switch_fraction == 0.25


def test_evaluate_refuses_no_entries():
    with pytest.raises(DataError, match="no samples"):
        evalkit.evaluate([], small_model())


# --- oracles ---

def disjoint_band_mixture(seed=0, n=8000):
    """Two sources in well-separated frequency bands."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 8000.0
    lo = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
             for f in (200.0, 300.0, 400.0))
    hi = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
             for f in (2000.0, 2500.0, 3000.0))
    return lo, hi


def test_ibm_oracle_disjoint_bands():
    lo, hi = disjoint_band_mixture()
    x = lo + hi
    ests = evalkit.ibm_oracle(x, [lo, hi])
    val, perm = evalkit.aligned_si_snri([lo, hi], ests, x)
    assert perm == (0, 1)
    assert val >= 10.0


def test_irm_oracle_beats_mixture():
    lo, hi = disjoint_band_mixture(seed=1)
    x = lo + hi
    ests = evalkit.irm_oracle(x, [lo, hi])
    val, _ = evalkit.aligned_si_snri([lo, hi], ests, x)
    assert val >= 10.0


def test_oracles_single_source_identity():
    x = np.random.default_rng(7).standard_normal(4000)
    for fn in (evalkit.ibm_oracle, evalkit.irm_oracle):
        out = fn(x, [x])
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], x)


# --- evaluation report ---

def test_evaluate_report_fields_and_text():
    rng = np.random.default_rng(8)
    model = small_model()
    entries = []
    for _ in range(3):
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000)
        entries.append(dataio.ManifestEntry(
            mixture=(a + b).astype(np.float32), sources=[a, b],
            speaker_ids=["x", "y"], gains=[1.0, 1.0]))
    report = evalkit.evaluate(entries, model)
    assert len(report.samples) == 3
    assert all(s.selected_c == 2 for s in report.samples)
    assert report.count_accuracy() == 1.0
    text = report.to_text()
    assert "# aggregate" in text and "# confusion" in text
    assert text.count("\n") >= 5


@pytest.mark.parametrize("tta_k", [0, 2])
def test_evaluate_scores_what_tta_separate_returns(tta_k):
    """Each sample's score is that of tta_separate's channels for its
    mixture, seeded by the sample index (at k = 0, separate's channels
    bit for bit)."""
    rng = np.random.default_rng(11)
    model = small_model()
    entries = []
    for _ in range(2):
        a, b = rng.standard_normal((2, 4000))
        entries.append(dataio.ManifestEntry(
            mixture=a + b, sources=[a, b], speaker_ids=["x", "y"],
            gains=[1.0, 1.0]))
    report = evalkit.evaluate(entries, model, tta_k=tta_k, seed=5)
    for idx, (entry, sample) in enumerate(zip(entries, report.samples)):
        ests = evalkit.tta_separate(entry.mixture, model, tta_k, 5 + idx)
        assert (sample.si_snri, sample.perm) == evalkit.aligned_si_snri(
            entry.sources, ests, entry.mixture)


def test_evaluate_refuses_negative_tta_before_separating(monkeypatch):
    calls = []
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: calls.append(m))
    a = np.ones(400)
    entries = [dataio.ManifestEntry(
        mixture=a, sources=[a, a], speaker_ids=["x", "y"],
        gains=[1.0, 1.0])]
    with pytest.raises(InputError, match="nonnegative"):
        evalkit.evaluate(entries, small_model(), tta_k=-3)
    assert calls == []


@pytest.mark.parametrize("tta_k", [-3, 2])
def test_evaluate_refuses_tta_with_a_cascade_before_separating(monkeypatch,
                                                               tta_k):
    """A cascade separates without test-time augmentation, so any tta_k
    but 0 is a misuse, not a setting to drop silently."""
    calls = []
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: calls.append(m))
    a = np.ones(400)
    entries = [dataio.ManifestEntry(
        mixture=a, sources=[a, a], speaker_ids=["x", "y"],
        gains=[1.0, 1.0])]
    with pytest.raises(UsageError, match="tta_k"):
        evalkit.evaluate(entries, None, models={2: small_model(2)},
                         threshold=-40.0, tta_k=tta_k)
    assert calls == []


def test_evaluate_with_cascade_superfluous_channels():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000)
    entries = [dataio.ManifestEntry(
        mixture=(a + b).astype(np.float32), sources=[a, b],
        speaker_ids=["x", "y"], gains=[1.0, 1.0])]
    models = {2: small_model(2), 3: small_model(3)}
    report = evalkit.evaluate(entries, None, models=models,
                              threshold=-120.0)
    s = report.samples[0]
    assert s.selected_c == 3 and s.true_c == 2
    assert len(set(s.perm)) == 2  # two distinct channels kept


def test_evaluate_non_finite_outputs_raise_numeric_error():
    model = small_model()
    model.params["decoder.b"].data[:] = np.nan
    a, b = np.random.default_rng(13).standard_normal((2, 4000))
    entries = [dataio.ManifestEntry(
        mixture=(a + b).astype(np.float32), sources=[a, b],
        speaker_ids=["x", "y"], gains=[1.0, 1.0])]
    with pytest.raises(NumericError, match="non-finite"):
        evalkit.evaluate(entries, model)


def test_evaluate_too_few_channels_raises():
    rng = np.random.default_rng(12)
    srcs = [rng.standard_normal(4000) for _ in range(3)]
    entries = [dataio.ManifestEntry(
        mixture=sum(srcs).astype(np.float32), sources=srcs,
        speaker_ids=["x", "y", "z"], gains=[1.0, 1.0, 1.0])]
    with pytest.raises(InputError):
        evalkit.evaluate(entries, small_model(2))


@pytest.mark.parametrize("model,models", [
    (None, None), (None, {2: "cascade"})], ids=["no_model", "no_threshold"])
def test_evaluate_refuses_missing_model_or_threshold_before_separating(
        monkeypatch, model, models):
    calls = []
    monkeypatch.setattr(evalkit.separator, "separate",
                        lambda m, x: calls.append(m))
    a = np.ones(400)
    entries = [dataio.ManifestEntry(
        mixture=a.astype(np.float32), sources=[a, a],
        speaker_ids=["x", "y"], gains=[1.0, 1.0])]
    with pytest.raises(UsageError):
        evalkit.evaluate(entries, model, models=models)
    assert calls == []
