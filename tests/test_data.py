"""Toy corpus generation, mixture math, WAV and manifest round trips."""

import json
import os

import numpy as np
import pytest

from voicesep import data as dataio
from voicesep.errors import DataError, FormatError, InputError


def test_make_speakers_deterministic_and_distinct():
    a = dataio.make_speakers(8, seed=1)
    b = dataio.make_speakers(8, seed=1)
    assert a == b
    # pairwise distinct in at least one of (fundamental cell, tilt)
    keys = {(s.f0_lo, s.f0_hi, s.tilt) for s in a}
    assert len(keys) == 8
    # every fundamental cell used by held-out speakers also appears early
    cells = [(s.f0_lo, s.f0_hi) for s in a]
    assert set(cells[4:]) <= set(cells[:4])


def test_make_speakers_limit():
    with pytest.raises(DataError):
        dataio.make_speakers(100, seed=0)


def test_synth_utterance_deterministic_and_normalized():
    spk = dataio.make_speakers(2, seed=3)[0]
    w1 = dataio.synth_utterance(spk, 0.5, seed=42)
    w2 = dataio.synth_utterance(spk, 0.5, seed=42)
    np.testing.assert_array_equal(w1, w2)
    assert np.max(np.abs(w1)) == pytest.approx(0.5)
    assert len(dataio.synth_utterance(spk, 4.0, seed=0)) == 32000
    with pytest.raises(InputError):
        dataio.synth_utterance(spk, 0.25, seed=0)


def test_utterance_fundamental_inside_speaker_band():
    for spk in dataio.make_speakers(4, seed=1):
        w = dataio.synth_utterance(spk, 1.0, seed=7)
        mag = np.abs(np.fft.rfft(w))
        freqs = np.fft.rfftfreq(len(w), 1 / 8000)
        peak = freqs[np.argmax(mag)]
        # the strongest bin sits on a low harmonic of the speaker's band
        assert any(spk.f0_lo * 0.9 <= peak / k <= spk.f0_hi * 1.1
                   for k in (1, 2))


def test_make_mixture_exact_sum_and_gains():
    spks = dataio.make_speakers(3, seed=2)
    srcs = [dataio.synth_utterance(s, 0.5, seed=i)
            for i, s in enumerate(spks)]
    mix = dataio.make_mixture(srcs, [s.id for s in spks], seed=5)
    recon = sum(g * s for g, s in zip(mix.gains, mix.sources))
    np.testing.assert_array_equal(mix.x, recon)  # exact in 64-bit
    assert mix.gains[0] == 1.0


def test_make_mixture_forced_snr():
    """Each further source sits at the SNR below the first that the seed
    draws, in source order, from 0 to 5 dB."""
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal(4000) for _ in range(3))
    mix = dataio.make_mixture([a, b, c], ["x", "y", "z"], seed=1)
    snrs = np.random.default_rng(1).uniform(0.0, 5.0, size=2)
    assert all(0.0 <= snr <= 5.0 for snr in snrs)
    pa = np.mean(a ** 2)
    for g, s, snr in zip(mix.gains[1:], (b, c), snrs):
        assert np.mean((g * s) ** 2) / pa == pytest.approx(
            10 ** (-snr / 10), rel=1e-9)


def test_make_mixture_validation():
    a = np.ones(100)
    with pytest.raises(DataError):
        dataio.make_mixture([a, np.zeros(100)], ["x", "y"], seed=0)
    with pytest.raises(InputError):
        dataio.make_mixture([a, a[:50]], ["x", "y"], seed=0)
    with pytest.raises(InputError):
        dataio.make_mixture([a, a], ["x", "x"], seed=0)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 4000)
    p = tmp_path / "t.wav"
    dataio.wav_write(p, x)
    back, rate = dataio.wav_read(p)
    assert rate == 8000
    assert np.max(np.abs(back - x)) <= 2 ** -15


def test_wav_read_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"")
    with pytest.raises(FormatError):
        dataio.wav_read(p)
    p.write_bytes(b"RIFFxxxxWAVE" + b"\x00" * 10)
    with pytest.raises(FormatError):
        dataio.wav_read(p)
    p.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(FormatError):
        dataio.wav_read(p)


def test_wav_read_rejects_stereo(tmp_path):
    import struct
    data = b"\x00\x00" * 8
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                      b"WAVE", b"fmt ", 16, 1, 2, 8000, 32000, 4, 16,
                      b"data", len(data))
    p = tmp_path / "st.wav"
    p.write_bytes(hdr + data)
    with pytest.raises(FormatError):
        dataio.wav_read(p)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifests = dataio.build_corpus(
        str(root), n_speakers=8, utt_per_speaker=3,
        mixture_counts={2: {"train": 6, "valid": 3, "test": 3}}, seed=17)
    return str(root), manifests


def test_corpus_speaker_disjoint_splits(corpus):
    root, manifests = corpus
    per_split = {}
    for split, mpath in manifests.items():
        ids = set()
        with open(mpath) as f:
            for line in f:
                ids.update(json.loads(line)["speakers"])
        per_split[split] = ids
    assert not (per_split["train"] & per_split["valid"])
    assert not (per_split["train"] & per_split["test"])
    assert not (per_split["valid"] & per_split["test"])


def test_corpus_counts(corpus):
    root, manifests = corpus
    for split, want in (("train", 6), ("valid", 3), ("test", 3)):
        with open(manifests[split]) as f:
            recs = [json.loads(ln) for ln in f]
        assert len(recs) == want
        assert all(len(r["sources"]) == 2 for r in recs)


def test_manifest_entries_revalidate(corpus):
    root, manifests = corpus
    entries = dataio.load_manifest(manifests["test"])
    with open(manifests["test"]) as f:
        recs = [json.loads(ln) for ln in f]
    for entry, rec in zip(entries, recs):
        recon = sum(entry.sources)
        # stored mixture == sum of gain-scaled sources up to PCM16 steps
        assert np.max(np.abs(entry.mixture - recon)) <= 2 ** -14


@pytest.mark.parametrize("wide", ["mix.wav", "s1.wav"])
def test_manifest_rejects_other_sample_rate(tmp_path, wide):
    """A mixture or source WAV at 16 kHz is refused, naming the file."""
    for name in ("mix.wav", "s0.wav", "s1.wav"):
        dataio.wav_write(tmp_path / name, np.zeros(400),
                         16000 if name == wide else dataio.SAMPLE_RATE)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(
        {"mixture": "mix.wav", "sources": ["s0.wav", "s1.wav"],
         "gains": [1.0, 1.0], "speakers": ["a", "b"]}) + "\n")
    with pytest.raises(DataError, match=wide):
        dataio.load_manifest(manifest)


GOOD_RECORD = {"mixture": "mix.wav", "sources": ["s0.wav", "s1.wav"],
               "gains": [1.0, 0.5], "speakers": ["a", "b"]}


@pytest.mark.parametrize("record,match", [
    ([GOOD_RECORD], "not a JSON object"),
    ("mix.wav", "not a JSON object"),
    *[({k: v for k, v in GOOD_RECORD.items() if k != key}, key)
      for key in ("mixture", "sources", "speakers", "gains")],
    ({**GOOD_RECORD, "gains": [1.0]}, "2 sources, 2 speakers and 1 gains"),
    ({**GOOD_RECORD, "speakers": ["a", "b", "c"]}, "3 speakers"),
    ({**GOOD_RECORD, "sources": [], "speakers": [], "gains": []},
     "0 sources"),
    ({**GOOD_RECORD, "sources": "s0.wav"}, "list of paths"),
    ({**GOOD_RECORD, "gains": [1.0, "x"]}, "numbers"),
    # JSON's NaN and Infinity parse, as does an integer beyond float range
    ({**GOOD_RECORD, "gains": [float("nan"), 0.72]}, "finite numbers"),
    ({**GOOD_RECORD, "gains": [1.0, float("-inf")]}, "finite numbers"),
    ({**GOOD_RECORD, "gains": [10 ** 400, 1.0]}, "finite numbers"),
    ({**GOOD_RECORD, "sources": ["s0.wav", "short.wav"]},
     "short.wav has 300 samples, the mixture 400"),
], ids=["list", "string", "no-mixture", "no-sources", "no-speakers",
        "no-gains", "one-gain", "three-speakers", "empty", "sources-not-list",
        "gain-not-number", "gain-nan", "gain-minus-inf", "gain-huge-int",
        "short-source"])
def test_manifest_refuses_a_malformed_record(tmp_path, record, match):
    """Each malformed record raises FormatError naming its line, after a
    good first record; a 2-source record with one gain is one of them."""
    for name, n in (("mix.wav", 400), ("s0.wav", 400), ("s1.wav", 400),
                    ("short.wav", 300)):
        dataio.wav_write(tmp_path / name, np.zeros(n))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(GOOD_RECORD) + "\n"
                        + json.dumps(record) + "\n")
    with pytest.raises(FormatError, match=f"m.jsonl:2: .*{match}"):
        dataio.load_manifest(manifest)


def test_corpus_rebuild_is_byte_identical(corpus, tmp_path):
    root, manifests = corpus
    again = tmp_path / "again"
    m2 = dataio.build_corpus(
        str(again), n_speakers=8, utt_per_speaker=3,
        mixture_counts={2: {"train": 6, "valid": 3, "test": 3}}, seed=17)
    for split in dataio.SPLITS:
        with open(manifests[split], "rb") as f1, open(m2[split], "rb") as f2:
            assert f1.read() == f2.read()
    # and the referenced WAVs as well
    rel = json.loads(open(m2["train"]).readline())["mixture"]
    b1 = open(os.path.join(root, rel), "rb").read()
    b2 = open(os.path.join(str(again), rel), "rb").read()
    assert b1 == b2


def test_corpus_infeasible_split():
    with pytest.raises(DataError):
        dataio.build_corpus("/tmp/should-not-exist-corpus", n_speakers=3,
                            utt_per_speaker=1, mixture_counts={2: 1},
                            seed=0)


@pytest.mark.parametrize("override", [
    {"utt_per_speaker": 0}, {"utt_per_speaker": 1.5},
    {"duration_s": 0.4}, {"duration_s": float("nan")},
    {"duration_s": float("inf")},
    # beyond float range: refused, not a ValueError from numpy
    pytest.param({"duration_s": 10 ** 400}, id="{'duration_s': 10**400}"),
    # finite, but more samples than a WAV file holds
    {"duration_s": 1e300},
    {"mixture_counts": {}}, {"mixture_counts": [1]},
    {"mixture_counts": {"x": 3}}, {"mixture_counts": {"1": 2}},
    {"mixture_counts": {1: 2}}, {"mixture_counts": {True: 2}},
    {"mixture_counts": {"2": -1}}, {"mixture_counts": {2: 2.5}},
    {"mixture_counts": {2: True}}, {"mixture_counts": {2: {"train": 200}}},
    {"mixture_counts": {2: {"train": 2, "valid": 1, "test": -1}}},
    {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None}],
    ids=repr)
def test_build_corpus_refuses_bad_arguments_before_writing(tmp_path,
                                                           override):
    """Every count a C >= 2 maps to is an integer >= 0 (for each split
    when given per split), there is at least one utterance per speaker
    of at least 0.5 s and within float range, and the seed is an integer
    >= 0, or nothing is written."""
    root = tmp_path / "corpus"
    kwargs = dict(n_speakers=8, utt_per_speaker=1, mixture_counts={"2": 1},
                  seed=0, duration_s=0.5)
    with pytest.raises(DataError):
        dataio.build_corpus(root, **{**kwargs, **override})
    assert not root.exists()

