"""Synthetic voices, mixture construction, WAV and manifest I/O.

The toy corpus stands in for real recorded speech: each speaker is a
harmonic-plus-noise generator whose parameters come from disjoint cells,
so speakers are tellable apart yet share enough broadband energy that
ideal-mask oracles don't trivialize the task.
"""

import json
import numbers
import os
import struct
import sys
import numpy as np
from dataclasses import dataclass

from .errors import DataError, FormatError, InputError

SAMPLE_RATE = 8000

# Parameter cells. Speakers cycle through four fundamental-frequency cells
# so that every cell is represented in every hold-out split; speakers that
# share a cell always differ in spectral tilt.
_F0_CELLS = [(95, 115), (170, 190), (265, 285), (385, 405)]
_AM_RATES = [2.0, 3.1, 4.3, 5.7]
_TILTS = [0.55, 0.75, 0.95]  # harmonic amplitude decay per harmonic index
_NOISE_FLOOR = 0.10  # broadband noise, relative to each utterance's peak
_SNR_RANGE_DB = (0.0, 5.0)  # level of each further source against the first
_SPLIT_FRACS = (0.5, 0.25)  # train and valid shares of the speakers
# A PCM16 WAV's 32-bit RIFF size field counts the data and 36 header
# bytes, so one file holds under 2**31 samples, about 74.5 hours at
# SAMPLE_RATE: a longer utterance cannot be written.
MAX_DURATION_S = (2 ** 32 - 1 - 36) // 2 // SAMPLE_RATE


@dataclass(frozen=True)
class ToySpeaker:
    id: str
    f0_lo: float
    f0_hi: float
    tilt: float       # k-th harmonic weight = tilt ** (k - 1)
    am_rate: float    # amplitude-modulation rate, Hz


def make_speakers(n: int, seed: int) -> list[ToySpeaker]:
    """n deterministic, pairwise-distinct speakers.

    Fundamental-frequency cells repeat every len(_F0_CELLS) speakers;
    tilt repeats every len(_TILTS), so any two speakers differ in at
    least one of the two (cell count and tilt count are coprime).
    """
    limit = len(_F0_CELLS) * len(_TILTS)
    if n > limit:
        raise DataError(f"make_speakers: at most {limit} distinct speakers")
    rng = np.random.default_rng([seed, 0x5eed])
    order = rng.permutation(len(_F0_CELLS))
    speakers = []
    for i in range(n):
        lo, hi = _F0_CELLS[order[i % len(_F0_CELLS)]]
        speakers.append(ToySpeaker(
            id=f"spk{i:02d}", f0_lo=float(lo), f0_hi=float(hi),
            tilt=_TILTS[i % len(_TILTS)],
            am_rate=_AM_RATES[i % len(_AM_RATES)]))
    return speakers


def synth_utterance(speaker: ToySpeaker, duration_s: float, seed
                    ) -> np.ndarray:
    """One harmonic-plus-noise utterance, peak-normalized to 0.5."""
    if duration_s < 0.5:
        raise InputError("synth_utterance: duration must be at least 0.5 s")
    n = int(round(duration_s * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(speaker.f0_lo, speaker.f0_hi)
    # slow vibrato keeps harmonics off exact FFT bins
    vib = 1.0 + 0.01 * np.sin(2 * np.pi * rng.uniform(1.5, 3.0) * t
                              + rng.uniform(0, 2 * np.pi))
    phase_inc = 2 * np.pi * f0 * vib / SAMPLE_RATE
    base_phase = np.cumsum(phase_inc)
    sig = np.zeros(n)
    n_harm = max(2, int((SAMPLE_RATE / 2 * 0.85) // f0))
    for k in range(1, min(n_harm, 24) + 1):
        amp = speaker.tilt ** (k - 1)
        sig += amp * np.sin(k * base_phase + rng.uniform(0, 2 * np.pi))
    am = 1.0 + 0.5 * np.sin(2 * np.pi * speaker.am_rate * t
                            + rng.uniform(0, 2 * np.pi))
    sig *= am
    sig += _NOISE_FLOOR * np.max(np.abs(sig)) * rng.standard_normal(n)
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig *= 0.5 / peak
    return sig.astype(np.float64)


@dataclass
class MixtureSample:
    x: np.ndarray
    sources: list          # raw source waveforms s_i
    gains: list            # scale factors c_i; x == sum(c_i * s_i)
    speaker_ids: list

    def scaled_sources(self) -> list:
        """Sources as they appear inside the mixture (c_i * s_i)."""
        return [g * s for g, s in zip(self.gains, self.sources)]


def make_mixture(sources, speaker_ids, seed) -> MixtureSample:
    """Sum sources with the first at gain 1 and each other source at a
    random SNR drawn uniformly from 0 to 5 dB below the first."""
    c = len(sources)
    if c < 2:
        raise InputError("make_mixture: need at least 2 sources")
    if len(set(speaker_ids)) != c:
        raise InputError("make_mixture: speaker ids must be distinct")
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise InputError(f"make_mixture: unequal source lengths {lengths}")
    powers = [float(np.mean(np.square(s))) for s in sources]
    if any(p == 0.0 for p in powers):
        raise DataError("make_mixture: zero-energy source")
    rng = np.random.default_rng(seed)
    gains = [1.0]
    for i in range(1, c):
        snr = rng.uniform(*_SNR_RANGE_DB)
        gains.append(float(np.sqrt(powers[0] / (powers[i] * 10 ** (snr / 10)))))
    x = np.zeros(len(sources[0]))
    for g, s in zip(gains, sources):
        x += g * s
    return MixtureSample(x=x, sources=[np.asarray(s) for s in sources],
                         gains=gains, speaker_ids=list(speaker_ids))


# --- WAV I/O (RIFF PCM16 mono), parsed by hand so errors carry offsets ---

def wav_write(path, x: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    x = np.asarray(x, dtype=np.float64)
    pcm = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16,
        b"data", len(data))
    with open(path, "wb") as f:
        f.write(hdr + data)


def wav_read(path):
    """Returns (waveform in [-1, 1), sample_rate). PCM16 mono only."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"{path}: not a RIFF file (only {len(blob)} "
                          "bytes, offset 0)")
    if blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: bad RIFF/WAVE magic at offset 0")
    off = 12
    fmt = None
    data = None
    while off + 8 <= len(blob):
        cid = blob[off:off + 4]
        (size,) = struct.unpack_from("<I", blob, off + 4)
        body = blob[off + 8:off + 8 + size]
        if len(body) < size:
            raise FormatError(
                f"{path}: chunk {cid!r} truncated at offset {off}")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(
                    f"{path}: fmt chunk too short at offset {off}")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = (off + 8, body)
        off += 8 + size + (size & 1)
    if fmt is None:
        raise FormatError(f"{path}: no fmt chunk before offset {off}")
    if data is None:
        raise FormatError(f"{path}: no data chunk before offset {off}")
    audio_fmt, channels, rate, _, _, bits = fmt
    if audio_fmt != 1 or bits != 16:
        raise FormatError(
            f"{path}: unsupported encoding (format {audio_fmt}, "
            f"{bits}-bit) in fmt chunk")
    if channels != 1:
        raise FormatError(f"{path}: {channels} channels, expected mono")
    data_off, body = data
    if len(body) % 2:
        raise FormatError(
            f"{path}: odd data chunk length at offset {data_off}")
    pcm = np.frombuffer(body, dtype="<i2")
    return pcm.astype(np.float64) / 32768.0, rate


def load_wav(path) -> np.ndarray:
    """The samples of a PCM16 mono WAV at SAMPLE_RATE, the only rate
    voicesep works at; DataError for any other rate."""
    x, rate = wav_read(path)
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: sampled at {rate} Hz, voicesep works at "
                        f"{SAMPLE_RATE} Hz only")
    return x


# --- Corpus build: speaker-disjoint splits + JSONL manifests ---

SPLITS = ("train", "valid", "test")


def _split_speakers(speakers, min_per_split, split_sizes):
    n = len(speakers)
    if split_sizes is not None:
        sizes = [split_sizes[s] for s in SPLITS]
        if sum(sizes) != n or any(sz < min_per_split for sz in sizes):
            raise DataError(
                f"build_corpus: split sizes {split_sizes} need to sum to "
                f"{n} speakers with at least {min_per_split} per split")
        n_train, n_valid = sizes[0], sizes[1]
    else:
        n_train = max(min_per_split, int(round(n * _SPLIT_FRACS[0])))
        n_valid = max(min_per_split, int(round(n * _SPLIT_FRACS[1])))
        if n - n_train - n_valid < min_per_split:
            raise DataError(
                f"build_corpus: {n} speakers cannot give {min_per_split}+ "
                "speakers in each of train/valid/test")
    return {"train": speakers[:n_train],
            "valid": speakers[n_train:n_train + n_valid],
            "test": speakers[n_train + n_valid:]}


def _is_count(value, least: int) -> bool:
    # a bool is an int to Python, but never a count
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least)


def _check_corpus_args(utt_per_speaker, duration_s, mixture_counts, seed):
    """DataError unless build_corpus can honour its arguments in full."""
    if not _is_count(seed, 0):
        raise DataError(f"build_corpus: seed must be an integer >= 0, got "
                        f"{seed!r}")
    if not _is_count(utt_per_speaker, 1):
        raise DataError("build_corpus: utt_per_speaker must be an integer "
                        f">= 1, got {utt_per_speaker!r}")
    # False for NaN and for an infinity alike
    if not 0.5 <= duration_s <= MAX_DURATION_S:
        raise DataError(f"build_corpus: duration_s must be in 0.5.."
                        f"{MAX_DURATION_S} s, got {duration_s!r}")
    if not isinstance(mixture_counts, dict) or not mixture_counts:
        raise DataError("build_corpus: mixture_counts must be a non-empty "
                        f"{{C: count}} dict, got {mixture_counts!r}")
    for c, want in mixture_counts.items():
        counts = ([want.get(s) for s in SPLITS]
                  if isinstance(want, dict) else [want])
        # JSON gives C as decimal text
        if isinstance(c, str) and c.isdecimal():
            c = int(c)
        if not (_is_count(c, 2) and all(_is_count(n, 0) for n in counts)):
            raise DataError(
                f"build_corpus: mixture_counts[{c!r}] = {want!r}, want an "
                "integer C >= 2 mapped to a count >= 0 or to a count for "
                f"each of {', '.join(SPLITS)}")


def build_corpus(root, n_speakers: int, utt_per_speaker: int,
                 mixture_counts: dict, seed: int,
                 duration_s: float = 0.5,
                 split_sizes: dict = None) -> dict:
    """Generate a toy corpus under `root`.

    mixture_counts: {C: count} or {C: {split: count}}; a bare count applies
    to every split. split_sizes optionally fixes the per-split speaker
    counts, e.g. {"train": 4, "valid": 4, "test": 4}; the default is a
    50/25/25 split. Returns {split: manifest path}. Byte-identical given
    the same arguments (derived per-sample seeds, sorted key order).
    Raises DataError before writing anything unless every C >= 2, every
    count >= 0, utt_per_speaker >= 1, 0.5 <= duration_s <= MAX_DURATION_S
    and seed >= 0.
    """
    _check_corpus_args(utt_per_speaker, duration_s, mixture_counts, seed)
    speakers = make_speakers(n_speakers, seed)
    min_per = max(int(c) for c in mixture_counts)
    splits = _split_speakers(speakers, max(2, min_per), split_sizes)
    os.makedirs(root, exist_ok=True)
    manifests = {}
    for split_idx, split in enumerate(SPLITS):
        pool = splits[split]
        sdir = os.path.join(root, split)
        os.makedirs(sdir, exist_ok=True)
        # utterance pool per speaker
        utts = {}
        for spk_i, spk in enumerate(pool):
            paths = []
            for u in range(utt_per_speaker):
                w = synth_utterance(spk, duration_s,
                                    seed=[seed, split_idx, spk_i, u])
                rel = os.path.join(split, f"{spk.id}_u{u:03d}.wav")
                wav_write(os.path.join(root, rel), w)
                paths.append(rel)
            utts[spk.id] = paths
        records = []
        mix_i = 0
        for c_key in sorted(mixture_counts, key=int):
            c = int(c_key)
            if c > len(pool):
                raise DataError(
                    f"build_corpus: {split} has {len(pool)} speakers, "
                    f"cannot mix C={c}")
            want = mixture_counts[c_key]
            count = want[split] if isinstance(want, dict) else want
            for _ in range(count):
                samp_seed = [seed, split_idx, 1000 + mix_i]
                rng = np.random.default_rng(samp_seed)
                chosen = rng.choice(len(pool), size=c, replace=False)
                ids = [pool[j].id for j in chosen]
                src_paths = [utts[i][rng.integers(utt_per_speaker)]
                             for i in ids]
                sources = [wav_read(os.path.join(root, p))[0]
                           for p in src_paths]
                mix = make_mixture(sources, ids, seed=samp_seed + [1])
                # fold any headroom scaling into the recorded gains so the
                # stored mixture stays inside PCM16 full scale
                peak = np.max(np.abs(mix.x))
                alpha = min(1.0, 0.99 / peak) if peak > 0 else 1.0
                gains = [alpha * g for g in mix.gains]
                rel = os.path.join(split, f"mix{mix_i:05d}_c{c}.wav")
                wav_write(os.path.join(root, rel), alpha * mix.x)
                records.append({"mixture": rel, "sources": src_paths,
                                "speakers": ids, "gains": gains,
                                "seed": samp_seed})
                mix_i += 1
        mpath = os.path.join(root, f"{split}.jsonl")
        with open(mpath, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        manifests[split] = mpath
    return manifests


@dataclass
class ManifestEntry:
    mixture: np.ndarray
    sources: list  # scaled: gain_i * s_i, summing to the mixture
    speaker_ids: list
    gains: list


def load_manifest(path) -> list[ManifestEntry]:
    """Load every entry of a JSONL manifest into memory; WAV paths are
    relative to the manifest's directory, and each is read by load_wav,
    so one at a rate other than SAMPLE_RATE raises DataError. A record
    that is not a JSON object with a mixture path and equally long lists
    of source paths, speakers and finite gains, or whose sources differ
    from the mixture in length, raises FormatError naming path:line."""
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{ln}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"{where}: bad manifest record: {e}") from e
        _check_record(where, rec)
        x = load_wav(os.path.join(root, rec["mixture"]))
        raws = [load_wav(os.path.join(root, p))
                for p in rec["sources"]]
        for p, s in zip(rec["sources"], raws):
            if len(s) != len(x):
                raise FormatError(f"{where}: source {p} has {len(s)} "
                                  f"samples, the mixture {len(x)}")
        scaled = [g * s for g, s in zip(rec["gains"], raws)]
        entries.append(ManifestEntry(mixture=x, sources=scaled,
                                     speaker_ids=rec["speakers"],
                                     gains=rec["gains"]))
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def _check_record(where: str, rec) -> None:
    """FormatError unless rec has the fields load_manifest reads, of the
    types it reads them as."""
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: manifest record is not a JSON object")
    missing = [k for k in ("mixture", "sources", "speakers", "gains")
               if k not in rec]
    if missing:
        raise FormatError(f"{where}: manifest record lacks {missing}")
    lists = [rec[k] for k in ("sources", "speakers", "gains")]
    if (not isinstance(rec["mixture"], str)
            or not all(isinstance(v, list) for v in lists)
            or not all(isinstance(p, str) for p in rec["sources"])
            or not all(isinstance(g, (int, float))
                       and not isinstance(g, bool)
                       and abs(g) <= sys.float_info.max  # NaN, inf: False
                       for g in rec["gains"])):
        raise FormatError(f"{where}: mixture must be a path, sources a list "
                          "of paths, speakers a list, gains a list of "
                          "finite numbers")
    if not lists[0] or len({len(v) for v in lists}) != 1:
        raise FormatError(
            f"{where}: {len(lists[0])} sources, {len(lists[1])} speakers "
            f"and {len(lists[2])} gains; one or more sources, with one "
            "speaker and one gain each")
