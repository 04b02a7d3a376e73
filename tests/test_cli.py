"""Command-line interface: subcommands, config resolution, exit codes."""

import json
import os

import numpy as np
import pytest

from voicesep import checkpoint as ckpt
from voicesep import data as dataio
from voicesep.cli import main
from voicesep.model import ModelConfig, init_params

SMALL_FLAGS = ["--filters", "8", "--hidden", "8", "--blocks", "2",
               "--kernel", "4", "--chunk", "6"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    code = main(["synth-data", "--out", str(root), "--n-speakers", "8",
                 "--utts", "2", "--seed", "3", "--counts",
                 '{"2": {"train": 4, "valid": 2, "test": 2}}'])
    assert code == 0
    return str(root)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("clitrain")
    code = main(["train", "--out", str(out), "--data", corpus,
                 "--epochs", "1", "--segment", "0.25",
                 "--ablate", "idloss", *SMALL_FLAGS])
    assert code == 0
    return str(out)


def test_synth_data_outputs(corpus):
    assert os.path.exists(os.path.join(corpus, "runconfig.json"))
    for split in ("train", "valid", "test"):
        assert os.path.exists(os.path.join(corpus, f"{split}.jsonl"))


def test_train_outputs(trained):
    for name in ("runconfig.json", "train.log", "last.ckpt", "best.ckpt"):
        assert os.path.exists(os.path.join(trained, name)), name
    rc = json.load(open(os.path.join(trained, "runconfig.json")))
    assert rc["epochs"] == 1 and rc["filters"] == 8


def test_separate_roundtrip(tmp_path, corpus, trained):
    entry = dataio.load_manifest(os.path.join(corpus, "test.jsonl"))[0]
    wav = tmp_path / "mix.wav"
    dataio.wav_write(wav, entry.mixture)
    out = tmp_path / "sep"
    code = main(["separate", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", str(wav)])
    assert code == 0
    for i in (0, 1):
        ch, rate = dataio.wav_read(out / f"channel{i}.wav")
        assert rate == 8000 and len(ch) == len(entry.mixture)


def test_eval_report(tmp_path, corpus, trained):
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 os.path.join(corpus, "test.jsonl")])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "# aggregate" in text


def test_tta_command(tmp_path, corpus, trained):
    entry = dataio.load_manifest(os.path.join(corpus, "test.jsonl"))[0]
    wav = tmp_path / "mix.wav"
    dataio.wav_write(wav, entry.mixture)
    out = tmp_path / "tta"
    code = main(["tta", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", str(wav),
                 "--tta", "2"])
    assert code == 0
    assert os.path.exists(out / "channel0.wav")


def test_select_command(tmp_path, corpus, trained):
    entry = dataio.load_manifest(os.path.join(corpus, "test.jsonl"))[0]
    wav = tmp_path / "mix.wav"
    dataio.wav_write(wav, entry.mixture)
    c3 = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                 kernel_len=4, num_speakers=3, chunk_len=6),
                     seed=0)
    c3_path = tmp_path / "c3.ckpt"
    ckpt.save_separator(c3_path, c3, seed=0, step=0)
    out = tmp_path / "sel"
    cascade = (f"2={os.path.join(trained, 'best.ckpt')},3={c3_path}")
    code = main(["select", "--out", str(out), "--cascade", cascade,
                 "--threshold", "-60", "--in", str(wav)])
    assert code == 0
    sel = json.load(open(out / "selection.json"))
    assert sel["chosen_c"] in (2, 3)
    assert os.path.exists(out / "channel0.wav")


def test_config_file_under_flags(tmp_path, corpus):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_speakers": 8, "utts": 2, "seed": 9,
                                   "counts": {"2": {"train": 2, "valid": 1,
                                                    "test": 1}}}))
    out = tmp_path / "corp"
    code = main(["synth-data", "--out", str(out), "--config", str(cfgfile),
                 "--seed", "5"])  # flag beats file
    assert code == 0
    rc = json.load(open(out / "runconfig.json"))
    assert rc["seed"] == 5 and rc["n_speakers"] == 8


def test_exit_code_usage_errors(tmp_path, corpus):
    # unknown ablation flag
    code = main(["train", "--out", str(tmp_path / "a"), "--data", corpus,
                 "--epochs", "1", "--ablate", "bogus", *SMALL_FLAGS])
    assert code == 2
    # bad config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["synth-data", "--out", str(tmp_path / "b"),
                 "--config", str(bad)])
    assert code == 2


def test_exit_code_data_errors(tmp_path, trained):
    # missing input WAV -> OSError -> 3
    code = main(["separate", "--out", str(tmp_path / "s"), "--checkpoint",
                 os.path.join(trained, "best.ckpt"),
                 "--in", str(tmp_path / "absent.wav")])
    assert code == 3
    # garbage WAV -> FormatError -> 3
    garbage = tmp_path / "g.wav"
    garbage.write_bytes(b"nope")
    code = main(["separate", "--out", str(tmp_path / "s2"), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", str(garbage)])
    assert code == 3


def test_exit_code_checkpoint_error(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint\n")
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    code = main(["separate", "--out", str(tmp_path / "o"),
                 "--checkpoint", str(bad), "--in", str(wav)])
    assert code == 4


def test_exit_code_numeric_error(tmp_path, trained, monkeypatch):
    # PCM16 cannot hold NaN, so the reader hands one over directly
    def nan_read(path):
        x = np.zeros(400)
        x[7] = np.nan
        return x, 8000
    monkeypatch.setattr(dataio, "wav_read", nan_read)
    code = main(["separate", "--out", str(tmp_path / "o"), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", "mix.wav"])
    assert code == 5


def test_select_requires_threshold_or_calibration(tmp_path, trained):
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    code = main(["select", "--out", str(tmp_path / "o"), "--cascade",
                 f"2={os.path.join(trained, 'best.ckpt')}",
                 "--in", str(wav)])
    assert code == 2


def test_cascade_label_mismatch(tmp_path, trained):
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    code = main(["select", "--out", str(tmp_path / "o"), "--cascade",
                 f"3={os.path.join(trained, 'best.ckpt')}",
                 "--threshold", "-60", "--in", str(wav)])
    assert code == 4
