"""Command-line interface: subcommands, config resolution, exit codes."""

import argparse
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voicesep import checkpoint as ckpt
from voicesep import errors
from voicesep import data as dataio
from voicesep.cli import build_parser, main
from voicesep.embedder import EmbedderConfig, init_embedder
from voicesep.model import ModelConfig, init_params
from voicesep.optim import Adam

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
    with open(os.path.join(trained, "runconfig.json")) as f:
        rc = json.load(f)
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


def test_separate_keeps_length_off_the_stride(tmp_path, trained):
    """4001 samples is no multiple of the stride (2): every channel still
    has 4001 samples."""
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 4001)
    wav = tmp_path / "odd.wav"
    dataio.wav_write(wav, x)
    out = tmp_path / "sep"
    code = main(["separate", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", str(wav)])
    assert code == 0
    for i in (0, 1):
        ch, rate = dataio.wav_read(out / f"channel{i}.wav")
        assert rate == 8000 and len(ch) == 4001


@settings(max_examples=20, deadline=None)
@given(rate=st.integers(1, 384000).filter(lambda r: r != 8000))
@example(rate=1)
@example(rate=7999)
@example(rate=8001)
@example(rate=16000)
@example(rate=44100)
def test_sample_rate_mismatch_exits_3(tmp_path_factory, trained, rate):
    """A WAV at any rate but the model's 8 kHz is refused by every
    command that reads one, and no channel file is written."""
    tmp_path = tmp_path_factory.mktemp("rate")
    wav = tmp_path / "other.wav"
    dataio.wav_write(wav, np.zeros(4001), rate)
    ckpt_path = os.path.join(trained, "best.ckpt")
    for cmd, extra in (("separate", ["--checkpoint", ckpt_path]),
                       ("tta", ["--checkpoint", ckpt_path]),
                       ("select", ["--cascade", f"2={ckpt_path}",
                                   "--threshold", "-60"])):
        out = tmp_path / cmd
        code = main([cmd, "--out", str(out), *extra, "--in", str(wav)])
        assert code == 3, cmd
        assert not list(out.glob("channel*.wav")), cmd


def test_eval_report(tmp_path, corpus, trained):
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 os.path.join(corpus, "test.jsonl")])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "# aggregate" in text


def test_eval_non_finite_outputs_exit_5(tmp_path, corpus, trained,
                                        monkeypatch):
    """A checkpoint cannot hold NaN, so the loader hands over a model
    whose decoder bias is NaN: its outputs are NaN, and scoring them ends
    with NumericError's exit code."""
    load = ckpt.load_separator

    def nan_load(path):
        model, *rest = load(path)
        model.params["decoder.b"].data[:] = np.nan
        return (model, *rest)
    monkeypatch.setattr(ckpt, "load_separator", nan_load)
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 os.path.join(corpus, "test.jsonl")])
    assert code == 5
    assert not (out / "report.txt").exists()


def write_wide_manifest(tmp_path, corpus):
    """A one-entry manifest of 16 kHz WAVs, from a test entry of
    `corpus`."""
    entry = dataio.load_manifest(os.path.join(corpus, "test.jsonl"))[0]
    names = [f"s{i}.wav" for i in range(len(entry.sources))]
    dataio.wav_write(tmp_path / "mix.wav", entry.mixture, 16000)
    for name, src in zip(names, entry.sources):
        dataio.wav_write(tmp_path / name, src, 16000)
    manifest = tmp_path / "wide.jsonl"
    manifest.write_text(json.dumps(
        {"mixture": "mix.wav", "sources": names, "gains": entry.gains,
         "speakers": entry.speaker_ids}) + "\n")
    return str(manifest)


def test_eval_other_sample_rate_exits_3(tmp_path, corpus, trained):
    """A manifest of 16 kHz WAVs given to an 8 kHz checkpoint is refused
    before scoring, and no report is written."""
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 write_wide_manifest(tmp_path, corpus)])
    assert code == 3
    assert not (out / "report.txt").exists()


def test_eval_malformed_manifest_exits_3(tmp_path, corpus, trained):
    """A manifest record without gains, whose WAVs all load, is refused
    with FormatError's exit code, not a traceback, and no report is
    written."""
    with open(os.path.join(corpus, "test.jsonl")) as f:
        rec = json.loads(f.readline())
    rec["mixture"] = os.path.join(corpus, rec["mixture"])
    rec["sources"] = [os.path.join(corpus, p) for p in rec["sources"]]
    del rec["gains"]
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(rec) + "\n")
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 str(manifest)])
    assert code == errors.FormatError.exit_code == 3
    assert not (out / "report.txt").exists()


def save_at_rate(path, kind, model, rate):
    """`model` saved with a header config that names `rate` Hz, as files
    written while the rate was a config key do."""
    ckpt.save_checkpoint(path, kind,
                         {**model.config.to_dict(), "sample_rate": rate},
                         0, 0,
                         {n: p.data for n, p in model.named_parameters()})
    return str(path)


def save_model_at_rate(path, rate):
    """A tiny 2-speaker separator saved by save_at_rate."""
    return save_at_rate(path, "separator", init_params(ModelConfig(
        n_filters=8, hidden=8, num_blocks=2, kernel_len=4, chunk_len=6),
        seed=0), rate)


def test_eval_model_at_other_rate_exits_4(tmp_path, corpus, capsys):
    """A checkpoint for 4 kHz audio is refused, naming the file, before
    anything is written."""
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 save_model_at_rate(tmp_path / "4k.ckpt", 4000),
                 "--manifest", os.path.join(corpus, "test.jsonl")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("CheckpointError") and "4k.ckpt" in err
    assert "4000 Hz" in err
    assert not out.exists()


def test_select_cascade_at_other_rate_exits_4(tmp_path, capsys):
    """A cascade with a 16 kHz checkpoint is refused, naming the file,
    and no channel is written."""
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    out = tmp_path / "sel"
    code = main(["select", "--out", str(out), "--cascade",
                 f"2={save_model_at_rate(tmp_path / 'wide.ckpt', 16000)}",
                 "--threshold", "-60", "--in", str(wav)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("CheckpointError") and "wide.ckpt" in err
    assert not list(out.glob("channel*.wav"))


def test_select_calibrates_only_at_the_model_rate(tmp_path, corpus, trained,
                                                  capsys):
    """An 8 kHz cascade is given an 8 kHz WAV, but the calibration
    manifest holds 16 kHz audio: refused, and no channel is written."""
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    out = tmp_path / "sel"
    code = main(["select", "--out", str(out), "--cascade",
                 f"2={os.path.join(trained, 'best.ckpt')}",
                 "--calibrate", write_wide_manifest(tmp_path, corpus),
                 "--in", str(wav)])
    assert code == 3
    assert "DataError" in capsys.readouterr().err
    assert not list(out.glob("channel*.wav"))


def test_train_embedder_corpus_at_other_rate_exits_3(tmp_path, corpus,
                                                     capsys):
    """With the identity loss on and no --embedder, a 16 kHz utterance in
    the training pool (one no mixture uses, so the manifests load) is
    refused by name, not cut into short clips."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    dataio.wav_write(root / "train" / "spk99_u000.wav", np.zeros(16000),
                     16000)
    code = main(["train", "--out", str(tmp_path / "tr"), "--data",
                 str(root), "--epochs", "1", "--segment", "0.25",
                 *SMALL_FLAGS])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DataError") and "spk99_u000.wav" in err


def test_train_embedder_at_other_rate_exits_4(tmp_path, corpus, capsys):
    """An --embedder checkpoint whose header names 16 kHz is refused
    before the first step, and no checkpoint is written."""
    emb = save_at_rate(tmp_path / "emb16k.ckpt", "embedder",
                       init_embedder(EmbedderConfig(n_classes=2), 0), 16000)
    out = tmp_path / "tr"
    code = main(["train", "--out", str(out), "--data", corpus,
                 "--epochs", "1", "--segment", "0.25", "--embedder",
                 emb, *SMALL_FLAGS])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("CheckpointError") and "emb16k.ckpt" in err
    assert "16000 Hz" in err
    assert not list(out.glob("*.ckpt"))


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
    sel = json.loads((out / "selection.json").read_text())
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
    rc = json.loads((out / "runconfig.json").read_text())
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


@pytest.mark.parametrize("config", [
    {"bogus": 1, "n_filters": 8}, {"n_filters": "8"}, [1]],
    ids=["unknown_key", "string", "list"])
def test_bad_checkpoint_config_exits_4(tmp_path, capsys, config):
    """A checkpoint whose header config cannot build a model fails as a
    checkpoint error naming the file, not with a TypeError traceback."""
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                    kernel_len=4, chunk_len=6), seed=0)
    bad = tmp_path / "cfg.ckpt"
    ckpt.save_checkpoint(bad, "separator", config, 0, 0,
                         {n: p.data for n, p in model.named_parameters()})
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    code = main(["separate", "--out", str(tmp_path / "o"),
                 "--checkpoint", str(bad), "--in", str(wav)])
    assert code == 4
    assert capsys.readouterr().err.startswith("CheckpointError: ")
    assert not (tmp_path / "o" / "channel0.wav").exists()


def test_exit_code_non_finite_checkpoint(tmp_path):
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                    kernel_len=4, chunk_len=6), seed=0)
    model.params["decoder.b"].data[0] = np.nan
    bad = tmp_path / "nan.ckpt"
    ckpt.save_separator(bad, model, seed=0, step=0)
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    code = main(["separate", "--out", str(tmp_path / "o"),
                 "--checkpoint", str(bad), "--in", str(wav)])
    assert code == 4
    assert not (tmp_path / "o" / "channel0.wav").exists()


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


def test_train_resume_that_cannot_continue_exits_2(tmp_path, corpus,
                                                   capsys):
    """Resuming a finished run, or a checkpoint whose step is no whole
    number of epochs at the new batch size, exits 2 with one
    ConfigurationError line and leaves the run's log and checkpoint as
    they were."""
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--data", corpus, "--segment",
            "0.25", "--ablate", "idloss", *SMALL_FLAGS]
    # four training entries: one step an epoch at --batch 4, two at 2
    assert main([*base, "--epochs", "1", "--batch", "4"]) == 0
    kept = {name: (run / name).read_bytes()
            for name in ("train.log", "last.ckpt")}
    capsys.readouterr()
    resume = ["--resume", str(run / "last.ckpt")]
    for flags, match in ((["--epochs", "1", "--batch", "4"], "no epoch"),
                         (["--epochs", "2", "--batch", "2"],
                          "whole number of epochs")):
        assert main([*base, *flags, *resume]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigurationError: ") and match in err
        assert err.count("\n") == 1
    assert kept == {name: (run / name).read_bytes() for name in kept}


def test_train_resume_checks_before_writing_and_keeps_the_embedder(
        tmp_path, capsys):
    """With the identity loss on and no --embedder, a resume that cannot
    continue exits 2 before it writes anything: `runconfig.json` and the
    run's `embedder.ckpt` keep their bytes. A resume that continues
    trains with the run's own embedder instead of a new one."""
    data = tmp_path / "corpus"   # 20 clips a training speaker
    assert main(["synth-data", "--out", str(data), "--n-speakers", "8",
                 "--utts", "10", "--duration", "1.0", "--counts",
                 '{"2": {"train": 2, "valid": 1, "test": 1}}']) == 0
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--data", str(data), "--segment",
            "0.5", *SMALL_FLAGS]
    assert main([*base, "--epochs", "1"]) == 0
    assert "embedder trained" in capsys.readouterr().out
    names = ("runconfig.json", "embedder.ckpt")
    kept = {name: (run / name).read_bytes() for name in names}
    resume = ["--resume", str(run / "last.ckpt")]
    assert main([*base, "--epochs", "1", *resume]) == 2
    assert capsys.readouterr().err.startswith("ConfigurationError: ")
    assert kept == {name: (run / name).read_bytes() for name in names}
    assert main([*base, "--epochs", "2", *resume]) == 0
    assert "embedder trained" not in capsys.readouterr().out
    assert (run / "embedder.ckpt").read_bytes() == kept["embedder.ckpt"]
    assert json.loads((run / "runconfig.json").read_text())["epochs"] == 2


def test_train_resume_from_partial_optimizer_state_exits_4(tmp_path,
                                                           corpus, capsys):
    """A checkpoint missing one Adam moment is refused as a checkpoint
    error naming the file, not with a KeyError traceback."""
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                    kernel_len=4, chunk_len=6), seed=0)
    opt = Adam(model.named_parameters())
    arrays = {n: p.data for n, p in model.named_parameters()}
    arrays.update(opt.state_arrays())
    del arrays["adam.m.block1.lstm1.b"]
    bad = tmp_path / "partial.ckpt"
    ckpt.save_checkpoint(bad, "separator", model.config.to_dict(), 0, 0,
                         arrays)
    code = main(["train", "--out", str(tmp_path / "t"), "--data", corpus,
                 "--epochs", "1", "--segment", "0.25", "--ablate", "idloss",
                 *SMALL_FLAGS, "--resume", str(bad)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"CheckpointError: {bad}: ")
    assert not list((tmp_path / "t").glob("*.ckpt"))


@pytest.mark.parametrize("flag,value", [
    ("--epochs", "0"), ("--batch", "0"), ("--lr", "nan"), ("--lr", "inf"),
    ("--segment", "nan"), ("--segment", "inf")])
def test_train_non_finite_or_non_positive_flags_exit_2(tmp_path, corpus,
                                                       flag, value):
    """Refused before an embedder is trained or any checkpoint saved."""
    out = tmp_path / "t"
    code = main(["train", "--out", str(out), "--data", corpus,
                 "--epochs", "1", "--segment", "0.25", *SMALL_FLAGS,
                 flag, value])
    assert code == 2
    assert not list(tmp_path.rglob("*.ckpt"))


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_select_non_finite_threshold_exits_2(tmp_path, trained, threshold):
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    out = tmp_path / "o"
    code = main(["select", "--out", str(out), "--cascade",
                 f"2={os.path.join(trained, 'best.ckpt')}",
                 f"--threshold={threshold}", "--in", str(wav)])
    assert code == 2
    assert not list(out.glob("channel*.wav"))
    assert not (out / "selection.json").exists()
    assert not (out / "runconfig.json").exists()


@pytest.mark.parametrize("threshold", [10 ** 400, -10 ** 400],
                         ids=["huge", "minus_huge"])
def test_select_threshold_beyond_float_range_exits_2(tmp_path, trained,
                                                     threshold):
    """A config-file integer too large for a float is refused as a usage
    error before anything is written, not with an OverflowError."""
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"threshold": threshold}))
    out = tmp_path / "o"
    code = main(["select", "--out", str(out), "--config", str(cfgfile),
                 "--cascade", f"2={os.path.join(trained, 'best.ckpt')}",
                 "--in", str(wav)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("config", [{"lr": "0.001"}, {"epochs": True},
                                    {"batch": 1.5}, {"segment": "4"}])
def test_train_config_value_of_wrong_type_exits_2(tmp_path, corpus, config):
    """A config-file value that is not a number fails as a usage error
    before anything is written, not with a TypeError traceback."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "t"
    code = main(["train", "--out", str(out), "--data", corpus,
                 "--config", str(cfgfile), "--ablate", "idloss",
                 *SMALL_FLAGS])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flags,config", [(["--tta", "-1"], None),
                                          ([], {"tta": "2"})])
def test_tta_bad_count_exits_2_before_writing(tmp_path, trained, flags,
                                              config):
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        flags = flags + ["--config", str(cfgfile)]
    out = tmp_path / "o"
    code = main(["tta", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--in", str(wav),
                 *flags])
    assert code == 2
    assert not out.exists()


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


def test_every_error_class_carries_its_exit_code():
    """2 usage, 3 data, 4 checkpoint, 5 numeric; subclasses inherit."""
    want = {"VoicesepError": 2, "UsageError": 2, "ConfigurationError": 2,
            "DimensionError": 2, "InputError": 3, "DegenerateTargetError": 3,
            "DataError": 3, "FormatError": 3, "CheckpointError": 4,
            "NumericError": 5}
    found = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, Exception)}
    assert found == want


def subparsers():
    ap = build_parser()
    action, = (a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


# values of a JSON type other than the one each kind of flag parses to
WRONG_JSON = {int: ["1", True, [1], 1.5], float: ["1", True, [1]],
              None: [1, True, ["a"]], json.loads: ['{"2": 1}', True, [1]]}


def wrong_config_cases():
    for cmd, parser in subparsers().items():
        for a in parser._actions:
            if a.dest in ("help", "config", "out"):
                continue
            wrong = WRONG_JSON[a.type] + ([None] if a.default is not None
                                          else [])
            for value in wrong:
                yield pytest.param(cmd, a.dest, value,
                                   id=f"{cmd}-{a.dest}-{json.dumps(value)}")


def required_flags(cmd, root):
    """Every flag `cmd` requires, each given a path that does not exist
    (a cascade labels it C=2)."""
    absent = str(root / "absent")
    return [x for a in subparsers()[cmd]._actions if a.required
            and a.dest != "out"
            for x in (a.option_strings[0],
                      f"2={absent}" if a.dest == "cascade" else absent)]


@pytest.mark.parametrize("cmd,key,value", list(wrong_config_cases()))
def test_config_value_of_wrong_json_type_exits_2(tmp_path, cmd, key, value):
    """Every flag of every command: a config value of another JSON type
    than the flag parses to (null where the builtin default is not None)
    is a usage error before anything is written."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    out = tmp_path / "o"
    code = main([cmd, "--out", str(out), "--config", str(cfgfile),
                 *required_flags(cmd, tmp_path)])
    assert code == 2
    assert not out.exists()


def test_config_that_is_not_an_object_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("[1]")
    out = tmp_path / "o"
    code = main(["synth-data", "--out", str(out), "--config", str(cfgfile)])
    assert code == 2
    assert not out.exists()


@pytest.fixture()
def runs(tmp_path, corpus, trained):
    """Per command: the flags it requires, then other flags to set."""
    entry = dataio.load_manifest(os.path.join(corpus, "test.jsonl"))[0]
    wav = str(tmp_path / "mix.wav")
    dataio.wav_write(wav, entry.mixture)
    best = os.path.join(trained, "best.ckpt")
    return {
        "synth-data": ([], ["--n-speakers", "8", "--utts", "1", "--seed",
                            "4", "--counts",
                            '{"2": {"train": 2, "valid": 1, "test": 1}}']),
        "train": (["--data", corpus],
                  ["--epochs", "1", "--segment", "0.25", "--lr", "0.001",
                   "--batch", "1", "--ablate", "idloss", *SMALL_FLAGS]),
        "separate": (["--checkpoint", best, "--in", wav], ["--seed", "2"]),
        "eval": (["--checkpoint", best, "--manifest",
                  os.path.join(corpus, "test.jsonl")], ["--tta", "1"]),
        "select": (["--cascade", f"2={best}", "--in", wav],
                   ["--threshold", "-60"]),
        "tta": (["--checkpoint", best, "--in", wav], ["--tta", "1"])}


@pytest.mark.parametrize("cmd", ["synth-data", "train", "separate", "eval",
                                 "select", "tta"])
def test_runconfig_resolves_to_itself(tmp_path, runs, cmd):
    """runconfig.json holds every setting but config and out, and given
    back as --config with the required flags it resolves to itself."""
    required, other = runs[cmd]
    assert main([cmd, "--out", str(tmp_path / "a"), *required,
                  *other]) == 0
    first = json.loads((tmp_path / "a" / "runconfig.json").read_text())
    dests = {a.dest for a in subparsers()[cmd]._actions}
    assert set(first) == dests - {"help", "config", "out"}
    assert main([cmd, "--out", str(tmp_path / "b"), *required, "--config",
                 str(tmp_path / "a" / "runconfig.json")]) == 0
    again = json.loads((tmp_path / "b" / "runconfig.json").read_text())
    assert again == first


@pytest.mark.parametrize("flags", [
    ["--utts", "0"], ["--duration", "0.4"], ["--counts", "{}"],
    ["--counts", "[1]"], ["--counts", '{"x": 3}'], ["--counts", '{"1": 2}'],
    ["--counts", '{"2": -1}'], ["--counts", '{"2": {"train": 200}}']])
def test_synth_data_bad_corpus_exits_3_before_any_audio(tmp_path, flags):
    out = tmp_path / "c"
    code = main(["synth-data", "--out", str(out), *flags])
    assert code == 3
    assert os.listdir(out) == ["runconfig.json"]


@pytest.mark.parametrize("flags", [["--blocks", "3"], ["--kernel", "3"],
                                   ["--filters", "0"]])
def test_train_bad_model_config_exits_2_before_writing(tmp_path, corpus,
                                                       flags):
    out = tmp_path / "t"
    code = main(["train", "--out", str(out), "--data", corpus,
                 "--epochs", "1", "--segment", "0.25", "--ablate", "idloss",
                 *SMALL_FLAGS, *flags])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("cascade", ["x={best}", "2={best},2={best}",
                                     "={best}", "2.0={best}"])
def test_select_bad_cascade_labels_exit_2_before_writing(tmp_path, trained,
                                                         cascade):
    wav = tmp_path / "x.wav"
    dataio.wav_write(wav, np.zeros(400))
    out = tmp_path / "o"
    best = os.path.join(trained, "best.ckpt")
    code = main(["select", "--out", str(out), "--cascade",
                 cascade.format(best=best), "--threshold", "-60",
                 "--in", str(wav)])
    assert code == 2
    assert not out.exists()


def test_eval_negative_tta_exits_2_before_writing(tmp_path, corpus, trained):
    out = tmp_path / "ev"
    code = main(["eval", "--out", str(out), "--checkpoint",
                 os.path.join(trained, "best.ckpt"), "--manifest",
                 os.path.join(corpus, "test.jsonl"), "--tta", "-1"])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["synth-data", "train", "separate", "eval",
                                 "select", "tta"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_2_before_writing(tmp_path, runs, cmd, source):
    """numpy's generators take no negative seed: refused as a usage error
    before anything is written, not with a ValueError traceback."""
    required, _ = runs[cmd]
    if source == "flag":
        seed = ["--seed", "-1"]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfgfile)]
    out = tmp_path / "o"
    code = main([cmd, "--out", str(out), *required, *seed])
    assert code == 2
    assert not out.exists()
