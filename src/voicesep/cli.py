"""Command-line surface: synth-data, train, separate, eval, select, tta.

Every subcommand resolves a RunConfig (config file values overridden by
explicit flags, builtin defaults last), writes it into the output
directory, and exits 0 on success. Failures print one machine-readable
line `<ErrorClass>: <message>` and exit with the error class's
`exit_code`: 2 (usage), 3 (data), 4 (checkpoint), or 5 (numeric).
"""

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as dataio
from . import evalkit
from . import trainer
from .embedder import train_embedder
from .errors import CheckpointError, InputError, UsageError, VoicesepError
from .model import ModelConfig, init_params
from .trainer import TrainConfig


class RunConfig(dict):
    """Resolved settings: config-file values under explicit flags."""

    @classmethod
    def resolve(cls, args: argparse.Namespace, defaults: dict) -> "RunConfig":
        file_vals = {}
        if getattr(args, "config", None):
            try:
                with open(args.config) as f:
                    file_vals = json.load(f)
            except OSError as e:
                raise UsageError(f"cannot read config {args.config}: {e}")
            except json.JSONDecodeError as e:
                raise UsageError(f"bad config {args.config}: {e}")
        rc = cls()
        for key, default in defaults.items():
            flag = getattr(args, key, None)
            if flag is not None:
                rc[key] = flag
            elif key in file_vals:
                rc[key] = file_vals[key]
            else:
                rc[key] = default
        return rc

    def dump(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "runconfig.json"), "w") as f:
            json.dump(self, f, sort_keys=True, indent=1)
            f.write("\n")


def _model_defaults() -> dict:
    return {"seed": 0, "speakers": 2, "filters": 128, "hidden": 128,
            "blocks": 6, "kernel": 8, "chunk": None}


def _model_config(rc: RunConfig, gating: bool) -> ModelConfig:
    return ModelConfig(
        n_filters=rc["filters"], kernel_len=rc["kernel"],
        num_blocks=rc["blocks"], hidden=rc["hidden"],
        num_speakers=rc["speakers"], chunk_len=rc["chunk"], gating=gating)


def _add_common(p):
    p.add_argument("--config", help="JSON file of default settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")


def _add_model_flags(p):
    p.add_argument("--speakers", type=int, help="output channel count C")
    p.add_argument("--filters", type=int, help="encoder filter count N")
    p.add_argument("--hidden", type=int, help="LSTM hidden width H")
    p.add_argument("--blocks", type=int, help="recurrent block count b")
    p.add_argument("--kernel", type=int, help="encoder kernel length L")
    p.add_argument("--chunk", type=int, help="chunk length K")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="voicesep")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth-data", help="generate a toy corpus")
    _add_common(p)
    p.add_argument("--n-speakers", type=int, dest="n_speakers")
    p.add_argument("--utts", type=int, dest="utts",
                   help="utterances per speaker")
    p.add_argument("--duration", type=float, help="utterance seconds")
    p.add_argument("--counts",
                   help='JSON mix counts, e.g. \'{"2": {"train": 200}}\'')

    p = sub.add_parser("train", help="train a separator")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--data", required=True, help="corpus root")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--segment", type=float, help="training crop seconds")
    p.add_argument("--ablate", help="comma list of gating,multiloss,idloss")
    p.add_argument("--embedder", help="embedder checkpoint for the "
                                      "identity loss")
    p.add_argument("--resume", help="separator checkpoint to resume from")

    p = sub.add_parser("separate", help="separate one mixture WAV")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="wav_in", required=True)

    p = sub.add_parser("eval", help="score a manifest")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--tta", type=int)

    p = sub.add_parser("select", help="auto speaker-count separation")
    _add_common(p)
    p.add_argument("--cascade", required=True,
                   help="comma list C=checkpoint, e.g. 2=a.ckpt,3=b.ckpt")
    p.add_argument("--threshold", type=float, help="activity dB threshold")
    p.add_argument("--calibrate", help="manifest for threshold calibration")
    p.add_argument("--in", dest="wav_in", required=True)

    p = sub.add_parser("tta", help="test-time-augmented separation")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="wav_in", required=True)
    p.add_argument("--tta", type=int)
    return ap


def cmd_synth_data(args) -> int:
    rc = RunConfig.resolve(args, {
        "seed": 0, "n_speakers": 8, "utts": 24, "duration": 0.5,
        "counts": '{"2": {"train": 200, "valid": 30, "test": 50}}'})
    rc.dump(args.out)
    counts_raw = rc["counts"]
    counts = (json.loads(counts_raw) if isinstance(counts_raw, str)
              else counts_raw)
    counts = {int(k): v for k, v in counts.items()}
    dataio.build_corpus(args.out, n_speakers=rc["n_speakers"],
                        utt_per_speaker=rc["utts"], mixture_counts=counts,
                        seed=rc["seed"], duration_s=rc["duration"])
    print(f"corpus written under {args.out}")
    return 0


def cmd_train(args) -> int:
    defaults = dict(_model_defaults(), epochs=50, lr=5e-4, batch=2,
                    segment=4.0, ablate="", data=None, embedder=None,
                    resume=None)
    rc = RunConfig.resolve(args, defaults)
    ablate = {a.strip() for a in (rc["ablate"] or "").split(",") if a.strip()}
    unknown = ablate - {"gating", "multiloss", "idloss"}
    if unknown:
        raise UsageError(f"unknown ablation flags {sorted(unknown)}")
    use_id = "idloss" not in ablate
    cfg = TrainConfig(epochs=rc["epochs"], seed=rc["seed"], lr=rc["lr"],
                      batch_size=rc["batch"], segment_s=rc["segment"],
                      multiloss="multiloss" not in ablate, idloss=use_id)
    cfg.validate()
    rc.dump(args.out)
    train_entries = dataio.load_manifest(
        os.path.join(rc["data"], "train.jsonl"))
    valid_path = os.path.join(rc["data"], "valid.jsonl")
    valid_entries = (dataio.load_manifest(valid_path)
                     if os.path.exists(valid_path) else None)
    model = init_params(_model_config(rc, gating="gating" not in ablate),
                        seed=rc["seed"])
    embedder = None
    if use_id:
        if rc["embedder"]:
            embedder, _, _ = ckpt.load_embedder(rc["embedder"])
        else:
            corpus = dataio.embedder_corpus(rc["data"], "train")
            embedder, acc = train_embedder(corpus, seed=rc["seed"])
            ckpt.save_embedder(os.path.join(args.out, "embedder.ckpt"),
                               embedder, seed=rc["seed"])
            print(f"embedder trained, holdout accuracy {acc:.3f}")
    _, logs = trainer.train(model, embedder, train_entries, cfg,
                            valid_entries=valid_entries, out_dir=args.out,
                            resume_from=rc["resume"])
    print(f"trained {cfg.epochs} epochs; final loss "
          f"{logs[-1].train_loss:.4f}")
    return 0


def _read_wav_for(path, models):
    """The WAV's samples and rate; InputError unless every model runs at
    that rate."""
    x, rate = dataio.wav_read(path)
    for model in models:
        if model.config.sample_rate != rate:
            raise InputError(
                f"{path}: sampled at {rate} Hz, model expects "
                f"{model.config.sample_rate} Hz")
    return x, rate


def _check_manifest_rate(path, models):
    """InputError unless every model runs at SAMPLE_RATE, the only rate
    a manifest holds."""
    for model in models:
        if model.config.sample_rate != dataio.SAMPLE_RATE:
            raise InputError(
                f"{path}: manifests hold {dataio.SAMPLE_RATE} Hz audio, "
                f"model expects {model.config.sample_rate} Hz")


def _load_separator_and_wav(args):
    model, _, _, _ = ckpt.load_separator(args.checkpoint)
    x, rate = _read_wav_for(args.wav_in, [model])
    return model, x, rate


def _write_channels(out_dir, channels, rate):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, ch in enumerate(channels):
        p = os.path.join(out_dir, f"channel{i}.wav")
        dataio.wav_write(p, np.asarray(ch, dtype=np.float64), rate)
        paths.append(p)
    return paths


def cmd_separate(args) -> int:
    rc = RunConfig.resolve(args, {"seed": 0})
    rc.dump(args.out)
    from .model import separate
    model, x, rate = _load_separator_and_wav(args)
    paths = _write_channels(args.out, separate(model, x), rate)
    print("\n".join(paths))
    return 0


def cmd_eval(args) -> int:
    rc = RunConfig.resolve(args, {"seed": 0, "tta": 0})
    model, _, _, _ = ckpt.load_separator(args.checkpoint)
    _check_manifest_rate(args.manifest, [model])
    rc.dump(args.out)
    entries = dataio.load_manifest(args.manifest)
    report = evalkit.evaluate(entries, model, tta_k=rc["tta"],
                              seed=rc["seed"])
    out_path = os.path.join(args.out, "report.txt")
    with open(out_path, "w") as f:
        f.write(report.to_text())
    print(f"mean SI-SNRi {report.mean_si_snri:.3f} dB -> {out_path}")
    return 0


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _parse_cascade(spec: str) -> dict:
    models = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"bad cascade entry {part!r}, want C=path")
        c, path = part.split("=", 1)
        model, _, _, _ = ckpt.load_separator(path)
        if model.config.num_speakers != int(c):
            raise CheckpointError(
                f"{path}: checkpoint separates "
                f"{model.config.num_speakers}, labeled C={c}")
        models[int(c)] = model
    return models


def cmd_select(args) -> int:
    rc = RunConfig.resolve(args, {"seed": 0, "threshold": None,
                                  "calibrate": None})
    threshold = rc["threshold"]
    if threshold is not None and not _is_finite_real(threshold):
        raise UsageError(f"select: threshold {threshold!r} is not a finite "
                         "number")
    rc.dump(args.out)
    models = _parse_cascade(args.cascade)
    x, rate = _read_wav_for(args.wav_in, models.values())
    if threshold is None:
        if not rc["calibrate"]:
            raise UsageError("select needs --threshold or --calibrate")
        _check_manifest_rate(rc["calibrate"], models.values())
        entries = dataio.load_manifest(rc["calibrate"])
        samples = [(e.mixture, len(e.sources)) for e in entries]
        threshold = evalkit.calibrate_threshold(samples, models)
    report, channels = evalkit.select_count(x, models, threshold)
    _write_channels(args.out, channels, rate)
    with open(os.path.join(args.out, "selection.json"), "w") as f:
        json.dump({"chosen_c": report.chosen_c,
                   "threshold": report.threshold, "path": report.path,
                   "levels": {str(k): v for k, v in report.levels.items()}},
                  f, sort_keys=True, indent=1)
        f.write("\n")
    print(f"selected C={report.chosen_c} (threshold {threshold:.1f} dB)")
    return 0


def cmd_tta(args) -> int:
    rc = RunConfig.resolve(args, {"seed": 0, "tta": 10})
    k = rc["tta"]
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise UsageError(f"tta: --tta must be an integer >= 0, got {k!r}")
    rc.dump(args.out)
    model, x, rate = _load_separator_and_wav(args)
    channels = evalkit.tta_separate(x, model, k=k, seed=rc["seed"])
    paths = _write_channels(args.out, channels, rate)
    print("\n".join(paths))
    return 0


_COMMANDS = {"synth-data": cmd_synth_data, "train": cmd_train,
             "separate": cmd_separate, "eval": cmd_eval,
             "select": cmd_select, "tta": cmd_tta}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except VoicesepError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"OSError: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
