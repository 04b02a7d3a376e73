"""Command-line surface: synth-data, train, separate, eval, select, tta.

Each flag declares its setting's type and builtin default; a setting is
the builtin default, overridden by the `--config` file, overridden by
the explicit flag. The config file is a JSON object. A key naming one of
the subcommand's flags by its dest (`n_speakers`, `wav_in`) must hold
the JSON type the flag parses to: an integer for an int flag (never a
bool), a number for a float flag, a string for a text flag, an object
for `counts`; `null` only where the builtin default is None. Other keys
are ignored, so one file can serve several commands.

Every subcommand writes its settings but `config` and `out` to
`runconfig.json` in the output directory (given back as `--config`, it
resolves to itself) and exits 0 on success. Failures print one
machine-readable line `<ErrorClass>: <message>` and exit with the error
class's `exit_code`: 2 (usage), 3 (data), 4 (checkpoint), or 5 (numeric).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as dataio
from . import evalkit
from . import trainer
from .embedder import embedder_corpus, train_embedder
from .errors import CheckpointError, UsageError, VoicesepError
from .model import ModelConfig, init_params
from .trainer import TrainConfig


def _dump_runconfig(args) -> None:
    os.makedirs(args.out, exist_ok=True)
    settings = {k: v for k, v in vars(args).items()
                if k not in ("cmd", "config", "out")}
    with open(os.path.join(args.out, "runconfig.json"), "w") as f:
        json.dump(settings, f, sort_keys=True, indent=1)
        f.write("\n")


def _add_common(p):
    p.add_argument("--config", help="JSON file of default settings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")


def _add_model_flags(p):
    m = ModelConfig()
    for flag, default, what in (
            ("--speakers", m.num_speakers, "output channel count C"),
            ("--filters", m.n_filters, "encoder filter count N"),
            ("--hidden", m.hidden, "LSTM hidden width H"),
            ("--blocks", m.num_blocks, "recurrent block count b"),
            ("--kernel", m.kernel_len, "encoder kernel length L"),
            ("--chunk", m.chunk_len, "chunk length K")):
        p.add_argument(flag, type=int, default=default, help=what)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="voicesep")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth-data", help="generate a toy corpus")
    _add_common(p)
    p.add_argument("--n-speakers", type=int, dest="n_speakers", default=8)
    p.add_argument("--utts", type=int, dest="utts", default=24,
                   help="utterances per speaker")
    p.add_argument("--duration", type=float, default=0.5,
                   help="utterance seconds")
    p.add_argument("--counts", type=json.loads,
                   default='{"2": {"train": 200, "valid": 30, "test": 50}}',
                   help='JSON mix counts per C, for every split or each, '
                        'e.g. \'{"2": 9, "3": {"train": 8, "valid": 2, '
                        '"test": 2}}\'')

    p = sub.add_parser("train", help="train a separator")
    _add_common(p)
    _add_model_flags(p)
    t = TrainConfig(epochs=50)
    p.add_argument("--data", required=True, help="corpus root")
    p.add_argument("--epochs", type=int, default=t.epochs)
    p.add_argument("--lr", type=float, default=t.lr)
    p.add_argument("--batch", type=int, default=t.batch_size)
    p.add_argument("--segment", type=float, default=t.segment_s,
                   help="training crop seconds")
    p.add_argument("--ablate", default="",
                   help="comma list of gating,multiloss,idloss")
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
    p.add_argument("--tta", type=int, default=0)

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
    p.add_argument("--tta", type=int, default=10)
    return ap


def cmd_synth_data(args) -> int:
    _dump_runconfig(args)
    dataio.build_corpus(args.out, n_speakers=args.n_speakers,
                        utt_per_speaker=args.utts,
                        mixture_counts=args.counts, seed=args.seed,
                        duration_s=args.duration)
    print(f"corpus written under {args.out}")
    return 0


def cmd_train(args) -> int:
    ablate = {a.strip() for a in args.ablate.split(",") if a.strip()}
    unknown = ablate - {"gating", "multiloss", "idloss"}
    if unknown:
        raise UsageError(f"unknown ablation flags {sorted(unknown)}")
    use_id = "idloss" not in ablate
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, lr=args.lr,
                      batch_size=args.batch, segment_s=args.segment,
                      multiloss="multiloss" not in ablate, idloss=use_id)
    cfg.validate()
    model_cfg = ModelConfig(
        n_filters=args.filters, kernel_len=args.kernel,
        num_blocks=args.blocks, hidden=args.hidden,
        num_speakers=args.speakers, chunk_len=args.chunk,
        gating="gating" not in ablate)
    model_cfg.validate()
    train_entries = dataio.load_manifest(
        os.path.join(args.data, "train.jsonl"))
    valid_path = os.path.join(args.data, "valid.jsonl")
    valid_entries = (dataio.load_manifest(valid_path)
                     if os.path.exists(valid_path) else None)
    if args.resume:
        # train() repeats the check; here it runs before anything is written
        trainer.load_resume(args.resume, model_cfg, cfg, len(train_entries))
    model = init_params(model_cfg, seed=args.seed)
    embedder = None
    if use_id and (args.embedder or args.resume):
        # a resume keeps the embedder its run trained
        embedder, _, _ = ckpt.load_embedder(
            args.embedder or os.path.join(os.path.dirname(args.resume),
                                          "embedder.ckpt"))
    _dump_runconfig(args)
    if use_id and embedder is None:
        corpus = embedder_corpus(args.data, "train")
        embedder, acc = train_embedder(corpus, seed=args.seed)
        ckpt.save_embedder(os.path.join(args.out, "embedder.ckpt"),
                           embedder, seed=args.seed)
        print(f"embedder trained, holdout accuracy {acc:.3f}")
    _, logs = trainer.train(model, embedder, train_entries, cfg,
                            valid_entries=valid_entries, out_dir=args.out,
                            resume_from=args.resume)
    print(f"trained to epoch {logs[-1].epoch}; final loss "
          f"{logs[-1].train_loss:.4f}")
    return 0


def _load_separator_and_wav(args):
    model, _, _, _ = ckpt.load_separator(args.checkpoint)
    return model, dataio.load_wav(args.wav_in)


def _write_channels(out_dir, channels):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, ch in enumerate(channels):
        p = os.path.join(out_dir, f"channel{i}.wav")
        dataio.wav_write(p, np.asarray(ch, dtype=np.float64))
        paths.append(p)
    return paths


def cmd_separate(args) -> int:
    _dump_runconfig(args)
    from .model import separate
    model, x = _load_separator_and_wav(args)
    paths = _write_channels(args.out, separate(model, x))
    print("\n".join(paths))
    return 0


def cmd_eval(args) -> int:
    if args.tta < 0:
        raise UsageError(f"eval: --tta must be >= 0, got {args.tta}")
    model, _, _, _ = ckpt.load_separator(args.checkpoint)
    _dump_runconfig(args)
    entries = dataio.load_manifest(args.manifest)
    report = evalkit.evaluate(entries, model, tta_k=args.tta,
                              seed=args.seed)
    out_path = os.path.join(args.out, "report.txt")
    with open(out_path, "w") as f:
        f.write(report.to_text())
    print(f"mean SI-SNRi {report.mean_si_snri:.3f} dB -> {out_path}")
    return 0


def _parse_cascade(spec: str) -> dict:
    """{C: model}; every C=path entry is checked before any checkpoint
    is read."""
    paths = {}
    for part in spec.split(","):
        label, eq, path = part.partition("=")
        if not eq or not label.strip().isdecimal():
            raise UsageError(f"bad cascade entry {part!r}, want C=path "
                             "with an integer C")
        if int(label) in paths:
            raise UsageError(f"cascade labels C={int(label)} twice")
        paths[int(label)] = path
    models = {c: ckpt.load_separator(path)[0] for c, path in paths.items()}
    for c, model in models.items():
        if model.config.num_speakers != c:
            raise CheckpointError(
                f"{paths[c]}: checkpoint separates "
                f"{model.config.num_speakers}, labeled C={c}")
    return models


def cmd_select(args) -> int:
    threshold = args.threshold
    # False for NaN, an infinity and an int too large for a float alike
    if threshold is not None and not abs(threshold) <= sys.float_info.max:
        raise UsageError(f"select: threshold {threshold!r} is not a finite "
                         "number")
    models = _parse_cascade(args.cascade)
    _dump_runconfig(args)
    x = dataio.load_wav(args.wav_in)
    if threshold is None:
        if not args.calibrate:
            raise UsageError("select needs --threshold or --calibrate")
        entries = dataio.load_manifest(args.calibrate)
        samples = [(e.mixture, len(e.sources)) for e in entries]
        threshold = evalkit.calibrate_threshold(samples, models)
    report, channels = evalkit.select_count(x, models, threshold)
    _write_channels(args.out, channels)
    with open(os.path.join(args.out, "selection.json"), "w") as f:
        json.dump({"chosen_c": report.chosen_c,
                   "threshold": report.threshold, "path": report.path,
                   "levels": {str(k): v for k, v in report.levels.items()}},
                  f, sort_keys=True, indent=1)
        f.write("\n")
    print(f"selected C={report.chosen_c} (threshold {threshold:.1f} dB)")
    return 0


def cmd_tta(args) -> int:
    if args.tta < 0:
        raise UsageError(f"tta: --tta must be >= 0, got {args.tta}")
    _dump_runconfig(args)
    model, x = _load_separator_and_wav(args)
    channels = evalkit.tta_separate(x, model, k=args.tta, seed=args.seed)
    paths = _write_channels(args.out, channels)
    print("\n".join(paths))
    return 0


_COMMANDS = {"synth-data": cmd_synth_data, "train": cmd_train,
             "separate": cmd_separate, "eval": cmd_eval,
             "select": cmd_select, "tta": cmd_tta}


# the JSON types a config value may have, by its flag's `type`
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               None: ((str,), "a string"), json.loads: ((dict,), "an object")}


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The config file's values for `parser`'s flags, each checked to be
    of the JSON type its flag parses to."""
    try:
        with open(path) as f:
            values = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"bad config {path}: {e}")
    if not isinstance(values, dict):
        raise UsageError(f"bad config {path}: not a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest in values
             and a.default is not argparse.SUPPRESS}
    for key, a in flags.items():
        kinds, what = _JSON_TYPES[a.type]
        # type(), not isinstance(): a bool is an int to Python
        if not (type(values[key]) in kinds
                or values[key] is None and a.default is None):
            raise UsageError(f"config {path}: {key} must be {what}, got "
                             f"{json.dumps(values[key])}")
    return {key: values[key] for key in flags}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            commands, = (a.choices for a in ap._actions
                         if isinstance(a, argparse._SubParsersAction))
            parser = commands[args.cmd]
            parser.set_defaults(**_config_defaults(args.config, parser))
            args = ap.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.cmd](args)
    except VoicesepError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"OSError: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
