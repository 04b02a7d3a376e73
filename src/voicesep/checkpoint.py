"""Checkpoint container: a text header followed by named float32 arrays.

Layout (all little-endian):

    voicesep-checkpoint v1\n
    kind=<separator|embedder>\n
    config=<single-line JSON>\n
    seed=<int>\n
    step=<int>\n
    arrays=<count>\n
    \n
    <name> <d0> <d1> ...\n   raw float32 bytes (d0*d1*... * 4)
    ... repeated per array ...

Array order is sorted by name so files are byte-reproducible. Optimizer
state rides along under the "adam." prefix, which lets a training run
resume mid-schedule with bit-identical arithmetic.
"""

import json
import math
from dataclasses import fields

import numpy as np

from .data import SAMPLE_RATE
from .errors import CheckpointError, VoicesepError
from .model import ModelConfig, SeparatorModel, init_params
from .embedder import EmbedderConfig, EmbedderModel, init_embedder

MAGIC = "voicesep-checkpoint v1"
KINDS = ("separator", "embedder")


def save_checkpoint(path, kind: str, config: dict, seed: int, step: int,
                    arrays: dict) -> None:
    if kind not in KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    names = sorted(arrays)
    head = [MAGIC,
            f"kind={kind}",
            "config=" + json.dumps(config, sort_keys=True),
            f"seed={seed}",
            f"step={step}",
            f"arrays={len(names)}",
            ""]
    with open(path, "wb") as f:
        f.write("\n".join(head).encode("utf-8") + b"\n")
        for name in names:
            arr = np.asarray(arrays[name], dtype="<f4", order="C")
            dims = " ".join(str(d) for d in arr.shape)
            f.write(f"{name} {dims}".rstrip().encode("utf-8") + b"\n")
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a container; returns (kind, config dict, seed, step, arrays)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e

    def take_line(off):
        nl = blob.find(b"\n", off)
        if nl < 0:
            raise CheckpointError(
                f"{path}: truncated header at byte {off}")
        return blob[off:nl].decode("utf-8", errors="replace"), nl + 1

    off = 0
    magic, off = take_line(off)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic line)")
    fields = {}
    for key in ("kind", "config", "seed", "step", "arrays"):
        line, off = take_line(off)
        if not line.startswith(key + "="):
            raise CheckpointError(f"{path}: expected '{key}=' in header, "
                                  f"got {line!r}")
        fields[key] = line[len(key) + 1:]
    blank, off = take_line(off)
    if blank != "":
        raise CheckpointError(f"{path}: missing blank line after header")
    kind = fields["kind"]
    if kind not in KINDS:
        raise CheckpointError(f"{path}: unknown kind {kind!r}")
    try:
        config = json.loads(fields["config"])
        seed = int(fields["seed"])
        step = int(fields["step"])
        count = int(fields["arrays"])
    except ValueError as e:
        raise CheckpointError(f"{path}: malformed header field: {e}") from e

    arrays = {}
    for _ in range(count):
        line, off = take_line(off)
        parts = line.split()
        if not parts:
            raise CheckpointError(f"{path}: empty array record")
        name, dims = parts[0], parts[1:]
        if not all(d.isdecimal() for d in dims):
            raise CheckpointError(f"{path}: array {name!r} has shape "
                                  f"{' '.join(dims)!r}, not dimensions >= 0")
        dims = tuple(int(d) for d in dims)
        nbytes = 4 * math.prod(dims)   # exact: no int64 wraparound
        if off + nbytes > len(blob):
            raise CheckpointError(
                f"{path}: array {name!r} truncated at byte {off}")
        arr = np.frombuffer(blob[off:off + nbytes], dtype="<f4")
        if not np.isfinite(arr).all():
            raise CheckpointError(
                f"{path}: array {name!r} holds non-finite values")
        arrays[name] = arr.reshape(dims).copy()
        off += nbytes
    if off != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - off} trailing bytes after last array")
    return kind, config, seed, step, arrays


def _build(path, config_cls, config, init):
    """A fresh model from a header's config. CheckpointError, naming the
    file, unless the config is a JSON object whose keys config_cls has
    and whose values both the config and the model accept. Files written
    while the sample rate was a config key carry it; they load when it
    names SAMPLE_RATE."""
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is not a JSON object")
    rate = config.pop("sample_rate", SAMPLE_RATE)
    if rate != SAMPLE_RATE:
        raise CheckpointError(f"{path}: config is for {rate!r} Hz audio, "
                              f"voicesep works at {SAMPLE_RATE} Hz only")
    unknown = sorted(set(config) - {f.name for f in fields(config_cls)})
    if unknown:
        raise CheckpointError(f"{path}: config has unknown keys {unknown}")
    try:
        return init(config_cls.from_dict(config), seed=0)
    except (TypeError, ValueError, ArithmeticError, VoicesepError) as e:
        raise CheckpointError(f"{path}: config refused: {e}") from e


def _split_optimizer(arrays: dict):
    params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    opt = {k: v for k, v in arrays.items() if k.startswith("adam.")}
    return params, opt


def save_separator(path, model: SeparatorModel, seed: int, step: int,
                   optimizer=None) -> None:
    arrays = {name: p.data for name, p in model.named_parameters()}
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    save_checkpoint(path, "separator", model.config.to_dict(), seed, step,
                    arrays)


def load_separator(path):
    """Returns (model, seed, step, optimizer-state arrays).

    Every array shape is validated against a fresh model built from the
    stored config, so a mangled file cannot silently load. The optimizer
    state is either absent or whole (see _check_optimizer).
    """
    kind, config, seed, step, arrays = load_checkpoint(path)
    if kind != "separator":
        raise CheckpointError(f"{path}: kind {kind!r}, expected separator")
    model = _build(path, ModelConfig, config, init_params)
    params, opt = _split_optimizer(arrays)
    _install(path, model, params)
    if opt:
        _check_optimizer(path, model, opt)
    return model, seed, step, opt


def _check_optimizer(path, model, opt: dict) -> None:
    """CheckpointError, naming the file, unless `opt` is exactly Adam's
    state: adam.t, one whole number >= 0, and adam.m.<p> and adam.v.<p>
    in the shape of every parameter p."""
    shapes = {f"adam.{moment}.{name}": tensor.data.shape
              for name, tensor in model.named_parameters()
              for moment in "mv"}
    shapes["adam.t"] = (1,)
    wrong = sorted(name for name in shapes.keys() | opt.keys()
                   if name not in opt or opt[name].shape != shapes.get(name))
    if wrong:
        raise CheckpointError(
            f"{path}: optimizer state is not Adam's for this model: "
            f"{wrong[:3]} missing, unexpected or of another shape")
    t = float(opt["adam.t"][0])
    if t < 0 or not t.is_integer():
        raise CheckpointError(
            f"{path}: adam.t is {t}, not a whole number >= 0")


def save_embedder(path, model: EmbedderModel, seed: int) -> None:
    """An embedder is trained in one call, so it is saved at step 0 and
    without optimizer state."""
    arrays = {name: p.data for name, p in model.named_parameters()}
    save_checkpoint(path, "embedder", model.config.to_dict(), seed, 0,
                    arrays)


def load_embedder(path):
    kind, config, seed, step, arrays = load_checkpoint(path)
    if kind != "embedder":
        raise CheckpointError(f"{path}: kind {kind!r}, expected embedder")
    model = _build(path, EmbedderConfig, config, init_embedder)
    params, _ = _split_optimizer(arrays)
    _install(path, model, params)
    return model, seed, step


def _install(path, model, params: dict) -> None:
    expected = dict(model.named_parameters())
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match config "
            f"(missing {missing[:3]}, unexpected {extra[:3]})")
    for name, tensor in expected.items():
        arr = params[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, config implies "
                f"{tensor.data.shape}")
        tensor.data = arr.astype(np.float32)
