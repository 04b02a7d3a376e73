"""Checkpoint container format, round trips, and corruption handling."""

import numpy as np
import pytest

from voicesep import checkpoint as ckpt
from voicesep.data import SAMPLE_RATE
from voicesep.errors import CheckpointError
from voicesep.model import ModelConfig, init_params
from voicesep.embedder import EmbedderConfig, init_embedder
from voicesep.optim import Adam


SMALL = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=4,
                    num_speakers=2, chunk_len=6)


def test_raw_round_trip(tmp_path):
    arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
              "scalar": np.float32(0.25),
              "vec": np.array([1, 2, 3], dtype=np.float32)}
    p = tmp_path / "c.ckpt"
    ckpt.save_checkpoint(p, "separator", {"x": 1}, seed=7, step=42,
                         arrays=arrays)
    kind, config, seed, step, back = ckpt.load_checkpoint(p)
    assert (kind, config, seed, step) == ("separator", {"x": 1}, 7, 42)
    assert back["scalar"].shape == ()  # 0-d stays 0-d
    for name in arrays:
        np.testing.assert_array_equal(back[name], np.asarray(arrays[name]))


def test_save_is_byte_reproducible(tmp_path):
    arrays = {"b": np.ones(4, np.float32), "a": np.zeros((2, 2), np.float32)}
    p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
    ckpt.save_checkpoint(p1, "embedder", {}, 0, 0, arrays)
    ckpt.save_checkpoint(p2, "embedder", {}, 0, 0, dict(reversed(arrays.items())))
    assert p1.read_bytes() == p2.read_bytes()


def test_separator_round_trip_bit_exact(tmp_path):
    model = init_params(SMALL, seed=3)
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=3, step=10)
    back, seed, step, opt = ckpt.load_separator(p)
    assert (seed, step) == (3, 10)
    assert opt == {}
    for (n1, t1), (n2, t2) in zip(model.named_parameters(),
                                  back.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_optimizer_state_round_trip(tmp_path):
    model = init_params(SMALL, seed=0)
    opt = Adam(model.named_parameters(), lr=1e-3)
    for _, t in model.named_parameters():
        t.grad = np.full_like(t.data, 0.1)
    opt.step()
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=0, step=1, optimizer=opt)
    back, _, _, state = ckpt.load_separator(p)
    opt2 = Adam(back.named_parameters(), lr=1e-3)
    opt2.load_state_arrays(state)
    assert opt2.t == opt.t
    for name in opt.m:
        np.testing.assert_array_equal(opt2.m[name], opt.m[name])
        np.testing.assert_array_equal(opt2.v[name], opt.v[name])


def optimizer_arrays():
    """A model's parameters and its Adam state after one step."""
    model = init_params(SMALL, seed=0)
    opt = Adam(model.named_parameters(), lr=1e-3)
    for _, t in model.named_parameters():
        t.grad = np.full_like(t.data, 0.1)
    opt.step()
    arrays = {name: p.data for name, p in model.named_parameters()}
    arrays.update(opt.state_arrays())
    return arrays


def without(*prefixes):
    return lambda a: {k: v for k, v in a.items()
                      if not k.startswith(prefixes)}


def replaced(name, value):
    """`value` maps the arrays to the one stored under `name`."""
    return lambda a: {**a, name: value(a)}


M, V = "adam.m.block1.lstm1.b", "adam.v.block1.lstm1.b"
MALFORMED_STATE = {
    "no_t": without("adam.t"),
    "no_m": without(M),
    "no_v": without(V),
    "t_alone": without("adam.m.", "adam.v."),
    "unknown_name": replaced("adam.m.nope", lambda a: np.zeros(3)),
    "m_shape": replaced(M, lambda a: a[M][1:]),
    "v_shape": replaced(V, lambda a: a[V][None]),
    "t_two_values": replaced("adam.t", lambda a: np.ones(2)),
    "t_scalar": replaced("adam.t", lambda a: np.float32(1)),
    "t_negative": replaced("adam.t", lambda a: np.array([-1.0])),
    "t_fraction": replaced("adam.t", lambda a: np.array([1.5])),
}


@pytest.mark.parametrize("mangle", MALFORMED_STATE.values(),
                         ids=MALFORMED_STATE.keys())
def test_malformed_optimizer_state_raises_checkpoint_error(tmp_path, mangle):
    """Optimizer state is absent, or adam.t (one whole number >= 0) with
    adam.m and adam.v in the shape of every parameter. Anything between
    is refused naming the file, never left for a resume to trip over."""
    p = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(p, "separator", SMALL.to_dict(), 0, 1,
                         mangle(optimizer_arrays()))
    with pytest.raises(CheckpointError, match=str(p)):
        ckpt.load_separator(p)


def test_embedder_round_trip(tmp_path):
    model = init_embedder(EmbedderConfig(n_classes=3), seed=5)
    p = tmp_path / "e.ckpt"
    ckpt.save_embedder(p, model, seed=5)
    back, seed, step = ckpt.load_embedder(p)
    assert (seed, step) == (5, 0)
    for (n1, t1), (_, t2) in zip(model.named_parameters(),
                                 back.named_parameters()):
        np.testing.assert_array_equal(t1.data, t2.data)


def test_kind_mismatch(tmp_path):
    model = init_params(SMALL, seed=0)
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=0, step=0)
    with pytest.raises(CheckpointError, match="expected embedder"):
        ckpt.load_embedder(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint\n")
    with pytest.raises(CheckpointError, match="magic"):
        ckpt.load_checkpoint(p)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        ckpt.load_checkpoint(tmp_path / "absent.ckpt")


def test_truncated_array(tmp_path):
    model = init_params(SMALL, seed=0)
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=0, step=0)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        ckpt.load_checkpoint(p)


def test_trailing_bytes(tmp_path):
    model = init_params(SMALL, seed=0)
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=0, step=0)
    p.write_bytes(p.read_bytes() + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="trailing"):
        ckpt.load_checkpoint(p)


def test_shape_mismatch_detected(tmp_path):
    model = init_params(SMALL, seed=0)
    p = tmp_path / "m.ckpt"
    arrays = {name: t.data for name, t in model.named_parameters()}
    name = max(arrays, key=lambda n: arrays[n].ndim)
    arrays[name] = arrays[name].reshape(-1)  # flatten one array
    ckpt.save_checkpoint(p, "separator", model.config.to_dict(), 0, 0, arrays)
    with pytest.raises(CheckpointError, match="shape"):
        ckpt.load_separator(p)


def test_unexpected_parameter_name(tmp_path):
    model = init_params(SMALL, seed=0)
    arrays = {name: t.data for name, t in model.named_parameters()}
    arrays["rogue"] = np.zeros(3, np.float32)
    p = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(p, "separator", model.config.to_dict(), 0, 0, arrays)
    with pytest.raises(CheckpointError, match="do not match"):
        ckpt.load_separator(p)


@pytest.mark.parametrize("dims,match", [
    ("2 x", "'w' has shape '2 x'"), ("2 3.0", "'w' has shape '2 3.0'"),
    ("-2 -3", "'w' has shape '-2 -3'"),
    ("4294967296 4294967296", "'w' truncated")])
def test_malformed_array_dimensions_rejected(tmp_path, dims, match):
    """An array record whose dimensions are not integers >= 0 raises
    CheckpointError, naming the array, and so does one whose size
    overflows a 64-bit count: 2**64 elements are not 0."""
    p = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(p, "separator", {}, 0, 0,
                         {"w": np.zeros((2, 3), np.float32)})
    p.write_bytes(p.read_bytes().replace(b"\nw 2 3\n",
                                         f"\nw {dims}\n".encode()))
    with pytest.raises(CheckpointError, match=match):
        ckpt.load_checkpoint(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_array_rejected(tmp_path, bad):
    model = init_params(SMALL, seed=0)
    model.params["decoder.b"].data[0] = bad
    p = tmp_path / "m.ckpt"
    ckpt.save_separator(p, model, seed=0, step=0)
    with pytest.raises(CheckpointError, match="'decoder.b'.*non-finite"):
        ckpt.load_separator(p)


def parameter_arrays(model):
    return {name: p.data for name, p in model.named_parameters()}


def test_separator_with_more_channels_than_searched_is_refused(tmp_path):
    """A header config with C = 10, beyond the permutation search's
    bound, fails as a CheckpointError naming the file and the field."""
    p = tmp_path / "c10.ckpt"
    ckpt.save_checkpoint(p, "separator",
                         {**SMALL.to_dict(), "num_speakers": 10}, 0, 0,
                         parameter_arrays(init_params(SMALL, seed=0)))
    with pytest.raises(CheckpointError, match="c10.ckpt.*num_speakers"):
        ckpt.load_separator(p)


@pytest.mark.parametrize("config", [
    {**SMALL.to_dict(), "bogus": 1}, {"n_filters": "8"}, [1], None,
    {**SMALL.to_dict(), "num_blocks": 3}, {**SMALL.to_dict(), "hidden": 8.5}],
    ids=["unknown_key", "string", "list", "null", "odd_blocks",
         "float_width"])
def test_bad_separator_config_raises_checkpoint_error(tmp_path, config):
    """A header config that is not an object of ModelConfig's keys, or
    that the config or the model refuses, fails naming the file."""
    p = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(p, "separator", config, 0, 0,
                         parameter_arrays(init_params(SMALL, seed=0)))
    with pytest.raises(CheckpointError, match="m.ckpt"):
        ckpt.load_separator(p)


@pytest.mark.parametrize("config", [
    {"sample_rate": 8000, "n_classes": 3, "win_ms": 20.0, "hop_ms": 10.0,
     "clip_s": 0.5, "embed_dim": 64, "conv_channels": [8, 16, 32]},
    {"n_classes": 1}, {"sample_rate": "8000", "n_classes": 3}, [3]],
    ids=["retired_keys", "one_class", "string", "list"])
def test_bad_embedder_config_raises_checkpoint_error(tmp_path, config):
    """The window, hop, clip, embedding width and conv channels are
    constants, so a file that still sets them is refused like any other
    config the embedder cannot be built from."""
    p = tmp_path / "e.ckpt"
    model = init_embedder(EmbedderConfig(n_classes=3), seed=5)
    ckpt.save_checkpoint(p, "embedder", config, 5, 0,
                         parameter_arrays(model))
    with pytest.raises(CheckpointError, match="e.ckpt"):
        ckpt.load_embedder(p)


def save_with_rate(path, kind, model, rate):
    """`model` saved with a header config that names `rate`, as files
    written while the sample rate was a config key do."""
    ckpt.save_checkpoint(path, kind,
                         {**model.config.to_dict(), "sample_rate": rate},
                         5, 0, parameter_arrays(model))


LOADERS = {"separator": (ckpt.load_separator, init_params, SMALL),
           "embedder": (ckpt.load_embedder, init_embedder,
                        EmbedderConfig(n_classes=3))}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_header_at_the_sample_rate_loads(tmp_path, kind):
    load, init, config = LOADERS[kind]
    model = init(config, seed=5)
    p = tmp_path / "old.ckpt"
    save_with_rate(p, kind, model, SAMPLE_RATE)
    back = load(p)[0]
    assert back.config == model.config
    for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                  back.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_header_at_another_rate_raises_checkpoint_error(tmp_path, kind):
    load, init, config = LOADERS[kind]
    p = tmp_path / "wide.ckpt"
    save_with_rate(p, kind, init(config, seed=5), 16000)
    with pytest.raises(CheckpointError, match="wide.ckpt.*16000 Hz"):
        load(p)
