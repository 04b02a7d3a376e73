"""Separator wiring: init, shapes, gating ablation, encode constraints."""

import numpy as np
import pytest

import voicesep.autodiff as ad
from voicesep.errors import ConfigurationError, InputError, NumericError
from voicesep.model import (ModelConfig, count_parameters, forward,
                            init_params, separate)

SMALL = dict(n_filters=12, kernel_len=8, num_blocks=4, hidden=10,
             num_speakers=2)


def small_model(seed=0, **over):
    cfg = ModelConfig(**{**SMALL, **over})
    return init_params(cfg, seed=seed)


def test_init_deterministic_and_bounded():
    m1, m2 = small_model(7), small_model(7)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(),
                                  m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)
        assert np.all(np.isfinite(p1.data))
    assert m1.params["prelu.slope"].item() == 0.25
    # forget-gate biases +1, all other biases 0
    b = m1.params["block1.lstm1.b"].data
    h = SMALL["hidden"]
    assert np.all(b[:, h:2 * h] == 1.0)
    assert np.all(b[:, :h] == 0.0) and np.all(b[:, 2 * h:] == 0.0)
    # weights inside +-1/sqrt(fan-in)
    wx = m1.params["block1.lstm1.wx"].data
    assert np.max(np.abs(wx)) <= 1.0 / np.sqrt(SMALL["n_filters"])


def test_different_seeds_differ():
    a, b = small_model(0), small_model(1)
    assert np.any(a.params["encoder.kernel"].data
                  != b.params["encoder.kernel"].data)


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("t", [800, 2000])
def test_shape_contract(c, t):
    m = small_model(num_speakers=c)
    groups = forward(m, ad.Tensor(np.random.default_rng(0)
                                  .standard_normal(t).astype(np.float32)))
    assert len(groups) == SMALL["num_blocks"] // 2
    for group in groups:
        assert len(group) == c
        for ch in group:
            assert ch.data.shape == (t,)


def test_multiloss_false_only_final_group():
    m = small_model()
    x = np.random.default_rng(1).standard_normal(800).astype(np.float32)
    all_groups = forward(m, ad.Tensor(x.copy()), multiloss=True)
    final_only = forward(m, ad.Tensor(x.copy()), multiloss=False)
    assert len(final_only) == 1
    for a, b in zip(all_groups[-1], final_only[0]):
        np.testing.assert_array_equal(a.data, b.data)


def test_separate_matches_final_group():
    m = small_model()
    x = np.random.default_rng(2).standard_normal(800).astype(np.float32)
    outs = separate(m, x)
    groups = forward(m, ad.Tensor(x.astype(np.float32)), multiloss=False)
    for a, b in zip(outs, groups[0]):
        np.testing.assert_array_equal(a, b.data)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_separate_rejects_non_finite_input(bad):
    """1e39 is finite in float64 but overflows the float32 the model uses."""
    x = np.zeros(800)
    x[123] = bad
    with pytest.raises(NumericError, match="non-finite"):
        separate(small_model(), x)


def test_gating_ablation_changes_param_count():
    full = small_model()
    nogate = small_model(gating=False)
    assert count_parameters(nogate) < count_parameters(full)
    # exactly one LSTM's worth per block
    h, n = SMALL["hidden"], SMALL["n_filters"]
    per_lstm = 2 * (n * 4 * h) + 2 * (h * 4 * h) + 2 * 4 * h
    diff = count_parameters(full) - count_parameters(nogate)
    assert diff == SMALL["num_blocks"] * per_lstm


def test_gating_false_still_forward():
    m = small_model(gating=False)
    x = np.random.default_rng(3).standard_normal(800).astype(np.float32)
    outs = separate(m, x)
    assert len(outs) == 2 and outs[0].shape == (800,)


def test_encode_rejects_bad_lengths():
    m = small_model()
    with pytest.raises(InputError):
        forward(m, ad.Tensor(np.zeros(801, dtype=np.float32)))
    with pytest.raises(InputError):
        forward(m, ad.Tensor(np.zeros(4, dtype=np.float32)))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "num_blocks": 3}).validate()  # must be even
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "kernel_len": 7}).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(**{**SMALL, "num_speakers": 0}).validate()


def test_config_round_trip():
    cfg = ModelConfig(**SMALL, chunk_len=14)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_channel_order_is_arbitrary_convention():
    """Comparisons must go through optimal assignment, never raw order:
    two differently seeded models may emit channels in any order."""
    from voicesep import losses
    rng = np.random.default_rng(4)
    s = [rng.standard_normal(800) for _ in range(2)]
    mix = (s[0] + s[1]).astype(np.float32)
    m = small_model(5)
    outs = separate(m, mix)
    _, assign = losses.upit([si.astype(np.float32) for si in s],
                            [o for o in outs])
    assign.validate()  # perm is a bijection whichever order appeared
