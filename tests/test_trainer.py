"""Training loop: schedule, determinism, resume, ablations, validation."""

import os

import numpy as np
import pytest

from voicesep import checkpoint as ckpt
from voicesep import data as dataio
from voicesep import trainer
from voicesep.errors import ConfigurationError, InputError
from voicesep.model import ModelConfig, init_params

SMALL = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=4,
                    num_speakers=2, chunk_len=6)


def tiny_entries(n=4, seed=0, duration=0.5):
    spks = dataio.make_speakers(4, seed=seed)
    entries = []
    for i in range(n):
        srcs = [dataio.synth_utterance(spks[2 * (i % 2)], duration,
                                       seed=[seed, i, 0]),
                dataio.synth_utterance(spks[2 * (i % 2) + 1], duration,
                                       seed=[seed, i, 1])]
        mix = dataio.make_mixture(srcs, ["a", "b"], seed=[seed, i, 2])
        entries.append(dataio.ManifestEntry(
            mixture=mix.x, sources=mix.scaled_sources(),
            speaker_ids=["a", "b"], gains=mix.gains))
    return entries


def small_cfg(**kw):
    base = dict(epochs=2, seed=0, segment_s=0.25, idloss=False)
    base.update(kw)
    return trainer.TrainConfig(**base)


def test_lr_schedule():
    cfg = trainer.TrainConfig(epochs=10, lr=5e-4)
    assert cfg.lr_at(1) == 5e-4
    assert cfg.lr_at(2) == 5e-4
    assert cfg.lr_at(3) == pytest.approx(5e-4 * 0.98)
    assert cfg.lr_at(6) == pytest.approx(5e-4 * 0.98 ** 2)
    assert cfg.lr_at(7) == pytest.approx(5e-4 * 0.98 ** 3)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        trainer.TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigurationError):
        trainer.TrainConfig(epochs=1, id_weight=-1.0).validate()


def test_training_reduces_loss_and_is_deterministic():
    entries = tiny_entries()

    def run():
        model = init_params(SMALL, seed=1)
        _, logs = trainer.train(model, None, entries, small_cfg(epochs=3))
        return model, logs

    m1, logs1 = run()
    m2, logs2 = run()
    assert [l.train_loss for l in logs1] == [l.train_loss for l in logs2]
    for (_, t1), (_, t2) in zip(m1.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(t1.data, t2.data)
    assert logs1[-1].train_loss < logs1[0].train_loss


def test_resume_is_bit_identical(tmp_path):
    entries = tiny_entries()
    cfg = small_cfg(epochs=4)

    full_dir = tmp_path / "full"
    model_full = init_params(SMALL, seed=1)
    trainer.train(model_full, None, entries, cfg, out_dir=str(full_dir))

    half_dir = tmp_path / "half"
    model_half = init_params(SMALL, seed=1)
    trainer.train(model_half, None, entries, small_cfg(epochs=2),
                  out_dir=str(half_dir))
    resumed = init_params(SMALL, seed=1)
    trainer.train(resumed, None, entries, cfg,
                  out_dir=str(tmp_path / "resumed"),
                  resume_from=str(half_dir / "last.ckpt"))

    p1 = (full_dir / "last.ckpt").read_bytes()
    p2 = (tmp_path / "resumed" / "last.ckpt").read_bytes()
    assert p1 == p2


def test_resume_rejects_config_mismatch(tmp_path):
    entries = tiny_entries()
    model = init_params(SMALL, seed=0)
    trainer.train(model, None, entries, small_cfg(epochs=1),
                  out_dir=str(tmp_path))
    other = init_params(ModelConfig(n_filters=12, hidden=8, num_blocks=2,
                                    kernel_len=4, num_speakers=2,
                                    chunk_len=6), seed=0)
    with pytest.raises(ConfigurationError, match="config"):
        trainer.train(other, None, entries, small_cfg(epochs=2),
                      resume_from=str(tmp_path / "last.ckpt"))


def test_source_count_mismatch_rejected():
    entries = tiny_entries()
    three = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                    kernel_len=4, num_speakers=3,
                                    chunk_len=6), seed=0)
    with pytest.raises(InputError, match="sources"):
        trainer.train(three, None, entries, small_cfg())


def test_idloss_requires_embedder():
    with pytest.raises(ConfigurationError, match="embedder"):
        trainer.train(init_params(SMALL, seed=0), None, tiny_entries(),
                      small_cfg(idloss=True))


def test_log_file_and_checkpoints(tmp_path):
    entries = tiny_entries()
    model = init_params(SMALL, seed=0)
    _, logs = trainer.train(model, None, entries, small_cfg(epochs=2),
                            valid_entries=entries[:2], out_dir=str(tmp_path))
    lines = (tmp_path / "train.log").read_text().strip().split("\n")
    assert len(lines) == 2
    fields = lines[0].split("|")
    assert len(fields) == 4 and fields[0] == "1"
    assert os.path.exists(tmp_path / "last.ckpt")
    assert os.path.exists(tmp_path / "best.ckpt")
    # best checkpoint corresponds to the epoch with the highest validation
    best = max(logs, key=lambda l: l.val_si_snri)
    _, _, step, _ = ckpt.load_separator(str(tmp_path / "best.ckpt"))
    assert step == best.epoch * 2  # 4 entries / batch 2 = 2 steps per epoch


def test_validate_is_pure():
    entries = tiny_entries()
    model = init_params(SMALL, seed=0)
    before = [t.data.copy() for _, t in model.named_parameters()]
    v1 = trainer.validate(model, entries)
    v2 = trainer.validate(model, entries)
    assert v1 == v2
    for (_, t), b in zip(model.named_parameters(), before):
        np.testing.assert_array_equal(t.data, b)


def test_crop_starts_on_encoder_stride():
    entry = dataio.ManifestEntry(mixture=np.arange(4000.0),
                                 sources=[np.arange(4000.0)] * 2,
                                 speaker_ids=["a", "b"], gains=[1.0, 1.0])
    rng = np.random.default_rng(0)
    offsets = {int(trainer._crop(entry, 1000, 8, rng)[0][0])
               for _ in range(200)}
    assert all(off % 8 == 0 for off in offsets) and len(offsets) > 100


def test_train_crops_with_model_stride_and_rate(monkeypatch):
    """kernel_len=16 means stride 8; a 4 kHz model reads 0.25 s as 1000
    samples, not the 2000 of the corpus rate."""
    cfg = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=16,
                      num_speakers=2, chunk_len=6, sample_rate=4000)
    calls = []
    crop = trainer._crop

    def spy(entry, seg_len, stride, rng):
        calls.append((seg_len, stride))
        return crop(entry, seg_len, stride, rng)
    monkeypatch.setattr(trainer, "_crop", spy)
    trainer.train(init_params(cfg, seed=0), None, tiny_entries(n=2),
                  small_cfg(epochs=1))
    assert calls == [(1000, 8)] * 2


def test_multiloss_off_changes_objective():
    # needs more than one output group, i.e. num_blocks > 2
    deep = ModelConfig(n_filters=8, hidden=8, num_blocks=4, kernel_len=4,
                       num_speakers=2, chunk_len=6)
    entries = tiny_entries(n=2)
    m1 = init_params(deep, seed=1)
    _, logs_on = trainer.train(m1, None, entries, small_cfg(epochs=1))
    m2 = init_params(deep, seed=1)
    _, logs_off = trainer.train(m2, None, entries,
                                small_cfg(epochs=1, multiloss=False))
    assert logs_on[0].train_loss != logs_off[0].train_loss
