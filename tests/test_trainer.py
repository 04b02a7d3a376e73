"""Training loop: schedule, determinism, resume, ablations, validation."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from voicesep import autodiff as ad
from voicesep import checkpoint as ckpt
from voicesep import data as dataio
from voicesep import evalkit, trainer
from voicesep.embedder import CLIP_LEN, EmbedderConfig, init_embedder
from voicesep.errors import (ConfigurationError, DataError, InputError,
                             NumericError)
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


@pytest.mark.parametrize("field,value", [
    ("epochs", -1), ("batch_size", 0), ("lr", float("nan")),
    ("lr", float("inf")), ("segment_s", float("nan")),
    ("segment_s", float("inf")), ("segment_s", -0.5), ("lr", "0.001"),
    ("epochs", True), ("batch_size", 1.5), ("segment_s", None),
    # beyond float range: refused, not an OverflowError
    *(pytest.param(field, 10 ** 400, id=f"{field}-10**400")
      for field in ("epochs", "lr", "batch_size", "segment_s"))])
def test_config_requires_finite_positive_values(field, value):
    cfg = trainer.TrainConfig(epochs=1)
    setattr(cfg, field, value)
    with pytest.raises(ConfigurationError, match=field):
        cfg.validate()


@pytest.mark.parametrize("value", [-1, 1.5, True, None, "0"])
def test_config_requires_a_seed_numpy_takes(value):
    with pytest.raises(ConfigurationError, match="seed"):
        trainer.TrainConfig(epochs=1, seed=value).validate()


def test_non_finite_model_outputs_raise_numeric_error():
    """A model whose outputs are NaN fails with NumericError when the
    channel assignment is scored, not with an untyped ValueError."""
    model = init_params(SMALL, seed=0)
    model.params["decoder.b"].data[:] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        trainer.train(model, None, tiny_entries(n=1), small_cfg(epochs=1))


@pytest.mark.parametrize("id_weight", [trainer.ID_WEIGHT, 1e3])
def test_crop_objective_gradient_matches_central_differences(monkeypatch,
                                                              id_weight):
    """The loss train() builds for one crop (forward, multi-scale uPIT,
    identity loss at the last group's permutation weighted by ID_WEIGHT)
    in float64: for each parameter tensor, the central difference along
    one random unit direction matches <gradient, direction>.

    At the paper's weight the identity term is about 1e-7 of the loss
    and far below what a difference quotient resolves, so a weight of
    1e3 checks its gradient path as well. At eps = 1e-7 the worst error
    over six direction draws measured 1.8e-8 at either weight: roundoff
    of a loss near 4.7 divided by eps. At 1e-6 steps cross kinks of the
    PReLU (errors up to 5e-2), and at 1e-8 roundoff reaches 1.4e-7. A
    tenth too much gradient through the identity loss's difference gives
    errors of 2.7e-3 or more."""
    eps, tol = 1e-7, 1e-7
    monkeypatch.setattr(trainer, "ID_WEIGHT", id_weight)
    model = init_params(ModelConfig(n_filters=4, hidden=3, num_blocks=2,
                                    num_speakers=2), seed=0)
    embedder = init_embedder(EmbedderConfig(n_classes=4), seed=3)
    for p in [*model.params.values(), *embedder.params.values()]:
        p.data = p.data.astype(np.float64)
    model.set_requires_grad(True)
    embedder.set_requires_grad(False)
    entry = tiny_entries(n=1)[0]
    assert len(entry.mixture) == CLIP_LEN
    cfg = small_cfg(idloss=True)

    def objective(config=cfg):
        return trainer.crop_loss(model, embedder, entry.mixture,
                                 entry.sources, config)
    with ad.Tape() as tape:
        loss = objective()
        tape.backward(loss)
    assert loss.dtype == np.float64
    # the identity term is part of what is checked
    assert loss.item() != objective(small_cfg(idloss=False)).item()
    rng = np.random.default_rng(0)
    for name, p in model.named_parameters():
        d = rng.standard_normal(p.shape)
        d /= np.linalg.norm(d)
        analytic = float(np.sum(p.grad * d))
        orig = p.data
        p.data = orig + eps * d
        up = objective().item()
        p.data = orig - eps * d
        down = objective().item()
        p.data = orig
        assert abs((up - down) / (2 * eps) - analytic) <= tol, name


def test_paper_shaped_step_records_one_si_snr_per_scale():
    """A 1 s crop through the paper's shape (b = 6 blocks, so three
    scales, C = 2, with the identity loss) records at most 96 tape
    nodes, one si_snr of them per scale: each MulCat block's gate and
    skip are one node, the decode heads carry their channels as one
    (C, T) tensor, and uPIT scores the permutations off the tape. A
    small N and H leave the node count as at N = H = 128."""
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=6,
                                    num_speakers=2), seed=0)
    model.set_requires_grad(True)
    embedder = init_embedder(EmbedderConfig(n_classes=4), seed=3)
    embedder.set_requires_grad(False)
    entry = tiny_entries(n=1, duration=1.0)[0]
    with ad.Tape() as tape:
        trainer.crop_loss(model, embedder, entry.mixture.astype(np.float32),
                          [s.astype(np.float32) for s in entry.sources],
                          small_cfg(idloss=True))
    owners = [node.backward.__qualname__.split(".")[0]
              for node in tape._nodes]
    assert len(owners) <= 96
    assert owners.count("si_snr") == 3


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


@pytest.mark.parametrize("step,epochs,match", [
    (1, 2, "whole number of epochs"), (3, 3, "whole number of epochs"),
    (-2, 2, "whole number of epochs"), (4, 2, "no epoch"),
    (6, 2, "no epoch")])
def test_resume_that_cannot_continue_is_refused(tmp_path, step, epochs,
                                                match):
    """Four entries at batch size 2 make two steps an epoch. A step off
    that grid would train part of an epoch twice, and a checkpoint at or
    past the last epoch leaves nothing to train: both are refused before
    the model changes or anything is written."""
    resume = tmp_path / "r.ckpt"
    ckpt.save_separator(resume, init_params(SMALL, seed=1), seed=0,
                        step=step)
    model = init_params(SMALL, seed=0)
    before = [p.data.copy() for _, p in model.named_parameters()]
    out = tmp_path / "t"
    with pytest.raises(ConfigurationError, match=match):
        trainer.train(model, None, tiny_entries(), small_cfg(epochs=epochs),
                      out_dir=str(out), resume_from=str(resume))
    assert not out.exists()
    assert all(np.array_equal(p.data, b)
               for (_, p), b in zip(model.named_parameters(), before))


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


def test_train_refuses_no_entries(tmp_path):
    """An empty entry list is refused before anything is written, with or
    without a checkpoint to resume from."""
    model = init_params(SMALL, seed=0)
    resume = tmp_path / "r.ckpt"
    ckpt.save_separator(resume, model, seed=0, step=0)
    for resume_from in (None, str(resume)):
        out = tmp_path / "t"
        with pytest.raises(DataError, match="no training entries"):
            trainer.train(model, None, [], small_cfg(), out_dir=str(out),
                          resume_from=resume_from)
        assert not out.exists()


@pytest.mark.parametrize("where", ["mixture", "source"])
def test_train_refuses_non_finite_samples_before_writing(tmp_path, where):
    """An entry holding a NaN or an infinity is refused with NumericError
    naming its index, before an earlier run's log is emptied or any step
    updates the model."""
    entries = tiny_entries()
    model = init_params(SMALL, seed=0)
    trainer.train(model, None, entries, small_cfg(epochs=1),
                  out_dir=str(tmp_path))
    log = (tmp_path / "train.log").read_text()
    before = [p.data.copy() for _, p in model.named_parameters()]
    bad = dataclasses.replace(entries[1], mixture=entries[1].mixture.copy(),
                              sources=[s.copy() for s in entries[1].sources])
    if where == "mixture":
        bad.mixture[7] = np.nan
    else:
        bad.sources[1][7] = np.inf
    with pytest.raises(NumericError, match="entry 1 holds non-finite"):
        trainer.train(model, None, [entries[0], bad, *entries[2:]],
                      small_cfg(epochs=1), out_dir=str(tmp_path))
    assert (tmp_path / "train.log").read_text() == log
    assert all(np.array_equal(p.data, b)
               for (_, p), b in zip(model.named_parameters(), before))


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
    """An epoch logs evalkit.evaluate's mean SI-SNRi over the validation
    entries, a pure read: no parameter mutation."""
    entries = tiny_entries()
    model = init_params(SMALL, seed=0)
    _, logs = trainer.train(model, None, entries, small_cfg(epochs=1),
                            valid_entries=entries[:2])
    before = [t.data.copy() for _, t in model.named_parameters()]
    v1 = evalkit.evaluate(entries[:2], model).mean_si_snri
    v2 = evalkit.evaluate(entries[:2], model).mean_si_snri
    assert v1 == v2 == logs[-1].val_si_snri
    for (_, t), b in zip(model.named_parameters(), before):
        np.testing.assert_array_equal(t.data, b)


def test_crop_length_rounds_down_to_stride():
    """0.2501 s at 8 kHz is 2001 samples; the crop takes 2000, a
    multiple of the stride 2, and the epoch completes."""
    model = init_params(SMALL, seed=0)
    _, logs = trainer.train(model, None, tiny_entries(n=2),
                            small_cfg(epochs=1, segment_s=0.2501))
    assert len(logs) == 1 and np.isfinite(logs[0].train_loss)


def test_short_entry_rounds_down_to_stride():
    """A 4001-sample entry is shorter than a 4 s crop: it is used whole
    but for its last sample, so its length is a multiple of the stride 2,
    and the epoch completes."""
    longer = [dataio.ManifestEntry(
        mixture=np.concatenate([e.mixture, e.mixture[:1]]),
        sources=[np.concatenate([s, s[:1]]) for s in e.sources],
        speaker_ids=e.speaker_ids, gains=e.gains)
        for e in tiny_entries(n=2)]
    mix, srcs = trainer._crop(longer[0], 32000, 2, np.random.default_rng(0))
    assert len(mix) == 4000 and [len(s) for s in srcs] == [4000, 4000]
    model = init_params(SMALL, seed=0)
    _, logs = trainer.train(model, None, longer,
                            small_cfg(epochs=1, segment_s=4.0))
    assert len(logs) == 1 and np.isfinite(logs[0].train_loss)


def test_validate_accepts_length_off_the_stride():
    entry = tiny_entries(n=1)[0]
    odd = dataio.ManifestEntry(
        mixture=entry.mixture[:3999],
        sources=[s[:3999] for s in entry.sources],
        speaker_ids=entry.speaker_ids, gains=entry.gains)
    assert np.isfinite(evalkit.evaluate([odd], init_params(SMALL, seed=0))
                       .mean_si_snri)


def test_crop_starts_on_encoder_stride():
    entry = dataio.ManifestEntry(mixture=np.arange(4000.0),
                                 sources=[np.arange(4000.0)] * 2,
                                 speaker_ids=["a", "b"], gains=[1.0, 1.0])
    rng = np.random.default_rng(0)
    offsets = {int(trainer._crop(entry, 1000, 8, rng)[0][0])
               for _ in range(200)}
    assert all(off % 8 == 0 for off in offsets) and len(offsets) > 100


def test_train_crops_with_model_stride_and_rate(monkeypatch):
    """kernel_len=16 means stride 8; 0.25 s is 2000 samples at
    SAMPLE_RATE, a multiple of that stride."""
    cfg = ModelConfig(n_filters=8, hidden=8, num_blocks=2, kernel_len=16,
                      num_speakers=2, chunk_len=6)
    calls = []
    crop = trainer._crop

    def spy(entry, seg_len, stride, rng):
        calls.append((seg_len, stride))
        return crop(entry, seg_len, stride, rng)
    monkeypatch.setattr(trainer, "_crop", spy)
    trainer.train(init_params(cfg, seed=0), None, tiny_entries(n=2),
                  small_cfg(epochs=1))
    assert calls == [(2000, 8)] * 2


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


def test_identity_loss_tape_does_not_grow_with_the_crop(monkeypatch):
    """At the paper's structure (b = 6, L = 8, C = 2, multi-scale loss and
    identity loss on) a step records as many tape nodes at a 4 s crop as
    at a 1 s one: the identity loss embeds all its windows in one batch.
    The node count does not depend on the widths N and H."""
    from voicesep import autodiff as ad
    sizes = []
    backward = ad.Tape.backward

    def counted(tape, loss):
        sizes.append(len(tape))
        return backward(tape, loss)
    monkeypatch.setattr(ad.Tape, "backward", counted)
    paper = ModelConfig(n_filters=8, hidden=8, num_speakers=2)
    assert (paper.num_blocks, paper.kernel_len) == (6, 8)
    for seconds in (1.0, 4.0):
        emb = init_embedder(EmbedderConfig(n_classes=2), 0)
        trainer.train(init_params(paper, 0), emb,
                      tiny_entries(n=1, duration=seconds),
                      trainer.TrainConfig(epochs=1, batch_size=1,
                                          segment_s=seconds))
    assert sizes[0] == sizes[1] <= 130


# A short deterministic training and one separation in a fresh
# interpreter, then a SHA-1 of the trained parameters and the separated
# channels. At N = H = 32 on 1 s crops the input projections and the
# weight-gradient products are large enough for OpenBLAS to split them
# over threads.
TRAIN_AND_SEPARATE = """
import hashlib
import numpy as np
import voicesep as vs
rng = np.random.default_rng(0)
entries = []
for _ in range(2):
    a, b = rng.standard_normal((2, vs.SAMPLE_RATE))
    entries.append(vs.ManifestEntry(mixture=a + b, sources=[a, b],
                                    speaker_ids=["x", "y"], gains=[1.0, 1.0]))
model = vs.init_params(vs.ModelConfig(n_filters=32, hidden=32, num_blocks=2,
                                      num_speakers=2), seed=0)
vs.train(model, None, entries,
         vs.TrainConfig(epochs=1, segment_s=1.0, idloss=False))
digest = hashlib.sha1()
for _, p in model.named_parameters():
    digest.update(p.data.tobytes())
for channel in vs.separate(model, entries[0].mixture):
    digest.update(np.asarray(channel).tobytes())
print(digest.hexdigest())
"""


def test_bits_do_not_depend_on_the_blas_thread_count():
    """Training and separation give the same bytes with one BLAS thread as
    with the host's default number."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        pytest.skip("one CPU: the BLAS runs a single thread either way")
    # every thread-count variable of the common BLAS builds: OpenBLAS,
    # OpenMP, MKL, BLIS and Accelerate
    threads = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(trainer.__file__)),
        os.environ.get("PYTHONPATH")]))
    digests = [subprocess.run(
        [sys.executable, "-c", TRAIN_AND_SEPARATE], env={**env, **extra},
        capture_output=True, text=True, check=True).stdout.strip()
        for extra in (dict.fromkeys(threads, "1"), {})]
    assert len(digests[0]) == 40
    assert digests[0] == digests[1]
