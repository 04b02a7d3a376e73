"""Behaviour lock: fixed-seed outputs of the public scoring, test-time
augmentation, inference and training paths, recorded as literals.

The literals were recorded before the assignment search moved from
brute-force permutation loops to a linear-assignment solver and back to
one exhaustive search over every permutation, and before the chunk
geometry was fixed at hop K/2; the `separate` checksums before the
BiLSTM input projection was computed one block of time steps at a time;
the corpus digests before the generator's noise floor, SNR range and
split shares became constants; the gradient sums before backward dropped
each intermediate gradient once used and the BiLSTM wrote its hidden
states straight into its outputs. Matching them shows those changes left
what a caller sees unchanged.
One literal was re-recorded: the `wavedec.kernel` gradient, when the
decode head began carrying its C channels as one (C, T) tensor. Its
weight gradient became one GEMM over the C * T' latent frames instead of
a sum of C per-channel GEMMs, which moved its sum by 1.9e-6 relative;
every other gradient, and every other literal here, kept its bits.
Floats compare to a relative 1e-6 with no absolute floor, which is far
below what a different channel assignment or crop would move them by.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from voicesep import autodiff as ad
from voicesep import data as dataio
from voicesep import evalkit, losses, trainer
from voicesep.embedder import EmbedderConfig, init_embedder
from voicesep.model import ModelConfig, forward, init_params, separate

REL = 1e-6


def small_model(c, seed=0):
    return init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                   kernel_len=4, num_speakers=c,
                                   chunk_len=6), seed=seed)


def entries(counts, seed=0, duration=0.5):
    """One toy mixture per entry of `counts` (its speaker count)."""
    spks = dataio.make_speakers(6, seed=seed)
    out = []
    for i, c in enumerate(counts):
        picked = [spks[(i + j) % len(spks)] for j in range(c)]
        srcs = [dataio.synth_utterance(s, duration, seed=[seed, i, j])
                for j, s in enumerate(picked)]
        mix = dataio.make_mixture(srcs, [s.id for s in picked],
                                  seed=[seed, i, 99])
        out.append(dataio.ManifestEntry(
            mixture=mix.x, sources=mix.scaled_sources(),
            speaker_ids=mix.speaker_ids, gains=mix.gains))
    return out


def parse_report(text):
    """to_text() lines as JSON objects, table lines as plain strings."""
    rows = []
    for line in text.splitlines():
        if line.startswith("{"):
            rows.append(json.loads(line))
        elif line.startswith("# aggregate "):
            rows.append(json.loads(line[len("# aggregate "):]))
        else:
            rows.append(line)
    return rows


def assert_close(got, want):
    """Exact on structure, ints, bools and strings; relative on floats."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=REL, abs=0.0)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    else:
        assert got == want


def observe_evaluate():
    models = {2: small_model(2), 3: small_model(3)}
    # threshold -120 dB accepts every channel: the 3-channel model is
    # always chosen, so the 2-speaker entries have a superfluous channel
    report = evalkit.evaluate(entries([2, 3, 2]), None, models=models,
                              threshold=-120.0)
    return parse_report(report.to_text())


def observe_tta():
    x = entries([3])[0].mixture
    sums = {}
    for c in (2, 3):
        outs = evalkit.tta_separate(x, small_model(c), k=3, seed=7)
        sums[c] = [[float(np.sum(ch)), float(np.sum(ch * ch))]
                   for ch in outs]
    return sums


def observe_separate():
    """separate() at the default (paper) config on a 2 s mixture, whose
    sequences span several time blocks of the BiLSTM input projection."""
    x = entries([2], duration=2.0)[0].mixture
    outs = separate(init_params(ModelConfig(), seed=0), x)
    return [[float(np.sum(ch)), float(np.sum(ch * ch))] for ch in outs]


def tree_sha1(root):
    """SHA-1 over every file under `root`: relative path, then bytes."""
    h = hashlib.sha1()
    for path in sorted(pathlib.Path(root).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def observe_corpus(tmp_path):
    """Digests of a corpus at the default 50/25/25 speaker split and of
    one with explicit split sizes and 2- and 3-speaker mixtures."""
    dataio.build_corpus(tmp_path / "default", n_speakers=8,
                        utt_per_speaker=2, mixture_counts={2: 3}, seed=4)
    dataio.build_corpus(
        tmp_path / "sized", n_speakers=12, utt_per_speaker=2,
        mixture_counts={2: 2, 3: {"train": 2, "valid": 1, "test": 1}},
        seed=5, split_sizes={"train": 4, "valid": 4, "test": 4})
    return {name: tree_sha1(tmp_path / name) for name in ("default",
                                                          "sized")}


def observe_train():
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=2,
                                    kernel_len=4, num_speakers=2,
                                    chunk_len=6), seed=1)
    cfg = trainer.TrainConfig(epochs=2, seed=0, segment_s=0.25,
                              idloss=False)
    _, logs = trainer.train(model, None, entries([2, 2, 2, 2]), cfg)
    return [log.train_loss for log in logs]


def observe_gradients():
    """Per-parameter gradient [sum, sum of squares] of one training step:
    the multi-scale uPIT loss over two decode heads plus the weighted
    identity loss, on a 1 s crop (two embedder clips per channel)."""
    model = init_params(ModelConfig(n_filters=8, hidden=8, num_blocks=4,
                                    kernel_len=4, num_speakers=2,
                                    chunk_len=6), seed=2)
    model.set_requires_grad(True)
    embedder = init_embedder(EmbedderConfig(n_classes=4), seed=3)
    entry = entries([2], seed=1, duration=1.0)[0]
    targets = [np.asarray(s, dtype=np.float32) for s in entry.sources]
    with ad.Tape() as tape:
        groups = forward(model, ad.Tensor(entry.mixture.astype(np.float32)))
        loss, perms = losses.multiscale_loss(targets, groups)
        idl = losses.id_loss(targets, groups[-1], perms[-1], embedder)
        tape.backward(ad.add(loss, ad.scale(idl, trainer.ID_WEIGHT)))
    return {name: [float(np.sum(p.grad, dtype=np.float64)),
                   float(np.sum(np.square(p.grad, dtype=np.float64)))]
            for name, p in model.named_parameters()}


EXPECTED_EVALUATE = [
    {"index": 0, "perm": [1, 0], "selected_c": 3, "si_snri": -6.702886,
     "switched": True, "true_c": 2},
    {"index": 1, "perm": [0, 2, 1], "selected_c": 3, "si_snri": -8.519843,
     "switched": False, "true_c": 3},
    {"index": 2, "perm": [0, 1], "selected_c": 3, "si_snri": -9.852159,
     "switched": False, "true_c": 2},
    {"count_accuracy": 0.333333, "mean_si_snri": -8.358296,
     "switch_fraction": 0.333333},
    "# confusion (%)  selected:      2      3",
    "# true 2:             0.0  100.0",
    "# true 3:             0.0  100.0",
]

# per channel: [sum, sum of squares]
EXPECTED_TTA = {
    2: [[2.4360549608136353, 0.03427824729764416],
        [-8.995783159065923, 0.05560542155674038]],
    3: [[3.4628132764328257, 0.054264073572990346],
        [-0.500445307956852, 0.010837760072920826],
        [-4.507222998405496, 0.07886421743975212]],
}

# per channel: [sum, sum of squares]
EXPECTED_SEPARATE = [[0.02113557979464531, 2.7905944079975598e-05],
                     [-0.07636609673500061, 1.0650479453033768e-05]]

EXPECTED_TRAIN = [7.1093714237213135, 6.319709777832031]

# per parameter: [sum, sum of squares] of its gradient
EXPECTED_GRADIENTS = {
    "block1.lstm1.b":
        [-2.787749675946543, 2.667615801728564],
    "block1.lstm1.wh":
        [-0.2686241364455668, 0.01267845462186612],
    "block1.lstm1.wx":
        [-0.7900631167177607, 0.03722522117459744],
    "block1.lstm2.b":
        [-1.1413323838169163, 1.873611548606382],
    "block1.lstm2.wh":
        [0.058296053410686, 0.009928357801554762],
    "block1.lstm2.wx":
        [-0.3070645633861204, 0.027302787103333708],
    "block1.proj.b":
        [72.38482880592346, 6139.316711585516],
    "block1.proj.w":
        [6.529400190906017, 460.47069637060173],
    "block2.lstm1.b":
        [1.3325705412098614, 0.9551105981301207],
    "block2.lstm1.wh":
        [0.012423880101960272, 1.3956896986771982e-05],
    "block2.lstm1.wx":
        [-0.05015314027602358, 0.0012803432704790972],
    "block2.lstm2.b":
        [-0.6018221657186587, 0.4000728980155087],
    "block2.lstm2.wh":
        [0.006140464476281249, 2.425740703132715e-05],
    "block2.lstm2.wx":
        [0.014055536406427649, 0.0008126977769955621],
    "block2.proj.b":
        [167.5567226409912, 47859.14777075661],
    "block2.proj.w":
        [-4.21116363647252, 805.744932508347],
    "block3.lstm1.b":
        [0.056133489092303535, 0.11624424632565358],
    "block3.lstm1.wh":
        [0.00021165469671686685, 4.7510951583120223e-07],
    "block3.lstm1.wx":
        [4.6793042376147564e-05, 7.435616106347842e-06],
    "block3.lstm2.b":
        [-0.029308159201036688, 0.085008798568077],
    "block3.lstm2.wh":
        [-0.0004968289055921615, 4.577429689919028e-07],
    "block3.lstm2.wx":
        [0.000688416807122616, 7.935493227341932e-06],
    "block3.proj.b":
        [238.68936347961426, 138238.7283478668],
    "block3.proj.w":
        [5.026182201755205, 111.78551042135152],
    "block4.lstm1.b":
        [0.26468140597829404, 0.21612075281699522],
    "block4.lstm1.wh":
        [-0.0005073072091960375, 1.0996095085343995e-07],
    "block4.lstm1.wx":
        [0.0012361574115429125, 2.8248517274149815e-06],
    "block4.lstm2.b":
        [0.08430524265989447, 0.028194049706913877],
    "block4.lstm2.wh":
        [-1.743445300030587e-05, 1.9334699666420182e-08],
    "block4.lstm2.wx":
        [0.0011256306777664565, 7.875522787804519e-07],
    "block4.proj.b":
        [-327.95672845840454, 1101528.73554804],
    "block4.proj.w":
        [-13.141463187707188, 115.51852897458625],
    "decoder.b":
        [10.989521980285645, 85309.83284255804],
    "decoder.w":
        [6.859604831784964, 110.94545161367031],
    "encoder.kernel":
        [4.450848869979382, 160.60547734445709],
    "prelu.slope":
        [2.701090097427368, 7.295887714420189],
    "wavedec.kernel":
        [4.553608775138855, 61.13334381652386],
}

EXPECTED_CORPUS = {"default": "c78e6069e626a7d742ad29eb017e239747f2a8c4",
                   "sized": "ada8c9afe4ed154f278725c5b2c295c85ce6ca3c"}


def test_evaluate_report_unchanged():
    assert_close(observe_evaluate(), EXPECTED_EVALUATE)


def test_tta_outputs_unchanged():
    assert_close(observe_tta(), EXPECTED_TTA)


def test_train_losses_unchanged():
    assert_close(observe_train(), EXPECTED_TRAIN)


def test_training_step_gradients_unchanged():
    assert_close(observe_gradients(), EXPECTED_GRADIENTS)


def test_separate_outputs_unchanged():
    assert_close(observe_separate(), EXPECTED_SEPARATE)


def test_corpus_bytes_unchanged(tmp_path):
    assert observe_corpus(tmp_path) == EXPECTED_CORPUS
