"""Speaker classifier: features, embeddings, training on toy speakers."""

import numpy as np
import pytest

from voicesep import data as dataio
from voicesep.embedder import (EmbedderConfig, init_embedder,
                               train_embedder)
from voicesep.errors import DataError, InputError

import voicesep.autodiff as ad


def embed(model, clip):
    """Embedding of a waveform clip as a plain array, with no tape."""
    return model.embed_tensor(
        ad.Tensor(np.asarray(clip, dtype=np.float32))).data


@pytest.fixture(scope="module")
def tiny_corpus():
    speakers = dataio.make_speakers(3, seed=5)
    pairs = []
    for si, spk in enumerate(speakers):
        for u in range(22):
            pairs.append((dataio.synth_utterance(spk, 0.5, seed=[5, si, u]),
                          spk.id))
    return pairs


def test_feature_geometry():
    cfg = EmbedderConfig(n_classes=3)
    model = init_embedder(cfg, seed=0)
    clip = np.random.default_rng(0).standard_normal(cfg.clip_len)
    feats = model.features(ad.Tensor(clip.astype(np.float32)))
    # 20 ms window / 10 ms hop at 8 kHz: 81 bins, 51 frames for 500 ms
    assert feats.data.shape == (1, 51, 81)


def test_embedding_shape_and_determinism():
    cfg = EmbedderConfig(n_classes=3)
    model = init_embedder(cfg, seed=0)
    clip = np.random.default_rng(1).standard_normal(cfg.clip_len).astype(
        np.float32)
    e1, e2 = embed(model, clip), embed(model, clip)
    assert e1.shape == (cfg.embed_dim,)
    np.testing.assert_array_equal(e1, e2)


def test_embed_rejects_wrong_length():
    cfg = EmbedderConfig(n_classes=3)
    model = init_embedder(cfg, seed=0)
    with pytest.raises(InputError):
        embed(model, np.zeros(cfg.clip_len - 1, dtype=np.float32))


def test_train_embedder_learns_toy_speakers(tiny_corpus):
    model, acc = train_embedder(tiny_corpus, epochs=20, seed=3)
    assert acc >= 0.8
    # embeddings of same-speaker clips sit closer than cross-speaker ones
    by_spk = {}
    for clip, spk in tiny_corpus[:40]:
        by_spk.setdefault(spk, []).append(embed(model, clip))
    spks = sorted(by_spk)
    same = np.linalg.norm(by_spk[spks[0]][0] - by_spk[spks[0]][1])
    cross = np.linalg.norm(by_spk[spks[0]][0] - by_spk[spks[1]][0])
    assert same < cross


def test_train_embedder_is_deterministic(tiny_corpus):
    m1, a1 = train_embedder(tiny_corpus, epochs=2, seed=9)
    m2, a2 = train_embedder(tiny_corpus, epochs=2, seed=9)
    assert a1 == a2
    for (_, p1), (_, p2) in zip(m1.named_parameters(),
                                m2.named_parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


def test_train_embedder_input_validation():
    with pytest.raises(DataError):
        train_embedder([(np.zeros(4000), "a")] * 30)  # one speaker only
    with pytest.raises(DataError):
        train_embedder([(np.zeros(4000), "a"), (np.zeros(4000), "b")])
