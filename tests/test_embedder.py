"""Speaker classifier: features, embeddings, training on toy speakers."""

import numpy as np
import pytest

from voicesep import data as dataio
from voicesep.embedder import (EMBED_DIM, EmbedderConfig, init_embedder,
                               train_embedder)
from voicesep.errors import DataError, InputError

import voicesep.autodiff as ad


def embed(model, clips):
    """(B, EMBED_DIM) embeddings of (B, clip_len) clips as a plain array,
    with no tape."""
    return model.embed_tensor(
        ad.Tensor(np.asarray(clips, dtype=np.float32))).data


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
    clips = np.random.default_rng(0).standard_normal((2, cfg.clip_len))
    feats = model.features(ad.Tensor(clips.astype(np.float32)))
    # 20 ms window / 10 ms hop at 8 kHz: 81 bins, 51 frames for 500 ms
    assert feats.data.shape == (2, 1, 51, 81)


def test_embedding_shape_and_determinism():
    """A batch embeds to one row per clip, each row what the clip gets
    alone (up to float32 rounding), and the same on every call."""
    cfg = EmbedderConfig(n_classes=3)
    model = init_embedder(cfg, seed=0)
    clips = np.random.default_rng(1).standard_normal(
        (3, cfg.clip_len)).astype(np.float32) * 0.3
    e1, e2 = embed(model, clips), embed(model, clips)
    assert e1.shape == (3, EMBED_DIM)
    np.testing.assert_array_equal(e1, e2)
    for row, clip in zip(e1, clips):
        np.testing.assert_allclose(embed(model, clip[None])[0], row,
                                   rtol=1e-5, atol=1e-7)


def test_embed_rejects_wrong_length():
    cfg = EmbedderConfig(n_classes=3)
    model = init_embedder(cfg, seed=0)
    with pytest.raises(InputError):
        embed(model, np.zeros((1, cfg.clip_len - 1), dtype=np.float32))
    with pytest.raises(InputError):
        embed(model, np.zeros(cfg.clip_len, dtype=np.float32))


def test_train_embedder_learns_toy_speakers(tiny_corpus):
    model, acc = train_embedder(tiny_corpus, epochs=20, seed=3)
    assert acc >= 0.8
    # embeddings of same-speaker clips sit closer than cross-speaker ones
    clips, spk_ids = zip(*tiny_corpus[:40])
    by_spk = {}
    for emb, spk in zip(embed(model, np.stack(clips)), spk_ids):
        by_spk.setdefault(spk, []).append(emb)
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
