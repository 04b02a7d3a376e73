"""Speaker classifier: features, embeddings, training on toy speakers."""

import numpy as np
import pytest

from voicesep import data as dataio
from voicesep.embedder import (CLIP_LEN, EMBED_DIM, EmbedderConfig,
                               embedder_corpus, init_embedder,
                               train_embedder)
from voicesep.errors import DataError, InputError

import voicesep.autodiff as ad


def embed(model, clips):
    """(B, EMBED_DIM) embeddings of (B, CLIP_LEN) clips as a plain array,
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
    model = init_embedder(EmbedderConfig(n_classes=3), seed=0)
    clips = np.random.default_rng(0).standard_normal((2, CLIP_LEN))
    feats = model.features(ad.Tensor(clips.astype(np.float32)))
    # 20 ms window / 10 ms hop at 8 kHz: 81 bins, 51 frames for 500 ms
    assert feats.data.shape == (2, 1, 51, 81)


def test_embedding_shape_and_determinism():
    """A batch embeds to one row per clip, each row what the clip gets
    alone (up to float32 rounding), and the same on every call."""
    model = init_embedder(EmbedderConfig(n_classes=3), seed=0)
    clips = np.random.default_rng(1).standard_normal(
        (3, CLIP_LEN)).astype(np.float32) * 0.3
    e1, e2 = embed(model, clips), embed(model, clips)
    assert e1.shape == (3, EMBED_DIM)
    np.testing.assert_array_equal(e1, e2)
    for row, clip in zip(e1, clips):
        np.testing.assert_allclose(embed(model, clip[None])[0], row,
                                   rtol=1e-5, atol=1e-7)


def test_embed_rejects_wrong_length():
    model = init_embedder(EmbedderConfig(n_classes=3), seed=0)
    with pytest.raises(InputError):
        embed(model, np.zeros((1, CLIP_LEN - 1), dtype=np.float32))
    with pytest.raises(InputError):
        embed(model, np.zeros(CLIP_LEN, dtype=np.float32))


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


def test_embedder_corpus_clips(tmp_path):
    """Every utterance of the split's pool is cut into 500 ms clips."""
    dataio.build_corpus(tmp_path, n_speakers=8, utt_per_speaker=2,
                        mixture_counts={2: 1}, seed=17)
    pairs = embedder_corpus(tmp_path, "train")
    assert all(len(clip) == CLIP_LEN == 4000 for clip, _ in pairs)
    assert len({spk for _, spk in pairs}) >= 2


def test_embedder_corpus_rejects_other_sample_rate(tmp_path):
    """A 1 s utterance at 16 kHz is refused by name, not cut into four
    250 ms clips."""
    (tmp_path / "train").mkdir()
    dataio.wav_write(tmp_path / "train" / "spk00_u000.wav",
                     np.zeros(dataio.SAMPLE_RATE), dataio.SAMPLE_RATE)
    dataio.wav_write(tmp_path / "train" / "spk01_u000.wav",
                     np.zeros(16000), 16000)
    with pytest.raises(DataError, match="spk01_u000.wav"):
        embedder_corpus(tmp_path, "train")
