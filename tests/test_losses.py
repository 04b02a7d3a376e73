"""SI-SNR hand values, invariances, assignment cross-checks against a
brute-force search, loss wiring."""

import numpy as np
import pytest
from itertools import permutations

import voicesep.autodiff as ad
from voicesep import losses
from voicesep.embedder import CLIP_LEN, EmbedderConfig, init_embedder
from voicesep.errors import (DegenerateTargetError, DimensionError, InputError,
                             NumericError, UsageError)


def test_si_snr_hand_value():
    # zero-mean version of the classic ([1,0], [1,1]) pair: the estimate's
    # projection onto the target leaves an error of equal energy -> 0 dB
    s2 = np.array([1.0, 0.0, -1.0, 0.0])
    e2 = np.array([1.0, 1.0, -1.0, -1.0])
    assert losses.si_snr(s2, e2).item() == pytest.approx(0.0, abs=1e-9)


def test_si_snr_orthogonal_minus_20db():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(1024)
    s -= s.mean()
    noise = rng.standard_normal(1024)
    noise -= noise.mean()
    noise -= (noise @ s) / (s @ s) * s  # exactly orthogonal
    noise *= np.linalg.norm(s) * 10 / np.linalg.norm(noise)
    est = s + noise  # error energy = 100x target energy
    assert losses.si_snr(s, est).item() == pytest.approx(-20.0, abs=1e-6)


def test_si_snr_scale_invariance():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(500)
    est = s + 0.1 * rng.standard_normal(500)
    base = losses.si_snr(s, est).item()
    for a in (1e-3, 0.5, 2.0, 1e3):
        assert abs(losses.si_snr(s, a * est).item() - base) <= 1e-6


def test_si_snr_mean_subtraction():
    rng = np.random.default_rng(2)
    s = rng.standard_normal(300)
    est = s + 0.2 * rng.standard_normal(300)
    with_dc = losses.si_snr(s + 5.0, est - 3.0).item()
    without = losses.si_snr(s, est).item()
    assert with_dc == pytest.approx(without, abs=1e-8)


def test_si_snr_perfect_estimate_is_floor_capped():
    s = np.sin(np.arange(100) * 0.1)
    v = losses.si_snr(s, s.copy()).item()
    assert np.isfinite(v) and v > 50


def test_si_snr_errors():
    with pytest.raises(DegenerateTargetError):
        losses.si_snr(np.zeros(10), np.ones(10))
    with pytest.raises(DimensionError):
        losses.si_snr(np.ones(10), np.ones(11))
    target = ad.Tensor(np.arange(10.0), requires_grad=True)
    with pytest.raises(UsageError):  # it would silently get no gradient
        losses.si_snr(target, np.ones(10))


def test_pairwise_matrix_matches_direct_calls():
    rng = np.random.default_rng(3)
    s = [rng.standard_normal(200) for _ in range(3)]
    est = [rng.standard_normal(200) for _ in range(3)]
    mat = losses.pairwise_matrix(s, est)
    for i in range(3):
        for j in range(3):
            assert mat[i, j] == losses.si_snr(s[i], est[j]).item()


def test_pairwise_matrix_rectangular():
    rng = np.random.default_rng(13)
    s = [rng.standard_normal(200) for _ in range(2)]
    est = [rng.standard_normal(200) for _ in range(3)]
    assert losses.pairwise_matrix(s, est).shape == (2, 3)
    with pytest.raises(InputError):
        losses.pairwise_matrix(est, s)


def test_pairwise_matrix_identity_diagonal_dominates():
    rng = np.random.default_rng(4)
    s = [rng.standard_normal(100) for _ in range(3)]
    mat = losses.pairwise_matrix(s, s)
    for i in range(3):
        assert mat[i, i] == max(mat[i])


def test_upit_picks_swap():
    rng = np.random.default_rng(5)
    s = [rng.standard_normal(150) for _ in range(2)]
    _, perm = losses.upit(s, np.stack([s[1], s[0]]))
    assert perm == (1, 0)


def test_upit_invariant_to_estimate_shuffle():
    rng = np.random.default_rng(6)
    s = [rng.standard_normal(120) for _ in range(3)]
    est = np.stack([si + 0.3 * rng.standard_normal(120) for si in s])
    base = losses.upit(s, est)[0].item()
    for perm in permutations(range(3)):
        val = losses.upit(s, est[list(perm)])[0].item()
        assert abs(val - base) <= 1e-9


def test_upit_matches_brute_force():
    """upit's loss is minus the optimal mean of the pairwise SI-SNR
    matrix, as brute_force finds it on 20 random 4-channel sets."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = [rng.standard_normal(100) for _ in range(4)]
        est = rng.standard_normal((4, 100))
        best, best_val = brute_force(losses.pairwise_matrix(s, est))
        loss, perm = losses.upit(s, est)
        assert perm == best
        assert loss.item() == pytest.approx(-best_val / 4, abs=1e-9)


def test_upit_recovers_planted_shuffle_at_c9():
    rng = np.random.default_rng(14)
    s = [rng.standard_normal(200) for _ in range(9)]
    shuffle = tuple(int(j) for j in rng.permutation(9))
    est = np.empty((9, 200))
    for i, j in enumerate(shuffle):
        est[j] = s[i] + 0.1 * rng.standard_normal(200)
    loss, perm = losses.upit(s, est)
    assert perm == shuffle
    assert loss.item() < -10.0


def test_upit_scores_a_planted_permutation_at_c3():
    """Estimates planted in a non-identity order: upit returns that
    order, its loss is minus the mean of the matched cells of the
    pairwise matrix, and the tape holds one si_snr over the rows, its
    mean and the sign flip, nothing for the other cells."""
    rng = np.random.default_rng(15)
    s = [rng.standard_normal(300).astype(np.float32) for _ in range(3)]
    planted = (2, 0, 1)
    est = np.empty((3, 300), np.float32)
    for i, j in enumerate(planted):
        est[j] = s[i] + 0.3 * rng.standard_normal(300)
    est = ad.Tensor(est, requires_grad=True)
    with ad.Tape() as tape:
        loss, perm = losses.upit(s, est)
    assert perm == planted
    mat = losses.pairwise_matrix(s, est.data)
    cells = [mat[i, j] for i, j in enumerate(planted)]
    assert loss.item() == pytest.approx(-np.mean(cells), rel=1e-6, abs=0)
    assert [node.backward.__qualname__.split(".")[0]
            for node in tape._nodes] == ["si_snr", "mean_axes", "scale"]


def brute_force(mat):
    """Reference solver: every injection of rows into columns, visited in
    lexicographic order; the first maximum wins."""
    rows, cols = mat.shape
    best, best_val = None, -np.inf
    for perm in permutations(range(cols), rows):
        val = sum(mat[i, perm[i]] for i in range(rows))
        if val > best_val:
            best, best_val = perm, val
    return best, best_val


SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
          (1, 4), (2, 3), (3, 5), (4, 6), (5, 6)]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_best_permutation_matches_brute_force(rows, cols):
    rng = np.random.default_rng(100 + 10 * rows + cols)
    for _ in range(20):
        mat = rng.standard_normal((rows, cols)) * 10
        perm = losses.best_permutation(mat)
        assert perm == brute_force(mat)[0]
        assert all(type(j) is int for j in perm)


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_best_permutation_optimal_under_ties(rows, cols):
    """Integer scores full of ties: any optimal injection will do."""
    rng = np.random.default_rng(200 + 10 * rows + cols)
    for _ in range(20):
        mat = rng.integers(-2, 3, size=(rows, cols)).astype(float)
        perm = losses.best_permutation(mat)
        assert len(set(perm)) == rows and set(perm) <= set(range(cols))
        assert (sum(mat[i, perm[i]] for i in range(rows))
                == brute_force(mat)[1])


def test_best_permutation_needs_rows_le_cols():
    with pytest.raises(InputError):
        losses.best_permutation(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_best_permutation_refuses_non_finite_scores(bad):
    mat = np.eye(3)
    mat[1, 2] = bad
    with pytest.raises(NumericError, match="non-finite"):
        losses.best_permutation(mat)


def test_best_permutation_lexicographic_tiebreak():
    mat = np.zeros((2, 2))  # all permutations tie
    assert losses.best_permutation(mat) == (0, 1)


def test_best_permutation_refuses_ten_columns_before_searching(monkeypatch):
    """More than MAX_CHANNELS columns raise InputError before a single
    candidate is enumerated."""
    def enumerate_nothing(*args):
        raise AssertionError("enumerated candidates")
    monkeypatch.setattr(losses.itertools, "permutations", enumerate_nothing)
    assert losses.MAX_CHANNELS == 9
    with pytest.raises(InputError, match="10 columns"):
        losses.best_permutation(np.zeros((2, 10)))


def test_multiscale_loss_scales_by_group_count():
    rng = np.random.default_rng(8)
    s = [rng.standard_normal(100) for _ in range(2)]
    est = np.stack([si + 0.5 * rng.standard_normal(100) for si in s])
    one, _ = losses.multiscale_loss(s, [est])
    two, perms = losses.multiscale_loss(s, [est, est])
    # b = 2 * groups; two identical groups give the same per-group mean
    assert one.item() == pytest.approx(losses.upit(s, est)[0].item() / 2)
    assert two.item() == pytest.approx(one.item(), abs=1e-9)
    assert len(perms) == 2


def test_multiscale_loss_independent_permutations():
    rng = np.random.default_rng(9)
    s = [rng.standard_normal(100) for _ in range(2)]
    est = np.stack([si + 0.2 * rng.standard_normal(100) for si in s])
    _, perms = losses.multiscale_loss(s, [est[::-1], est])
    assert perms == [(1, 0), (0, 1)]


def test_multiscale_loss_validates_channels():
    s = [np.ones(10), np.ones(10) * 2]
    with pytest.raises(InputError):
        losses.multiscale_loss(s, [np.ones((1, 10))])
    with pytest.raises(InputError):
        losses.multiscale_loss(s, [np.ones(10)])


@pytest.fixture(scope="module")
def embedder():
    return init_embedder(EmbedderConfig(n_classes=4), seed=0)


def test_id_loss_zero_for_identical(embedder):
    rng = np.random.default_rng(10)
    s = [rng.standard_normal(4000).astype(np.float32) for _ in range(2)]
    perm = (0, 1)
    val = losses.id_loss(s, ad.Tensor(np.stack(s)), perm, embedder)
    assert val.item() == pytest.approx(0.0, abs=1e-10)


def test_id_loss_positive_and_differentiable(embedder):
    rng = np.random.default_rng(11)
    s = [rng.standard_normal(4000).astype(np.float32) * 0.3
         for _ in range(2)]
    ests = ad.Tensor(np.stack([si + 0.2 * rng.standard_normal(4000).astype(
        np.float32) for si in s]), requires_grad=True)
    perm = (0, 1)
    with ad.Tape() as tape:
        val = losses.id_loss(s, ests, perm, embedder)
        assert val.item() > 0
        tape.backward(val)
    assert ests.grad is not None and np.all(np.any(ests.grad != 0, axis=1))


def test_id_loss_short_clip_warns_and_is_zero(embedder):
    s = [np.ones(1000, dtype=np.float32) for _ in range(2)]
    perm = (0, 1)
    with pytest.warns(UserWarning):
        val = losses.id_loss(s, ad.Tensor(np.stack(s)), perm, embedder)
    assert val.item() == 0.0


def test_id_loss_respects_permutation(embedder):
    rng = np.random.default_rng(12)
    s = [rng.standard_normal(4000).astype(np.float32) for _ in range(2)]
    swapped = ad.Tensor(np.stack([s[1], s[0]]))
    perm = (1, 0)
    val = losses.id_loss(s, swapped, perm, embedder)
    assert val.item() == pytest.approx(0.0, abs=1e-10)


def test_id_loss_segments_follow_the_embedder_clip(embedder, monkeypatch):
    """Two targets of two clips and a bit are scored in two CLIP_LEN
    segments each, the remainder dropped: the embedder sees the estimate
    and the target windows as (4, CLIP_LEN) batches."""
    shapes = []
    embed = embedder.embed_tensor

    def spy(clips):
        shapes.append(clips.shape)
        return embed(clips)
    monkeypatch.setattr(embedder, "embed_tensor", spy)
    rng = np.random.default_rng(13)
    n = 2 * CLIP_LEN + 123
    s = [rng.standard_normal(n).astype(np.float32) for _ in range(2)]
    ests = ad.Tensor(np.stack([si + 0.2 * rng.standard_normal(n).astype(
        np.float32) for si in s]))
    val = losses.id_loss(s, ests, (0, 1), embedder)
    assert shapes == [(4, CLIP_LEN)] * 2
    assert np.isfinite(val.item()) and val.item() > 0


def test_id_loss_rejects_a_perm_that_is_not_a_bijection(embedder):
    s = [np.ones(4000, dtype=np.float32) for _ in range(2)]
    for perm in [(0, 0), (0,), (0, 2)]:
        with pytest.raises(InputError, match="bijection"):
            losses.id_loss(s, ad.Tensor(np.stack(s)), perm, embedder)


def per_clip_id_loss(targets, estimates, perm, embedder):
    """The identity loss one clip at a time: each matched pair of windows
    embedded on its own, the per-window MSEs summed and averaged."""
    seg = CLIP_LEN
    n_seg = len(targets[0]) // seg
    total = None
    for i, j in enumerate(perm):
        s = ad.as_tensor(targets[i])
        e = ad.reshape(ad.slice_axis(estimates, 0, j, j + 1), (-1,))
        for k in range(n_seg):
            lo, hi = k * seg, (k + 1) * seg
            g_ref = embedder.embed_tensor(
                ad.reshape(ad.slice_axis(s, 0, lo, hi), (1, seg)))
            g_est = embedder.embed_tensor(
                ad.reshape(ad.slice_axis(e, 0, lo, hi), (1, seg)))
            diff = ad.sub(g_est, g_ref.detach())
            mse = ad.mean_axes(ad.mul(diff, diff), (0, 1))
            total = mse if total is None else ad.add(total, mse)
    return ad.scale(total, 1.0 / (len(targets) * n_seg))


@pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12),
                                       (np.float32, 1e-5)])
def test_id_loss_batch_matches_per_clip_loop(dtype, rel):
    """Embedding all windows as one batch gives the per-clip loop's value
    and estimate gradients, with a remainder dropped and the channels
    swapped."""
    emb = init_embedder(EmbedderConfig(n_classes=3), seed=2)
    for p in emb.params.values():
        p.data = p.data.astype(dtype)
    emb.set_requires_grad(False)
    rng = np.random.default_rng(14)
    n = 2 * CLIP_LEN + 123
    s = [(rng.standard_normal(n) * 0.3).astype(dtype) for _ in range(2)]
    noisy = [si + (0.3 * rng.standard_normal(n)).astype(dtype) for si in s]
    values, grads = [], []
    for fn in (losses.id_loss, per_clip_id_loss):
        ests = ad.Tensor(np.stack([noisy[1], noisy[0]]), requires_grad=True)
        with ad.Tape() as tape:
            val = fn(s, ests, (1, 0), emb)
            tape.backward(val)
        assert val.dtype == dtype
        values.append(val.item())
        grads.append(ests.grad)
    assert values[0] > 0
    assert values[0] == pytest.approx(values[1], rel=rel, abs=0.0)
    for g_batch, g_loop in zip(*grads):
        scale = np.max(np.abs(g_loop))
        np.testing.assert_allclose(g_batch, g_loop, rtol=0,
                                   atol=rel * 10 * scale)
