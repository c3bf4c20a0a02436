import dataclasses
import hashlib
import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ltcmh import experiment, gradcheck, hash_learn, meta_embed, retrieval
from ltcmh.cli import main
from ltcmh.dataset import (LongTailSpec, MultiModalDataset, build_affinity,
                           label_masks, synthesize_long_tailed)
from ltcmh.errors import (ConfigError, EvaluationError, FormatError,
                          ShapeError, TrainingError)
from ltcmh.hash_learn import (HashModel, TrainConfig, balance_loss,
                              encode_features, grad_Vx, grad_Vy, load_model,
                              nll_loss, objective, pairwise_phi,
                              quantization_loss, save_model, total_loss, train,
                              update_B)
from ltcmh.meta_embed import PrototypeBank, compute_prototypes
from ltcmh.tensor import FeedForwardNet, softplus, write_array, write_header


def _separable_dataset():
    spec = LongTailSpec(groups=[(1, 20), (1, 6)], d_x=6, d_y=5,
                        mixed_fraction=0.0, latent_dim=3, noise_std=0.3)
    return synthesize_long_tailed(spec, seed=0)


def _fast_config(**kw):
    defaults = dict(code_length=8, epochs=10, hidden_dim=16, batch_columns=16,
                    head_threshold=10, warmup_epochs=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


# --- pairwise_phi -----------------------------------------------------------------

def test_phi_all_ones_c8():
    ones = np.ones((8, 1))
    assert pairwise_phi(ones, ones)[0, 0] == 4.0


def test_phi_orthogonal_columns():
    Vx = np.array([[1.0], [0.0]])
    Vy = np.array([[0.0], [1.0]])
    assert pairwise_phi(Vx, Vy)[0, 0] == 0.0


def test_phi_matches_triple_loop(rng):
    Vx, Vy = rng.normal(size=(3, 4)), rng.normal(size=(3, 5))
    phi = pairwise_phi(Vx, Vy)
    for i in range(4):
        for j in range(5):
            assert phi[i, j] == pytest.approx(
                0.5 * sum(Vx[k, i] * Vy[k, j] for k in range(3)))


def test_phi_shape_mismatch():
    with pytest.raises(ShapeError):
        pairwise_phi(np.zeros((3, 2)), np.zeros((4, 2)))


# --- loss terms -------------------------------------------------------------------

def test_nll_shape_mismatch():
    with pytest.raises(ShapeError, match=r"phi shape \(2, 3\) != affinity "
                                         r"shape \(3, 2\)"):
        nll_loss(np.zeros((2, 3)), np.zeros((3, 2), np.uint8))


def test_nll_zero_phi_is_log2_per_pair():
    phi = np.zeros((3, 3))
    A = np.eye(3)
    assert nll_loss(phi, A) == pytest.approx(9 * np.log(2))


def test_nll_saturated_match_near_zero():
    assert abs(nll_loss(np.array([[40.0]]), np.array([[1.0]]))) < 1e-15


def test_nll_matches_naive_formula(rng):
    phi = rng.normal(size=(5, 5)) * 2
    A = rng.integers(0, 2, size=(5, 5)).astype(float)
    naive = -(A * phi - np.log1p(np.exp(phi))).sum()
    assert nll_loss(phi, A) == pytest.approx(naive)


def test_nll_bit_equal_to_reference_formula(rng):
    phi = rng.normal(size=(40, 30)) * 8
    phi[0, :4] = [0.0, -0.0, 745.0, -745.0]
    A = rng.integers(0, 2, size=(40, 30)).astype(float)
    assert nll_loss(phi, A) == float(-(A * phi - softplus(phi)).sum())


def test_nll_stable_at_extreme_phi():
    phi = np.array([[1e4, -1e4]])
    A = np.array([[0.0, 1.0]])
    val = nll_loss(phi, A)
    assert np.isfinite(val)
    # a=0 with huge positive phi costs ~phi; a=1 with huge negative phi too
    assert val == pytest.approx(2e4)


def test_quantization_examples(rng):
    B = np.ones((2, 3))
    assert quantization_loss(B, B, B) == 0.0
    assert quantization_loss(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3))) == 12.0
    Vx, Vy = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    loop = sum((B[i, j] - Vx[i, j]) ** 2 + (B[i, j] - Vy[i, j]) ** 2
               for i in range(2) for j in range(3))
    assert quantization_loss(B, Vx, Vy) == pytest.approx(loop)


def test_balance_examples(rng):
    zero_sum = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert balance_loss(zero_sum, zero_sum) == 0.0
    V = np.array([[3.0], [4.0]])
    assert balance_loss(V, V) == pytest.approx(2 * 25.0)
    Vx, Vy = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    loop = (sum(Vx[i].sum() ** 2 for i in range(3))
            + sum(Vy[i].sum() ** 2 for i in range(3)))
    assert balance_loss(Vx, Vy) == pytest.approx(loop)


def test_loss_breakdown_total_grouping():
    assert total_loss(nll=1.0, quantization=2.0, balance=3.0, alpha=0.5,
                      beta=0.25) == pytest.approx(1.0 + 0.5 * 2.0 + 0.25 * 3.0)


# --- gradients --------------------------------------------------------------------

def test_grad_saturated_all_ones_near_zero():
    Vx = np.full((4, 2), 10.0)
    Vy = np.full((4, 2), 10.0)
    A = np.ones((2, 2))
    g = grad_Vx(Vx, Vy, A, np.sign(Vx), alpha=0.0, beta=0.0)
    assert np.max(np.abs(g)) < 1e-10


def test_grad_zero_at_fixed_point_with_empty_pairs():
    B = np.where(np.arange(12).reshape(4, 3) % 2 == 0, 1.0, -1.0)
    Vy = np.zeros((4, 0))
    A = np.zeros((3, 0))
    g = grad_Vx(B, Vy, A, B, alpha=1.0, beta=0.0)
    assert np.all(g == 0.0)


def test_grad_matches_finite_differences():
    assert gradcheck.check_objective_grad(instances=50, seed=0) < 1e-4


def test_gradcheck_negative_control(monkeypatch):
    # a broken gradient in the function that trains must fail the check
    grad = hash_learn.grad_Vx
    monkeypatch.setattr(hash_learn, "grad_Vx", lambda *a: grad(*a) + 0.05)
    assert gradcheck.check_objective_grad(instances=3, seed=0) > 1e-3


@pytest.mark.parametrize("use_memory", [False, True])
def test_batch_grads_returns_the_cache_its_backward_used(monkeypatch,
                                                         use_memory):
    # gradcheck's train_step freezes the eta of this cache, so it must be
    # the very one the step backpropagated through
    seen = []
    backward = meta_embed.embed_backward
    monkeypatch.setattr(meta_embed, "embed_backward",
                        lambda e, cache, g: seen.append(cache)
                        or backward(e, cache, g))
    rng = np.random.default_rng(0)
    c, n = 3, 6
    config = TrainConfig(code_length=c, hidden_dim=4)
    labels = np.eye(4, dtype=np.uint8)[np.r_[0:4, 0, 1]]
    embedder = hash_learn._build_embedder(5, 4, config, rng)
    embedder.use_memory = use_memory
    feats = rng.normal(size=(n, 5))
    bank = compute_prototypes(embedder.basic_net.forward(feats)[0], labels,
                              np.array([True, True, False, False]))
    Vx, Vy = rng.normal(size=(c, n)), rng.normal(size=(c, n))
    masks = label_masks(labels)
    A = build_affinity(masks, masks)
    pairs, cache = hash_learn._batch_grads(
        embedder, bank, feats, np.array([4, 1, 2]), Vx, grad_Vx, Vx, Vy, A,
        update_B(Vx, Vy), config, "test")
    assert len(seen) == 1 and cache is seen[0]
    assert (cache.eta is not None) == use_memory
    assert [net for net, _ in pairs] == [embedder.basic_net] + (
        [embedder.weight_net] if use_memory else [])


def test_rel_err_floor_follows_central_difference_rounding():
    # a loss near 20 differenced at eps 1e-6 rounds by ~4.4e-9, so a correct
    # entry of 2.3e-7 can come back 7e-10 off; under the fixed 1e-8 floor
    # that read 1.5e-3, above the CLI's 1e-3 threshold
    rounding = np.finfo(np.float64).eps * 20.0 / 1e-6
    analytic, numeric = np.array([0.8, 2.3e-7]), np.array([0.8, 2.307e-7])
    assert gradcheck.rel_err(analytic, numeric) > 1e-3
    assert gradcheck.rel_err(analytic, numeric, rounding) < 1e-4
    # an error the size of a real fault still reads as one
    assert gradcheck.rel_err([0.8, 2.3e-7], [0.84, 2.3e-7], rounding) > 2e-2


def test_gradcheck_nan_gradient_is_infinite_error(monkeypatch):
    grad = hash_learn.grad_Vx
    monkeypatch.setattr(hash_learn, "grad_Vx",
                        lambda *a: np.full_like(grad(*a), np.nan))
    assert gradcheck.check_objective_grad(instances=3, seed=0) == np.inf


def test_grad_vy_symmetry(rng):
    # grad_Vy on (Vx, Vy, A) equals grad_Vx on the transposed problem
    Vx, Vy = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    A = rng.integers(0, 2, size=(4, 4)).astype(float)
    B = update_B(Vx, Vy)
    gy = grad_Vy(Vx, Vy, A, B, 0.7, 0.3)
    gx_t = grad_Vx(Vy, Vx, A.T, B, 0.7, 0.3)
    assert np.allclose(gy, gx_t)


def test_grad_cols_equal_full_gradient_columns(rng):
    # the column batches train asks for are columns of the full gradient
    Vx, Vy = rng.normal(size=(5, 9)), rng.normal(size=(5, 9))
    A = rng.integers(0, 2, size=(9, 9)).astype(float)
    B = update_B(Vx, Vy)
    full_x = grad_Vx(Vx, Vy, A, B, 0.7, 0.3)
    full_y = grad_Vy(Vx, Vy, A, B, 0.7, 0.3)
    for size in (1, 4, 9):
        cols = rng.permutation(9)[:size]
        assert np.allclose(grad_Vx(Vx, Vy, A, B, 0.7, 0.3, cols),
                           full_x[:, cols], rtol=1e-12, atol=1e-12)
        assert np.allclose(grad_Vy(Vx, Vy, A, B, 0.7, 0.3, cols),
                           full_y[:, cols], rtol=1e-12, atol=1e-12)


def _column_partition(rng, n, size):
    order = rng.permutation(n)
    return [order[start:start + size] for start in range(0, n, size)]


def test_grad_vy_nll_blocks_sum_to_full_nll(rng):
    Vx, Vy = rng.normal(size=(6, 30)) * 2, rng.normal(size=(6, 30)) * 2
    A = rng.integers(0, 2, size=(30, 30)).astype(float)
    assert not np.array_equal(A, A.T)
    B = update_B(Vx, Vy)
    blocks = []
    parts = _column_partition(rng, 30, 7)
    for cols in parts:
        grad_Vy(Vx, Vy, A, B, 0.7, 0.3, cols, nll=blocks)
    assert len(blocks) == len(parts)
    assert sum(blocks) == pytest.approx(nll_loss(pairwise_phi(Vx, Vy), A),
                                        rel=1e-12, abs=0)


def test_grad_vy_gradient_unchanged_by_nll(rng):
    Vx, Vy = rng.normal(size=(6, 30)), rng.normal(size=(6, 30))
    A = rng.integers(0, 2, size=(30, 30)).astype(float)
    B = update_B(Vx, Vy)
    for cols in [slice(None), *_column_partition(rng, 30, 7)]:
        assert np.array_equal(grad_Vy(Vx, Vy, A, B, 0.7, 0.3, cols, nll=[]),
                              grad_Vy(Vx, Vy, A, B, 0.7, 0.3, cols))


def test_grad_vy_transposed_symmetric_affinity_bit_identical(rng):
    # train hands grad_Vy its symmetric affinity as A.T (a row gather)
    labels = rng.integers(0, 2, size=(30, 5))
    masks = label_masks(labels)
    A = build_affinity(masks, masks).astype(np.float64)
    assert np.array_equal(A, A.T) and set(np.unique(A)) == {0.0, 1.0}
    Vx, Vy = rng.normal(size=(6, 30)), rng.normal(size=(6, 30))
    B = update_B(Vx, Vy)
    for cols in [slice(None), *_column_partition(rng, 30, 7)]:
        assert np.array_equal(grad_Vy(Vx, Vy, A, B, 0.7, 0.3, cols),
                              grad_Vy(Vx, Vy, A.T, B, 0.7, 0.3, cols))


def test_uint8_affinity_bit_identical_to_float64(rng):
    # train keeps build_affinity's uint8 array; 0/1 entries promote exactly
    labels = rng.integers(0, 2, size=(30, 5))
    masks = label_masks(labels)
    A8 = build_affinity(masks, masks)
    A64 = A8.astype(np.float64)
    assert A8.dtype == np.uint8 and np.array_equal(A8, A8.T)
    Vx, Vy = rng.normal(size=(6, 30)) * 2, rng.normal(size=(6, 30)) * 2
    B = update_B(Vx, Vy)
    phi = pairwise_phi(Vx, Vy)
    assert nll_loss(phi, A8) == nll_loss(phi, A64)
    for a8, a64 in ((A8, A64), (A8.T, A64.T)):
        for cols in [slice(None), *_column_partition(rng, 30, 7)]:
            assert nll_loss(phi[:, cols], a8[:, cols]) == \
                nll_loss(phi[:, cols], a64[:, cols])
            for grad in (grad_Vx, grad_Vy):
                assert np.array_equal(grad(Vx, Vy, a8, B, 0.7, 0.3, cols),
                                      grad(Vx, Vy, a64, B, 0.7, 0.3, cols))
            nll8, nll64 = [], []
            assert np.array_equal(
                grad_Vy(Vx, Vy, a8, B, 0.7, 0.3, cols, nll=nll8),
                grad_Vy(Vx, Vy, a64, B, 0.7, 0.3, cols, nll=nll64))
            assert nll8 == nll64


# --- B update ---------------------------------------------------------------------

def test_update_B_tie_rule():
    Vx = np.array([[1.0, -2.0]])
    assert np.all(update_B(Vx, -Vx) == 1.0)


def test_update_B_positive_sum():
    assert np.all(update_B(np.full((2, 2), 0.5), np.full((2, 2), 0.1)) == 1.0)


def test_update_B_maximizes_trace(rng):
    Vx, Vy = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    S = Vx + Vy
    best = update_B(Vx, Vy)
    best_val = float((best * S).sum())
    for bits in itertools.product([-1.0, 1.0], repeat=12):
        cand = np.array(bits).reshape(3, 4)
        assert float((cand * S).sum()) <= best_val + 1e-12


def test_update_B_monotone_step(rng):
    for _ in range(10):
        Vx, Vy = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        A = rng.integers(0, 2, size=(5, 5)).astype(float)
        B_old = np.where(rng.normal(size=(4, 5)) >= 0, 1.0, -1.0)
        B_new = update_B(Vx, Vy)
        before = objective(Vx, Vy, A, B_old, 1.0, 1.0)
        after = objective(Vx, Vy, A, B_new, 1.0, 1.0)
        assert after <= before + 1e-12


def test_update_B_shape_mismatch():
    with pytest.raises(ShapeError):
        update_B(np.zeros((2, 2)), np.zeros((2, 3)))


# --- config validation -------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(learning_rate=0.0), dict(epochs=-1), dict(code_length=0),
    dict(batch_columns=0), dict(learning_rate=-0.5), dict(code_length=-1),
    dict(warmup_epochs=-1), dict(batch_columns=-1),
    dict(hidden_dim=0),
    dict(alpha=float("nan")), dict(beta=float("inf")), dict(alpha=-1.0),
    dict(eta_max=float("nan")), dict(eta_max=-1.0),
    dict(learning_rate=float("nan")), dict(eta_mode="learned"),
    dict(head_threshold=0), dict(seed=-1),
])
def test_train_config_rejects(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw)


# --- training ----------------------------------------------------------------------

def test_train_empty_split_rejected():
    data = _separable_dataset()
    with pytest.raises(ConfigError):
        train(data, np.empty(0, np.int64), _fast_config())


def test_train_zero_epochs_initial_state():
    data = _separable_dataset()
    model, history = train(data, np.arange(data.n), _fast_config(epochs=0))
    assert history == []
    assert model.embedder_x.use_memory and model.embedder_y.use_memory
    # B and the loss weights are training-time variables: a model holds
    # only what encoding needs, and the splits it was trained with
    assert [f.name for f in dataclasses.fields(HashModel)] == [
        "embedder_x", "embedder_y", "bank_x", "bank_y", "train_indices",
        "query_indices", "retrieval_indices"]


def test_train_separable_loss_decreases():
    data = _separable_dataset()
    model, history = train(data, np.arange(data.n), _fast_config(epochs=50))
    assert len(history) == 50
    assert history[-1]["total"] < history[0]["total"]


def test_train_similar_pair_pull():
    data = _separable_dataset()
    model, _ = train(data, np.arange(data.n), _fast_config(epochs=50))
    Vx = encode_features(model, data.X, "image")
    Vy = encode_features(model, data.Y, "text")
    phi = pairwise_phi(Vx, Vy)
    masks = label_masks(data.labels)
    A = build_affinity(masks, masks).astype(bool)
    assert phi[A].mean() > phi[~A].mean()


def test_train_monotone_b_step_in_history():
    data = _separable_dataset()
    _, history = train(data, np.arange(data.n), _fast_config(epochs=6))
    for rec in history:
        assert rec["post_b_total"] <= rec["pre_b_total"] + 1e-9


def test_train_one_phi_pass_per_epoch_side(monkeypatch):
    # the history NLL comes from grad_Vy's Phi blocks, not from objective()
    objective_calls, pairs, snaps = [], [0], []
    real_objective = hash_learn.objective
    real_phi, real_grad_Vy = hash_learn.pairwise_phi, hash_learn.grad_Vy

    def phi(Vx, Vy):
        pairs[0] += Vx.shape[1] * Vy.shape[1]
        return real_phi(Vx, Vy)

    def spy(Vx, Vy, *args, nll=None):
        g = real_grad_Vy(Vx, Vy, *args, nll=nll)
        # one record per epoch (per nll list), kept from its last call
        if snaps and snaps[-1][0] is nll:
            snaps.pop()
        snaps.append((nll, Vx.copy(), Vy.copy(), pairs[0]))
        return g

    monkeypatch.setattr(hash_learn, "objective",
                        lambda *a, **k: objective_calls.append(1)
                        or real_objective(*a, **k))
    monkeypatch.setattr(hash_learn, "pairwise_phi", phi)
    monkeypatch.setattr(hash_learn, "grad_Vy", spy)
    data = _separable_dataset()
    n = data.n
    _, history = train(data, np.arange(n), _fast_config(epochs=6))
    assert objective_calls == []
    assert pairs[0] == 6 * 2 * n * n
    assert [p for *_, p in snaps] == [2 * n * n * (e + 1) for e in range(6)]
    masks = label_masks(data.labels)
    A = build_affinity(masks, masks).astype(np.float64)
    for rec, (_, Vx, Vy, _) in zip(history, snaps, strict=True):
        assert rec["nll"] == pytest.approx(nll_loss(real_phi(Vx, Vy), A),
                                           rel=1e-12, abs=0)


def test_train_affinity_stays_uint8(monkeypatch):
    # no n x n float64 copy of the 0/1 affinity is made for training
    dtypes = []
    for name in ("grad_Vx", "grad_Vy"):
        def spy(Vx, Vy, A, *args, real=getattr(hash_learn, name), **kw):
            dtypes.append(A.dtype)
            return real(Vx, Vy, A, *args, **kw)
        monkeypatch.setattr(hash_learn, name, spy)
    data = _separable_dataset()
    train(data, np.arange(data.n), _fast_config(epochs=2))
    assert dtypes and set(dtypes) == {np.dtype(np.uint8)}


def test_history_record_totals_are_total_loss():
    # two memory epochs; each record's totals are J of its own terms
    data = _separable_dataset()
    cfg = _fast_config(epochs=6)
    _, history = train(data, np.arange(data.n), cfg)
    assert len(history) == 6 and cfg.warmup_epochs < 6
    for rec in history:
        J = total_loss(rec["nll"], rec["quantization"], rec["balance"],
                       cfg.alpha, cfg.beta)
        assert rec["total"] == rec["post_b_total"] == J


def test_train_non_finite_loss_names_its_epoch(monkeypatch):
    monkeypatch.setattr(hash_learn, "balance_loss", lambda Vx, Vy: np.inf)
    data = _separable_dataset()
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0: "):
        train(data, np.arange(data.n), _fast_config(epochs=2))


def test_train_deterministic():
    data = _separable_dataset()
    cfg = _fast_config(epochs=5)
    _, h1 = train(data, np.arange(data.n), cfg)
    _, h2 = train(data, np.arange(data.n), cfg)
    assert h1 == h2


def test_train_divergence_raises():
    # gradients are clipped to norm 1, so only a step size this large
    # overflows the weights
    data = _separable_dataset()
    cfg = _fast_config(epochs=30, learning_rate=1e100, warmup_epochs=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError):
            train(data, np.arange(data.n), cfg)


def test_clip_grads_huge_finite_gradient_to_clip_norm():
    # the sum of squares overflows float64; the norm is taken over the
    # rescaled entries instead, with no RuntimeWarning (an error here)
    ((dw, db),) = hash_learn._clip_grads([(np.full((2, 2), 1e155),
                                            np.zeros(2))])
    assert np.sqrt((dw * dw).sum() + (db * db).sum()) == pytest.approx(
        hash_learn.CLIP_NORM, rel=1e-12)
    # an infinite entry makes the norm NaN: the list passes unscaled, and
    # sgd_step's finiteness check then stops the run
    grads = [(np.full((2, 2), np.inf), np.zeros(2))]
    assert hash_learn._clip_grads(grads) is grads


def test_train_huge_finite_gradient_still_steps():
    # at alpha = 1e200 each step's sum of squares overflows; the step is
    # clipped to CLIP_NORM and still moves both basic nets
    sets = ["groups=2x30,3x6,3x3", "head_threshold=10", "warmup_epochs=0",
            "alpha=1e200"]
    nets = {}
    for epochs in (0, 1):
        cfg = experiment.load_config(overrides=[*sets, f"epochs={epochs}"])
        data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
        _, model, _ = experiment.run_train(data, cfg)
        nets[epochs] = [model.embedder_x.basic_net, model.embedder_y.basic_net]
    for before, after in zip(nets[0], nets[1]):
        for w0, w1 in zip(before.weights, after.weights):
            assert np.isfinite(w1).all() and not np.array_equal(w0, w1)


def test_train_non_finite_gradient_names_its_batch(monkeypatch):
    # the guard on the objective gradient, before any backward pass
    grad_Vy = hash_learn.grad_Vy
    monkeypatch.setattr(hash_learn, "grad_Vy",
                        lambda *a, **k: grad_Vy(*a, **k) * np.nan)
    data = _separable_dataset()
    with pytest.raises(TrainingError, match=re.escape(
            "non-finite gradient at epoch 0, side y, batch starting 0")):
        train(data, np.arange(data.n), _fast_config(epochs=2))


def test_train_no_memory_ablation():
    data = _separable_dataset()
    model, history = train(data, np.arange(data.n),
                           _fast_config(epochs=3, no_memory=True))
    assert not model.embedder_x.use_memory
    assert len(history) == 3


def test_train_default_schedule_fits_memory_on_final_direct_features():
    assert TrainConfig().warmup_epochs >= TrainConfig().epochs
    data = _separable_dataset()
    idx = np.arange(data.n)
    model, history = train(data, idx, _fast_config(epochs=6, warmup_epochs=6))
    ablation, ablation_history = train(data, idx, _fast_config(
        epochs=6, warmup_epochs=6, no_memory=True))
    assert history == ablation_history
    for side, feats in (("x", data.X), ("y", data.Y)):
        emb = getattr(model, f"embedder_{side}")
        abl = getattr(ablation, f"embedder_{side}")
        assert emb.use_memory and not abl.use_memory
        for p1, p2 in zip(emb.basic_net.weights + emb.basic_net.biases,
                          abl.basic_net.weights + abl.basic_net.biases):
            assert np.array_equal(p1, p2)
        direct, _ = emb.basic_net.forward(feats)
        expected = compute_prototypes(direct, data.labels, model.partition)
        bank = getattr(model, f"bank_{side}")
        assert np.array_equal(bank.centroids, expected.centroids)
        assert np.array_equal(bank.counts, expected.counts)


@pytest.mark.parametrize("threshold", [1000, 1])
def test_train_head_tail_checked_before_first_epoch(monkeypatch, threshold):
    # 1000 leaves no head class and 1 no non-empty tail class; eta needs
    # both, and the run must fail before any epoch trains
    calls = []
    grad = hash_learn.grad_Vx
    monkeypatch.setattr(hash_learn, "grad_Vx",
                        lambda *a: calls.append(1) or grad(*a))
    data = _separable_dataset()
    for warmup in (0, 400):
        with pytest.raises(ConfigError, match=f"head_threshold={threshold}"):
            train(data, np.arange(data.n), _fast_config(
                epochs=400, warmup_epochs=warmup, head_threshold=threshold))
    assert calls == []
    # the no_memory ablation reads no eta, so any partition trains
    train(data, np.arange(data.n), _fast_config(
        epochs=1, head_threshold=threshold, no_memory=True))
    assert calls


def test_encode_features_unknown_modality():
    data = _separable_dataset()
    model, _ = train(data, np.arange(data.n), _fast_config(epochs=1))
    with pytest.raises(ConfigError):
        encode_features(model, data.X, "audio")


@pytest.fixture(scope="module")
def default_shape_model():
    """A model of the default shape with the memory on (epochs=0: the banks
    are fitted on the initial direct features)."""
    cfg = experiment.load_config(overrides=["epochs=0"])
    data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
    _, model, _ = experiment.run_train(data, cfg)
    return model


@pytest.mark.parametrize("modality,dim", [("image", LongTailSpec.d_x),
                                          ("text", LongTailSpec.d_y)])
def test_encode_features_memory_bound(default_shape_model, modality, dim):
    # encoding peaks at its c x n output plus one chunk's temporaries,
    # whatever the number of rows
    features = np.random.default_rng(0).normal(size=(30_000, dim))
    tracemalloc.start()
    try:
        V = encode_features(default_shape_model, features, modality)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V.nbytes + 8 * 2**20


def test_encode_features_empty_and_misshapen_batches(default_shape_model):
    model = default_shape_model
    d = LongTailSpec.d_x
    V = encode_features(model, np.zeros((0, d)), "image")
    assert V.shape == (model.code_length, 0)
    # the error names the whole batch's shape, not one chunk's
    for shape in [(d,), (0, d - 1), (3000, d - 1)]:
        with pytest.raises(ShapeError) as err:
            encode_features(model, np.zeros(shape), "image")
        assert str(err.value) == (f"batch shape {shape} does not match net "
                                  f"input (*, {d})")


ENCODED = [(modality, split) for modality in ("image", "text")
           for split in ("query", "retrieval")]


@pytest.fixture(scope="module")
def large_split_model(default_shape_model):
    """The default-shape model over random features, with unsorted query
    and retrieval splits of 50,280 and 100,560 rows (retrieve_large's
    retrieval size): 49 and 98 chunks, not a multiple of ENCODE_CHUNK."""
    rng = np.random.default_rng(1)
    n = 100_560
    total, L = n + 3, default_shape_model.bank_x.num_classes
    data = MultiModalDataset(
        X=rng.normal(size=(total, LongTailSpec.d_x)),
        Y=rng.normal(size=(total, LongTailSpec.d_y)),
        labels=np.eye(L, dtype=np.uint8)[rng.integers(0, L, size=total)])
    retrieval = rng.permutation(total)[:n]
    model = dataclasses.replace(default_shape_model,
                                query_indices=retrieval[:n // 2],
                                retrieval_indices=retrieval)
    return model, data


@pytest.mark.parametrize("modality,split", ENCODED)
def test_encode_split_streams_the_codes_of_encode_features(
        large_split_model, modality, split):
    model, data = large_split_model
    idx = experiment.split_indices(model, split)
    feats = data.X if modality == "image" else data.Y
    codes = experiment.encode_split(model, data, modality, split)
    ref = retrieval.binarize(encode_features(model, feats[idx], modality))
    assert codes.c == ref.c == model.code_length
    assert codes.words.dtype == ref.words.dtype
    assert np.array_equal(codes.words, ref.words)


@pytest.mark.parametrize("modality", ["image", "text"])
def test_encode_split_memory_flat_in_split_size(large_split_model, modality):
    # each chunk is gathered, embedded and packed on its own, so beside
    # the code words the peak is one chunk's whatever the split size
    model, data = large_split_model
    peaks = []
    for split in ("query", "retrieval"):
        tracemalloc.start()
        try:
            codes = experiment.encode_split(model, data, modality, split)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + codes.words.nbytes // 2 + 2**16
    assert peaks[1] <= 8 * 2**20


@pytest.mark.parametrize("modality,split", ENCODED)
def test_encode_split_non_finite_in_last_chunk(large_split_model, modality,
                                               split):
    model, data = large_split_model
    feats = data.X if modality == "image" else data.Y
    last = experiment.split_indices(model, split)[-1]
    kept = feats[last, 0]
    feats[last, 0] = np.nan
    try:
        with pytest.raises(EvaluationError, match="features must be finite"):
            experiment.encode_split(model, data, modality, split)
    finally:
        feats[last, 0] = kept


# --- persistence -------------------------------------------------------------------

def test_built_nets_bytes_pinned():
    # the init draws, their order and the layer shapes of the nets train
    # builds, image side then text side, each layer's weights then biases;
    # no BLAS call is involved, so the bytes hold at every thread count
    rng = np.random.default_rng(0)
    params = []
    for input_dim in (32, 24):
        e = hash_learn._build_embedder(input_dim, 24, TrainConfig(), rng)
        for net in (e.basic_net, e.weight_net):
            params += [a for wb in zip(net.weights, net.biases) for a in wb]
    assert [a.shape for a in params] == [
        (64, 32), (64,), (16, 64), (16,), (24, 16), (24,),
        (64, 24), (64,), (16, 64), (16,), (24, 16), (24,)]
    raw = b"".join(a.tobytes() for a in params)
    assert len(raw) == 52864
    assert hashlib.sha256(raw).hexdigest() == (
        "72e7db1f6e0867e4c939141b027977c67258de835749ee76eb8fcb16e9555d02")


def _trained_model(with_splits=False, **kw):
    """A 3-epoch model of the separable dataset; with_splits, it also has
    a query and a retrieval split."""
    data = _separable_dataset()
    model, _ = train(data, np.arange(data.n), _fast_config(epochs=3, **kw))
    if with_splits:
        model.query_indices = np.array([3, 1, 4], np.int64)
        model.retrieval_indices = np.arange(5, 12, dtype=np.int64)
    return model


def _model_arrays(model):
    """Every array of a model by name: both sides' net parameters and
    banks and the three index arrays."""
    arrays = {"train": model.train_indices,
              "query": model.query_indices,
              "retrieval": model.retrieval_indices}
    for side in ("image", "text"):
        e, bank = model.side(side)
        for name in ("centroids", "counts", "is_head"):
            arrays[f"{side} {name}"] = getattr(bank, name)
        for net in ("basic_net", "weight_net"):
            for k, (w, b) in enumerate(zip(getattr(e, net).weights,
                                           getattr(e, net).biases)):
                arrays[f"{side} {net} W{k}"] = w
                arrays[f"{side} {net} b{k}"] = b
    return arrays


def test_model_roundtrip(tmp_path):
    model = _trained_model(with_splits=True)
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    loaded = load_model(path)
    for e1, e2 in ((loaded.embedder_x, model.embedder_x),
                   (loaded.embedder_y, model.embedder_y)):
        assert (e1.eta_mode, e1.eta_max, e1.use_memory) == (
            e2.eta_mode, e2.eta_max, e2.use_memory)
    # each array, with its dtype: per side the weights and biases of three
    # layers and the bank's three arrays, then the 3 index arrays
    want, got = _model_arrays(model), _model_arrays(loaded)
    assert list(got) == list(want) and len(want) == 21
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert np.array_equal(got[name], arr), name
    # eta mode, use_memory and eta_max follow the version, once, and the
    # sizes follow them: d_x, d_y, hidden, c, L and the split sizes
    raw = path.read_bytes()
    assert struct.unpack_from("<" + hash_learn.MODEL_HEADER, raw, 8) == (
        meta_embed.ETA_MODES.index(model.embedder_x.eta_mode), 1,
        model.embedder_x.eta_max, 6, 5, 16, 8, 2, model.train_indices.size,
        model.query_indices.size, model.retrieval_indices.size)
    assert loaded.bank_x.counts is loaded.bank_y.counts
    assert loaded.bank_x.is_head is loaded.bank_y.is_head


def test_model_roundtrip_preserves_encoding(tmp_path):
    data = _separable_dataset()
    model, _ = train(data, np.arange(data.n), _fast_config(epochs=3))
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    loaded = load_model(path)
    assert np.array_equal(encode_features(model, data.X, "image"),
                          encode_features(loaded, data.X, "image"))
    assert np.array_equal(encode_features(model, data.Y, "text"),
                          encode_features(loaded, data.Y, "text"))


def test_model_save_byte_deterministic(tmp_path):
    model = _trained_model()
    p1, p2 = tmp_path / "a.lcmh", tmp_path / "b.lcmh"
    save_model(p1, model)
    save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_file_is_header_plus_layout(default_shape_model, tmp_path):
    # magic, version and MODEL_HEADER's fields take 82 bytes; _layout's
    # arrays follow with nothing between or after them
    path = tmp_path / "m.lcmh"
    save_model(path, default_shape_model)
    sizes, _ = hash_learn._sizes_and_arrays(default_shape_model)
    body = sum(math.prod(shape) * np.dtype(dtype).itemsize
               for _, dtype, shape in hash_learn._layout(*sizes))
    assert 8 + struct.calcsize("<" + hash_learn.MODEL_HEADER) == 82
    assert path.stat().st_size == 82 + body == 73_466


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.lcmh"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_model(path)


def test_model_bad_version(tmp_path):
    model = _trained_model()
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_model(path)
    # version 2 wrote the settings and the classes once per side, version
    # 3 a rank and dims per array and layer specs per net, and version 4
    # alpha, beta and B; their files are rejected at the version field,
    # with no second reader
    for version in (2, 3, 4):
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=(
                f"^unsupported model version {version} at offset 4$")):
            load_model(path)
        assert main(["encode", "--model", str(path), "--dataset",
                     str(tmp_path / "d.lcmd"), "--modality", "image",
                     "--out", str(tmp_path / "c.lcmb")]) == 2
        assert not (tmp_path / "c.lcmb").exists()


def test_model_truncated(tmp_path):
    # a memory-phase model: 1 of its 3 epochs trains through the memory
    model = _trained_model(warmup_epochs=2)
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    raw = path.read_bytes()
    cut = tmp_path / "t.lcmh"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        # a cut in the settings and sizes names the model's header
        match = ("^truncated while reading model header at offset 8: "
                 if 8 <= end < 82 else None)
        with pytest.raises(FormatError, match=match):
            load_model(cut)


def _corrupt_model(tmp_path, offset, value: bytes):
    path = tmp_path / "m.lcmh"
    save_model(path, _trained_model())
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(value)] = value
    path.write_bytes(bytes(raw))
    return path


def test_model_bad_eta_mode_tag(tmp_path):
    # magic and version take 8 bytes; the eta-mode tag follows, and 0 and
    # 1 are the only modes
    for tag in (7, 2):
        path = _corrupt_model(tmp_path, 8, bytes([tag]))
        with pytest.raises(FormatError,
                           match=f"eta-mode tag {tag} at offset 8"):
            load_model(path)


def test_model_bad_layer_dim(tmp_path):
    # d_x, d_y, hidden, c and L follow the settings as u64s from offset 18;
    # none may be 0, and the offset named is the size's own
    for k, name in enumerate(("d_x", "d_y", "hidden", "c", "L")):
        at = 18 + 8 * k
        path = _corrupt_model(tmp_path, at, (0).to_bytes(8, "little"))
        with pytest.raises(FormatError, match=(
                rf"^bad {name} 0 at offset {at}, expected >= 1$")):
            load_model(path)
    # a d_x larger than the file: the image basic net's first layer, right
    # after the head flags, is cut short
    at = _part_offsets(_trained_model())["image"]
    path = _corrupt_model(tmp_path, 18, (2**31).to_bytes(8, "little"))
    with pytest.raises(FormatError, match=(
            rf"^truncated while reading image basic net layer 1 weights at "
            rf"offset {at}: ")):
        load_model(path)


def _shrink_bank(bank, rows=slice(None), cols=slice(None)):
    return PrototypeBank(centroids=bank.centroids[rows, cols],
                         counts=bank.counts[rows], is_head=bank.is_head[rows])


def _narrow_text_embedder(model):
    # a consistent text embedder of code length 4 beside an 8-bit image one
    e = model.embedder_y
    rng = np.random.default_rng(1)
    e.basic_net = FeedForwardNet([e.basic_net.input_dim, 16, 4], rng)
    e.weight_net = FeedForwardNet([4, e.weight_net.output_dim], rng)


def _weight_net_wrong_input(model):
    # the weight net no longer reads the basic net's c outputs
    model.embedder_x.weight_net = FeedForwardNet(
        [3, model.bank_x.num_classes], np.random.default_rng(1))


def _broken_chain(model):
    # the basic net's second layer reads 7 inputs after a layer of 16 outputs
    net = model.embedder_x.basic_net
    net.weights[1] = np.zeros((net.output_dim, 7))


def _no_layers(embedder, net):
    """A mutation emptying model.<embedder>.<net> of its layers."""
    def mutate(model):
        layers = getattr(getattr(model, embedder), net)
        layers.weights, layers.biases = [], []
    return mutate


def _set_nan(arrays):
    arrays[0].flat[0] = np.nan


def _on_both_sides(part, name, value):
    """A mutation setting `name` on the image and the text `part` to
    value(that part), as train sets both sides alike."""
    def mutate(model):
        for side in "xy":
            obj = getattr(model, f"{part}_{side}")
            setattr(obj, name, value(obj))
    return mutate


# arrays whose shapes are not the ones the model's sizes give: train never
# builds them, and save_model refuses them
MISSHAPEN = {
    "centroids_one_column": lambda m: setattr(
        m, "bank_x", _shrink_bank(m.bank_x, cols=slice(0, 1))),
    "bank_one_row_short": lambda m: setattr(
        m, "bank_y", _shrink_bank(m.bank_y, rows=slice(0, -1))),
    "counts_one_short": lambda m: setattr(m.bank_x, "counts",
                                          m.bank_x.counts[:-1]),
    "text_code_length_differs": _narrow_text_embedder,
    "weight_net_input_not_code_length": _weight_net_wrong_input,
    "basic_net_chain_broken": _broken_chain,
    "weight_net_without_layers": _no_layers("embedder_y", "weight_net"),
}
# basic nets without layers: save_model refuses them before it reads the
# sizes, which _write_unchecked needs, so only the save-time test takes them
LAYERLESS = {
    "image_basic_net_without_layers": _no_layers("embedder_x", "basic_net"),
    "text_basic_net_without_layers": _no_layers("embedder_y", "basic_net"),
}


# values a model file can hold but load_model rejects, each with the part
# of _part_offsets whose offset its FormatError names
VALUE = {
    "nan_weight": (lambda m: _set_nan(m.embedder_x.basic_net.weights),
                   "image"),
    "nan_bias": (lambda m: _set_nan(m.embedder_y.weight_net.biases),
                 "text weight-net biases"),
    "nan_centroid": (lambda m: _set_nan([m.bank_y.centroids]),
                     "text centroids"),
    "inf_eta_max": (lambda m: setattr(m.embedder_x, "eta_max", np.inf),
                    "eta_max"),
    "nan_eta_max": (lambda m: setattr(m.embedder_x, "eta_max", np.nan),
                    "eta_max"),
    # eta, which these memory-on models use, needs an eta_max >= 0 and a
    # non-empty head and a non-empty tail class, and the rule names the
    # head flags
    "no_tail_class": (_on_both_sides(
        "bank", "is_head", lambda b: np.ones_like(b.is_head)), "flags"),
    "no_head_class": (_on_both_sides(
        "bank", "is_head", lambda b: np.zeros_like(b.is_head)), "flags"),
    "tail_classes_empty": (_on_both_sides(
        "bank", "counts", lambda b: np.where(b.is_head, b.counts, 0)),
        "flags"),
    "negative_eta_max": (_on_both_sides(
        "embedder", "eta_max", lambda e: -2.0), "eta_max"),
    # a bad value rather than an inconsistency: no "inconsistent" prefix
    "negative_class_count": (lambda m: m.bank_x.counts.__setitem__(-1, -3),
                             "last count"),
}
INCONSISTENT = [name for name in VALUE if name != "negative_class_count"]


def _write_unchecked(path, model):
    """The bytes save_model would write for `model` if it did not check the
    shapes of its arrays: its settings and sizes, then the arrays as they
    are, so a misshapen one leaves the data out of step with the sizes."""
    sizes, arrays = hash_learn._sizes_and_arrays(model)
    e = model.embedder_x
    with open(path, "wb") as f:
        write_header(f, hash_learn.MODEL_MAGIC,
                     hash_learn.MODEL_FORMAT_VERSION, hash_learn.MODEL_HEADER,
                     meta_embed.ETA_MODES.index(e.eta_mode), e.use_memory,
                     e.eta_max, *sizes)
        for (_, dtype, _), arr in zip(hash_learn._layout(*sizes), arrays):
            write_array(f, arr, dtype)


@pytest.mark.parametrize("name", [*MISSHAPEN, *LAYERLESS, *INCONSISTENT])
def test_model_inconsistent_parts_rejected(tmp_path, name):
    model = _trained_model()
    path = tmp_path / "m.lcmh"
    if name not in VALUE:
        # a misshapen array or net is never written: save_model refuses it
        {**MISSHAPEN, **LAYERLESS}[name](model)
        with pytest.raises(ShapeError, match="^model "):
            save_model(path, model)
        assert not path.exists()
        return
    VALUE[name][0](model)
    save_model(path, model)
    with pytest.raises(FormatError, match="inconsistent"):
        load_model(path)


@pytest.mark.parametrize("name", [*MISSHAPEN, *VALUE])
def test_model_inconsistency_names_an_offset(tmp_path, name):
    model = _trained_model()
    path = tmp_path / "m.lcmh"
    if name in MISSHAPEN:
        # written anyway, a misshapen array leaves the bytes out of step
        # with the sizes: the file runs out, or a later part reads bytes
        # that are not its own and fails a check, naming its offset
        save_model(path, model)
        saved = path.read_bytes()
        _write_unchecked(path, model)
        assert path.read_bytes() == saved
        MISSHAPEN[name](model)
        _write_unchecked(path, model)
        with pytest.raises(FormatError, match=r"at offset \d+\b"):
            load_model(path)
        return
    mutate, part = VALUE[name]
    mutate(model)
    save_model(path, model)
    at = _part_offsets(model)[part]
    with pytest.raises(FormatError, match=rf"at offset {at}\b"):
        load_model(path)


def _part_offsets(model):
    """Byte offsets of parts of a saved model: eta_max at 10, the eight u64
    sizes from 18 and the class counts (8L bytes) from 82, then the head
    flags (L bytes), then per side its basic net's weights and biases (the
    side's offset), its weight net's and its centroids, then the training
    indices. No array has a header of its own."""
    L, c = model.bank_x.centroids.shape
    hidden = model.embedder_x.basic_net.weights[0].shape[0]
    at = {"eta_max": 10, "last count": 82 + 8 * (L - 1),
          "flags": 82 + 8 * L}
    end = at["flags"] + L
    for side, (e, _) in (("image", model.side("image")),
                         ("text", model.side("text"))):
        d = e.basic_net.input_dim
        at[side] = end
        end += 8 * (hidden * d + hidden + c * hidden + c + L * c)
        at[f"{side} weight-net biases"] = end
        at[f"{side} centroids"] = end + 8 * L
        end = at[f"{side} centroids"] + 8 * L * c
    at["training indices"] = end
    return at


def test_model_centroids_one_column_short_names_their_offset(tmp_path):
    model = _trained_model()
    L, c = model.bank_x.centroids.shape
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    # a file that ends one centroid column into the image centroids
    at = _part_offsets(model)["image centroids"]
    path.write_bytes(path.read_bytes()[:at + 8 * L * (c - 1)])
    with pytest.raises(FormatError, match=(
            rf"^truncated while reading image centroids at offset {at}: "
            rf"{8 * L * c} bytes needed, {8 * L * (c - 1)} left$")):
        load_model(path)
    # and a bank one column short is not written at all
    model.bank_x.centroids = model.bank_x.centroids[:, :-1]
    with pytest.raises(ShapeError, match=(
            rf"^model image centroids of shape \({L}, {c - 1}\), expected "
            rf"\({L}, {c}\)$")):
        save_model(tmp_path / "short.lcmh", model)
    assert not (tmp_path / "short.lcmh").exists()


def test_model_non_finite_last_float_array_rejected(tmp_path):
    # no float in a model file may be NaN or infinite, those of its last
    # float array included
    for bad in (np.nan, np.inf, -np.inf):
        model = _trained_model()
        model.bank_y.centroids[1, 2] = bad
        path = tmp_path / "m.lcmh"
        save_model(path, model)
        # the offset named is that of the text centroids (L x c); they and
        # the n training indices end the file
        at = _part_offsets(model)["text centroids"]
        (L, c), n = model.bank_y.centroids.shape, model.train_indices.size
        assert at == len(path.read_bytes()) - 8 * (L * c + n)
        with pytest.raises(FormatError, match=(
                rf"^inconsistent model: text centroids at offset {at} are "
                rf"not finite$")):
            load_model(path)


def test_model_text_code_length_differs_names_text_embedder(tmp_path):
    model = _trained_model()
    _narrow_text_embedder(model)
    path = tmp_path / "m.lcmh"
    with pytest.raises(ShapeError, match=(
            r"^model text basic net layer 2 weights of shape \(4, 16\), "
            r"expected \(8, 16\)$")):
        save_model(path, model)
    assert not path.exists()


def test_model_flag_byte_not_0_or_1_names_its_offset(tmp_path):
    # use_memory and each head flag is 0 or 1: any other value would load
    # as True and save back as 1, so the file would not read back exactly
    model = _trained_model()
    flags_at = _part_offsets(model)["flags"]
    L = model.bank_x.num_classes
    assert flags_at == 82 + 8 * L
    for name, at in (("use_memory", 9), ("head", flags_at),
                     ("head", flags_at + L - 1)):
        for value in (7, 2, 255):
            path = _corrupt_model(tmp_path, at, bytes([value]))
            with pytest.raises(FormatError, match=(
                    rf"^bad {name} flag {value} at offset {at}, "
                    rf"expected 0 or 1$")):
                load_model(path)


def test_model_every_cut_and_bit_flip(tmp_path):
    from conftest import cuts_and_flips
    # a two-class model with the memory on: each damaged file is rejected
    # or loads as a model that saves back to the same bytes
    spec = LongTailSpec(groups=[(1, 6), (1, 2)], d_x=2, d_y=2, latent_dim=2,
                        mixed_fraction=0.0)
    data = synthesize_long_tailed(spec, seed=0)
    model, _ = train(data, np.arange(data.n), TrainConfig(
        code_length=2, hidden_dim=2, batch_columns=4, head_threshold=4,
        epochs=1, seed=0))
    path = tmp_path / "m.lcmh"
    save_model(path, model)
    raw = path.read_bytes()
    assert len(raw) == 516 and model.embedder_x.use_memory
    bad, back = tmp_path / "bad.lcmh", tmp_path / "back.lcmh"
    loaded = 0
    for case in cuts_and_flips(raw):
        bad.write_bytes(case)
        try:
            damaged = load_model(bad)
        except FormatError:
            continue
        save_model(back, damaged)
        assert back.read_bytes() == case
        loaded += 1
    assert 0 < loaded < 2 * len(raw)
