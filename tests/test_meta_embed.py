import hashlib
import warnings

import numpy as np
import pytest

from ltcmh import gradcheck, meta_embed
from ltcmh.dataset import LongTailSpec
from ltcmh.errors import ConfigError, ShapeError
from ltcmh.hash_learn import TrainConfig
from ltcmh.meta_embed import (ENCODE_CHUNK, MetaEmbedder, PrototypeBank,
                              _attention_weights, compute_prototypes,
                              embed_backward, embed_batch, embed_chunked,
                              eta_ratio)
from ltcmh.tensor import FeedForwardNet


def _net(shape, rng=None, zero=False):
    """A single linear layer c -> L, optionally zeroed so all logits tie."""
    c, L = shape
    net = FeedForwardNet([c, L], rng or np.random.default_rng(0))
    if zero:
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
    return net


def _bank(centroids, is_head, counts=None):
    centroids = np.asarray(centroids, dtype=np.float64)
    L = centroids.shape[0]
    counts = np.ones(L, dtype=np.int64) if counts is None else np.asarray(counts)
    return PrototypeBank(centroids=centroids, counts=counts,
                         is_head=np.asarray(is_head, dtype=bool))


# --- compute_prototypes -----------------------------------------------------------

def test_prototypes_one_sample_per_class():
    feats = np.array([[1.0, 2.0], [3.0, -1.0]])
    labels = np.eye(2, dtype=np.uint8)
    bank = compute_prototypes(feats, labels, np.array([True, False]))
    assert np.array_equal(bank.centroids, feats)
    assert np.array_equal(bank.counts, [1, 1])


def test_prototypes_two_sample_mean():
    u, v = np.array([2.0, 0.0]), np.array([0.0, 4.0])
    labels = np.array([[1], [1]], dtype=np.uint8)
    bank = compute_prototypes(np.stack([u, v]), labels, np.array([True]))
    assert np.allclose(bank.centroids[0], (u + v) / 2)


def test_prototypes_match_brute_force(rng):
    feats = rng.normal(size=(20, 4))
    labels = (rng.random((20, 5)) < 0.4).astype(np.uint8)
    labels[labels.sum(1) == 0, 0] = 1
    bank = compute_prototypes(feats, labels,
                              np.array([True, True, False, False, False]))
    for k in range(5):
        members = [feats[i] for i in range(20) if labels[i, k]]
        if members:
            assert np.allclose(bank.centroids[k],
                               np.mean(members, axis=0))
        else:
            assert np.all(bank.centroids[k] == 0)
            assert not bank.nonempty[k]


def test_prototypes_empty_class_zero_and_excluded():
    feats = np.array([[1.0, 1.0]])
    labels = np.array([[1, 0]], dtype=np.uint8)
    bank = compute_prototypes(feats, labels, np.array([True, False]))
    assert np.all(bank.centroids[1] == 0)
    assert list(bank.nonempty) == [True, False]


def test_prototypes_shape_mismatch():
    with pytest.raises(ShapeError):
        compute_prototypes(np.zeros((3, 2)), np.ones((2, 1), np.uint8),
                           np.array([True]))


# --- memory path of embed_batch -------------------------------------------------

def _identity(c):
    """A c -> c identity layer, so embed_batch's v_direct equals its input."""
    net = FeedForwardNet([c, c], np.random.default_rng(0))
    net.weights[0][:] = np.eye(c)
    net.biases[0][:] = 0.0
    return net


def _embed(v, bank, weight_net, eta_mode="intent_ratio", eta_max=10.0):
    """embed_batch on the rows of v through an identity basic net. The bank
    needs a non-empty head and a non-empty tail class, which eta reads."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    emb = MetaEmbedder(basic_net=_identity(v.shape[1]), weight_net=weight_net,
                       eta_max=eta_max, eta_mode=eta_mode, use_memory=True)
    return embed_batch(emb, v, bank)


def test_memory_single_class_returns_centroid():
    # the tail logit is so low that its softmax weight underflows to 0
    bank = _bank([[5.0, -1.0], [2.0, 3.0]], [True, False])
    net = _net((2, 2), zero=True)
    net.biases[0][1] = -1e3
    _, cache = _embed([0.3, 0.7], bank, net)
    assert np.array_equal(cache.weights[0], [1.0, 0.0])
    assert np.array_equal(cache.v_memory[0], bank.centroids[0])


def test_memory_equal_logits_averages_centroids():
    bank = _bank([[2.0, 0.0], [0.0, 2.0]], [True, False])
    _, cache = _embed([1.0, 1.0], bank, _net((2, 2), zero=True))
    assert np.allclose(cache.weights[0], [0.5, 0.5])
    assert np.allclose(cache.v_memory[0], [1.0, 1.0])


def test_memory_matches_weighted_sum_oracle(rng):
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    _, cache = _embed(rng.normal(size=3), bank, _net((3, 4), rng))
    w = cache.weights[0]
    assert np.allclose(cache.v_memory[0],
                       sum(w[i] * bank.centroids[i] for i in range(4)))


def test_memory_all_empty_raises(rng):
    bank = _bank([[1.0, 0.0], [0.0, 1.0]], [True, False], counts=[0, 0])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="non-empty head"):
            _embed(np.zeros(2), bank, _net((2, 2), rng))
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_memory_simplex_property(rng):
    for _ in range(20):
        L = int(rng.integers(2, 7))
        counts = rng.integers(0, 3, size=L)
        counts[:2] = np.maximum(counts[:2], 1)
        is_head = rng.random(L) < 0.5
        is_head[:2] = True, False   # a non-empty head and tail class
        bank = _bank(rng.normal(size=(L, 3)), is_head, counts)
        _, cache = _embed(rng.normal(size=(4, 3)), bank, _net((3, L), rng))
        w = cache.weights
        assert np.all(w >= 0)
        assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(w[:, ~bank.nonempty] == 0)


def test_memory_masked_softmax_oracle(rng):
    bank = _bank(rng.normal(size=(3, 2)), [True, False, False],
                 counts=[2, 1, 0])
    net = _net((2, 3), rng)
    v = rng.normal(size=2)
    logits, _ = net.forward(v[None, :])
    _, cache = _embed(v, bank, net)
    e = np.exp(logits[0, :2])
    expect_w = np.append(e / e.sum(), 0.0)   # the empty class gets none
    assert np.allclose(cache.weights[0], expect_w)
    assert np.allclose(cache.v_memory[0], expect_w @ bank.centroids)


def test_attention_weights_equal_out_of_place_softmax(rng):
    # in-place shift, exp and divide give the bits of the plain expression
    logits = rng.normal(size=(5000, 24)) * rng.choice([0.1, 10.0, 300.0],
                                                      size=(5000, 1))
    mask = np.ones((1, 24), dtype=bool)
    mask[0, [3, 17]] = False
    z = np.where(mask, logits, -np.inf)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    expect = e / e.sum(axis=1, keepdims=True)
    w = _attention_weights(logits, mask)
    assert np.array_equal(w, expect)
    assert not w[:, [3, 17]].any()


# --- eta --------------------------------------------------------------------------

def test_eta_equal_distances_gives_one():
    bank = _bank([[0.0, 0.0], [2.0, 0.0]], [True, False])
    v = np.array([[1.0, 0.0]])
    assert eta_ratio(v, bank, "intent_ratio", 10.0) == pytest.approx([1.0])
    assert eta_ratio(v, bank, "as_printed", 10.0) == pytest.approx([1.0])


def test_eta_on_head_centroid_intent_zero():
    bank = _bank([[3.0, 4.0], [0.0, 0.0]], [True, False])
    assert eta_ratio(np.array([[3.0, 4.0]]), bank, "intent_ratio",
                     10.0)[0] == 0.0


def test_eta_hand_computed_both_modes():
    # heads at (0,0), (4,0); tails at (0,3), (5,5); v = (1,1)
    bank = _bank([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [5.0, 5.0]],
                 [True, True, False, False])
    v = np.array([[1.0, 1.0]])
    d_head = min(1 + 1, 9 + 1)          # 2
    d_tail = min(1 + 4, 16 + 16)        # 5
    assert eta_ratio(v, bank, "intent_ratio", 10.0) == \
        pytest.approx([d_head / d_tail])
    assert eta_ratio(v, bank, "as_printed", 10.0) == \
        pytest.approx([d_tail / d_head])


def test_eta_clamped_at_max():
    bank = _bank([[0.0, 0.0], [9.0, 9.0]], [True, False])
    # on the head centroid: as_printed ratio explodes, must clamp
    v = np.array([[0.0, 0.0]])
    assert eta_ratio(v, bank, "as_printed", eta_max=10.0)[0] == 10.0
    assert eta_ratio(v, bank, "as_printed", eta_max=3.0)[0] == 3.0


def test_eta_errors():
    v = np.zeros((1, 1))
    with pytest.raises(ConfigError):
        eta_ratio(v, _bank([[0.0], [1.0]], [True, True]), "intent_ratio", 10.0)
    for mode in ("nope", "learned"):
        with pytest.raises(ConfigError):
            eta_ratio(v, _bank([[0.0], [1.0]], [True, False]), mode, 10.0)


@pytest.mark.parametrize("mode", ["intent_ratio", "as_printed"])
def test_eta_ratio_row_invariant_and_matches_broadcast_oracle(mode, rng):
    # eta_max is far above every ratio, so no clamp hides a difference in
    # the distances; a NaN feature must give NaN eta, as in the oracle
    v = rng.normal(size=(4113, 6))
    v[100, 3] = np.nan
    bank = _bank(rng.normal(size=(5, 6)), [True, True, False, False, False])
    whole = eta_ratio(v, bank, mode, 1e9)
    by_row = np.concatenate([eta_ratio(v[i:i + 1], bank, mode, 1e9)
                             for i in range(len(v))])
    assert np.array_equal(whole, by_row, equal_nan=True)
    d2 = ((v[:, None, :] - bank.centroids[None, :, :]) ** 2).sum(axis=2)
    d_head, d_tail = d2[:, :2].min(axis=1), d2[:, 2:].min(axis=1)
    ratio = d_head / d_tail if mode == "intent_ratio" else d_tail / d_head
    assert np.isnan(whole[100]) and np.isnan(whole).sum() == 1
    assert np.array_equal(whole, ratio, equal_nan=True)
    # a NaN centroid poisons its group's min for every row, as in np.min
    bank.centroids[3, 0] = np.nan
    assert np.isnan(eta_ratio(v, bank, mode, 1e9)).all()


def _loop_eta(v, bank, mode, eta_max):
    """eta by its definition: each group's nearest squared distance taken
    one centroid at a time by np.minimum, so NaN if any distance is NaN."""
    nearest = []
    for group in (bank.nonempty & bank.is_head, bank.nonempty & ~bank.is_head):
        d = np.full(len(v), np.inf)
        for m in bank.centroids[group]:
            np.minimum(d, ((v - m) ** 2).sum(axis=1), out=d)
        nearest.append(d)
    d_head, d_tail = nearest if mode == "intent_ratio" else nearest[::-1]
    return np.clip(d_head / np.maximum(d_tail, meta_embed.ETA_EPS), 0.0,
                   eta_max)


def _runtime_warnings(f, *args):
    """f(*args) and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)}


def _eta_case(rng, kind, scale):
    """Features and a bank at one scale, made awkward by `kind`."""
    c, L, n = (int(rng.integers(1, 65)), int(rng.integers(2, 25)),
               int(rng.integers(1, 40)))
    C = rng.normal(size=(L, c)) * scale
    v = rng.normal(size=(n, c)) * scale
    split = int(rng.integers(1, L))   # classes [0, split) are head
    counts = (rng.random(L) < 0.8).astype(np.int64)
    counts[[0, L - 1]] = 1
    a, b = rng.integers(0, L, size=2)
    rows = rng.integers(0, n, size=max(1, n // 3))
    if kind == "duplicate":
        C[a] = C[b]
        v[rows] = C[a] + rng.normal(size=c) * scale * 1e-3
    elif kind == "on_centroid":
        v[rows] = C[rng.integers(0, L, size=len(rows))]
    elif kind == "midpoint":
        v[rows] = (C[a] + C[b]) / 2
    elif kind == "non_finite_feature":
        v[rows, rng.integers(0, c, size=len(rows))] = rng.choice(
            [np.nan, np.inf, -np.inf], size=len(rows))
    elif kind == "nan_centroid":
        C[a, rng.integers(0, c)] = np.nan
    elif kind == "zero_rows":
        v[rows] = 0.0
    return v, _bank(C, np.arange(L) < split, counts)


@pytest.mark.parametrize("mode", ["intent_ratio", "as_printed"])
def test_eta_ratio_bit_equal_to_per_centroid_loop(mode, monkeypatch):
    # eta picks each row's nearest centroid by a GEMM and sums only that
    # distance; a row the GEMM cannot settle runs the loop. Every eta must
    # equal the loop's bits whatever the GEMM rounds, at any scale: near
    # 1e-162 the squares are subnormal, which the bound's floor covers.
    fallback_rows = []
    loop_nearest = meta_embed._loop_nearest

    def counted(v, C):
        fallback_rows.append(len(v))
        return loop_nearest(v, C)

    monkeypatch.setattr(meta_embed, "_loop_nearest", counted)
    rng = np.random.default_rng(5)
    kinds = ["plain", "duplicate", "on_centroid", "midpoint",
             "non_finite_feature", "nan_centroid", "zero_rows"]
    scales = np.r_[10.0 ** rng.uniform(-170, 153, size=90),
                   10.0 ** rng.uniform(-163.5, -161.5, size=60)]
    cases = [(kinds[i % len(kinds)], scale,
              *_eta_case(rng, kinds[i % len(kinds)], scale))
             for i, scale in enumerate(scales)]
    # |v|^2 overflows, but not v's distance to the second tail centroid
    cases.append(("norm_overflow", 1e154, np.array([[1.341e154, 0.0]]),
                  _bank([[0.0, 0.0], [1e151, 0.0], [5.0, 5.0]],
                        [False, False, True])))
    for kind, scale, v, bank in cases:
        expect, loop_warned = _runtime_warnings(_loop_eta, v, bank, mode, 1e9)
        got, warned = _runtime_warnings(eta_ratio, v, bank, mode, 1e9)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), \
            (kind, scale)
        assert warned <= loop_warned
        # below 1e150 no squared distance of c <= 64 terms can overflow
        if scale < 1e150 and np.isfinite(v).all() \
                and np.isfinite(bank.centroids).all():
            assert not warned
    assert sum(fallback_rows) > 0


def test_eta_ratio_bits_pinned():
    # the per-centroid loop's sha256 on this input, the same at 1 and at 2
    # OpenBLAS threads; eta's GEMM must not move it at either thread count
    rng = np.random.default_rng(11)
    v = rng.normal(size=(3000, 16))
    centroids = rng.normal(size=(24, 16))
    centroids[20] = centroids[21]
    counts = rng.integers(1, 50, size=24)
    counts[[3, 9]] = 0
    bank = _bank(centroids, np.arange(24) < 6, counts)
    out = np.concatenate([eta_ratio(v, bank, mode, 1e9)
                          for mode in ("intent_ratio", "as_printed")])
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        "27ffd7e3f39000bc4f4821b7bea7ad7e5ba546af4f1d7e3ddbc7337c5feab390"


def _bits_equal(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("kind", ["plain", "duplicate", "on_centroid",
                                  "midpoint", "non_finite_feature",
                                  "nan_centroid", "zero_rows"])
def test_nearest_each_group_bit_equal_to_its_loop(kind):
    # one GEMM bounds both groups' distances; each group's result must
    # still be its own loop's bits, at any scale, with empty classes left
    # out of either group
    rng = np.random.default_rng(29)
    for scale in 10.0 ** rng.uniform(-170, 153, size=24):
        v, bank = _eta_case(rng, kind, scale)
        groups = (bank.nonempty & bank.is_head, bank.nonempty & ~bank.is_head)
        got, warned = _runtime_warnings(meta_embed._nearest, v,
                                        bank.centroids, groups)
        loop_warned = set()
        for g, d in zip(groups, got):
            expect, w = _runtime_warnings(meta_embed._loop_nearest, v,
                                          bank.centroids[g])
            loop_warned |= w
            assert _bits_equal(d, expect), (kind, scale)
        assert warned <= loop_warned


def test_nearest_groups_with_empty_classes_and_non_finite_rows():
    # the empty classes' zero centroids lie on the zero rows, nearer than
    # any class of their group; inf, NaN and overflowing rows run the loop
    C = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0],    # head
                  [0.0, 0.0], [1e151, 0.0], [5.0, 5.0]])  # tail
    bank = _bank(C, [True, True, True, False, False, False],
                 counts=[0, 4, 2, 0, 3, 1])
    v = np.array([[0.0, 0.0], [2.0, 1.0], [np.inf, 0.0], [np.nan, 1.0],
                  [1.341e154, 0.0], [-1e300, 1e300], [2.5, 2.5]])
    groups = (bank.nonempty & bank.is_head, bank.nonempty & ~bank.is_head)
    with np.errstate(over="ignore", invalid="ignore"):
        got = meta_embed._nearest(v, C, groups)
        for g, d in zip(groups, got):
            assert _bits_equal(d, meta_embed._loop_nearest(v, C[g]))
        for mode in ("intent_ratio", "as_printed"):
            assert _bits_equal(eta_ratio(v, bank, mode, 1e9),
                               _loop_eta(v, bank, mode, 1e9))
    assert got[0][0] == 8.0 and got[1][0] == 50.0


def test_nearest_loops_only_rows_the_bound_cannot_settle(monkeypatch):
    # rows next to a duplicated head centroid tie in the head group only;
    # a centroid that a head and a tail class share ties in neither
    calls = []
    loop_nearest = meta_embed._loop_nearest
    monkeypatch.setattr(meta_embed, "_loop_nearest",
                        lambda v, C: calls.append((len(v), len(C)))
                        or loop_nearest(v, C))
    rng = np.random.default_rng(3)
    C = rng.normal(size=(6, 8)) * 10
    C[1] = C[0]
    C[4] = C[2]
    is_head = np.array([True, True, True, False, False, False])
    v = rng.normal(size=(50, 8))
    v[[3, 17, 41]] = C[0] + rng.normal(size=(3, 8)) * 1e-3
    v[[5, 6]] = C[2] + rng.normal(size=(2, 8)) * 1e-3
    got = meta_embed._nearest(v, C, (is_head, ~is_head))
    assert calls == [(3, 3)]
    for g, d in zip((is_head, ~is_head), got):
        assert _bits_equal(d, loop_nearest(v, C[g]))


# --- meta features ----------------------------------------------------------------

def test_meta_eta_zero_keeps_direct():
    bank = _bank([[3.0, 4.0], [0.0, 0.0]], [True, False])
    v = np.array([3.0, 4.0])   # on the head centroid: intent eta = 0
    V, cache = _embed(v, bank, _net((2, 2), zero=True))
    assert cache.eta[0] == 0.0
    assert np.array_equal(V[:, 0], v)


def test_meta_eta_one_memory_equals_direct_doubles():
    # centroids symmetric around v with equal logits: v_memory = v, eta = 1
    v = np.array([1.0, 2.0])
    d = np.array([0.5, -0.5])
    bank = _bank([v + d, v - d], [True, False])
    V, cache = _embed(v, bank, _net((2, 2), zero=True))
    assert cache.eta[0] == pytest.approx(1.0)
    assert np.allclose(cache.v_memory[0], v)
    assert np.allclose(V[:, 0], 2 * v)


def test_meta_random_matches_recomputation(rng):
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    net = _net((3, 4), rng)
    v = rng.normal(size=3)
    V, cache = _embed(v, bank, net)
    logits, _ = net.forward(v[None, :])
    w = np.exp(logits[0]) / np.exp(logits[0]).sum()
    v_mem = w @ bank.centroids
    e = eta_ratio(v[None, :], bank, "intent_ratio", 10.0)[0]
    assert np.allclose(V[:, 0], v + e * v_mem)
    assert np.allclose(cache.v_memory[0], v_mem)
    assert cache.eta[0] == pytest.approx(e)


def test_meta_exactness_property(rng):
    for _ in range(20):
        bank = _bank(rng.normal(size=(5, 4)),
                     [True, True, True, False, False])
        V, cache = _embed(rng.normal(size=(3, 4)), bank, _net((4, 5), rng),
                          "as_printed")
        for i in range(3):
            assert np.array_equal(V[:, i], cache.v_direct[i]
                                  + cache.eta[i] * cache.v_memory[i])


# --- embed_batch ------------------------------------------------------------------

def _batch_embedder(rng, c=3, L=4, d=5, eta_mode="intent_ratio",
                    eta_max=10.0, use_memory=True):
    basic = FeedForwardNet([d, 4, c], rng)
    weight = FeedForwardNet([c, L], rng)
    return MetaEmbedder(basic_net=basic, weight_net=weight, eta_max=eta_max,
                        eta_mode=eta_mode, use_memory=use_memory)


def test_embed_batch_matches_per_sample(rng):
    # each column depends on its own sample only, not on the batch around it
    for mode in ("intent_ratio", "as_printed"):
        emb = _batch_embedder(rng, eta_mode=mode)
        bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
        batch = rng.normal(size=(6, 5))
        V, _ = embed_batch(emb, batch, bank)
        assert V.shape == (3, 6)
        for i in range(6):
            v_i, _ = embed_batch(emb, batch[i:i + 1], bank)
            assert np.allclose(V[:, i], v_i[:, 0])


def test_embed_batch_no_memory_is_direct(rng):
    emb = _batch_embedder(rng, use_memory=False)
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    batch = rng.normal(size=(6, 5))
    V, cache = embed_batch(emb, batch, bank)
    direct, _ = emb.basic_net.forward(batch)
    assert np.array_equal(V, direct.T)
    assert cache.weights is None


def test_embed_backward_no_memory_is_plain_backward(rng):
    # with the memory off only the basic net gets gradients
    emb = _batch_embedder(rng, use_memory=False)
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    batch = rng.normal(size=(6, 5))
    V, cache = embed_batch(emb, batch, bank)
    R = rng.normal(size=V.shape)
    [(net, grads)] = embed_backward(emb, cache, R)
    _, acts = emb.basic_net.forward(batch)
    plain, _ = emb.basic_net.backward(acts, R.T)
    assert net is emb.basic_net
    for (gw, gb), (pw, pb) in zip(grads, plain, strict=True):
        assert np.array_equal(gw, pw) and np.array_equal(gb, pb)


def test_eta_ordering_head_vs_tail(rng):
    # Gaussian clusters: head near origin, tail far; intent ratio makes eta
    # small for head samples, the printed ratio reverses the ordering
    head_c, tail_c = np.array([0.0, 0.0]), np.array([6.0, 6.0])
    head = head_c + rng.normal(size=(40, 2)) * 0.5
    tail = tail_c + rng.normal(size=(8, 2)) * 0.5
    feats = np.concatenate([head, tail])
    labels = np.zeros((48, 2), dtype=np.uint8)
    labels[:40, 0] = 1
    labels[40:, 1] = 1
    bank = compute_prototypes(feats, labels, np.array([True, False]))
    intent = eta_ratio(feats, bank, "intent_ratio", 10.0)
    printed = eta_ratio(feats, bank, "as_printed", 10.0)
    assert np.mean(intent[:40]) < np.mean(intent[40:])
    assert np.mean(printed[:40]) > np.mean(printed[40:])


# --- embed_backward ---------------------------------------------------------------

def test_backward_eta_zero_equals_plain_backward(rng):
    # eta_max = 0 clips every eta to zero: memory contributes nothing and the
    # basic net grads must match a plain backward pass
    emb = _batch_embedder(rng, eta_max=0.0)
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    batch = rng.normal(size=(5, 5))
    V, cache = embed_batch(emb, batch, bank)
    R = rng.normal(size=V.shape)
    (basic_net, basic), (weight_net, weight) = embed_backward(emb, cache, R)
    assert basic_net is emb.basic_net and weight_net is emb.weight_net
    _, plain_cache = emb.basic_net.forward(batch)
    plain, _ = emb.basic_net.backward(plain_cache, R.T)
    for (gw, gb), (pw, pb) in zip(basic, plain, strict=True):
        assert np.allclose(gw, pw)
        assert np.allclose(gb, pb)
    for gw, gb in weight:
        assert np.all(gw == 0) and np.all(gb == 0)


def test_backward_single_class_constant_memory(rng):
    # one non-empty class leaves eta without a head or without a tail
    # distance, so the memory path refuses the bank in either mode
    for mode in ("intent_ratio", "as_printed"):
        emb = _batch_embedder(rng, L=2, eta_mode=mode)
        for is_head in ([True, False], [False, True]):
            bank = _bank(rng.normal(size=(2, 3)), is_head, counts=[3, 0])
            with pytest.raises(ConfigError, match="non-empty head"):
                embed_batch(emb, rng.normal(size=(4, 5)), bank)


def test_backward_shape_mismatch(rng):
    emb = _batch_embedder(rng)
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    _, cache = embed_batch(emb, rng.normal(size=(5, 5)), bank)
    with pytest.raises(ShapeError):
        embed_backward(emb, cache, np.zeros((3, 4)))


def test_backward_finite_difference_suites():
    assert gradcheck.check_train_step(seed=0) < 1e-4


def test_embed_batch_given_eta(rng):
    # the cached eta passed back reproduces the plain call bit for bit;
    # with the memory off there is no eta and a given one is ignored
    bank = _bank(rng.normal(size=(4, 3)), [True, True, False, False])
    batch = rng.normal(size=(6, 5))
    emb = _batch_embedder(rng)
    V, cache = embed_batch(emb, batch, bank)
    V_eta, cache_eta = embed_batch(emb, batch, bank, eta=cache.eta)
    assert np.array_equal(V, V_eta)
    assert np.array_equal(cache.eta, cache_eta.eta)
    emb.use_memory = False
    V, _ = embed_batch(emb, batch, bank)
    V_eta, cache_eta = embed_batch(emb, batch, bank, eta=np.full(6, 7.0))
    assert np.array_equal(V, V_eta) and cache_eta.eta is None


# --- embed_chunked ----------------------------------------------------------------

CHUNKED_SIZES = [0, 1, 75, ENCODE_CHUNK - 1, ENCODE_CHUNK, ENCODE_CHUNK + 1,
                 2 * ENCODE_CHUNK - 1, 2 * ENCODE_CHUNK, 3 * ENCODE_CHUNK + 7]


def _default_embedder(input_dim, eta_mode, use_memory, rng):
    """An embedder of the default training shape (hidden_dim, code_length,
    24 classes) and a bank fitted on its direct features, 4 classes head."""
    cfg = TrainConfig(eta_mode=eta_mode)
    L, c = 24, cfg.code_length
    basic = FeedForwardNet([input_dim, cfg.hidden_dim, c], rng)
    weight = FeedForwardNet([c, L], rng)
    emb = MetaEmbedder(basic_net=basic, weight_net=weight, eta_max=cfg.eta_max,
                       eta_mode=eta_mode, use_memory=use_memory)
    direct, _ = basic.forward(rng.normal(size=(400, input_dim)))
    labels = np.eye(L, dtype=np.uint8)[rng.integers(0, L, size=400)]
    return emb, compute_prototypes(direct, labels, np.arange(L) < 4)


@pytest.mark.parametrize("eta_mode", ["intent_ratio", "as_printed"])
@pytest.mark.parametrize("use_memory", [True, False])
@pytest.mark.parametrize("input_dim", [LongTailSpec.d_x, LongTailSpec.d_y])
def test_embed_chunked_equals_one_embed_batch(input_dim, use_memory, eta_mode,
                                              rng, monkeypatch):
    emb, bank = _default_embedder(input_dim, eta_mode, use_memory, rng)
    chunks = []

    def spy(embedder, batch, bank):
        chunks.append(batch)
        return embed_batch(embedder, batch, bank)

    for n in CHUNKED_SIZES:
        batch = rng.normal(size=(n, input_dim))
        ref, _ = embed_batch(emb, batch, bank)
        chunks.clear()
        with monkeypatch.context() as m:
            m.setattr(meta_embed, "embed_batch", spy)
            V = embed_chunked(emb, batch, bank)
        # byte for byte, in embed_batch's memory layout
        assert V.shape == ref.shape == (emb.code_length, n)
        assert V.tobytes() == ref.tobytes() and V.strides == ref.strides
        # contiguous chunks that tile 0..n in order, none short
        start = 0
        for chunk in chunks:
            assert np.array_equal(chunk, batch[start:start + len(chunk)])
            start += len(chunk)
            if n >= ENCODE_CHUNK:
                assert len(chunk) >= ENCODE_CHUNK
        assert start == n
        assert len(chunks) == max(1, n // ENCODE_CHUNK)


# --- embedder validation ----------------------------------------------------------

def test_embedder_rejects_bad_mode(rng):
    basic = FeedForwardNet([4, 3, 3], rng)
    weight = FeedForwardNet([3, 2], rng)
    with pytest.raises(ConfigError):
        MetaEmbedder(basic_net=basic, weight_net=weight, eta_max=10.0,
                     eta_mode="bogus")
    with pytest.raises(ConfigError):
        MetaEmbedder(basic_net=basic, weight_net=weight, eta_max=10.0,
                     eta_mode="learned")


@pytest.mark.parametrize("eta_max", [-1.0, -1e-300, np.inf, np.nan])
def test_embedder_rejects_eta_max_outside_range(rng, eta_max):
    # a negative eta_max would flip the sign of every memory feature
    with pytest.raises(ConfigError, match="eta_max must be finite and >= 0"):
        _batch_embedder(rng, eta_max=eta_max)


def test_embedder_memory_is_off_unless_switched_on(rng):
    # only hash_learn._switch_on_memory and load_model turn the memory on
    emb = MetaEmbedder(basic_net=FeedForwardNet([4, 3, 3], rng),
                       weight_net=FeedForwardNet([3, 2], rng), eta_max=10.0)
    assert not emb.use_memory


def test_embedder_rejects_width_mismatch(rng):
    basic = FeedForwardNet([4, 3, 3], rng)
    weight = FeedForwardNet([5, 2], rng)
    with pytest.raises(ShapeError):
        MetaEmbedder(basic_net=basic, weight_net=weight, eta_max=10.0)
