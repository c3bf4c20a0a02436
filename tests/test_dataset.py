import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltcmh import dataset
from ltcmh.dataset import (LongTailSpec, MultiModalDataset, build_affinity,
                           label_masks, load_dataset, primary_labels,
                           save_dataset, split_head_tail,
                           split_query_retrieval, synthesize_long_tailed,
                           trim_labels)
from ltcmh.errors import ConfigError, FormatError, ShapeError

label_matrices = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                        elements=st.integers(0, 1)).filter(
                            lambda m: bool(np.all(m.sum(axis=1) >= 1)))


# --- synthesis ------------------------------------------------------------------

def test_synthesize_single_class():
    data = synthesize_long_tailed(LongTailSpec(groups=[(1, 5)], d_x=4, d_y=3),
                                  seed=0)
    assert data.n == 5
    assert data.num_classes == 1
    assert np.all(data.labels == 1)
    masks = label_masks(data.labels)
    assert np.all(build_affinity(masks, masks) == 1)


def test_synthesize_flickr_shape():
    spec = LongTailSpec(groups=[(4, 2000), (10, 200), (10, 50)], d_x=8, d_y=6)
    data = synthesize_long_tailed(spec, seed=0)
    assert data.n == 10500
    assert data.num_classes == 24


def test_synthesize_deterministic(tiny_dataset):
    from conftest import tiny_spec
    again = synthesize_long_tailed(tiny_spec(), seed=0)
    assert np.array_equal(tiny_dataset.X, again.X)
    assert np.array_equal(tiny_dataset.Y, again.Y)
    assert np.array_equal(tiny_dataset.labels, again.labels)


def test_synthesize_class_label_counts():
    from conftest import tiny_spec
    spec = tiny_spec()
    data = synthesize_long_tailed(spec, seed=3)
    expect = spec.class_counts() + spec.extra_per_class
    assert data.n == int(expect.sum())
    # every class-k sample carries label k, so column sums dominate the
    # planted per-class counts
    assert np.all(data.labels.sum(axis=0) >= expect)


def _synthesize_per_sample_mixing(spec, seed):
    """synthesize_long_tailed with the second labels mixed in one sample at
    a time, the form it replaced; returns (X, Y, labels)."""
    rng = np.random.default_rng(seed)
    L = spec.num_classes
    counts = spec.class_counts() + spec.extra_per_class
    centers = rng.normal(size=(L, spec.latent_dim)) * 2.0
    a_x = rng.normal(size=(spec.d_x, spec.latent_dim)) / np.sqrt(spec.latent_dim)
    a_y = rng.normal(size=(spec.d_y, spec.latent_dim)) / np.sqrt(spec.latent_dim)
    xs, ys, labs = [], [], []
    for k in range(L):
        m = int(counts[k])
        n_mixed = int(np.floor(spec.mixed_fraction * m)) if L > 1 else 0
        second = rng.integers(0, L - 1, size=n_mixed) if n_mixed else np.empty(0, int)
        second = np.where(second >= k, second + 1, second)
        lab = np.zeros((m, L), dtype=np.uint8)
        lab[:, k] = 1
        z = np.tile(centers[k], (m, 1))
        for i, j in enumerate(second):
            z[i] = 0.5 * (centers[k] + centers[j])
            lab[i, j] = 1
        z = z + rng.normal(size=z.shape) * 0.3
        xs.append(z @ a_x.T + rng.normal(size=(m, spec.d_x)) * spec.noise_std)
        ys.append(z @ a_y.T + rng.normal(size=(m, spec.d_y)) * spec.noise_std)
        labs.append(lab)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(labs)


@pytest.mark.parametrize("groups, mixed_fraction, seed", [
    ([(1, 5)], 0.5, 0), ([(2, 30), (3, 7)], 0.0, 1),
    ([(2, 30), (3, 7)], 0.2, 2), ([(3, 11), (2, 4)], 1.0, 3)])
def test_synthesize_matches_per_sample_mixing(groups, mixed_fraction, seed):
    spec = LongTailSpec(groups=groups, d_x=5, d_y=4, latent_dim=3,
                        extra_per_class=2, mixed_fraction=mixed_fraction)
    data = synthesize_long_tailed(spec, seed)
    X, Y, labels = _synthesize_per_sample_mixing(spec, seed)
    assert np.array_equal(data.X, X) and np.array_equal(data.Y, Y)
    assert data.labels.dtype == labels.dtype
    assert np.array_equal(data.labels, labels)


def test_synthesize_fills_its_arrays_in_place():
    # each class is written into the returned arrays, so synthesis peaks
    # at about those arrays, not at them plus per-class copies
    spec = LongTailSpec(groups=[(4, 200), (10, 20), (10, 5)],
                        extra_per_class=4200)
    tracemalloc.start()
    try:
        data = synthesize_long_tailed(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.X.flags.c_contiguous and data.Y.flags.c_contiguous
    assert peak <= 1.1 * (data.X.nbytes + data.Y.nbytes + data.labels.nbytes)


def test_synthesize_modalities_share_class_structure():
    # class centroids in X-space must be farther apart than within-class spread
    spec = LongTailSpec(groups=[(2, 50)], d_x=16, d_y=12, noise_std=0.2,
                        mixed_fraction=0.0)
    data = synthesize_long_tailed(spec, seed=1)
    prim = primary_labels(data.labels)
    c0, c1 = data.X[prim == 0].mean(0), data.X[prim == 1].mean(0)
    within = np.linalg.norm(data.X[prim == 0] - c0, axis=1).mean()
    assert np.linalg.norm(c0 - c1) > within


def test_spec_rejects_unsorted_groups():
    with pytest.raises(ConfigError):
        LongTailSpec(groups=[(2, 5), (2, 50)])


def test_spec_rejects_nonpositive_counts():
    with pytest.raises(ConfigError):
        LongTailSpec(groups=[(2, 0)])


@pytest.mark.parametrize("fraction", [-0.1, 2.0, float("nan")])
def test_spec_rejects_mixed_fraction_outside_unit_interval(fraction):
    with pytest.raises(ConfigError, match="mixed_fraction"):
        LongTailSpec(groups=[(2, 5)], mixed_fraction=fraction)


# --- trim_labels -----------------------------------------------------------------

def test_trim_single_label_row_unchanged():
    labels = np.array([[0, 1, 0, 0]], dtype=np.uint8)
    assert np.array_equal(trim_labels(labels), labels)


def test_trim_keeps_globally_rarest_labels():
    # global counts: a=4, b=3, c=2, d=1 -> rarest-first order d, c, b, a
    labels = np.array([
        [1, 1, 1, 1],
        [1, 1, 1, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 0],
    ], dtype=np.uint8)
    out = trim_labels(labels, seed=0)
    row = out[0]
    kept = set(np.flatnonzero(row))
    assert 2 <= len(kept) <= 3
    # the rarest labels (3, then 2) must be kept; label 0 only if 3 kept... and
    # even then label 1 precedes label 0
    assert 3 in kept and 2 in kept
    if len(kept) == 3:
        assert kept == {1, 2, 3}


def test_trim_identity_when_all_rows_small():
    labels = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    assert np.array_equal(trim_labels(labels), labels)


def test_trim_tie_broken_by_class_index():
    # all classes equally common; keep must prefer the smallest indices
    labels = np.tile(np.ones(5, dtype=np.uint8), (4, 1))
    out = trim_labels(labels, seed=0)
    for row in out:
        kept = np.flatnonzero(row)
        assert np.array_equal(kept, np.arange(len(kept)))


@settings(max_examples=50, deadline=None)
@given(label_matrices, st.integers(0, 10))
def test_trim_monotonicity_property(labels, seed):
    out = trim_labels(labels, seed=seed)
    orig = labels.sum(axis=1)
    trimmed = out.sum(axis=1)
    small = orig <= 3
    assert np.array_equal(out[small], labels[small])
    assert np.all(trimmed[~small] >= 2)
    assert np.all(trimmed[~small] <= 3)
    # kept labels are a subset of the original ones
    assert np.all(labels[out.astype(bool)] == 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(label_matrices,
       st.integers(1, 6).flatmap(
           lambda hi: st.tuples(st.integers(1, hi), st.just(hi))),
       st.integers(0, 2**32), st.integers(0, 2**32))
def test_trim_of_trimmed_labels_is_identity(labels, keep, seed, other_seed):
    # synth writes trimmed labels and train trims them again with any seed
    once = trim_labels(labels, *keep, seed)
    assert np.array_equal(trim_labels(once, *keep, other_seed), once)


def _trim_labels_row_loop(labels, min_keep, max_keep, seed):
    """trim_labels as a visit to every row, the form it replaced."""
    rng = np.random.default_rng(seed)
    global_counts = labels.sum(axis=0)
    out = labels.copy()
    for i in range(labels.shape[0]):
        present = np.flatnonzero(labels[i])
        if present.size <= max_keep:
            continue
        keep_n = int(rng.integers(min_keep, max_keep + 1))
        order = np.lexsort((present, global_counts[present]))
        out[i] = 0
        out[i, present[order[:keep_n]]] = 1
    return out


@pytest.mark.parametrize("min_keep, max_keep, seed",
                         [(1, 1, 0), (2, 3, 0), (2, 3, 7), (1, 4, 3),
                          (3, 3, 5), (2, 5, 11)])
def test_trim_matches_row_loop(min_keep, max_keep, seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random((300, 12)) < 0.3).astype(np.uint8)
    labels[np.arange(300), rng.integers(0, 12, size=300)] = 1
    assert (labels.sum(axis=1) > max_keep).any()
    out = trim_labels(labels, min_keep, max_keep, seed)
    assert out.dtype == labels.dtype
    assert np.array_equal(out, _trim_labels_row_loop(labels, min_keep,
                                                     max_keep, seed))


def test_trim_without_long_rows_returns_equal_copy():
    labels = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    out = trim_labels(labels, max_keep=2)
    assert np.array_equal(out, labels)
    assert not np.shares_memory(out, labels)


def test_trim_rejects_empty_row():
    with pytest.raises(ValueError):
        trim_labels(np.zeros((1, 3), dtype=np.uint8))


# --- affinity --------------------------------------------------------------------

def test_affinity_identical_single_label_rows():
    masks = label_masks(np.array([[0, 1], [0, 1]], dtype=np.uint8))
    assert np.all(build_affinity(masks, masks) == 1)


def test_affinity_disjoint_rows_zero():
    a = label_masks(np.array([[1, 0, 0]], dtype=np.uint8))
    b = label_masks(np.array([[0, 1, 1]], dtype=np.uint8))
    assert build_affinity(a, b)[0, 0] == 0


def test_affinity_matches_brute_force(rng, monkeypatch):
    # one uint32 word up to 32 labels, then 1, 2 and 3 uint64 words
    blocks = (3, dataset.AFFINITY_BLOCK)
    for L in (1, 31, 32, 33, 64, 65, 130):
        labels_a = (rng.random((10, L)) < 2 / L).astype(np.uint8)
        labels_b = (rng.random((10, L)) < 2 / L).astype(np.uint8)
        labels_a[labels_a.sum(1) == 0, 0] = 1
        labels_b[labels_b.sum(1) == 0, 0] = 1
        labels_a[0, L - 1] = labels_b[1, L - 1] = 1   # the last label counts
        expected = np.array([[int(any(labels_a[i, k] and labels_b[j, k]
                                      for k in range(L))) for j in range(10)]
                             for i in range(10)], dtype=np.uint8)
        assert expected[0, 1] == 1 and (L == 1 or not expected.all())
        masks_a, masks_b = label_masks(labels_a), label_masks(labels_b)
        assert masks_a.dtype == (np.uint32 if L <= 32 else np.uint64)
        # 3-row blocks and a remainder, then one block
        for block in blocks:
            monkeypatch.setattr(dataset, "AFFINITY_BLOCK", block)
            A = build_affinity(masks_a, masks_b)
            assert A.dtype == np.uint8
            assert np.array_equal(A, expected)


def test_affinity_width_mismatch_raises():
    # one uint32 word against two uint64 words, one uint64 word against
    # two, and a uint32 word against a uint64 word
    for L_a, L_b in ((3, 70), (33, 70), (3, 33)):
        with pytest.raises(ShapeError):
            build_affinity(label_masks(np.ones((2, L_a), np.uint8)),
                           label_masks(np.ones((2, L_b), np.uint8)))


@pytest.mark.parametrize("bad", [
    np.ones((2, 24), np.uint8),     # the 0/1 labels themselves
    np.ones((2, 24), np.uint32),    # 24 one-bit "words"
    np.ones((2, 1), np.float32),
    np.ones(2, np.uint64),
    [[1], [1]],
])
def test_affinity_rejects_what_label_masks_did_not_make(bad):
    masks = label_masks(np.ones((2, 24), np.uint8))
    for args in ((bad, masks), (masks, bad)):
        with pytest.raises(TypeError, match="label_masks output"):
            build_affinity(*args)


@settings(max_examples=50, deadline=None)
@given(label_matrices)
def test_affinity_symmetric_unit_diagonal(labels):
    masks = label_masks(labels)
    A = build_affinity(masks, masks)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 1)


# --- head/tail partition -----------------------------------------------------------

def test_split_head_tail_flickr_counts():
    counts = np.array([2000] * 4 + [200] * 10 + [50] * 10)
    is_head = split_head_tail(counts, threshold=2000)
    assert is_head.dtype == bool and is_head.shape == (24,)
    assert is_head.sum() == 4
    assert (~is_head).sum() == 20


def test_split_head_tail_extremes():
    counts = np.array([5, 10, 20])
    assert np.all(split_head_tail(counts, 1))
    assert not np.any(split_head_tail(counts, 21))


def test_split_head_tail_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        split_head_tail(np.array([1]), 0)


# --- query/retrieval splits ---------------------------------------------------------

def test_split_query_retrieval_counts_and_disjointness(tiny_dataset):
    from conftest import tiny_spec
    spec = tiny_spec()
    train, query, retrieval = split_query_retrieval(
        tiny_dataset, spec.class_counts(), queries_per_class=2, seed=0)
    # per primary class: min(2, pool size minus training draw) queries
    prim = primary_labels(tiny_dataset.labels)
    pool = np.bincount(prim, minlength=spec.num_classes)
    spare = np.maximum(pool - spec.class_counts(), 0)
    assert len(query) == int(np.minimum(spare, 2).sum())
    assert not (set(train) & set(query))
    assert not (set(query) & set(retrieval))
    assert not (set(train) & set(retrieval))
    assert len(train) + len(query) + len(retrieval) == tiny_dataset.n


def test_split_zero_queries(tiny_dataset):
    from conftest import tiny_spec
    spec = tiny_spec()
    train, query, retrieval = split_query_retrieval(
        tiny_dataset, spec.class_counts(), queries_per_class=0, seed=0)
    assert len(query) == 0
    assert len(train) + len(retrieval) == tiny_dataset.n


def test_split_errors_when_class_has_no_spare_samples():
    data = synthesize_long_tailed(LongTailSpec(groups=[(1, 4)], d_x=3, d_y=3),
                                  seed=0)
    with pytest.raises(ConfigError):
        split_query_retrieval(data, np.array([4]), queries_per_class=1, seed=0)


def test_split_train_counts_not_one_per_class(tiny_dataset):
    L = tiny_dataset.num_classes
    with pytest.raises(ShapeError, match=rf"train_per_class shape "
                                         rf"\({L + 1},\) != \({L},\)"):
        split_query_retrieval(tiny_dataset, np.ones(L + 1, np.int64),
                              queries_per_class=1, seed=0)


# --- file I/O --------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path, tiny_dataset):
    path = tmp_path / "d.lcmd"
    save_dataset(tiny_dataset, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.X, tiny_dataset.X)
    assert np.array_equal(loaded.Y, tiny_dataset.Y)
    assert np.array_equal(loaded.labels, tiny_dataset.labels)


def test_dataset_save_byte_deterministic(tmp_path, tiny_dataset):
    p1, p2 = tmp_path / "a.lcmd", tmp_path / "b.lcmd"
    save_dataset(tiny_dataset, p1)
    save_dataset(tiny_dataset, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_truncated_raises(tmp_path, tiny_dataset):
    path = tmp_path / "d.lcmd"
    save_dataset(tiny_dataset, path)
    (tmp_path / "t.lcmd").write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "t.lcmd")


def test_dataset_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.lcmd"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_dataset(path)


def test_dataset_hand_built_bytes():
    # 2 samples, d_x=2, d_y=1, L=3; labels rows [1,0,1] and [0,1,0]
    X = np.array([[1.5, -2.0], [0.0, 3.25]])
    Y = np.array([[4.0], [-1.0]])
    raw = b"LCMD" + struct.pack("<I", 1) + struct.pack("<QQQQ", 2, 2, 1, 3)
    raw += X.astype("<f8").tobytes() + Y.astype("<f8").tobytes()
    raw += bytes([0b101, 0b010])   # packed little-endian bit rows
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "hand.lcmd")
        with open(path, "wb") as f:
            f.write(raw)
        data = load_dataset(path)
    assert np.array_equal(data.X, X)
    assert np.array_equal(data.Y, Y)
    assert np.array_equal(data.labels, [[1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("header, match", [
    ((2, 1, 1, 0), "bad labels"),           # L = 0 leaves every row unlabeled
    ((0, 2**63, 1, 1), "bad X shape"),      # no rows, but a dim numpy rejects
])
def test_dataset_bad_header_rejected(tmp_path, header, match):
    n, d_x, d_y, _ = header
    path = tmp_path / "bad.lcmd"
    path.write_bytes(b"LCMD" + struct.pack("<I", 1) + struct.pack("<QQQQ", *header)
                     + bytes(8 * n * (d_x + d_y)))
    with pytest.raises(FormatError, match=match):
        load_dataset(path)


@pytest.mark.parametrize("d_x, d_y, offset", [(0, 2, 16), (2, 0, 24)])
def test_dataset_zero_feature_width_rejected(tmp_path, d_x, d_y, offset):
    # a well-formed file without image or without text features: no net
    # can take it, so it is rejected at load, as L = 0 is
    data = MultiModalDataset(X=np.zeros((3, d_x)), Y=np.zeros((3, d_y)),
                             labels=np.ones((3, 1), np.uint8))
    path = tmp_path / "d.lcmd"
    save_dataset(data, path)
    with pytest.raises(FormatError, match=f"at offset {offset}"):
        load_dataset(path)


def test_dataset_every_cut_and_bit_flip(tmp_path):
    from conftest import cuts_and_flips
    # L = 1: a flip of label bit 0 unlabels a row, a flip of L's bit 0
    # makes L = 0; both must end in FormatError, not a bare ValueError.
    # Bit 7 of a label byte is a pad bit: it must not load either, or the
    # file would save back to other bytes
    rng = np.random.default_rng(0)
    data = MultiModalDataset(X=rng.normal(size=(3, 2)),
                             Y=rng.normal(size=(3, 1)),
                             labels=np.ones((3, 1), np.uint8))
    path = tmp_path / "d.lcmd"
    save_dataset(data, path)
    raw = path.read_bytes()
    bad, back = tmp_path / "bad.lcmd", tmp_path / "back.lcmd"
    rejected = loaded = 0
    for case in cuts_and_flips(raw):
        bad.write_bytes(case)
        try:
            damaged = load_dataset(bad)
        except FormatError:
            rejected += 1
            continue
        save_dataset(damaged, back)
        assert back.read_bytes() == case
        loaded += 1
    assert rejected >= len(raw)      # at least every cut
    assert loaded > 0


@pytest.mark.parametrize("L, row, byte", [(1, 0, 0), (1, 2, 0), (10, 1, 1),
                                          (10, 2, 1)])
def test_dataset_label_pad_bit_rejected(tmp_path, L, row, byte):
    # each label row is ceil(L/8) bytes, whose bits past L are pad bits
    rng = np.random.default_rng(0)
    data = MultiModalDataset(X=rng.normal(size=(3, 2)),
                             Y=rng.normal(size=(3, 1)),
                             labels=np.ones((3, L), np.uint8))
    path = tmp_path / "d.lcmd"
    save_dataset(data, path)
    raw = bytearray(path.read_bytes())
    width = (L + 7) // 8
    at = len(raw) - 3 * width + row * width + byte
    for bit in range(L % 8, 8):
        flipped = raw.copy()
        flipped[at] ^= 1 << bit
        path.write_bytes(flipped)
        with pytest.raises(FormatError, match=re.escape(
                f"nonzero pad bits in label row {row} at offset {at}")):
            load_dataset(path)


# --- invariants -------------------------------------------------------------------

def test_dataset_rejects_mismatched_rows():
    with pytest.raises(ShapeError):
        MultiModalDataset(X=np.zeros((2, 2)), Y=np.zeros((3, 2)),
                          labels=np.ones((2, 1), np.uint8))


def test_dataset_rejects_unlabeled_sample():
    with pytest.raises(ValueError):
        MultiModalDataset(X=np.zeros((1, 2)), Y=np.zeros((1, 2)),
                          labels=np.zeros((1, 2), np.uint8))
