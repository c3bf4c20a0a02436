"""Long-tailed paired multi-modal datasets: synthesis, label trimming,
affinity construction, head/tail partitioning, splits, and file I/O.

A dataset pairs an image-side feature matrix X (n x d_x) with a text-side
matrix Y (n x d_y) and a multi-hot label matrix (n x L). The synthetic
generator plants one latent center per class and emits both modalities as
noisy linear images of the same latent, so cross-modal class structure is
shared by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .tensor import (read_array, read_bit_rows, read_end, read_header,
                     write_array, write_header)

DATASET_MAGIC = b"LCMD"
DATASET_FORMAT_VERSION = 1
DATASET_HEADER = "4Q"   # n, d_x, d_y, L
AFFINITY_BLOCK = 1024   # rows of masks_a ANDed at a time by build_affinity


@dataclass
class MultiModalDataset:
    X: np.ndarray        # n x d_x
    Y: np.ndarray        # n x d_y
    labels: np.ndarray   # n x L, values in {0, 1}

    def __post_init__(self):
        n = self.X.shape[0]
        if self.Y.shape[0] != n or self.labels.shape[0] != n:
            raise ShapeError(
                f"row counts differ: X {self.X.shape}, Y {self.Y.shape}, "
                f"labels {self.labels.shape}"
            )
        if np.any(self.labels.sum(axis=1) < 1):
            raise ValueError("every sample needs at least one label")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def num_classes(self):
        return self.labels.shape[1]


@dataclass(frozen=True)
class LongTailSpec:
    """Shape of a synthetic long-tailed training pool.

    ``groups`` lists (num_classes, samples_per_class) blocks in descending
    sample count, e.g. the Flickr-style shape is
    ``[(4, 2000), (10, 200), (10, 50)]``. ``extra_per_class`` adds pool
    samples beyond the training counts so query/retrieval splits have
    material to draw from.
    """

    groups: Sequence[tuple]
    d_x: int = 32
    d_y: int = 24
    extra_per_class: int = 0
    mixed_fraction: float = 0.2
    latent_dim: int = 16
    noise_std: float = 0.5

    def __post_init__(self):
        counts = [c for _, c in self.groups]
        if any(k < 1 or c < 1 for k, c in self.groups):
            raise ConfigError("group counts must be >= 1")
        if counts != sorted(counts, reverse=True):
            raise ConfigError("groups must be sorted by descending samples_per_class")
        if not 0.0 <= self.mixed_fraction <= 1.0:
            raise ConfigError("mixed_fraction must be in [0, 1]")
        if min(self.d_x, self.d_y, self.latent_dim) < 1:
            raise ConfigError("d_x, d_y and latent_dim must be >= 1")
        if self.extra_per_class < 0:
            raise ConfigError("extra_per_class must be >= 0")
        if not 0.0 <= self.noise_std < np.inf:
            raise ConfigError("noise_std must be finite and >= 0")

    @property
    def num_classes(self):
        return sum(k for k, _ in self.groups)

    def class_counts(self):
        """Per-class training sample counts, classes ordered head-first."""
        out = []
        for k, c in self.groups:
            out.extend([c] * k)
        return np.asarray(out, dtype=np.int64)


def synthesize_long_tailed(spec: LongTailSpec, seed: int) -> MultiModalDataset:
    """Generate a paired dataset whose per-class counts match the spec.

    Each class k gets a latent center z_k; a sample of class k is
    A_x z + noise on the image side and A_y z + noise on the text side for
    shared fixed maps A_x, A_y. A ``mixed_fraction`` of each class's samples
    mixes in a second class's latent and carries both labels.
    """
    rng = np.random.default_rng(seed)
    L = spec.num_classes
    counts = spec.class_counts() + spec.extra_per_class
    centers = rng.normal(size=(L, spec.latent_dim)) * 2.0
    a_x = rng.normal(size=(spec.d_x, spec.latent_dim)) / np.sqrt(spec.latent_dim)
    a_y = rng.normal(size=(spec.d_y, spec.latent_dim)) / np.sqrt(spec.latent_dim)

    n = int(counts.sum())
    X = np.empty((n, spec.d_x))
    Y = np.empty((n, spec.d_y))
    labels = np.zeros((n, L), dtype=np.uint8)
    start = 0
    for k, m in enumerate(counts.tolist()):
        rows = slice(start, start + m)
        start += m
        n_mixed = int(np.floor(spec.mixed_fraction * m)) if L > 1 else 0
        second = rng.integers(0, L - 1, size=n_mixed) if n_mixed else np.empty(0, int)
        second = np.where(second >= k, second + 1, second)
        labels[rows, k] = 1
        labels[rows.start + np.arange(n_mixed), second] = 1
        z = np.tile(centers[k], (m, 1))
        z[:n_mixed] = 0.5 * (centers[k] + centers[second])
        z = z + rng.normal(size=z.shape) * 0.3
        X[rows] = z @ a_x.T + rng.normal(size=(m, spec.d_x)) * spec.noise_std
        Y[rows] = z @ a_y.T + rng.normal(size=(m, spec.d_y)) * spec.noise_std

    return MultiModalDataset(X=X, Y=Y, labels=labels)


def check_split_keys(min_keep=1, max_keep=1, queries_per_class=0):
    """The rules trim_labels and split_query_retrieval apply to their keys."""
    if not 1 <= min_keep <= max_keep:
        raise ConfigError(f"need 1 <= min_keep <= max_keep, got "
                          f"min_keep={min_keep}, max_keep={max_keep}")
    if queries_per_class < 0:
        raise ConfigError("queries_per_class must be >= 0")


def trim_labels(labels: np.ndarray, min_keep: int = 2, max_keep: int = 3,
                seed: int = 0) -> np.ndarray:
    """Reduce rows with more than max_keep labels to min_keep..max_keep labels.

    Kept labels are the globally rarest ones (smallest column sums in the
    input matrix), ties broken by ascending class index; the keep count per
    row is drawn uniformly from [min_keep, max_keep]. Rows already at or
    below max_keep labels pass through unchanged.
    """
    check_split_keys(min_keep, max_keep)
    labels = np.asarray(labels)
    per_row = labels.sum(axis=1)
    if np.any(per_row < 1):
        raise ValueError("every row needs at least one label")
    rng = np.random.default_rng(seed)
    global_counts = labels.sum(axis=0)
    out = labels.copy()
    for i in np.flatnonzero(per_row > max_keep):
        present = np.flatnonzero(labels[i])
        keep_n = int(rng.integers(min_keep, max_keep + 1))
        # rarest first; lexsort's last key dominates, index breaks ties
        order = np.lexsort((present, global_counts[present]))
        keep = present[order[:keep_n]]
        out[i] = 0
        out[i, keep] = 1
    return out


def label_masks(labels: np.ndarray) -> np.ndarray:
    """Pack each row's L labels into words whose bit k (little-endian) is
    set iff the row has label k: one uint32 word for L <= 32, else
    ceil(L/64) uint64 words, pad bits zero. build_affinity takes only
    these masks."""
    labels = np.asarray(labels)
    n, L = labels.shape
    word, bits = (np.uint32, 32) if L <= 32 else (np.uint64, -(-L // 64) * 64)
    padded = np.zeros((n, bits), dtype=bool)
    np.greater(labels, 0, out=padded[:, :L])
    # rows are whole bytes, so packing the flat array packs each row; at
    # 100,560 x 24 labels it takes half the time of packing along axis 1
    flat = np.packbits(padded, bitorder="little")
    return flat.reshape(n, bits // 8).view(word)


def build_affinity(masks_a: np.ndarray, masks_b: np.ndarray) -> np.ndarray:
    """a_ij = 1 iff rows i (of masks_a) and j (of masks_b) share a label,
    as a uint8 array, from two label_masks outputs; any other array, such
    as the 0/1 labels, raises TypeError, and masks of different word
    widths ShapeError. The words are ANDed one column at a time, ORed
    across columns and compared with 0, AFFINITY_BLOCK rows of masks_a at
    a time, so beside the result one AFFINITY_BLOCK x n_b block of words
    exists (two with more than one word). NumPy ANDs and compares uint32
    words, those of L <= 32 labels, twice as fast as uint64 ones."""
    for masks in (masks_a, masks_b):
        if not (isinstance(masks, np.ndarray) and masks.ndim == 2 and (
                masks.dtype == np.uint64 or masks.dtype == np.uint32
                and masks.shape[1] == 1)):
            raise TypeError(
                f"build_affinity takes label_masks output, not "
                f"{getattr(masks, 'dtype', type(masks).__name__)} "
                f"{np.shape(masks)}")
    if (masks_a.dtype, masks_a.shape[1]) != (masks_b.dtype, masks_b.shape[1]):
        raise ShapeError(
            f"label mask widths differ: {masks_a.shape[1]} {masks_a.dtype} vs "
            f"{masks_b.shape[1]} {masks_b.dtype} words")
    out = np.empty((masks_a.shape[0], masks_b.shape[0]), dtype=np.uint8)
    words_b = masks_b.T
    for s in range(0, masks_a.shape[0], AFFINITY_BLOCK):
        words_a = masks_a[s:s + AFFINITY_BLOCK].T
        shared = words_a[0][:, None] & words_b[0]
        for a_word, b_word in zip(words_a[1:], words_b[1:]):
            shared |= a_word[:, None] & b_word
        np.not_equal(shared, 0, out=out[s:s + AFFINITY_BLOCK])
        del shared   # freed before the next block's is made
    return out


def split_head_tail(class_counts: np.ndarray, threshold: int) -> np.ndarray:
    """is_head, a bool per class: true iff its training count is >=
    threshold."""
    if threshold < 1:
        raise ConfigError("threshold must be >= 1")
    return np.asarray(class_counts, dtype=np.int64) >= threshold


def primary_labels(labels: np.ndarray) -> np.ndarray:
    """First set label per row; used to attribute multi-label samples to one
    class when carving splits."""
    return np.argmax(np.asarray(labels) > 0, axis=1)


def split_query_retrieval(dataset: MultiModalDataset,
                          train_per_class: np.ndarray,
                          queries_per_class: int, seed: int = 0):
    """Carve (train, query, retrieval) index sets out of the full pool.

    Per class (by primary label): train_per_class[k] samples go to training,
    then queries_per_class to the query set, the remainder to the retrieval
    set. A class with fewer spare samples than queries_per_class contributes
    all its non-training samples as queries; a class with no non-training
    samples is a configuration error when queries are requested.
    """
    train_per_class = np.asarray(train_per_class, dtype=np.int64)
    L = dataset.num_classes
    if train_per_class.shape != (L,):
        raise ShapeError(
            f"train_per_class shape {train_per_class.shape} != ({L},)"
        )
    check_split_keys(queries_per_class=queries_per_class)
    rng = np.random.default_rng(seed)
    prim = primary_labels(dataset.labels)
    train, query, retrieval = [], [], []
    for k in range(L):
        idx = np.flatnonzero(prim == k)
        rng.shuffle(idx)
        t = min(int(train_per_class[k]), idx.size)
        rest = idx[t:]
        if queries_per_class > 0 and rest.size == 0:
            raise ConfigError(f"class {k} has no non-training samples for queries")
        q = min(queries_per_class, rest.size)
        train.append(idx[:t])
        query.append(rest[:q])
        retrieval.append(rest[q:])
    train = np.sort(np.concatenate(train))
    query = np.sort(np.concatenate(query))
    retrieval = np.sort(np.concatenate(retrieval))
    return train, query, retrieval


# --- file I/O ----------------------------------------------------------------

def save_dataset(dataset: MultiModalDataset, path):
    with open(path, "wb") as f:
        write_header(f, DATASET_MAGIC, DATASET_FORMAT_VERSION, DATASET_HEADER,
                     *dataset.X.shape, dataset.Y.shape[1], dataset.num_classes)
        write_array(f, dataset.X, "<f8")
        write_array(f, dataset.Y, "<f8")
        labels = dataset.labels.astype(np.uint8, copy=False)
        write_array(f, np.packbits(labels, axis=1, bitorder="little"),
                    np.uint8)


def load_dataset(path) -> MultiModalDataset:
    with open(path, "rb") as f:
        n, d_x, d_y, L = read_header(f, DATASET_MAGIC, DATASET_FORMAT_VERSION,
                                     "dataset", DATASET_HEADER)
        if d_x == 0 or d_y == 0:
            raise FormatError(f"zero feature width d_x={d_x}, d_y={d_y} "
                              f"at offset {16 if d_x == 0 else 24}")
        X = read_array(f, "<f8", (n, d_x), "X")
        Y = read_array(f, "<f8", (n, d_y), "Y")
        labels_at = f.tell()
        packed = read_bit_rows(f, np.uint8, n, L, "label")
        read_end(f)
    labels = np.unpackbits(packed, axis=1, bitorder="little")[:, :L]
    try:
        return MultiModalDataset(X=X, Y=Y, labels=labels)
    except ValueError as e:
        raise FormatError(f"bad labels at offset {labels_at}: {e}") from None
