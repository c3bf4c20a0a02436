"""Hamming-space retrieval and mean-average-precision evaluation.

Codes are bit-packed: each sample's c logical bits (bit set <=> feature
entry >= 0, i.e. logical +1) live in ceil(c/64) uint64 words, pad bits zero.
Hamming distance is popcount of xor, which equals (c - <+-1, +-1>) / 2.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import build_affinity, label_masks
from .errors import EvaluationError, ShapeError
from .tensor import (read_bit_rows, read_end, read_header, write_array,
                     write_header)

CODES_MAGIC = b"LCMB"
CODES_FORMAT_VERSION = 1
CODES_HEADER = "2Q"   # n, c
EVAL_PAIRS = 2**21   # (query, database item) pairs ranked at a time by evaluate


@dataclass
class BinaryCodeMatrix:
    c: int
    words: np.ndarray   # n x ceil(c/64), uint64

    @property
    def n(self):
        return self.words.shape[0]

    def unpack(self) -> np.ndarray:
        """Logical bits as a +-1 float matrix (n x c)."""
        bytes_ = self.words.astype("<u8").view(np.uint8).reshape(self.n, -1)
        bits = np.unpackbits(bytes_, axis=1, bitorder="little")[:, :self.c]
        return np.where(bits > 0, 1.0, -1.0)


def binarize(V: np.ndarray) -> BinaryCodeMatrix:
    """Pack sign codes of a (c x samples) feature matrix; entry >= 0 -> bit 1."""
    V = np.asarray(V, dtype=np.float64)
    if not np.all(np.isfinite(V)):
        raise EvaluationError("features must be finite")
    c, n = V.shape
    padded = np.zeros((n, (c + 63) // 64 * 64), dtype=np.uint8)
    padded[:, :c] = V.T >= 0.0
    packed = np.packbits(padded, axis=1, bitorder="little")
    return BinaryCodeMatrix(c=c, words=packed.view("<u8"))


def hamming_matrix(queries: BinaryCodeMatrix, db: BinaryCodeMatrix) -> np.ndarray:
    """All-pairs Hamming distances (n_query x n_db) in the narrowest unsigned
    dtype that holds c: uint8 for c <= 255, uint16 for c <= 65535. Summed
    one 64-bit word at a time (each adds at most 64, the total at most c).
    A word whose bits (pad bits are zero) fit in 32 is xored as uint32,
    whose popcount NumPy runs faster than uint64's or uint16's, so the
    largest temporary is one n_query x n_db xor of 4 or 8 bytes a pair."""
    if queries.c != db.c:
        raise ShapeError(f"code lengths differ: {queries.c} vs {db.c}")
    D = np.zeros((queries.n, db.n), dtype=np.min_scalar_type(queries.c))
    for k, (q_word, db_word) in enumerate(zip(queries.words.T, db.words.T)):
        word = np.uint32 if queries.c - 64 * k <= 32 else np.uint64
        D += np.bitwise_count(q_word.astype(word, copy=False)[:, None]
                              ^ db_word.astype(word, copy=False)[None, :])
    return D


def average_precision(relevance: np.ndarray) -> float:
    """AP of a ranked 0/1 relevance list; 0 when nothing is relevant."""
    rel = np.asarray(relevance, dtype=bool)
    ranks = np.flatnonzero(rel) + 1
    total = ranks.size
    if total == 0:
        return 0.0
    # the k-th relevant item has exactly k hits at its rank
    return float((np.arange(1, total + 1) / ranks).sum() / total)


@dataclass
class RetrievalResult:
    direction: str
    code_bits: int
    ap: np.ndarray        # per-query AP
    is_tail: np.ndarray   # per-query tail flag (query_groups)

    def rows(self):
        """Table rows: (direction, group, code_bits, map, num_queries) for
        all, head and tail queries; a group with no queries reads map 0."""
        groups = {"all": np.ones_like(self.is_tail), "head": ~self.is_tail,
                  "tail": self.is_tail}
        return [(self.direction, group, self.code_bits,
                 float(self.ap[m].mean()) if m.any() else 0.0, int(m.sum()))
                for group, m in groups.items()]

    map_all = property(lambda self: self.rows()[0][3])
    map_tail = property(lambda self: self.rows()[2][3])


def query_groups(query_labels: np.ndarray, is_head: np.ndarray):
    """Each query's tail flag: a query is in the tail group if any of its
    labels is a tail class, and in the head group otherwise."""
    labels = np.asarray(query_labels) > 0
    return (labels & ~is_head[None, :]).any(axis=1)


def _rank_relevance(keys):
    """Sort each row of packed keys in place, then keep only each key's
    relevance bit: row i becomes query i's ranked 0/1 relevance."""
    keys.sort(axis=1)
    np.bitwise_and(keys, 1, out=keys)
    return keys


def evaluate(query_codes: BinaryCodeMatrix, query_labels: np.ndarray,
             db_codes: BinaryCodeMatrix, db_labels: np.ndarray,
             is_head: np.ndarray, direction: str) -> RetrievalResult:
    """Rank the database for every query and compute its AP, with its tail
    flag for the head/tail breakdown. Relevance = sharing at least one label.

    Each (query, database item) pair gets one unique unsigned key,
    distance << s | index << 1 | relevant, in the narrowest dtype that
    holds the largest key. Sorting a query's keys is then a stable sort by
    distance with ties in database order, and the low bit of the sorted
    keys is its ranked relevance. Queries are ranked max(1, EVAL_PAIRS //
    n_db) rows at a time, so beside the label_masks of both sides (one
    word a row for up to 32 labels) memory is O(EVAL_PAIRS) for any
    database. With more than one chunk, one worker thread sorts a chunk's
    keys while this thread keys the next chunk and scores the previous
    one; the affinity, distances and AP all run on the calling thread.
    Empty inputs raise EvaluationError and mismatched shapes ShapeError,
    before any ranking."""
    if query_codes.n == 0:
        raise EvaluationError("empty query set")
    if db_codes.n == 0:
        raise EvaluationError("empty database")
    if query_labels.shape[1] != db_labels.shape[1]:
        raise ShapeError(
            f"label widths differ: {query_labels.shape} vs {db_labels.shape}"
        )
    if np.shape(is_head) != (query_labels.shape[1],):
        raise ShapeError(f"is_head shape {np.shape(is_head)} != "
                         f"({query_labels.shape[1]},) label columns")
    if (query_labels.shape[0], db_labels.shape[0]) != (query_codes.n, db_codes.n):
        raise ShapeError(
            f"label rows {query_labels.shape[0]}, {db_labels.shape[0]} != "
            f"code rows {query_codes.n}, {db_codes.n}"
        )
    shift = 1 + (db_codes.n - 1).bit_length()
    key_dtype = np.min_scalar_type(
        query_codes.c << shift | (db_codes.n - 1) << 1 | 1)
    index_bits = np.arange(db_codes.n, dtype=key_dtype) << 1
    q_masks, db_masks = label_masks(query_labels), label_masks(db_labels)
    step = max(1, EVAL_PAIRS // db_codes.n)
    ap = np.empty(query_codes.n)

    def keyed(start):
        rows = slice(start, start + step)
        chunk = BinaryCodeMatrix(c=query_codes.c, words=query_codes.words[rows])
        relevant = build_affinity(q_masks[rows], db_masks)
        keys = np.left_shift(hamming_matrix(chunk, db_codes), shift,
                             dtype=key_dtype)
        keys |= index_bits
        keys |= relevant
        return keys

    def score(start, relevance):
        for i, rel in enumerate(relevance, start):
            ap[i] = average_precision(rel)

    starts = range(0, query_codes.n, step)
    if len(starts) == 1:
        score(0, _rank_relevance(keyed(0)))
    else:
        with ThreadPoolExecutor(1) as worker:
            ranked = None
            for start in starts:
                ranking = worker.submit(_rank_relevance, keyed(start))
                if ranked is not None:
                    score(start - step, ranked.result())
                ranked = ranking
            score(starts[-1], ranked.result())
    return RetrievalResult(direction=direction, code_bits=query_codes.c,
                           ap=ap, is_tail=query_groups(query_labels, is_head))


def write_result_csv(path, results):
    """Table-shaped CSV: one row per (direction, group)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["direction", "group", "code_bits", "map", "num_queries"])
        w.writerows([d, g, bits, f"{m:.6f}", nq]
                    for r in results for d, g, bits, m, nq in r.rows())


# --- code file I/O ------------------------------------------------------------

def save_codes(path, codes: BinaryCodeMatrix):
    with open(path, "wb") as f:
        write_header(f, CODES_MAGIC, CODES_FORMAT_VERSION, CODES_HEADER,
                     codes.n, codes.c)
        write_array(f, codes.words, "<u8")


def load_codes(path) -> BinaryCodeMatrix:
    with open(path, "rb") as f:
        n, c = read_header(f, CODES_MAGIC, CODES_FORMAT_VERSION, "codes",
                           CODES_HEADER)
        words = read_bit_rows(f, "<u8", n, c, "code")
        read_end(f)
    return BinaryCodeMatrix(c=int(c), words=words)
