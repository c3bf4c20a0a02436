import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcmh import retrieval
from ltcmh.errors import EvaluationError, FormatError, ShapeError
from ltcmh.retrieval import (BinaryCodeMatrix, average_precision,
                             binarize, evaluate, hamming_matrix, load_codes,
                             query_groups, save_codes, write_result_csv)


def _random_codes(rng, n, c):
    return binarize(rng.normal(size=(c, n)))


# --- binarize ---------------------------------------------------------------------

def test_binarize_all_positive():
    codes = binarize(np.full((5, 3), 2.0))
    assert np.array_equal(codes.unpack(), np.ones((3, 5)))


def test_binarize_zero_matrix_tie_rule():
    codes = binarize(np.zeros((4, 2)))
    assert np.array_equal(codes.unpack(), np.ones((2, 4)))


def test_binarize_matches_sign_loop(rng):
    V = rng.normal(size=(10, 6))
    codes = binarize(V)
    bits = codes.unpack()
    for i in range(6):
        for k in range(10):
            assert bits[i, k] == (1.0 if V[k, i] >= 0 else -1.0)


def test_binarize_pad_bits_zero(rng):
    codes = binarize(rng.normal(size=(10, 4)))   # 54 pad bits per word
    assert np.all(codes.words >> np.uint64(10) == 0)


def test_binarize_rejects_nonfinite():
    with pytest.raises(EvaluationError):
        binarize(np.array([[np.nan], [1.0]]))


# --- hamming ----------------------------------------------------------------------

def _unpacked_distances(a, b):
    """Hamming distances from the inner-product identity on unpacked +-1
    codes, (c - <u, v>) / 2, sharing no code with hamming_matrix."""
    return (a.c - a.unpack() @ b.unpack().T) / 2


def test_hamming_identical_and_eq5_at_zero(rng):
    codes = _random_codes(rng, 1, 16)
    assert hamming_matrix(codes, codes)[0, 0] == 0
    v = codes.unpack()[0]
    assert v @ v == 16.0


def test_hamming_complementary_c32():
    ones = binarize(np.full((32, 1), 1.0))
    neg = binarize(np.full((32, 1), -1.0))
    assert hamming_matrix(ones, neg)[0, 0] == 32
    assert ones.unpack()[0] @ neg.unpack()[0] == -32.0


@pytest.mark.parametrize("c", [32, 64])
def test_hamming_two_oracles(c, rng):
    a = _random_codes(rng, 8, c)
    b = _random_codes(rng, 8, c)
    ua, ub = a.unpack(), b.unpack()
    D = hamming_matrix(a, b)
    for i in range(8):
        for j in range(8):
            # bit-loop oracle
            assert D[i, j] == int((ua[i] != ub[j]).sum())
            # Eq. of the inner-product identity
            assert D[i, j] == (c - ua[i] @ ub[j]) / 2


def test_hamming_width_mismatch(rng):
    with pytest.raises(ShapeError):
        hamming_matrix(_random_codes(rng, 2, 1), _random_codes(rng, 2, 2))


def test_hamming_matrix_matches_pairwise(rng):
    # c = 48 leaves pad bits in every word; the query and database sizes differ
    q = _random_codes(rng, 5, 48)
    db = _random_codes(rng, 7, 48)
    assert np.array_equal(hamming_matrix(q, db), _unpacked_distances(q, db))


@pytest.mark.parametrize("c, dtype", [(8, np.uint8), (255, np.uint8),
                                      (256, np.uint16), (300, np.uint16)])
def test_hamming_matrix_dtype(c, dtype, rng):
    # the last 4 database rows complement the queries, so the largest
    # distance, c itself, must fit the dtype
    Vq = rng.normal(size=(c, 4))
    q = binarize(Vq)
    db = binarize(np.hstack([rng.normal(size=(c, 6)), -Vq]))
    D = hamming_matrix(q, db)
    assert D.dtype == dtype
    assert np.array_equal(D, _unpacked_distances(q, db))
    assert D.max() == c


@pytest.mark.parametrize("c", [32, 33, 63, 64, 65, 96, 97, 128])
def test_hamming_matrix_word_edges(c, rng):
    # a word xored as uint32 at its widest and one bit past it, one word
    # short of full, exactly full, one bit into a second word, a second
    # word at and past 32 bits, and two full words
    q, db = _random_codes(rng, 6, c), _random_codes(rng, 9, c)
    D = hamming_matrix(q, db)
    assert D.dtype == np.uint8
    assert np.array_equal(D, _unpacked_distances(q, db))


def test_hamming_matrix_memory_per_pair(rng):
    # summing word by word keeps one uint64 xor of the pairs alive; an
    # n_q x n_db x words xor tensor would take 40 B per pair here
    n_q, n_db, c = 32, 20_000, 300
    q, db = _random_codes(rng, n_q, c), _random_codes(rng, n_db, c)
    tracemalloc.start()
    try:
        hamming_matrix(q, db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_q * n_db


def test_hamming_triangle_inequality(rng):
    codes = _random_codes(rng, 30, 40)
    D = hamming_matrix(codes, codes)
    for _ in range(200):
        i, j, k = rng.integers(0, 30, size=3)
        assert D[i, k] <= D[i, j] + D[j, k]


# --- ranking inside evaluate -------------------------------------------------------

def _sort_oracle_aps(q, ql, db, dl):
    """Per-query AP of the ranking by (distance, index), with relevance
    from shared labels."""
    D = _unpacked_distances(q, db)
    aps = []
    for i in range(q.n):
        order = sorted(range(db.n), key=lambda j: (D[i, j], j))
        aps.append(average_precision(
            [int(bool((ql[i] & dl[j]).any())) for j in order]))
    return np.array(aps)


def test_rank_all_equal_codes_identity_order():
    # every distance ties, so the ranking is the database order
    db = binarize(np.ones((8, 5)))
    dl = np.array([[0, 1], [1, 0], [0, 1], [1, 0], [1, 0]], np.uint8)
    ql = np.array([[1, 0]], np.uint8)
    result = evaluate(binarize(np.ones((8, 1))), ql, db, dl,
                      np.array([True, False]), "i2t")
    assert result.ap[0] == average_precision([0, 1, 0, 1, 1])


def test_rank_matches_sort_oracle(rng):
    # c = 4 makes most distances tie, so the index tie-break decides
    q = _random_codes(rng, 10, 4)
    db = _random_codes(rng, 20, 4)
    ql = (rng.random((10, 3)) < 0.4).astype(np.uint8)
    dl = (rng.random((20, 3)) < 0.4).astype(np.uint8)
    ql[ql.sum(1) == 0, 0] = 1
    dl[dl.sum(1) == 0, 0] = 1
    result = evaluate(q, ql, db, dl, np.array([True, False, False]), "i2t")
    assert np.array_equal(result.ap, _sort_oracle_aps(q, ql, db, dl))


def _random_labels(rng, n, L, p=0.3):
    labels = (rng.random((n, L)) < p).astype(np.uint8)
    labels[labels.sum(1) == 0, 0] = 1
    return labels


def _full_matrix_evaluate(q, ql, db, dl, is_head):
    """evaluate's ranking done in one piece: int64 label affinity, distances
    from the unpacked codes, one stable argsort of the n_q x n_db matrix."""
    relevant = (ql.astype(np.int64) @ dl.astype(np.int64).T) > 0
    rankings = np.argsort(_unpacked_distances(q, db), axis=1, kind="stable")
    ap = np.array([average_precision(relevant[i, rankings[i]])
                   for i in range(q.n)])
    tail = query_groups(ql, is_head)
    head = ~tail
    return (ap, float(ap.mean()),
            float(ap[head].mean()) if head.any() else 0.0,
            float(ap[tail].mean()) if tail.any() else 0.0)


def _assert_every_chunking_matches_full_matrix(monkeypatch, n_q, c, n_db,
                                               rng, L=5, p=0.3):
    q, db = _random_codes(rng, n_q, c), _random_codes(rng, n_db, c)
    ql, dl = _random_labels(rng, n_q, L, p), _random_labels(rng, n_db, L, p)
    part = np.arange(L) < 2
    ap, *maps = _full_matrix_evaluate(q, ql, db, dl, part)
    # one-row chunks (fewer pairs than one row), 16-row chunks and a
    # remainder (on the worker thread), then one chunk ranked inline
    for pairs in (n_db - 1, 16 * n_db, n_q * n_db):
        monkeypatch.setattr(retrieval, "EVAL_PAIRS", pairs)
        result = evaluate(q, ql, db, dl, part, "i2t")
        assert np.array_equal(result.ap, ap)
        assert [row[3] for row in result.rows()] == maps


@pytest.mark.parametrize("n_q", [16, 69])
@pytest.mark.parametrize("c", [4, 300])
def test_evaluate_bit_identical_to_full_matrix(n_q, c, rng, monkeypatch):
    # c = 4: most distances tie and the index tie-break decides (uint16
    # keys); c = 300: five words per code, uint16 distances, uint32 keys
    _assert_every_chunking_matches_full_matrix(monkeypatch, n_q, c, 150, rng)


@pytest.mark.parametrize("c, n_db", [(64, 150), (128, 150), (16, 5_000),
                                     (4, 5_000), (64, 5_000), (128, 5_000),
                                     (300, 5_000)])
def test_evaluate_bit_identical_to_full_matrix_wide_and_tied(c, n_db, rng,
                                                             monkeypatch):
    # c = 64 and 128: one and two full words (uint16 and uint32 keys at
    # n_db = 150); n_db = 5,000 puts up to hundreds of database items at
    # every distance, so the stable tie-break decides most of each ranking
    _assert_every_chunking_matches_full_matrix(monkeypatch, 69, c, n_db, rng)


def test_evaluate_two_label_words_bit_identical_to_full_matrix(
        rng, monkeypatch):
    # 70 labels pack into two uint64 words; at ~1.4 labels a row about
    # 12% of pairs share a label, some of them only in the second word
    _assert_every_chunking_matches_full_matrix(monkeypatch, 69, 16, 150, rng,
                                               L=70, p=0.02)


@pytest.mark.parametrize("fail_at", [None, 40])
def test_evaluate_layers_run_on_the_calling_thread(fail_at, rng, monkeypatch):
    # the worker only sorts; the affinity, distances and AP stay on the
    # caller's thread, and no thread outlives evaluate, even when AP raises
    caller, seen, calls = threading.get_ident(), set(), []
    error = RuntimeError("AP failed")

    def recorder(fn):
        def recorded(*args):
            seen.add(threading.get_ident())
            calls.append(fn.__name__)
            if fn is average_precision and calls.count(fn.__name__) == fail_at:
                raise error
            return fn(*args)
        return recorded

    for name in ("build_affinity", "hamming_matrix", "average_precision"):
        monkeypatch.setattr(retrieval, name, recorder(getattr(retrieval, name)))
    monkeypatch.setattr(retrieval, "EVAL_PAIRS", 8 * 500)
    q, db = _random_codes(rng, 69, 16), _random_codes(rng, 500, 16)
    ql, dl = _random_labels(rng, 69, 5), _random_labels(rng, 500, 5)
    part = np.array([True, True, False, False, False])
    before = threading.enumerate()
    if fail_at is None:
        evaluate(q, ql, db, dl, part, "i2t")
        assert calls.count("average_precision") == 69
    else:
        with pytest.raises(RuntimeError) as raised:
            evaluate(q, ql, db, dl, part, "i2t")
        assert raised.value is error
    assert calls.count("hamming_matrix") > 1
    assert seen == {caller}
    assert threading.enumerate() == before


def test_evaluate_memory_bounded(rng):
    # a full n_q x n_db ranking would allocate ~300 MB here; the chunked
    # one stays near 30 MB
    n_q, n_db, c, L = 240, 50_000, 16, 24
    q, db = _random_codes(rng, n_q, c), _random_codes(rng, n_db, c)
    ql, dl = _random_labels(rng, n_q, L), _random_labels(rng, n_db, L)
    part = np.array(np.arange(L) < 6)
    tracemalloc.start()
    try:
        evaluate(q, ql, db, dl, part, "i2t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


# --- average precision -------------------------------------------------------------

def test_ap_perfect_ranking():
    assert average_precision([1, 1]) == 1.0


def test_ap_ranks_one_and_three():
    assert average_precision([1, 0, 1]) == pytest.approx((1 + 2 / 3) / 2)


def test_ap_zero_relevant():
    assert average_precision([0, 0, 0]) == 0.0


def test_ap_all_relevant_first_is_one(rng):
    for _ in range(10):
        r = int(rng.integers(1, 6))
        n = int(rng.integers(r, 12))
        rel = [1] * r + [0] * (n - r)
        assert average_precision(rel) == 1.0


def _ap_prefix_sum(relevance):
    """average_precision through a prefix sum of hits, the form it replaced."""
    rel = np.asarray(relevance, dtype=bool)
    total = int(rel.sum())
    if total == 0:
        return 0.0
    hits = np.cumsum(rel)
    ranks = np.flatnonzero(rel) + 1
    return float((hits[ranks - 1] / ranks).sum() / total)


def test_ap_equals_prefix_sum_form(rng):
    lists = [np.zeros(50), np.ones(50), np.r_[np.zeros(49), 1.0], [1], [0]]
    lists += [rng.random(int(rng.integers(1, 2000))) < p
              for p in (0.01, 0.1, 0.5, 0.9) for _ in range(25)]
    for rel in lists:
        assert average_precision(rel) == _ap_prefix_sum(rel)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_ap_in_unit_interval(rel):
    ap = average_precision(rel)
    assert 0.0 <= ap <= 1.0


# --- evaluate ----------------------------------------------------------------------

def test_evaluate_single_perfect_query():
    codes = binarize(np.ones((8, 1)))
    labels = np.array([[1, 0]], dtype=np.uint8)
    result = evaluate(codes, labels, codes, labels,
                      np.array([True, False]), "i2t")
    assert result.map_all == 1.0
    assert result.rows()[0][3:] == (1.0, 1)


def test_evaluate_matches_brute_force(rng):
    q = _random_codes(rng, 6, 16)
    db = _random_codes(rng, 15, 16)
    ql = (rng.random((6, 3)) < 0.5).astype(np.uint8)
    dl = (rng.random((15, 3)) < 0.5).astype(np.uint8)
    ql[ql.sum(1) == 0, 0] = 1
    dl[dl.sum(1) == 0, 0] = 1
    part = np.array([True, True, False])
    result = evaluate(q, ql, db, dl, part, "t2i")
    aps = _sort_oracle_aps(q, ql, db, dl)
    assert result.map_all == pytest.approx(np.mean(aps))
    tail = ql[:, 2] > 0
    assert np.array_equal(result.is_tail, tail)
    _, (*_, map_head, _), (*_, map_tail, _) = result.rows()
    if tail.any():
        assert map_tail == pytest.approx(np.mean(np.array(aps)[tail]))
    if (~tail).any():
        assert map_head == pytest.approx(np.mean(np.array(aps)[~tail]))


def test_evaluate_empty_queries_raises(rng):
    db = _random_codes(rng, 3, 8)
    empty = BinaryCodeMatrix(c=8, words=np.empty((0, 1), np.uint64))
    with pytest.raises(EvaluationError):
        evaluate(empty, np.empty((0, 1), np.uint8), db,
                 np.ones((3, 1), np.uint8), np.array([True]), "i2t")


def test_evaluate_empty_database_raises(rng, monkeypatch):
    q = _random_codes(rng, 3, 8)
    empty = BinaryCodeMatrix(c=8, words=np.empty((0, 1), np.uint64))
    monkeypatch.setattr("ltcmh.retrieval.hamming_matrix", None)  # no ranking
    with pytest.raises(EvaluationError, match="empty database"):
        evaluate(q, np.ones((3, 2), np.uint8), empty,
                 np.empty((0, 2), np.uint8), np.array([True, False]), "i2t")


@pytest.mark.parametrize("is_head", [[True], [True, False, False],
                                     [[True, False]]])
def test_evaluate_head_flags_not_one_per_label(rng, monkeypatch, is_head):
    q, db = _random_codes(rng, 3, 8), _random_codes(rng, 4, 8)
    monkeypatch.setattr("ltcmh.retrieval.hamming_matrix", None)  # no ranking
    with pytest.raises(ShapeError, match="is_head"):
        evaluate(q, np.ones((3, 2), np.uint8), db, np.ones((4, 2), np.uint8),
                 np.array(is_head), "i2t")


def test_evaluate_label_width_mismatch(rng):
    codes = _random_codes(rng, 2, 8)
    with pytest.raises(ShapeError):
        evaluate(codes, np.ones((2, 2), np.uint8), codes,
                 np.ones((2, 3), np.uint8), np.array([True, False]), "i2t")


@pytest.mark.parametrize("n_ql, n_dl", [(3, 4), (2, 5), (2, 3)])
def test_evaluate_label_rows_mismatch(rng, n_ql, n_dl):
    # one label row too many or too few on either side; a database label
    # row past the codes would otherwise be ignored without an error
    q, db = _random_codes(rng, 2, 8), _random_codes(rng, 4, 8)
    with pytest.raises(ShapeError):
        evaluate(q, np.ones((n_ql, 2), np.uint8), db,
                 np.ones((n_dl, 2), np.uint8), np.array([True, False]), "i2t")


def test_query_groups_any_tail_rule():
    part = np.array([True, False])
    labels = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    assert list(query_groups(labels, part)) == [False, True, True]


def test_evaluate_db_shuffle_invariance(rng):
    # no distance ties across relevance: MAP must survive db reordering
    q = binarize(np.ones((16, 1)))
    V = np.ones((16, 4))
    V[:4, 1] *= -1
    V[:8, 2] *= -1
    V[:12, 3] *= -1
    db = binarize(V)
    ql = np.array([[1, 0]], dtype=np.uint8)
    dl = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8)
    part = np.array([True, False])
    base = evaluate(q, ql, db, dl, part, "i2t").map_all
    perm = rng.permutation(4)
    db2 = BinaryCodeMatrix(c=16, words=db.words[perm])
    shuffled = evaluate(q, ql, db2, dl[perm], part, "i2t").map_all
    assert shuffled == pytest.approx(base)


def test_result_csv_table_shape(tmp_path, rng):
    q = _random_codes(rng, 4, 16)
    labels = np.array([[1, 0]] * 2 + [[0, 1]] * 2, dtype=np.uint8)
    part = np.array([True, False])
    res_i = evaluate(q, labels, q, labels, part, "i2t")
    res_t = evaluate(q, labels, q, labels, part, "t2i")
    path = tmp_path / "result.csv"
    write_result_csv(path, [res_i, res_t])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "direction,group,code_bits,map,num_queries"
    rows = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert rows == [("i2t", "all"), ("i2t", "head"), ("i2t", "tail"),
                    ("t2i", "all"), ("t2i", "head"), ("t2i", "tail")]


@pytest.mark.parametrize("pairs", [9, 9 * 7], ids=["chunks", "one_chunk"])
@pytest.mark.parametrize("tail", [False, True], ids=["all_head", "all_tail"])
def test_empty_group_reads_map_zero(tmp_path, rng, monkeypatch, pairs, tail):
    # every query in one group: in rows() and the CSV the other group reads
    # map 0 with 0 queries, and the full group the mean of every AP
    monkeypatch.setattr(retrieval, "EVAL_PAIRS", pairs)
    q, db = _random_codes(rng, 7, 16), _random_codes(rng, 9, 16)
    ql, dl = _random_labels(rng, 7, 3), _random_labels(rng, 9, 3)
    result = evaluate(q, ql, db, dl, np.full(3, not tail), "i2t")
    full, empty = ("tail", "head") if tail else ("head", "tail")
    mean = float(result.ap.mean())
    assert mean > 0
    want = {"all": (mean, 7), full: (mean, 7), empty: (0.0, 0)}
    groups = ("all", "head", "tail")
    assert result.rows() == [("i2t", g, 16, *want[g]) for g in groups]
    write_result_csv(tmp_path / "result.csv", [result])
    lines = (tmp_path / "result.csv").read_text().splitlines()
    assert lines[1:] == [f"i2t,{g},16,{want[g][0]:.6f},{want[g][1]}"
                         for g in groups]
    assert f"i2t,{empty},16,0.000000,0" in lines


# --- code file I/O -----------------------------------------------------------------

def test_codes_roundtrip(tmp_path, rng):
    codes = _random_codes(rng, 9, 48)
    path = tmp_path / "c.lcmb"
    save_codes(path, codes)
    loaded = load_codes(path)
    assert loaded.c == 48
    assert np.array_equal(loaded.words, codes.words)


def test_codes_byte_deterministic(tmp_path, rng):
    codes = _random_codes(rng, 4, 16)
    p1, p2 = tmp_path / "a.lcmb", tmp_path / "b.lcmb"
    save_codes(p1, codes)
    save_codes(p2, codes)
    assert p1.read_bytes() == p2.read_bytes()


def test_codes_hand_built_bytes(tmp_path):
    words = np.array([[0b1011], [0b0001]], dtype="<u8")
    raw = b"LCMB" + struct.pack("<I", 1) + struct.pack("<QQ", 2, 4)
    raw += words.tobytes()
    path = tmp_path / "hand.lcmb"
    path.write_bytes(raw)
    codes = load_codes(path)
    assert codes.c == 4
    assert np.array_equal(codes.unpack(),
                          [[1.0, 1.0, -1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])


def test_codes_bad_magic(tmp_path):
    path = tmp_path / "bad.lcmb"
    path.write_bytes(b"XXXX" + b"\x00" * 24)
    with pytest.raises(FormatError):
        load_codes(path)


def test_codes_every_cut_and_bit_flip(tmp_path, rng):
    from conftest import cuts_and_flips
    # c = 10 leaves 54 pad bits per row: a flip there must not load, since
    # hamming would count it as distance
    path = tmp_path / "c.lcmb"
    save_codes(path, _random_codes(rng, 3, 10))
    raw = path.read_bytes()
    bad = tmp_path / "bad.lcmb"
    loaded = 0
    for case in cuts_and_flips(raw):
        bad.write_bytes(case)
        try:
            codes = load_codes(bad)
        except FormatError:
            continue
        loaded += 1
        # repacking the logical bits zeroes the pad bits
        assert np.array_equal(binarize(codes.unpack().T).words, codes.words)
    assert 0 < loaded < 2 * len(raw)


def test_codes_truncated(tmp_path, rng):
    codes = _random_codes(rng, 4, 64)
    path = tmp_path / "c.lcmb"
    save_codes(path, codes)
    (tmp_path / "t.lcmb").write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_codes(tmp_path / "t.lcmb")
