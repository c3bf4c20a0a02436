"""End-to-end acceptance gate.

Each test asserts one headline guarantee of the package at its stated
tolerance: gradient fidelity, closed-form B-step optimality, the
Hamming/inner-product identity, MAP correctness against a from-definition
oracle, the head/tail eta ordering, the long-tail memory benefit,
the balance-term effect, B-step monotonicity, and bit-level determinism
of the full pipeline.
"""

import itertools
import time

import numpy as np
import pytest

from ltcmh import experiment, gradcheck, hash_learn, retrieval
from ltcmh.dataset import (build_affinity, primary_labels,
                           split_head_tail, synthesize_long_tailed)
from ltcmh.hash_learn import TrainConfig, train, update_B
from ltcmh.meta_embed import compute_prototypes, eta_ratio
from ltcmh.retrieval import (average_precision, binarize, evaluate,
                             hamming_matrix)

SCALED = ["groups=4x200,10x20,10x5"]   # Flickr-shaped counts scaled down 10x


def _scaled_cfg(seed, **kw):
    overrides = [f"seed={seed}"] + [f"{k}={v}" for k, v in kw.items()]
    return experiment.load_config(None, SCALED + overrides)


def _pipeline(seed, no_memory=False):
    cfg = _scaled_cfg(seed, no_memory=no_memory)
    data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=seed)
    trimmed, model, history = experiment.run_train(data, cfg)
    result = experiment.evaluate_direction(model, trimmed, "i2t")
    return trimmed, model, history, result


@pytest.fixture(scope="module")
def longtail_runs():
    """Full vs no-memory pipelines over 3 seeds (shared by criteria 6, 8, 9)."""
    start = time.monotonic()
    runs = {}
    for seed in (0, 1, 2):
        runs[seed] = {
            "full": _pipeline(seed, no_memory=False),
            "ablation": _pipeline(seed, no_memory=True),
        }
    runs["elapsed"] = time.monotonic() - start
    return runs


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    err = gradcheck.check_objective_grad(instances=50, seed=0,
                                         max_n=8, max_c=8)
    assert err < 1e-4
    assert time.monotonic() - start < 10.0


def test_criterion_2_b_step_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 16 // c + 1))
        Vx = rng.normal(size=(c, n))
        Vy = rng.normal(size=(c, n))
        S = Vx + Vy
        best = update_B(Vx, Vy)
        best_val = float((best * S).sum())
        for bits in itertools.product([-1.0, 1.0], repeat=c * n):
            cand = np.array(bits).reshape(c, n)
            assert float((cand * S).sum()) <= best_val + 1e-12
    assert time.monotonic() - start < 5.0


def test_criterion_3_hamming_identity():
    rng = np.random.default_rng(0)
    for c in (32, 64):
        a = binarize(rng.normal(size=(c, 1000)))
        b = binarize(rng.normal(size=(c, 1000)))
        ua, ub = a.unpack(), b.unpack()
        assert np.array_equal(hamming_matrix(a, b), (c - ua @ ub.T) / 2)


def test_criterion_4_map_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        nq = int(rng.integers(1, 6))
        nd = int(rng.integers(2, 12))
        L = int(rng.integers(2, 5))
        c = int(rng.integers(4, 20))
        q = binarize(rng.normal(size=(c, nq)))
        db = binarize(rng.normal(size=(c, nd)))
        ql = (rng.random((nq, L)) < 0.5).astype(np.uint8)
        dl = (rng.random((nd, L)) < 0.5).astype(np.uint8)
        ql[ql.sum(1) == 0, 0] = 1
        dl[dl.sum(1) == 0, 0] = 1
        is_head = rng.random(L) < 0.5
        result = evaluate(q, ql, db, dl, is_head, "i2t")
        # distances from the inner-product identity on unpacked codes
        D = (c - q.unpack() @ db.unpack().T) / 2
        aps = []
        for i in range(nq):
            dists = D[i]
            order = sorted(range(nd), key=lambda j: (dists[j], j))
            rel = [int(bool((ql[i] & dl[j]).any())) for j in order]
            aps.append(average_precision(rel))
        assert abs(result.map_all - np.mean(aps)) < 1e-12


def test_criterion_5_eta_ordering():
    cfg = _scaled_cfg(0)
    data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
    counts = data.labels.sum(axis=0).astype(np.int64)
    is_head = split_head_tail(counts, cfg["head_threshold"])
    bank = compute_prototypes(data.X, data.labels, is_head)
    prim = primary_labels(data.labels)
    head_samples = is_head[prim]
    intent = eta_ratio(data.X, bank, "intent_ratio", eta_max=10.0)
    printed = eta_ratio(data.X, bank, "as_printed", eta_max=10.0)
    assert intent[head_samples].mean() < intent[~head_samples].mean()
    assert printed[head_samples].mean() > printed[~head_samples].mean()


def test_criterion_6_longtail_memory_benefit(longtail_runs):
    gains = []
    for seed in (0, 1, 2):
        full = longtail_runs[seed]["full"][3]
        ablation = longtail_runs[seed]["ablation"][3]
        gains.append(full.map_tail - ablation.map_tail)
    assert longtail_runs["elapsed"] < 600.0
    assert np.mean(gains) >= 0.02, (
        f"mean tail-MAP gain over no-memory ablation = {np.mean(gains):.4f} "
        f"(per-seed: {[f'{g:+.4f}' for g in gains]})")


def test_criterion_7_balance_effect():
    cfg = _scaled_cfg(0, epochs=20)
    data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
    imbalance = {}
    for beta in (1.0, 0.0):
        run_cfg = dict(cfg)
        run_cfg["beta"] = beta
        _, model, _ = experiment.run_train(data, run_cfg)
        n = model.B.shape[1]
        imbalance[beta] = float(np.abs(model.B.sum(axis=1)).mean() / n)
    assert imbalance[1.0] <= imbalance[0.0]


def test_criterion_8_monotone_b_step(longtail_runs):
    for seed in (0, 1, 2):
        for arm in ("full", "ablation"):
            history = longtail_runs[seed][arm][2]
            assert len(history) > 0
            for rec in history:
                assert rec["post_b_total"] <= rec["pre_b_total"] + 1e-9


def test_criterion_9_determinism(longtail_runs, tmp_path):
    trimmed1, model1, history1, _ = longtail_runs[0]["full"]
    trimmed2, model2, history2, _ = _pipeline(0, no_memory=False)
    p1, p2 = tmp_path / "loss1.csv", tmp_path / "loss2.csv"
    experiment.write_loss_csv(p1, history1)
    experiment.write_loss_csv(p2, history2)
    assert p1.read_bytes() == p2.read_bytes()
    for modality in ("image", "text"):
        for split in ("query", "retrieval"):
            c1, c2 = tmp_path / "c1.lcmb", tmp_path / "c2.lcmb"
            retrieval.save_codes(
                c1, experiment.encode_split(model1, trimmed1, modality, split))
            retrieval.save_codes(
                c2, experiment.encode_split(model2, trimmed2, modality, split))
            assert c1.read_bytes() == c2.read_bytes()
