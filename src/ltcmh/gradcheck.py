"""Finite-difference validation suites for every hand-written gradient."""

from __future__ import annotations

import numpy as np

from . import hash_learn, meta_embed
from .dataset import build_affinity
from .hash_learn import TrainConfig, _build_embedder
from .meta_embed import compute_prototypes
from .tensor import central_diff, finite_diff_grad


def rel_err(analytic, numeric, rounding=0.0):
    """Max elementwise |a - f| / (floor + |a| + |f|); inf if any entry is
    NaN, so a NaN gradient fails every threshold (max() would drop it).
    floor = max(1e-8, 1e4 * rounding), `rounding` being about a central
    difference's, eps_machine |loss| / eps: a correct entry near zero that
    is off by a few times that (up to ~6x measured) still reads < 1e-3."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    floor = max(1e-8, 1e4 * rounding)
    err = float((np.abs(a - f) / (floor + np.abs(a) + np.abs(f))).max())
    return np.inf if np.isnan(err) else err


def check_objective_grad(instances=50, seed=0, eps=1e-6, max_n=8, max_c=8):
    """Analytic dJ/dVx and dJ/dVy vs central differences of the joint
    objective with V treated as free variables, on all columns and on a
    random column subset (the column batches `train` asks for)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, max_n + 1))
        c = int(rng.integers(2, max_c + 1))
        Vx = rng.normal(size=(c, n))
        Vy = rng.normal(size=(c, n))
        A = rng.integers(0, 2, size=(n, n)).astype(np.float64)
        B = np.where(rng.normal(size=(c, n)) >= 0, 1.0, -1.0)
        alpha = float(rng.uniform(0.1, 2.0))
        beta = float(rng.uniform(0.1, 2.0))

        def total():
            return hash_learn.objective(Vx, Vy, A, B, alpha, beta)

        rounding = np.finfo(float).eps * abs(total()) / eps
        for V, grad in ((Vx, hash_learn.grad_Vx), (Vy, hash_learn.grad_Vy)):
            numeric = central_diff(total, V, eps)
            cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            for analytic, expect in (
                    (grad(Vx, Vy, A, B, alpha, beta), numeric),
                    (grad(Vx, Vy, A, B, alpha, beta, cols), numeric[:, cols])):
                worst = max(worst, rel_err(analytic, expect, rounding))
    return worst


def check_train_step(seed=0, eps=1e-5):
    """hash_learn._batch_grads, the batch step train runs, vs central
    differences of objective(...) / n in every net parameter, where
    embed_batch recomputes V[:, cols] at the eta of the step's own cache
    (the bank held fixed too). Both sides, memory off and then on through
    _switch_on_memory, as in train; relu and linear derivatives are checked."""
    rng = np.random.default_rng(seed)
    c, L, n = 3, 4, 6
    config = TrainConfig(code_length=c, hidden_dim=4)
    # every class gets a sample, so eta has a head and a tail class
    labels = np.zeros((n, L), dtype=np.uint8)
    labels[np.arange(n), np.r_[np.arange(L), rng.integers(0, L, size=n - L)]] = 1
    A = build_affinity(labels, labels)
    B = np.where(rng.normal(size=(c, n)) >= 0, 1.0, -1.0)
    worst = 0.0
    for use_memory in (False, True):
        for side, d, grad, aff in (("x", 5, hash_learn.grad_Vx, A),
                                   ("y", 4, hash_learn.grad_Vy, A.T)):
            embedder = _build_embedder(d, L, config, rng)
            feats = rng.normal(size=(n, d))
            direct, _ = embedder.basic_net.forward(feats)
            bank = compute_prototypes(direct, labels,
                                      np.array([True, True, False, False]))
            if use_memory:
                hash_learn._switch_on_memory(embedder, bank)
            # stale columns, as if embedded before this step
            V = meta_embed.embed_chunked(embedder, rng.normal(size=(n, d)), bank)
            other = rng.normal(size=(c, n))
            Vx, Vy = (V, other) if side == "x" else (other, V)
            cols = rng.permutation(n)[:4]
            pairs, cache = hash_learn._batch_grads(
                embedder, bank, feats, cols, V, grad, Vx, Vy, aff, B, config,
                "gradcheck")

            def loss(_net):
                V[:, cols], _ = meta_embed.embed_batch(
                    embedder, feats[cols], bank, eta=cache.eta)
                return hash_learn.objective(Vx, Vy, A, B, config.alpha,
                                            config.beta) / n

            rounding = np.finfo(float).eps * abs(loss(None)) / eps
            for net, analytic in pairs:
                numeric = finite_diff_grad(loss, net, eps)
                for (adw, adb), (ndw, ndb) in zip(analytic, numeric):
                    worst = max(worst, rel_err(adw, ndw, rounding),
                                rel_err(adb, ndb, rounding))
    return worst


def run_all(seed=0):
    """All suites; returns {suite name: max relative error}."""
    return {
        "objective_grad": check_objective_grad(instances=10, seed=seed,
                                               max_n=5, max_c=5),
        "train_step": check_train_step(seed),
    }
