"""Finite-difference validation suites for every hand-written gradient."""

from __future__ import annotations

import numpy as np

from . import hash_learn, meta_embed
from .hash_learn import TrainConfig, _build_embedder
from .meta_embed import compute_prototypes
from .tensor import central_diff, finite_diff_grad


def rel_err(analytic, numeric):
    """Max elementwise |a - f| / (1e-8 + |a| + |f|); inf if any entry is
    NaN, so a NaN gradient fails every threshold (max() would drop it)."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    err = float((np.abs(a - f) / (1e-8 + np.abs(a) + np.abs(f))).max())
    return np.inf if np.isnan(err) else err


def check_net_backward(seed=0, eps=1e-6):
    """Full-net parameter gradients vs finite_diff_grad for a random scalar
    loss (weighted sum of outputs), on a basic net as train builds it
    (relu -> identity, so both layer activations are checked)."""
    rng = np.random.default_rng(seed)
    net = _build_embedder(4, 3, TrainConfig(code_length=2, hidden_dim=5),
                          rng).basic_net
    batch = rng.normal(size=(6, 4))
    R = rng.normal(size=(6, 2))

    def loss_fn(n):
        out, _ = n.forward(batch)
        return float((R * out).sum())

    _, acts = net.forward(batch)
    analytic, _ = net.backward(acts, R)
    numeric = finite_diff_grad(loss_fn, net, eps)
    worst = 0.0
    for (adw, adb), (ndw, ndb) in zip(analytic, numeric):
        worst = max(worst, rel_err(adw, ndw), rel_err(adb, ndb))
    return worst


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
            return hash_learn.objective(Vx, Vy, A, B, alpha, beta).total

        for V, grad in ((Vx, hash_learn.grad_Vx), (Vy, hash_learn.grad_Vy)):
            numeric = central_diff(total, V, eps)
            cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            for analytic, expect in (
                    (grad(Vx, Vy, A, B, alpha, beta), numeric),
                    (grad(Vx, Vy, A, B, alpha, beta, cols), numeric[:, cols])):
                worst = max(worst, rel_err(analytic, expect))
    return worst


def _tiny_embed_setup(seed):
    rng = np.random.default_rng(seed)
    c, L, d, n = 3, 4, 5, 6
    embedder = _build_embedder(d, L, TrainConfig(code_length=c, hidden_dim=4),
                               rng)
    embedder.use_memory = True
    batch = rng.normal(size=(n, d))
    # every class gets a sample, so eta has a head and a tail class
    labels = np.zeros((n, L), dtype=np.uint8)
    labels[np.arange(n), np.r_[np.arange(L), rng.integers(0, L, size=n - L)]] = 1
    direct, _ = embedder.basic_net.forward(batch)
    bank = compute_prototypes(direct, labels,
                              np.array([True, True, False, False]))
    R = rng.normal(size=(c, n))
    return embedder, batch, bank, R


def check_embed_backward(seed=0, eps=1e-6):
    """embed_backward vs finite differences through the full meta embedding
    (bank held fixed, matching the stop-gradient on prototypes and eta).
    """
    embedder, batch, bank, R = _tiny_embed_setup(seed)
    _, cache = meta_embed.embed_batch(embedder, batch, bank)

    def loss_with(net):
        # eta is a stop-gradient constant: evaluate the embedding with eta
        # frozen at its cached values so the oracle matches the defined
        # derivative
        direct, _ = embedder.basic_net.forward(batch)
        logits, _ = embedder.weight_net.forward(direct)
        w = meta_embed._attention_weights(logits, bank.nonempty[None, :])
        v_memory = w @ bank.centroids
        v_meta = (direct + cache.eta[:, None] * v_memory).T
        return float((R * v_meta).sum())

    worst = 0.0
    for net, analytic in meta_embed.embed_backward(embedder, cache, R):
        numeric = finite_diff_grad(loss_with, net, eps)
        for (adw, adb), (ndw, ndb) in zip(analytic, numeric):
            worst = max(worst, rel_err(adw, ndw), rel_err(adb, ndb))
    return worst


def run_all(seed=0):
    """All suites; returns {suite name: max relative error}."""
    return {
        "net_backward": check_net_backward(seed),
        "objective_grad": check_objective_grad(instances=10, seed=seed,
                                               max_n=5, max_c=5),
        "embed_backward": check_embed_backward(seed),
    }
