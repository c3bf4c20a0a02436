"""Prototype-memory meta embedding.

Each modality owns a basic network producing direct features and a shallow
weight network that scores class prototypes. The memory feature is a
softmax-weighted combination of per-class centroids, and the meta feature is

    v_meta = v_direct + eta * v_memory

where eta trades direct against memory evidence. eta is a ratio of a
sample's squared distances to the nearest head and tail prototypes, in one
of two modes: ``intent_ratio`` (default: near-head samples get small eta)
or ``as_printed`` (the reciprocal ratio). One GEMM over the non-empty
centroids picks each sample's nearest head and nearest tail centroid, and
only those distances are summed; their bits are those of the per-centroid
definition whatever the GEMM rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import FeedForwardNet

ETA_MODES = ("intent_ratio", "as_printed")
ETA_EPS = 1e-12
ENCODE_CHUNK = 1024   # fewest rows embed_chunked passes to embed_batch at once


@dataclass
class PrototypeBank:
    centroids: np.ndarray   # L x c, zero rows for empty classes
    counts: np.ndarray      # samples per class at computation time
    is_head: np.ndarray     # bool, length L

    @property
    def nonempty(self):
        return self.counts > 0

    @property
    def num_classes(self):
        return self.centroids.shape[0]


@dataclass
class MetaEmbedder:
    basic_net: FeedForwardNet
    weight_net: FeedForwardNet
    eta_max: float
    eta_mode: str = "intent_ratio"
    use_memory: bool = False

    def __post_init__(self):
        if self.eta_mode not in ETA_MODES:
            raise ConfigError(f"unknown eta mode {self.eta_mode!r}")
        if not 0 <= self.eta_max < np.inf:   # eta's clamp
            raise ConfigError(f"eta_max must be finite and >= 0, got "
                              f"{self.eta_max}")
        if self.weight_net.input_dim != self.basic_net.output_dim:
            raise ShapeError(
                f"weight net input {self.weight_net.input_dim} != "
                f"code length {self.basic_net.output_dim}"
            )

    @property
    def code_length(self):
        return self.basic_net.output_dim


@dataclass
class EmbedCache:
    basic_acts: list                # FeedForwardNet.forward's acts
    v_direct: np.ndarray            # samples x c
    # the memory path's; None with the memory off
    weight_acts: Optional[list] = None
    weights: Optional[np.ndarray] = None    # samples x L, 0 at empty classes
    v_memory: Optional[np.ndarray] = None   # samples x c
    eta: Optional[np.ndarray] = None        # per-sample
    centroids: Optional[np.ndarray] = None


def compute_prototypes(direct_features: np.ndarray, labels: np.ndarray,
                       is_head: np.ndarray) -> PrototypeBank:
    """Per-class mean of direct features; a multi-label sample contributes
    to every class it carries. Empty classes get a zero centroid."""
    direct_features = np.asarray(direct_features, dtype=np.float64)
    labels = np.asarray(labels)
    if direct_features.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"features rows {direct_features.shape[0]} != labels rows "
            f"{labels.shape[0]}"
        )
    counts = labels.sum(axis=0).astype(np.int64)
    sums = labels.astype(np.float64).T @ direct_features
    denom = np.maximum(counts, 1).astype(np.float64)
    centroids = sums / denom[:, None]
    centroids[counts == 0] = 0.0
    return PrototypeBank(centroids=centroids, counts=counts,
                         is_head=np.asarray(is_head, dtype=bool))


def _loop_nearest(v: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Min over the rows m of C of ((v - m) ** 2).sum(axis=1), one centroid
    at a time; np.minimum makes a row NaN if any of its distances is."""
    d = np.full(v.shape[0], np.inf)
    for m in C:
        np.minimum(d, ((v - m) ** 2).sum(axis=1), out=d)
    return d


def _nearest(v: np.ndarray, C: np.ndarray, groups) -> list:
    """[_loop_nearest(v, C[g]) for g in groups] bit for bit, at about one
    GEMM's cost; each g is a bool mask over the rows of C.

    One GEMM bounds each (centroid, row) distance from below; a row's least
    bound in a group picks the one distance d summed as the loop sums it. d
    stands if every other bound of the group is finite and >= d, else
    (ties, duplicates, NaN, inf) the row runs the group's loop. With
    S = |v|^2 + |m|^2, the loop's sum is within gamma(c + 2) |v - m|^2 <=
    (c + 2) eps S of the distance, and |v|^2 - 2 v.m + |m|^2, summed in any
    order, within 2 gamma(c) S + 2 eps S ~ (c + 2) eps S. Taking
    k = 4 (c + 2) times eps S off leaves 2 (c + 2) eps S of margin; k tiny
    covers the two forms' 4c products, each losing at most tiny to
    underflow. The bound only selects, so no bit depends on how it rounds.
    """
    k, f = 4 * (v.shape[1] + 2), np.finfo(np.float64)
    # each group's centroids, one group after another
    C = C[np.concatenate([np.flatnonzero(g) for g in groups])]
    ends = np.cumsum([np.count_nonzero(g) for g in groups])[:-1]
    # NaN and inf rows warn only where the loop's own arithmetic reaches them
    with np.errstate(invalid="ignore", over="ignore"):
        bounds = (-2.0 * C) @ v.T    # centroids x samples
        bounds += np.einsum("ij,ij->i", v, v) * (1 - k * f.eps)
        bounds += (np.einsum("ij,ij->i", C, C) * (1 - k * f.eps)
                   - k * f.tiny)[:, None]
    out = []
    for Cg, lower in zip(np.split(C, ends), np.split(bounds, ends)):
        j = lower.argmin(axis=0)
        ok = np.isfinite(lower).all(axis=0)
        lower[j, np.arange(v.shape[0])] = np.inf
        d = ((v - Cg[j]) ** 2).sum(axis=1)
        ok &= lower.min(axis=0) >= d
        if not ok.all():
            d[~ok] = _loop_nearest(v[~ok], Cg)
        out.append(d)
    return out


def eta_classes(counts: np.ndarray, is_head: np.ndarray):
    """Masks of the non-empty head and tail classes; eta needs both."""
    nonempty = counts > 0
    return nonempty & is_head, nonempty & ~is_head


def eta_ratio(v_direct: np.ndarray, bank: PrototypeBank, mode: str,
              eta_max: float) -> np.ndarray:
    """eta for each row of a samples x c matrix of direct features, from
    its squared distances to the nearest non-empty head and tail centroids,
    clipped to [0, eta_max]; each distance is summed over a C-ordered row."""
    if mode not in ETA_MODES:
        raise ConfigError(f"{mode!r} is not an eta mode")
    head, tail = eta_classes(bank.counts, bank.is_head)
    if not head.any() or not tail.any():
        raise ConfigError("eta needs a non-empty head and a non-empty tail "
                          "class")
    d_head, d_tail = _nearest(np.ascontiguousarray(v_direct), bank.centroids,
                              (head, tail))
    if mode == "intent_ratio":
        eta = d_head / np.maximum(d_tail, ETA_EPS)
    else:
        eta = d_tail / np.maximum(d_head, ETA_EPS)
    return np.clip(eta, 0.0, eta_max)


def _attention_weights(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax of the logits restricted to mask=True columns; masked
    entries get 0. Works in place on one samples x L array."""
    z = np.where(mask, logits, -np.inf)
    # a max is exact, and a column max of the transpose runs faster than
    # a max along short rows
    z -= np.ascontiguousarray(z.T).max(axis=0)[:, None]
    np.exp(z, out=z)
    return np.divide(z, z.sum(axis=1, keepdims=True), out=z)


def embed_batch(embedder: MetaEmbedder, batch: np.ndarray, bank: PrototypeBank,
                eta=None):
    """Meta features for a batch, stacked column-wise (c x samples), plus the
    cache needed by embed_backward. A per-sample `eta` replaces eta_ratio's,
    so eta can be held fixed as embed_backward holds it; with the memory
    off it is ignored."""
    v_direct, b_acts = embedder.basic_net.forward(batch)
    if not embedder.use_memory:
        return v_direct.T, EmbedCache(basic_acts=b_acts, v_direct=v_direct)

    # eta first: it rejects a bank without a non-empty head and tail class
    etas = (eta_ratio(v_direct, bank, embedder.eta_mode, embedder.eta_max)
            if eta is None else eta)
    logits, w_acts = embedder.weight_net.forward(v_direct)
    w = _attention_weights(logits, bank.nonempty[None, :])
    v_memory = w @ bank.centroids
    v_meta = v_direct + etas[:, None] * v_memory
    cache = EmbedCache(basic_acts=b_acts, v_direct=v_direct,
                       weight_acts=w_acts, weights=w, v_memory=v_memory,
                       eta=etas, centroids=bank.centroids)
    return v_meta.T, cache


def embed_chunks(embedder: MetaEmbedder, features: np.ndarray,
                 bank: PrototypeBank, index=None):
    """Yield (rows, V) for the n selected samples, the rows of features
    or, with an index, the rows features[index]: rows is a slice of
    range(n) and V is embed_batch's meta features (c x len(rows)) of those
    samples, without its cache. Only one chunk's rows are gathered at once.

    The samples go through embed_batch in k = max(1, n // ENCODE_CHUNK)
    contiguous near-equal chunks, so temporaries are
    O(ENCODE_CHUNK x (d + hidden + L + c)). No chunk is shorter than
    ENCODE_CHUNK rows unless the whole selection is: OpenBLAS computes the
    GEMMs of a few rows (up to 75 at the default sizes) with another
    kernel, and a short chunk would round differently from one forward
    over all the samples.
    """
    features = np.asarray(features)
    embedder.basic_net.check_batch(features)
    n = features.shape[0] if index is None else len(index)
    k = max(1, n // ENCODE_CHUNK)
    for i in range(k):
        rows = slice(i * n // k, (i + 1) * n // k)
        chunk = features[rows] if index is None else features[index[rows]]
        yield rows, embed_batch(embedder, chunk, bank)[0]


def embed_chunked(embedder: MetaEmbedder, batch: np.ndarray,
                  bank: PrototypeBank) -> np.ndarray:
    """embed_batch's meta features (c x samples), without its cache, put
    together from embed_chunks; beside the c x n output, memory is one
    chunk's."""
    batch = np.asarray(batch)
    embedder.basic_net.check_batch(batch)   # before the output is sized
    # samples x c storage, the layout of embed_batch's transposed result
    out = np.empty((batch.shape[0], embedder.code_length)).T
    for rows, V in embed_chunks(embedder, batch, bank):
        out[:, rows] = V
    return out


def embed_backward(embedder: MetaEmbedder, cache: EmbedCache,
                   meta_grad: np.ndarray) -> list:
    """Backpropagate dL/dV_meta (c x samples) into network parameters.

    Returns (net, [(dW, db) per layer]) pairs: the basic net first, then
    the weight net when the memory is on. Prototypes are frozen within an
    epoch, and eta is treated as a constant; gradient reaches v_direct both
    directly and through the weight net.
    """
    g = np.asarray(meta_grad, dtype=np.float64).T   # samples x c
    if g.shape != cache.v_direct.shape:
        raise ShapeError(
            f"meta grad shape {meta_grad.shape} incompatible with cached "
            f"features {cache.v_direct.shape}"
        )
    if not embedder.use_memory:
        basic_grads, _ = embedder.basic_net.backward(cache.basic_acts, g)
        return [(embedder.basic_net, basic_grads)]

    d_vmem = cache.eta[:, None] * g
    d_w = d_vmem @ cache.centroids.T
    w = cache.weights
    d_logits = w * (d_w - (d_w * w).sum(axis=1, keepdims=True))
    weight_grads, d_vdirect_w = embedder.weight_net.backward(
        cache.weight_acts, d_logits)
    basic_grads, _ = embedder.basic_net.backward(cache.basic_acts,
                                                 g + d_vdirect_w)
    return [(embedder.basic_net, basic_grads),
            (embedder.weight_net, weight_grads)]
