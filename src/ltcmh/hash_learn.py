"""Joint hash-code learning.

The objective over meta feature matrices Vx, Vy (c x n, columns = samples)
and the unified sign matrix B is

    J = -sum_ij (a_ij Phi_ij - log(1 + e^Phi_ij))
        + alpha (||B - Vx||_F^2 + ||B - Vy||_F^2)
        + beta  (||Vx 1||^2 + ||Vy 1||^2)

with Phi_ij = 1/2 <Vx_i, Vy_j>. Network parameters are trained by exact
analytic gradients through the meta embedders; B is updated in closed form
as sign(Vx + Vy), alternating with the continuous steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import meta_embed
from .dataset import (MultiModalDataset, build_affinity, label_masks,
                      split_head_tail)
from .errors import ConfigError, FormatError, ShapeError, TrainingError
from .meta_embed import MetaEmbedder, PrototypeBank, compute_prototypes
from .tensor import (FeedForwardNet, read_array, read_end, read_header,
                     sgd_step, sigmoid, softplus, write_array, write_header)

MODEL_MAGIC = b"LCMH"
MODEL_FORMAT_VERSION = 5
MODEL_HEADER = "BBd8Q"   # eta-mode tag, use_memory, eta_max, _layout's sizes

# Fixed training settings, not config keys.
# Each network's update is clipped to this global gradient norm, so a step
# stays bounded however large the learning rate or the loss surface's slope.
CLIP_NORM = 1.0
# In memory-phase epochs each prototype bank keeps this share of its old
# centroids, so the memory follows the moving direct features smoothly.
BANK_EMA = 0.9
# Scale k of the nearest-centroid attention init: large enough that a
# sample attends mostly to its nearest prototypes, small enough to stay soft.
ATTENTION_INIT_SCALE = 3.0

# the modalities, in the order of a model's sides (x, then y) and its file
MODALITIES = ("image", "text")


@dataclass(frozen=True)
class TrainConfig:
    code_length: int = 16
    alpha: float = 1.0
    beta: float = 1.0
    learning_rate: float = 0.03
    epochs: int = 60
    batch_columns: int = 64
    seed: int = 0
    eta_mode: str = "intent_ratio"
    eta_max: float = 2.0
    head_threshold: int = 100
    hidden_dim: int = 64
    no_memory: bool = False
    # the memory path is fitted after `warmup_epochs` of direct-only
    # training (see `train`). The default warm-up spans the whole run;
    # only epochs past it train through the memory.
    warmup_epochs: int = 60

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and positive")
        for name in ("alpha", "beta", "eta_max"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        # seed too, since NumPy's generators take no negative seed
        for name in ("epochs", "warmup_epochs", "seed"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if min(self.code_length, self.hidden_dim, self.batch_columns,
               self.head_threshold) < 1:
            raise ConfigError("code_length, hidden_dim, batch_columns and "
                              "head_threshold must be >= 1")
        if self.eta_mode not in meta_embed.ETA_MODES:
            raise ConfigError(f"eta_mode {self.eta_mode!r} is not one of "
                              f"{', '.join(meta_embed.ETA_MODES)}")


@dataclass
class HashModel:
    embedder_x: MetaEmbedder
    embedder_y: MetaEmbedder
    bank_x: PrototypeBank
    bank_y: PrototypeBank
    train_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    query_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    retrieval_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def code_length(self):
        return self.embedder_x.code_length

    @property
    def partition(self) -> np.ndarray:
        """is_head per class, as split_head_tail gave it in training."""
        return self.bank_x.is_head

    def side(self, modality: str):
        """The (embedder, bank) pair that encodes a modality."""
        if modality not in MODALITIES:
            raise ConfigError(f"unknown modality {modality!r}")
        return ((self.embedder_x, self.bank_x),
                (self.embedder_y, self.bank_y))[MODALITIES.index(modality)]


def pairwise_phi(Vx: np.ndarray, Vy: np.ndarray) -> np.ndarray:
    """Phi_ij = 1/2 <Vx column i, Vy column j>."""
    Vx = np.asarray(Vx, dtype=np.float64)
    Vy = np.asarray(Vy, dtype=np.float64)
    if Vx.shape[0] != Vy.shape[0]:
        raise ShapeError(f"code lengths differ: {Vx.shape} vs {Vy.shape}")
    phi = Vx.T @ Vy
    phi *= 0.5
    return phi


def nll_loss(phi: np.ndarray, A: np.ndarray) -> float:
    """-sum_ij (a_ij phi_ij - softplus(phi_ij)), softplus evaluated stably."""
    phi = np.asarray(phi, dtype=np.float64)
    A = np.asarray(A)   # a 0/1 uint8 A promotes exactly in A * phi
    if phi.shape != A.shape:
        raise ShapeError(f"phi shape {phi.shape} != affinity shape {A.shape}")
    t = A * phi
    t -= softplus(phi)
    return float(-t.sum())


def quantization_loss(B: np.ndarray, Vx: np.ndarray, Vy: np.ndarray) -> float:
    return float(((B - Vx) ** 2).sum() + ((B - Vy) ** 2).sum())


def balance_loss(Vx: np.ndarray, Vy: np.ndarray) -> float:
    sx = Vx.sum(axis=1)
    sy = Vy.sum(axis=1)
    return float(sx @ sx + sy @ sy)


def total_loss(nll, quantization, balance, alpha, beta) -> float:
    """J from its three terms."""
    return nll + alpha * quantization + beta * balance


def objective(Vx, Vy, A, B, alpha, beta) -> float:
    return total_loss(nll_loss(pairwise_phi(Vx, Vy), A),
                      quantization_loss(B, Vx, Vy), balance_loss(Vx, Vy),
                      alpha, beta)


def grad_Vx(Vx, Vy, A, B, alpha, beta, cols=slice(None)) -> np.ndarray:
    """dJ/dVx at columns `cols` (all by default); column i is
    1/2 sum_j (sigma(Phi_ij) - a_ij) Vy_j + 2 alpha (Vx_i - B_i)
    + 2 beta Vx 1."""
    phi = pairwise_phi(Vx[:, cols], Vy)
    s = sigmoid(phi)
    s -= A[cols, :]
    g = 0.5 * (Vy @ s.T)
    g += 2.0 * alpha * (Vx[:, cols] - B[:, cols])
    g += 2.0 * beta * Vx.sum(axis=1, keepdims=True)
    return g


def grad_Vy(Vx, Vy, A, B, alpha, beta, cols=slice(None), *,
            nll=None) -> np.ndarray:
    """dJ/dVy at columns `cols` (all by default); grad_Vx with the roles of
    the modalities swapped. A list `nll` gets the NLL of these Phi columns,
    nll_loss(phi, A[:, cols]), appended."""
    phi = pairwise_phi(Vx, Vy[:, cols])
    a = A[:, cols]
    if nll is not None:
        nll.append(nll_loss(phi, a))
    s = sigmoid(phi)
    s -= a
    g = 0.5 * (Vx @ s)
    g += 2.0 * alpha * (Vy[:, cols] - B[:, cols])
    g += 2.0 * beta * Vy.sum(axis=1, keepdims=True)
    return g


def update_B(Vx: np.ndarray, Vy: np.ndarray) -> np.ndarray:
    """B = sign(Vx + Vy), with sign(0) = +1 for reproducibility."""
    if Vx.shape != Vy.shape:
        raise ShapeError(f"shapes differ: {Vx.shape} vs {Vy.shape}")
    return np.where(Vx + Vy >= 0.0, 1.0, -1.0)


# --- model construction and training -----------------------------------------

def _build_embedder(input_dim: int, num_classes: int, config: TrainConfig,
                    rng: np.random.Generator) -> MetaEmbedder:
    c = config.code_length
    basic = FeedForwardNet([input_dim, config.hidden_dim, c], rng)
    weight = FeedForwardNet([c, num_classes], rng)
    return MetaEmbedder(basic_net=basic, weight_net=weight,
                        eta_mode=config.eta_mode, eta_max=config.eta_max)


def _clip_grads(grads):
    """Scale a per-net gradient list so its global L2 norm is <= CLIP_NORM,
    dividing by the largest |entry| first where the squares overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sqrt(sum(float((dw * dw).sum() + (db * db).sum())
                            for dw, db in grads))
        if total == np.inf:
            flat = np.concatenate([a.ravel() for pair in grads for a in pair])
            top = np.abs(flat).max()
            total = top * np.linalg.norm(flat / top)
    if not CLIP_NORM < total < np.inf:   # a NaN or inf norm passes unscaled
        return grads
    scale = CLIP_NORM / total
    return [(dw * scale, db * scale) for dw, db in grads]


def _batch_grads(embedder, bank, feats, cols, V, grad, Vx, Vy, A, B, config,
                 where, **extra):
    """One minibatch step of train before clipping: embed feats[cols] into
    V[:, cols] (V is Vx or Vy), take grad at those columns averaged over the
    n training samples and backpropagate it. Returns embed_backward's
    (net, grads) pairs and the batch's embed_batch cache they came from; a
    non-finite gradient raises TrainingError naming `where`."""
    V[:, cols], cache = meta_embed.embed_batch(embedder, feats[cols], bank)
    g = grad(Vx, Vy, A, B, config.alpha, config.beta, cols, **extra)
    g /= V.shape[1]
    if not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient at {where}")
    return meta_embed.embed_backward(embedder, cache, g), cache


def _switch_on_memory(embedder: MetaEmbedder, bank: PrototypeBank):
    """End of memory warm-up, the one place the memory path is enabled.
    Given a bank fitted on the current direct features, initializes the
    attention weights to scaled nearest-centroid matching (logits
    k·C·v − k‖C‖²/2 with k = ATTENTION_INIT_SCALE, the log-posterior of an
    isotropic Gaussian mixture over the prototypes) and returns the bank.
    A non-finite prototype, or a bias that overflows float64, raises
    TrainingError."""
    k, C = ATTENTION_INIT_SCALE, bank.centroids
    if not np.isfinite(C).all():
        raise TrainingError("non-finite attention init: the prototypes are "
                            "not finite")
    with np.errstate(over="ignore"):
        biases = -0.5 * k * (C ** 2).sum(axis=1)
    if not np.isfinite(biases).all():
        raise TrainingError(
            f"non-finite attention init: the prototypes' squared norms "
            f"overflow (largest |centroid entry| {np.abs(C).max():.3g})")
    embedder.weight_net.weights[0][:] = k * C
    embedder.weight_net.biases[0][:] = biases
    embedder.use_memory = True
    return bank


def train(dataset: MultiModalDataset, train_indices: np.ndarray,
          config: TrainConfig):
    """Alternating optimization over the training split.

    Both modalities run one pipeline over a [features, embedder, bank]
    entry each. The embedders start with the memory off, and the first
    warmup_epochs epochs train the direct features alone; the first banks
    and B come from one direct forward per side. At the switchover new
    banks are fitted and _switch_on_memory turns the memory on. With the
    default warmup_epochs (= the default epochs) the switch is all a pass
    after the last epoch does, so the basic nets and history equal those
    of the no_memory ablation. Epochs past the switch train through the
    memory, the banks tracking the moving direct features by an
    exponential average (BANK_EMA). Per epoch: SGD passes over column
    minibatches of each modality against the full cross-modal objective
    (gradients averaged over the training set), then B is recomputed in
    closed form. Returns (model, history), one history record per epoch
    with the loss before and after the B step; B and alpha/beta stay out
    of the model. Phi is computed once per side per epoch; the record's
    NLL sums the y pass's Phi-block NLLs. The affinity is build_affinity's
    uint8 array; 0/1 promote exactly.

    With the memory on, eta needs a non-empty head and a non-empty tail
    class under head_threshold; a partition without both raises
    ConfigError before the first epoch.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ConfigError("training split is empty")
    labels = dataset.labels[train_indices]
    n = train_indices.size
    masks = label_masks(labels)
    A = build_affinity(masks, masks)

    rng = np.random.default_rng(config.seed)
    counts = labels.sum(axis=0).astype(np.int64)
    is_head = split_head_tail(counts, config.head_threshold)
    memory_on = not config.no_memory
    # head classes are never empty (threshold >= 1); eta needs a tail one too
    if memory_on and not (is_head.any() and counts[~is_head].any()):
        raise ConfigError(
            f"head_threshold={config.head_threshold} leaves no head class or "
            f"no non-empty tail class, and eta needs both")
    # image, then text; the first banks are those a no_memory model keeps
    sides, V = [], []
    for feats in (dataset.X[train_indices], dataset.Y[train_indices]):
        embedder = _build_embedder(feats.shape[1], dataset.num_classes,
                                   config, rng)
        direct, _ = embedder.basic_net.forward(feats)
        V.append(direct.T)   # the meta features, as the memory is off
        sides.append([feats, embedder,
                      compute_prototypes(direct, labels, is_head)])
    B = update_B(*V)
    # the epoch the memory switch opens (epochs: after the last; -1: never)
    switch_at = min(config.warmup_epochs, config.epochs) if memory_on else -1

    history = []
    for epoch in range(config.epochs + 1):
        for side in sides:
            feats, embedder, bank = side
            # refit; a pass after the last epoch only switches the memory on
            if epoch == switch_at or 0 <= switch_at < epoch < config.epochs:
                direct, _ = embedder.basic_net.forward(feats)
                fresh = compute_prototypes(direct, labels, is_head)
                if epoch == switch_at:
                    side[2] = _switch_on_memory(embedder, fresh)
                else:
                    bank.centroids[:] = (BANK_EMA * bank.centroids
                                         + (1.0 - BANK_EMA) * fresh.centroids)
        if epoch == config.epochs:
            break
        V = [meta_embed.embed_chunked(e, f, b) for f, e, b in sides]

        order = rng.permutation(n)
        nll_blocks = []
        # A is symmetric: A.T turns grad_Vy's column gather into a row gather
        for name, (feats, embedder, bank), V_side, grad, aff, extra in zip(
                "xy", sides, V, (grad_Vx, grad_Vy), (A, A.T),
                ({}, {"nll": nll_blocks})):
            for start in range(0, n, config.batch_columns):
                cols = order[start:start + config.batch_columns]
                pairs, _ = _batch_grads(
                    embedder, bank, feats, cols, V_side, grad, *V, aff, B,
                    config, f"epoch {epoch}, side {name}, batch starting "
                    f"{start}", **extra)
                for net, grads in pairs:
                    sgd_step(net, _clip_grads(grads), config.learning_rate)

        # the y blocks are this epoch's final Phi (Vx fixed, each Vy column
        # final once used); only the quantization term depends on B
        nll, balance = sum(nll_blocks), balance_loss(*V)
        pre_b_total = total_loss(nll, quantization_loss(B, *V), balance,
                                 config.alpha, config.beta)
        B = update_B(*V)
        quantization = quantization_loss(B, *V)
        total = total_loss(nll, quantization, balance, config.alpha, config.beta)
        rec = {"epoch": epoch, "nll": nll, "quantization": quantization,
               "balance": balance, "total": total,
               "pre_b_total": pre_b_total, "post_b_total": total}
        if not np.isfinite(total):
            raise TrainingError(f"non-finite loss at epoch {epoch}: {rec}")
        history.append(rec)

    (_, ex, bank_x), (_, ey, bank_y) = sides
    return HashModel(ex, ey, bank_x, bank_y, train_indices), history


def encode_features(model: HashModel, features: np.ndarray, modality: str):
    """Meta features (c x samples) for new data using the stored banks,
    computed in chunks by meta_embed.embed_chunked."""
    embedder, bank = model.side(modality)
    return meta_embed.embed_chunked(embedder, features, bank)


# --- persistence --------------------------------------------------------------

def _layout(d_x, d_y, hidden, c, L, n_train, n_query, n_retrieval):
    """The arrays of a model file in file order, as (what, dtype, shape):
    the classes' counts and head flags, each side's basic net [d, hidden, c]
    and weight net [c, L] (weights, then biases, per layer) and centroids,
    then the training, query and retrieval indices."""
    parts = [("class counts", "<i8", (L,)), ("head flags", "<u1", (L,))]
    for side, d in zip(MODALITIES, (d_x, d_y)):
        for net, dims in (("basic", (d, hidden, c)), ("weight", (c, L))):
            for k, (din, dout) in enumerate(zip(dims, dims[1:]), 1):
                layer = f"{side} {net} net layer {k}"
                parts += [(f"{layer} weights", "<f8", (dout, din)),
                          (f"{layer} biases", "<f8", (dout,))]
        parts.append((f"{side} centroids", "<f8", (L, c)))
    return parts + [("training indices", "<i8", (n_train,)),
                    ("query indices", "<i8", (n_query,)),
                    ("retrieval indices", "<i8", (n_retrieval,))]


def _sizes_and_arrays(model: HashModel):
    """The eight sizes a model file states and the model's arrays in
    _layout's order, as they are, without checking their shapes. The
    classes are the image side's (train builds both sides alike)."""
    (e, bank), (e_y, _) = map(model.side, MODALITIES)
    splits = [model.train_indices, model.query_indices, model.retrieval_indices]
    sizes = (e.basic_net.input_dim, e_y.basic_net.input_dim,
             e.basic_net.weights[0].shape[0], e.code_length, bank.num_classes,
             *(split.size for split in splits))
    arrays = [bank.counts, bank.is_head]
    for embedder, side_bank in map(model.side, MODALITIES):
        for net in (embedder.basic_net, embedder.weight_net):
            arrays += [a for wb in zip(net.weights, net.biases) for a in wb]
        arrays.append(side_bank.centroids)
    return sizes, arrays + splits


def save_model(path, model: HashModel):
    """Write the settings and sizes once, then _layout's arrays, headerless.
    Before writing, a net with other layer counts than _build_embedder's,
    or a misshapen array, raises ShapeError, and a text side whose eta
    mode, eta_max, use_memory, class counts or head flags are not the
    image side's, which the file states for both, raises ConfigError."""
    for side, (e, _) in zip(MODALITIES, map(model.side, MODALITIES)):
        for name, net, k in (("basic", e.basic_net, 2),
                             ("weight", e.weight_net, 1)):
            if (got := (len(net.weights), len(net.biases))) != (k, k):
                raise ShapeError(f"model {side} {name} net has {got} weight "
                                 f"and bias layers, expected {(k, k)}")
    sizes, arrays = _sizes_and_arrays(model)
    layout = _layout(*sizes)
    for (what, _, shape), arr in zip(layout, arrays):
        if arr.shape != shape:
            raise ShapeError(f"model {what} of shape {arr.shape}, expected "
                             f"{shape}")
    (e, bank), (e_y, bank_y) = map(model.side, MODALITIES)
    for name, x, y in (("eta modes", e.eta_mode, e_y.eta_mode),
                       ("eta_max values", e.eta_max, e_y.eta_max),
                       ("use_memory flags", e.use_memory, e_y.use_memory),
                       ("class counts", bank.counts, bank_y.counts),
                       ("head flags", bank.is_head, bank_y.is_head)):
        # compared as stored, so that a NaN eta_max equals itself
        if np.asarray(x).tobytes() != np.asarray(y).tobytes():
            raise ConfigError(f"model image and text {name} differ, and a "
                              f"model file states one for both")
    with open(path, "wb") as f:
        write_header(f, MODEL_MAGIC, MODEL_FORMAT_VERSION, MODEL_HEADER,
                     meta_embed.ETA_MODES.index(e.eta_mode), e.use_memory,
                     e.eta_max, *sizes)
        for (_, dtype, _), arr in zip(layout, arrays):
            write_array(f, arr, dtype)


def load_model(path) -> HashModel:
    """Read a model written by save_model, checking each part as it is
    read: every rejection is a FormatError that names a byte offset."""
    with open(path, "rb") as f:
        mode, use_memory, eta_max, *sizes = read_header(
            f, MODEL_MAGIC, MODEL_FORMAT_VERSION, "model", MODEL_HEADER)
        if mode >= len(meta_embed.ETA_MODES):
            raise FormatError(f"bad eta-mode tag {mode} at offset 8")
        if use_memory > 1:
            raise FormatError(f"bad use_memory flag {use_memory} at offset "
                              f"9, expected 0 or 1")
        if not 0 <= eta_max < np.inf:   # eta's clamp
            raise FormatError(f"inconsistent model: eta_max {eta_max} at "
                              f"offset 10 is not finite and >= 0")
        for k, name in enumerate(("d_x", "d_y", "hidden", "c", "L")):
            if not sizes[k]:
                raise FormatError(f"bad {name} 0 at offset {18 + 8 * k}, "
                                  f"expected >= 1")
        # the counts start where the header ends, the head flags at `at`
        layout, counts_at = _layout(*sizes), f.tell()
        counts, flags = arrays = [read_array(f, dtype, shape, what)
                                  for what, dtype, shape in layout[:2]]
        at = counts_at + counts.nbytes
        if (bad := np.flatnonzero(counts < 0)).size:
            raise FormatError(f"negative class count {counts[bad[0]]} at "
                              f"offset {counts_at + counts.itemsize * bad[0]}")
        if (bad := np.flatnonzero(flags > 1)).size:
            raise FormatError(f"bad head flag {flags[bad[0]]} at offset "
                              f"{at + bad[0]}, expected 0 or 1")
        is_head = flags.astype(bool)
        if use_memory and np.unique(is_head[counts > 0]).size < 2:
            raise FormatError(f"inconsistent model: the memory is on, and eta "
                              f"needs a non-empty head and a non-empty tail "
                              f"class (head flags at offset {at})")
        arrays += [read_array(f, dtype, shape, what)
                   for what, dtype, shape in layout[2:]]
        read_end(f)
    embedders, banks = [], []
    for k in (2, 9):   # each side's seven arrays
        w1, b1, w2, b2, w, b, centroids = arrays[k:k + 7]
        embedders.append(MetaEmbedder(
            basic_net=FeedForwardNet.from_params([w1, w2], [b1, b2]),
            weight_net=FeedForwardNet.from_params([w], [b]), eta_max=eta_max,
            eta_mode=meta_embed.ETA_MODES[mode], use_memory=bool(use_memory)))
        banks.append(PrototypeBank(centroids, counts, is_head))
    return HashModel(*embedders, *banks, *arrays[16:])
