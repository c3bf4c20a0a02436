"""Experiment configuration and end-to-end pipeline helpers.

Config files are flat ``key = value`` text. Every key has a default below;
unknown keys are rejected so typos fail loudly. The same dict drives
synthesis, training, encoding, and evaluation, and the effective (merged)
config is persisted next to outputs for provenance.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import hash_learn, meta_embed, retrieval
from .dataset import (LongTailSpec, MultiModalDataset, check_split_keys,
                      split_query_retrieval, trim_labels)
from .errors import ConfigError
from .hash_learn import MODALITIES, HashModel, TrainConfig
from .retrieval import BinaryCodeMatrix

DEFAULTS = {
    # dataset synthesis: LongTailSpec's fields and defaults, except that
    # the pool holds 30 samples per class beyond the training counts for
    # the query and retrieval splits to draw from
    "groups": "4x200,10x20,10x5",
    **{f.name: f.default for f in fields(LongTailSpec) if f.name != "groups"},
    "extra_per_class": 30,
    # label trimming and splits
    "min_keep": 2,
    "max_keep": 3,
    "queries_per_class": 10,
    # training and ablations: TrainConfig's fields and defaults
    **{f.name: f.default for f in fields(TrainConfig)},
}

# (query modality, database modality) of each retrieval direction
DIRECTIONS = {"i2t": MODALITIES, "t2i": MODALITIES[::-1]}
# the index sets a model file holds, and their union
SPLITS = ("train", "query", "retrieval", "all")


def parse_value(where, key, raw, default):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "false", "0", "no"):
            return raw.lower() in ("true", "1", "yes")
        kind = "boolean"
    elif isinstance(default, (int, float)):
        parse = float if isinstance(default, float) else np.int64
        try:   # NumPy takes sizes and seeds as 64-bit ints
            return type(default)(parse(raw))
        except (ValueError, OverflowError):
            kind = "float" if parse is float else "64-bit int"
    else:
        if key == "groups":   # check it where its location is known
            parse_groups(raw, where)
        return raw
    raise ConfigError(f"{where}: expected {kind} for {key!r}, got {raw!r}")


def load_config(path=None, overrides=()):
    """Merged config: defaults, then file, then key=value overrides."""
    items = []   # (where, "key = value"): where is path:lineno or "override"
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 at byte {e.start}") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                items.append((f"{path}:{lineno}", line))
    cfg = dict(DEFAULTS)
    for where, item in items + [("override", item) for item in overrides]:
        if "=" not in item:
            raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
        key, raw = (s.strip() for s in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        cfg[key] = parse_value(where, key, raw, DEFAULTS[key])
    longtail_spec(cfg)   # check the synthesis, split and training keys
    check_split_keys(cfg["min_keep"], cfg["max_keep"], cfg["queries_per_class"])
    train_config(cfg)    # before any command reads or writes a file
    return cfg


def save_config(cfg, path):
    lines = [f"{k} = {v}" for k, v in sorted(cfg.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_groups(text, where="groups"):
    """'4x2000,10x200,10x50' -> [(4, 2000), (10, 200), (10, 50)]."""
    groups = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        k, _, c = part.partition("x")
        try:
            groups.append((int(np.int64(k)), int(np.int64(c))))
        except (ValueError, OverflowError):
            raise ConfigError(f"{where}: bad group {part!r}, expected "
                              f"COUNTxSIZE of 64-bit ints") from None
    if not groups:
        raise ConfigError(f"{where}: groups must be non-empty")
    return groups


def longtail_spec(cfg) -> LongTailSpec:
    return LongTailSpec(
        groups=parse_groups(cfg["groups"]),
        **{f.name: cfg[f.name] for f in fields(LongTailSpec)
           if f.name != "groups"})


def train_config(cfg) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


def trim_dataset(dataset: MultiModalDataset, cfg) -> MultiModalDataset:
    """The dataset with the labels synth writes and training uses: trimmed
    by the config's keys, which leave a trimmed row as it is."""
    labels = trim_labels(dataset.labels, cfg["min_keep"], cfg["max_keep"],
                         seed=cfg["seed"])
    return MultiModalDataset(X=dataset.X, Y=dataset.Y, labels=labels)


def prepare_splits(dataset: MultiModalDataset, cfg):
    """Trim labels globally, then carve train/query/retrieval index sets."""
    trimmed = trim_dataset(dataset, cfg)
    spec = longtail_spec(cfg)
    if spec.num_classes != dataset.num_classes:
        raise ConfigError(
            f"config groups give {spec.num_classes} classes but dataset "
            f"has {dataset.num_classes}")
    train_idx, query_idx, retr_idx = split_query_retrieval(
        trimmed, spec.class_counts(),
        queries_per_class=cfg["queries_per_class"], seed=cfg["seed"])
    return trimmed, train_idx, query_idx, retr_idx


def run_train(dataset: MultiModalDataset, cfg):
    """Full training pipeline; the returned model carries the split indices."""
    trimmed, train_idx, query_idx, retr_idx = prepare_splits(dataset, cfg)
    model, history = hash_learn.train(trimmed, train_idx, train_config(cfg))
    model.query_indices = query_idx
    model.retrieval_indices = retr_idx
    return trimmed, model, history


def write_loss_csv(path, history):
    terms = ("nll", "quantization", "balance", "total")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", *terms])
        for rec in history:
            w.writerow([rec["epoch"], *(f"{rec[t]:.10g}" for t in terms)])


def split_indices(model: HashModel, name: str) -> np.ndarray:
    if name not in SPLITS:
        raise ConfigError(f"unknown split {name!r}")
    if name == "all":
        # train writes disjoint splits, but a hand-made model file may
        # hold overlapping ones, so take the union
        return np.unique(np.concatenate(
            [getattr(model, f"{s}_indices") for s in SPLITS[:-1]]))
    return getattr(model, f"{name}_indices")


def encode_split(model: HashModel, dataset: MultiModalDataset,
                 modality: str, split: str) -> BinaryCodeMatrix:
    """binarize(encode_features(model, the split's features, modality)),
    streamed: each of meta_embed.embed_chunks's chunks gathers only its
    own rows and is packed straight into the code words, so beside them
    memory is one chunk's."""
    embedder, bank = model.side(modality)
    idx = split_indices(model, split)
    feats = (dataset.X, dataset.Y)[MODALITIES.index(modality)]
    words = np.empty((idx.size, (model.code_length + 63) // 64), np.uint64)
    for rows, V in meta_embed.embed_chunks(embedder, feats, bank, idx):
        words[rows] = retrieval.binarize(V).words
    return BinaryCodeMatrix(c=model.code_length, words=words)


def evaluate_direction(model: HashModel, dataset: MultiModalDataset,
                       direction: str, query_codes=None, db_codes=None):
    """MAP of the query split ranked against the retrieval split, by the
    dataset's labels; a side given no codes is encoded."""
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}")
    q_mod, db_mod = DIRECTIONS[direction]
    if query_codes is None:
        query_codes = encode_split(model, dataset, q_mod, "query")
    if db_codes is None:
        db_codes = encode_split(model, dataset, db_mod, "retrieval")
    return retrieval.evaluate(
        query_codes, dataset.labels[model.query_indices],
        db_codes, dataset.labels[model.retrieval_indices],
        model.partition, direction)
