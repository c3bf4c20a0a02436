"""The two benchmark workloads, their timed paths and their output checks.

Every workload runs in repetitions. A repetition sets up from its own seed
(``seed * 1000 + i``), then runs the timed path once; set-up, encode and
evaluate run again until each has been timed for MIN_STAGE_S. Every timing
is taken as a wall-clock interval, converted to seconds at a fixed host
speed by bench_speed.Speedometer, and reported as the median over
repetitions (over all passes, for set-up, encode and evaluate). MAP is the
mean over the first ``quality_reps`` repetitions, so it is the same for a
given seed whatever the machine speed.

- ``train_default``: the acceptance pipeline at the default config
  (n_train=1050, 60 epochs). Set-up is synth + prepare_splits; the timed
  path is train -> encode -> evaluate i2t and t2i.
  The training size past L3 (n_train=4200) is a point of the non-gating
  epoch-time curve (bench_extra.py), not a workload: its 2-epoch MAP
  varied by more than 25% between seeds, and its memory-bound time did
  not follow the host-speed reference.
- ``retrieve_large``: serve a trained model against ~10^5 database items.
  Set-up is synth + a short training run + saving the dataset and model;
  the timed path loads both, encodes queries and database in both
  modalities, writes the codes and reads them back, and evaluates. Its
  3-epoch models' tail MAP varies ~15% between seeds, so it averages 5.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_speed

MIN_STAGE_S = 0.5         # set-up, encode, evaluate: seconds timed per repetition
ORACLE_QUERIES = 8        # queries per direction checked against the oracle
DIRECTIONS = (("i2t", "image", "text"), ("t2i", "text", "image"))
ENCODED = (("image", "query"), ("text", "query"),
           ("image", "retrieval"), ("text", "retrieval"))


@dataclass
class Workload:
    name: str
    overrides: dict                       # config keys of the workload
    train_overrides: dict = field(default_factory=dict)  # set-up training only
    serve: bool = False                   # True: train in set-up, load in timed path
    quality_reps: int = 4                 # repetitions whose MAP is averaged


WORKLOADS = {wl.name: wl for wl in (
    Workload("train_default", {}),
    Workload("retrieve_large", {"extra_per_class": 4200},
             train_overrides={"epochs": 3, "warmup_epochs": 2}, serve=True,
             quality_reps=5),
)}


class Checks:
    """Counts output checks; each failure is kept with a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def config(ltcmh, wl, seed, training=False):
    over = dict(wl.overrides, seed=seed)
    if training:
        over.update(wl.train_overrides)
    return ltcmh.experiment.load_config(
        overrides=[f"{k}={v}" for k, v in over.items()])


# --- set-up and timed path ------------------------------------------------------

def setup(ltcmh, wl, seed, workdir: Path):
    """Generate the inputs of one repetition: the state the timed path
    starts from. A serving workload also trains and saves its model here."""
    ds, ex, hl = ltcmh.dataset, ltcmh.experiment, ltcmh.hash_learn
    cfg = config(ltcmh, wl, seed)
    data = ds.synthesize_long_tailed(ex.longtail_spec(cfg), seed=seed)
    if not wl.serve:
        trimmed, train_idx, query_idx, retr_idx = ex.prepare_splits(data, cfg)
        return {"cfg": cfg, "data": trimmed,
                "splits": (train_idx, query_idx, retr_idx)}
    train_cfg = config(ltcmh, wl, seed, training=True)
    t0 = time.perf_counter()
    trimmed, model, history = ex.run_train(data, train_cfg)
    train_span = (t0, time.perf_counter())
    paths = {"dataset": workdir / "dataset.lcmd", "model": workdir / "model.lcmh"}
    ds.save_dataset(trimmed, paths["dataset"])
    hl.save_model(paths["model"], model)
    return {"cfg": cfg, "paths": paths, "workdir": workdir, "history": history,
            "train_span": train_span,
            "train_samples": train_cfg["epochs"] * model.train_indices.size}


def encode_stage(ltcmh, model, data):
    return {key: ltcmh.experiment.encode_split(model, data, *key)
            for key in ENCODED}


def eval_stage(ltcmh, model, data, codes):
    rt = ltcmh.retrieval
    q_labels = data.labels[model.query_indices]
    db_labels = data.labels[model.retrieval_indices]
    return {d: rt.evaluate(codes[(qm, "query")], q_labels,
                           codes[(dm, "retrieval")], db_labels,
                           model.partition, d)
            for d, qm, dm in DIRECTIONS}


def timed_path(ltcmh, wl, state):
    """Run the timed path once. Returns its outputs and the wall-clock
    interval of each stage."""
    hl, rt = ltcmh.hash_learn, ltcmh.retrieval
    clock = time.perf_counter
    out = {}
    t0 = clock()
    if wl.serve:
        data = ltcmh.dataset.load_dataset(state["paths"]["dataset"])
        model = hl.load_model(state["paths"]["model"])
    else:
        data = state["data"]
        train_idx, query_idx, retr_idx = state["splits"]
        model, out["history"] = hl.train(
            data, train_idx, ltcmh.experiment.train_config(state["cfg"]))
        model.query_indices = query_idx
        model.retrieval_indices = retr_idx
    t1 = clock()
    codes = encode_stage(ltcmh, model, data)
    t2 = clock()
    if wl.serve:
        loaded = {}
        for modality, split in ENCODED:
            path = state["workdir"] / f"{modality}_{split}.lcmb"
            rt.save_codes(path, codes[(modality, split)])
            loaded[(modality, split)] = rt.load_codes(path)
        out["in_memory_codes"] = codes
        codes = loaded
    t3 = clock()
    results = eval_stage(ltcmh, model, data, codes)
    t4 = clock()
    if wl.serve:
        out.update(history=state["history"], train_span=state["train_span"],
                   train_samples=state["train_samples"])
    else:
        out.update(train_span=(t0, t1),
                   train_samples=state["cfg"]["epochs"] * train_idx.size)
    out.update(model=model, data=data, codes=codes, results=results,
               pipeline_span=(t0, t4), encode_span=(t1, t2), eval_span=(t3, t4))
    return out


# --- output checks ------------------------------------------------------------

def check_history(checks, history):
    for rec in history or ():
        checks.check(all(np.isfinite(v) for k, v in rec.items() if k != "epoch"),
                     f"non-finite loss record at epoch {rec['epoch']}")
        checks.check(rec["post_b_total"] <= rec["pre_b_total"],
                     f"B step raised the loss at epoch {rec['epoch']}")


def oracle_ap(q_bits, db_bits, q_labels, db_labels):
    """AP by definition: rank by Hamming distance (from unpacked +-1 bits),
    ties by ascending index; average the precision at each relevant rank."""
    c = q_bits.shape[0]
    dist = (c - db_bits @ q_bits) / 2
    order = np.lexsort((np.arange(dist.size), dist))
    relevant = ((db_labels[order] > 0) & (q_labels > 0)).any(axis=1)
    hits, total = 0, 0.0
    for rank in np.flatnonzero(relevant) + 1:
        hits += 1
        total += hits / rank
    return total / hits if hits else 0.0


def check_outputs(ltcmh, checks, run, seed, workdir: Path):
    hl, rt = ltcmh.hash_learn, ltcmh.retrieval
    model, data, codes = run["model"], run["data"], run["codes"]
    check_history(checks, run["history"])

    rng = np.random.default_rng(seed)
    q_labels = data.labels[model.query_indices]
    db_labels = data.labels[model.retrieval_indices]
    for d, qm, dm in DIRECTIONS:
        q_bits = codes[(qm, "query")].unpack()
        db_bits = codes[(dm, "retrieval")].unpack()
        ap = run["results"][d].ap
        for i in rng.choice(len(ap), size=min(ORACLE_QUERIES, len(ap)),
                            replace=False):
            ref = oracle_ap(q_bits[i], db_bits, q_labels[i], db_labels)
            checks.check(abs(ap[i] - ref) <= 1e-12,
                         f"{d} query {i}: AP {ap[i]!r} != oracle {ref!r}")

    # codes survive the .lcmb round trip and equal binarize(encode_features)
    for modality, split in ENCODED[:2]:
        idx = model.query_indices
        feats = data.X[idx] if modality == "image" else data.Y[idx]
        ref = rt.binarize(hl.encode_features(model, feats, modality))
        path = workdir / f"check_{modality}.lcmb"
        rt.save_codes(path, codes[(modality, split)])
        back = rt.load_codes(path)
        checks.check(back.c == ref.c and np.array_equal(back.words, ref.words),
                     f"{modality} {split} codes differ after the round trip")
    for key, mem in run.get("in_memory_codes", {}).items():
        checks.check(np.array_equal(mem.words, codes[key].words),
                     f"{key} codes differ after save_codes/load_codes")


# --- one run ------------------------------------------------------------------

def passes(first, one_pass):
    """Intervals of a stage that ran once in ``first``, with more passes run
    until they total MIN_STAGE_S. Set-up, encode and evaluate on the train
    workloads take milliseconds; timed once per repetition, they read up
    to 1.4x apart between runs on a 2-vCPU host, and the median of all
    passes in a run was steadier."""
    spans = [first]
    while sum(t1 - t0 for t0, t1 in spans) < MIN_STAGE_S:
        t0 = time.perf_counter()
        one_pass()
        spans.append((t0, time.perf_counter()))
    return spans


def summarize(ltcmh, run):
    """The part of a repetition that the result needs; drops the arrays."""
    model, data = run["model"], run["data"]
    rec = {k: run[k] for k in ("setup_spans", "pipeline_span", "train_span",
                               "train_samples")}
    rec["encode_items"] = 2 * (model.query_indices.size + model.retrieval_indices.size)
    rec["eval_queries"] = 2 * model.query_indices.size
    rec["encode_spans"] = passes(run["encode_span"],
                                 lambda: encode_stage(ltcmh, model, data))
    rec["eval_spans"] = passes(run["eval_span"],
                               lambda: eval_stage(ltcmh, model, data, run["codes"]))
    for d, _, _ in DIRECTIONS:
        rec[f"map_{d}"] = run["results"][d].map_all
        rec[f"map_tail_{d}"] = run["results"][d].map_tail
    return rec


def run_reps(ltcmh, wl, seed, seconds, workdir: Path, checks):
    """Repeat set-up + timed path until ``seconds`` have passed and at least
    ``wl.quality_reps`` repetitions ran. Returns a summary of each, with
    every interval also given in seconds at the reference speed
    (``<stage>_s``), and the speedometer."""
    clock = time.perf_counter
    start = clock()
    recs = []
    with bench_speed.Speedometer() as speed:
        while len(recs) < wl.quality_reps or clock() - start < seconds:
            rep_seed = seed * 1000 + len(recs)
            rep_dir = workdir / f"rep{len(recs)}"
            rep_dir.mkdir()
            run = None  # release the previous repetition's arrays first
            t0 = clock()
            state = setup(ltcmh, wl, rep_seed, rep_dir)
            setup_spans = passes((t0, clock()),
                                 lambda: setup(ltcmh, wl, rep_seed, rep_dir))
            run = timed_path(ltcmh, wl, state)
            del state
            run["setup_spans"] = setup_spans
            check_outputs(ltcmh, checks, run, rep_seed, rep_dir)
            recs.append(summarize(ltcmh, run))
            shutil.rmtree(rep_dir)
        # ticks after the last interval still describe its speed
        time.sleep(bench_speed.PAD_S)
    for rec in recs:
        for stage in ("pipeline", "train"):
            rec[f"{stage}_s"] = speed.seconds(rec[f"{stage}_span"])
        for stage in ("setup", "encode", "eval"):
            rec[f"{stage}_s"] = [speed.seconds(s) for s in rec[f"{stage}_spans"]]
    return recs, speed

