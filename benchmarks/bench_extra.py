"""Benchmark self-tests and non-gating scaling curves.

``self_test`` checks that the tracer sees what it should: self-time
arithmetic and by-name bindings on a nested toy call, and one exact count
on ``train_default`` at seed 0 (a rename in src/ then fails here instead of
reporting zero). ``scaling_curves`` times a training epoch against n_train
and ``evaluate`` against the database size; they are recorded with the
baseline, not gated.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import types

import numpy as np

import bench_trace
import bench_workloads as bw


def _toy_modules():
    """``outer`` calls ``inner`` twice through a module that imported it by
    name; ``inner`` waits a fixed time."""
    lib = types.ModuleType("toy_lib")
    user = types.ModuleType("toy_user")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.02)
        user.inner()
        user.inner()

    lib.inner, lib.outer, user.inner = inner, outer, inner
    table = [("toy.outer", lib, "outer", None, []),
             ("toy.inner", lib, "inner", None, [user])]
    return lib, user, table


def _check_toy(failures):
    lib, user, table = _toy_modules()
    originals = (lib.outer, lib.inner)
    tracer = bench_trace.Tracer(table)
    tracer.install()
    try:
        lib.outer()
    finally:
        tracer.uninstall()
    if (lib.outer, lib.inner, user.inner) != (*originals, originals[1]):
        failures.append("toy: bindings not restored after uninstall")
    s = tracer.summary()
    outer, inner = s["toy.outer"], s["toy.inner"]
    if (outer["calls"], inner["calls"]) != (1, 2):
        failures.append(f"toy: calls {outer['calls']}, {inner['calls']} != 1, 2")
    if abs(outer["self_s"] - (outer["s"] - inner["s"])) > 1e-12:
        failures.append("toy: outer self time != duration minus children")
    if inner["self_s"] != inner["s"]:
        failures.append("toy: a leaf's self time != its duration")
    if not 0.015 <= outer["self_s"] < outer["s"]:
        failures.append(f"toy: outer self time {outer['self_s']:.4f}s")
    parents = [span[3] for span in tracer.spans]
    if parents != [-1, 0, 0]:
        failures.append(f"toy: parent links {parents} != [-1, 0, 0]")


def _check_pinned_counts(ltcmh, failures, workdir):
    """train_default at seed 0: sigmoid runs once per column batch per side
    per epoch, 2 * ceil(1050 / 64) * 60 = 2040 times."""
    wl = bw.WORKLOADS["train_default"]
    tracer = bench_trace.Tracer(bench_trace.layer_table(ltcmh))
    tracer.install()
    try:
        bw.timed_path(ltcmh, wl, bw.setup(ltcmh, wl, 0, workdir))
    finally:
        tracer.uninstall()
    calls = tracer.summary()["tensor.sigmoid"]["calls"]
    expected = 2 * math.ceil(1050 / 64) * 60
    if calls != expected:
        failures.append(f"tensor.sigmoid.calls {calls} != {expected}")


def self_test(ltcmh, workdir):
    failures = []
    _check_toy(failures)
    _check_pinned_counts(ltcmh, failures, workdir)
    for f in failures:
        print(f"self-test failed: {f}", file=sys.stderr)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def _epoch_seconds(ltcmh, n_train, seed=0, epochs=3):
    """Seconds per epoch of a 3-epoch run (2 warm-up, 1 with memory) at the
    default class shape scaled to n_train, using exactly n_train samples."""
    factor = max(1, math.ceil(n_train / 1050))
    groups = f"4x{200 * factor},10x{20 * factor},10x{5 * factor}"
    cfg = ltcmh.experiment.load_config(overrides=[
        f"groups={groups}", f"epochs={epochs}", f"warmup_epochs={epochs - 1}",
        f"seed={seed}"])
    data = ltcmh.dataset.synthesize_long_tailed(
        ltcmh.experiment.longtail_spec(cfg), seed=seed)
    trimmed, train_idx, _, _ = ltcmh.experiment.prepare_splits(data, cfg)
    train_idx = np.sort(np.random.default_rng(seed).choice(
        train_idx, size=n_train, replace=False))
    t0 = time.perf_counter()
    ltcmh.hash_learn.train(trimmed, train_idx,
                           ltcmh.experiment.train_config(cfg))
    return (time.perf_counter() - t0) / epochs


def _evaluate_seconds(ltcmh, n_db, n_query=240, c=16, classes=24, seed=0):
    """Median ``evaluate`` time on random codes and 1-2 random labels."""
    rng = np.random.default_rng(seed)

    def labels(n):
        lab = np.zeros((n, classes), dtype=np.uint8)
        lab[np.arange(n), rng.integers(0, classes, n)] = 1
        second = rng.random(n) < 0.2
        lab[np.flatnonzero(second), rng.integers(0, classes, second.sum())] = 1
        return lab

    rt = ltcmh.retrieval
    q = rt.binarize(rng.normal(size=(c, n_query)))
    db = rt.binarize(rng.normal(size=(c, n_db)))
    q_lab, db_lab = labels(n_query), labels(n_db)
    part = ltcmh.dataset.split_head_tail(db_lab.sum(axis=0), n_db // classes)
    times = []
    for _ in range(3 if n_db < 100_000 else 1):
        t0 = time.perf_counter()
        rt.evaluate(q, q_lab, db, db_lab, part, "i2t")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaling_curves(ltcmh):
    return {
        "epoch_s_by_n_train": {str(n): _epoch_seconds(ltcmh, n)
                               for n in (525, 1050, 2100, 4200)},
        "evaluate_s_by_n_db": {str(n): _evaluate_seconds(ltcmh, n)
                               for n in (1_000, 10_000, 100_000)},
    }
