"""ltcmh benchmark: one command, two workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload train_default --seed 0 --seconds 35 --trace 0

``--trace 0`` runs the workload untraced, repeating set-up and the timed
path (one caller, closed loop) for ``--seconds`` seconds and at least
4 or 5 times (see bench_workloads.py), and reports every end-to-end metric
named in BENCHMARK.json. Its timings are seconds at a fixed reference
speed of the host (see bench_speed.py); the wall-clock medians and the
reference kernel's median time are printed with the environment. ``--trace 1`` runs one repetition untraced and the
same repetition again with timing spans around the calls into each ltcmh
module (see bench_trace.py), and reports every per-layer metric, with self
times and the tracing overhead (traced minus untraced wall time).

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment (core count, BLAS vendor and threads, versions)
and, for ``--trace 0``, the wall-clock timings.

Other modes: ``--self-test`` checks the tracer's bindings and self-time
arithmetic; ``--scaling`` prints non-gating scaling curves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# MAP is bit-identical only at a fixed BLAS thread count, and one thread
# keeps a 2-core box's second core for the rest of the machine. This must
# be set before NumPy loads BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import bench_workloads as bw  # noqa: E402  (after the BLAS setting)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_ltcmh():
    """Import ltcmh from this checkout's src/, never from an installed copy."""
    if not (SRC / "ltcmh" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ltcmh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ltcmh
    import ltcmh.experiment  # noqa: F401  (not imported by the package)
    if not Path(ltcmh.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: ltcmh imported from {ltcmh.__file__}")
    return ltcmh


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"benchmark: {path} not found")
    return json.loads(path.read_text())


def environment():
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ltcmh, wl, args, workdir, checks):
    """Values of the end-to-end metrics, the repetitions run, and the
    wall-clock medians beside them."""
    recs, speed = bw.run_reps(ltcmh, wl, args.seed, args.seconds, workdir, checks)
    quality = recs[:wl.quality_reps]
    median = lambda f: statistics.median(f(r) for r in recs)  # noqa: E731
    wall = lambda span: span[1] - span[0]  # noqa: E731
    wall_s = {f"{stage}_s": median(lambda r: wall(r[f"{stage}_span"]))
              for stage in ("pipeline", "train")}
    for stage in ("setup", "encode", "eval"):
        wall_s[f"{stage}_s"] = statistics.median(
            wall(s) for r in recs for s in r[f"{stage}_spans"])
    wall_s["reference_tick_s"] = speed.median_tick()
    values = {
        "setup_s": statistics.median(t for r in recs for t in r["setup_s"]),
        "pipeline_s": median(lambda r: r["pipeline_s"]),
        "train_samples_per_s": median(lambda r: r["train_samples"] / r["train_s"]),
        "encode_items_per_s": statistics.median(
            r["encode_items"] / t for r in recs for t in r["encode_s"]),
        "eval_queries_per_s": statistics.median(
            r["eval_queries"] / t for r in recs for t in r["eval_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "check_pass_frac": 1.0 - len(checks.failures) / checks.attempted,
    }
    for key in ("map_i2t", "map_t2i", "map_tail_i2t", "map_tail_t2i"):
        values[key] = statistics.fmean(r[key] for r in quality)
    return values, len(recs), wall_s


def per_layer(ltcmh, wl, args, workdir, checks, names):
    """Values of the named per-layer metrics, from one repetition run
    untraced and then traced; the difference is the tracing overhead."""
    import bench_trace
    clock = time.perf_counter
    maps, walls = [], []
    tracer = bench_trace.Tracer(bench_trace.layer_table(ltcmh))
    for traced in (False, True):
        rep_dir = workdir / ("traced" if traced else "untraced")
        rep_dir.mkdir()
        if traced:
            tracer.install()
        try:
            t0 = clock()
            run = bw.timed_path(ltcmh, wl, bw.setup(ltcmh, wl, args.seed, rep_dir))
            walls.append(clock() - t0)
        finally:
            tracer.uninstall()
        bw.check_outputs(ltcmh, checks, run, args.seed, rep_dir)
        maps.append([(r.map_all, r.map_tail) for r in run["results"].values()])
        del run
    checks.check(maps[0] == maps[1], f"tracing changed MAP: {maps}")

    summary, counts = tracer.summary(), tracer.counts
    spans = {row[0] for row in tracer.table}
    epochs = counts["hash_learn.train.epochs"]
    per_epoch = lambda v: v / epochs if epochs else 0.0  # noqa: E731
    values = {
        "hash_learn.objective.calls_per_epoch":
            per_epoch(summary["hash_learn.objective"]["calls"]),
        "hash_learn.phi_pairs_per_epoch":
            per_epoch(counts["hash_learn.pairwise_phi.pairs"]),
        "hash_learn.phi_pairs_per_epoch_base":
            per_epoch(counts["hash_learn.train.phi_pairs_base"]),
        "meta_embed.eta_d2_bytes": counts["meta_embed.embed_batch.eta_d2_bytes"],
        "trace.spans": len(tracer.spans),
        "trace.est_overhead_s": len(tracer.spans) * tracer.span_cost(),
        "trace.overhead_s": walls[1] - walls[0],
        "trace.overhead_frac": (walls[1] - walls[0]) / walls[0],
    }
    for name in names:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if span not in spans:
            raise SystemExit(f"benchmark: no span for per-layer metric {name}")
        if field in ("calls", "s", "self_s"):
            values[name] = summary[span][field]
        elif field in bench_trace.COUNT_FIELDS:
            values[name] = counts[name]
        else:
            raise SystemExit(f"benchmark: unknown count in {name}")
    return values


def run_workload(ltcmh, args, spec, workdir):
    wl = bw.WORKLOADS[args.workload]
    checks = bw.Checks()
    wall_s = None
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(ltcmh, wl, args, workdir, checks,
                           [m["name"] for m in wanted])
        operations = 2
    else:
        wanted = spec["end_to_end"]
        values, operations, wall_s = end_to_end(ltcmh, wl, args, workdir, checks)
    for what in checks.failures:
        print(f"check failed: {what}", file=sys.stderr)
    failed = len(checks.failures)
    return {"correct": failed == 0, "attempted": operations + checks.attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}, wall_s


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(bw.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--scaling", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (args.workload or args.self_test or args.scaling):
        p.error("give --workload, --self-test or --scaling")

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    ltcmh = import_ltcmh()
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.self_test:
            import bench_extra
            return bench_extra.self_test(ltcmh, workdir)
        if args.scaling:
            import bench_extra
            print(json.dumps({"env": environment(),
                              "scaling": bench_extra.scaling_curves(ltcmh)}))
            return 0
        result, wall_s = run_workload(ltcmh, args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    info = {"env": environment(), "workload": args.workload, "seed": args.seed}
    if wall_s:
        info["wall_s"] = wall_s
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
