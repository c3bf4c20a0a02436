"""Run the benchmark on seeds 0-9 and record the spread and baseline.

    python3 benchmarks/record_baseline.py

For each workload it runs ``run.py --trace 0`` once per seed, one after the
other, and reports every end-to-end metric's median, quartiles and spread
(interquartile range over median, from ``statistics.quantiles(n=4)``)
against the metric's bound, and the same spread of the wall-clock timings
the metrics were normalised from, then runs ``run.py --trace 1`` once. Last come
the scaling curves. It writes it all to benchmarks/BENCH_0.json, with the
git commit and src/ tree hashes when run inside a git checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
OUT = Path(__file__).resolve().parent / "BENCH_0.json"
SEEDS = range(10)


def run(args):
    """The environment and result lines of one run, and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    run_s = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), run_s


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def spread_table(results, metrics):
    table = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median if median else None,
                            "bound": m["bound"], "values": values}
    return table


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    record = {"commit": git("rev-parse", "HEAD"),
              "src_tree": git("rev-parse", "HEAD:src"),
              "run_seconds": spec["run_seconds"],
              "seeds": list(SEEDS),
              "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        results, run_s, walls = [], [], []
        for seed in record["seeds"]:
            env, result, took = run(["--workload", name, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", "0"])
            record["env"] = env["env"]
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} checks failed")
            results.append(result)
            walls.append(env["wall_s"])
            run_s.append(took)
        table = spread_table(results, spec["end_to_end"])
        wall_table = {}
        for key in walls[0]:
            values = [w[key] for w in walls]
            q1, median, q3 = statistics.quantiles(values, n=4)
            wall_table[key] = {"median": median, "spread": (q3 - q1) / median,
                               "values": values}
        entry = {"correct": all(r["correct"] for r in results),
                 "run_s": run_s, "end_to_end": table, "wall_s": wall_table}
        print(f"\n{name}  ({len(results)} seeds, median run "
              f"{statistics.median(run_s):.1f} s)")
        for metric, row in table.items():
            spread = row["spread"]
            flag = ("" if spread is None or spread < row["bound"] / 3
                    else "  <-- over bound/3" if spread <= row["bound"]
                    else "  <-- OVER BOUND")
            print(f"  {metric:22s} median {row['median']:<14.6g} spread "
                  f"{spread if spread is None else round(spread, 4)!s:8s} "
                  f"bound {row['bound']}{flag}")
        for key, row in wall_table.items():
            print(f"  wall {key:17s} median {row['median']:<14.6g} spread "
                  f"{round(row['spread'], 4)}")
        _, traced, _ = run(["--workload", name, "--seed", str(SEEDS[0]),
                            "--seconds", seconds, "--trace", "1"])
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
        sys.stdout.flush()
    out = subprocess.run(RUN + ["--scaling"], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=900).stdout
    record["scaling"] = json.loads(out.strip().splitlines()[-1])["scaling"]
    OUT.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
