"""Command-line entry point.

Subcommands: synth, train, encode, eval, gradcheck, sweep. Every command
honors --seed for bit-reproducible outputs, and commands that produce
output directories persist the effective (defaults-merged) config next to
their outputs.

Exit codes: 0 success, 1 usage, 2 I/O or file format, 3 numerical or
resource failure (a NumPy RuntimeWarning raised as an error included).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import dataset as ds
from . import experiment, gradcheck, hash_learn, retrieval
from .errors import ConfigError, EvaluationError, FormatError, TrainingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _common_config(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override any config key")


def _check_out(out, is_file):
    """Raise OSError unless --out can be written: an output directory (made
    after the work, see _outdir) may not be, or be under, a file, and an
    output file needs an existing directory and may not be one itself."""
    out = Path(out)
    where = out.parent if is_file else out
    found = next(p for p in (where, *where.parents) if p.exists())
    if not found.is_dir():
        raise NotADirectoryError(f"--out {out}: {found} is not a directory")
    if is_file and found != where:
        raise FileNotFoundError(f"--out {out}: {where} does not exist")
    if is_file and out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")


def _load_cfg(args):
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    return experiment.load_config(args.config, args.overrides + seed)


def _outdir(args, cfg):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiment.save_config(cfg, out / "config.effective")
    return out


def cmd_synth(args):
    cfg = _load_cfg(args)
    data = experiment.trim_dataset(ds.synthesize_long_tailed(
        experiment.longtail_spec(cfg), seed=cfg["seed"]), cfg)
    out = _outdir(args, cfg)
    path = out / "dataset.lcmd"
    ds.save_dataset(data, path)
    counts = data.labels.sum(axis=0)
    print(f"wrote {path}: n={data.n}, classes={data.num_classes}, "
          f"d_x={data.X.shape[1]}, d_y={data.Y.shape[1]}")
    print("per-class sample counts (incl. secondary labels):",
          " ".join(str(int(c)) for c in counts))
    return EXIT_OK


def cmd_train(args):
    cfg = _load_cfg(args)
    data = ds.load_dataset(args.dataset)
    # some config errors need the dataset: write nothing before training
    _, model, history = experiment.run_train(data, cfg)
    out = _outdir(args, cfg)
    hash_learn.save_model(out / "model.lcmh", model)
    experiment.write_loss_csv(out / "loss.csv", history)
    final = history[-1]["total"] if history else float("nan")
    print(f"wrote {out / 'model.lcmh'} and {out / 'loss.csv'} "
          f"({len(history)} epochs, final total loss {final:.6g})")
    return EXIT_OK


def _check_inputs(model, data, paths=(), codes=()):
    """Raise FormatError unless the dataset, and each given code file (of
    the query split, then of the retrieval split), fits the model."""
    have = (data.X.shape[1], data.Y.shape[1], data.num_classes)
    want = (model.embedder_x.basic_net.input_dim,
            model.embedder_y.basic_net.input_dim, model.bank_x.num_classes)
    if have != want:
        raise FormatError(f"dataset has (d_x, d_y, L) = {have}, "
                          f"the model expects {want}")
    idx = experiment.split_indices(model, "all")
    if idx.size and not (idx[0] >= 0 and idx[-1] < data.n):
        raise FormatError(f"model split indices span {idx[0]}..{idx[-1]}, "
                          f"the dataset has {data.n} rows")
    splits = (model.query_indices, model.retrieval_indices)
    for path, c, split in zip(paths, codes, splits):
        if path is not None and (c.n, c.c) != (split.size, model.code_length):
            raise FormatError(f"{path} holds {c.n} codes of {c.c} bits, the "
                              f"split needs {split.size} of "
                              f"{model.code_length}")


def cmd_encode(args):
    model = hash_learn.load_model(args.model)
    data = ds.load_dataset(args.dataset)
    _check_inputs(model, data)
    codes = experiment.encode_split(model, data, args.modality, args.split)
    retrieval.save_codes(args.out, codes)
    print(f"wrote {args.out}: {codes.n} codes of {codes.c} bits "
          f"({args.modality}/{args.split})")
    return EXIT_OK


def cmd_eval(args):
    model = hash_learn.load_model(args.model)
    data = ds.load_dataset(args.dataset)
    paths = (args.query_codes, args.db_codes)   # a side with no file is encoded
    codes = [None if p is None else retrieval.load_codes(p) for p in paths]
    _check_inputs(model, data, paths, codes)
    result = experiment.evaluate_direction(model, data, args.direction, *codes)
    retrieval.write_result_csv(args.out, [result])
    for direction, group, bits, m, nq in result.rows():
        print(f"{direction} {group:>4} {bits}bit map={m:.4f} queries={nq}")
    return EXIT_OK


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if not 0.0 < args.threshold < float("inf"):
        raise ConfigError(f"threshold must be finite and > 0, got "
                          f"{args.threshold}")
    errors = gradcheck.run_all(seed=args.seed)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name:<24} max relative error {err:.3e}")
    print(f"overall max relative error {worst:.3e}")
    if worst > args.threshold:
        print("FAIL: gradient check exceeded threshold", file=sys.stderr)
        return EXIT_NUMERICAL
    print("PASS")
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_cfg(args)
    values = [experiment.parse_value("--values", args.param, v,
                                     experiment.DEFAULTS[args.param])
              for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    for v in values:   # reject a bad value before the first run trains
        experiment.train_config({**cfg, args.param: v})
    data = ds.load_dataset(args.dataset)
    rows = []
    for v in values:
        trimmed, model, _ = experiment.run_train(data, {**cfg, args.param: v})
        i2t = experiment.evaluate_direction(model, trimmed, "i2t")
        t2i = experiment.evaluate_direction(model, trimmed, "t2i")
        rows.append((f"{v:g}", f"{i2t.map_all:.6f}", f"{t2i.map_all:.6f}"))
        print(f"{args.param}={v:g}: map_i2t={i2t.map_all:.4f} "
              f"map_t2i={t2i.map_all:.4f}")
    path = _outdir(args, cfg) / f"sweep_{args.param}.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([args.param, "map_i2t", "map_t2i"])
        w.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltcmh",
        description="Meta-embedding cross-modal hashing for long-tailed data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a long-tailed dataset")
    _common_config(p)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a hash model")
    _common_config(p)
    p.add_argument("--dataset", required=True, help="dataset file (.lcmd)")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a dataset split to binary codes")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--modality", choices=hash_learn.MODALITIES, required=True)
    p.add_argument("--split", choices=experiment.SPLITS, default="all")
    p.add_argument("--out", required=True, help="output code file (.lcmb)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="evaluate cross-modal retrieval MAP")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--direction", choices=experiment.DIRECTIONS, required=True)
    p.add_argument("--query-codes", help="precomputed query code file")
    p.add_argument("--db-codes", help="precomputed database code file")
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="hyperparameter sensitivity sweep")
    _common_config(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--param", choices=("alpha", "beta"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if "out" in args:   # before any file is read or work is done
            _check_out(args.out, args.func in (cmd_encode, cmd_eval))
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (TrainingError, EvaluationError, FloatingPointError,
            RuntimeWarning, MemoryError, ValueError) as e:
        # NumPy's "array is too big" fails an allocation, as MemoryError does;
        # a RuntimeWarning arrives here only when warnings are raised as errors
        if isinstance(e, ValueError) and "array is too big" not in str(e):
            raise
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
