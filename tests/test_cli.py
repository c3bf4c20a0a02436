import csv
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcmh import experiment, hash_learn, meta_embed, retrieval, tensor
from ltcmh.cli import main
from ltcmh.dataset import (LongTailSpec, MultiModalDataset, load_dataset,
                           save_dataset, synthesize_long_tailed)
from ltcmh.errors import ConfigError, FormatError, LtcmhError
from ltcmh.tensor import FeedForwardNet

FAST = [
    "groups=2x12,2x5", "d_x=8", "d_y=6", "extra_per_class=4",
    "latent_dim=4", "noise_std=0.4", "queries_per_class=2",
    "code_length=8", "hidden_dim=16", "batch_columns=16", "epochs=4",
    "warmup_epochs=2", "head_threshold=10",
]


def _sets(extra=()):
    args = []
    for kv in [*FAST, *extra]:
        args += ["--set", kv]
    return args


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["synth", "--out", str(root / "data"), *_sets()]) == 0
    assert main(["train", "--dataset", str(root / "data" / "dataset.lcmd"),
                 "--out", str(root / "run"), *_sets()]) == 0
    return root


@pytest.fixture(scope="module")
def codes(pipeline):
    """Image query codes and text retrieval codes of the pipeline model:
    the two files `eval --direction i2t` takes."""
    paths = []
    for modality, split in (("image", "query"), ("text", "retrieval")):
        out = pipeline / f"{modality}_{split}.lcmb"
        assert main(["encode", "--model", str(pipeline / "run" / "model.lcmh"),
                     "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                     "--modality", modality, "--split", split,
                     "--out", str(out)]) == 0
        paths.append(out)
    return paths


def _encode_and_eval(model, dataset, out_dir, codes=None):
    """Exit codes of `encode` and of `eval --direction i2t` (with the
    (query, db) code files when given) on these files."""
    common = ["--model", str(model), "--dataset", str(dataset)]
    encoded = main(["encode", *common, "--modality", "image",
                    "--out", str(out_dir / "c.lcmb")])
    pre = [] if codes is None else ["--query-codes", str(codes[0]),
                                    "--db-codes", str(codes[1])]
    evaluated = main(["eval", *common, "--direction", "i2t", *pre,
                      "--out", str(out_dir / "r.csv")])
    return encoded, evaluated


# --- synth ------------------------------------------------------------------------

def test_synth_writes_dataset(pipeline):
    data = load_dataset(pipeline / "data" / "dataset.lcmd")
    assert data.n == 2 * 16 + 2 * 9
    assert data.num_classes == 4
    assert (pipeline / "data" / "config.effective").exists()


def test_synth_config_effective_is_utf8_in_any_locale(tmp_path):
    # a UTF-8 config whose groups value keeps a no-break space after the
    # comma (each group is stripped when parsed, the value is not): under
    # the C locale, config.effective is still written as UTF-8
    config = tmp_path / "in.cfg"
    config.write_text("groups = 2x10,\u00a02x4\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(filter(None, [
                   str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ltcmh.cli", "synth", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (experiment.load_config(tmp_path / "out" / "config.effective")
            == experiment.load_config(config))


def test_synth_flickr_shape(tmp_path):
    out = tmp_path / "flickr"
    code = main(["synth", "--out", str(out), "--set",
                 "groups=4x2000,10x200,10x50", "--set", "extra_per_class=0"])
    assert code == 0
    assert load_dataset(out / "dataset.lcmd").n == 10500


def test_synth_single_class(tmp_path):
    code = main(["synth", "--out", str(tmp_path / "one"), "--set",
                 "groups=1x5", "--set", "extra_per_class=0"])
    assert code == 0
    assert load_dataset(tmp_path / "one" / "dataset.lcmd").n == 5


def test_synth_seed_reproducible(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / name), "--seed", "7",
                     *_sets()]) == 0
    assert ((tmp_path / "a" / "dataset.lcmd").read_bytes()
            == (tmp_path / "b" / "dataset.lcmd").read_bytes())


def test_synth_invalid_spec_usage_error(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "bad"), "--set",
                 "groups=bogus"]) == 1


def test_unknown_config_key_usage_error(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "bad"), "--set",
                 "not_a_key=1"]) == 1


def test_non_utf8_config_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("seed = 1  # r\xe9glage\n".encode("latin-1"))
    assert main(["synth", "--out", str(tmp_path / "bad"),
                 "--config", str(path)]) == 1
    assert f"{path}: not UTF-8 at byte 13" in capsys.readouterr().err


@pytest.mark.parametrize("text, lineno, message", [
    ("seed = 1\nno equals sign\n", 2, "expected 'key = value'"),
    # blank and comment lines are skipped but counted
    ("\n# a comment\n  # indented\nseed = 2  # trailing\nbogus = 1\n", 5,
     "'bogus'"),
])
def test_bad_config_file_usage_error(tmp_path, capsys, text, lineno, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["synth", "--out", str(tmp_path / "out"),
                 "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and f"{path}:{lineno}: " in err
    assert not (tmp_path / "out").exists()


def test_config_file_byte_order_mark_accepted(tmp_path, capsys):
    # editors that save "UTF-8 with BOM" start the file with EF BB BF
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"epochs = 2\nno_memory = yes\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert (experiment.load_config(marked) == experiment.load_config(plain)
            != experiment.DEFAULTS)
    # a bad byte after the mark is still named by its offset in the file
    marked.write_bytes(b"\xef\xbb\xbfseed = 1  # r\xe9glage\n")
    assert main(["synth", "--out", str(tmp_path / "bad"),
                 "--config", str(marked)]) == 1
    assert f"{marked}: not UTF-8 at byte 16" in capsys.readouterr().err


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n# seed = 5\n   \nseed = 2  # trailing\n"
                    "no_memory = yes\n")
    assert experiment.load_config(path, ["epochs=3"]) == {
        **experiment.DEFAULTS, "seed": 2, "no_memory": True, "epochs": 3}


@pytest.mark.parametrize("command, setting, message", [
    ("synth", "epochs=abc", "'epochs'"),
    ("synth", "alpha=x", "'alpha'"),
    ("synth", "mixed_fraction=2", "mixed_fraction"),
    ("train", "hidden_dim=0", "hidden_dim"),
    ("train", "queries_per_class=-1", "queries_per_class"),
    ("train", "max_keep=0", "max_keep=0"),
    ("train", "min_keep=4", "min_keep=4"),
    ("synth", "d_x=-1", "d_x"),
    ("synth", "d_x=0", "d_x"),
    ("synth", "d_y=0", "d_y"),
    ("synth", "latent_dim=0", "latent_dim"),
    ("synth", "extra_per_class=-50", "extra_per_class"),
    ("synth", "noise_std=-1", "noise_std"),
    ("synth", "noise_std=nan", "noise_std"),
    ("synth", "no_memory=maybe", "expected boolean for 'no_memory'"),
    ("synth", "groups=,,", "groups must be non-empty"),
    ("synth", "not_a_key", "'not_a_key'"),
])
def test_bad_config_value_usage_error(pipeline, tmp_path, capsys, command,
                                      setting, message):
    args = [command, "--out", str(tmp_path / "out"), *_sets([setting])]
    if command == "train":
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    assert main(args) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("synth", "mixed_fraction=2"), ("train", "hidden_dim=0"),
    ("train", "eta_mode=learned"),
    # rejected against the dataset: 24 config classes for 4 dataset
    # classes, and a head threshold that leaves no non-empty tail class
    ("train", "groups=4x200,10x20,10x5"), ("train", "head_threshold=1"),
    ("sweep", "groups=4x200,10x20,10x5")])
def test_rejected_run_writes_no_config(pipeline, tmp_path, command, setting):
    # nothing is written until every config check, the dataset-dependent
    # ones included, has passed
    args = [command, "--out", str(tmp_path / "out"), *_sets([setting])]
    if command != "synth":
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    if command == "sweep":
        args += ["--param", "alpha", "--values", "1"]
    assert main(args) == 1
    assert not (tmp_path / "out" / "config.effective").exists()


def test_memory_error_numerical_exit(pipeline, tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 13.4 GiB for an array with shape (60010, 60010)"

    def run_train(data, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(experiment, "run_train", run_train)
    assert main(["train", "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(tmp_path / "out"), *_sets()]) == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_attention_init_overflow_numerical_exit(tmp_path, capsys):
    # features x 1e300 make the prototypes' squared norms overflow when the
    # memory switches on; under warnings-as-errors that was a RuntimeWarning
    # traceback, and is now one error line and exit 3
    sets = []
    for kv in ("groups=2x30,3x6,3x3", "head_threshold=10", "epochs=3",
               "warmup_epochs=0"):
        sets += ["--set", kv]
    assert main(["synth", "--out", str(tmp_path / "data"), *sets]) == 0
    data = load_dataset(tmp_path / "data" / "dataset.lcmd")
    data.X *= 1e300
    data.Y *= 1e300
    save_dataset(data, tmp_path / "huge.lcmd")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--dataset", str(tmp_path / "huge.lcmd"),
                     "--out", str(tmp_path / "run"), *sets])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite attention init")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, settings", [
    ("synth", ["d_x=4611686018427387904"]),
    ("synth", ["groups=1x1", "d_x=9223372036854775807"]),
    ("train", [*FAST, "hidden_dim=4611686018427387904"]),
    ("train", [*FAST, "code_length=4611686018427387904"]),
])
def test_array_too_big_numerical_exit(pipeline, tmp_path, capsys, command,
                                      settings):
    # a size inside 64 bits whose array NumPy cannot count in bytes is a
    # failed allocation: exit 3, one error line, and no output at all
    args = [command, "--out", str(tmp_path / "out")]
    for kv in settings:
        args += ["--set", kv]
    if command == "train":
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: array is too big") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_other_value_error_propagates(pipeline, tmp_path, monkeypatch):
    # only NumPy's size overflow is an exit code; any other ValueError is
    # a bug and keeps its traceback
    def run_train(data, cfg):
        raise ValueError("setting an array element with a sequence")

    monkeypatch.setattr(experiment, "run_train", run_train)
    with pytest.raises(ValueError, match="with a sequence"):
        main(["train", "--dataset", str(pipeline / "data" / "dataset.lcmd"),
              "--out", str(tmp_path / "out"), *_sets()])


@pytest.mark.parametrize("command, seed", [
    ("synth", "--set=seed=-1"), ("synth", "--seed=-1"),
    ("train", "--set=seed=-1"), ("sweep", "--seed=-3"),
    ("gradcheck", "--seed=-1"),
])
def test_negative_seed_usage_error(pipeline, tmp_path, capsys, command, seed):
    args = [command, seed]
    if command != "gradcheck":
        args += ["--out", str(tmp_path / "out"), *_sets()]
    if command in ("train", "sweep"):
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    if command == "sweep":
        args += ["--param", "alpha", "--values", "1"]
    assert main(args) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- train ------------------------------------------------------------------------

def test_train_outputs(pipeline):
    run = pipeline / "run"
    assert (run / "model.lcmh").exists()
    lines = (run / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,nll,quantization,balance,total"
    assert len(lines) == 1 + 4      # header + one row per epoch


def test_train_zero_epochs(pipeline, tmp_path):
    out = tmp_path / "zero"
    code = main(["train", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(out), *_sets(["epochs=0"])])
    assert code == 0
    model = hash_learn.load_model(out / "model.lcmh")
    assert model.code_length == 8
    assert (out / "loss.csv").read_text().strip().splitlines() == [
        "epoch,nll,quantization,balance,total"]


@pytest.mark.parametrize("learned", ["eta_mode=learned"])
def test_train_learned_eta_without_memory_epochs_usage_error(pipeline,
                                                             tmp_path,
                                                             capsys, learned):
    # eta is a distance ratio in one of two modes; there is no learned eta,
    # even with memory-phase epochs (FAST trains 2 of its 4 through it)
    assert main(["train", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(tmp_path / "out"), *_sets([learned])]) == 1
    assert ("eta_mode 'learned' is not one of intent_ratio, as_printed"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "model.lcmh").exists()


@pytest.mark.parametrize("setting", [
    "learned_eta=true", "momentum=0.5", "clip_norm=0", "bank_momentum=0.5",
    "attention_init_scale=1", "normalize_weights=false",
    "retrieval_includes_queries=true"])
def test_train_learned_eta_key_removed_usage_error(pipeline, tmp_path,
                                                   capsys, setting):
    # eta_mode=learned is the one spelling of the old learned_eta alias;
    # the SGD momentum, clip norm, bank EMA and attention-init scale are
    # fixed, attention is always a softmax and the query split is never part
    # of retrieval, so their former keys are unknown keys too
    assert main(["train", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(tmp_path / "out"), *_sets([setting])]) == 1
    key = setting.split("=")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_train_missing_dataset_io_error(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "absent.lcmd"),
                 "--out", str(tmp_path / "out"), *_sets()]) == 2
    assert not (tmp_path / "out").exists()


def _patch_out_the_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("synthesize_long_tailed", "load_dataset"):
        monkeypatch.setattr(f"ltcmh.dataset.{name}", work)
    monkeypatch.setattr(hash_learn, "train", work)
    monkeypatch.setattr(hash_learn, "load_model", work)


def _out_args(pipeline, command, out):
    """The arguments of a command that would write to `out`."""
    args = [command, "--out", str(out)]
    if command in ("synth", "train", "sweep"):
        args += _sets()
    if command != "synth":
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    if command in ("encode", "eval"):
        args += ["--model", str(pipeline / "run" / "model.lcmh")]
    return args + {"sweep": ["--param", "alpha", "--values", "1"],
                   "encode": ["--modality", "image"],
                   "eval": ["--direction", "i2t"]}.get(command, [])


@pytest.mark.parametrize("command, under", [
    pytest.param(command, under, id=f"{command}-{case}")
    for command in ("synth", "train", "sweep", "encode", "eval")
    for under, case in (("", "is_file"), ("sub", "under_file"))
    # encode and eval write a file, and may write over one
    if under or command in ("synth", "train", "sweep")])
def test_out_file_rejected_before_the_work(pipeline, tmp_path, capsys,
                                           monkeypatch, command, under):
    # an --out that is, or is under, a file is found before the dataset or
    # model is read or made and before any training; the file is left as it
    # was and nothing is written
    _patch_out_the_work(monkeypatch)
    out = tmp_path / "taken"
    out.write_bytes(b"keep")
    assert main(_out_args(pipeline, command, out / under)) == 2
    assert (f"--out {out / under}: {out} is not a directory"
            in capsys.readouterr().err)
    assert out.read_bytes() == b"keep" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", ["encode", "eval"])
@pytest.mark.parametrize("case", ["is_dir", "no_dir"])
def test_out_file_unwritable_rejected_before_the_work(
        pipeline, tmp_path, capsys, monkeypatch, command, case):
    # encode and eval write one file: an --out that is a directory, or in
    # a directory that does not exist, fails before the model is read
    _patch_out_the_work(monkeypatch)
    out = tmp_path / "out"
    if case == "is_dir":
        out.mkdir()
    else:
        out = out / "codes.lcmb"
    assert main(_out_args(pipeline, command, out)) == 2
    message = (f"--out {out} is a directory" if case == "is_dir" else
               f"--out {out}: {out.parent} does not exist")
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([out] if case == "is_dir" else [])


@pytest.mark.parametrize("setting, message", [
    ("queries_per_class=-5", "queries_per_class must be >= 0"),
    ("min_keep=4", "got min_keep=4, max_keep=3"),
    ("max_keep=0", "got min_keep=2, max_keep=0"),
    ("min_keep=0", "got min_keep=0, max_keep=3"),
])
@pytest.mark.parametrize("command", ["synth", "train"])
def test_split_keys_checked_with_the_config(pipeline, tmp_path, capsys,
                                            monkeypatch, command, setting,
                                            message):
    # trim_labels' and split_query_retrieval's rules reject these keys
    # before any dataset is made or read
    def work(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("synthesize_long_tailed", "load_dataset"):
        monkeypatch.setattr(f"ltcmh.dataset.{name}", work)
    args = [command, "--out", str(tmp_path / "out"), *_sets([setting])]
    if command == "train":
        args += ["--dataset", str(pipeline / "data" / "dataset.lcmd")]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_effective_config_roundtrip(pipeline, tmp_path):
    # rerunning from the persisted effective config reproduces the run
    effective = pipeline / "run" / "config.effective"
    cfg = experiment.load_config(effective)
    assert cfg["epochs"] == 4 and cfg["code_length"] == 8
    out = tmp_path / "again"
    code = main(["train", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(out), "--config", str(effective)])
    assert code == 0
    assert ((out / "loss.csv").read_bytes()
            == (pipeline / "run" / "loss.csv").read_bytes())
    assert ((out / "model.lcmh").read_bytes()
            == (pipeline / "run" / "model.lcmh").read_bytes())


def test_train_config_defaults_are_train_config_defaults():
    cfg = experiment.load_config()
    assert experiment.train_config(cfg) == hash_learn.TrainConfig()
    # the synthesis keys are LongTailSpec's defaults, except for the 30
    # extra samples per class that the query and retrieval splits draw on
    spec = experiment.longtail_spec(cfg)
    assert spec == LongTailSpec(groups=spec.groups, extra_per_class=30)
    assert LongTailSpec(groups=spec.groups).extra_per_class == 0


# --- encode -----------------------------------------------------------------------

def test_encode_matches_in_process_oracle(pipeline, tmp_path):
    model_path = pipeline / "run" / "model.lcmh"
    data_path = pipeline / "data" / "dataset.lcmd"
    out = tmp_path / "img.lcmb"
    code = main(["encode", "--model", str(model_path), "--dataset",
                 str(data_path), "--modality", "image", "--split", "query",
                 "--out", str(out)])
    assert code == 0
    codes = retrieval.load_codes(out)
    assert codes.c == 8
    model = hash_learn.load_model(model_path)
    data = load_dataset(data_path)
    expect = experiment.encode_split(model, data, "image", "query")
    assert np.array_equal(codes.words, expect.words)
    assert codes.n == model.query_indices.size


def test_encode_train_split(pipeline, tmp_path):
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    data = load_dataset(pipeline / "data" / "dataset.lcmd")
    out = tmp_path / "train.lcmb"
    assert main(["encode", "--model", str(pipeline / "run" / "model.lcmh"),
                 "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--modality", "text", "--split", "train",
                 "--out", str(out)]) == 0
    ref = retrieval.binarize(hash_learn.encode_features(
        model, data.Y[model.train_indices], "text"))
    assert np.array_equal(retrieval.load_codes(out).words, ref.words)


def test_encode_deterministic(pipeline, tmp_path):
    args = ["encode", "--model", str(pipeline / "run" / "model.lcmh"),
            "--dataset", str(pipeline / "data" / "dataset.lcmd"),
            "--modality", "text", "--split", "all"]
    for name in ("a.lcmb", "b.lcmb"):
        assert main([*args, "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "a.lcmb").read_bytes()
            == (tmp_path / "b.lcmb").read_bytes())


def test_encode_corrupt_model_io_error(pipeline, tmp_path):
    bad = tmp_path / "bad.lcmh"
    bad.write_bytes(b"garbage")
    assert main(["encode", "--model", str(bad), "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--modality", "image", "--out",
                 str(tmp_path / "c.lcmb")]) == 2


def test_encode_truncated_model_io_error(pipeline, tmp_path):
    # the cut falls inside alpha/beta, right after magic and version
    bad = tmp_path / "cut.lcmh"
    bad.write_bytes((pipeline / "run" / "model.lcmh").read_bytes()[:12])
    assert main(["encode", "--model", str(bad), "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--modality", "image", "--out",
                 str(tmp_path / "c.lcmb")]) == 2


def test_encode_inconsistent_model_io_error(pipeline, tmp_path, capsys):
    # every head flag of the memory-on model cleared in the file: eta then
    # has no head class, and the error names the flags, which follow the
    # settings, the eight u64 sizes (L at offset 50) and the L class counts
    raw = bytearray((pipeline / "run" / "model.lcmh").read_bytes())
    (L,) = struct.unpack_from("<Q", raw, 50)
    at = 82 + 8 * L
    assert raw[9] == 1 and set(raw[at:at + L]) == {0, 1}
    raw[at:at + L] = bytes(L)
    bad = tmp_path / "no_head.lcmh"
    bad.write_bytes(bytes(raw))
    assert main(["encode", "--model", str(bad), "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--modality", "image", "--out",
                 str(tmp_path / "c.lcmb")]) == 2
    err = capsys.readouterr().err
    assert "inconsistent model" in err and f"at offset {at})" in err
    assert not (tmp_path / "c.lcmb").exists()


def _nan_weight(model):
    model.embedder_x.basic_net.weights[0][0, 0] = np.nan


# the next three change both sides alike, as train would
def _all_head(model):
    for bank in (model.bank_x, model.bank_y):
        bank.is_head = np.ones_like(bank.is_head)


def _all_tail(model):
    for bank in (model.bank_x, model.bank_y):
        bank.is_head = np.zeros_like(bank.is_head)


def _negative_eta_max(model):
    model.embedder_x.eta_max = model.embedder_y.eta_max = -2.0


@pytest.mark.parametrize("mutate", [_nan_weight, _all_head, _all_tail,
                                    _negative_eta_max])
def test_broken_model_io_error(pipeline, tmp_path, capsys, mutate):
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    mutate(model)
    bad = tmp_path / "broken.lcmh"
    hash_learn.save_model(bad, model)
    assert _encode_and_eval(bad, pipeline / "data" / "dataset.lcmd",
                            tmp_path) == (2, 2)
    assert capsys.readouterr().err.count("error: inconsistent") == 2


def test_encode_overflowing_model_numerical_error(pipeline, tmp_path, capsys):
    # finite weights whose features overflow to inf and NaN
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    model.embedder_x.basic_net.weights[0][:] = 1e308
    model.embedder_x.basic_net.biases[0][:] = 1e308
    big = tmp_path / "big.lcmh"
    hash_learn.save_model(big, model)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _encode_and_eval(big, pipeline / "data" / "dataset.lcmd",
                                tmp_path) == (3, 3)
    assert "features must be finite" in capsys.readouterr().err


def test_encode_non_finite_feature_in_last_chunk_numerical_error(
        pipeline, tmp_path, capsys):
    # a retrieval split of several chunks, not a multiple of ENCODE_CHUNK,
    # whose last row has a NaN image feature: encoding fails only at its
    # last chunk, and still exits 3 with no output
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    spec = experiment.longtail_spec(experiment.load_config(
        overrides=[*FAST, "extra_per_class=700"]))
    data = synthesize_long_tailed(spec, seed=0)
    n = 2 * meta_embed.ENCODE_CHUNK + 517
    model.retrieval_indices = np.arange(data.n - n, data.n)
    data.X[-1, 0] = np.nan
    save_dataset(data, tmp_path / "d.lcmd")
    hash_learn.save_model(tmp_path / "m.lcmh", model)
    common = ["--model", str(tmp_path / "m.lcmh"),
              "--dataset", str(tmp_path / "d.lcmd")]
    assert main(["encode", *common, "--modality", "image", "--split",
                 "retrieval", "--out", str(tmp_path / "c.lcmb")]) == 3
    assert main(["eval", *common, "--direction", "t2i",
                 "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("features must be finite") == 2
    assert not (tmp_path / "c.lcmb").exists()
    assert not (tmp_path / "r.csv").exists()


def test_encode_all_with_queries_in_retrieval(pipeline, tmp_path):
    # training never writes overlapping splits, but a model file may hold
    # them: put the query split into retrieval too
    data_path = str(pipeline / "data" / "dataset.lcmd")
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    model.retrieval_indices = np.union1d(model.retrieval_indices,
                                         model.query_indices)
    overlapping = tmp_path / "overlapping.lcmh"
    hash_learn.save_model(overlapping, model)
    out = tmp_path / "all.lcmb"
    assert main(["encode", "--model", str(overlapping), "--dataset",
                 data_path, "--modality", "image", "--split", "all",
                 "--out", str(out)]) == 0
    assert retrieval.load_codes(out).n == load_dataset(data_path).n


@pytest.mark.parametrize("rows, x_cols, message", [
    (slice(None), slice(1, None), "(d_x, d_y, L)"),
    (slice(5), slice(None), "the dataset has 5 rows"),
])
def test_encode_dataset_not_fitting_model_io_error(pipeline, tmp_path, capsys,
                                                   rows, x_cols, message):
    data = load_dataset(pipeline / "data" / "dataset.lcmd")
    shrunk = tmp_path / "shrunk.lcmd"
    save_dataset(MultiModalDataset(X=data.X[rows, x_cols], Y=data.Y[rows],
                                   labels=data.labels[rows]), shrunk)
    assert main(["encode", "--model", str(pipeline / "run" / "model.lcmh"),
                 "--dataset", str(shrunk), "--modality", "image",
                 "--out", str(tmp_path / "c.lcmb")]) == 2
    assert message in capsys.readouterr().err


# --- eval -------------------------------------------------------------------------

def test_eval_writes_table_csv(pipeline, tmp_path):
    out = tmp_path / "result.csv"
    code = main(["eval", "--model", str(pipeline / "run" / "model.lcmh"),
                 "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--direction", "i2t", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "direction,group,code_bits,map,num_queries"
    groups = [l.split(",")[1] for l in lines[1:]]
    assert groups == ["all", "head", "tail"]
    maps = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(0.0 <= m <= 1.0 for m in maps)


def test_eval_precomputed_codes_match(pipeline, tmp_path):
    model_path = str(pipeline / "run" / "model.lcmh")
    data_path = str(pipeline / "data" / "dataset.lcmd")
    q, db = tmp_path / "q.lcmb", tmp_path / "db.lcmb"
    assert main(["encode", "--model", model_path, "--dataset", data_path,
                 "--modality", "text", "--split", "query",
                 "--out", str(q)]) == 0
    assert main(["encode", "--model", model_path, "--dataset", data_path,
                 "--modality", "image", "--split", "retrieval",
                 "--out", str(db)]) == 0
    direct, pre = tmp_path / "direct.csv", tmp_path / "pre.csv"
    assert main(["eval", "--model", model_path, "--dataset", data_path,
                 "--direction", "t2i", "--out", str(direct)]) == 0
    assert main(["eval", "--model", model_path, "--dataset", data_path,
                 "--direction", "t2i", "--query-codes", str(q),
                 "--db-codes", str(db), "--out", str(pre)]) == 0
    assert direct.read_bytes() == pre.read_bytes()


@pytest.mark.parametrize("c, extra_rows", [(4, 0), (8, 1)])
def test_eval_codes_not_fitting_split_io_error(pipeline, tmp_path, capsys,
                                               c, extra_rows):
    # the model has code length 8; good database codes, bad query codes
    model_path = str(pipeline / "run" / "model.lcmh")
    data_path = str(pipeline / "data" / "dataset.lcmd")
    db = tmp_path / "db.lcmb"
    assert main(["encode", "--model", model_path, "--dataset", data_path,
                 "--modality", "image", "--split", "retrieval",
                 "--out", str(db)]) == 0
    n_query = hash_learn.load_model(model_path).query_indices.size
    q = tmp_path / "q.lcmb"
    retrieval.save_codes(q, retrieval.binarize(
        np.ones((c, n_query + extra_rows))))
    for given in (["--db-codes", str(db)], []):   # with and without db codes
        assert main(["eval", "--model", model_path, "--dataset", data_path,
                     "--direction", "t2i", "--query-codes", str(q), *given,
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert f"holds {n_query + extra_rows} codes of {c} bits" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("direction", ["i2t", "t2i"])
@pytest.mark.parametrize("given, missing", [("--query-codes", "--db-codes"),
                                            ("--db-codes", "--query-codes")])
def test_eval_one_codes_file_encodes_the_other_side(pipeline, tmp_path,
                                                    monkeypatch, given,
                                                    missing, direction):
    # the side with a file ranks its stored codes and only the missing
    # side is encoded; the CSV is the one of the eval with no files
    model_path = str(pipeline / "run" / "model.lcmh")
    data_path = str(pipeline / "data" / "dataset.lcmd")
    sides = {"--query-codes": (experiment.DIRECTIONS[direction][0], "query"),
             "--db-codes": (experiment.DIRECTIONS[direction][1], "retrieval")}
    stored = tmp_path / "stored.lcmb"
    modality, split = sides[given]
    assert main(["encode", "--model", model_path, "--dataset", data_path,
                 "--modality", modality, "--split", split,
                 "--out", str(stored)]) == 0
    common = ["eval", "--model", model_path, "--dataset", data_path,
              "--direction", direction]
    direct, pre = tmp_path / "direct.csv", tmp_path / "pre.csv"
    assert main([*common, "--out", str(direct)]) == 0
    calls, encode = [], experiment.encode_split
    monkeypatch.setattr(experiment, "encode_split",
                        lambda *a: calls.append(a[2:]) or encode(*a))
    assert main([*common, given, str(stored), "--out", str(pre)]) == 0
    assert calls == [sides[missing]]
    assert pre.read_bytes() == direct.read_bytes()


def test_eval_empty_database_numerical_error(pipeline, tmp_path, capsys):
    # 50 queries per class take every spare sample, so the retrieval
    # split is empty
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(run), *_sets(["queries_per_class=50",
                                            "epochs=1", "warmup_epochs=1"])]) == 0
    assert hash_learn.load_model(run / "model.lcmh").retrieval_indices.size == 0
    out = tmp_path / "r.csv"
    assert main(["eval", "--model", str(run / "model.lcmh"),
                 "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--direction", "i2t", "--out", str(out)]) == 3
    assert "empty database" in capsys.readouterr().err
    assert not out.exists()


def test_split_indices_unknown_split(pipeline):
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    with pytest.raises(ConfigError, match="unknown split 'queries'"):
        experiment.split_indices(model, "queries")


def test_evaluate_direction_unknown_direction(pipeline):
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    data = load_dataset(pipeline / "data" / "dataset.lcmd")
    with pytest.raises(ConfigError, match="unknown direction 'sideways'"):
        experiment.evaluate_direction(model, data, "sideways")


@pytest.mark.parametrize("direction", ["i2t", "t2i"])
def test_evaluate_direction_given_codes_match_encoded(pipeline, direction):
    model = hash_learn.load_model(pipeline / "run" / "model.lcmh")
    data = load_dataset(pipeline / "data" / "dataset.lcmd")
    q_mod, db_mod = experiment.DIRECTIONS[direction]
    q = experiment.encode_split(model, data, q_mod, "query")
    db = experiment.encode_split(model, data, db_mod, "retrieval")
    ap = experiment.evaluate_direction(model, data, direction).ap
    for given in ({"query_codes": q, "db_codes": db}, {"query_codes": q},
                  {"db_codes": db}):
        got = experiment.evaluate_direction(model, data, direction, **given)
        assert got.ap.tobytes() == ap.tobytes()


def test_cli_map_is_the_library_map_on_trimmed_labels(tmp_path):
    # max_keep=1 trims every two-label row: synth writes the trimmed
    # labels, so eval and sweep rank by the labels run_train trains on
    keys = ["min_keep=1", "max_keep=1", "extra_per_class=120", "epochs=3"]
    cfg = experiment.load_config(None, keys)
    raw = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
    trimmed, model, _ = experiment.run_train(raw, cfg)
    assert not np.array_equal(trimmed.labels, raw.labels)
    want = f"{experiment.evaluate_direction(model, trimmed, 'i2t').map_all:.6f}"

    sets = [arg for kv in keys for arg in ("--set", kv)]
    data_path = tmp_path / "data" / "dataset.lcmd"
    model_path = tmp_path / "run" / "model.lcmh"
    assert main(["synth", "--out", str(data_path.parent), *sets]) == 0
    assert np.array_equal(load_dataset(data_path).labels, trimmed.labels)
    assert main(["train", "--dataset", str(data_path),
                 "--out", str(model_path.parent), *sets]) == 0
    assert main(["eval", "--model", str(model_path), "--dataset",
                 str(data_path), "--direction", "i2t",
                 "--out", str(tmp_path / "i2t.csv")]) == 0
    assert main(["sweep", "--dataset", str(data_path), "--param", "alpha",
                 "--values", "1", "--out", str(tmp_path / "sweep"),
                 *sets]) == 0
    with open(tmp_path / "i2t.csv", newline="") as f:
        (got,) = [row[3] for row in csv.reader(f) if row[1] == "all"]
    with open(tmp_path / "sweep" / "sweep_alpha.csv", newline="") as f:
        swept = list(csv.reader(f))[1][1]
    assert (got, swept) == (want, want)


def test_eval_bad_direction_usage_error(pipeline, tmp_path):
    assert main(["eval", "--model", str(pipeline / "run" / "model.lcmh"),
                 "--dataset", str(pipeline / "data" / "dataset.lcmd"),
                 "--direction", "sideways",
                 "--out", str(tmp_path / "r.csv")]) == 1


# --- damaged files ----------------------------------------------------------------

def _files(pipeline, codes):
    return {"dataset": (pipeline / "data" / "dataset.lcmd", load_dataset),
            "model": (pipeline / "run" / "model.lcmh", hash_learn.load_model),
            "codes": (codes[0], retrieval.load_codes)}


@pytest.mark.parametrize("extra", [1, 400])
@pytest.mark.parametrize("kind", ["dataset", "model", "codes"])
def test_trailing_bytes_io_error(pipeline, codes, tmp_path, capsys, kind,
                                 extra):
    path, load = _files(pipeline, codes)[kind]
    raw = path.read_bytes()
    bad = tmp_path / path.name
    bad.write_bytes(raw + (bytes(range(256)) * 2)[:extra])
    with pytest.raises(FormatError, match=f"trailing bytes at offset {len(raw)}$"):
        load(bad)
    args = {"dataset": pipeline / "data" / "dataset.lcmd",
            "model": pipeline / "run" / "model.lcmh", kind: bad}
    q, db = (bad, codes[1]) if kind == "codes" else codes
    assert _encode_and_eval(args["model"], args["dataset"], tmp_path,
                            (q, db)) == (0 if kind == "codes" else 2, 2)
    assert f"offset {len(raw)}" in capsys.readouterr().err


MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(0, 7)),
)


def _mutated(raw, mutation):
    kind, *args = mutation
    if kind == "cut":
        return raw[:args[0] % len(raw)]
    if kind == "append":
        return raw + args[0]
    flipped = bytearray(raw)
    flipped[args[0] % len(raw)] ^= 1 << args[1]
    return bytes(flipped)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["dataset", "model", "codes"]),
       mutation=MUTATIONS)
def test_damaged_files_fail_cleanly(pipeline, codes, kind, mutation):
    # loaders raise only package errors, and encode/eval end in an exit
    # code, never a traceback
    path, load = _files(pipeline, codes)[kind]
    out = pipeline / "damaged"
    out.mkdir(exist_ok=True)
    bad = out / path.name
    bad.write_bytes(_mutated(path.read_bytes(), mutation))
    try:
        load(bad)
    except LtcmhError:
        pass
    args = {"dataset": pipeline / "data" / "dataset.lcmd",
            "model": pipeline / "run" / "model.lcmh", kind: bad}
    q, db = (bad, codes[1]) if kind == "codes" else codes
    with np.errstate(all="ignore"):
        exits = (_encode_and_eval(args["model"], args["dataset"], out)
                 + _encode_and_eval(args["model"], args["dataset"], out,
                                    (q, db)))
    assert set(exits) <= {0, 1, 2, 3}


# --- gradcheck --------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # two suites: the activations are checked inside train_step
    assert [line.split()[0] for line in out.splitlines()[:-2]] == [
        "objective_grad", "train_step"]


def test_gradcheck_passes_seeds_0_to_80(capsys):
    # the tiny embedding always has a head and a tail class for eta
    for seed in range(81):
        assert main(["gradcheck", "--seed", str(seed)]) == 0, seed
    assert capsys.readouterr().out.count("PASS") == 81


def test_gradcheck_corrupt_negative_control(monkeypatch, capsys):
    # a broken backprop in the network code itself must fail the check
    backward = FeedForwardNet.backward

    def broken(self, cache, output_grad):
        ((dw, db), *rest), input_grad = backward(self, cache, output_grad)
        return [(dw + 0.05, db), *rest], input_grad

    monkeypatch.setattr(FeedForwardNet, "backward", broken)
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_gradcheck_scaled_activation_derivative_fails(monkeypatch, capsys,
                                                      activation):
    # the activations have no suite of their own: the net suites must
    # catch a wrong derivative of the hidden relu or of the linear output
    # layer, whose derivative carries backward's incoming gradient as is
    if activation == "relu":
        relu_grad = tensor._relu_grad
        monkeypatch.setattr(tensor, "_relu_grad",
                            lambda a, g: relu_grad(a, g) * 1.05)
    else:
        backward = FeedForwardNet.backward
        monkeypatch.setattr(FeedForwardNet, "backward",
                            lambda self, acts, g: backward(self, acts,
                                                           g * 1.05))
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_gradcheck_doubled_eta_fails(monkeypatch, capsys):
    # train_step's oracle is embed_batch itself, so an embedding whose
    # forward no longer matches embed_backward must fail the check
    embed_batch = meta_embed.embed_batch

    def doubled_eta(*args, **kwargs):
        v, cache = embed_batch(*args, **kwargs)
        if cache.eta is not None:
            v = v + (cache.eta[:, None] * cache.v_memory).T
        return v, cache

    monkeypatch.setattr(meta_embed, "embed_batch", doubled_eta)
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_gradcheck_scaled_weight_net_grads_fail(monkeypatch, capsys):
    # the attention path's backward: weight-net gradients 5% too large
    # (a relative error of ~2.4e-2) must fail the memory-on suite
    embed_backward = meta_embed.embed_backward

    def scaled(embedder, cache, meta_grad):
        return [(net, [(1.05 * dw, 1.05 * db) for dw, db in grads]
                 if net is embedder.weight_net else grads)
                for net, grads in embed_backward(embedder, cache, meta_grad)]

    monkeypatch.setattr(meta_embed, "embed_backward", scaled)
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_gradcheck_nan_gradient_fails(monkeypatch, capsys):
    # max() keeps its first argument against a NaN; the check must not
    backward = FeedForwardNet.backward

    def nan_dw(self, cache, output_grad):
        ((dw, db), *rest), input_grad = backward(self, cache, output_grad)
        return [(np.full_like(dw, np.nan), db), *rest], input_grad

    monkeypatch.setattr(FeedForwardNet, "backward", nan_dw)
    assert main(["gradcheck"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_gradcheck_rejects_bad_threshold(capsys, threshold):
    assert main(["gradcheck", f"--threshold={threshold}"]) == 1
    assert "threshold must be finite and > 0" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------------

def test_sweep_rows_and_reproducibility(pipeline, tmp_path):
    data_path = str(pipeline / "data" / "dataset.lcmd")
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["sweep", "--dataset", data_path, "--param", "alpha",
                     "--values", "0.5,1", "--out", str(out),
                     *_sets(["epochs=2"])])
        assert code == 0
        outs.append((out / "sweep_alpha.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().strip().splitlines()
    assert lines[0] == "alpha,map_i2t,map_t2i"
    assert len(lines) == 3


def test_sweep_keeps_the_other_weight(pipeline, tmp_path, monkeypatch):
    # sweeping alpha leaves a beta set with --set (or a config file) as is
    seen = []
    real = experiment.run_train

    def run_train(dataset, cfg):
        seen.append((cfg["alpha"], cfg["beta"]))
        return real(dataset, cfg)

    monkeypatch.setattr(experiment, "run_train", run_train)
    assert main(["sweep", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"), "--param", "alpha",
                 "--values", "0.5,2", "--out", str(tmp_path / "s"),
                 *_sets(["epochs=2", "beta=0.5"])]) == 0
    assert seen == [(0.5, 0.5), (2.0, 0.5)]


@pytest.mark.parametrize("param, values", [("gamma", "1"),
                                           ("alpha", "0.5,abc")])
def test_sweep_bad_param_usage_error(pipeline, tmp_path, capsys, param,
                                     values):
    assert main(["sweep", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--param", param, "--values", values,
                 "--out", str(tmp_path / "s")]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_without_values_usage_error(pipeline, tmp_path, capsys):
    assert main(["sweep", "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--param", "beta", "--values", " , ,",
                 "--out", str(tmp_path / "s")]) == 1
    assert "sweep needs at least one value" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", [
    ["train", "--set", "alpha=nan"],
    ["sweep", "--param", "alpha", "--values", "0.5,nan"],
])
def test_nonfinite_weight_usage_error(pipeline, tmp_path, capsys, command):
    # a non-finite weight is a config error before any training, not a
    # numerical failure at epoch 0; sweep rejects it before its first run
    assert main([command[0], "--dataset",
                 str(pipeline / "data" / "dataset.lcmd"),
                 "--out", str(tmp_path / "out"), *command[1:],
                 *_sets()]) == 1
    assert "alpha must be finite and >= 0" in capsys.readouterr().err


# --- argparse plumbing -------------------------------------------------------------

def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_flag_usage_error(capsys):
    assert main(["synth", "--frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["encode", "--modality", "image", "--split", "bogus"],
     "invalid choice: 'bogus'"),
    (["sweep", "--param", "gamma", "--values", "1"],
     "invalid choice: 'gamma'"),
    (["sweep", "--param", "alpha", "--values", "0.5,abc"],
     "--values: expected float for 'alpha', got 'abc'"),
    (["train", "--set", "head_threshold=0"], "head_threshold must be >= 1"),
    (["train", "--set", "no_memory=perhaps"],
     "override: expected boolean for 'no_memory', got 'perhaps'"),
    (["train", "--config", "{cfg}"],
     "{cfg}:2: expected boolean for 'no_memory', got 'perhaps'"),
], ids=["encode-split", "sweep-param", "sweep-values", "head-threshold",
        "override-value", "config-value"])
def test_bad_name_rejected_before_reading_files(tmp_path, capsys, argv,
                                                named):
    # the model and dataset paths do not exist: each rule is checked
    # before any file is read, so the exit is 1 (usage), not 2 (I/O)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nno_memory = perhaps\n")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    paths = {"eval": ["--model", "--dataset"],
             "encode": ["--model", "--dataset"],
             "sweep": ["--dataset"], "train": ["--dataset"]}[argv[0]]
    for flag in paths:
        argv += [flag, str(tmp_path / "missing" / flag.strip("-"))]
    assert main([*argv, "--out", str(out)]) == 1
    assert named.format(cfg=cfg) in capsys.readouterr().err
    assert not out.exists()


BIG = "100000000000000000000"   # 10**20: beyond any 64-bit integer


@pytest.mark.parametrize("command, setting, named", [
    ("synth", "learning_rate=-1", "learning_rate must be finite and positive"),
    ("synth", "eta_mode=bogus", "eta_mode 'bogus' is not one of"),
    ("train", "groups=bogus", "override: bad group 'bogus'"),
    ("train", "d_x=0", "d_x, d_y and latent_dim must be >= 1"),
    ("synth", f"extra_per_class={BIG}",
     f"override: expected 64-bit int for 'extra_per_class', got '{BIG}'"),
    ("synth", f"groups={BIG}x2", f"override: bad group '{BIG}x2'"),
    ("synth", f"d_x={BIG}",
     f"override: expected 64-bit int for 'd_x', got '{BIG}'"),
    ("train", f"code_length={BIG}",
     f"override: expected 64-bit int for 'code_length', got '{BIG}'"),
    ("sweep", f"seed=-{BIG}",
     f"override: expected 64-bit int for 'seed', got '-{BIG}'"),
    ("synth", "{cfg}", f"{{cfg}}:2: expected 64-bit int for 'epochs', "
                       f"got '{BIG}'"),
    ("train", "{cfg}", f"{{cfg}}:2: expected 64-bit int for 'epochs', "
                       f"got '{BIG}'"),
])
def test_config_rejected_before_any_file(tmp_path, capsys, command, setting,
                                         named):
    # every config command checks its synthesis and training keys, and that
    # each integer fits in 64 bits, before it reads or writes a file: the
    # dataset path does not exist, so the exit is 1 (usage), not 2 (I/O)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"seed = 1\nepochs = {BIG}\n")
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    argv += (["--config", str(cfg)] if setting == "{cfg}"
             else ["--set", setting])
    if command != "synth":
        argv += ["--dataset", str(tmp_path / "missing" / "dataset.lcmd")]
    if command == "sweep":
        argv += ["--param", "alpha", "--values", "1"]
    assert main(argv) == 1
    assert named.format(cfg=cfg) in capsys.readouterr().err
    assert not out.exists()


def test_int64_bounds_accepted(tmp_path):
    # the 64-bit limits themselves parse; one past them does not
    cfg = experiment.load_config(overrides=[f"seed={2**63 - 1}"])
    assert cfg["seed"] == 2**63 - 1 and type(cfg["seed"]) is int
    for value in (2**63, -2**63 - 1):
        with pytest.raises(ConfigError, match="expected 64-bit int"):
            experiment.load_config(overrides=[f"extra_per_class={value}"])
    assert experiment.parse_groups(f"1x{2**63 - 1}") == [(1, 2**63 - 1)]
    with pytest.raises(ConfigError, match="^groups: bad group"):
        experiment.parse_groups(f"1x{2**63}")
