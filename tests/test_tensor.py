import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcmh.errors import FormatError, ShapeError, TrainingError
from ltcmh.tensor import (FeedForwardNet, _relu_grad, finite_diff_grad,
                          read_array, read_end, sgd_step, sigmoid, softplus,
                          write_array)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float((np.abs(a - b) / (1e-8 + np.abs(a) + np.abs(b))).max())


# --- scalar functions ---------------------------------------------------------

def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert np.isclose(sigmoid(np.log(3)), 0.75)


def test_softplus_matches_naive_at_moderate_inputs(rng):
    x = rng.uniform(-20, 20, size=100)
    assert np.allclose(softplus(x), np.log1p(np.exp(x)), atol=1e-12)


def _sigmoid_two_branch(x):
    """The two-branch masked formula sigmoid must reproduce bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus_reference(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e4, -1e4,
            5e-324, -5e-324, 1.0, -1.0, 36.0, -36.0, 710.0, -710.0]


@pytest.mark.parametrize("fn, reference", [(sigmoid, _sigmoid_two_branch),
                                           (softplus, _softplus_reference)])
def test_sigmoid_softplus_bit_identical_to_reference(rng, fn, reference):
    x = np.concatenate([rng.normal(size=4995) * 30, _SPECIAL])  # 7 x 716
    rng.shuffle(x)
    for arr in (x, x.reshape(-1, 7), x.reshape(7, -1).T):
        got, want = fn(arr), reference(arr)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # array_equal treats +0.0 and -0.0 as equal; the sign bit must match
        # (a NaN stays NaN, but its sign bit carries no value)
        real = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))
    for v in _SPECIAL:
        got, want = fn(v), reference(v)
        assert np.shape(got) == () and np.array_equal(got, want, equal_nan=True)
        got = fn(np.float64(v))
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("x", [-1e4, -100.0, 0.0, 100.0, 1e4])
def test_sigmoid_softplus_stable_at_extremes(x):
    assert np.isfinite(sigmoid(x))
    assert np.isfinite(softplus(x))
    if x == 1e4:
        # softplus(x) -> x for large x
        assert np.isclose(softplus(x), x)
    if x == -1e4:
        assert softplus(x) >= 0.0


def _relu(z):
    return np.maximum(z, 0.0)


def test_activation_grads_match_finite_differences(rng):
    # the linear output layer's derivative is 1: backward passes its
    # gradient through untouched, so relu's is the one to check here
    eps = 1e-6
    x = rng.uniform(-4, 4, size=100)
    x = x[np.abs(x) > 1e-3]   # away from the kink
    analytic = _relu_grad(_relu(x), np.ones_like(x))
    numeric = (_relu(x + eps) - _relu(x - eps)) / (2 * eps)
    assert rel_err(analytic, numeric) < 1e-6


def test_relu_grad_from_output_equals_pre_activation_formula(rng):
    # a = max(z, 0) > 0 exactly where z > 0, including at +-0.0, +-inf and NaN
    z = np.concatenate([rng.normal(size=983), _SPECIAL])
    g = np.concatenate([rng.normal(size=500), _SPECIAL, rng.normal(size=483)])
    for zz, gg in ((z, g), (z.reshape(-1, 10), g.reshape(10, -1).T)):
        with np.errstate(invalid="ignore"):   # inf * 0
            got = _relu_grad(_relu(zz), gg)
            want = gg * (zz > 0).astype(np.float64)
        assert np.array_equal(got, want, equal_nan=True)
        real = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


# --- forward ------------------------------------------------------------------

def test_forward_identity_layer_is_identity(rng):
    net = FeedForwardNet([3, 3], rng)
    net.weights[0][:] = np.eye(3)
    net.biases[0][:] = 0.0
    v = np.array([[1.0, -2.0, 0.5]])
    out, _ = net.forward(v)
    assert np.array_equal(out, v)


def test_forward_matches_scalar_loop_oracle(rng):
    net = FeedForwardNet([3, 4, 2], rng)
    batch = rng.normal(size=(5, 3))
    out, _ = net.forward(batch)
    # hand-rolled forward with explicit scalar loops
    expect = np.zeros((5, 2))
    for s in range(5):
        h = np.zeros(4)
        for j in range(4):
            acc = net.biases[0][j]
            for i in range(3):
                acc += net.weights[0][j, i] * batch[s, i]
            h[j] = max(acc, 0.0)
        for j in range(2):
            acc = net.biases[1][j]
            for i in range(4):
                acc += net.weights[1][j, i] * h[i]
            expect[s, j] = acc
    assert np.allclose(out, expect, atol=1e-12)


def test_forward_shape_mismatch_raises(rng):
    net = FeedForwardNet([3, 2], rng)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((4, 5)))


@pytest.mark.parametrize("dims", [[3, 0, 2], [0, 2], [3, -1]])
def test_width_below_one_raises(rng, dims):
    with pytest.raises(ValueError, match="layer dims must be >= 1"):
        FeedForwardNet(dims, rng)


def test_glorot_init_bounds_and_determinism():
    net1 = FeedForwardNet([10, 20], np.random.default_rng(7))
    net2 = FeedForwardNet([10, 20], np.random.default_rng(7))
    limit = np.sqrt(6.0 / 30.0)
    assert np.abs(net1.weights[0]).max() <= limit
    assert np.array_equal(net1.weights[0], net2.weights[0])
    assert np.all(net1.biases[0] == 0.0)


# --- backward -----------------------------------------------------------------

def test_forward_acts_are_batch_then_layer_outputs(rng):
    # backward reads layer k's input as acts[k] and its output as acts[k + 1]
    net = FeedForwardNet([3, 4, 2], rng)
    batch = rng.normal(size=(5, 3))
    out, acts = net.forward(batch)
    hidden = np.maximum(batch @ net.weights[0].T + net.biases[0], 0.0)
    assert len(acts) == 3 and acts[-1] is out
    assert np.array_equal(acts[0], batch) and np.array_equal(acts[1], hidden)

def test_backward_linear_net_weight_grad_is_input_sum(rng):
    net = FeedForwardNet([3, 2], rng)
    batch = rng.normal(size=(6, 3))
    out, cache = net.forward(batch)
    grads, _ = net.backward(cache, np.ones_like(out))
    dw, db = grads[0]
    assert np.allclose(dw, np.tile(batch.sum(axis=0), (2, 1)))
    assert np.allclose(db, [6.0, 6.0])


def test_backward_zero_output_grad_gives_zero_grads(rng):
    net = FeedForwardNet([3, 4, 2], rng)
    out, cache = net.forward(rng.normal(size=(5, 3)))
    grads, input_grad = net.backward(cache, np.zeros_like(out))
    for dw, db in grads:
        assert np.all(dw == 0.0) and np.all(db == 0.0)
    assert np.all(input_grad == 0.0)


def test_backward_matches_finite_differences(rng):
    net = FeedForwardNet([4, 5, 2], rng)
    batch = rng.normal(size=(6, 4))
    R = rng.normal(size=(6, 2))

    def loss_fn(n):
        out, _ = n.forward(batch)
        return float((R * out).sum())

    out, cache = net.forward(batch)
    analytic, _ = net.backward(cache, R)
    numeric = finite_diff_grad(loss_fn, net, 1e-6)
    for (adw, adb), (ndw, ndb) in zip(analytic, numeric):
        assert rel_err(adw, ndw) < 1e-5
        assert rel_err(adb, ndb) < 1e-5


def test_backward_input_grad_matches_finite_differences(rng):
    net = FeedForwardNet([3, 4, 2], rng)
    batch = rng.normal(size=(2, 3))
    R = rng.normal(size=(2, 2))
    out, cache = net.forward(batch)
    _, input_grad = net.backward(cache, R)
    eps = 1e-6
    numeric = np.zeros_like(batch)
    for idx in np.ndindex(batch.shape):
        b = batch.copy()
        b[idx] += eps
        hi = float((R * net.forward(b)[0]).sum())
        b[idx] -= 2 * eps
        lo = float((R * net.forward(b)[0]).sum())
        numeric[idx] = (hi - lo) / (2 * eps)
    assert rel_err(input_grad, numeric) < 1e-5


def test_backward_bit_identical_for_transposed_output_grad(rng):
    # embed_backward passes a transposed view; the sums must not see it
    net = FeedForwardNet([6, 16, 8], rng)
    out, cache = net.forward(rng.normal(size=(200, 6)))
    R = rng.normal(size=out.shape)
    want, want_in = net.backward(cache, R)
    got, got_in = net.backward(cache, np.asfortranarray(R))
    assert np.array_equal(got_in, want_in)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


def test_backward_shape_mismatch_raises(rng):
    net = FeedForwardNet([3, 2], rng)
    _, cache = net.forward(rng.normal(size=(4, 3)))
    with pytest.raises(ShapeError):
        net.backward(cache, np.zeros((4, 3)))


# --- sgd_step -----------------------------------------------------------------

def test_sgd_step_zero_lr_is_invalid_but_zero_grad_keeps_params(rng):
    net = FeedForwardNet([2, 2], rng)
    before = net.weights[0].copy()
    sgd_step(net, [(np.zeros((2, 2)), np.zeros(2))], learning_rate=0.5)
    assert np.array_equal(net.weights[0], before)


def test_sgd_step_arithmetic(rng):
    net = FeedForwardNet([1, 1], rng)
    net.weights[0][:] = 1.0
    sgd_step(net, [(np.array([[2.0]]), np.zeros(1))], learning_rate=0.1)
    assert np.isclose(net.weights[0][0, 0], 0.8)


def test_sgd_step_nonfinite_grad_raises(rng):
    net = FeedForwardNet([1, 1], rng)
    with pytest.raises(TrainingError):
        sgd_step(net, [(np.array([[np.nan]]), np.zeros(1))], 0.1)


def test_sgd_on_convex_quadratic_decreases_monotonically(rng):
    # loss = ||W - T||^2 for a 2x2 linear layer
    net = FeedForwardNet([2, 2], rng)
    T = np.array([[1.0, -1.0], [0.5, 2.0]])
    losses = []
    for _ in range(20):
        losses.append(float(((net.weights[0] - T) ** 2).sum()))
        grad = 2.0 * (net.weights[0] - T)
        sgd_step(net, [(grad, np.zeros(2))], learning_rate=0.1)
    assert all(b < a for a, b in zip(losses, losses[1:]))


# --- finite_diff_grad -----------------------------------------------------------

def test_finite_diff_simple_quadratic(rng):
    net = FeedForwardNet([1, 1], rng)
    net.weights[0][:] = 3.0

    def loss_fn(n):
        return float(n.weights[0][0, 0] ** 2)

    grads = finite_diff_grad(loss_fn, net, 1e-6)
    assert np.isclose(grads[0][0][0, 0], 6.0, atol=1e-6)


def test_finite_diff_constant_loss_is_zero(rng):
    net = FeedForwardNet([2, 2], rng)
    grads = finite_diff_grad(lambda n: 1.0, net, 1e-6)
    for dw, db in grads:
        assert np.all(dw == 0.0) and np.all(db == 0.0)


def test_finite_diff_rejects_bad_eps(rng):
    net = FeedForwardNet([1, 1], rng)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda n: 0.0, net, 0.0)


# --- persistence ----------------------------------------------------------------

_ARRAYS = {
    "c_order": np.arange(12.0).reshape(3, 4),
    "f_order": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "big_endian": np.arange(12, dtype=">i8").reshape(3, 4),
    "strided": np.arange(24, dtype=np.uint64)[::2],
    "bool": np.array([True, False, True]),
    "empty": np.empty((0, 5)),
}


@pytest.mark.parametrize("dtype", ["<f8", "<i8", "<u8", np.uint8])
@pytest.mark.parametrize("name", _ARRAYS)
def test_write_array_writes_the_astype_bytes(name, dtype):
    a = _ARRAYS[name]
    f = io.BytesIO()
    write_array(f, a, dtype)
    assert f.getvalue() == np.asarray(a).astype(dtype).tobytes()
    f.seek(0)
    back = read_array(f, dtype, a.shape, "array")
    assert np.array_equal(back, a.astype(dtype)) and back.flags.c_contiguous


def test_read_array_checks_the_size_before_allocating(monkeypatch):
    # a shape larger than the file is a truncation FormatError before any
    # array is allocated; a file that ends during the read is one too
    def allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    f = io.BytesIO(b"\0" * 24)
    with monkeypatch.context() as m:
        m.setattr(np, "empty", allocation)
        with pytest.raises(FormatError, match=r"truncated while reading X at "
                           r"offset 0: 8796093022208 bytes needed, 24 left"):
            read_array(f, "<f8", (2**40,), "X")

    class Shrinking(io.BytesIO):
        def readinto(self, b):   # the file lost its last byte
            return super().readinto(memoryview(b).cast("B")[:-1])

    with pytest.raises(FormatError, match="24 bytes needed, 23 left"):
        read_array(Shrinking(b"\0" * 24), "<f8", (3,), "X")


@pytest.mark.parametrize("dims", [[], [3]])
def test_net_needs_at_least_one_layer(dims, rng):
    # widths cannot break a chain, so FeedForwardNet's one shape error is
    # fewer than two of them
    with pytest.raises(ShapeError, match="at least one layer"):
        FeedForwardNet(dims, rng)


def test_read_end_rejects_trailing_bytes():
    f = io.BytesIO(b"abc")
    f.read(3)
    read_end(f)
    f = io.BytesIO(b"abcd")
    f.read(3)
    with pytest.raises(FormatError, match="offset 3"):
        read_end(f)


# --- BLAS threads ---------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# a 2-epoch default training run, its model saved to argv[1]; NumPy loads
# its BLAS, at the thread count the environment sets, before ltcmh does
TRAIN = """
import sys
import numpy
from ltcmh import experiment, hash_learn
from ltcmh.dataset import synthesize_long_tailed
cfg = experiment.load_config(None, ["epochs=2"])
data = synthesize_long_tailed(experiment.longtail_spec(cfg), seed=0)
_, model, _ = experiment.run_train(data, cfg)
hash_learn.save_model(sys.argv[1], model)
"""


def _train_in_subprocess(threads, path, prelude=""):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", "-c",
                           prelude + TRAIN, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a multi-threaded GEMM sums in another order, so on two or more cores
    # the 2-thread model differs from the 1-thread one unless ltcmh runs
    # BLAS on one thread
    for threads in (1, 2):
        proc = _train_in_subprocess(threads, tmp_path / f"{threads}.lcmh")
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "1.lcmh").read_bytes() == (
        tmp_path / "2.lcmh").read_bytes()


def test_import_without_the_blas_setter_trains_without_a_warning(tmp_path):
    # another BLAS build: the setter lookup finds nothing, and ltcmh keeps
    # the library's threads without a warning (-W error would fail it)
    prelude = "import ctypes\nctypes.CDLL = lambda path: object()\n"
    proc = _train_in_subprocess(2, tmp_path / "model.lcmh", prelude)
    assert (proc.returncode, proc.stderr) == (0, "")


# --- properties -----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_deterministic_for_seed(seed):
    r1 = np.random.default_rng(seed)
    r2 = np.random.default_rng(seed)
    n1 = FeedForwardNet([3, 2], r1)
    n2 = FeedForwardNet([3, 2], r2)
    batch = np.random.default_rng(seed + 1).normal(size=(4, 3))
    assert np.array_equal(n1.forward(batch)[0], n2.forward(batch)[0])


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e4, 1e4, allow_nan=False))
def test_no_nan_propagation(x):
    assert np.isfinite(sigmoid(x))
    assert np.isfinite(softplus(x))
