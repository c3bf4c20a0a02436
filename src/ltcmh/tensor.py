"""Dense feed-forward network engine with manual backpropagation.

Matrices are plain float64 numpy arrays. Batches are samples x features;
layer weights are (output_dim x input_dim) so a layer computes
``x @ W.T + b``. Gradients are computed exactly by hand-written backward
passes, and :func:`finite_diff_grad` provides an independent
central-difference oracle for checking them.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import FormatError, ShapeError, TrainingError


def sigmoid(x):
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) otherwise, both computed as num / (1 + e) with
    e = e^-|x|. Since e <= 1, num = max(e, x >= 0) picks 1 or e without
    boolean-mask gathers; NaN propagates through the maximum."""
    x = np.asarray(x, dtype=np.float64)
    e = np.empty_like(x)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.empty_like(x)
    np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def softplus(x):
    """log(1 + e^x) computed as max(x, 0) + log1p(e^-|x|), in one buffer."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(np.maximum(x, 0.0), out, out=out)
    return out


def _relu_grad(a, g):
    """The gradient g at a relu layer's output a = max(z, 0), carried back
    to z. The derivative is taken from the output: a > 0 exactly where
    z > 0, since z <= 0, -0.0 and NaN all give an a that is not > 0."""
    return g * (a > 0)


class FeedForwardNet:
    """Dense layers of widths [input, hidden..., output]: relu on every
    layer but the last, which is linear."""

    def __init__(self, dims: Sequence[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ShapeError("a net needs at least one layer")
        if min(dims) < 1:
            raise ValueError("layer dims must be >= 1")
        self.weights = []
        self.biases = []
        for din, dout in zip(dims, dims[1:]):
            limit = np.sqrt(6.0 / (din + dout))
            self.weights.append(rng.uniform(-limit, limit, size=(dout, din)))
            self.biases.append(np.zeros(dout))

    @classmethod
    def from_params(cls, weights: list, biases: list):
        """The net whose layers hold these weights and biases as given."""
        net = cls.__new__(cls)
        net.weights, net.biases = weights, biases
        return net

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    def check_batch(self, batch: np.ndarray):
        """Raise ShapeError unless batch is samples x input_dim."""
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise ShapeError(
                f"batch shape {batch.shape} does not match net input "
                f"(*, {self.input_dim})"
            )

    def forward(self, batch: np.ndarray):
        """Run the net on a (samples x input_dim) batch.

        Returns (output, acts), acts = [batch, each layer's output].
        """
        batch = np.asarray(batch, dtype=np.float64)
        self.check_batch(batch)
        acts = [batch]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = acts[-1] @ w.T
            out += b
            if k < len(self.weights) - 1:
                np.maximum(out, 0.0, out=out)
            acts.append(out)
        return acts[-1], acts

    def backward(self, acts: list, output_grad: np.ndarray):
        """Backpropagate d(loss)/d(output) through the pass that gave acts;
        layer k reads its input acts[k] and its output acts[k + 1].

        Returns (param_grads, input_grad) where param_grads is a list of
        (dW, db) pairs, one per layer.
        """
        # C order: on a transposed view (embed_backward passes one) the
        # column sums and products below would round differently
        output_grad = np.ascontiguousarray(output_grad, dtype=np.float64)
        if output_grad.shape != acts[-1].shape:
            raise ShapeError(
                f"output_grad shape {output_grad.shape} != forward output "
                f"shape {acts[-1].shape}"
            )
        param_grads = [None] * len(self.weights)
        g = output_grad   # the linear output layer passes it through
        for k in range(len(self.weights) - 1, -1, -1):
            param_grads[k] = (g.T @ acts[k], g.sum(axis=0))
            g = g @ self.weights[k]
            if k:   # layer k's input acts[k] is a relu output
                g = _relu_grad(acts[k], g)
        return param_grads, g


def sgd_step(net: FeedForwardNet, param_grads, learning_rate):
    """In-place plain SGD update of every layer's weights and biases."""
    for dw, db in param_grads:
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise TrainingError("non-finite gradient, aborting step")
    for k, (dw, db) in enumerate(param_grads):
        net.weights[k] -= learning_rate * dw
        net.biases[k] -= learning_rate * db


def central_diff(loss_fn: Callable[[], float], arr: np.ndarray,
                 eps: float) -> np.ndarray:
    """Central-difference gradient of loss_fn() over every entry of the
    contiguous array arr, which is perturbed in place and restored."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def finite_diff_grad(loss_fn: Callable[[FeedForwardNet], float],
                     net: FeedForwardNet, eps: float):
    """Central-difference gradient of loss_fn over every net parameter.

    Independent oracle for the analytic backward pass; O(#params) loss
    evaluations, so only usable on small nets.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return [tuple(central_diff(lambda: loss_fn(net), arr, eps)
                  for arr in (w, b))
            for w, b in zip(net.weights, net.biases)]


# --- persistence ------------------------------------------------------------

def write_array(f: BinaryIO, arr, dtype):
    """Write arr as a C-order array of dtype, copying only if it is not one."""
    f.write(np.ascontiguousarray(arr, dtype=dtype).data)


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly n bytes of `what` through read_array's bound check."""
    return read_array(f, np.uint8, (n,), what).tobytes()


def read_end(f: BinaryIO):
    """Raise FormatError if any byte follows the declared content."""
    if f.read(1):
        raise FormatError(f"trailing bytes at offset {f.tell() - 1}")


def read_array(f: BinaryIO, dtype, shape, what: str,
               finite=False) -> np.ndarray:
    """Read a C-order array of `shape` straight into a new array, or raise
    FormatError; with `finite`, also if an entry is NaN or infinite. The
    size is checked against the bytes left before anything is allocated,
    so a corrupt size field cannot ask for more memory than the file has."""
    dtype = np.dtype(dtype)
    pos = f.tell()
    n = math.prod(shape) * dtype.itemsize
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if n <= left:
        try:
            arr = np.empty(shape, dtype)
        except ValueError:  # an empty array whose other dims overflow
            raise FormatError(f"bad {what} shape {shape} at offset "
                              f"{pos}") from None
        left = f.readinto(arr.data)   # below n if the file shrank
    if n > left:
        raise FormatError(f"truncated while reading {what} at offset {pos}: "
                          f"{n} bytes needed, {left} left")
    if finite and not np.isfinite(arr).all():
        raise FormatError(f"inconsistent model: {what} at offset {pos} "
                          f"are not finite")
    return arr


def read_bit_rows(f: BinaryIO, dtype, n: int, bits: int, what: str):
    """read_array of n rows of `bits` bits, packed little-endian into
    unsigned `dtype` cells; a set pad bit raises FormatError naming its row
    and the offset of the row's last cell."""
    at, width = f.tell(), 8 * np.dtype(dtype).itemsize
    cells = read_array(f, dtype, (n, -(-bits // width)), f"{what} rows")
    bad = np.flatnonzero(cells[:, -1] >> bits % width) if bits % width else []
    if len(bad):
        row, k = int(bad[0]), cells.shape[1]
        raise FormatError(f"nonzero pad bits in {what} row {row} at offset "
                          f"{at + width // 8 * ((row + 1) * k - 1)}")
    return cells


def write_header(f: BinaryIO, magic: bytes, version: int, fields, *values):
    """The header every ltcmh file starts with: magic, u32 version, then
    `values` packed little-endian by the format's struct string `fields`."""
    f.write(magic)
    f.write(struct.pack("<I" + fields, version, *values))


def read_header(f: BinaryIO, magic: bytes, version: int, what: str, fields):
    """Check the magic and version written by write_header and return the
    `fields` values that follow, or raise FormatError."""
    got = read_exact(f, len(magic), "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r} at offset 0")
    (got,) = struct.unpack("<I", read_exact(f, 4, "version"))
    if got != version:
        raise FormatError(f"unsupported {what} version {got} at offset 4")
    n = struct.calcsize("<" + fields)
    return struct.unpack("<" + fields, read_exact(f, n, f"{what} header"))

