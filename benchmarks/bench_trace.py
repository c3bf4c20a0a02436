"""Timing spans around calls into ltcmh's public functions, from outside.

A ``Tracer`` replaces each traced function at every binding its callers look
up (the defining module and every module that imported it by name), so a
call made from inside the package is seen as well as one made by the
benchmark. Each call records one span: name, start, end and the index of
the span that was open when it started. Spans stay in memory until the run
ends. A layer's self time is its duration minus the durations of its direct
children; calls are strictly nested because the benchmark runs one thread.
The layers named in ``ALLOC_TRACED`` also record the peak bytes allocated
during each call (``tracemalloc``, on only inside those spans).
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict


# count names the layer table's counters produce, besides calls and seconds
COUNT_FIELDS = ("elems", "samples", "eta_d2_bytes", "pairs", "epochs",
                "phi_pairs_base", "bytes", "bytes_base", "codes")

# spans whose ``bytes`` count is the measured allocation peak of each call
ALLOC_TRACED = ("retrieval.hamming_matrix",)


class TraceBindingError(RuntimeError):
    """A traced function is no longer found where its callers look it up."""


def _size(x):
    return int(getattr(x, "size", 0))


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _embed_batch_counts(args, kwargs, result):
    embedder, batch, bank = args[:3]
    samples = batch.shape[0]
    counts = {"samples": samples}
    # the ratio-mode eta builds a samples x L x c float64 distance tensor
    if embedder.use_memory and embedder.eta_mode != "learned":
        counts["eta_d2_bytes"] = samples * bank.num_classes * embedder.code_length * 8
    return counts


def _hamming_counts(args, kwargs, result):
    queries, db = args[:2]
    return {"bytes_base": queries.n * db.n * 8}


def _train_counts(args, kwargs, result):
    train_indices, config = args[1], args[2]
    n = len(train_indices)
    return {"epochs": config.epochs, "phi_pairs_base": 2 * n * n * config.epochs}


def layer_table(ltcmh):
    """(span name, owner, attribute, counts(args, kwargs, result) or None,
    other bindings) for every traced function.

    ``other bindings`` lists the modules that imported the function by name;
    each is patched too, or a call through it would go unseen.
    """
    ds, ex, hl = ltcmh.dataset, ltcmh.experiment, ltcmh.hash_learn
    me, rt, tn = ltcmh.meta_embed, ltcmh.retrieval, ltcmh.tensor
    elems = lambda a, k, r: {"elems": _size(a[0])}  # noqa: E731
    return [
        ("tensor.sigmoid", tn, "sigmoid", elems, [hl]),
        ("tensor.softplus", tn, "softplus", elems, [hl]),
        ("tensor.forward", tn.FeedForwardNet, "forward", None, []),
        ("tensor.backward", tn.FeedForwardNet, "backward", None, []),
        ("tensor.sgd_step", tn, "sgd_step", None, [hl]),
        ("meta_embed.compute_prototypes", me, "compute_prototypes", None, [hl]),
        ("meta_embed.embed_batch", me, "embed_batch", _embed_batch_counts, []),
        ("meta_embed.embed_backward", me, "embed_backward", None, []),
        ("hash_learn.pairwise_phi", hl, "pairwise_phi",
         lambda a, k, r: {"pairs": a[0].shape[1] * a[1].shape[1]}, []),
        ("hash_learn.objective", hl, "objective", None, []),
        ("hash_learn.update_B", hl, "update_B", None, []),
        ("hash_learn.train", hl, "train", _train_counts, []),
        ("hash_learn.save_model", hl, "save_model", None, []),
        ("hash_learn.load_model", hl, "load_model", None, []),
        ("dataset.synthesize_long_tailed", ds, "synthesize_long_tailed", None, []),
        ("dataset.trim_labels", ds, "trim_labels", None, [ex]),
        ("dataset.split_query_retrieval", ds, "split_query_retrieval", None, [ex]),
        ("dataset.build_affinity", ds, "build_affinity",
         lambda a, k, r: {"pairs": a[0].shape[0] * a[1].shape[0]}, [rt]),
        ("dataset.save_dataset", ds, "save_dataset",
         lambda a, k, r: _file_bytes(a[1]), []),
        ("dataset.load_dataset", ds, "load_dataset",
         lambda a, k, r: _file_bytes(a[0]), []),
        ("retrieval.binarize", rt, "binarize",
         lambda a, k, r: {"codes": r.n}, []),
        ("retrieval.hamming_matrix", rt, "hamming_matrix", _hamming_counts, []),
        ("retrieval.average_precision", rt, "average_precision", None, []),
        ("retrieval.evaluate", rt, "evaluate", None, []),
        ("retrieval.save_codes", rt, "save_codes",
         lambda a, k, r: _file_bytes(a[0]), []),
        ("retrieval.load_codes", rt, "load_codes",
         lambda a, k, r: _file_bytes(a[0]), []),
        ("experiment.prepare_splits", ex, "prepare_splits", None, []),
        ("experiment.run_train", ex, "run_train", None, []),
        ("experiment.encode_split", ex, "encode_split", None, []),
    ]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and
    restore every binding in the layer table."""

    def __init__(self, table):
        self.table = table
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if alloc:
                    counts[f"{name}.bytes"] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for name, owner, attr, counter, others in self.table:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    raise TraceBindingError(
                        f"{name}: {owner.__name__}.{attr} not found")
                traced = self._wrap(name, fn, counter)
                for target in [owner, *others]:
                    if target.__dict__.get(attr) is not fn:
                        raise TraceBindingError(
                            f"{name}: {target.__name__}.{attr} is not the "
                            f"function the trace expects")
                    setattr(target, attr, traced)
                    self._restore.append((target, attr, fn))
        except TraceBindingError:
            self.uninstall()
            raise

    def uninstall(self):
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one traced call adds over a plain call (a no-op's)."""
        noop = lambda: None  # noqa: E731
        traced = Tracer([])._wrap("noop", noop, None)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out
