"""End-to-end walkthrough: synthesize a long-tailed paired dataset, train a
hash model, encode binary codes, and evaluate cross-modal retrieval.

Run from the repository root:

    python demos/01_end_to_end.py

Everything is seeded; rerunning reproduces identical outputs bit-for-bit.
"""

import tempfile
from pathlib import Path

import numpy as np

from ltcmh import experiment, hash_learn, retrieval
from ltcmh.dataset import synthesize_long_tailed

# A scaled-down long-tailed shape: 4 head classes with 200 training samples
# each, 10 mid classes with 20, 10 rare classes with 5. Smaller epochs than
# the defaults keep the demo around a minute. The default warm-up spans the
# whole run, so the memory is fitted once on the final direct features.
cfg = experiment.load_config(None, [
    "groups=4x200,10x20,10x5",
    "epochs=30",
    "seed=0",
])

print("== 1. synthesize ==")
spec = experiment.longtail_spec(cfg)
data = synthesize_long_tailed(spec, seed=cfg["seed"])
counts = spec.class_counts()
print(f"pool of {data.n} paired samples, {data.num_classes} classes")
print(f"training counts per class: head={counts[:4]}, mid={counts[4:14]}, "
      f"tail={counts[14:]}")

print("\n== 2. train ==")
trimmed, model, history = experiment.run_train(data, cfg)
print(f"{len(history)} epochs; total loss {history[0]['total']:.1f} -> "
      f"{history[-1]['total']:.1f}")
print(f"code length {model.code_length} bits, "
      f"{model.partition.sum()} head / "
      f"{(~model.partition).sum()} tail classes")

print("\n== 3. encode ==")
query_codes = experiment.encode_split(model, trimmed, "image", "query")
db_codes = experiment.encode_split(model, trimmed, "text", "retrieval")
print(f"{query_codes.n} query codes and {db_codes.n} database codes of "
      f"{query_codes.c} bits")

print("\n== 4. evaluate ==")
# i2t ranks the stored codes of step 3, as a server ranks a database it
# encoded once; t2i encodes its text queries and image database here
stored = {"i2t": {"query_codes": query_codes, "db_codes": db_codes},
          "t2i": {}}
with tempfile.TemporaryDirectory() as tmp:
    results = []
    for direction, codes in stored.items():
        res = experiment.evaluate_direction(model, trimmed, direction,
                                            **codes)
        results.append(res)
        for _, group, bits, m, nq in res.rows():
            print(f"  {direction} {group:>4}: map={m:.4f} over {nq} queries")
    out = Path(tmp) / "results.csv"
    retrieval.write_result_csv(out, results)
    print("\nresult CSV:")
    print(out.read_text())

    model_path = Path(tmp) / "model.lcmh"
    hash_learn.save_model(model_path, model)
    reloaded = hash_learn.load_model(model_path)
    same = np.array_equal(
        experiment.encode_split(model, trimmed, "image", "query").words,
        experiment.encode_split(reloaded, trimmed, "image", "query").words)
    print(f"model round-trips through {model_path.name}: "
          f"codes identical = {same}")
