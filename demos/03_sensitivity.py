"""Hyperparameter sensitivity: sweep the quantization weight alpha on a
small long-tailed dataset and watch retrieval MAP respond.

Run from the repository root:

    python demos/03_sensitivity.py

Equivalent to `ltcmh sweep --param alpha --values 0.1,1,10` on the same
dataset; this script calls the library directly.
"""

from ltcmh import experiment
from ltcmh.dataset import synthesize_long_tailed

base = experiment.load_config(None, [
    "groups=2x60,4x8",
    "d_x=16", "d_y=12", "extra_per_class=10", "latent_dim=8",
    "queries_per_class=4", "head_threshold=20",
    "code_length=8", "hidden_dim=32", "epochs=20",
    "seed=0",
])
data = synthesize_long_tailed(experiment.longtail_spec(base), seed=base["seed"])
print(f"dataset: {data.n} samples, {data.num_classes} classes\n")

print(f"{'alpha':>6}  {'map_i2t':>8}  {'map_t2i':>8}  {'tail_i2t':>8}")
for alpha in (0.0, 0.1, 1.0, 10.0):
    cfg = dict(base)
    cfg["alpha"] = alpha
    trimmed, model, _ = experiment.run_train(data, cfg)
    i2t = experiment.evaluate_direction(model, trimmed, "i2t")
    t2i = experiment.evaluate_direction(model, trimmed, "t2i")
    print(f"{alpha:>6g}  {i2t.map_all:>8.4f}  {t2i.map_all:>8.4f}  "
          f"{i2t.map_tail:>8.4f}")

print("\nalpha=0 drops the quantization pull entirely, so the continuous "
      "features drift from the signs that ranking actually uses and MAP "
      "suffers. On this tiny dataset a strong pull (alpha=10) helps most; "
      "on larger problems over-quantizing too early can hurt instead, "
      "which is why the sweep exists.")
