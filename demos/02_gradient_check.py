"""Finite-difference validation of every hand-written gradient.

Run from the repository root:

    python demos/02_gradient_check.py

Covers the analytic objective gradient and the batch step `train` runs
(embed, objective gradient, backprop through the meta embedding and both
nets), with the memory off and on and eta held constant, as training holds
it, on nets built as `train` builds them. A gradient broken on purpose
shows the check actually catches broken gradients.
"""

import numpy as np

from ltcmh import gradcheck
from ltcmh.tensor import FeedForwardNet, finite_diff_grad

print("== gradient suites (max relative error vs central differences) ==")
errors = gradcheck.run_all(seed=0)
for name, err in errors.items():
    print(f"  {name:<24} {err:.3e}")
print(f"overall: {max(errors.values()):.3e} (threshold 1e-3)")

print("\n== negative control: a backprop gradient broken by +0.05 ==")
rng = np.random.default_rng(0)
net = FeedForwardNet([4, 5, 2], rng)
batch = rng.normal(size=(6, 4))
R = rng.normal(size=(6, 2))
_, acts = net.forward(batch)
(dw, _), *_ = net.backward(acts, R)[0]
numeric = finite_diff_grad(lambda n: float((R * n.forward(batch)[0]).sum()),
                           net, 1e-6)
intact = gradcheck.rel_err(dw, numeric[0][0])
broken = gradcheck.rel_err(dw + 0.05, numeric[0][0])
caught = broken > 1e-3 > intact
print(f"  first-layer dW  intact {intact:.3e}, broken {broken:.3e}  -> "
      f"{'caught' if caught else 'MISSED'}")
if not caught or max(errors.values()) > 1e-3:
    raise SystemExit("gradient check failed")

print("\n== step-size sweep: error stays bounded across eps ==")
for eps in (1e-5, 1e-6, 1e-7):
    err = gradcheck.check_objective_grad(instances=10, seed=0, eps=eps,
                                         max_n=5, max_c=5)
    print(f"  eps={eps:.0e}  objective_grad {err:.3e}")
