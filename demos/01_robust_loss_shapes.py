"""Tour of the robust loss families and their shapes.

Evaluates each loss on a sweep of correct-class probabilities, prints a
small table, and writes loss-curve CSVs (x, 0-1 reference, CE reference,
loss value) into demos/out/.
"""

import math
from pathlib import Path

import numpy as np

from arl import cli, losses

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

CE = losses.HyperParams("ce")
GCE = losses.HyperParams("gce", q=0.7)
SL = losses.HyperParams("sl", gamma1=1.0, gamma2=1.0)
BI_TEMPERED = losses.HyperParams("bi_tempered", t1=0.5, t2=1.5)
POLYSOFT = losses.HyperParams("polysoft", lam=math.log(3), d=2.0)

print("Per-sample loss at a few correct-class probabilities (c = 3):")
print(f"{'p':>6} {'ce':>8} {'gce q=.7':>9} {'sl 1,1':>8} {'bi-tem':>8} {'poly':>8}")
for p in (0.9, 0.6, 1 / 3, 0.1, 0.01):
    probs = np.array([[p, (1 - p) / 2, (1 - p) / 2]])
    z = np.log(probs[0])  # logits reproducing these probabilities under softmax
    row = [
        *(losses.loss_values(hyper, probs, 0)[0] for hyper in (CE, GCE, SL)),
        losses.loss_on_logits(BI_TEMPERED, z, 0).value,  # on the tempered softmax of z
        losses.polysoft_of_ce(-math.log(p), POLYSOFT.lam, POLYSOFT.d)[0],
    ]
    print(f"{p:>6.3f} " + " ".join(f"{v:>8.4f}" for v in row))

print("\nEvery family is bounded except plain cross entropy; the robust")
print("losses flatten for badly fit samples instead of letting them dominate.")

for hyper in (GCE, SL, BI_TEMPERED, POLYSOFT):
    path = OUT / f"losscurve_{hyper.variant}.csv"
    cli.emit_losscurve(hyper, num_classes=3, path=path)
    print(f"wrote {path}")

print("\nThe tempered softmax keeps heavier tails than softmax (t2 = 2):")
z = np.array([3.0, 0.0, 0.0])
p_soft = losses.softmax(z)
p_temp = losses.normalize(losses.HyperParams("bi_tempered", t2=2.0), z[None, :], [0]).P[0]
print(f"  softmax          : {np.array2string(p_soft, precision=4)}")
print(f"  tempered softmax : {np.array2string(p_temp, precision=4)}")
