"""Numeric check of the bounded-loss robustness guarantees.

For the soft-weighting and tempered losses under symmetric label noise,
the gap between the noisy risks of the clean-risk minimizer f* and the
noisy-risk minimizer f^ is sandwiched by closed-form constants.  A
finite world (four points, a 0.02-spaced probability simplex grid) lets
us find both minimizers exhaustively and check the inequalities, grid
tolerance included.  One grid scan per loss evaluates the loss on the
grid once; it fixes the world's classes and grid spacing, and every noise
rate is verified against it.  At lam = log(c) the soft-weighting loss is
exactly noise tolerant: the gap collapses to zero.
"""

import math

from arl import losses, theory

C = 3
LABELS = [0, 1, 2, 0]
SCAN = lambda hyper: theory.grid_scan(C, 0.02, hyper)

print("soft-weighting loss, lam = 2 log(c), d = 2")
scan = SCAN(losses.HyperParams("polysoft", lam=2 * math.log(C), d=2.0))
for eta in (0.1, 0.3, 0.6):
    r = theory.riskgap_verify(scan, LABELS, eta)
    gap = r.noisy_risk_star - r.noisy_risk_hat
    print(f"  eta={eta}: noisy gap {gap:.4f} <= bound {r.noisy_gap_bound:.4f} "
          f"(grid tol {r.grid_tol:.4f})  holds={r.noisy_sandwich_ok and r.clean_sandwich_ok}")

print("\nsoft-weighting loss at the noise-tolerant point lam = log(c)")
scan = SCAN(losses.HyperParams("polysoft", lam=math.log(C), d=2.0))
for eta in (0.1, 0.3, 0.6):
    r = theory.riskgap_verify(scan, LABELS, eta)
    gap = abs(r.noisy_risk_star - r.noisy_risk_hat)
    print(f"  eta={eta}: |noisy gap| = {gap:.2e} (equality up to the grid)")

print("\ntempered loss, t1 = 0.5, t2 = 2: bounded but not noise tolerant")
scan = SCAN(losses.HyperParams("bi_tempered", t1=0.5, t2=2.0))
for eta in (0.1, 0.3, 0.6):
    r = theory.riskgap_verify(scan, LABELS, eta)
    gap = r.noisy_risk_star - r.noisy_risk_hat
    print(f"  eta={eta}: noisy gap {gap:.4f} <= bound {r.noisy_gap_bound:.4f} "
          f"holds={r.noisy_sandwich_ok}")
print("\nAt eta = 0.6 the noisy-risk minimizer visibly leaves the vertex --")
print("the gap is strictly positive yet still inside the closed-form bound.")
