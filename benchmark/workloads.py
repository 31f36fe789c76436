"""Seeded inputs, operations and output checks of the four workloads.

A workload is a fixed *round* of operations built from the workload seed;
the benchmark repeats the round in a closed loop with one client. One
operation is one ``arl train`` run (``cli.run_experiment``), one ``arl
ablate`` run (``cli.run_ablation``) or one ``verify-bounds`` call
(``cli.verify_bounds``). The training configs derive from the shipped desk
configs under ``configs/``; only the iteration budget (and, for the sweep,
the metrics cadence) is shortened so that one run holds enough rounds for
a median. Building a round needs only the standard library, so the set-up
probe can time the import of ``arl`` on its own.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path("configs")

# Iteration budgets: short enough for dozens of rounds per run, long enough
# that every training output clears ACC_FLOOR on the desk blobs.
BILEVEL_ITERS = 200
TEMPERED_ITERS = 100
SWEEP_ITERS = 150
SWEEP_METRICS_EVERY = 10  # 15 opt2 snapshots: keeps the T^2/metrics_every shape
ABLATE_MODES = ("fixed", "opt1", "opt2", "adaptive")

# Floor on every final test accuracy, fixed from the seed commit. It is to
# catch a run that stops learning (chance is 0.333; a dead polysoft run sits
# at 0.332), not short-budget variance: over seeds 0-299 the lowest outputs
# were 0.821 (apolysoft) and 0.839 (agce), and seed 303 gives 0.772.
ACC_FLOOR = 0.60

# bounds_scan world: c = 5 at delta = 0.025 gives a 135,751-point simplex
# grid; each (points, c) float64 array is 5.4 MB, above the 2 MiB per-core
# (4 MiB total) L2 and inside the 300 MiB L3 of the reference machine.
BOUNDS_CLASSES = 5
BOUNDS_DELTA = 0.025
BOUNDS_POINTS = 5

WORKLOADS = ("bilevel_softmax", "bilevel_tempered", "sweep_ablate", "bounds_scan")

# calibrate.Kernel kind whose working set matches each workload's
CALIBRATION = {
    "bilevel_softmax": "small",
    "bilevel_tempered": "small",
    "sweep_ablate": "small",
    "bounds_scan": "large",
}


@dataclass
class Operation:
    """One call into the public entry points, with its config document."""

    name: str
    kind: str  # "train", "ablate" or "verify"
    doc: dict
    seed: int | None
    iterations: int  # training iterations (per-point grid scans for verify)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    accuracy: float
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _desk_config(name):
    with open(CONFIG_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _train_op(name, doc, seed, iters):
    doc = copy.deepcopy(doc)
    doc["train"]["iters"] = iters
    return Operation(name, "train", doc, seed, iters)


def _sweep_iterations(iters, every, grid_size):
    """All SGD steps of one ablate run with modes fixed,opt1,opt2,adaptive.

    adaptive T + opt1 T + grid size x T + sum over opt2 snapshots of T - t;
    snapshots sit at t = 0 and every ``every`` iterations before T.
    """
    continuations = sum(iters - t for t in range(0, iters, every))
    return iters + iters + grid_size * iters + continuations


def _bounds_doc(variant, hyper, labels, eta):
    return {
        "theory": {
            "classes": BOUNDS_CLASSES,
            "etas": [eta],
            "delta": BOUNDS_DELTA,
            "world_labels": labels,
            "variant": variant,
            "hyper": hyper,
        }
    }


def make_round(workload, seed):
    """The fixed list of operations one round of ``workload`` runs."""
    seed %= 2**32  # numpy seeds must be non-negative
    if workload == "bilevel_softmax":
        # ablation_sl.json runs here as one adaptive train
        return [
            _train_op(name, _desk_config(name), seed, BILEVEL_ITERS)
            for name in ("blobs_agce", "ablation_sl", "blobs_apolysoft")
        ]
    if workload == "bilevel_tempered":
        # no bi_tempered training config ships; derive one from blobs_agce
        doc = _desk_config("blobs_agce")
        doc["loss"] = {"variant": "bi_tempered"}
        return [_train_op("blobs_abitempered", doc, seed, TEMPERED_ITERS)]
    if workload == "sweep_ablate":
        doc = _desk_config("ablation_sl")
        doc["train"]["iters"] = SWEEP_ITERS
        doc["train"]["metrics_every"] = SWEEP_METRICS_EVERY
        grid_size = 9  # cli.FIXED_GRIDS["sl"]: 3 gamma1 x 3 gamma2
        iters = _sweep_iterations(SWEEP_ITERS, SWEEP_METRICS_EVERY, grid_size)
        return [Operation("ablation_sl", "ablate", doc, seed, iters)]
    if workload == "bounds_scan":
        rng = random.Random(seed)
        labels = [rng.randrange(BOUNDS_CLASSES) for _ in range(BOUNDS_POINTS)]
        eta = round(rng.uniform(0.1, 0.7), 4)  # needs eta < 1 - 1/c = 0.8
        log_c = math.log(BOUNDS_CLASSES)
        poly = {"lam": round(log_c * rng.uniform(1.0, 3.0), 4), "d": round(rng.uniform(1.5, 4.0), 4)}
        temp = {"t1": round(rng.uniform(0.2, 0.8), 4), "t2": round(rng.uniform(1.2, 3.0), 4)}
        return [
            Operation(f"bounds_{variant}", "verify", _bounds_doc(variant, hyper, labels, eta), None,
                      BOUNDS_POINTS)
            for variant, hyper in (("polysoft", poly), ("bi_tempered", temp))
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def setup(arl, ops):
    """What a user pays before the first operation: parse and build."""
    for op in ops:
        exp = arl.config.parse_config(op.doc, op.seed)
        if op.kind != "verify":
            arl.config.build_datasets(exp)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_metrics_csv(path, problems):
    with open(path) as fh:
        header = fh.readline()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not header.startswith("iter,") or not rows:
        problems.append(f"{path}: no metrics rows")
    for row in rows:
        values = [float(cell) for cell in row[1:]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{path}: non-finite metrics row at iter {row[0]}")
            break


def call(arl, op, work_dir):
    """Run ``op`` through its public entry point; this is the timed body."""
    exp = arl.config.parse_config(op.doc, op.seed)
    if op.kind == "train":
        return arl.cli.run_experiment(exp, work_dir)
    if op.kind == "ablate":
        return arl.cli.run_ablation(exp, list(ABLATE_MODES), work_dir)
    return arl.cli.verify_bounds(exp)


def check(arl, op, result, work_dir):
    """Check the outputs of one ``call`` and digest its artifacts."""
    if op.kind == "train":
        return _check_train(arl, result, work_dir)
    if op.kind == "ablate":
        return _check_ablate(result, work_dir)
    return _check_verify(result)


def _check_train(arl, manifest, work_dir):
    out = Outcome(float(manifest["final_test_acc"]))
    _check_metrics_csv(work_dir / "metrics.csv", out.problems)
    init, final = manifest["hyper_initial"], manifest["hyper_final"]
    try:
        arl.losses.HyperParams(manifest["variant"], **dict(zip(manifest["hyper_names"], final)))
    except arl.errors.DomainError as exc:
        out.problems.append(f"final hyperparameters outside their domain: {exc}")
    if not any(abs(a - b) > 1e-9 for a, b in zip(init, final)):
        out.problems.append(f"hyperparameters never moved from their init {init}")
    if not out.accuracy >= ACC_FLOOR:
        out.problems.append(f"test accuracy {out.accuracy:.4f} below the floor {ACC_FLOOR}")
    for name in ("metrics.csv", "checkpoint.bin"):
        out.digests[name] = _sha256(work_dir / name)
    return out


def _check_ablate(payload, work_dir):
    modes = payload["modes"]
    accs = [modes[m]["final_acc"] if m in modes else float("nan") for m in ABLATE_MODES]
    out = Outcome(sum(accs) / len(accs))
    missing = [m for m in ABLATE_MODES if m not in modes]
    if missing:
        out.problems.append(f"ablation modes missing: {missing}")
    if not all(math.isfinite(a) for a in accs):
        out.problems.append(f"non-finite ablation accuracy: {accs}")
    for name in ("ablation.csv", "ablation_summary.json"):
        out.digests[name] = _sha256(work_dir / name)
    return out


def _check_verify(payload):
    flags = [
        report[key]
        for report in payload["reports"].values()
        for key in ("noisy_sandwich_ok", "clean_sandwich_ok")
    ]
    # the share of sandwich inequalities that hold stands in for accuracy
    out = Outcome(sum(flags) / len(flags))
    if not payload["all_inequalities_hold"]:
        out.problems.append("verify-bounds: not all inequalities hold")
    canon = json.dumps(payload, sort_keys=True).encode()
    out.digests["report.json"] = hashlib.sha256(canon).hexdigest()
    return out
