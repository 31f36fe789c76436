"""Seeded experiment runner and figure-data emitters.

Subcommands: ``train`` (one adaptive run with artifacts), ``ablate``
(fixed / opt1 / opt2 / adaptive comparison: one adaptive run, then every
conventional run in one lockstep call), ``losscurve`` (sample a
learned loss on a grid), ``verify-bounds`` (risk-gap sandwich report),
``gen-data`` (write a synthetic dataset to CSV).

Exit codes: 0 success, 2 config error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, data as data_mod, losses, meta, model, theory
from .errors import ConfigError, DataFormatError, DomainError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
CURVE_POINTS = 500  # the grid points of a loss curve

# cross-validation grids for the fixed-hyperparameter ablation mode;
# lam entries are multiples of log(c)
FIXED_GRIDS = {
    "gce": {"q": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
    "sl": {"gamma1": [0.1, 1.0, 10.0], "gamma2": [0.1, 1.0, 10.0]},
    "bi_tempered": {"t1": [0.2, 0.5, 0.8], "t2": [1.2, 1.5, 2.0]},
    "polysoft": {"lam": [0.5, 1.0, 2.0, 4.0], "d": [2.0, 3.0, 5.0]},
}


def _config_hash(raw):
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def losscurve_table(hyper, num_classes):
    """Sample the learned loss next to CE and 0-1 reference columns.

    For the probability-based families the x axis is the correct-class
    probability (residual mass spread uniformly); for the soft-weighting
    loss it is the cross-entropy value on [0, 3*lam].  Returns the header
    and a (CURVE_POINTS, 4) array of rows.
    """
    header = ["x", "zero_one", "ce", "learned"]
    if hyper.variant == "polysoft":
        xs = np.linspace(0.0, 3.0 * hyper.lam, CURVE_POINTS)
        learned = losses.polysoft_of_ce(xs, hyper.lam, hyper.d)[0]
        return header, np.column_stack([xs, xs > math.log(2.0), xs, learned])

    xs = np.linspace(0.001, 1.0, CURVE_POINTS)
    probs = np.repeat(((1.0 - xs) / (num_classes - 1))[:, None], num_classes, axis=1)
    probs[:, 0] = xs
    ce_ref = losses.loss_values(losses.HyperParams("ce"), probs, 0)
    learned = losses.loss_values(hyper, probs, 0)
    return header, np.column_stack([xs, xs < 0.5, ce_ref, learned])


def emit_losscurve(hyper, num_classes, path):
    header, rows = losscurve_table(hyper, num_classes)
    data_mod.write_rows(path, header, ",".join(["%.9g"] * len(header)), rows.tolist())


def _dataset_summary(split, noise):
    return {
        "n_train": len(split.train),
        "n_meta": len(split.meta),
        "n_test": len(split.test),
        "classes": split.train.c,
        "noise": noise["type"],
        "eta": noise["eta"],
        "observed_flip_fraction": float(split.train.flip_mask.mean()),
    }


def run_experiment(exp, out_dir):
    """Train once and write the run's artifacts: weights.csv for polysoft alone, the rest for every run."""
    split = config_mod.build_datasets(exp)
    out_dir.mkdir(parents=True, exist_ok=True)
    tc = config_mod.build_train_config(exp, split.train.c)
    state, rows = meta.arl_train(split.train, split.meta, split.test, tc)

    metrics_path = out_dir / "metrics.csv"
    meta.write_metrics_csv(rows, metrics_path)
    ckpt_path = out_dir / "checkpoint.bin"
    model.save_checkpoint(state.params, ckpt_path)

    artifacts = ["metrics.csv", "checkpoint.bin", "checkpoint.bin.json", "manifest.json"]
    if exp.loss["variant"] == "polysoft":
        weights = meta.compute_sample_weights(state.params, state.hyper, split.train)
        meta.write_weights_csv(weights, split.train.flip_mask, out_dir / "weights.csv")
        artifacts.append("weights.csv")
    emit_losscurve(state.hyper, split.train.c, out_dir / "losscurve.csv")
    artifacts.append("losscurve.csv")

    names = state.hyper.learnable_names
    manifest = {
        "config": exp.raw,
        "config_sha256": _config_hash(exp.raw),
        "seed": exp.seed,
        "versions": {
            "arl": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "variant": exp.loss["variant"],
        "classes": split.train.c,
        "hyper_names": list(names),
        "hyper_initial": list(map(float, tc.init_hyper.learnable_values())),
        "hyper_final": list(map(float, state.hyper.learnable_values())),
        "rce_a": exp.loss["rce_a"],
        "dataset": _dataset_summary(split, exp.noise),
        "final_test_acc": rows[-1].test_acc,
        "artifacts": artifacts,
    }
    _write_json(manifest, out_dir / "manifest.json")
    return manifest


def _fixed_grid_hypers(exp, num_classes):
    grid = exp.ablation["grid"]
    if not grid:
        grid = dict(FIXED_GRIDS[exp.loss["variant"]])
        if "lam" in grid:
            grid["lam"] = [s * math.log(num_classes) for s in grid["lam"]]
    return [config_mod.initial_hyper(exp, num_classes, **dict(zip(grid, combo)))
            for combo in itertools.product(*grid.values())]


def run_ablation(exp, modes, out_dir):
    """Compare hyperparameter strategies on one dataset and seed.

    fixed: grid search with the meta set as validation; opt1: retrain
    from scratch with the adaptive run's final hyperparameters; opt2:
    continue conventionally from each adaptive snapshot, at zero velocity
    when ``train.momentum`` > 0 (the snapshot holds no velocity), so a
    continuation differs from the adaptive run in more than its frozen
    hyperparameters; adaptive: the bilevel run itself.  The conventional
    runs train in one lockstep call.
    Only the written points are evaluated, plus each grid candidate on the
    meta set.
    """
    known = ("fixed", "opt1", "opt2", "adaptive")
    for i, mode in enumerate(modes):
        if mode not in known:
            raise ConfigError(f"unknown ablation mode {mode!r}")
        if mode in modes[:i]:  # it would write a second column under one summary key
            raise ConfigError(f"ablation mode {mode!r} given twice")
    if "fixed" in modes and exp.loss["variant"] == "ce":
        raise ConfigError("ablation mode 'fixed' needs a 'loss.variant' with hyperparameters")
    split = config_mod.build_datasets(exp)
    out_dir.mkdir(parents=True, exist_ok=True)
    tc = config_mod.build_train_config(exp, split.train.c)

    def curve(snapshots):  # the test accuracy at each (t, params, ...) snapshot
        return [(t, model.accuracy(params, split.test.X, split.test.y)) for t, params, *_ in snapshots]

    curves, summary, snapshots = {}, {}, []
    if {"adaptive", "opt1", "opt2"} & set(modes):
        [(state, snapshots)] = meta.train_runs([meta.Run(split.train, split.meta, tc)])
        if "adaptive" in modes:
            curves["adaptive"] = curve(snapshots[1:])
            summary["adaptive"] = {"hyper": list(map(float, state.hyper.learnable_values()))}

    # the conventional runs (beta 0) train in one lockstep call: the fixed grid and
    # opt1 from the config's network at 0, the opt2 continuations from their snapshots
    grid = _fixed_grid_hypers(exp, split.train.c) if "fixed" in modes else []
    opt2 = snapshots[:-1] if "opt2" in modes else []  # the last snapshot is the end
    opt1 = [state.hyper] if "opt1" in modes else []
    starts = [(0, None, hyper) for hyper in grid + opt1] + opt2
    runs = [meta.Run(split.train, None, replace(tc, beta=0.0, init_hyper=h), p, t) for t, p, h in starts]
    trained = iter(meta.train_runs(runs))
    fixed = [next(trained) for _ in grid]

    if opt1:
        curves["opt1"] = curve(next(trained)[1][1:])
        summary["opt1"] = {"hyper": list(map(float, opt1[0].learnable_values()))}

    if opt2:
        curves["opt2"] = curve((t, end.params) for (t, _, _), (end, _) in zip(opt2, trained))
        summary["opt2"] = {"hyper": None}

    if grid:  # the first candidate with the highest meta-set accuracy wins
        val_accs = [model.accuracy(end.params, split.meta.X, split.meta.y) for end, _ in fixed]
        best = int(np.argmax(val_accs))
        curves["fixed"] = curve(fixed[best][1][1:])
        summary["fixed"] = {"validation_acc": val_accs[best],
                            "hyper": list(map(float, grid[best].learnable_values()))}

    _write_ablation_csv(curves, modes, out_dir / "ablation.csv")
    finals = {m: {"final_acc": curves[m][-1][1], **summary[m]} for m in modes}
    payload = {"config_sha256": _config_hash(exp.raw), "seed": exp.seed, "modes": finals}
    _write_json(payload, out_dir / "ablation_summary.json")
    return payload


def _write_ablation_csv(curves, modes, path):
    iters = sorted({t for mode in modes for t, _ in curves[mode]})
    columns = [dict(curves[mode]) for mode in modes]
    cells = ([t] + ["%.9g" % col[t] if t in col else "" for col in columns] for t in iters)
    data_mod.write_rows(path, ["iter", *modes], ",".join(["%d"] + ["%s"] * len(modes)), cells)


def verify_bounds(exp, out_path=None):
    """Risk-gap sandwich reports for the configured noise rates."""
    t = exp.theory
    scan = theory.grid_scan(t["classes"], t["delta"], t["hyper"])  # one per call: no eta moves it
    reports = {}
    all_ok = True
    for eta in t["etas"]:
        report = theory.riskgap_verify(scan, t["world_labels"], eta)
        reports[config_mod.eta_key(eta)] = report.as_dict()
        all_ok = all_ok and report.noisy_sandwich_ok and report.clean_sandwich_ok
    payload = {
        "variant": t["variant"],
        "classes": t["classes"],
        "delta": t["delta"],
        "world_labels": list(map(int, t["world_labels"])),
        "hyper": {n: getattr(t["hyper"], n) for n in t["hyper"].learnable_names},
        "reports": reports,
        "all_inequalities_hold": bool(all_ok),
    }
    if out_path is not None:
        _write_json(payload, out_path)
    return payload


def gen_data(exp, out_dir):
    """Write the configured dataset (with any noise) to CSV plus manifest; ``out_dir`` is made after the data."""
    clean = config_mod.load_dataset(exp)
    noisy = config_mod.apply_noise(clean, exp.noise)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_mod.write_csv(noisy, out_dir / "dataset.csv")
    manifest = {
        "count": len(clean),
        "classes": clean.c,
        "noise": exp.noise["type"],
        "eta": exp.noise["eta"],
        "seed": exp.dataset["seed"],
        "noise_seed": exp.noise["seed"],
    }
    if exp.noise["type"] != "none":
        data_mod.write_rows(out_dir / "clean_labels.csv", ["sample_id", "clean_label"], "%d,%d",
                            enumerate(noisy.y_clean.tolist()))
        manifest["observed_flip_fraction"] = float(noisy.flip_mask.mean())
    _write_json(manifest, out_dir / "manifest.json")
    return manifest


def _build_parser():
    parser = argparse.ArgumentParser(prog="arl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one adaptive training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default="runs/train")

    p_abl = sub.add_parser("ablate", help="compare hyperparameter strategies")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--modes", default="fixed,opt1,opt2,adaptive")
    p_abl.add_argument("--seed", type=int, default=None)
    p_abl.add_argument("--out", default="runs/ablation")

    p_curve = sub.add_parser("losscurve", help="sample a trained loss on a grid")
    p_curve.add_argument("--checkpoint", required=True,
                         help="run directory or manifest.json of a training run")
    p_curve.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify-bounds", help="check the risk-gap sandwich bounds")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-data", help="generate a dataset CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default="runs/data")
    return parser


def _cmd_train(args):
    exp = config_mod.load_config(args.config, args.seed)
    manifest = run_experiment(exp, Path(args.out))
    print(f"final test accuracy {manifest['final_test_acc']:.4f} -> {args.out}")
    return EXIT_OK


def _cmd_ablate(args):
    exp = config_mod.load_config(args.config, args.seed)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ConfigError("no ablation modes given")
    payload = run_ablation(exp, modes, Path(args.out))
    for mode in modes:
        print(f"{mode}: final accuracy {payload['modes'][mode]['final_acc']:.4f}")
    return EXIT_OK


def _cmd_losscurve(args):
    path = Path(args.checkpoint)
    if path.is_dir():
        path = path / "manifest.json"
    hyper, num_classes = config_mod.load_run_hyper(path)
    emit_losscurve(hyper, num_classes, args.out)
    print(f"loss curve -> {args.out}")
    return EXIT_OK


def _cmd_verify(args):
    exp = config_mod.load_config(args.config)
    payload = verify_bounds(exp, args.out)
    print(json.dumps(payload, indent=1, sort_keys=True))
    return EXIT_OK if payload["all_inequalities_hold"] else EXIT_NUMERIC


def _cmd_gen_data(args):
    exp = config_mod.load_config(args.config)
    manifest = gen_data(exp, Path(args.out))
    print(f"wrote {manifest['count']} samples ({manifest['classes']} classes) -> {args.out}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "ablate": _cmd_ablate,
        "losscurve": _cmd_losscurve,
        "verify-bounds": _cmd_verify,
        "gen-data": _cmd_gen_data,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
