"""End-to-end tests of the command-line interface and its artifacts."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from serial_reference import conventional_run

from arl import cli, config as config_mod, data, losses, meta, model, theory
from arl.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SMALL_RUN = {
    "seed": 3,
    "dataset": {"n": 640, "classes": 3, "spread": 0.45},
    "noise": {"type": "symmetric", "eta": 0.4},
    "split": {"meta_size": 30, "test_fraction": 200},
    "loss": {"variant": "gce"},
    "train": {"alpha": 0.5, "beta": 0.5, "batch_n": 32, "batch_m": 30, "iters": 120},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestTrainCommand:
    def test_artifacts_and_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "checkpoint.bin", "checkpoint.bin.json",
                     "manifest.json", "losscurve.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["variant"] == "gce"
        assert manifest["hyper_names"] == ["q"]
        assert len(manifest["config_sha256"]) == 64
        assert manifest["dataset"]["n_train"] == 410
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "iter,train_loss,meta_loss,test_acc,hyper_1"

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_seed_changes_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--seed", "1", "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()

    def test_missing_csv_names_path(self, tmp_path, capsys):
        doc = dict(SMALL_RUN)
        doc["dataset"] = {"csv": str(tmp_path / "nope.csv")}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n1.0,zzz,1\n")
        doc = dict(SMALL_RUN)
        doc["dataset"] = {"csv": str(bad)}
        doc["split"] = {"meta_size": 30, "test_fraction": 100}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 4
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_oversized_train_batch_on_csv_names_key(self, tmp_path, capsys, command):
        # a CSV dataset's training set size is known once it is split, before --out is made
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(write_config(tmp_path, SMALL_RUN)), "--out", str(data_dir)]) == 0
        doc = dict(SMALL_RUN, dataset={"csv": str(data_dir / "dataset.csv")},
                   train=dict(SMALL_RUN["train"], batch_n=5000))
        out = tmp_path / "r"
        assert cli.main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert not out.exists()
        assert "'train.batch_n': batch_n=5000 exceeds training set size 410" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(SMALL_RUN)
        doc["train"] = dict(doc["train"], learning_rate=0.1)
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_domain_exit_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # a meta step that pushes d onto its boundary is a divergence (3),
        # not a config error (2)
        real, calls = meta.hypergradient, [0]

        def huge_at_third(*args):
            calls[0] += 1
            return np.array([0.0, 1e3]) if calls[0] == 3 else real(*args)

        monkeypatch.setattr(meta, "hypergradient", huge_at_third)
        cfg = write_config(tmp_path, dict(SMALL_RUN, loss={"variant": "polysoft"}))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "iteration 3" in err and "d=1.0" in err

    def test_weights_emitted_for_polysoft(self, tmp_path):
        doc = dict(SMALL_RUN)
        doc["loss"] = {"variant": "polysoft", "init": {"lam": 3.0, "d": 3.0}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "weights.csv").read_text().splitlines()
        assert lines[0] == "sample_id,is_clean,weight"
        assert len(lines) == 411


class TestLosscurveCommand:
    def test_reference_columns(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        curve = tmp_path / "curve.csv"
        assert cli.main(["losscurve", "--checkpoint", str(out), "--out", str(curve)]) == 0
        rows = np.genfromtxt(curve, delimiter=",", names=True)
        # CE reference column hits -log(0.5) at p = 0.5
        idx = int(np.argmin(np.abs(rows["x"] - 0.5)))
        assert rows["ce"][idx] == pytest.approx(0.6931, abs=2e-3)
        # 0-1 column flips exactly at p = 0.5
        assert np.all(rows["zero_one"][rows["x"] < 0.5] == 1.0)
        assert np.all(rows["zero_one"][rows["x"] >= 0.5] == 0.0)

    def test_ce_run(self, tmp_path):
        doc = dict(SMALL_RUN, loss={"variant": "ce"})
        doc["train"] = dict(SMALL_RUN["train"], beta=0.0)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        curve = tmp_path / "curve.csv"
        assert cli.main(["losscurve", "--checkpoint", str(out), "--out", str(curve)]) == 0
        rows = np.genfromtxt(curve, delimiter=",", names=True)
        assert len(rows) == 500
        np.testing.assert_array_equal(rows["learned"], rows["ce"])

    def test_polysoft_plateau_constant(self, tmp_path):
        hyper = losses.HyperParams("polysoft", lam=1.0, d=2.0)
        path = tmp_path / "poly.csv"
        cli.emit_losscurve(hyper, 3, path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        plateau = rows["learned"][rows["x"] >= 1.0]
        np.testing.assert_allclose(plateau, 0.5, atol=1e-9)

    def test_missing_manifest(self, tmp_path, capsys):
        assert cli.main(["losscurve", "--checkpoint", str(tmp_path), "--out",
                         str(tmp_path / "c.csv")]) == 2

    @pytest.mark.parametrize("key", ["variant", "classes", "hyper_names", "hyper_final"])
    def test_manifest_missing_key(self, tmp_path, capsys, key):
        manifest = {"variant": "gce", "classes": 3, "hyper_names": ["q"], "hyper_final": [0.5]}
        del manifest[key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["losscurve", "--checkpoint", str(tmp_path), "--out",
                         str(tmp_path / "c.csv")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("names, final, key", [
        (["lam"], [0.5], "lam"),
        (["q"], [2.0], "q"),
        (["q"], ["0.5"], "q"),
    ])
    def test_manifest_bad_hyper(self, tmp_path, capsys, names, final, key):
        manifest = {"variant": "gce", "classes": 3, "hyper_names": names, "hyper_final": final}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["losscurve", "--checkpoint", str(tmp_path), "--out",
                         str(tmp_path / "c.csv")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("patch, key", [
        ({"variant": "sl", "hyper_names": ["gamma1", "gamma2"], "hyper_final": [1.0, 1.0],
          "rce_a": "x"}, "manifest.rce_a"),
        ({"hyper_names": "q"}, "manifest.hyper_names"),
        ({"hyper_final": 0.5}, "manifest.hyper_final"),
        ({"hyper_final": []}, "differ in length"),
    ], ids=["rce_a", "hyper_names", "hyper_final", "lengths"])
    def test_manifest_mistyped(self, tmp_path, capsys, patch, key):
        manifest = {"variant": "gce", "classes": 3, "hyper_names": ["q"], "hyper_final": [0.5]}
        (tmp_path / "manifest.json").write_text(json.dumps(dict(manifest, **patch)))
        assert cli.main(["losscurve", "--checkpoint", str(tmp_path), "--out",
                         str(tmp_path / "c.csv")]) == 2
        assert key in capsys.readouterr().err


class TestVerifyBoundsCommand:
    def test_json_report(self, tmp_path, capsys):
        doc = {"theory": {"classes": 3, "etas": [0.1, 0.3], "delta": 0.02,
                          "variant": "polysoft", "hyper": {"lam": math.log(3.0), "d": 2.0}}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        assert cli.main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_inequalities_hold"] is True
        assert set(payload["reports"]) == {"eta=0.1", "eta=0.3"}
        first = payload["reports"]["eta=0.1"]
        assert {"noisy_gap_bound", "clean_gap_bound", "grid_tol",
                "noisy_slack", "clean_slack"} <= set(first)

    def test_eta_beyond_hypothesis_is_config_error(self, tmp_path, capsys):
        doc = {"theory": {"classes": 3, "etas": [0.9], "variant": "polysoft"}}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["verify-bounds", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["etas", "world_labels"])
    def test_empty_list_is_config_error(self, tmp_path, capsys, key):
        # either would verify nothing
        doc = {"theory": {"classes": 3, key: []}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        assert cli.main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'theory.{key}' must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("world_labels", [0, 5, 1], "'theory.world_labels': label 5 out of range for 3 classes"),
        ("world_labels", [-1], "'theory.world_labels': label -1 out of range for 3 classes"),
        ("etas", [0.1, 0.9], "'theory.etas': eta 0.9 out of range 0 <= eta < 1 - 1/c = 0.666667 for 3"),
        ("etas", [-0.1], "'theory.etas': eta -0.1 out of range"),
        ("delta", 0.75, "'theory.delta': delta must lie in (0, 0.5], got 0.75"),
        ("delta", 0.0, "'theory.delta': delta must lie in (0, 0.5], got 0.0"),
        ("delta", 0.03, "'theory.delta': 1/delta must be an integer, got delta=0.03"),
        ("variant", "gce", "'theory.variant': no closed-form bound constants for variant 'gce'"),
        ("hyper", {"lam": 0.5}, "'theory.hyper.lam': polysoft bound needs lam >= log(c) = 1.098612, got 0.5"),
        ("etas", [0.3, 0.3000001, 0.3], "'theory.etas': etas 0.3 and 0.3000001 share the report key 'eta=0.3'"),
        ("classes", 40, "'theory.classes' and 'theory.delta': a simplex grid of 40 classes at delta=0.02 "
                        f"would hold {math.comb(89, 39)} points > budget 10000000"),
        ("classes", 1, "'theory.classes' and 'theory.delta': need at least two classes, got 1"),
    ])
    def test_theory_key_out_of_range(self, tmp_path, capsys, monkeypatch, key, value, message):
        # nothing is scanned or verified before the error
        monkeypatch.setattr(theory, "grid_scan", None)
        monkeypatch.setattr(theory, "riskgap_verify", None)
        cfg = write_config(tmp_path, {"theory": {"classes": 3, key: value}})
        out = tmp_path / "report.json"
        assert cli.main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_grid_table_per_call(self, monkeypatch):
        # the grid, its loss table and the tolerance do not depend on eta
        real, tables = theory._loss_table, []

        def counted(hyper, probs):
            tables.append(len(probs))
            return real(hyper, probs)

        monkeypatch.setattr(theory, "_loss_table", counted)
        exp = config_mod.load_config(CONFIG_DIR / "bounds_polysoft.json")
        payload = cli.verify_bounds(exp)
        grid = len(theory.simplex_grid(3, exp.theory["delta"]))
        assert len(payload["reports"]) == 3 and tables.count(grid) == 1


class TestGenDataCommand:
    def test_writes_dataset_and_manifest(self, tmp_path):
        doc = {"dataset": {"n": 120, "classes": 3, "spread": 0.3},
               "noise": {"type": "symmetric", "eta": 0.4}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 120 and manifest["classes"] == 3
        assert manifest["noise"] == "symmetric"
        rows = (out / "dataset.csv").read_text().splitlines()
        assert len(rows) == 120
        clean = (out / "clean_labels.csv").read_text().splitlines()
        assert clean[0] == "sample_id,clean_label"

    def test_roundtrips_through_training(self, tmp_path):
        doc = {"dataset": {"n": 400, "classes": 3, "spread": 0.3}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        run_doc = dict(SMALL_RUN)
        run_doc["dataset"] = {"csv": str(out / "dataset.csv")}
        run_doc["split"] = {"meta_size": 30, "test_fraction": 100}
        cfg2 = write_config(tmp_path, run_doc, "run.json")
        assert cli.main(["train", "--config", str(cfg2), "--out", str(tmp_path / "r")]) == 0


class TestAblateCommand:
    def test_single_mode_single_column(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--config", str(cfg), "--modes", "adaptive",
                         "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "iter,adaptive"

    def test_opt1_shares_final_hyper(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--config", str(cfg), "--modes", "adaptive,opt1",
                         "--out", str(out)]) == 0
        payload = json.loads((out / "ablation_summary.json").read_text())
        assert payload["modes"]["adaptive"]["hyper"] == payload["modes"]["opt1"]["hyper"]

    def test_ce_variant_rejected_for_fixed(self, tmp_path, capsys):
        doc = dict(SMALL_RUN)
        doc["loss"] = {"variant": "ce"}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["ablate", "--config", str(cfg), "--modes", "fixed",
                         "--out", str(tmp_path / "a")]) == 2

    def test_unknown_mode_rejected(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        assert cli.main(["ablate", "--config", str(cfg), "--modes", "turbo",
                         "--out", str(tmp_path / "a")]) == 2


class TestAblationOracle:
    """Each mode's artifacts against an explicit serial computation."""

    DOC = {
        "seed": 5,
        "dataset": {"n": 500, "classes": 3, "spread": 0.45},
        "noise": {"type": "symmetric", "eta": 0.4},
        "split": {"meta_size": 30, "test_fraction": 150},
        "loss": {"variant": "sl"},
        "train": {"alpha": 0.5, "beta": 0.5, "batch_n": 16, "batch_m": 30, "iters": 40,
                  "metrics_every": 10},
        "ablation": {"grid": {"gamma1": [0.1, 1.0, 10.0], "gamma2": [1.0]}},
    }
    MODES = ["fixed", "opt1", "opt2", "adaptive"]

    @classmethod
    def serial(cls):
        """Curves and summaries from ``arl_train`` and one serial reference run each."""
        exp = config_mod.parse_config(cls.DOC)
        split = config_mod.build_datasets(exp)
        tc = config_mod.build_train_config(exp, split.train.c)
        train, meta_set, test = split.train, split.meta, split.test

        def conventional(hyper, init=None, start=0):
            params, snapshots = conventional_run(train, meta_set, tc, hyper, init, start)
            return params, [(t, model.accuracy(p, test.X, test.y)) for t, p in snapshots]

        state, rows = meta.arl_train(train, meta_set, test, tc)
        final = list(map(float, state.hyper.learnable_values()))
        curves = {"adaptive": [(r.iteration, r.test_acc) for r in rows]}
        summary = {"adaptive": {"final_acc": rows[-1].test_acc, "hyper": final}}

        best = None
        for hyper in cli._fixed_grid_hypers(exp, train.c):
            params, curve = conventional(hyper)
            val_acc = model.accuracy(params, meta_set.X, meta_set.y)
            if best is None or val_acc > best[0]:
                best = (val_acc, hyper, curve)
        curves["fixed"] = best[2]
        summary["fixed"] = {"final_acc": best[2][-1][1], "validation_acc": best[0],
                            "hyper": list(map(float, best[1].learnable_values()))}

        curves["opt1"] = conventional(state.hyper)[1]
        summary["opt1"] = {"final_acc": curves["opt1"][-1][1], "hyper": final}

        # the adaptive state at t is that of an adaptive run t iterations long
        opt2 = [(0, conventional(tc.init_hyper)[1][-1][1])]
        for t in range(tc.metrics_every, tc.max_iters, tc.metrics_every):
            at_t, _ = meta.arl_train(train, meta_set, test, replace(tc, max_iters=t))
            opt2.append((t, conventional(at_t.hyper, at_t.params, t)[1][-1][1]))
        curves["opt2"] = opt2
        summary["opt2"] = {"final_acc": opt2[-1][1], "hyper": None}
        return curves, summary

    @pytest.fixture(scope="class")
    def expected(self):
        return self.serial()

    @pytest.mark.parametrize("modes", [MODES, ["opt2"], ["fixed"], ["adaptive"]],
                             ids=["all", "opt2", "fixed", "adaptive"])
    def test_matches_serial(self, tmp_path, monkeypatch, expected, modes):
        curves, summary = expected
        lockstep, calls = meta.train_runs, []
        monkeypatch.setattr(meta, "train_runs", lambda runs: calls.append(runs) or lockstep(runs))
        payload = cli.run_ablation(config_mod.parse_config(self.DOC), modes, tmp_path)
        # the adaptive run, if a mode needs it, then every conventional run in one call
        adaptive = bool({"adaptive", "opt1", "opt2"} & set(modes))
        conventional = 3 * ("fixed" in modes) + ("opt1" in modes) + len(curves["opt2"]) * ("opt2" in modes)
        assert [len(runs) for runs in calls] == [1] * adaptive + [conventional]

        lookup = {m: dict(curves[m]) for m in modes}
        lines = [",".join(["iter", *modes])]
        for t in sorted({t for m in modes for t in lookup[m]}):
            cells = [f"{lookup[m][t]:.9g}" if t in lookup[m] else "" for m in modes]
            lines.append(",".join([str(t), *cells]))
        assert (tmp_path / "ablation.csv").read_text() == "\n".join(lines) + "\n"
        assert payload["modes"] == {m: summary[m] for m in modes}
        assert json.loads((tmp_path / "ablation_summary.json").read_text()) == payload

    def test_evaluates_only_what_it_writes(self, tmp_path, monkeypatch, expected):
        curves, _ = expected
        counts = {"train_runs": 0, "_metrics_row": 0, "accuracy": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(meta, "train_runs")
        counted(meta, "_metrics_row")
        counted(model, "accuracy")
        cli.run_ablation(config_mod.parse_config(self.DOC), self.MODES, tmp_path)
        grid = len(cli._fixed_grid_hypers(config_mod.parse_config(self.DOC), 3))
        points = sum(len(curves[m]) for m in ("adaptive", "fixed", "opt1"))
        assert counts == {"train_runs": 2, "_metrics_row": 0,
                          "accuracy": points + len(curves["opt2"]) + grid}


def _never_train(*args, **kwargs):
    raise AssertionError("training started before the config was fully checked")


def _never_load(*args, **kwargs):
    raise AssertionError("data loaded before the config was fully checked")


class TestChecksBeforeTraining:
    SL_RUN = dict(SMALL_RUN, loss={"variant": "sl"})

    @pytest.mark.parametrize("patch, modes, key", [
        ({"ablation": {"grid": {"gama1": [0.1, 1.0]}}}, "fixed,adaptive", "gama1"),
        ({"ablation": {"grid": {"gamma1": [0.1, -1.0]}}}, "fixed,adaptive", "gamma1"),
        ({"ablation": {"grid": {"gamma1": 1.0}}}, "fixed,adaptive", "ablation.grid.gamma1"),
        ({"ablation": {"grid": {"gamma1": []}}}, "fixed,adaptive", "ablation.grid.gamma1"),
        ({"loss": {"variant": "ce"}}, "adaptive,fixed", "loss.variant"),
        ({"theory": {"hyper": {"lamb": 2.0}}}, "adaptive", "lamb"),
        ({"theory": {"hyper": {"q": 0.5}}}, "adaptive", "q"),
        ({"ablation": {"modes": ["fixed"]}}, "fixed", "modes"),
        ({}, "adaptive,adaptive", "ablation mode 'adaptive' given twice"),
    ], ids=["grid-key", "grid-domain", "grid-scalar", "grid-empty", "ce-fixed",
            "theory-key", "theory-not-learned", "ablation-modes", "repeated-mode"])
    def test_ablate_exits_2_untrained(self, tmp_path, capsys, monkeypatch, patch, modes, key):
        monkeypatch.setattr(meta, "train_runs", _never_train)
        cfg = write_config(tmp_path, dict(self.SL_RUN, **patch))
        assert cli.main(["ablate", "--config", str(cfg), "--modes", modes,
                         "--out", str(tmp_path / "a")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "iters", 20.0),
        ("train", "batch_n", "16"),
        ("model", "hidden", 16),
        ("theory", "classes", 3.0),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, monkeypatch, section, key, value):
        monkeypatch.setattr(meta, "train_runs", _never_train)
        doc = dict(SMALL_RUN, **{section: dict(SMALL_RUN.get(section, {}), **{key: value})})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "alpha", -1),
        ("train", "batch_n", 0),
        ("train", "momentum", 1.0),
        ("train", "metrics_every", 0),
        ("model", "hidden", [0]),
        ("model", "activation", "gelu"),
        ("train", "decay_factor", -1.0),
        ("train", "decay_factor", 0.0),
    ])
    def test_out_of_range_exits_2_unloaded(self, tmp_path, monkeypatch, section, key, value):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, **{section: dict(SMALL_RUN.get(section, {}), **{key: value})})
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, says", [
        ("train", "iters", 0, "'train.iters': max_iters must be >= 1, got 0"),
        ("train", "alpha", -1, "'train.alpha': alpha must be nonnegative, got -1"),
        ("train", "beta", -0.5, "'train.beta'"),
        ("train", "batch_m", 0, "'train.batch_m'"),
        ("train", "momentum", 1.0, "'train.momentum'"),
        ("train", "decay_factor", 0.0, "'train.decay_factor'"),
        ("split", "test_fraction", 2.5, "'split.test_fraction': test_fraction=2.5"),
        ("split", "test_fraction", 0, "'split.test_fraction': test_fraction=0"),
        ("noise", "type", "asymmetric", "'noise.type': asymmetric noise needs at least 4 classes, got 3"),
        ("noise", "eta", 1.5, "'noise.eta': eta=1.5 outside [0, 1]"),
        ("noise", "eta", -0.1, "'noise.eta': eta=-0.1 outside [0, 1]"),
        ("noise", "seed", -1, "'noise.seed' gives the noise stage seed -1; stage seeds must be >= 0"),
        ("train", "alpha", math.inf, "'train.alpha' must be a number, got inf"),
        ("train", "beta", math.nan, "'train.beta' must be a number, got nan"),
        ("dataset", "spread", math.inf, "'dataset.spread' must be a number, got inf"),
        ("train", "batch_n", 5000, "'train.batch_n': batch_n=5000 exceeds training set size 410"),
    ])
    def test_range_error_names_key_unloaded(self, tmp_path, capsys, monkeypatch,
                                            section, key, value, says):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, **{section: dict(SMALL_RUN.get(section, {}), **{key: value})})
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert says in capsys.readouterr().err

    @pytest.mark.parametrize("n, split, says", [
        (200, {"meta_size": 0, "test_fraction": 50}, "'split.meta_size' must be >= 1, got 0"),
        (200, {"meta_size": 30, "test_fraction": 170}, "'split.meta_size' and 'split.test_fraction'"),
        (200, {"meta_size": 30, "test_fraction": 0.001}, "meta=30, test=0"),
    ], ids=["no-meta", "no-train", "no-test"])
    def test_infeasible_split_names_key_unloaded(self, tmp_path, capsys, monkeypatch, n, split, says):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, dataset=dict(SMALL_RUN["dataset"], n=n), split=split)
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert says in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_oversized_meta_batch_exits_2_unloaded(self, tmp_path, capsys, monkeypatch, command):
        # the meta set holds split.meta_size samples, so an adaptive run's batch_m is
        # checked against it before any data is made or any directory written
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, train=dict(SMALL_RUN["train"], batch_m=50, iters=20))
        out = tmp_path / "r"
        assert cli.main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert not out.exists()
        assert ("'train.batch_m' and 'split.meta_size': batch_m=50 exceeds meta set size 30"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("variant, beta", [("ce", 0.5), ("gce", 0.0)])
    def test_meta_batch_unchecked_without_meta_steps(self, variant, beta):
        # a run without meta steps draws no meta batch
        doc = dict(SMALL_RUN, loss={"variant": variant}, train=dict(SMALL_RUN["train"], batch_m=50, beta=beta))
        assert config_mod.parse_config(doc).train["batch_m"] == 50

    @pytest.mark.parametrize("seed", [True, False, 3.0, "3"])
    def test_mistyped_master_seed_exits_2(self, tmp_path, capsys, monkeypatch, seed):
        # a boolean is an int to Python: true would run as seed 1
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, dict(SMALL_RUN, seed=seed))),
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert "'seed' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, seed, doc_seed, says", [
        ("train", [], -2, "'seed' gives the dataset stage seed -1"),
        ("train", ["--seed", "-2"], 3, "'--seed' gives the dataset stage seed -1"),
        ("gen-data", [], -7, "'seed' gives the dataset stage seed -6"),
    ], ids=["config", "flag", "gen-data"])
    def test_negative_stage_seed_exits_2_unloaded(self, tmp_path, capsys, monkeypatch,
                                                  command, seed, doc_seed, says):
        # numpy takes no negative seed; --seed -1 still gives stage seeds 0..4
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        out = tmp_path / "r"
        cfg = write_config(tmp_path, dict(SMALL_RUN, seed=doc_seed))
        assert cli.main([command, "--config", str(cfg), *seed, "--out", str(out)]) == 2
        assert not out.exists()
        assert says in capsys.readouterr().err

    def test_superclasses_type_checked(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, noise={"type": "hierarchical", "eta": 0.2, "superclasses": 3})
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(tmp_path / "r")]) == 2
        assert "noise.superclasses" in capsys.readouterr().err

    @pytest.mark.parametrize("superclasses, eta, says", [
        ([[0, 1]], 0.2, "'noise.superclasses': superclasses must partition 0..2, got [[0, 1]]"),
        ([[0, 1], [1, 2]], 0.2, "'noise.superclasses': superclasses must partition 0..2"),
        ([[0, 1], [2]], 0.2, "'noise.superclasses': every superclass block needs >= 2 classes"),
    ], ids=["missing-class", "repeated-class", "singleton-block"])
    def test_superclasses_partition_checked_unloaded(self, tmp_path, capsys, monkeypatch,
                                                     superclasses, eta, says):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, noise={"type": "hierarchical", "eta": eta, "superclasses": superclasses})
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert says in capsys.readouterr().err

    BLOBS_KEYS = "'dataset.n' and 'dataset.classes' and 'dataset.dim' and 'dataset.spread'"

    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data"])
    @pytest.mark.parametrize("dataset, code, says", [
        ({"spread": -1}, 2, f"{BLOBS_KEYS}: spread must be positive"),
        ({"dim": 1}, 2, f"{BLOBS_KEYS}: d_in must be >= 2"),
        ({"classes": 1}, 2, f"{BLOBS_KEYS}: need n >= c >= 2, got n=640, c=1"),
        ({"dim": 3, "classes": 4}, 2, f"{BLOBS_KEYS}: need d_in >= c for orthogonal centers"),
        ({"csv": "missing.csv"}, 2, "'dataset.csv': dataset csv not found: {tmp_path}/missing.csv\n"),
        ({"csv": "bad.csv"}, 4, "bad.csv:2: could not convert"),
    ], ids=["spread", "dim", "classes", "orthogonal", "missing-csv", "malformed-csv"])
    def test_bad_dataset_makes_no_out(self, tmp_path, capsys, monkeypatch, command, dataset, code, says):
        # a generator setting is refused before any data is made, a bad CSV when it is read;
        # either way no --out directory is left behind
        if "csv" not in dataset:
            monkeypatch.setattr(data, "gen_blobs", _never_load)
            dataset = dict(SMALL_RUN["dataset"], **dataset)
        else:
            (tmp_path / "bad.csv").write_text("1.0,2.0,0\n1.0,zzz,1\n")
            dataset = {"csv": str(tmp_path / dataset["csv"])}
        monkeypatch.setattr(meta, "train_runs", _never_train)
        out = tmp_path / "r"
        cfg = write_config(tmp_path, dict(SMALL_RUN, dataset=dataset))
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert not out.exists()
        assert says.format(tmp_path=tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data"])
    @pytest.mark.parametrize("key, value", [("n", 50), ("classes", 3), ("dim", 2), ("spread", 0.4)])
    def test_csv_takes_no_generator_keys(self, tmp_path, capsys, monkeypatch, command, key, value):
        # a stray generator key next to dataset.csv is refused at parse time, before the file is read
        monkeypatch.setattr(data, "load_csv", _never_load)
        monkeypatch.setattr(meta, "train_runs", _never_train)
        out = tmp_path / "r"
        cfg = write_config(tmp_path, dict(SMALL_RUN, dataset={"csv": "x.csv", key: value}))
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"'dataset.{key}': a CSV dataset takes no generator settings"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("variant", ["gce", "sl", "bi_tempered", "ce"])
    def test_weights_only_for_polysoft(self, tmp_path, capsys, monkeypatch, variant):
        # sample weights exist for polysoft alone: asking another variant for them is refused
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, loss={"variant": variant}, emit={"weights": True})
        out = tmp_path / "r"
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"'emit.weights': sample weights are defined for the polysoft variant, not {variant!r}"
                in capsys.readouterr().err)
        assert not config_mod.parse_config(dict(doc, emit={"weights": False})).emit["weights"]
        assert config_mod.parse_config(dict(doc, loss={"variant": "polysoft"})).emit["weights"]

    def test_theory_defaults_resolved(self):
        theory = config_mod.parse_config(dict(SMALL_RUN)).theory
        assert theory["classes"] == 3 and theory["etas"] == [0.1, 0.3, 0.6]
        assert theory["delta"] == 0.02 and theory["world_labels"] == [0, 1, 2, 0]
        assert theory["variant"] == "polysoft"
        assert theory["hyper"] == losses.default_hyper("polysoft", 3)


class TestConfigParsing:
    def test_seed_override_rederives_stages(self):
        exp1 = config_mod.parse_config(dict(SMALL_RUN), seed_override=7)
        exp2 = config_mod.parse_config(dict(SMALL_RUN), seed_override=8)
        assert exp1.dataset["seed"] != exp2.dataset["seed"]
        assert exp1.train["seed"] != exp2.train["seed"]

    def test_seed_override_minus_one_parses(self):
        exp = config_mod.parse_config(dict(SMALL_RUN), seed_override=-1)
        assert [exp.dataset["seed"], exp.noise["seed"], exp.model["seed"]] == [0, 1, 4]

    def test_explicit_stage_seed_respected(self):
        doc = dict(SMALL_RUN)
        doc["noise"] = dict(doc["noise"], seed=99)
        exp = config_mod.parse_config(doc)
        assert exp.noise["seed"] == 99

    def test_csv_and_generator_conflict(self):
        doc = dict(SMALL_RUN)
        doc["dataset"] = {"csv": "x.csv", "generator": "blobs"}
        with pytest.raises(ConfigError):
            config_mod.parse_config(doc)

    def test_document_defaults_are_train_config_defaults(self):
        # a document that omits a train or model key trains as a TrainConfig that omits its field
        built = {f.name: f.default for f in fields(meta.TrainConfig)}
        for key, value in {**config_mod._DEFAULTS["train"], **config_mod._DEFAULTS["model"]}.items():
            want = tuple(value) if isinstance(value, list) else value
            assert built["max_iters" if key == "iters" else key] == want, key

    def test_init_keys_checked_against_variant(self):
        doc = dict(SMALL_RUN)
        doc["loss"] = {"variant": "gce", "init": {"lam": 2.0}}
        with pytest.raises(ConfigError, match="lam"):
            config_mod.parse_config(doc)


class TestDefaultInit:
    def test_default_polysoft_init_learns(self):
        # configs/blobs_apolysoft.json without loss.init: a lam = log(c)
        # start collapsed lam to ~0.29 and ended at 0.625; 3 log(c) reaches 0.917
        doc = {
            "seed": 0,
            "dataset": {"n": 4030, "classes": 3, "dim": 2, "spread": 0.5},
            "noise": {"type": "symmetric", "eta": 0.4},
            "split": {"meta_size": 30, "test_fraction": 1000},
            "loss": {"variant": "polysoft"},
            "train": {"alpha": 2.0, "beta": 0.5, "batch_n": 16, "batch_m": 30, "iters": 3000},
        }
        exp = config_mod.parse_config(doc)
        split = config_mod.build_datasets(exp)
        tc = config_mod.build_train_config(exp, split.train.c)
        assert tc.resolve_hyper(3).lam == pytest.approx(3.0 * math.log(3.0))
        _, rows = meta.arl_train(split.train, split.meta, split.test, tc)
        assert rows[-1].test_acc >= 0.85


class TestShippedConfigs:
    ROOT = Path(__file__).resolve().parent.parent
    CONFIGS = sorted((ROOT / "configs").glob("*.json"))

    def test_readme_commands_parse(self):
        readme = (self.ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("arl ")]
        assert len(lines) >= 5
        for line in lines:
            args = cli._build_parser().parse_args(line.split()[1:])
            if hasattr(args, "config"):
                config_mod.load_config(self.ROOT / args.config)

    def test_found(self):
        assert len(self.CONFIGS) >= 5

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_loads_and_builds(self, path):
        exp = config_mod.load_config(path)
        tc = config_mod.build_train_config(exp, exp.dataset["classes"])
        assert tc.init_hyper.variant == exp.loss["variant"]

    def test_fd_eps_rejected(self, tmp_path):
        doc = json.loads(self.CONFIGS[0].read_text())
        doc["train"]["fd_eps"] = 1e-3
        with pytest.raises(ConfigError, match="fd_eps"):
            config_mod.load_config(write_config(tmp_path, doc))
