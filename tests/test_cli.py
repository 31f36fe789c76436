"""End-to-end tests of the command-line interface and its artifacts."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from arl import cli, config as config_mod, data, losses, meta
from arl.errors import ConfigError

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
    ], ids=["grid-key", "grid-domain", "grid-scalar", "grid-empty", "ce-fixed",
            "theory-key", "theory-not-learned", "ablation-modes"])
    def test_ablate_exits_2_untrained(self, tmp_path, capsys, monkeypatch, patch, modes, key):
        monkeypatch.setattr(meta, "arl_train", _never_train)
        monkeypatch.setattr(meta, "conventional_train", _never_train)
        monkeypatch.setattr(meta, "conventional_runs", _never_train)
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
        monkeypatch.setattr(meta, "arl_train", _never_train)
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

    def test_superclasses_type_checked(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "gen_blobs", _never_load)
        doc = dict(SMALL_RUN, noise={"type": "hierarchical", "eta": 0.2, "superclasses": 3})
        assert cli.main(["train", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(tmp_path / "r")]) == 2
        assert "noise.superclasses" in capsys.readouterr().err

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
