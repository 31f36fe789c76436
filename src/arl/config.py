"""Experiment configuration: one strict JSON document per run.

Unknown keys anywhere in the document are errors so that a typo in a
hyperparameter name cannot silently fall back to a default.  Seeds for
the data/noise/split/train/model stages derive from one master seed
unless a stage pins its own.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

from . import data as data_mod
from . import losses
from .errors import ConfigError
from .meta import TrainConfig

_SECTIONS = {
    "seed", "dataset", "noise", "split", "loss", "train", "model",
    "emit", "ablation", "theory",
}


def _check_keys(doc, allowed, path):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")


# allowed keys and defaults of the sections that are plain settings
_DEFAULTS = {
    "split": {"meta_size": 30, "test_fraction": 1000},
    "train": {
        "alpha": 0.3, "beta": 0.3, "batch_n": 100, "batch_m": 30, "iters": 1000,
        "momentum": 0.0, "decay_steps": [], "decay_factor": 0.1, "metrics_every": 50,
    },
    "model": {"hidden": [16], "activation": "tanh"},
}


def _section(doc, name, seed):
    """Section ``name`` of ``doc`` over its defaults, with its stage seed."""
    given = doc.get(name, {})
    _check_keys(given, set(_DEFAULTS[name]) | {"seed"}, name)
    return {**copy.deepcopy(_DEFAULTS[name]), **given, "seed": seed}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment document."""

    raw: dict
    seed: int
    dataset: dict
    noise: dict
    split: dict
    loss: dict
    train: dict
    model: dict
    emit: dict
    ablation: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)


def load_config(path, seed_override=None):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return parse_config(doc, seed_override)


def parse_config(doc, seed_override=None):
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _SECTIONS, "$")
    master = seed_override if seed_override is not None else doc.get("seed", 0)
    if not isinstance(master, int):
        raise ConfigError("'seed' must be an integer")
    override = seed_override is not None

    def stage_seed(section, offset):
        if not override and isinstance(section, dict) and "seed" in section:
            return section["seed"]
        return master + offset

    dataset = dict(doc.get("dataset", {}))
    _check_keys(dataset, {"generator", "n", "classes", "dim", "spread", "csv", "seed"}, "dataset")
    if "csv" in dataset and "generator" in dataset:
        raise ConfigError("'dataset' takes either 'generator' or 'csv', not both")
    if "csv" not in dataset:
        dataset.setdefault("generator", "blobs")
        if dataset["generator"] != "blobs":
            raise ConfigError(f"unknown generator {dataset['generator']!r}")
        dataset.setdefault("n", 4030)
        dataset.setdefault("classes", 3)
        dataset.setdefault("dim", 2)
        dataset.setdefault("spread", 0.4)
    dataset["seed"] = stage_seed(doc.get("dataset"), 1)

    noise = dict(doc.get("noise", {}))
    _check_keys(noise, {"type", "eta", "superclasses", "exact_count", "seed"}, "noise")
    noise.setdefault("type", "none")
    if noise["type"] not in ("none", "symmetric", "asymmetric", "hierarchical"):
        raise ConfigError(f"unknown noise type {noise['type']!r}")
    noise.setdefault("eta", 0.0)
    noise.setdefault("exact_count", False)
    if noise["type"] == "hierarchical" and "superclasses" not in noise:
        raise ConfigError("hierarchical noise needs 'noise.superclasses'")
    noise["seed"] = stage_seed(doc.get("noise"), 2)

    split = _section(doc, "split", stage_seed(doc.get("split"), 3))

    loss = dict(doc.get("loss", {}))
    _check_keys(loss, {"variant", "init", "rce_a"}, "loss")
    loss.setdefault("variant", "gce")
    if loss["variant"] not in losses.VARIANTS:
        raise ConfigError(f"unknown loss variant {loss['variant']!r}")
    loss.setdefault("rce_a", -4.0)
    init = loss.get("init", {})
    _check_keys(init, set(losses.LEARNABLE[loss["variant"]]), "loss.init")

    train = _section(doc, "train", stage_seed(doc.get("train"), 4))
    model = _section(doc, "model", stage_seed(doc.get("model"), 5))

    emit = dict(doc.get("emit", {}))
    _check_keys(emit, {"weights", "losscurve"}, "emit")
    emit.setdefault("weights", loss["variant"] == "polysoft")
    emit.setdefault("losscurve", True)

    ablation = dict(doc.get("ablation", {}))
    _check_keys(ablation, {"modes", "grid"}, "ablation")

    theory = dict(doc.get("theory", {}))
    _check_keys(theory, {"classes", "etas", "delta", "world_labels", "variant", "hyper"}, "theory")

    return ExperimentConfig(
        raw=doc, seed=master, dataset=dataset, noise=noise, split=split,
        loss=loss, train=train, model=model, emit=emit,
        ablation=ablation, theory=theory,
    )


def initial_hyper(exp, num_classes):
    base = losses.default_hyper(exp.loss["variant"], num_classes)
    fields = dict(exp.loss.get("init", {}))
    fields["rce_a"] = exp.loss["rce_a"]
    return replace(base, **fields)


def load_dataset(exp):
    """The configured clean dataset: the CSV file, or generated blobs."""
    ds_cfg = exp.dataset
    if "csv" in ds_cfg:
        return data_mod.load_csv(ds_cfg["csv"])
    return data_mod.gen_blobs(
        ds_cfg["n"], ds_cfg["classes"], ds_cfg["dim"], ds_cfg["spread"], ds_cfg["seed"]
    )


def build_datasets(exp):
    """Load, split, and corrupt per the config sections."""
    split = data_mod.split_meta(
        load_dataset(exp), exp.split["meta_size"], exp.split["test_fraction"], exp.split["seed"]
    )
    return data_mod.MetaSplit(apply_noise(split.train, exp.noise), split.meta, split.test)


def apply_noise(dataset, noise):
    """``dataset`` with the configured label noise; unchanged for type none."""
    kind = noise["type"]
    if kind == "none":
        return dataset
    if kind == "symmetric":
        return data_mod.inject_symmetric(
            dataset, noise["eta"], noise["seed"], noise["exact_count"]
        )
    if kind == "asymmetric":
        return data_mod.inject_asymmetric(
            dataset, noise["eta"], noise["seed"], noise["exact_count"]
        )
    return data_mod.inject_hierarchical(
        dataset, noise["eta"], noise["superclasses"], noise["seed"], noise["exact_count"]
    )


def build_train_config(exp, num_classes):
    t = exp.train
    return TrainConfig(
        variant=exp.loss["variant"],
        alpha=t["alpha"],
        beta=t["beta"],
        batch_n=t["batch_n"],
        batch_m=t["batch_m"],
        max_iters=t["iters"],
        seed=t["seed"],
        init_hyper=initial_hyper(exp, num_classes),
        rce_a=exp.loss["rce_a"],
        momentum=t["momentum"],
        decay_steps=tuple(t["decay_steps"]),
        decay_factor=t["decay_factor"],
        metrics_every=t["metrics_every"],
        hidden=tuple(exp.model["hidden"]),
        activation=exp.model["activation"],
        model_seed=exp.model["seed"],
    )
