"""Experiment configuration: one strict JSON document per run.

Unknown keys anywhere in the document are errors so that a typo in a
hyperparameter name cannot silently fall back to a default, and every
key and value is checked when the document is parsed, before any data
is loaded or any run starts.  Seeds for the data/noise/split/train/model
stages derive from one master seed unless a stage pins its own.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import data as data_mod
from . import losses, model
from . import theory as theory_mod
from .errors import ConfigError, DomainError
from .meta import TrainConfig, _check_batch, _RangeError


def _check_keys(doc, allowed, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"'{path}' must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")


_IS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: (isinstance(v, int) and not isinstance(v, bool)  # finite: json reads Infinity, NaN
                           or isinstance(v, float) and math.isfinite(v)),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),  # of hyperparameter values, checked by build_hyper
}
_IS["a list of integers"] = lambda v: isinstance(v, list) and all(map(_IS["an integer"], v))
_IS["a list of numbers"] = lambda v: isinstance(v, list) and all(map(_IS["a number"], v))
_IS["a list of strings"] = lambda v: isinstance(v, list) and all(map(_IS["a string"], v))
_IS["a list of lists of integers"] = (
    lambda v: isinstance(v, list) and all(map(_IS["a list of integers"], v))
)

# the type of each setting, hyperparameter and manifest field; a key has one
# type in every section
_TYPES = {key: what for what, keys in (
    ("an integer", "seed n classes dim meta_size batch_n batch_m iters metrics_every"),
    ("a number", "spread eta test_fraction rce_a alpha beta momentum decay_factor delta"),
    ("a number", "q gamma1 gamma2 t1 t2 lam d"),
    ("a list of integers", "decay_steps hidden world_labels"),
    ("a list of lists of integers", "superclasses"),
    ("a list of numbers", "etas"),
    ("a list", "hyper_final"),
    ("a list of strings", "hyper_names"),
    ("a string", "csv generator type variant activation"),
    ("true or false", "exact_count weights losscurve"),
) for key in keys.split()}


def _named(keys, check, *args):
    """``check(*args)``, its error raised as a ``ConfigError`` that names ``keys``: one key, or a tuple."""
    try:
        return check(*args)
    except (ConfigError, DomainError) as exc:
        named = " and ".join(f"'{key}'" for key in ((keys,) if isinstance(keys, str) else keys))
        raise ConfigError(f"{named}: {exc}") from None


eta_key = "eta={:g}".format  # the key of eta's report in verify-bounds


def _check_types(section, path):
    for key, value in section.items():
        if key in _TYPES and not _IS[_TYPES[key]](value):
            raise ConfigError(f"'{path}.{key}' must be {_TYPES[key]}, got {value!r}")


# allowed keys and defaults of each section; None marks a key without a default
_DEFAULTS = {
    "dataset": dict.fromkeys(("generator", "n", "classes", "dim", "spread", "csv")),
    "noise": {"type": "none", "eta": 0.0, "superclasses": None, "exact_count": False},
    "split": {"meta_size": 30, "test_fraction": 1000},
    "loss": {"variant": "gce", "init": {}, "rce_a": losses.HyperParams.rce_a},
    "train": {
        "alpha": 0.3, "beta": 0.3, "batch_n": 100, "batch_m": 30, "iters": 1000,
        "momentum": 0.0, "decay_steps": [], "decay_factor": 0.1, "metrics_every": 50,
    },
    "model": {"hidden": [16], "activation": "tanh"},
    "emit": {"weights": None, "losscurve": True},
    "ablation": {"grid": {}},
    "theory": {"classes": 3, "etas": [0.1, 0.3, 0.6], "delta": 0.02, "world_labels": None,
               "variant": "polysoft", "hyper": {}},
}
# the sections with a stage seed, and its offset from the master seed
_SEED_OFFSETS = {"dataset": 1, "noise": 2, "split": 3, "train": 4, "model": 5}


def _section(doc, name, master, keep_pinned):
    """Section ``name`` of ``doc`` over its defaults, type-checked.

    A stage's seed is ``master`` plus its offset, unless the section pins
    its own and ``keep_pinned``.
    """
    given = doc.get(name, {})
    seeded, pinned = name in _SEED_OFFSETS, keep_pinned and "seed" in given
    _check_keys(given, set(_DEFAULTS[name]) | ({"seed"} if seeded else set()), name)
    section = {k: v for k, v in copy.deepcopy(_DEFAULTS[name]).items() if v is not None}
    section.update(given)
    if seeded and not pinned:
        section["seed"] = master + _SEED_OFFSETS[name]
    _check_types(section, name)
    if seeded and section["seed"] < 0:  # numpy seeds must be non-negative
        key = f"{name}.seed" if pinned else "seed" if keep_pinned else "--seed"
        raise ConfigError(f"'{key}' gives the {name} stage seed {section['seed']}; stage seeds must be >= 0")
    return section


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
    ablation: dict
    theory: dict


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def load_config(path, seed_override=None):
    return parse_config(_read_json(path, "config file"), seed_override)


def build_hyper(variant, fields, num_classes, path, rce_a=losses.HyperParams.rce_a):
    """The one builder: ``fields`` over ``losses.default_hyper``, keys and values checked."""
    try:
        base = losses.default_hyper(variant, num_classes)
        _check_keys(fields, base.learnable_names, path)
        _check_types(fields, path)
        return replace(base, rce_a=rce_a, **fields)
    except DomainError as exc:
        raise ConfigError(f"'{path}': {exc}")


def parse_config(doc, seed_override=None):
    _check_keys(doc, {"seed", *_DEFAULTS}, "$")
    master = seed_override if seed_override is not None else doc.get("seed", 0)
    if not _IS["an integer"](master):
        raise ConfigError(f"'seed' must be an integer, got {master!r}")
    sections = {name: _section(doc, name, master, seed_override is None) for name in _DEFAULTS}
    dataset, noise, loss, theory = (sections[k] for k in ("dataset", "noise", "loss", "theory"))
    if "csv" in dataset:
        for key in ("generator", "n", "classes", "dim", "spread"):
            if key in dataset:
                raise ConfigError(f"'dataset.{key}': a CSV dataset takes no generator settings")
    else:
        dataset.setdefault("generator", "blobs")
        if dataset["generator"] != "blobs":
            raise ConfigError(f"unknown generator {dataset['generator']!r}")
        dataset.setdefault("n", 4030)
        dataset.setdefault("classes", 3)
        dataset.setdefault("dim", 2)
        dataset.setdefault("spread", 0.4)
        _named(("dataset.n", "dataset.classes", "dataset.dim", "dataset.spread"), data_mod._check_blobs,
               dataset["n"], dataset["classes"], dataset["dim"], dataset["spread"])

    if noise["type"] not in ("none", "symmetric", "asymmetric", "hierarchical"):
        raise ConfigError(f"unknown noise type {noise['type']!r}")
    if noise["type"] == "hierarchical" and "superclasses" not in noise:
        raise ConfigError("hierarchical noise needs 'noise.superclasses'")
    _named("noise.eta", data_mod._check_eta, noise["eta"])
    if noise["type"] == "asymmetric" and "classes" in dataset:
        _named("noise.type", data_mod._check_asymmetric_classes, dataset["classes"])
    if noise["type"] == "hierarchical" and "classes" in dataset:
        _named("noise.superclasses", data_mod._check_superclasses, noise["superclasses"],
               dataset["classes"], noise["eta"])

    if loss["variant"] not in losses.VARIANTS:
        raise ConfigError(f"unknown loss variant {loss['variant']!r}")
    if sections["emit"].setdefault("weights", loss["variant"] == "polysoft") and loss["variant"] != "polysoft":
        raise ConfigError(f"'emit.weights': sample weights are defined for the polysoft variant, "
                          f"not {loss['variant']!r}")
    exp = ExperimentConfig(raw=doc, seed=master, **sections)

    # the run's own builders check loss.init and the train and model ranges.
    # A CSV dataset's size, dimension and class count are known only once it
    # is loaded; only lam's default 3 log(c) depends on c, in its domain for any c >= 2
    try:
        train = build_train_config(exp, 2)
    except _RangeError as exc:
        key = "iters" if exc.field == "max_iters" else exc.field
        raise ConfigError(f"'train.{key}': {exc}") from None
    _named("split.test_fraction", data_mod._test_size, sections["split"]["test_fraction"], 0)
    meta_size = sections["split"]["meta_size"]
    if meta_size < 1:
        raise ConfigError(f"'split.meta_size' must be >= 1, got {meta_size}")
    if train.adaptive:  # the meta set of any feasible split holds meta_size samples
        _named(("train.batch_m", "split.meta_size"), _check_batch, "batch_m", train.batch_m, meta_size, "meta")
    model._layout(exp.model["activation"], dataset.get("dim", 1), *exp.model["hidden"],
                  dataset.get("classes", 2))
    variant, init, rce_a = loss["variant"], loss["init"], loss["rce_a"]
    grid = sections["ablation"]["grid"]
    _check_keys(grid, losses.LEARNABLE[variant], "ablation.grid")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'ablation.grid.{key}' must be a non-empty list")
    for combo in itertools.product(*grid.values()):
        build_hyper(variant, {**init, **dict(zip(grid, combo))}, 2, "ablation.grid", rce_a)

    c = theory["classes"]
    _named(("theory.classes", "theory.delta"), theory_mod._grid_parts, c, theory["delta"])
    theory.setdefault("world_labels", [k % c for k in range(4)])
    for key in ("etas", "world_labels"):
        # an empty list would verify nothing
        if not theory[key]:
            raise ConfigError(f"'theory.{key}' must be a non-empty list")
    _named("theory.world_labels", theory_mod._check_labels, theory["world_labels"], c)
    keys = {}  # each eta's report key in verify-bounds
    for eta in theory["etas"]:
        _named("theory.etas", theory_mod._check_eta, eta, c)
        key = eta_key(eta)
        if key in keys:
            raise ConfigError(f"'theory.etas': etas {keys[key]} and {eta} share the report key {key!r}")
        keys[key] = eta
    theory["hyper"] = build_hyper(theory["variant"], theory["hyper"], theory["classes"],
                                  "theory.hyper")
    # at eta 0 only a variant without bound constants or a polysoft lam < log(c) fails
    key = "theory.hyper.lam" if theory["variant"] == "polysoft" else "theory.variant"
    _named(key, theory_mod.bound_constants, c, 0.0, theory["hyper"])
    return exp


def initial_hyper(exp, num_classes, **overrides):
    """``loss.init`` with ``overrides`` (one ablation grid point) over the defaults."""
    fields = {**exp.loss["init"], **overrides}
    return build_hyper(exp.loss["variant"], fields, num_classes, "loss.init", exp.loss["rce_a"])


def load_run_hyper(path):
    """The final hyperparameters and class count that a run's manifest.json records."""
    manifest = _read_json(path, "manifest")
    needed = ("variant", "classes", "hyper_names", "hyper_final")
    for key in needed:
        if key not in manifest:
            raise ConfigError(f"manifest {path} lacks '{key}'")
    _check_types({k: manifest[k] for k in (*needed, "rce_a") if k in manifest}, "manifest")
    if len(manifest["hyper_names"]) != len(manifest["hyper_final"]):
        raise ConfigError(f"manifest {path}: 'hyper_names' and 'hyper_final' differ in length")
    fields = dict(zip(manifest["hyper_names"], manifest["hyper_final"]))
    hyper = build_hyper(manifest["variant"], fields, manifest["classes"], "manifest.hyper_final",
                        manifest.get("rce_a", losses.HyperParams.rce_a))
    return hyper, manifest["classes"]


def load_dataset(exp):
    """The configured clean dataset: the CSV file, or generated blobs."""
    ds_cfg = exp.dataset
    if "csv" in ds_cfg:
        if not Path(ds_cfg["csv"]).exists():
            raise ConfigError(f"'dataset.csv': dataset csv not found: {ds_cfg['csv']}")
        return data_mod.load_csv(ds_cfg["csv"])
    return data_mod.gen_blobs(
        ds_cfg["n"], ds_cfg["classes"], ds_cfg["dim"], ds_cfg["spread"], ds_cfg["seed"]
    )


def build_datasets(exp):
    """Load, split, and corrupt per the config sections.

    A generated dataset's size is in the document, so its split and the
    training set's ``train.batch_n`` are checked before the data is made,
    a CSV dataset's once it is split; ``gen-data``, which does not split,
    never asks.
    """
    batch_n = ("train.batch_n", _check_batch, "batch_n", exp.train["batch_n"])
    if "n" in exp.dataset:
        n, meta_size = exp.dataset["n"], exp.split["meta_size"]
        test_size = _named(("split.meta_size", "split.test_fraction"), data_mod._split_test_size,
                           n, meta_size, exp.split["test_fraction"])
        _named(*batch_n, n - meta_size - test_size, "training")
    split = data_mod.split_meta(
        load_dataset(exp), exp.split["meta_size"], exp.split["test_fraction"], exp.split["seed"]
    )
    _named(*batch_n, len(split.train), "training")
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
        momentum=t["momentum"],
        decay_steps=tuple(t["decay_steps"]),
        decay_factor=t["decay_factor"],
        metrics_every=t["metrics_every"],
        hidden=tuple(exp.model["hidden"]),
        activation=exp.model["activation"],
        model_seed=exp.model["seed"],
    )
