"""Experiment configuration: YAML schema, validation and defaults.

A config file is a single human-editable YAML document with a
``schema_version`` field.  Example:

.. code-block:: yaml

    schema_version: 1
    instance:
      num_arms: 4
      num_agents: 2
      arm_sets: [[0, 1, 2], [1, 2, 3]]
      means: [0.9, 0.6, 0.5, 0.4]
    adversary:
      kind: budgeted_targeted
      target_arm: 0
      magnitude: 0.5
      budget: 200
    algorithm:
      estimator: weighted
      lam_scale: 64
      delta: 0.05
    horizon: 200000
    seeds: [1, 2, 3]
    output_dir: results
    num_checkpoints: 64
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import yaml

from .adversary import Adversary, make_adversary
from .errors import ConfigError
from .model import BanditInstance, build_instance

SCHEMA_VERSION = 1

#: libyaml's parser when PyYAML was built with it; both loaders share the
#: pure-Python resolver and constructor, so they build equal dicts
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_LEVEL_KEYS = {
    "schema_version", "instance", "adversary", "algorithm", "horizon",
    "seeds", "num_seeds", "seed_base", "output_dir", "num_checkpoints",
    "name",
}


@dataclass
class ExperimentConfig:
    """Validated experiment description, ready to run."""

    name: str
    instance: BanditInstance
    adversary: Adversary
    estimator: str
    lam_scale: float
    delta: float
    horizon: int
    seeds: tuple[int, ...]
    output_dir: str
    num_checkpoints: int
    raw: dict = field(repr=False, default_factory=dict)


def load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return data


def validate_config(data: dict) -> ExperimentConfig:
    """Check the schema and build the validated config object."""
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    if "instance" not in data:
        raise ConfigError("config missing 'instance' section")
    instance = build_instance(data["instance"])

    algo = data.get("algorithm") or {}
    estimator = str(algo.get("estimator", "weighted"))
    if estimator not in ("weighted", "naive"):
        raise ConfigError(f"estimator must be 'weighted' or 'naive', got {estimator!r}")
    delta = float(algo.get("delta", 0.05))
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must lie in (0,1), got {delta}")
    lam_scale = float(algo.get("lam_scale", 2.0 ** 24))
    if lam_scale < 16:
        raise ConfigError(f"lam_scale must be >= 16, got {lam_scale}")

    try:
        horizon = int(data["horizon"])
    except KeyError as exc:
        raise ConfigError("config missing 'horizon'") from exc
    if horizon < 3:
        raise ConfigError("horizon must be >= 3")

    if "seeds" in data:
        seeds = tuple(int(s) for s in data["seeds"])
    else:
        count = int(data.get("num_seeds", 0))
        base = int(data.get("seed_base", 0))
        seeds = tuple(range(base, base + count))
    if not seeds:
        raise ConfigError("config must list at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    num_checkpoints = int(data.get("num_checkpoints", 64))
    if num_checkpoints < 1:
        raise ConfigError("num_checkpoints must be >= 1")

    adversary = data.get("adversary")
    if adversary is not None and not isinstance(adversary, dict):
        raise ConfigError("'adversary' must be a mapping or omitted")
    adversary = make_adversary(adversary)
    adversary.check(instance)

    return ExperimentConfig(
        name=str(data.get("name", "experiment")),
        instance=instance,
        adversary=adversary,
        estimator=estimator,
        lam_scale=lam_scale,
        delta=delta,
        horizon=horizon,
        seeds=seeds,
        output_dir=str(data.get("output_dir", "results")),
        num_checkpoints=num_checkpoints,
        raw=copy.deepcopy(data),
    )


def load_config(path) -> ExperimentConfig:
    return validate_config(load_yaml(path))


def _set_path(data: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = data
    for p in parts[:-1]:
        if not isinstance(node.get(p), dict):
            node[p] = {}
        node = node[p]
    node[parts[-1]] = value


@dataclass
class SweepSpec:
    """A base config crossed with one or two finite axes."""

    base: dict
    axes: list[dict]  # each: {"field": dotted path, "values": [...]}
    cap: int


def validate_sweep(data: dict) -> SweepSpec:
    if "base" not in data or not isinstance(data["base"], dict):
        raise ConfigError("sweep spec needs a 'base' config mapping")
    axes = data.get("axes")
    if not axes or not isinstance(axes, list):
        raise ConfigError("sweep spec needs a nonempty 'axes' list")
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")
    for ax in axes:
        if "field" not in ax or "values" not in ax or not ax["values"]:
            raise ConfigError("each axis needs 'field' and nonempty 'values'")
    cap = int(data.get("cap", 64))
    n_points = 1
    for ax in axes:
        n_points *= len(ax["values"])
    if n_points > cap:
        raise ConfigError(f"sweep has {n_points} points, exceeding cap {cap}")
    validate_config(data["base"])  # fail fast on a broken base
    return SweepSpec(base=data["base"], axes=list(axes), cap=cap)


def load_sweep(path) -> SweepSpec:
    return validate_sweep(load_yaml(path))


def sweep_points(spec: SweepSpec):
    """Yield (point label dict, validated config) per axis combination."""
    value_lists = [ax["values"] for ax in spec.axes]
    fields = [ax["field"] for ax in spec.axes]
    for combo in itertools.product(*value_lists):
        data = copy.deepcopy(spec.base)
        label = {}
        for dotted, value in zip(fields, combo):
            _set_path(data, dotted, value)
            label[dotted] = value
        yield label, validate_config(data)
