"""Experiment configuration: YAML schema, validation and defaults.

:func:`validate_config` checks a config once, when it loads, through the
readers of :mod:`draa.errors`; the runner gets the built config.

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
import math
import re
from dataclasses import dataclass, field

import yaml

from .adversary import Adversary, make_adversary
from .agents import ESTIMATORS, exploration_constant
from .errors import (ConfigError, checked, checked_as, checked_entry,
                     checked_keys)
from .model import BanditInstance, build_instance

SCHEMA_VERSION = 1

_INT_TAG = "tag:yaml.org,2002:int"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_DECIMAL = re.compile("0|[1-9][0-9]*")
_MAX_DEPTH = 64  # a valid config nests at most 7 levels


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser when PyYAML was built with it; both parsers share
    the pure-Python resolver and constructor, so they build equal dicts.
    A plain decimal integer is tagged before the resolver's regex table
    runs, and built directly in a sequence (most of ``arm_sets``); every
    other node goes through the resolver and the constructor.  A
    mapping that repeats one of its own keys is an error, and so is a
    node more than ``_MAX_DEPTH`` deep, before a composer's recursion
    exhausts the stack."""

    def __init__(self, stream):
        super().__init__(stream)
        self.checked_mappings = set()  # nodes whose own keys were compared
        self.depth = 0  # of the node being composed

    def _descend(self, current_node, current_index):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise yaml.composer.ComposerError(
                None, None, f"nested more than {_MAX_DEPTH} levels deep")

    def _ascend(self):
        self.depth -= 1

    # both composers call these around each node; with no path resolvers
    # registered the base methods do nothing
    descend_resolver, ascend_resolver = _descend, _ascend

    def flatten_mapping(self, node):
        # A ``<<`` merge may repeat a key on purpose, and a complex key is
        # not compared.  Each node is checked once, on its first flatten,
        # which is the last time its pairs are its own.
        if node not in self.checked_mappings:
            self.checked_mappings.add(node)
            keys = set()
            for key_node, _ in node.value:
                if (type(key_node) is yaml.ScalarNode
                        and key_node.tag != _MERGE_TAG):
                    key = self.construct_object(key_node)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}",
                            key_node.start_mark)
                    keys.add(key)
        super().flatten_mapping(node)

    def resolve(self, kind, value, implicit):
        # no YAML 1.1 pattern before int's matches a plain decimal
        if kind is yaml.ScalarNode and implicit[0] and _DECIMAL.fullmatch(
                value):
            return _INT_TAG
        return super().resolve(kind, value, implicit)


def _construct_sequence(loader, node):
    items = []
    yield items  # first, as SafeConstructor does: an item may alias it
    items.extend(
        int(child.value)
        if child.tag == _INT_TAG and type(child.value) is str
        and _DECIMAL.fullmatch(child.value)
        else loader.construct_object(child) for child in node.value)


_Loader.add_constructor("tag:yaml.org,2002:seq", _construct_sequence)
YAML_LOADER = _Loader

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not read {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: an integer past Python's digit limit
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return data


def validate_config(data: dict) -> ExperimentConfig:
    """Check the schema and build the validated config object.

    ``raw`` is ``data`` itself, uncopied, so callers must not edit it
    later: ``load_yaml`` returns a fresh dict and :func:`validate_sweep`
    edits a copy."""
    checked_keys("top-level config", data, _TOP_LEVEL_KEYS)
    checked("schema_version", data.get("schema_version"), int,
            SCHEMA_VERSION, SCHEMA_VERSION)
    name = checked_entry("name", data.get("name", "experiment"))
    output_dir = checked_as("output_dir", data.get("output_dir", "results"),
                            str)
    if "\0" in output_dir:
        raise ConfigError(f"output_dir must not hold NUL, got {output_dir!r}")

    instance = build_instance(
        checked_as("'instance'", data.get("instance"), dict))

    algo = checked_as("'algorithm'", data.get("algorithm") or {}, dict)
    checked_keys("algorithm", algo, ("estimator", "delta", "lam_scale"))
    estimator = checked_as("estimator", algo.get("estimator", "weighted"),
                           str)
    if estimator not in ESTIMATORS:
        names = " or ".join(map(repr, ESTIMATORS))
        raise ConfigError(f"estimator must be {names}, got {estimator!r}")
    delta = checked("delta", algo.get("delta", 0.05), float, 0, 1, strict=True)
    lam_scale = checked("lam_scale", algo.get("lam_scale", 2**24), float, 16)

    horizon = checked("horizon", data.get("horizon"), int, 3, 2**53 - 1)
    exploration_constant(instance.num_arms, instance.num_agents, horizon,
                         delta, lam_scale)  # raises if it overflows

    if "seeds" in data:  # each seed is one 64-bit hash key
        if "num_seeds" in data or "seed_base" in data:
            raise ConfigError(
                "give seeds, or num_seeds and seed_base, not both")
        seeds = tuple(checked("seed", s, int, 0, 2**64 - 1)
                      for s in checked_as("seeds", data["seeds"], list))
    else:
        count = checked("num_seeds", data.get("num_seeds", 0), int, 0, 10**6)
        base = checked("seed_base", data.get("seed_base", 0), int, 0,
                       2**64 - count)
        seeds = tuple(range(base, base + count))
    if not seeds:
        raise ConfigError("config must list at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    num_checkpoints = checked("num_checkpoints", data.get(
        "num_checkpoints", min(64, horizon)), int, 1, horizon)

    adversary = make_adversary(
        checked_as("'adversary'", data.get("adversary") or {}, dict))
    adversary.check(instance)

    return ExperimentConfig(
        name=name,
        instance=instance,
        adversary=adversary,
        estimator=estimator,
        lam_scale=lam_scale,
        delta=delta,
        horizon=horizon,
        seeds=seeds,
        output_dir=output_dir,
        num_checkpoints=num_checkpoints,
        raw=data,
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
    """A base config crossed with one or two finite axes, every point
    built and validated."""

    base: ExperimentConfig
    points: list[tuple[dict, ExperimentConfig]]  # (label, config) per point


def validate_sweep(data: dict) -> SweepSpec:
    """Check the spec and build every point's config, so that any bad
    point fails before a sweep writes anything."""
    checked_keys("sweep spec", data, ("base", "axes", "cap"))
    if not isinstance(data.get("base"), dict):
        raise ConfigError("sweep spec needs a 'base' config mapping")
    axes = [checked_as("each sweep axis", ax, dict)
            for ax in checked_as("sweep spec 'axes'", data.get("axes"), list)]
    if not 1 <= len(axes) <= 2:
        raise ConfigError("a sweep needs one or two axes")
    for ax in axes:
        checked_keys("sweep axis", ax, ("field", "values"))
        if not (isinstance(ax.get("field"), str) and ax.get("values")
                and isinstance(ax["values"], list)):
            raise ConfigError("each axis needs 'field' and nonempty 'values'")
    fields = [ax["field"] for ax in axes]
    # a field sorts before every field inside it
    if len(fields) == 2 and f"{max(fields)}.".startswith(f"{min(fields)}."):
        raise ConfigError(f"sweep axes {fields[0]!r} and {fields[1]!r} "
                          "overlap: one sets the other's field or a part "
                          "of it")
    cap = checked("cap", data.get("cap", 64), int, 0, strict=True)
    n_points = math.prod(len(ax["values"]) for ax in axes)
    if n_points > cap:
        raise ConfigError(f"sweep has {n_points} points, exceeding cap {cap}")
    base = validate_config(data["base"])
    checked_entry("sweep CSV name", f"{base.name}_sweep.csv")
    points = {}  # (label, config) by point name
    for combo in itertools.product(*(ax["values"] for ax in axes)):
        label = dict(zip(fields, combo))
        point = copy.deepcopy(base.raw)
        for dotted, value in label.items():
            _set_path(point, dotted, value)
        point["name"] = checked_entry("sweep point name", "_".join(
            [base.name] + [f"{dotted.split('.')[-1]}={value}"
                           for dotted, value in label.items()]))
        config = validate_config(point)
        if config.name in points:
            raise ConfigError(f"sweep points share the name {config.name!r}")
        points[config.name] = (label, config)
    return SweepSpec(base=base, points=list(points.values()))


def load_sweep(path) -> SweepSpec:
    return validate_sweep(load_yaml(path))
