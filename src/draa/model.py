"""Bandit instance definition and the stochastic reward environment.

Arms and agents are 0-indexed throughout.  Rewards are bounded in [0, 1]
and drawn i.i.d. per (round, agent, arm) from either a Bernoulli law or
a Beta law with the requested mean, via the counter-based environment
stream, so sampling is stateless given (seed, t).  A Beta arm's rewards
come from a table of its inverse CDF (:mod:`draa.beta_tables`), which a
process loads from the user's cache or builds with scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, checked, checked_as, checked_keys

REWARD_MODELS = ("bernoulli", "beta")

#: means closer than this are considered tied when picking local best arms
_TIE_EPS = 1e-12

#: largest accepted ``beta_concentration``: scipy's ``betaincinv`` slows
#: from about 1e12 on and returns NaN near 1e18; at 1e6 a Beta reward's
#: standard deviation is already below 5e-4
_MAX_BETA_CONCENTRATION = 1e6


@dataclass
class BanditInstance:
    """A validated multi-agent bandit problem with derived quantities.

    Treat instances as immutable after :func:`build_instance`; the arrays
    are marked read-only so they can be shared across concurrent runs.
    """

    num_arms: int
    num_agents: int
    arm_sets: tuple[tuple[int, ...], ...]
    means: np.ndarray
    reward_model: str = "bernoulli"
    beta_concentration: float = 4.0

    # derived, filled by build_instance
    agents_per_arm: np.ndarray = field(default=None, repr=False)  # L_k
    l_min: int = 0
    best_arms: tuple[int, ...] = ()  # k*_ell per agent
    #: (L, Kmax) int64: row ell is K_ell ascending, padded with -1
    local_arms: np.ndarray = field(default=None, repr=False)
    _beta_table: np.ndarray = field(default=None, repr=False)

    def beta_table(self) -> np.ndarray:
        """Per-arm inverse-CDF lookup tables, made once per instance (Beta
        model only): loaded from the user's cache when a valid file is
        there, else built with scipy and stored there
        (:func:`draa.beta_tables.beta_table`)."""
        if self._beta_table is None:
            # imported here: a Bernoulli run neither loads nor compiles it
            from .beta_tables import beta_table

            table = beta_table(self.means, self.beta_concentration)
            table.flags.writeable = False
            object.__setattr__(self, "_beta_table", table)
        return self._beta_table


def build_instance(config: dict) -> BanditInstance:
    """Validate an instance descriptor and compute all derived fields.

    The descriptor carries ``num_arms``, ``num_agents``, ``arm_sets``
    (one arm list per agent), ``means`` and optionally ``reward_model``
    / ``beta_concentration``.
    """
    checked_keys("instance", config, ("num_arms", "num_agents", "arm_sets",
                                      "means", "reward_model",
                                      "beta_concentration"))
    num_arms = checked("num_arms", config.get("num_arms"), int, 0, strict=True)
    num_agents = checked("num_agents", config.get("num_agents"), int, 0,
                         strict=True)
    arm_sets_raw = checked_as("arm_sets", config.get("arm_sets"), list)
    means_raw = checked_as("means", config.get("means"), list)

    if len(arm_sets_raw) != num_agents:
        raise ConfigError(f"expected {num_agents} arm-sets, got {len(arm_sets_raw)}")
    if len(means_raw) != num_arms:
        raise ConfigError(f"expected {num_arms} means, got {len(means_raw)}")

    means = np.array([checked(f"arm {k} mean", mu, float, 0, 1)
                      for k, mu in enumerate(means_raw)])

    reward_model = checked_as("reward_model",
                              config.get("reward_model", "bernoulli"), str)
    if reward_model not in REWARD_MODELS:
        raise ConfigError(f"unknown reward model {reward_model!r}")

    arm_sets = []
    coverage = np.zeros(num_arms, dtype=np.int64)
    for ell, raw in enumerate(arm_sets_raw):
        arms = checked_as(f"arm-set of agent {ell}", raw, list)
        if (set(map(type, arms)) != {int} or min(arms) < 0
                or max(arms) >= num_arms):
            # read one at a time: the first bad arm names itself
            arms = [checked(f"agent {ell} arm", k, int, 0, num_arms - 1)
                    for k in arms]
        arms = sorted(arms)
        if not arms:
            raise ConfigError(f"empty arm-set for agent {ell}")
        if len(set(arms)) != len(arms):
            raise ConfigError(f"duplicate arms in arm-set of agent {ell}")
        coverage[arms] += 1
        arm_sets.append(tuple(arms))

    if np.any(coverage == 0):
        uncovered = int(np.flatnonzero(coverage == 0)[0])
        raise ConfigError(f"arm {uncovered} covered by no agent")

    # local best arm: highest mean, ties (within 1e-12) to the lowest index
    best_arms = []
    for arms in arm_sets:
        local_means = means[list(arms)]
        best_arms.append(arms[int(np.argmax(local_means > local_means.max() - _TIE_EPS))])

    nu = checked("beta_concentration", config.get("beta_concentration", 4.0),
                 float, 0, _MAX_BETA_CONCENTRATION, strict=True)
    if reward_model == "beta":
        tiny = np.finfo(float).tiny  # betaincinv is inexact below it
        for k, mu in enumerate(means.tolist()):
            if 0 < mu < 1 and min(mu, 1 - mu) * nu < tiny:
                raise ConfigError(f"arm {k} mean {mu!r} at beta_concentration "
                                  f"{nu} gives a Beta shape parameter below "
                                  f"{tiny:g}")

    local_arms = np.full((num_agents, max(map(len, arm_sets))), -1,
                         dtype=np.int64)
    for ell, arms in enumerate(arm_sets):
        local_arms[ell, :len(arms)] = arms
    for array in (means, coverage, local_arms):
        array.flags.writeable = False
    return BanditInstance(
        num_arms=num_arms,
        num_agents=num_agents,
        arm_sets=tuple(arm_sets),
        means=means,
        reward_model=reward_model,
        beta_concentration=nu,
        agents_per_arm=coverage,
        l_min=int(coverage.min()),
        best_arms=tuple(best_arms),
        local_arms=local_arms,
    )


def reward_array(model: int, means: np.ndarray, arms, u, table: np.ndarray,
                 out: np.ndarray | None = None, diff: np.ndarray | None = None,
                 scratch: tuple | None = None):
    """Map uniforms ``u`` to rewards of ``arms`` (broadcast together).

    ``model`` indexes :data:`REWARD_MODELS`.  Bernoulli: 1 if u < mu else
    0, so mu=0 / mu=1 are exactly degenerate.  Beta: linear interpolation
    into the (K, N) inverse-CDF ``table``: the flat gather ``lo`` at
    ``arms * N + idx``, plus ``frac`` times the gather at the same place
    of ``diff`` (:func:`beta_diffs` of the table, made here if not given),
    whose entry is ``hi - lo``.  The loop kernel's scalar ``_reward_nb``
    applies the same formula, so traces agree bit for bit regardless of
    how the rewards were materialized.  ``out`` (float64, may be ``u``
    itself) receives the rewards if given.  ``scratch``, a flat int64 and
    a flat float64 array of at least ``u.size`` entries each, holds the
    temporaries: with ``out`` and ``scratch`` given, nothing of u's size
    is allocated.
    """
    index, gathered = ((np.empty(u.size, np.int64), np.empty(u.size))
                       if scratch is None else scratch)
    if REWARD_MODELS[model] == "bernoulli":
        arms = np.asarray(arms)
        mu = means.take(arms, out=_carve(gathered, arms.shape), mode="wrap")
        if out is None:
            return (u < mu).astype(np.float64)
        return np.less(u, mu, out=out)
    if diff is None:
        diff = beta_diffs(table)
    n = table.shape[1]
    frac = np.multiply(u, n - 1, out=out)  # the position, then its fraction
    whole = _carve(gathered, u.shape)
    np.floor(frac, out=whole)  # int() for u >= 0, but faster
    np.minimum(whole, n - 2, out=whole)
    frac -= whole
    idx = _carve(index, u.shape)
    np.copyto(idx, whole, casting="unsafe")
    # arms * n, in as many entries as ``arms`` has; whole is spent
    idx += np.multiply(arms, n, out=_carve(gathered.view(np.int64),
                                           np.shape(arms)))
    frac *= diff.take(idx, out=whole, mode="wrap")
    return np.add(table.take(idx, out=whole, mode="wrap"), frac, out=frac)


def beta_diffs(table: np.ndarray) -> np.ndarray:
    """The (K, N) steps ``table[:, i + 1] - table[:, i]`` of an inverse-CDF
    table, 0 in the last column, which no lookup reads."""
    diff = np.zeros_like(table)
    np.subtract(table[:, 1:], table[:, :-1], out=diff[:, :-1])
    return diff


def _carve(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading entries of a flat ``buffer`` as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)
