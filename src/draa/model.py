"""Bandit instance definition and the stochastic reward environment.

Arms and agents are 0-indexed throughout.  Rewards are bounded in [0, 1]
and drawn i.i.d. per (round, agent, arm) from either a Bernoulli law or
a Beta law with the requested mean, via the counter-based environment
stream, so sampling is stateless given (seed, t).  A Beta arm's rewards
come from a table of its inverse CDF, the regularized incomplete-beta
inverse ``scipy.special.betaincinv``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, checked, checked_as, checked_keys

REWARD_MODELS = ("bernoulli", "beta")

#: resolution of the precomputed Beta inverse-CDF tables
_BETA_TABLE_SIZE = 4097

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
        """Per-arm inverse-CDF lookup tables, built lazily (Beta model only)."""
        if self._beta_table is None:
            from scipy.special import betaincinv

            nu = self.beta_concentration
            grid = np.linspace(0.0, 1.0, _BETA_TABLE_SIZE)
            table = np.empty((self.num_arms, _BETA_TABLE_SIZE))
            for k, mu in enumerate(self.means):
                if mu <= 0.0 or mu >= 1.0:
                    table[k] = mu  # degenerate: constant reward
                else:
                    table[k] = betaincinv(mu * nu, (1.0 - mu) * nu, grid)
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

    reward_model = str(config.get("reward_model", "bernoulli"))
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
                 out: np.ndarray | None = None):
    """Map uniforms ``u`` to rewards of ``arms`` (broadcast together).

    ``model`` indexes :data:`REWARD_MODELS`.  Bernoulli: 1 if u < mu else
    0, so mu=0 / mu=1 are exactly degenerate.  Beta: linear interpolation
    into the (K, N) inverse-CDF ``table`` between the flat gathers at
    ``arms * N + idx`` and one past it.  The loop kernel's scalar
    ``_reward_nb`` applies the same formula, so traces agree bit for bit
    regardless of how the rewards were materialized.  ``out`` (float64,
    may be ``u`` itself) receives the rewards if given.
    """
    if REWARD_MODELS[model] == "bernoulli":
        if out is None:
            return (u < means[arms]).astype(np.float64)
        return np.less(u, means[arms], out=out)
    n = table.shape[1]
    frac = np.multiply(u, n - 1, out=out)  # the position, then its fraction
    whole = np.minimum(np.floor(frac), n - 2)  # int() for u >= 0, but faster
    frac -= whole
    idx = whole.astype(np.int64) + arms * n
    lo = table.take(idx)
    hi = table.take(idx + 1)
    hi -= lo
    hi *= frac
    return np.add(lo, hi, out=out)
