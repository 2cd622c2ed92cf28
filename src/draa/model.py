"""Bandit instance definition and the stochastic reward environment.

Arms and agents are 0-indexed throughout.  Rewards are bounded in [0, 1]
and drawn i.i.d. per (round, agent, arm) from either a Bernoulli law or
a Beta law with the requested mean, via the counter-based environment
stream, so sampling is stateless given (seed, t).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

REWARD_MODELS = ("bernoulli", "beta")

#: resolution of the precomputed Beta inverse-CDF tables
_BETA_TABLE_SIZE = 4097

#: means closer than this are considered tied when picking local best arms
_TIE_EPS = 1e-12


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
    _beta_table: np.ndarray = field(default=None, repr=False)

    def local_gaps(self, ell: int) -> np.ndarray:
        """True gaps mu_{k*_ell} - mu_k over the agent's local arms."""
        arms = np.asarray(self.arm_sets[ell])
        return self.means[self.best_arms[ell]] - self.means[arms]

    @property
    def min_positive_gap(self) -> float:
        gaps = np.concatenate([self.local_gaps(ell) for ell in range(self.num_agents)])
        positive = gaps[gaps > 0]
        if positive.size == 0:
            raise ConfigError("all local gaps are zero; min positive gap undefined")
        return float(positive.min())

    def beta_table(self) -> np.ndarray:
        """Per-arm inverse-CDF lookup tables, built lazily (Beta model only)."""
        if self._beta_table is None:
            from scipy.stats import beta as beta_dist

            nu = self.beta_concentration
            grid = np.linspace(0.0, 1.0, _BETA_TABLE_SIZE)
            table = np.empty((self.num_arms, _BETA_TABLE_SIZE))
            for k, mu in enumerate(self.means):
                if mu <= 0.0 or mu >= 1.0:
                    table[k] = mu  # degenerate: constant reward
                else:
                    table[k] = beta_dist.ppf(grid, mu * nu, (1.0 - mu) * nu)
            table[:, 0] = np.nan_to_num(table[:, 0], nan=0.0)
            table[:, -1] = np.where(np.isnan(table[:, -1]), 1.0, table[:, -1])
            table.flags.writeable = False
            object.__setattr__(self, "_beta_table", table)
        return self._beta_table


def build_instance(config: dict) -> BanditInstance:
    """Validate an instance descriptor and compute all derived fields.

    The descriptor carries ``num_arms``, ``num_agents``, ``arm_sets``
    (one arm list per agent), ``means`` and optionally ``reward_model``
    / ``beta_concentration``.
    """
    try:
        num_arms = int(config["num_arms"])
        num_agents = int(config["num_agents"])
        arm_sets_raw = config["arm_sets"]
        means_raw = config["means"]
    except KeyError as exc:
        raise ConfigError(f"instance descriptor missing field {exc}") from exc

    if num_arms < 1 or num_agents < 1:
        raise ConfigError("num_arms and num_agents must be positive")
    if len(arm_sets_raw) != num_agents:
        raise ConfigError(f"expected {num_agents} arm-sets, got {len(arm_sets_raw)}")
    if len(means_raw) != num_arms:
        raise ConfigError(f"expected {num_arms} means, got {len(means_raw)}")

    means = np.asarray(means_raw, dtype=np.float64)
    if np.any(means < 0.0) or np.any(means > 1.0):
        raise ConfigError("mean outside [0,1]")

    reward_model = str(config.get("reward_model", "bernoulli"))
    if reward_model not in REWARD_MODELS:
        raise ConfigError(f"unknown reward model {reward_model!r}")

    arm_sets = []
    coverage = np.zeros(num_arms, dtype=np.int64)
    for ell, raw in enumerate(arm_sets_raw):
        arms = sorted(int(k) for k in raw)
        if not arms:
            raise ConfigError(f"empty arm-set for agent {ell}")
        if len(set(arms)) != len(arms):
            raise ConfigError(f"duplicate arms in arm-set of agent {ell}")
        if arms[0] < 0 or arms[-1] >= num_arms:
            raise ConfigError(f"arm index out of range in arm-set of agent {ell}")
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

    means.flags.writeable = False
    coverage.flags.writeable = False
    return BanditInstance(
        num_arms=num_arms,
        num_agents=num_agents,
        arm_sets=tuple(arm_sets),
        means=means,
        reward_model=reward_model,
        beta_concentration=float(config.get("beta_concentration", 4.0)),
        agents_per_arm=coverage,
        l_min=int(coverage.min()),
        best_arms=tuple(best_arms),
    )


def reward_array(model: int, means: np.ndarray, arms, u, table: np.ndarray,
                 out: np.ndarray | None = None):
    """Map uniforms ``u`` to rewards of ``arms`` (broadcast together).

    ``model`` indexes :data:`REWARD_MODELS`.  Bernoulli: 1 if u < mu else
    0, so mu=0 / mu=1 are exactly degenerate.  Beta: linear interpolation
    into the (K, N) inverse-CDF ``table``.  The loop kernel's scalar
    ``_reward_nb`` applies the same formula, so traces agree bit for bit
    regardless of how the rewards were materialized.  ``out`` (float64,
    may be ``u`` itself) receives the rewards if given.
    """
    if REWARD_MODELS[model] == "bernoulli":
        if out is None:
            return (u < means[arms]).astype(np.float64)
        return np.less(u, means[arms], out=out)
    n = table.shape[1]
    pos = u * (n - 1)
    idx = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - idx
    lo = table[arms, idx]
    hi = table[arms, idx + 1]
    hi -= lo
    hi *= frac
    return np.add(lo, hi, out=out)

