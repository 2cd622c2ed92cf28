"""Independent reference computations used to cross-check the engine.

The oracles deliberately avoid the engine's code paths: expectations
are brute-forced by enumerating every joint pull assignment and reward
realization of a tiny epoch, and determinism is checked by literally
running a configuration twice and diffing the traces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError
from .model import BanditInstance
from .runner import RunResult, execute_run

#: refuse enumerations beyond this many (pulls x rewards) atoms
_MAX_ATOMS = 2_000_000


@dataclass
class OracleReport:
    """Outcome of one oracle-versus-engine comparison."""

    quantity: str
    oracle_value: float
    engine_value: float
    abs_deviation: float
    rel_deviation: float
    samples: int = 0
    note: str = ""

    @property
    def matches(self) -> bool:
        return self.note == ""


def exhaustive_estimator_mean(instance: BanditInstance, probabilities,
                              epoch_len: int, arm: int) -> float:
    """Exact E[weighted estimate of one arm] by brute-force enumeration.

    ``probabilities`` is one vector per agent over that agent's local
    arms.  Every joint pull assignment over (agents x rounds) slots and
    every Bernoulli outcome of the pulled entries is enumerated and
    weighted by its probability.  Bernoulli rewards only.
    """
    if instance.reward_model != "bernoulli":
        raise ConfigError("exhaustive oracle supports Bernoulli rewards only")
    L = instance.num_agents
    probs = [np.asarray(p, dtype=np.float64) for p in probabilities]
    holders = [ell for ell in range(L) if arm in instance.arm_sets[ell]]
    if not holders:
        raise ConfigError(f"arm {arm} is not held by any agent")
    n_slots = L * epoch_len
    n_pull_atoms = 1
    for ell in range(L):
        n_pull_atoms *= len(instance.arm_sets[ell]) ** epoch_len
    if n_pull_atoms * (2 ** n_slots) > _MAX_ATOMS:
        raise ConfigError("enumeration state space too large")

    slot_agents = [ell for ell in range(L) for _ in range(epoch_len)]
    choice_lists = [list(range(len(instance.arm_sets[ell])))
                    for ell in slot_agents]

    total = 0.0
    for assignment in itertools.product(*choice_lists):
        p_pulls = 1.0
        pulled_arms = []
        for slot, local_idx in enumerate(assignment):
            ell = slot_agents[slot]
            p_pulls *= probs[ell][local_idx]
            pulled_arms.append(instance.arm_sets[ell][local_idx])
        for outcome in itertools.product((0.0, 1.0), repeat=n_slots):
            p_rewards = 1.0
            sums = {ell: 0.0 for ell in holders}
            for slot, r in enumerate(outcome):
                mu = instance.means[pulled_arms[slot]]
                p_rewards *= mu if r == 1.0 else (1.0 - mu)
                if p_rewards == 0.0:
                    break
                ell = slot_agents[slot]
                if ell in sums and pulled_arms[slot] == arm:
                    sums[ell] += r
            if p_rewards == 0.0:
                continue
            est = sum(
                sums[ell] / probs[ell][instance.arm_sets[ell].index(arm)]
                for ell in holders
            ) / (len(holders) * epoch_len)
            total += p_pulls * p_rewards * est
    return total


def replay_check(config: ExperimentConfig, reference: RunResult,
                 backend=None) -> OracleReport:
    """Rerun ``reference.seed`` and diff pulls bit for bit.

    ``reference`` and the replay are both the traced
    :func:`draa.runner.execute_run` of the seed, the run ``draa run``
    executes.  The report's note is empty on a byte-identical replay.
    """
    replay = execute_run(config, reference.seed, backend, trace=True)
    report = compare(f"replay(seed={reference.seed})", reference.total_regret,
                     replay.total_regret, 0.0, samples=reference.pulls.size)
    if not (np.array_equal(reference.pulls, replay.pulls)
            and np.array_equal(reference.observed, replay.observed)
            and report.abs_deviation == 0.0):
        report.note = "trace mismatch: determinism regression"
    return report


def compare(quantity: str, oracle_value: float, engine_value: float,
            tol: float, samples: int = 0) -> OracleReport:
    dev = abs(oracle_value - engine_value)
    return OracleReport(
        quantity=quantity,
        oracle_value=oracle_value,
        engine_value=engine_value,
        abs_deviation=dev,
        rel_deviation=dev / max(abs(oracle_value), 1e-12),
        samples=samples,
        note="" if dev <= tol else f"deviation {dev:g} exceeds {tol:g}",
    )
