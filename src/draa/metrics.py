"""Regret accounting, corruption diagnostics and theory-shaped terms.

Regret here is pseudo-regret: for every pull we charge the true-mean
gap of the pulled arm against the agent's local best arm, so a single
sample path yields a low-variance regret number and seed-averaging
approximates the expectation.
"""
from __future__ import annotations

import numpy as np

from .adversary import CorruptionLedger
from .agents import EpochSchedule
from .errors import ConfigError
from .model import BanditInstance


def rho_diagnostic(ledger: CorruptionLedger, schedule: EpochSchedule,
                   m: int) -> float:
    """Discounted per-agent corruption pressure after m epochs.

    rho^m = sum_{s=1..m} 2 C^s / (8^{m-s-1} L_min T^s); later epochs'
    corruption dominates because of the geometric discount.
    """
    total = 0.0
    for s in range(1, m + 1):
        c_s = ledger.epoch_total(s)
        t_s = schedule.epoch_length(s)
        total += 2.0 * c_s / (8.0 ** (m - s - 1) * schedule.l_min * t_s)
    return total


def theory_terms(instance: BanditInstance, total_corruption: float,
                 horizon: int, delta: float) -> dict:
    """Shape-reference terms of the regret bound (no hidden constants).

    Returns the corruption-driven term (L/L_min)*C and the stochastic
    term log(K L log(T)/delta) * log(T) * K / gap_min.  These are for
    qualitative overlays on regret plots, not bounds.
    """
    gap_min = instance.min_positive_gap
    if horizon < 3:
        raise ConfigError("horizon too short for theory terms")
    log_t = np.log(horizon)
    stochastic = (np.log(instance.num_arms * instance.num_agents * log_t / delta)
                  * log_t * instance.num_arms / gap_min)
    return {
        "corruption_term": (instance.num_agents / instance.l_min) * total_corruption,
        "stochastic_term": float(stochastic),
    }
