"""Per-agent epoch state and the algorithm's epoch-boundary updates.

The algorithm proceeds in quadrupling epochs.  During an epoch every
agent pulls from a frozen categorical distribution over its local arms
and accumulates observed reward sums and pull counts.  At the boundary
all agents broadcast and every arm's reward is re-estimated once, by
pooling the broadcasts of every agent that holds the arm
(:func:`pool_estimates`); each agent then reads its own arms' estimates
and derives the next epoch's active/bad split and probabilities.

Gap estimates are floored at 1/8 and padded by 3/128, so they always
live in [0.125, 1.0234375]; reward estimates are deliberately NOT
clipped to [0, 1] (the inverse-probability weighting can overshoot and
clipping would bias it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm import EpochBroadcast, freeze_broadcast
from .errors import ConfigError, InvariantError, checked
from .model import BanditInstance

#: smallest admissible gap estimate
GAP_FLOOR = 2.0 ** -3
#: additive padding applied to every estimated gap
GAP_PAD = 3.0 * 2.0 ** -7
#: largest value a gap estimate can take (r_max - r <= 1 plus padding)
GAP_CAP = 1.0 + GAP_PAD
#: fraction of the previous gap subtracted when taking the running max
RMAX_DISCOUNT = 1.0 / 16.0

ESTIMATORS = ("weighted", "naive")


def exploration_constant(num_arms: int, num_agents: int, horizon: int,
                         delta: float, lam_scale: float) -> float:
    """lambda = lam_scale * ln(8 K L ln(T) / delta).

    ``lam_scale`` trades theoretical slack for feasible epoch lengths;
    the canonical value is 2**24 but desk-scale experiments run with
    much smaller multipliers (>= 16).
    """
    checked("horizon", horizon, int, 3)
    checked("delta", delta, float, 0, 1, strict=True)
    checked("lam_scale", lam_scale, float, 16)
    lam = lam_scale * math.log(8.0 * num_arms * num_agents * math.log(horizon) / delta)
    if not math.isfinite(lam * num_arms):  # epoch lengths start from lam * K
        raise ConfigError(f"lam_scale {lam_scale} with delta {delta} "
                          "overflows the exploration constant")
    return lam


@dataclass(frozen=True)
class EpochSchedule:
    """The exploration constant lambda and the epoch lengths T^m, the
    schedule's one record of its epochs: in order they partition {1..T},
    so epoch m ends at sum(lengths[:m]) and T is sum(lengths)."""

    lam: float
    lengths: tuple[int, ...]

    @property
    def num_epochs(self) -> int:
        return len(self.lengths)


def raw_epoch_length(lam: float, num_arms: int, l_min: int, m: int) -> int:
    """ceil(lambda * K * 4^{m-1} / L_min), before horizon truncation."""
    if m < 1:
        raise ValueError("epoch index must be >= 1")
    return int(math.ceil(lam * num_arms * 2.0 ** (2 * (m - 1)) / l_min))


def build_schedule(instance: BanditInstance, horizon: int, delta: float,
                   lam_scale: float) -> EpochSchedule:
    """Partition {1..T} into quadrupling epochs, last one truncated."""
    lam = exploration_constant(instance.num_arms, instance.num_agents,
                               horizon, delta, lam_scale)
    lengths: list[int] = []
    used = 0
    m = 1
    while used < horizon:
        length = min(raw_epoch_length(lam, instance.num_arms, instance.l_min, m),
                     horizon - used)
        lengths.append(length)
        used += length
        m += 1
    return EpochSchedule(lam=lam, lengths=tuple(lengths))


@dataclass
class AgentState:
    """One agent's algorithm state for the current epoch.

    ``gaps`` and ``estimates`` refer to the previous epoch (superscript
    m-1 quantities); ``probs`` and ``reward_sums`` belong to the current
    epoch ``epoch``; the engine sets ``reward_sums`` from its kernel
    call.  Updates rebind fields and never write into an array.
    """

    ell: int
    arms: np.ndarray  # local arm ids, ascending
    epoch: int
    gaps: np.ndarray  # previous-epoch gap estimates, per local arm
    estimates: np.ndarray  # previous-epoch reward estimates
    r_max: float
    active: np.ndarray  # bool mask over local arms
    fallback: bool  # True if the active set came from the empty-A fallback
    probs: np.ndarray
    reward_sums: np.ndarray | None = None  # delivered-reward sums per arm


def init_epoch1(instance: BanditInstance, ell: int) -> AgentState:
    """Epoch-1 state: all arms active, uniform probabilities, unit gaps.

    This is what the boundary update produces from the all-ones
    initialization, hard-coded to avoid simulating a degenerate epoch 0.
    """
    arms = np.asarray(instance.arm_sets[ell], dtype=np.int64)
    n = len(arms)
    return AgentState(
        ell=ell,
        arms=arms,
        epoch=1,
        gaps=np.ones(n),
        estimates=np.ones(n),
        r_max=1.0,
        active=np.ones(n, dtype=bool),
        fallback=False,
        probs=np.full(n, 1.0 / n),
    )


def split_threshold(m: int, l_min: int, num_agents: int) -> float:
    """Activeness threshold used when closing epoch m."""
    return 2.0 ** -(m + 3) * math.sqrt(l_min / num_agents) - GAP_PAD


def split_sets(estimates: np.ndarray, r_max: float, m: int, l_min: int,
               num_agents: int) -> tuple[np.ndarray, bool]:
    """Split local arms into active/bad from the epoch-m estimates.

    An arm is active when r_max - r is strictly below the threshold.
    If that empties the active set, the arm with the largest estimate
    (lowest index on ties) is promoted; the flag reports the fallback.
    """
    threshold = split_threshold(m, l_min, num_agents)
    active = (r_max - estimates) < threshold
    if active.any():
        return active, False
    active = np.zeros(len(estimates), dtype=bool)
    active[int(np.argmax(estimates))] = True
    return active, True


def assign_probabilities(active: np.ndarray, gaps: np.ndarray, m_next: int,
                         local_holders: np.ndarray, l_min: int,
                         num_arms: int) -> np.ndarray:
    """Next epoch's pull distribution over one agent's local arms.

    Bad arms receive 4^{-m_next} * (gap_k)^{-2} / sum_all (gap)^{-2}
    * (L_min/L_k) * (|K_ell|/K); the active arms evenly share whatever
    mass remains.  ``local_holders`` gives L_k for each local arm.  The
    gap normalization runs over ALL local arms, not just the bad ones.
    """
    inv_sq = gaps ** -2.0
    denom = inv_sq.sum()
    k_ell = len(gaps)
    probs = np.zeros(k_ell)
    bad = ~active
    probs[bad] = (2.0 ** (-2 * m_next) * inv_sq[bad] / denom
                  * (l_min / local_holders[bad]) * (k_ell / num_arms))
    remainder = 1.0 - probs[bad].sum()
    n_active = int(active.sum())
    if n_active == 0:
        raise InvariantError("empty active set", "assign_probabilities needs A nonempty")
    if remainder <= 0.0:
        raise InvariantError(
            "nonpositive active-set remainder",
            f"bad-arm mass {probs[bad].sum():.6g} >= 1 at epoch {m_next}",
        )
    probs[active] = remainder / n_active
    return probs


def pool_estimates(broadcasts: list[EpochBroadcast], num_arms: int,
                   epoch_len: int, estimator: str = "weighted") -> np.ndarray:
    """Pooled reward estimate of every arm from one epoch's broadcasts.

    ``weighted`` averages R~/p over the agents holding an arm and divides
    by the epoch length (unbiased, can land outside [0,1]); ``naive``
    divides the total reward by the total expected pulls.  Each sum is
    one ``np.bincount`` over the broadcasts concatenated in list order,
    which adds an arm's terms from 0.0 in sender order, exactly as a
    per-arm, sender-ascending loop would.
    """
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    # the empty head keeps each field's dtype, and an empty list valid
    arms, sums, probs = (
        np.concatenate([np.empty(0, dtype),
                        *(getattr(b, field) for b in broadcasts)])
        for field, dtype in (("arms", np.int64), ("reward_sums", float),
                             ("probs", float)))
    holders = np.bincount(arms, minlength=num_arms)
    if not holders.all():  # argmin is the first arm no broadcast holds
        raise ValueError(f"no broadcast covers arm {int(holders.argmin())}")
    weighted = estimator == "weighted"
    num = np.bincount(arms, sums / probs if weighted else sums, num_arms)
    den = holders if weighted else np.bincount(arms, probs, num_arms)
    return num / (den * epoch_len)


def update_rmax(estimates: np.ndarray, prev_gaps: np.ndarray) -> float:
    """Running local maximum: max over arms of r - gap/16."""
    return float(np.max(estimates - RMAX_DISCOUNT * prev_gaps))


def update_gaps(r_max: float, estimates: np.ndarray) -> np.ndarray:
    """Padded, floored gap estimates max(1/8, r_max - r + 3/128)."""
    return np.maximum(GAP_FLOOR, r_max - estimates + GAP_PAD)


def make_broadcast(state: AgentState) -> EpochBroadcast:
    """Freeze this epoch's arms, reward sums and probabilities for
    posting."""
    return freeze_broadcast(state.arms, state.reward_sums, state.probs)


def advance_epoch(state: AgentState, broadcasts: list[EpochBroadcast],
                  instance: BanditInstance, epoch_len: int,
                  estimator: str = "weighted", *,
                  pooled: np.ndarray | None = None) -> None:
    """Epoch-boundary update: estimate, re-split, re-weight.

    Mutates ``state`` into its next-epoch configuration using this
    epoch's pooled broadcasts.  ``epoch_len`` is the length of the
    epoch that just ended.  ``pooled`` is :func:`pool_estimates` of
    ``broadcasts``, shared by all agents of one boundary; it is
    computed here when not given.
    """
    if pooled is None:
        pooled = pool_estimates(broadcasts, instance.num_arms, epoch_len,
                                estimator)
    m = state.epoch
    new_estimates = pooled[state.arms]
    new_r_max = update_rmax(new_estimates, state.gaps)
    new_gaps = update_gaps(new_r_max, new_estimates)
    active, fallback = split_sets(new_estimates, new_r_max, m,
                                  instance.l_min, instance.num_agents)
    holders = instance.agents_per_arm[state.arms]
    probs = assign_probabilities(active, new_gaps, m + 1, holders,
                                 instance.l_min, instance.num_arms)
    state.epoch = m + 1
    state.estimates = new_estimates
    state.r_max = new_r_max
    state.gaps = new_gaps
    state.active = active
    state.fallback = fallback
    state.probs = probs
