"""Workload configs: one draa experiment config per (workload, seed, size).

Every workload is a plain ``draa run`` config dict.  The benchmark seed
picks the block of draa seeds the config runs; seed bases wrap after
``POOL`` blocks so that every config the benchmark can build has an
expected digest in ``digests.json``.  Why each workload exists is
recorded in ``NOTES.md``.
"""
from __future__ import annotations

import copy

WORKLOADS = ("long_horizon", "short_runs", "wide_boundary")
SIZES = ("full", "smoke")

#: number of distinct seed blocks per workload (benchmark seeds wrap here)
POOL = 16

#: horizon of the warm-up run that ends the set-up phase of every process
WARMUP_HORIZON = 2000

#: criterion-1 instance of the acceptance suite: K=8, L=4, every arm held
#: by exactly two agents
CRIT1_INSTANCE = {
    "num_arms": 8,
    "num_agents": 4,
    "arm_sets": [[0, 2, 3, 6], [0, 3, 4, 7], [1, 4, 5, 6], [1, 2, 5, 7]],
    "means": [0.9, 0.85, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1],
}


def cyclic_instance(num_arms: int, num_agents: int, per_agent: int) -> dict:
    """Agent ell holds ``per_agent`` consecutive arms starting at ell*K/L
    (mod K), so every arm has L*per_agent/K holders; means are linear in
    [0.05, 0.95]."""
    stride = num_arms // num_agents
    return {
        "num_arms": num_arms,
        "num_agents": num_agents,
        "arm_sets": [[(ell * stride + j) % num_arms for j in range(per_agent)]
                     for ell in range(num_agents)],
        "means": [0.05 + 0.9 * k / (num_arms - 1) for k in range(num_arms)],
    }


# (horizon, seeds per config, gap_flip budget) by size.  The budgets are
# non-dyadic and sized so the budget gate closes in the last epoch.
_LONG = {"full": (2_000_000, 2, 1_999_999.7), "smoke": (300_000, 1, 520_000.3)}
_SHORT = {"full": (10_000, 100), "smoke": (10_000, 4)}
_WIDE = {"full": 56_000, "smoke": 12_000}


def seeds_per_config(workload: str, size: str) -> int:
    if workload == "long_horizon":
        return _LONG[size][1]
    if workload == "short_runs":
        return _SHORT[size][1]
    return 1


def build_config(workload: str, seed: int, size: str = "full") -> dict:
    """The experiment config one benchmark run of ``workload`` measures."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    count = seeds_per_config(workload, size)
    config = {
        "schema_version": 1,
        "name": workload,
        "num_seeds": count,
        "seed_base": count * (seed % POOL),
        "num_checkpoints": 64,
    }
    if workload == "long_horizon":
        horizon, _, budget = _LONG[size]
        config.update({
            "instance": dict(CRIT1_INSTANCE, reward_model="beta"),
            "adversary": {"kind": "gap_flip", "magnitude": 0.5,
                          "budget": budget},
            "algorithm": {"estimator": "weighted", "lam_scale": 64},
            "horizon": horizon,
        })
    elif workload == "short_runs":
        config.update({
            "instance": dict(CRIT1_INSTANCE, reward_model="bernoulli"),
            "algorithm": {"estimator": "weighted", "lam_scale": 64},
            "horizon": _SHORT[size][0],
        })
    else:
        config.update({
            "instance": dict(cyclic_instance(512, 64, 128),
                             reward_model="bernoulli"),
            "algorithm": {"estimator": "weighted", "lam_scale": 16},
            "horizon": _WIDE[size],
        })
    return config


def warmup_config(config: dict) -> dict:
    """The same experiment cut to a short horizon and its first seed."""
    warm = copy.deepcopy(config)
    warm["name"] = f"{config['name']}_warmup"
    warm["horizon"] = min(config["horizon"], WARMUP_HORIZON)
    warm["num_seeds"] = 1
    return warm


def config_seeds(config: dict) -> list[int]:
    base = config["seed_base"]
    return list(range(base, base + config["num_seeds"]))


def config_budget(config: dict) -> float:
    adversary = config.get("adversary") or {}
    return float(adversary.get("budget", 0.0))
