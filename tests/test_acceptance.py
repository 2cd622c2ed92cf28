"""Acceptance suite: eight end-to-end criteria on the full system.

Each test prints a single PASS/FAIL line with its measured quantities.
The heavy run batches are shared through session-scoped fixtures.
"""
import math
import time

import numpy as np
import pytest

from draa.adversary import make_adversary
from draa.agents import build_schedule
from draa.config import validate_config
from draa.engine import run_single
from draa.model import build_instance
from draa.oracle import replay_check
from draa.runner import evenly_spaced_checkpoints, execute_run

from conftest import exhaustive_estimator_mean

# criterion 1/3 instance: K=8, L=4, every arm held by exactly 2 agents
INVARIANT_INSTANCE = {
    "num_arms": 8,
    "num_agents": 4,
    "arm_sets": [[0, 2, 3, 6], [0, 3, 4, 7], [1, 4, 5, 6], [1, 2, 5, 7]],
    "means": [0.9, 0.85, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1],
}
INVARIANT_HORIZON = 1_000_000
INVARIANT_SEEDS = 50


def run_config(instance_desc, horizon, lam_scale, seed, adversary=None,
               estimator="weighted", checkpoints=None, delta=0.05):
    inst = build_instance(instance_desc)
    sched = build_schedule(inst, horizon, delta, lam_scale)
    return run_single(inst, sched, make_adversary(adversary), seed,
                      estimator=estimator, checkpoints=checkpoints)


@pytest.fixture(scope="session")
def invariant_batch():
    """50 seeded runs of the invariant-suite configuration (criteria 1, 3, 7)."""
    checkpoints = evenly_spaced_checkpoints(INVARIANT_HORIZON, 64)
    start = time.monotonic()
    results = [run_config(INVARIANT_INSTANCE, INVARIANT_HORIZON, 64, seed,
                          checkpoints=checkpoints)
               for seed in range(INVARIANT_SEEDS)]
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_invariant_suite(invariant_batch):
    results, elapsed = invariant_batch
    bracket = sum(r.prob_bracket_violations() for r in results)
    gap = sum(r.gap_range_violations() for r in results)
    epochs = {r.num_epochs for r in results}
    assert min(epochs) >= 6, f"need >= 6 epochs, got {min(epochs)}"
    # simplex violations raise inside the engine, so reaching this point
    # means every epoch of every run satisfied the simplex check
    status = "PASS" if (bracket == 0 and gap == 0 and elapsed < 120) else "FAIL"
    print(f"\n{status} criterion 1: {INVARIANT_SEEDS} runs x "
          f"{min(epochs)} epochs, {bracket} probability-bracket violations, "
          f"{gap} gap-range violations, {elapsed:.1f}s")
    assert bracket == 0
    assert gap == 0
    assert elapsed < 120


def test_criterion_2_estimator_unbiasedness():
    # exact expectation by brute-force enumeration
    inst = build_instance({
        "num_arms": 2, "num_agents": 2,
        "arm_sets": [[0, 1], [0, 1]],
        "means": [0.5, 0.25]})
    probs = [[0.5, 0.5], [0.75, 0.25]]
    worst = 0.0
    for arm, mu in ((0, 0.5), (1, 0.25)):
        exact = exhaustive_estimator_mean(inst, probs, 2, arm)
        worst = max(worst, abs(exact - mu))
    single = build_instance({
        "num_arms": 1, "num_agents": 1, "arm_sets": [[0]], "means": [0.5]})
    for t_m in (3, 8, 12):
        exact = exhaustive_estimator_mean(single, [[1.0]], t_m, 0)
        worst = max(worst, abs(exact - 0.5))

    # engine Monte-Carlo: epoch-1 weighted estimates across seeded runs
    n_runs = 200
    estimates = np.empty(n_runs)
    for seed in range(n_runs):
        result = run_config(
            {"num_arms": 2, "num_agents": 2,
             "arm_sets": [[0, 1], [0, 1]], "means": [0.5, 0.25]},
            700, 16, seed)
        # the epoch-2 record carries the estimates computed from epoch 1
        estimates[seed] = result.epochs[1].estimates[0][0]
    se = estimates.std(ddof=1) / math.sqrt(n_runs)
    mc_dev = abs(estimates.mean() - 0.5)
    ok = worst <= 1e-12 and mc_dev <= 3 * se
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 2: exhaustive dev "
          f"{worst:.2e} (tol 1e-12), engine MC dev {mc_dev:.4f} vs 3se "
          f"{3 * se:.4f} over {n_runs} epochs")
    assert worst <= 1e-12
    assert mc_dev <= 3 * se


def test_criterion_3_no_corruption_learning(invariant_batch):
    results, _ = invariant_batch
    inst = build_instance(INVARIANT_INSTANCE)
    masses = []
    for r in results:
        final = r.epochs[-1]
        for ell in range(inst.num_agents):
            arms = list(inst.arm_sets[ell])
            best_idx = arms.index(inst.best_arms[ell])
            masses.append(final.probs[ell][best_idx])
    mean_mass = float(np.mean(masses))

    first_rates = []
    final_rates = []
    for r in results:
        rates = r.checkpoints.regret.sum(axis=1) / r.checkpoints.t
        first_rates.append(rates[0])
        final_rates.append(rates[-1])
    ratio = np.mean(final_rates) / np.mean(first_rates)
    ok = mean_mass >= 0.9 and ratio <= 0.25
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 3: final-epoch best-arm "
          f"mass {mean_mass:.4f} (need >= 0.9), regret-rate ratio "
          f"{ratio:.4f} (need <= 0.25)")
    assert mean_mass >= 0.9
    assert ratio <= 0.25


def test_criterion_4_corruption_scaling():
    desc = {
        "num_arms": 4, "num_agents": 2,
        "arm_sets": [[0, 1, 2, 3], [0, 1, 2, 3]],
        "means": [0.9, 0.6, 0.5, 0.45]}
    horizon = 40000
    c0 = 500.0
    levels = [c0, 2 * c0, 4 * c0]
    n_seeds = 30
    excess = {b: np.empty(n_seeds) for b in levels}
    realized = {b: [] for b in levels}
    for seed in range(n_seeds):
        base = run_config(desc, horizon, 64, seed)
        for b in levels:
            adv = {"kind": "epoch_flood", "target_arm": 0, "start_epoch": 2,
                   "direction": "down", "budget": b, "magnitude": 0.25}
            r = run_config(desc, horizon, 64, seed, adversary=adv)
            excess[b][seed] = r.total_regret - base.total_regret
            realized[b].append(r.corruption["C"])
    # levels must actually realize distinct corruption totals
    means_c = [float(np.mean(realized[b])) for b in levels]
    assert means_c[0] < means_c[1] < means_c[2]

    rng = np.random.default_rng(12345)
    n_boot = 1000
    monotone = 0
    for _ in range(n_boot):
        idx = rng.integers(0, n_seeds, n_seeds)
        means = [excess[b][idx].mean() for b in levels]
        if means[0] >= 0 and all(hi >= lo for lo, hi in zip(means, means[1:])):
            monotone += 1
    frac = monotone / n_boot
    print(f"\n{'PASS' if frac >= 0.9 else 'FAIL'} criterion 4: excess regret "
          f"monotone in {frac:.1%} of bootstrap resamples (need >= 90%); "
          f"mean excess {[round(float(excess[b].mean()), 1) for b in levels]} "
          f"at C {means_c}")
    assert frac >= 0.9


def test_criterion_5_weighted_beats_naive():
    # one arm shared by all six agents; corruption hits only agent 0's
    # observations of it
    desc = {
        "num_arms": 7, "num_agents": 6,
        "arm_sets": [[0, 6], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5]],
        "means": [0.8, 0.9, 0.9, 0.9, 0.9, 0.9, 0.3]}
    inst = build_instance(desc)
    assert int(inst.agents_per_arm[0]) == 6
    adv = {"kind": "budgeted_targeted", "target_arm": 0, "magnitude": 1.0,
           "budget": 1e9, "agents": [0]}
    n_seeds = 30
    wins = 0
    for seed in range(n_seeds):
        weighted = run_config(desc, 330000, 48, seed, adversary=adv,
                              estimator="weighted")
        naive = run_config(desc, 330000, 48, seed, adversary=adv,
                           estimator="naive")
        wins += weighted.total_regret <= naive.total_regret
    frac = wins / n_seeds
    print(f"\n{'PASS' if frac >= 0.8 else 'FAIL'} criterion 5: weighted "
          f"<= naive in {wins}/{n_seeds} paired seeds (need >= 80%)")
    assert frac >= 0.8


def _invariant_clean(result):
    return (result.fallback_epochs() == 0
            and result.prob_bracket_violations() == 0
            and result.gap_range_violations() == 0)


def test_criterion_6_reductions():
    single_desc = {
        "num_arms": 3, "num_agents": 1,
        "arm_sets": [[0, 1, 2]], "means": [0.8, 0.5, 0.2]}
    homog_desc = {
        "num_arms": 4, "num_agents": 3,
        "arm_sets": [[0, 1, 2, 3]] * 3,
        "means": [0.8, 0.6, 0.4, 0.2]}
    n_seeds = 50
    single_ok = True
    homog_ok = True
    identical_ok = True
    for seed in range(n_seeds):
        s = run_config(single_desc, 8000, 32, seed)
        single_ok = single_ok and _invariant_clean(s)
        h = run_config(homog_desc, 8000, 32, seed)
        homog_ok = homog_ok and _invariant_clean(h)
        for epoch in h.epochs:
            for ell in range(1, 3):
                identical_ok = identical_ok and \
                    np.array_equal(epoch.gaps[0], epoch.gaps[ell]) and \
                    np.array_equal(epoch.probs[0], epoch.probs[ell])
    ok = single_ok and homog_ok and identical_ok
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 6: single-agent clean "
          f"{single_ok}, homogeneous clean {homog_ok}, homogeneous agents "
          f"bit-identical {identical_ok} ({n_seeds} seeds each)")
    assert single_ok and homog_ok and identical_ok


def test_criterion_7_communication(invariant_batch):
    results, _ = invariant_batch
    extra = [
        {"num_arms": 3, "num_agents": 1,
         "arm_sets": [[0, 1, 2]], "means": [0.8, 0.5, 0.2]},
        {"num_arms": 4, "num_agents": 3,
         "arm_sets": [[0, 1, 2, 3]] * 3, "means": [0.8, 0.6, 0.4, 0.2]},
    ]
    runs = ([(INVARIANT_INSTANCE, r) for r in results]
            + [(desc, run_config(desc, 8000, 32, 0)) for desc in extra])
    exact = True
    bounded = True
    for desc, r in runs:
        inst = build_instance(desc)
        M = r.num_epochs
        exact = exact and (r.comm_cost == inst.num_agents * M)
        sched = r.schedule
        bound = math.ceil(math.log(
            sched.horizon * inst.l_min / (sched.lam * inst.num_arms), 4)) + 1
        bounded = bounded and (M <= bound)
    ok = exact and bounded
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 7: comm_cost == L*M in "
          f"all {len(results) + len(extra)} runs ({exact}), epoch count "
          f"within the log4 bound ({bounded})")
    assert exact and bounded


def _random_replay_config(rng):
    num_arms = int(rng.integers(2, 6))
    num_agents = int(rng.integers(1, 5))
    arm_sets = [set() for _ in range(num_agents)]
    for k in range(num_arms):  # every arm needs a holder
        arm_sets[int(rng.integers(0, num_agents))].add(k)
    for ell in range(num_agents):  # every agent needs an arm, plus extras
        arm_sets[ell].add(int(rng.integers(0, num_arms)))
        for k in range(num_arms):
            if rng.random() < 0.4:
                arm_sets[ell].add(k)
    means = np.round(rng.uniform(0.05, 0.95, num_arms), 3).tolist()
    kinds = [None,
             {"kind": "budgeted_targeted",
              "target_arm": int(rng.integers(0, num_arms)),
              "magnitude": float(np.round(rng.uniform(0.1, 1.0), 2)),
              "budget": float(rng.integers(10, 200))},
             {"kind": "gap_flip",
              "magnitude": float(np.round(rng.uniform(0.1, 1.0), 2)),
              "budget": float(rng.integers(10, 200))},
             {"kind": "epoch_flood",
              "target_arm": int(rng.integers(0, num_arms)),
              "start_epoch": int(rng.integers(1, 3)),
              "direction": str(rng.choice(["up", "down"])),
              "budget": float(rng.integers(10, 200))}]
    return validate_config({
        "schema_version": 1,
        "instance": {
            "num_arms": num_arms, "num_agents": num_agents,
            "arm_sets": [sorted(s) for s in arm_sets],
            "means": means,
            "reward_model": str(rng.choice(["bernoulli", "beta"]))},
        "adversary": kinds[int(rng.integers(0, len(kinds)))],
        "algorithm": {
            "estimator": str(rng.choice(["weighted", "naive"])),
            "lam_scale": int(rng.choice([16, 24, 32])),
            "delta": 0.05},
        "horizon": int(rng.integers(1500, 6000)),
        "seeds": [int(rng.integers(0, 10000))],
    })


def test_criterion_8_determinism_replay():
    rng = np.random.default_rng(777)
    failures = []
    for i in range(10):
        config = _random_replay_config(rng)
        # the traced cells bit for bit, then the untraced replay of verify
        runs = [execute_run(config, config.seeds[0], trace=True)
                for _ in range(2)]
        differ = [name for name in ("pulls", "observed", "clean")
                  if len({getattr(r, name).tobytes() for r in runs}) > 1]
        report = replay_check(config, runs[0])
        if differ or not report.matches:
            failures.append((i, differ, report.note))
    ok = not failures
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 8: bit-identical replay "
          f"on 10 random configs; failures: {failures}")
    assert not failures
