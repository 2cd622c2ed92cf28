"""Spans around the public entry points of each ``draa`` module.

The wrappers are installed from the benchmark's side by rebinding the
names that calling modules look up (``draa.engine.run_segment`` and so
on), so no source under ``src/draa`` changes.  Each span adds its
duration to its parent's child time; a layer's busy time is the sum of
its spans' self times, so the busy times of one run never add up to more
than the run's wall time.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

#: layers in report order; ``trace`` holds the wrappers' own bookkeeping
LAYERS = ("config", "engine", "kernels", "agents", "comm", "adversary",
          "model", "runner.summarize", "runner.write", "trace")


class Tracer:
    """Span stack plus per-layer self time and counters for one process."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child seconds per open span
        self.model_setup_s = 0.0
        self._clear()

    def end_setup(self) -> None:
        """Keep the model layer's set-up time, then clear every counter."""
        self.model_setup_s = self.self_s["model"]
        self._clear()

    def _clear(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._boundary_key = None
        self.boundary_s: list[float] = []
        self._largest_plan = None
        self._largest_rounds = 0

    def _enter(self) -> None:
        self._stack.append([0.0])

    def _exit(self, layer: str, duration: float, outer: float) -> None:
        child = self._stack.pop()[0]
        self.self_s[layer] += duration - child
        # time the wrapper spent around the call is charged to ``trace``
        self.self_s["trace"] += max(0.0, outer - duration)
        if self._stack:
            self._stack[-1][0] += outer

    def wrap(self, layer: str, fn, before=None, after=None):
        """A callable that records a ``layer`` span around ``fn``."""
        def traced(*args, **kwargs):
            outer_start = time.perf_counter()
            self._enter()
            token = before(*args, **kwargs) if before else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                if after:
                    after(token, duration, *args, **kwargs)
                self._exit(layer, duration, time.perf_counter() - outer_start)
        traced.__wrapped__ = fn
        return traced

    # -- per-layer counters ---------------------------------------------------
    def _kernel_after(self, _token, duration, plan, *args, **kwargs):
        rounds = plan.t_end - plan.t_start + 1
        agent_rounds = rounds * plan.arms.shape[0]
        c = self.counts
        c["kernels.calls"] += 1
        c["kernels.rounds"] += rounds
        c["kernels.agent_rounds"] += agent_rounds
        if plan.adv_active and (plan.targets >= 0).any():
            c["kernels.adv_agent_rounds"] += agent_rounds
        if self._largest_plan is None or rounds > self._largest_rounds:
            self._largest_plan, self._largest_rounds = plan, rounds

    def _advance_after(self, _token, duration, state, broadcasts, *args,
                       **kwargs):
        # consecutive calls sharing one broadcast list form one boundary
        key = (id(broadcasts), state.epoch)
        if key != self._boundary_key:
            self._boundary_key = key
            self.boundary_s.append(0.0)
        self.boundary_s[-1] += duration

    def _post_after(self, *args, **kwargs):
        self.counts["comm.broadcasts"] += 1

    def _beta_before(self, instance):
        return instance._beta_table is None

    def _beta_after(self, building, duration, instance):
        if building:
            self.counts["model.beta_table_builds"] += 1

    def install(self) -> None:
        """Rebind the entry points every ``draa run`` goes through."""
        import draa.agents
        import draa.cli
        import draa.config
        import draa.engine
        import draa.runner
        from draa.adversary import Adversary
        from draa.comm import MessageLog
        from draa.model import BanditInstance

        def patch(owner, name, layer, before=None, after=None):
            setattr(owner, name,
                    self.wrap(layer, getattr(owner, name), before, after))

        patch(draa.cli, "load_config", "config")
        patch(draa.runner, "validate_config", "config")
        patch(draa.config, "build_instance", "model")
        patch(draa.runner, "build_schedule", "agents")
        patch(draa.runner, "run_single", "engine")
        self._run_segment = draa.engine.run_segment
        patch(draa.engine, "run_segment", "kernels", after=self._kernel_after)
        patch(draa.engine, "init_epoch1", "agents")
        patch(draa.engine, "make_broadcast", "agents")
        patch(draa.engine, "advance_epoch", "agents",
              after=self._advance_after)
        patch(draa.agents, "freeze_broadcast", "comm")
        patch(MessageLog, "post", "comm", after=self._post_after)
        patch(draa.engine, "comm_cost", "comm")
        patch(Adversary, "begin_epoch", "adversary")
        patch(BanditInstance, "beta_table", "model",
              self._beta_before, self._beta_after)
        patch(draa.runner, "checkpoint_rows", "runner.summarize")
        patch(draa.runner, "summarize", "runner.summarize")
        patch(draa.runner, "write_checkpoint_csv", "runner.write")
        draa.runner.json = SimpleNamespace(
            dump=self.wrap("runner.write", json.dump))

    def peak_bytes_per_round(self) -> float:
        """tracemalloc peak of the largest kernel call, per round.

        tracemalloc slows the kernels several-fold, so the call is
        replayed with it after the timed run instead of during it."""
        if self._largest_plan is None:
            return 0.0
        tracemalloc.start()
        try:
            self._run_segment(self._largest_plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / self._largest_rounds

    def report(self, wall_s: float) -> dict:
        """Per-layer metrics of the run traced since the last reset."""
        c = self.counts
        busy = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        calls = c["kernels.calls"]
        agent_rounds = c["kernels.agent_rounds"]
        kernel_s = busy["kernels"]
        boundaries = len(self.boundary_s)
        return {
            "wall_s": wall_s,
            "busy_s": busy,
            "kernels.calls": calls,
            "kernels.rounds_per_call": c["kernels.rounds"] / calls if calls else 0.0,
            "kernels.busy_s": kernel_s,
            "kernels.agent_rounds_per_s": agent_rounds / kernel_s if kernel_s else 0.0,
            "kernels.adv_active_share": (c["kernels.adv_agent_rounds"] / agent_rounds
                                         if agent_rounds else 0.0),
            "kernels.peak_bytes_per_round": self.peak_bytes_per_round(),
            "engine.self_s": busy["engine"],
            "engine.overhead_per_call_us": busy["engine"] / calls * 1e6 if calls else 0.0,
            "agents.boundaries": boundaries,
            "agents.boundary_ms": (sum(self.boundary_s) / boundaries * 1e3
                                   if boundaries else 0.0),
            "agents.busy_s": busy["agents"],
            "comm.broadcasts": c["comm.broadcasts"],
            "comm.busy_s": busy["comm"],
            "adversary.begin_epoch_busy_s": busy["adversary"],
            "model.beta_table_builds": c["model.beta_table_builds"],
            "model.setup_s": self.model_setup_s,
            "model.busy_s": busy["model"],
            "config.validate_busy_s": busy["config"],
            "runner.summarize_busy_s": busy["runner.summarize"],
            "runner.write_busy_s": busy["runner.write"],
        }
