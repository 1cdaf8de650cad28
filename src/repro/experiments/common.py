"""Shared experiment plumbing: scenarios and runners.

A :class:`Scenario` bundles everything one simulation needs -- hardware
pair, invocation trace, carbon-intensity trace, engine config. Experiment
drivers build scenarios (usually the paper's default: Pair A, Azure-shaped
trace, CISO carbon intensity) and run schedulers over them with
:func:`run_scheduler` / :func:`run_suite`. Schemes are named as in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.experiments.runner import ResultSummary
    from repro.workloads.generators import WorkloadSpec

from repro import units
from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.regions import region_trace_for
from repro.core import EcoLifeConfig
from repro.experiments.registry import scheduler_factory
from repro.hardware.catalog import get_pair
from repro.hardware.specs import HardwarePair
from repro.simulator import (
    BaseScheduler,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
)
from repro.workloads.trace import InvocationTrace

@dataclass(frozen=True)
class Scenario:
    """One fully-specified simulation setting."""

    pair: HardwarePair
    trace: InvocationTrace
    ci_trace: CarbonIntensityTrace
    sim_config: SimulationConfig
    label: str = "scenario"

    def with_pair(self, pair: HardwarePair, label: str | None = None) -> "Scenario":
        return replace(self, pair=pair, label=label or f"{self.label}|{pair.name}")

    def with_ci(self, ci_trace: CarbonIntensityTrace, label: str | None = None) -> "Scenario":
        return replace(
            self, ci_trace=ci_trace, label=label or f"{self.label}|{ci_trace.name}"
        )

    def with_capacity(self, old_gb: float, new_gb: float) -> "Scenario":
        cfg = replace(
            self.sim_config,
            pool_capacity_old_gb=old_gb,
            pool_capacity_new_gb=new_gb,
        )
        return replace(self, sim_config=cfg)


def workload_scenario(
    workload: "WorkloadSpec | str" = "azure",
    n_functions: int = 60,
    hours: float = 6.0,
    seed: int = 7,
    region: str = "CAL",
    pair: str = "A",
    pool_gb: float = 32.0,
    kmax_minutes: float = 30.0,
    start_hour: float = 8.0,
    label: str | None = None,
) -> Scenario:
    """A scenario whose trace comes from any registered workload generator.

    Everything except the invocation trace matches :func:`default_scenario`
    (region CI trace, pool/kmax simulation config); the trace is built by
    the :mod:`repro.workloads.generators` family named by ``workload``.
    """
    from repro.workloads.generators import WorkloadSpec, build_trace

    workload = WorkloadSpec.of(workload)
    duration_s = hours * units.SECONDS_PER_HOUR
    trace = build_trace(workload, n_functions, duration_s, seed)
    ci = region_trace_for(
        region, duration_s + units.SECONDS_PER_HOUR, seed=seed, start_hour=start_hour
    )
    cfg = SimulationConfig(
        pool_capacity_old_gb=pool_gb,
        pool_capacity_new_gb=pool_gb,
        kmax_minutes=kmax_minutes,
    )
    return Scenario(
        pair=get_pair(pair),
        trace=trace,
        ci_trace=ci,
        sim_config=cfg,
        label=label
        or f"{workload.label}-n{n_functions}-h{hours:g}-s{seed}-{region}-pair{pair}",
    )


def trace_scenario(
    trace_path: str,
    seed: int = 7,
    region: str = "CAL",
    pair: str = "A",
    pool_gb: float = 32.0,
    kmax_minutes: float = 30.0,
    start_hour: float = 8.0,
    mmap: bool = True,
    label: str | None = None,
) -> Scenario:
    """A scenario replaying a compiled columnar trace file.

    The invocation trace is memory-mapped from the ``.npz`` written by
    :meth:`InvocationTrace.save` (or ``ecolife trace compile``); the
    synthetic region carbon-intensity trace is sized to cover the
    replay's full span plus an hour of keep-alive tail, exactly like
    :func:`workload_scenario` does for generated traces.
    """
    trace = InvocationTrace.open(trace_path, mmap=mmap)
    ci = region_trace_for(
        region,
        trace.duration_s + units.SECONDS_PER_HOUR,
        seed=seed,
        start_hour=start_hour,
    )
    cfg = SimulationConfig(
        pool_capacity_old_gb=pool_gb,
        pool_capacity_new_gb=pool_gb,
        kmax_minutes=kmax_minutes,
    )
    import os

    return Scenario(
        pair=get_pair(pair),
        trace=trace,
        ci_trace=ci,
        sim_config=cfg,
        label=label
        or f"file[{os.path.basename(trace_path)}]-s{seed}-{region}-pair{pair}",
    )


def default_scenario(
    n_functions: int = 60,
    hours: float = 6.0,
    seed: int = 7,
    region: str = "CAL",
    pair: str = "A",
    pool_gb: float = 32.0,
    kmax_minutes: float = 30.0,
    start_hour: float = 8.0,
) -> Scenario:
    """The paper's default evaluation setting (Sec. V).

    Pair A hardware, Azure-shaped trace, CISO (CAL) carbon intensity.
    The trace goes through the ``azure`` generator family, which is
    bit-identical to :func:`repro.workloads.azure.generate_azure_trace`.
    """
    return workload_scenario(
        workload="azure",
        n_functions=n_functions,
        hours=hours,
        seed=seed,
        region=region,
        pair=pair,
        pool_gb=pool_gb,
        kmax_minutes=kmax_minutes,
        start_hour=start_hour,
    )


def quick_scenario(seed: int = 7) -> Scenario:
    """A small scenario for quickstarts and fast tests (~1-2k invocations)."""
    return default_scenario(n_functions=25, hours=2.0, seed=seed)


def run_scheduler(
    scheduler: BaseScheduler | Callable[[], BaseScheduler],
    scenario: Scenario,
) -> SimulationResult:
    """Run one scheduler over a scenario (fresh engine each call).

    Oracle schedulers (``requires_lookahead``) run with unlimited
    keep-alive memory, as in the paper.
    """
    sched = scheduler() if callable(scheduler) else scheduler
    cfg = scenario.sim_config
    if sched.requires_lookahead:
        cfg = cfg.uncapped()
    engine = SimulationEngine(
        pair=scenario.pair,
        trace=scenario.trace,
        ci_trace=scenario.ci_trace,
        config=cfg,
    )
    result = engine.run(sched)
    result.meta["scenario"] = scenario.label
    return result


def run_suite(
    names: Sequence[str],
    scenario: Scenario,
    n_workers: int = 1,
    config: EcoLifeConfig | None = None,
) -> dict[str, SimulationResult | "ResultSummary"]:
    """Run the named schemes over the same scenario, keyed by name.

    Every name resolves through :mod:`repro.experiments.registry` (an
    unknown one raises its ``KeyError`` before anything runs) and gets
    ``config``. With ``n_workers > 1`` the suite fans out over a process
    pool and returns :class:`~repro.experiments.runner.ResultSummary`
    aggregates (identical numbers to the serial path, but without
    per-invocation records).
    """
    factories = {name: scheduler_factory(name) for name in names}
    if n_workers > 1:
        from repro.experiments.runner import ParallelRunner, RunnerJob

        jobs = [
            RunnerJob(scheduler=name, scenario=scenario, config=config)
            for name in factories
        ]
        summaries = ParallelRunner(n_workers=n_workers).run(jobs)
        return dict(zip(factories, summaries))
    return {
        name: run_scheduler(factory(config), scenario)
        for name, factory in factories.items()
    }
