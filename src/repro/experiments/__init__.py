"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver exposes a ``run_*`` function returning a structured result with
a ``render()`` method that prints the same rows/series the paper's figure
shows. The :data:`EXPERIMENTS` registry maps experiment ids to drivers for
the CLI and the benchmark harness.
"""

from repro.experiments.common import (
    Scenario,
    default_scenario,
    quick_scenario,
    run_scheduler,
    run_suite,
    trace_scenario,
    workload_scenario,
)
from repro.experiments.registry import (
    create_scheduler,
    is_registered,
    list_schedulers,
    register_scheduler,
    scheduler_factory,
    unregister_scheduler,
)
from repro.experiments.runner import (
    GridResult,
    ParallelRunner,
    ResultCache,
    ResultSummary,
    RunnerJob,
    ScenarioGrid,
    ScenarioSpec,
    SummarySchemaError,
    WorkerCrashError,
    execute_job,
    execute_job_with_records,
)
from repro.experiments.fig01_motivation import run_fig01
from repro.experiments.fig02_hardware import run_fig02
from repro.experiments.fig03_tradeoff import run_fig03
from repro.experiments.fig04_oracle_gap import run_fig04
from repro.experiments.fig07_effectiveness import run_fig07
from repro.experiments.fig08_cdf import run_fig08
from repro.experiments.fig09_single_gen import run_fig09
from repro.experiments.fig10_dpso_ablation import run_fig10
from repro.experiments.fig11_warmpool import run_fig11
from repro.experiments.fig12_static import run_fig12
from repro.experiments.fig13_pairs import run_fig13
from repro.experiments.fig14_regions import run_fig14
from repro.experiments.sens_embodied import (
    run_component_sensitivity,
    run_embodied_sensitivity,
)
from repro.experiments.sens_optimizers import run_optimizer_comparison
from repro.experiments.sens_overhead import run_overhead
from repro.experiments.sens_workloads import run_workload_sensitivity

#: Experiment id -> zero-config driver. Drivers also accept an explicit
#: Scenario for scaled-down runs (used by the benchmark harness).
EXPERIMENTS = {
    "fig1": run_fig01,
    "fig2": run_fig02,
    "fig3": run_fig03,
    "fig4": run_fig04,
    "fig7": run_fig07,
    "fig8": run_fig08,
    "fig9": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "optimizers": run_optimizer_comparison,
    "overhead": run_overhead,
    "embodied": run_embodied_sensitivity,
    "components": run_component_sensitivity,
    "workloads": run_workload_sensitivity,
}

__all__ = [
    "Scenario",
    "default_scenario",
    "workload_scenario",
    "trace_scenario",
    "quick_scenario",
    "run_scheduler",
    "run_suite",
    "EXPERIMENTS",
    "ScenarioSpec",
    "ScenarioGrid",
    "RunnerJob",
    "ResultSummary",
    "ResultCache",
    "ParallelRunner",
    "GridResult",
    "SummarySchemaError",
    "WorkerCrashError",
    "register_scheduler",
    "unregister_scheduler",
    "list_schedulers",
    "is_registered",
    "scheduler_factory",
    "create_scheduler",
    "execute_job",
    "execute_job_with_records",
    "run_fig01",
    "run_fig02",
    "run_fig03",
    "run_fig04",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_optimizer_comparison",
    "run_overhead",
    "run_embodied_sensitivity",
    "run_component_sensitivity",
    "run_workload_sensitivity",
]
