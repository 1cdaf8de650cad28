"""Decision-making overhead (paper Sec. VI-A).

The paper deploys the PSO controller on a 16-core Intel Skylake-SP node and
reports EcoLife's decision overhead at "less than 0.4% of service time, and
1.2% of carbon footprint". We measure real wall-clock time spent inside
EcoLife's decision methods during the trace replay, and convert it to
carbon with a controller power model.

Unlike the other multi-run drivers this one deliberately stays off the
``ParallelRunner`` path: it is a single replay whose *measurement* is the
wall clock itself, which process-pool scheduling would distort.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Scenario, default_scenario, run_scheduler
from repro.experiments.registry import create_scheduler

#: Controller node (Sec. V): Intel Skylake-SP, 16 cores, 64 GB.
CONTROLLER_POWER_W = 150.0


@dataclass(frozen=True)
class OverheadResult:
    total_decision_wall_s: float
    total_service_s: float
    decision_carbon_g: float
    total_carbon_g: float
    mean_decision_ms: float
    scenario_label: str

    @property
    def service_overhead_pct(self) -> float:
        """Decision wall time as % of cumulative service time (paper <0.4%)."""
        return self.total_decision_wall_s / self.total_service_s * 100.0

    @property
    def carbon_overhead_pct(self) -> float:
        """Controller carbon as % of workload carbon (paper <1.2%)."""
        return self.decision_carbon_g / self.total_carbon_g * 100.0

    def render(self) -> str:
        return "\n".join(
            [
                f"Decision overhead ({self.scenario_label})",
                f"  mean decision latency : {self.mean_decision_ms:.3f} ms",
                f"  total decision time   : {self.total_decision_wall_s:.3f} s "
                f"({self.service_overhead_pct:.3f}% of service time; paper <0.4%)",
                f"  controller carbon     : {self.decision_carbon_g:.4f} g "
                f"({self.carbon_overhead_pct:.3f}% of workload carbon; paper <1.2%)",
            ]
        )


def run_overhead(scenario: Scenario | None = None) -> OverheadResult:
    """Measure EcoLife's wall-clock decision overhead during replay."""
    scenario = scenario or default_scenario()
    res = run_scheduler(create_scheduler("ecolife"), scenario)
    wall = res.total_decision_wall_s
    mean_ci = scenario.ci_trace.mean(0.0, max(scenario.trace.duration_s, 1.0))
    decision_carbon = CONTROLLER_POWER_W * wall / 3600.0 * mean_ci / 1000.0
    return OverheadResult(
        total_decision_wall_s=wall,
        total_service_s=res.total_service_s,
        decision_carbon_g=decision_carbon,
        total_carbon_g=res.total_carbon_g,
        mean_decision_ms=wall / max(len(res), 1) * 1000.0,
        scenario_label=scenario.label,
    )
