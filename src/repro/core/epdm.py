"""Execution Placement Decision Maker (EPDM, paper Sec. IV-D).

If the function is warm on some hardware, execute it there (no cold start);
if it is warm on both, pick the better warm ``fscore``. Otherwise choose
the cold execution location minimising::

    fscore = lambda_s * S_r / S_f_max + lambda_c * SC_r / SC_max

Both scores are one vector expression over the function's cached
per-location costs (:class:`~repro.core.objective.FunctionCostVectors`);
the cold choice is :meth:`~repro.core.objective.CostModel.best_cold`,
the same fallback the KDM's objective table prices.
"""

from __future__ import annotations

from repro.core.config import EcoLifeConfig
from repro.core.objective import CostModel
from repro.hardware.specs import Generation
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads.functions import FunctionProfile


class ExecutionPlacementDecisionMaker:
    """Chooses where each invocation executes."""

    def __init__(self, env: SchedulerEnv, config: EcoLifeConfig, costs: CostModel) -> None:
        self.env = env
        self.config = config
        self.costs = costs

    def choose(
        self,
        func: FunctionProfile,
        t: float,
        warm_locations: tuple[Generation, ...],
    ) -> Generation:
        """Pick the execution location for one invocation."""
        if len(warm_locations) == 1:
            return warm_locations[0]
        ci = self.env.ci_at(t)
        if not warm_locations:
            return self.costs.best_cold(func, ci)[0]
        v = self.costs.vectors(func)
        s_max, sc_max = self.costs.normalisers(func, max(ci, 1e-12))[:2]
        scores = (
            self.config.lambda_s * v.s_warm / s_max
            + self.config.lambda_c * v.sc_warm(ci) / sc_max
        )
        by_location = dict(zip(self.config.locations, scores.tolist()))
        # A warm location outside config.locations is never preferred.
        return min(warm_locations, key=lambda g: by_location.get(g, float("inf")))
