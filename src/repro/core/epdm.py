"""Execution Placement Decision Maker (EPDM, paper Sec. IV-D).

If the function is warm on some hardware, execute it there (no cold start);
if it is warm on both, pick the better warm ``fscore``. Otherwise choose
the cold execution location minimising::

    fscore = lambda_s * S_r / S_f_max + lambda_c * SC_r / SC_max

Both scores read the function's cached packed costs
(:class:`~repro.core.objective.FunctionCostVectors`) and price only the
row they score through :func:`~repro.core.objective.price`. The cold
choice is :func:`~repro.core.objective.cold_choice`, the same expression
that prices the KDM objective table's cold fallback. A function warm on
exactly one location is placed there without reading the intensity.
"""

from __future__ import annotations

from repro.core.config import EcoLifeConfig
from repro.core.objective import (
    CostModel,
    FunctionCostVectors,
    cold_choice,
    current_normalisers,
    price,
)
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
        cfg = self.config
        fcv = FunctionCostVectors
        ci = self.env.ci_at(t)
        packed = self.costs.vectors(func).packed
        sc_cold = price(packed, ci, fcv.COLD)
        if not warm_locations:
            return cfg.locations[int(cold_choice(cfg, packed, ci, sc_cold)[0])]
        s_max, sc_max = current_normalisers(packed, ci, sc_cold)
        scores = (
            cfg.lambda_s * packed[fcv.S_WARM] / s_max
            + cfg.lambda_c * price(packed, ci, fcv.WARM) / sc_max
        )
        by_location = dict(zip(cfg.locations, scores.tolist()))
        # A warm location outside config.locations is never preferred.
        return min(warm_locations, key=lambda g: by_location.get(g, float("inf")))
