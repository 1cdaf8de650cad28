"""Warm-pool adjustment (paper Sec. IV-C "Warm Pool Adjustment", Fig. 6).

When a pool runs out of memory, EcoLife ranks every function already kept
alive *plus* the one about to be kept alive by a priority score: "the
difference in service time and carbon footprint between cold start and warm
start", i.e. the benefit the warm container provides if the function is
invoked again::

    score = lambda_s * (S_cold - S_warm) / S_f_max
          + lambda_c * (SC_cold - SC_warm) / SC_f_max

The engine then packs the pool greedily in score order; losers are spilled
to the other generation's pool when space allows ("evicted function is kept
warm in the other generation's memory if there is enough space").

On top of the paper's score we weight each candidate by the probability
that its function actually arrives before the container expires (estimated
from the function's inter-arrival history). A warm container that will
never be hit has no realisable benefit; this keeps the pool packed with
containers that convert memory into avoided cold starts. The weighting can
be disabled via ``EcoLifeConfig.adjustment_arrival_weighting`` to recover
the paper-literal ranking.

A request is scored in one pass: one CI read, the benefit terms from the
pool generation's column of every candidate's packed
:class:`~repro.core.objective.FunctionCostVectors`, and every arrival
mass from one :meth:`~repro.core.arrival.ArrivalRegistry.p_warm_each`
call. ``tests/test_core_adjustment.py`` checks it against the scalar
per-candidate ranker in ``tests/oracles/adjustment.py``.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.core.arrival import ArrivalRegistry
from repro.core.config import EcoLifeConfig
from repro.core.objective import CostModel, FunctionCostVectors
from repro.simulator.scheduler import AdjustmentRequest, PoolCandidate, SchedulerEnv


class WarmPoolAdjuster:
    """Score-based priority ranking for pool packing."""

    def __init__(
        self,
        env: SchedulerEnv,
        config: EcoLifeConfig,
        costs: CostModel,
        arrivals: ArrivalRegistry | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.costs = costs
        self.arrivals = arrivals

    def priorities(self, req: AdjustmentRequest) -> np.ndarray:
        """Expected realisable keep-alive benefit of every candidate.

        ``req.generation`` must be one of ``config.locations``: pools
        only overflow when a keep-alive decision's container activates,
        and the KDM decides among those locations.
        """
        cfg = self.config
        costs = self.costs
        cands = req.candidates
        ci = self.env.ci_at(req.t)
        ci_norm = max(ci, 1e-12)
        col = cfg.locations.index(req.generation)
        packed_rows: list[np.ndarray] = []
        norm_rows: list[tuple[float, float, float]] = []
        for c in cands:
            packed_rows.append(costs.vectors(c.func).packed)
            norm_rows.append(costs.normalisers(c.func, ci_norm))
        # (n, 8): the pool generation's column of each packed array.
        packed = np.array(packed_rows)[:, :, col]
        norms = np.array(norm_rows)
        fcv = FunctionCostVectors
        sc = (
            units.operational_carbon_g(packed[:, fcv.ENERGY], ci)
            + packed[:, fcv.EMBODIED]
        )
        ds = packed[:, fcv.S_COLD] - packed[:, fcv.S_WARM]
        dsc = sc[:, fcv.COLD] - sc[:, fcv.WARM]
        score = cfg.lambda_s * ds / norms[:, 0] + cfg.lambda_c * dsc / norms[:, 1]
        if self.arrivals is None or not cfg.adjustment_arrival_weighting:
            return score
        # P(the function arrives while its container is still warm).
        remaining = [max(c.expire_s - req.t, 0.0) for c in cands]
        return score * self.arrivals.p_warm_each([c.name for c in cands], remaining)

    def rank(self, req: AdjustmentRequest) -> list[PoolCandidate]:
        """Candidates ordered by descending expected keep-alive benefit.

        Deterministic tie-breaks: smaller memory footprint first (fits more
        functions), then name.
        """
        cands = req.candidates
        order = sorted(
            (-p, c.mem_gb, c.name, i)
            for i, (p, c) in enumerate(zip(self.priorities(req).tolist(), cands))
        )
        return [cands[key[-1]] for key in order]
