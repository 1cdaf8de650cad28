"""EcoLife configuration.

Defaults follow the paper's Sec. V setup: equal optimization weights
(lambda_s = lambda_c = 0.5), 15 particles, w in [0.5, 1], c1/c2 in
[0.3, 1]. The ablation flags (``use_dynamic_pso``,
``use_warm_pool_adjustment``) and the ``optimizer`` selector exist because
the paper evaluates exactly those variants (Figs. 10-12 and the in-text
GA/SA comparison).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.hardware.specs import GENERATIONS, Generation
from repro.optimizers.dynamic_pso import DPSOParams


class OptimizerKind(enum.Enum):
    """Which meta-heuristic drives the KDM."""

    PSO = "pso"
    GENETIC = "ga"
    ANNEALING = "sa"


@dataclass(frozen=True)
class EcoLifeConfig:
    """All knobs of the EcoLife scheduler."""

    # Objective weights (paper: equal weights).
    lambda_s: float = 0.5
    lambda_c: float = 0.5
    # PSO setup.
    n_particles: int = 15
    iterations_per_invocation: int = 8
    dpso: DPSOParams = field(default_factory=DPSOParams)
    use_dynamic_pso: bool = True
    #: Vanilla-PSO weights used when ``use_dynamic_pso`` is off (midpoints
    #: of the paper's ranges).
    vanilla_omega: float = 0.75
    vanilla_c: float = 0.65
    # Warm-pool adjustment (Fig. 6) ablation switch.
    use_warm_pool_adjustment: bool = True
    #: Weight adjustment priorities by the probability the function arrives
    #: before its container expires (extension over the paper's raw
    #: cold-vs-warm benefit score; disable for the paper-literal ranking).
    adjustment_arrival_weighting: bool = True
    # Arrival estimation.
    arrival_history: int = 64
    prior_mean_iat_s: float = 600.0
    prior_strength: float = 2.0
    # Search space: which generations may host keep-alive/execution.
    locations: tuple[Generation, ...] = GENERATIONS
    # KDM optimizer backend (GA/SA exist for the in-text comparison).
    optimizer: OptimizerKind = OptimizerKind.PSO
    # State retirement under function churn (both default off = today's
    # unbounded per-function state). Retirement archives a function's
    # optimizer/swarm state (including its RNG stream state), arrival
    # estimator, and perception scalars, and rehydrates them on the
    # function's next appearance -- decisions are bit-identical either
    # way; the knobs only bound live memory.
    #: Retire a function's scheduler state once it has made no decision
    #: for this many seconds. ``None`` disables idle retirement.
    retire_after_s: float | None = None
    #: Soft cap on live per-function optimizer states: the idle sweep
    #: retires the longest-idle functions past it (new grouped
    #: functions may transiently overshoot by one batch). Size it above
    #: the expected *active* working set: a cap below it stays
    #: bit-identical but degenerates into archive/rehydrate thrashing on
    #: every decision round (classic LRU behaviour when capacity <
    #: working set), costing replay throughput. ``None`` = uncapped.
    max_live_swarms: int | None = None
    # Determinism: each function's swarm draws from its own
    # ``np.random.Generator`` stream, seeded from this root and the
    # function's name.
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.lambda_s < 0.0 or self.lambda_c < 0.0:
            raise ValueError("lambda weights must be >= 0")
        if self.lambda_s + self.lambda_c == 0.0:
            raise ValueError("at least one lambda weight must be positive")
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.iterations_per_invocation < 1:
            raise ValueError("iterations_per_invocation must be >= 1")
        if not self.locations:
            raise ValueError("locations must be non-empty")
        if self.arrival_history < 2:
            raise ValueError("arrival_history must be >= 2")
        if self.prior_mean_iat_s <= 0.0:
            raise ValueError("prior_mean_iat_s must be > 0")
        if self.retire_after_s is not None and self.retire_after_s <= 0.0:
            raise ValueError("retire_after_s must be > 0 (or None)")
        if self.max_live_swarms is not None and self.max_live_swarms < 1:
            raise ValueError("max_live_swarms must be >= 1 (or None)")

    @property
    def retirement_enabled(self) -> bool:
        """Whether any state-retirement knob is active."""
        return self.retire_after_s is not None or self.max_live_swarms is not None

    # -- variant constructors (the paper's named schemes) -------------------

    def without_dpso(self) -> "EcoLifeConfig":
        """EcoLife w/o DPSO (Fig. 10 ablation)."""
        return replace(self, use_dynamic_pso=False)

    def without_adjustment(self) -> "EcoLifeConfig":
        """EcoLife w/o warm-pool adjustment (Fig. 11 ablation)."""
        return replace(self, use_warm_pool_adjustment=False)

    def single_generation(self, generation: Generation) -> "EcoLifeConfig":
        """Eco-Old / Eco-New (Fig. 12): one generation for everything."""
        return replace(self, locations=(generation,))

    def with_optimizer(self, kind: OptimizerKind) -> "EcoLifeConfig":
        """GA-/SA-driven KDM for the in-text optimizer comparison."""
        return replace(self, optimizer=kind)
