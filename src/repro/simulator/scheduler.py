"""Scheduler interface: what the engine asks, what schedulers may observe.

The engine consults a scheduler at three points:

1. :meth:`BaseScheduler.place` -- where to execute an arriving invocation.
   Per the paper's EPDM, if the function is warm somewhere the engine expects
   the scheduler to pick a warm location (warm placements never pay a cold
   start); all shipped schedulers do.
2. :meth:`BaseScheduler.keepalive_batch` -- after execution: where and for
   how long to keep each function of a decision group alive (the KDM
   decision). The base class loops over :meth:`BaseScheduler.keepalive`;
   EcoLife steps the whole group through one batched swarm kernel.
3. :meth:`BaseScheduler.rank_keepalive_candidates` -- when a pool overflows:
   a priority order over incumbents + the incoming container. The engine
   packs the pool greedily in that order, spills the rest to the other
   generation (if the scheduler allows it) and drops what still does not
   fit. This is exactly the mechanical part of the paper's warm-pool
   adjustment (Fig. 6); EcoLife supplies the score-based ranking.

Schedulers observe the world through :class:`SchedulerEnv`: current carbon
intensity, recent invocation rate, pool occupancy, hardware pair, carbon
model, and -- only for oracle schedulers that declare
``requires_lookahead`` -- the trace's next-arrival index.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro import units
from repro.carbon.footprint import CarbonModel
from repro.carbon.intensity import CarbonIntensityTrace
from repro.hardware.power import EnergyModel
from repro.hardware.specs import GENERATIONS, Generation, HardwarePair, ServerSpec
from repro.simulator.containers import WarmContainer, WarmPool
from repro.simulator.records import InvocationRecord, KeepAliveDecision
from repro.workloads.functions import FunctionProfile


class ArrivalView(Protocol):
    """What the env needs from an arrival source.

    :class:`~repro.workloads.trace.InvocationTrace` satisfies this for
    replays; the online service substitutes a live arrival log that
    answers the same trailing-rate query over the arrivals observed so
    far (and refuses lookahead, which only replayed oracles may use).
    """

    def rate_per_minute(self, t: float, window_s: float = 60.0) -> float:
        """Arrivals per minute over the trailing window ending at ``t``."""
        ...

    def next_arrival(self, name: str, after_t: float) -> float | None:
        """Next invocation of ``name`` strictly after ``after_t``."""
        ...


@dataclass(frozen=True)
class PlacementRequest:
    """An invocation needing an execution location."""

    t: float
    func: FunctionProfile
    warm_locations: tuple[Generation, ...]
    invocation_index: int


@dataclass(frozen=True)
class KeepAliveRequest:
    """A completed execution needing a keep-alive decision.

    ``t_end`` is when the decision takes effect (execution completion).
    """

    t_end: float
    func: FunctionProfile
    record: InvocationRecord
    executed_on: Generation
    was_cold: bool


@dataclass(frozen=True)
class PoolCandidate:
    """One candidate in a warm-pool adjustment: incumbent or incoming."""

    func: FunctionProfile
    expire_s: float
    is_incoming: bool
    container: WarmContainer | None = None

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def mem_gb(self) -> float:
        return self.func.mem_gb


@dataclass(frozen=True)
class AdjustmentRequest:
    """A pool overflow needing a priority ranking."""

    t: float
    generation: Generation
    candidates: tuple[PoolCandidate, ...]
    capacity_gb: float


class SchedulerEnv:
    """Read-only view of the simulated world handed to schedulers."""

    def __init__(
        self,
        pair: HardwarePair,
        carbon_model: CarbonModel,
        energy_model: EnergyModel,
        pools: dict[Generation, WarmPool],
        trace: ArrivalView,
        setup_delay_s: float,
        kmax_s: float,
        k_step_s: float,
        allow_lookahead: bool = False,
    ) -> None:
        self.pair = pair
        self.carbon_model = carbon_model
        self.energy_model = energy_model
        self._pools = pools
        self._trace = trace
        self.setup_delay_s = setup_delay_s
        self.kmax_s = kmax_s
        self.k_step_s = k_step_s
        n = int(np.floor(kmax_s / k_step_s + 0.5))
        self._k_grid = np.minimum(np.arange(n + 1, dtype=float) * k_step_s, kmax_s)
        self._k_grid.flags.writeable = False
        self._allow_lookahead = allow_lookahead
        self._ci_trace: CarbonIntensityTrace = carbon_model.trace

    # -- hardware / carbon -----------------------------------------------------

    def retarget_carbon(self, carbon_model: CarbonModel) -> None:
        """Swap in a refreshed carbon model (live-feed updates).

        The online service calls this when its intensity provider
        delivers new forecast knots: the env starts reading the new
        trace (``ci_max_observed`` stays causal -- the running max is
        taken over the refreshed knots, which extend rather than rewrite
        the observed past; see ``IntensityRing`` append rules).
        """
        self.carbon_model = carbon_model
        self._ci_trace = carbon_model.trace

    def server(self, gen: Generation) -> ServerSpec:
        """The server on one side of the pair."""
        return self.pair.server(gen)

    def ci_at(self, t: float) -> float:
        """Current carbon intensity (g/kWh)."""
        return self._ci_trace.at(t)

    def ci_max_observed(self, t: float) -> float:
        """Maximum CI observed up to ``t`` (causal; used for normalisation)."""
        return self._ci_trace.at_and_max(t)[1]

    def ci_pair(self, t: float) -> tuple[float, float]:
        """``(ci_at(t), ci_max_observed(t))`` from one knot lookup.

        The KDM reads both once per decision: the current intensity feeds
        its perception delta and the objective, the running max the
        objective's reference normalisers.
        """
        return self._ci_trace.at_and_max(t)

    # -- workload observations ---------------------------------------------------

    def rate_per_minute(self, t: float, window_s: float = 60.0) -> float:
        """System-wide invocation arrival rate over the trailing window."""
        return self._trace.rate_per_minute(t, window_s)

    # -- warm pools ---------------------------------------------------------------

    def warm_locations(self, name: str) -> tuple[Generation, ...]:
        return tuple(g for g in GENERATIONS if name in self._pools[g])

    # -- keep-alive search space ------------------------------------------------

    def keepalive_grid_s(self) -> np.ndarray:
        """The discrete keep-alive period set K_AT (seconds), including 0.

        Cell ``j`` is ``min(j * step, k_max)`` for ``j`` up to
        ``floor(k_max / step + 0.5)``: exactly the periods a KDM position
        decodes to (``ObjectiveBuilder.decode_cells``), so a K_max that is
        not a multiple of the step keeps its clipped top cell and nothing
        above it. Built once at construction; the array is read-only.
        """
        return self._k_grid

    # -- oracle lookahead ----------------------------------------------------------

    def next_arrival(self, name: str, after_t: float) -> float | None:
        """Next invocation of ``name`` strictly after ``after_t``.

        Only available to schedulers that declared ``requires_lookahead``;
        anything else asking for the future is a bug.
        """
        if not self._allow_lookahead:
            raise PermissionError(
                "lookahead is reserved for oracle schedulers "
                "(set requires_lookahead = True)"
            )
        return self._trace.next_arrival(name, after_t)


class BaseScheduler(abc.ABC):
    """Abstract scheduler; see module docstring for the protocol."""

    #: Display name used in results and reports.
    name: str = "base"
    #: Oracles set this to gain access to SchedulerEnv.next_arrival.
    requires_lookahead: bool = False
    #: Whether adjustment may spill evicted containers to the other pool.
    allow_spill: bool = True

    def __init__(self) -> None:
        self.env: SchedulerEnv | None = None

    def bind(self, env: SchedulerEnv) -> None:
        """Called once by the engine before the run starts."""
        self.env = env

    # -- decision points --------------------------------------------------------

    @abc.abstractmethod
    def place(self, req: PlacementRequest) -> Generation:
        """Choose the execution location (EPDM)."""

    @abc.abstractmethod
    def keepalive(self, req: KeepAliveRequest) -> KeepAliveDecision:
        """Choose keep-alive location and period (KDM)."""

    def keepalive_batch(
        self, reqs: Sequence[KeepAliveRequest]
    ) -> list[KeepAliveDecision]:
        """Keep-alive decisions for one lookahead group of arrivals.

        The engine's only keep-alive entry point. It calls this with
        requests from *distinct* functions, all placed before the
        earliest of their completion times (see
        ``SimulationEngine._grouped_steps``), whose decisions are
        therefore order-independent -- a single request is a group of
        one. The default loops over :meth:`keepalive`; EcoLife overrides
        it to step all the functions' swarms through one batched fleet
        kernel.
        """
        return [self.keepalive(req) for req in reqs]

    def on_container_expired(
        self, name: str, generation: Generation, t: float
    ) -> None:
        """Notification: a warm container reached its expiry untouched.

        Delivered for genuine expiries only (not warm hits, moves, or
        evictions); the default does nothing. This is bookkeeping, not a
        decision point: implementations must not change any scheduling
        outcome from here -- EcoLife uses it to trigger bit-identical
        state-retirement sweeps during quiet periods when no decisions
        arrive.
        """

    def rank_keepalive_candidates(
        self, req: AdjustmentRequest
    ) -> list[PoolCandidate]:
        """Priority order (highest first) for warm-pool packing on overflow.

        Default policy (used by the fixed-keep-alive baselines): keep the
        containers that will stay warm the longest -- i.e. the most recently
        invoked ones, which is OpenWhisk-style LRU eviction -- and treat the
        incoming container as most recent.
        """
        return sorted(
            req.candidates,
            key=lambda c: (c.is_incoming, c.expire_s),
            reverse=True,
        )


DEFAULT_KEEPALIVE_S = 10.0 * units.SECONDS_PER_MINUTE
"""OpenWhisk's fixed 10-minute keep-alive, used by the *-Only baselines."""
