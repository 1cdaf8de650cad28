"""Event-driven serverless simulation engine.

The engine replays an :class:`~repro.workloads.trace.InvocationTrace`
against a two-generation cluster, consulting a scheduler for execution
placement and keep-alive decisions, and charging carbon with the shared
:class:`~repro.carbon.footprint.CarbonModel`. It is the single accounting
implementation used by EcoLife, every baseline, and every oracle -- which is
what makes the paper's "% increase w.r.t. X-Opt" comparisons meaningful.

Semantics (matching the paper's Sec. II/IV framing):

- An invocation starts **warm** if its function sits in a warm pool at
  arrival (no cold-start overhead); the pool entry is consumed and its
  keep-alive segment is closed and billed.
- After execution the scheduler's KDM decides (location, keep-alive period);
  the container then occupies pool memory until a warm hit, its expiry, or
  an eviction caused by warm-pool adjustment.
- On pool overflow the scheduler ranks incumbents + the incoming container;
  the engine packs greedily in that order, spills losers to the other pool
  (if allowed and they fit) and drops the rest.
- Keep-alive carbon is attributed to the invocation that decided it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable

from repro import units
from repro.carbon.footprint import CarbonModel
from repro.carbon.intensity import CarbonIntensityTrace
from repro.hardware.power import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.hardware.specs import GENERATIONS, Generation, HardwarePair
from repro.simulator.containers import WarmContainer, WarmPool
from repro.simulator.records import (
    InvocationRecord,
    KeepAliveDecision,
    SimulationResult,
)
from repro.simulator.scheduler import (
    AdjustmentRequest,
    ArrivalView,
    BaseScheduler,
    KeepAliveRequest,
    PlacementRequest,
    PoolCandidate,
    SchedulerEnv,
)
from repro.workloads.functions import FunctionProfile
from repro.workloads.trace import InvocationTrace

#: One arrival for the incremental stepping API: (time, function).
Arrival = tuple[float, FunctionProfile]


@dataclass(frozen=True)
class SimulationConfig:
    """Engine knobs shared by all experiments."""

    #: Keep-alive memory capacity per generation (GB). The paper's Fig. 11
    #: sweeps this ("old/new" combinations); oracles run uncapped.
    pool_capacity_old_gb: float = 32.0
    pool_capacity_new_gb: float = 32.0
    #: Fixed scheduling/setup delay added to every service time.
    setup_delay_s: float = 0.05
    #: Upper bound of the keep-alive search space K_AT.
    kmax_minutes: float = 30.0
    #: Quantisation of K_AT (the paper works at minute granularity).
    k_step_s: float = 60.0
    #: Record wall-clock decision overhead per invocation.
    measure_decision_overhead: bool = True

    def __post_init__(self) -> None:
        units.require_non_negative(self.pool_capacity_old_gb, "pool_capacity_old_gb")
        units.require_non_negative(self.pool_capacity_new_gb, "pool_capacity_new_gb")
        units.require_non_negative(self.setup_delay_s, "setup_delay_s")
        units.require_positive(self.kmax_minutes, "kmax_minutes")
        units.require_positive(self.k_step_s, "k_step_s")

    @property
    def kmax_s(self) -> float:
        return units.minutes(self.kmax_minutes)

    def capacity(self, gen: Generation) -> float:
        return (
            self.pool_capacity_old_gb
            if gen is Generation.OLD
            else self.pool_capacity_new_gb
        )

    def uncapped(self) -> "SimulationConfig":
        """Copy with unlimited pool memory (used by the oracle solutions)."""
        import dataclasses
        import math

        return dataclasses.replace(
            self,
            pool_capacity_old_gb=math.inf,
            pool_capacity_new_gb=math.inf,
        )


class SimulationEngine:
    """Replays one trace with one scheduler. Engines are single-use."""

    def __init__(
        self,
        pair: HardwarePair,
        trace: InvocationTrace | ArrivalView,
        ci_trace: CarbonIntensityTrace,
        config: SimulationConfig | None = None,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ) -> None:
        self.pair = pair
        self.trace = trace
        self.config = config or SimulationConfig()
        self.carbon_model = CarbonModel(trace=ci_trace, energy_model=energy_model)
        self.pools: dict[Generation, WarmPool] = {
            g: WarmPool(generation=g, capacity_gb=self.config.capacity(g))
            for g in GENERATIONS
        }
        self.records: list[InvocationRecord] = []
        # Deferred-event heap: (time, priority, key, kind, payload).
        # Activations (a container becoming warm at execution end) sort
        # before expiries at equal timestamps via their priority. The
        # tiebreaker key is an activation's decider index or an expiry's
        # own counter; both equal push order (decisions finish in
        # record-index order, expiries are scheduled in pop order). The
        # service checkpoint stores both counters, so a restored engine
        # keys its events exactly as the uninterrupted one does.
        self._events: list[tuple[float, int, int, str, object]] = []
        self._expiry_seq = 0
        #: Invocation counter: the index of the next record.
        self._next_index = 0
        self._token = 0
        self._ran = False
        self._scheduler: BaseScheduler | None = None
        self._env: SchedulerEnv | None = None
        self._horizon = 0.0
        self._wall_start = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, scheduler: BaseScheduler) -> SimulationResult:
        """Replay the full trace and return the aggregated result."""
        if not isinstance(self.trace, InvocationTrace):
            raise TypeError(
                "run() replays an InvocationTrace; feed live arrival "
                "sources through start()/step_batch()/finish()"
            )
        self.start(scheduler)
        self.step_batch((inv.t, inv.func) for inv in self.trace)
        return self.finish()

    def start(self, scheduler: BaseScheduler) -> None:
        """Bind a scheduler and open the engine for incremental stepping.

        ``run()`` is ``start()`` + one full-trace ``step_batch()`` +
        ``finish()``; the online decision service drives the same three
        entry points with arrivals from the network instead. Engines
        remain single-use either way.
        """
        if self._ran:
            raise RuntimeError("SimulationEngine instances are single-use")
        self._ran = True

        env = SchedulerEnv(
            pair=self.pair,
            carbon_model=self.carbon_model,
            energy_model=self.carbon_model.energy_model,
            pools=self.pools,
            trace=self.trace,
            setup_delay_s=self.config.setup_delay_s,
            kmax_s=self.config.kmax_s,
            k_step_s=self.config.k_step_s,
            allow_lookahead=scheduler.requires_lookahead,
        )
        scheduler.bind(env)
        self._scheduler = scheduler
        self._env = env
        self._horizon = 0.0
        # ecolint: disable=ECO002 -- wall_time_s is telemetry only; deterministic_dict() excludes it from replay-compared outputs
        self._wall_start = time.perf_counter()

    def step_batch(self, arrivals: Iterable[Arrival]) -> list[InvocationRecord]:
        """Process time-ordered arrivals incrementally; returns their records.

        Identical decision semantics to ``run()``: lookahead grouping
        (any staged group is flushed before this call returns, so callers
        always see completed decisions). Stepping boundaries never change
        decisions -- the grouping contract guarantees composition
        independence (see ``_grouped_steps``).
        """
        scheduler = self._require_started()
        first = len(self.records)
        self._horizon = max(self._horizon, self._grouped_steps(scheduler, arrivals))
        return self.records[first:]

    def step_arrival(self, t: float, func: FunctionProfile) -> InvocationRecord:
        """Process one arrival; returns its completed record."""
        return self.step_batch([(t, func)])[0]

    def finish(self) -> SimulationResult:
        """Drain every outstanding event and aggregate the result."""
        scheduler = self._require_started()
        self._drain_events(until=float("inf"))
        if any(len(self.pools[g]) for g in GENERATIONS):  # pragma: no cover
            raise RuntimeError("pools not empty after final drain")
        # ecolint: disable=ECO002 -- closes the telemetry-only wall_time_s measurement started in start()
        wall = time.perf_counter() - self._wall_start

        return SimulationResult(
            scheduler_name=scheduler.name,
            records=self.records,
            horizon_s=self._horizon,
            wall_time_s=wall,
        )

    def update_ci_trace(self, ci_trace: CarbonIntensityTrace) -> None:
        """Point the engine (and the bound scheduler) at a refreshed trace.

        Safe mid-run: decisions read intensity through the env at query
        time, cost-model caches are CI-independent (intensity is applied
        per query), and the providers only ever extend or revise knots
        at or past the last one -- the observed past stays fixed.
        """
        self.carbon_model = CarbonModel(
            trace=ci_trace, energy_model=self.carbon_model.energy_model
        )
        if self._env is not None:
            self._env.retarget_carbon(self.carbon_model)

    def _require_started(self) -> BaseScheduler:
        if self._scheduler is None:
            raise RuntimeError("call start() before stepping the engine")
        return self._scheduler

    # ------------------------------------------------------------------
    # Invocation pipeline
    # ------------------------------------------------------------------

    def _grouped_steps(
        self, scheduler: BaseScheduler, arrivals: Iterable[Arrival]
    ) -> float:
        """The engine's one stepping loop: exact lookahead keep-alive groups.

        Consecutive invocations of *distinct* functions are placed one by
        one -- each against fully drained pool/event state at its own
        arrival instant (placements interact through the warm pools) --
        and then decided in a single ``keepalive_batch`` call, each
        decision still evaluated at its own ``t_end``. A group closes on
        exactly two triggers:

        - a repeated function name (its second decision depends on its
          first). This also makes arrival-state snapshots unnecessary:
          within a group, a function's estimator history at decision
          time is exactly its history at its own place time;
        - an arrival at or past the earliest staged completion time.
          A staged decision's only world-visible side effect is its
          keep-alive activation at ``t_end``, and events only act when a
          drain passes their timestamp -- so as long as every activation
          enters the heap before the first drain at or beyond its
          ``t_end``, the pops (and thus pool state, warm hits, and
          adjustments) happen in exactly the sequential order.

        A keep-alive decision reads only the environment at its own
        ``t_end`` and its function's private state, so grouping is exact
        for every scheduler: a replay equals the per-arrival one bit for
        bit, and the group width is bounded only by the distinct
        functions arriving within one in-flight service time.
        ``step_batch`` additionally flushes when it returns, so callers
        always see completed decisions. Returns the largest decided
        execution-end time.
        """
        horizon = 0.0
        staged: list[KeepAliveRequest] = []
        names: set[str] = set()
        flush_at = float("inf")  # earliest staged completion
        for t, func in arrivals:
            if func.name in names or t >= flush_at:
                horizon = max(horizon, self._flush_staged(scheduler, staged))
                staged = []
                names = set()
                flush_at = float("inf")
            self._drain_events(until=t)
            req = self._place_and_record(scheduler, t, func)
            staged.append(req)
            names.add(func.name)
            flush_at = min(flush_at, req.t_end)
        if staged:
            horizon = max(horizon, self._flush_staged(scheduler, staged))
        return horizon

    def _flush_staged(
        self, scheduler: BaseScheduler, staged: list[KeepAliveRequest]
    ) -> float:
        """Decide and admit keep-alive for one placed decision group."""
        decisions, wall = self._timed(scheduler.keepalive_batch, staged)
        share = wall / len(staged)
        t_last = 0.0
        for req, decision in zip(staged, decisions):
            t_last = max(
                t_last, self._finish_decision(scheduler, req, decision, share)
            )
        return t_last

    def _finish_decision(
        self,
        scheduler: BaseScheduler,
        req: KeepAliveRequest,
        decision: KeepAliveDecision,
        wall_s: float,
    ) -> float:
        """Record one keep-alive decision and admit its container."""
        req.record.decision_wall_s += wall_s
        req.record.keepalive_decision = decision
        if decision.duration_s > 0.0:
            self._admit_keepalive(
                scheduler, req.func, decision, req.t_end, req.record
            )
        return req.t_end

    def _place_and_record(
        self, scheduler: BaseScheduler, t: float, func: FunctionProfile
    ) -> KeepAliveRequest:
        """Place one invocation, bill its service, and stage the KDM ask."""
        warm_locations = tuple(
            g for g in GENERATIONS if func.name in self.pools[g]
        )

        placement, wall_place = self._timed(
            scheduler.place,
            PlacementRequest(
                t=t,
                func=func,
                warm_locations=warm_locations,
                invocation_index=self._next_index,
            ),
        )

        cold = placement not in warm_locations
        if not cold:
            hit = self.pools[placement].remove(func.name)
            self._close_segment(hit, t)

        server = self.pair.server(placement)
        overhead = func.cold_overhead_s(server) if cold else 0.0
        busy = self.config.setup_delay_s + func.exec_time_s(server)
        service_carbon = self.carbon_model.service(
            server, func.mem_gb, t, busy, overhead
        )
        service_energy = self.carbon_model.service_energy_wh(
            server, func.mem_gb, busy, overhead
        )
        record = InvocationRecord(
            index=self._next_index,
            t=t,
            func_name=func.name,
            mem_gb=func.mem_gb,
            location=placement,
            cold=cold,
            setup_s=self.config.setup_delay_s,
            cold_overhead_s=overhead,
            exec_s=func.exec_time_s(server),
            service_carbon=service_carbon,
            service_energy_wh=service_energy,
            decision_wall_s=wall_place,
        )
        self._next_index += 1
        self.records.append(record)
        return KeepAliveRequest(
            t_end=t + record.service_s,
            func=func,
            record=record,
            executed_on=placement,
            was_cold=cold,
        )

    def _admit_keepalive(
        self,
        scheduler: BaseScheduler,
        func: FunctionProfile,
        decision: KeepAliveDecision,
        t: float,
        record: InvocationRecord,
    ) -> None:
        """Defer container activation to the execution end time ``t``.

        The decision is made while processing the invocation *arrival*
        event, but the container only becomes warm (and only starts to
        occupy memory / accrue carbon) once the execution completes --
        other invocations may arrive in between.
        """
        container = WarmContainer(
            func=func,
            location=decision.location,
            segment_start_s=t,
            expire_s=t + decision.duration_s,
            decider_index=record.index,
            token=self._new_token(),
        )
        # Keyed by the decider's index, which equals push order
        # (decisions finish in record-index order).
        heapq.heappush(self._events, (t, 0, record.index, "activate", container))

    def _activate(self, container: WarmContainer) -> None:
        """Make a container warm at its execution-end timestamp."""
        t = container.segment_start_s
        # Replace any stale container of the same function (overlapping runs).
        for gen in GENERATIONS:
            if container.name in self.pools[gen]:
                stale = self.pools[gen].remove(container.name)
                self._close_segment(stale, t)

        pool = self.pools[container.location]
        if pool.fits(container.mem_gb):
            pool.insert(container)
            self._schedule_expiry(container)
            return
        assert self._scheduler is not None
        self._run_adjustment(
            self._scheduler,
            container.location,
            container,
            t,
            self.records[container.decider_index],
        )

    def _run_adjustment(
        self,
        scheduler: BaseScheduler,
        gen: Generation,
        incoming: WarmContainer,
        t: float,
        record: InvocationRecord,
    ) -> None:
        """Overflow path: rank, pack, spill, drop (paper Fig. 6)."""
        pool = self.pools[gen]
        incumbents = pool.containers()
        candidates = tuple(
            [
                PoolCandidate(
                    func=c.func, expire_s=c.expire_s, is_incoming=False, container=c
                )
                for c in incumbents
            ]
            + [
                PoolCandidate(
                    func=incoming.func, expire_s=incoming.expire_s, is_incoming=True
                )
            ]
        )
        request = AdjustmentRequest(
            t=t, generation=gen, candidates=candidates, capacity_gb=pool.capacity_gb
        )
        ranked, wall = self._timed(scheduler.rank_keepalive_candidates, request)
        record.decision_wall_s += wall
        if sorted(c.name for c in ranked) != sorted(c.name for c in candidates):
            raise RuntimeError(
                f"{scheduler.name}: adjustment ranking must be a permutation of "
                "the candidates"
            )

        free = pool.capacity_gb
        kept_names: set[str] = set()
        losers: list[PoolCandidate] = []
        for cand in ranked:
            if cand.mem_gb <= free + 1e-12:
                kept_names.add(cand.name)
                free -= cand.mem_gb
            else:
                losers.append(cand)

        # Evict incumbents that lost their slot.
        for cand in losers:
            if not cand.is_incoming:
                evicted = pool.remove(cand.name)
                self._close_segment(evicted, t)

        # Insert the incoming container if it won a slot.
        if incoming.name in kept_names:
            pool.insert(incoming)
            self._schedule_expiry(incoming)

        # Spill losers to the other generation (no cascading adjustment).
        other_pool = self.pools[gen.other]
        for cand in losers:
            decider_index = (
                incoming.decider_index
                if cand.is_incoming
                else cand.container.decider_index
            )
            decider = record if cand.is_incoming else self.records[decider_index]
            can_spill = (
                scheduler.allow_spill
                and other_pool.fits(cand.mem_gb)
                and cand.name not in other_pool
            )
            if can_spill:
                moved = WarmContainer(
                    func=cand.func,
                    location=gen.other,
                    segment_start_s=t,
                    expire_s=cand.expire_s,
                    decider_index=decider_index,
                    token=self._new_token(),
                )
                other_pool.insert(moved)
                self._schedule_expiry(moved)
                decider.spilled = True
            else:
                decider.evicted = True
                if cand.is_incoming:
                    decider.dropped = True

    # ------------------------------------------------------------------
    # Keep-alive bookkeeping
    # ------------------------------------------------------------------

    def _drain_events(self, until: float) -> None:
        """Process activations and expiries at or before ``until``."""
        while self._events and self._events[0][0] <= until:
            t, _, _, kind, payload = heapq.heappop(self._events)
            if kind == "activate":
                self._activate(payload)
                continue
            name, gen, token = payload
            container = self.pools[gen].get(name)
            if container is None or container.token != token:
                continue  # stale event: warm hit, move, or replacement
            self.pools[gen].remove(name)
            self._close_segment(container, t)
            if self._scheduler is not None:
                self._scheduler.on_container_expired(name, gen, t)

    def _close_segment(self, container: WarmContainer, t_close: float) -> None:
        """Accrue one finished keep-alive segment onto its deciding record."""
        t0 = container.segment_start_s
        if t_close < t0:
            raise RuntimeError(
                f"keep-alive segment for {container.name!r} closes before it opens"
            )
        decider = self.records[container.decider_index]
        server = self.pair.server(container.location)
        carbon = self.carbon_model.keepalive(server, container.mem_gb, t0, t_close)
        energy = self.carbon_model.keepalive_energy_wh(
            server, container.mem_gb, t_close - t0
        )
        decider.add_keepalive(carbon, energy, t_close - t0)

    def _schedule_expiry(self, container: WarmContainer) -> None:
        # Expiry-only counter: expiries are scheduled while popping the
        # heap (activations, spills), so it counts in pop order.
        self._expiry_seq += 1
        heapq.heappush(
            self._events,
            (
                container.expire_s,
                1,  # expiries sort after activations at equal times
                self._expiry_seq,
                "expire",
                (container.name, container.location, container.token),
            ),
        )

    def _new_token(self) -> int:
        self._token += 1
        return self._token

    def _timed(self, fn, *args):
        """Invoke a scheduler decision, optionally measuring wall time."""
        if not self.config.measure_decision_overhead:
            return fn(*args), 0.0
        # ecolint: disable=ECO002 -- decision_wall_s overhead telemetry (measure_decision_overhead, on by default), excluded from deterministic outputs
        start = time.perf_counter()
        result = fn(*args)
        # ecolint: disable=ECO002 -- closes the decision_wall_s measurement started above
        return result, time.perf_counter() - start
