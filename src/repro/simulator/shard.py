"""Function-sharded replay of one simulation, bit-identical at any shard count.

One huge replay is split across N shards by *function*: every shard
receives the **full merged trace** but owns the decisions of only its
partition (``InvocationTrace.partition_names``). The trick that makes
this exact rather than approximate is that shards do not simulate
disjoint worlds -- they all replay the *same* world:

- **Own arrivals** run the full pipeline: placement, service billing, an
  :class:`~repro.simulator.records.InvocationRecord`, and a keep-alive
  decision (the expensive KDM/swarm work -- this is what parallelises).
- **Foreign arrivals** are replayed lightly: the event heap is drained to
  the arrival instant, the placement is reproduced through the
  scheduler's :meth:`~repro.simulator.scheduler.BaseScheduler.place_foreign`
  hook (a pure function of the warm locations and the shared
  carbon-intensity clock), a warm hit consumes the pool entry and closes
  its segment **without billing** (the owning shard bills the identical
  segment), and the global invocation counter advances. No record, no
  KDM work.
- **Keep-alive decisions** are the only information shards must tell
  each other. They are collected in an outbox and exchanged at
  synchronization **barriers**; after the exchange every shard pushes
  the merged, index-sorted decisions onto its own event heap, so all N
  event heaps evolve identically (same containers, same tokens, same
  pops).

Why barrier-time delivery is exact: the barrier width is

    ``B = min over (func, generation) of setup_delay + exec_time``

(:func:`barrier_width_s`), so a decision made for an arrival in round
``q`` (times in ``[qB, (q+1)B)``) activates at ``t_end >= (q+1)B`` -- at
or past the next barrier. Events only act when a drain passes their
timestamp, and within round ``q`` no drain goes past ``(q+1)B``;
exchanging outboxes at every transition between non-empty rounds
therefore inserts every activation into the heap *before* any drain can
reach it, which (together with the engine's push-time-independent heap
keys) reproduces the sequential pop order event for event. Empty rounds
collapse: all shards iterate the same merged trace, so they agree on
every transition and label it with the same barrier sequence number.

Shard-local vs shared state is declared in
:attr:`ShardEngine._SHARD_STATE_PLAN` and cross-checked by ecolint's
ECO005 project contract: any future field added to the shard engine must
say which side of the barrier it lives on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace
from repro.hardware.power import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.hardware.specs import GENERATIONS, HardwarePair
from repro.simulator.containers import WarmContainer
from repro.simulator.engine import ShardStep, SimulationConfig, SimulationEngine
from repro.simulator.records import SimulationResult
from repro.simulator.scheduler import BaseScheduler, PlacementRequest
from repro.workloads.functions import FunctionProfile
from repro.workloads.trace import InvocationTrace

#: Heap-head sentinel when no event is pending (nothing can be due).
_INF = float("inf")


@dataclass(frozen=True)
class ShardDecision:
    """One keep-alive decision crossing a barrier.

    Exactly the facts every other shard needs to replay the container:
    who decided (the global invocation index -- also the deterministic
    heap key), for which function, where, for how long, and when the
    execution ends (the activation instant).
    """

    index: int
    func_name: str
    location_value: str  # Generation.value; kept primitive for the wire
    duration_s: float
    t_end: float


class BarrierTransport(Protocol):
    """How shards exchange outboxes at a barrier.

    ``exchange`` blocks until every shard of the round has contributed,
    then returns the union of all outboxes (own included, in any order
    -- the engine sorts by decider index before applying). ``seq`` is
    the barrier sequence number: shards derive it identically from the
    shared merged trace, and a crash-resumed shard re-exchanges from
    ``seq == 0``, so transports may serve repeated rounds from cache.
    """

    def exchange(
        self, seq: int, shard_id: int, outbox: Sequence[ShardDecision]
    ) -> list[ShardDecision]: ...


def barrier_width_s(
    trace: InvocationTrace, pair: HardwarePair, config: SimulationConfig
) -> float:
    """The widest exact barrier: the minimum warm service time.

    Any decision's activation lands at least one service time after its
    arrival, so synchronizing every ``B`` seconds delivers all of a
    round's decisions before any shard can drain past them.
    """
    width = float("inf")
    for func in trace.functions.values():
        for gen in GENERATIONS:
            width = min(
                width,
                config.setup_delay_s + func.exec_time_s(pair.server(gen)),
            )
    if width <= 0.0:
        raise ValueError("barrier width must be positive (zero service time?)")
    return width


class ShardEngine(SimulationEngine):
    """One shard of a function-partitioned replay.

    Same accounting machinery as :class:`SimulationEngine`; what changes
    is ownership: records exist only for owned functions (tracked by
    global index in ``_by_index``; foreign deciders resolve to ``None``
    and skip billing/flags), and keep-alive admissions detour through an
    outbox that the barrier transport merges across shards.
    """

    #: Barrier/checkpoint contract for every piece of shard state
    #: (enforced by ecolint ECO005): ``exchanged`` crosses the barrier,
    #: ``replicated`` is identical on all shards by construction and
    #: never needs to cross, ``shard-local`` is private and absent from
    #: merged results. Extend this map when adding fields to __init__.
    _SHARD_STATE_PLAN = {
        "shard_id": "replicated",
        "n_shards": "replicated",
        "own_names": "replicated",
        "_transport": "exchanged",
        "_outbox": "exchanged",
        "_by_index": "shard-local",
        "_barrier_seq": "replicated",
        "_warm_table_cache": "shard-local",
    }

    def __init__(
        self,
        pair: HardwarePair,
        trace: InvocationTrace,
        ci_trace: CarbonIntensityTrace,
        shard_id: int,
        n_shards: int,
        own_names: Iterable[str],
        transport: BarrierTransport,
        config: SimulationConfig | None = None,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ) -> None:
        super().__init__(
            pair=pair,
            trace=trace,
            ci_trace=ci_trace,
            config=config,
            energy_model=energy_model,
        )
        if not 0 <= shard_id < n_shards:
            raise ValueError(f"shard_id {shard_id} out of range for {n_shards}")
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.own_names = frozenset(own_names)
        self._transport = transport
        self._outbox: list[ShardDecision] = []
        self._by_index: dict[int, object] = {}
        self._barrier_seq = 0
        #: (pool versions, bool table over intern ids) -- a derived view
        #: of the replicated pools, rebuilt on version mismatch.
        self._warm_table_cache: tuple[int, int, list[bool]] | None = None

    # -- ownership hooks ----------------------------------------------------

    def _place_and_record(self, scheduler, t, func):
        req = super()._place_and_record(scheduler, t, func)
        self._by_index[req.record.index] = req.record
        return req

    def _decider(self, index):
        return self._by_index.get(index)

    def _admit_keepalive(self, scheduler, func, decision, t, record) -> None:
        # Detour: decisions become world-visible only at the barrier
        # (safe -- t >= next barrier by the width bound), where every
        # shard pushes the identical merged set.
        self._outbox.append(
            ShardDecision(
                index=record.index,
                func_name=func.name,
                location_value=decision.location.value,
                duration_s=decision.duration_s,
                t_end=t,
            )
        )

    # -- the sharded replay loop --------------------------------------------

    def run_shard(self, scheduler: BaseScheduler) -> SimulationResult:
        """Replay the full merged trace, deciding only owned functions."""
        if not scheduler.supports_sharding:
            raise ValueError(
                f"{scheduler.name} does not support sharded replay "
                "(supports_sharding is False: it must override both "
                "place_foreign and observe_foreign_run)"
            )
        if not isinstance(self.trace, InvocationTrace):
            raise TypeError("sharded replay requires a full InvocationTrace")
        self.start(scheduler)
        width = barrier_width_s(self.trace, self.pair, self.config)
        step = ShardStep(self, scheduler)
        trace = self.trace
        times = trace.times_s
        ids = trace.func_ids
        funcs = [trace.functions[n] for n in trace.names]
        index = {name: fid for fid, name in enumerate(trace.names)}
        # Columnar precomputation: per-event ownership from the intern
        # table (one CRC/set lookup per *unique* function) and barrier
        # rounds in one vectorized floor-divide. numpy's float64
        # floor_divide mirrors Python's ``//`` (both fmod-based), and
        # every shard derives the segmentation from the same code over
        # the same merged columns, so barrier seqs line up exactly as
        # the per-event ``t // width`` loop did.
        own = trace.event_mask(self.own_names)
        rounds = np.floor_divide(times, width)
        n = int(times.size)
        if n:
            # Segment starts: first event, round transitions, and
            # own/foreign flips. Within a segment all events share one
            # barrier round and one side of the ownership split.
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.logical_or(
                rounds[1:] != rounds[:-1], own[1:] != own[:-1], out=change[1:]
            )
            bounds = np.append(np.flatnonzero(change), n)
            current_round = rounds[bounds[0]]
            for si in range(bounds.size - 1):
                a, b = int(bounds[si]), int(bounds[si + 1])
                r = rounds[a]
                if r != current_round:
                    # Transition between non-empty rounds: flush and
                    # exchange. All shards derive the same transitions
                    # from the same merged trace, so barrier seqs line
                    # up.
                    step.flush()
                    self._exchange_barrier()
                    current_round = r
                if own[a]:
                    for t, fid in zip(times[a:b].tolist(), ids[a:b].tolist()):
                        step.feed(t, funcs[fid])
                else:
                    self._replay_foreign_run(
                        scheduler, step, times, ids, funcs, index, a, b
                    )
        step.flush()
        self._exchange_barrier()
        self._horizon = max(self._horizon, step.horizon)
        result = self.finish()
        result.meta["shard_id"] = self.shard_id
        result.meta["n_shards"] = self.n_shards
        return result

    def _replay_foreign(
        self,
        scheduler: BaseScheduler,
        step: ShardStep,
        t: float,
        func: FunctionProfile,
    ) -> None:
        """Advance the world past an arrival owned by another shard."""
        # A staged group must be decided before this arrival's drain can
        # reach its earliest completion (same rule as the fed path).
        step.sync(t)
        self._drain_events(until=t)
        warm_locations = tuple(
            g for g in GENERATIONS if func.name in self.pools[g]
        )
        placement = scheduler.place_foreign(
            PlacementRequest(
                t=t,
                func=func,
                warm_locations=warm_locations,
                invocation_index=self._next_index,
            )
        )
        if placement in warm_locations:
            # The warm hit consumes the pool entry here exactly as it
            # does everywhere; _close_segment skips billing because the
            # decider record lives on the owning shard.
            hit = self.pools[placement].remove(func.name)
            self._close_segment(hit, t)
        self._next_index += 1

    def _replay_foreign_run(
        self,
        scheduler: BaseScheduler,
        step: ShardStep,
        times: np.ndarray,
        ids: np.ndarray,
        funcs: list[FunctionProfile],
        index: dict[str, int],
        start: int,
        stop: int,
    ) -> None:
        """Advance a run of consecutive foreign arrivals, in bulk when inert.

        Exactness (argued in full in ``docs/sharding.md``): the
        per-event path's only effects for a foreign arrival are (a) a
        possible staged-group flush (outbox append only -- decisions
        detour through :meth:`_admit_keepalive`, never the heap), (b) an
        event drain up to the arrival, (c) the estimator observation +
        pure EPDM choice inside ``place_foreign``, and (d) a warm-hit
        pool consume. Effects (a) and (b) are *time-triggered*: the scan
        performs them at the first arrival at or past the staged group's
        ``flush_at`` or the heap head's due time, exactly as the
        per-event path would have (flush first, then drain, both up to
        that arrival). Only effect (d) makes an arrival itself
        non-inert, so only currently-warm arrivals replay through the
        exact per-event path (:meth:`_replay_foreign`); every maximal
        cold stretch in between is absorbed with one batched estimator
        observation (:meth:`_absorb_foreign_chunk`) plus one counter
        bump.

        The three boundary sentinels -- ``flush_at``, the heap head's
        due time, the warm table -- live in locals: all three mutate
        only at flush/drain/warm boundaries, so between boundaries each
        arrival costs two float compares and one list probe.
        """
        tl = times[start:stop].tolist()
        il = ids[start:stop].tolist()
        warm_table = self._warm_fid_table(funcs, index)
        flush_at = step.flush_at
        head_t = self._events[0][0] if self._events else _INF
        chunk_at = 0
        for k, t in enumerate(tl):
            if flush_at <= t or head_t <= t:
                # Absorb arrivals before this boundary, then replay the
                # per-event path's time-triggered prefix: flush first
                # (it may push activation events due <= t), then drain,
                # both up to this arrival.
                if chunk_at < k:
                    self._absorb_foreign_chunk(
                        scheduler, funcs, tl, il, chunk_at, k
                    )
                    chunk_at = k
                if flush_at <= t:
                    step.sync(t)
                self._drain_events(until=t)
                flush_at = step.flush_at
                head_t = self._events[0][0] if self._events else _INF
                warm_table = self._warm_fid_table(funcs, index)
            if warm_table[il[k]]:
                if chunk_at < k:
                    self._absorb_foreign_chunk(
                        scheduler, funcs, tl, il, chunk_at, k
                    )
                self._replay_foreign(scheduler, step, t, funcs[il[k]])
                chunk_at = k + 1
                flush_at = step.flush_at
                head_t = self._events[0][0] if self._events else _INF
                warm_table = self._warm_fid_table(funcs, index)
        if chunk_at < len(tl):
            self._absorb_foreign_chunk(
                scheduler, funcs, tl, il, chunk_at, len(tl)
            )

    def _warm_fid_table(
        self, funcs: list[FunctionProfile], index: dict[str, int]
    ) -> list[bool]:
        """Boolean table over intern ids: is the function warm anywhere?

        A plain list (a list probe is ~3x cheaper than numpy scalar
        indexing). Rebuilt only when a pool's version counter moved
        since the last call; between mutations the lookup is two int
        compares (this is on the per-boundary hot path of the foreign
        replay).
        """
        pools = self.pools
        v_old = pools[GENERATIONS[0]].version
        v_new = pools[GENERATIONS[1]].version
        cached = self._warm_table_cache
        if cached is None or cached[0] != v_old or cached[1] != v_new:
            table = [False] * len(funcs)
            for g in GENERATIONS:
                for name in pools[g].names():
                    table[index[name]] = True
            cached = (v_old, v_new, table)
            self._warm_table_cache = cached
        return cached[2]

    def _absorb_foreign_chunk(
        self,
        scheduler: BaseScheduler,
        funcs: list[FunctionProfile],
        tl: list[float],
        il: list[int],
        start: int,
        stop: int,
    ) -> None:
        """Absorb the inert arrivals ``tl[start:stop]`` in one bulk step.

        The caller established inertness: no heap event is due within
        the chunk and no chunk function is warm anywhere, so per-event
        replay would have been exactly the estimator observations. The
        chunk's instants are grouped per function (arrival order within
        each function is preserved) in a dict, whose insertion order is
        first-arrival order -- so estimator-registry insertion order
        matches the per-event path.
        """
        if stop - start == 1:
            # Singleton chunk (the tail after a warm hit or boundary,
            # and the most common size): no grouping to do at all.
            scheduler.observe_foreign_run([(funcs[il[start]], [tl[start]])])
            self._next_index += 1
            return
        groups: dict[int, list[float]] = {}
        for fid, t in zip(il[start:stop], tl[start:stop]):
            bucket = groups.get(fid)
            if bucket is None:
                groups[fid] = [t]
            else:
                bucket.append(t)
        scheduler.observe_foreign_run(
            [(funcs[fid], ts) for fid, ts in groups.items()]
        )
        self._next_index += stop - start

    def _exchange_barrier(self) -> None:
        merged = self._transport.exchange(
            self._barrier_seq, self.shard_id, self._outbox
        )
        self._barrier_seq += 1
        self._outbox = []
        # Index order == the sequential engine's push order; with the
        # deterministic heap keys this makes tokens and pops identical
        # on every shard.
        for d in sorted(merged, key=lambda d: d.index):
            func = self.trace.functions[d.func_name]
            location = next(g for g in GENERATIONS if g.value == d.location_value)
            container = WarmContainer(
                func=func,
                location=location,
                segment_start_s=d.t_end,
                expire_s=d.t_end + d.duration_s,
                decider_index=d.index,
                token=self._new_token(),
            )
            heapq.heappush(
                self._events, (d.t_end, 0, d.index, "activate", container)
            )

