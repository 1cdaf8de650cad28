"""Shard-engine references: per-event foreign replay and a thread harness.

A shard replays runs of arrivals owned by other shards through
``ShardEngine._replay_foreign_run``, which absorbs provably inert
stretches with one batched estimator observation and sends only warm
hits through the per-event ``_replay_foreign``. This engine sends every
foreign arrival through ``_replay_foreign`` -- drain, ``place_foreign``,
warm-hit consume, one arrival at a time -- which is what the absorber
must reproduce bit for bit.

:class:`ThreadShardRunner` runs N shard engines on threads of one
process over the in-memory :class:`ThreadBarrier`. Under the GIL it is
slower than one process, so ``src/`` ships only the TCP process
coordinator; the identity tests and ``benchmarks/bench_swarm.py`` use
this harness to drive shard engines without spawning workers.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace
from repro.hardware.specs import HardwarePair
from repro.simulator.engine import ShardStep, SimulationConfig
from repro.simulator.records import SimulationResult
from repro.simulator.scheduler import BaseScheduler
from repro.simulator.shard import ShardDecision, ShardEngine
from repro.workloads.functions import FunctionProfile
from repro.workloads.trace import InvocationTrace


class PerEventShardEngine(ShardEngine):
    """A :class:`ShardEngine` with no bulk absorption."""

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
        for t, fid in zip(times[start:stop].tolist(), ids[start:stop].tolist()):
            self._replay_foreign(scheduler, step, t, funcs[fid])


class ThreadBarrier:
    """In-process :class:`~repro.simulator.shard.BarrierTransport` over a
    condition variable.

    Caches each round's merged outboxes by sequence number, so a shard
    re-running from round zero is served instantly from cache while
    live shards wait at the frontier.
    """

    def __init__(self, n_shards: int, timeout_s: float = 120.0) -> None:
        self.n_shards = n_shards
        self.timeout_s = timeout_s
        self._cond = threading.Condition()
        self._contrib: dict[int, dict[int, list[ShardDecision]]] = {}
        self._merged: dict[int, list[ShardDecision]] = {}
        self._failed: BaseException | None = None

    def fail(self, exc: BaseException) -> None:
        """Wake every waiter with a failure (a sibling shard died)."""
        with self._cond:
            self._failed = exc
            self._cond.notify_all()

    def exchange(
        self, seq: int, shard_id: int, outbox: Sequence[ShardDecision]
    ) -> list[ShardDecision]:
        with self._cond:
            if seq not in self._merged:
                contrib = self._contrib.setdefault(seq, {})
                contrib[shard_id] = list(outbox)
                if len(contrib) == self.n_shards:
                    self._merged[seq] = [
                        d for s in sorted(contrib) for d in contrib[s]
                    ]
                    self._cond.notify_all()
                else:
                    ok = self._cond.wait_for(
                        lambda: seq in self._merged or self._failed is not None,
                        timeout=self.timeout_s,
                    )
                    if self._failed is not None:
                        raise RuntimeError(
                            f"sibling shard failed: {self._failed!r}"
                        ) from self._failed
                    if not ok:
                        raise TimeoutError(
                            f"barrier {seq}: not all {self.n_shards} shards "
                            f"arrived within {self.timeout_s}s"
                        )
            return list(self._merged[seq])


class ThreadShardRunner:
    """Run an N-shard replay on threads and merge the results.

    Exact on any machine (barrier correctness does not need true
    parallelism), which is all the identity tests ask of it.
    """

    def __init__(self, n_shards: int, by: str = "hash") -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        self.by = by

    def run(
        self,
        pair: HardwarePair,
        trace: InvocationTrace,
        ci_trace: CarbonIntensityTrace,
        scheduler_factory: Callable[[], BaseScheduler],
        config: SimulationConfig | None = None,
    ) -> SimulationResult:
        buckets = trace.partition_names(self.n_shards, by=self.by)
        barrier = ThreadBarrier(self.n_shards)
        results: list[SimulationResult | None] = [None] * self.n_shards
        errors: list[BaseException] = []

        def work(i: int) -> None:
            try:
                engine = ShardEngine(
                    pair=pair,
                    trace=trace,
                    ci_trace=ci_trace,
                    shard_id=i,
                    n_shards=self.n_shards,
                    own_names=buckets[i],
                    transport=barrier,
                    config=config,
                )
                results[i] = engine.run_shard(scheduler_factory())
            except BaseException as exc:  # noqa: BLE001 -- relayed below
                errors.append(exc)
                barrier.fail(exc)

        threads = [
            threading.Thread(target=work, args=(i,), name=f"shard-{i}")
            for i in range(self.n_shards)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise errors[0]
        done = [r for r in results if r is not None]
        merged = SimulationResult.merge(done)
        merged.meta["transport"] = "thread"
        return merged
