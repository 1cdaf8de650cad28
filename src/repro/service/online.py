"""Online carbon-aware decision service.

Wraps the replay engine's incremental stepping API
(:meth:`~repro.simulator.engine.SimulationEngine.start` /
``step_batch`` / ``finish``) around live inputs: arrival events arrive
over HTTP instead of from a recorded trace, and carbon intensity comes
from a pluggable :class:`~repro.carbon.providers.CarbonIntensityProvider`
instead of a static file. Everything downstream -- EPDM placement, KDM
swarms, warm-pool accounting -- is the *same code* the replay engine
runs, which is what makes the service's decisions bit-identical to a
replay of the same arrivals against the same intensity data (the e2e
test in ``tests/test_service.py`` asserts exactly that).

Equivalence contract (see ``docs/service.md``): a ``decide()`` batch is
stepped through the engine exactly like a slice of a replayed trace.
Decision grouping never changes decisions (the PR-2/PR-5 batching
contract), so *how* arrivals are split across ``decide()`` calls does
not matter -- with one caveat: the DPSO's dF perception reads the
trailing arrival *rate*, and a replayed trace exposes all arrivals up
to the query instant, including ones later in the batch. The service
reproduces that by logging the whole batch into its arrival view before
stepping it; bit-identity against a replay therefore holds per POSTed
batch (POST everything at once to reproduce a full replay; split
batches are the honest online semantics where the rate can only see
POSTed arrivals).

Checkpointing rides the KDM's state-retirement machinery:
``checkpoint()`` retires every live function (an identity for
decisions), writes the archives and estimator shelf as pickled records
into two :class:`~repro.service.checkpoint.CheckpointStore` directories
under the checkpoint directory, and pickles the engine runtime
(records, event heap, warm pools). ``restore()`` rebuilds a fresh
service and imports everything; functions rehydrate through the normal
on-arrival path, bit-identically.
"""

from __future__ import annotations

import bisect
import json
import math
import pathlib
import pickle
import time
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from repro.carbon.providers import CarbonIntensityProvider
from repro.core.arrival import ArrivalEstimator
from repro.core.config import EcoLifeConfig
from repro.core.kdm import RetiredFunction
from repro.core.scheduler import EcoLifeScheduler
from repro.hardware.catalog import DEFAULT_PAIR
from repro.hardware.specs import HardwarePair
from repro.service.checkpoint import CheckpointStore
from repro.service.metrics import ServiceMetrics
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.records import InvocationRecord
from repro.workloads.functions import FunctionProfile
from repro.workloads.sebs import SEBS_FUNCTIONS

#: Version 2: the engine keys its event heap by two counters, the
#: expiry-only ``seq`` and the invocation index ``next_index``, in place
#: of version 1's single push counter; v1 checkpoints cannot restore them.
CHECKPOINT_VERSION = 2


class StaleCarbonFeed(RuntimeError):
    """The intensity provider's data is too old to decide against."""


class LiveArrivalLog:
    """Arrival view over events observed so far (no trace, no lookahead).

    Satisfies :class:`~repro.simulator.scheduler.ArrivalView` for the
    engine's env: ``rate_per_minute`` runs the exact
    :class:`~repro.workloads.trace.InvocationTrace` formula over the
    logged arrival times, so the DPSO's dF perception sees the same
    numbers it would in a replay of the same arrivals. Times older than
    ``retention_s`` behind the newest arrival are pruned (queries only
    ever look back one rate window, 60 s by default); lookahead is
    structurally impossible and loudly refused.
    """

    def __init__(self, retention_s: float = 3600.0) -> None:
        if retention_s <= 0.0:
            raise ValueError("retention_s must be > 0")
        self.retention_s = retention_s
        self._times: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    @property
    def last_t(self) -> float | None:
        return self._times[-1] if self._times else None

    def extend(self, times: Sequence[float]) -> None:
        """Log arrivals (non-decreasing, and never behind the log)."""
        if not times:
            return
        last = self._times[-1] if self._times else float("-inf")
        for t in times:
            if t < last:
                raise ValueError(
                    f"arrivals must be logged in time order ({t} < {last})"
                )
            last = t
        self._times.extend(float(t) for t in times)

    def prune(self, decided_t: float) -> None:
        """Drop times more than ``retention_s`` behind ``decided_t``.

        Pruning keys off the newest *decided* time, never the newest
        logged time: the service logs a whole batch before stepping it
        (see the module docstring), and early decisions in that batch
        must still see their full trailing rate window. The service
        prunes between batches.
        """
        cutoff = decided_t - self.retention_s
        if self._times and self._times[0] < cutoff:
            del self._times[: bisect.bisect_left(self._times, cutoff)]

    @property
    def times_s(self) -> np.ndarray:
        """The logged times as a fresh array."""
        return np.asarray(self._times, dtype=float)

    def rate_per_minute(self, t: float, window_s: float = 60.0) -> float:
        """Logged invocations per minute over ``[t - window_s, t]``.

        Bit-identical to ``InvocationTrace.rate_per_minute`` over the
        same arrival times: on the sorted log, ``bisect_right`` returns
        the index ``searchsorted(..., side="right")`` does, so the counts
        match without building an array per query.
        """
        times = self._times
        lo = bisect.bisect_right(times, t - window_s)
        hi = bisect.bisect_right(times, t)
        if window_s <= 0.0:
            return 0.0
        return (hi - lo) * 60.0 / window_s

    def next_arrival(self, name: str, after_t: float) -> float | None:
        raise RuntimeError(
            "live arrival logs cannot look ahead; lookahead schedulers "
            "are replay-only"
        )


class DecisionService:
    """The online KDM: arrivals in, (placement, keep-alive) decisions out.

    One service owns one single-use engine + EcoLife scheduler and steps
    them with whatever the network delivers. Retirement is always on
    (``retire_after_s=inf`` if the config left it off -- zero idle
    retirement, but the archive machinery that checkpoints ride on is
    live). Time is *event time*: the arrival timestamps in requests,
    which is also the clock providers are polled and health-checked
    against (a wall clock would make replayed traffic instantly stale).
    """

    def __init__(
        self,
        provider: CarbonIntensityProvider,
        pair: HardwarePair = DEFAULT_PAIR,
        config: EcoLifeConfig | None = None,
        sim_config: SimulationConfig | None = None,
        functions: Mapping[str, FunctionProfile] | None = None,
        checkpoint_dir: str | None = None,
    ) -> None:
        cfg = config or EcoLifeConfig()
        if not cfg.retirement_enabled:
            # Legal no-op retirement: one empty sweep, then the archive
            # machinery sits ready for retire_all()/checkpoint().
            cfg = replace(cfg, retire_after_s=float("inf"))
        self.config = cfg
        self.provider = provider
        self.pair = pair
        self.functions: dict[str, FunctionProfile] = dict(
            SEBS_FUNCTIONS if functions is None else functions
        )
        self.checkpoint_dir = checkpoint_dir
        self.metrics = ServiceMetrics()
        self._log = LiveArrivalLog()
        self._last_t: float | None = None
        # The engine never measures per-decision wall overhead here: the
        # service times whole batches end to end instead.
        self.sim_config = sim_config or SimulationConfig(
            measure_decision_overhead=False
        )
        self._engine = SimulationEngine(
            pair=pair,
            trace=self._log,
            ci_trace=provider.trace(),
            config=self.sim_config,
        )
        self._scheduler = EcoLifeScheduler(cfg)
        self._engine.start(self._scheduler)

    # -- introspection ---------------------------------------------------------

    @property
    def last_t(self) -> float:
        """Event time: the newest arrival timestamp seen (0 before any)."""
        return 0.0 if self._last_t is None else self._last_t

    @property
    def scheduler_name(self) -> str:
        return self._scheduler.name

    def healthy(self, now_s: float | None = None) -> bool:
        return self.provider.healthy(self.last_t if now_s is None else now_s)

    def metrics_snapshot(self, now_s: float | None = None) -> dict[str, object]:
        now = self.last_t if now_s is None else now_s
        kdm = self._scheduler.kdm
        assert kdm is not None
        out = self.metrics.snapshot()
        out.update(
            {
                "scheduler": self.scheduler_name,
                "provider": self.provider.name,
                "provider_staleness_s": self.provider.staleness_s(now),
                "provider_healthy": self.provider.healthy(now),
                "event_time_s": self.last_t,
                "swarms_live": kdm.live_count,
                "swarms_archived": kdm.archived_count,
                "swarms_retired_total": kdm.retired,
                "swarms_rehydrated_total": kdm.rehydrated,
                "swarms_peak_live": kdm.peak_live,
            }
        )
        return out

    # -- the decision path -----------------------------------------------------

    def decide(
        self, arrivals: Sequence[tuple[float, str]]
    ) -> list[dict[str, object]]:
        """Decide one batch of ``(t_s, function_name)`` arrivals.

        Raises ``ValueError`` for non-finite or out-of-order times or
        unknown functions (HTTP 400), before any state changes, and :class:`StaleCarbonFeed` when the
        provider's data is older than its ``max_staleness_s`` (503) --
        refusing to answer beats deciding on stale intensity.
        """
        if not arrivals:
            return []
        batch: list[tuple[float, FunctionProfile]] = []
        prev = self.last_t if self._last_t is not None else float("-inf")
        for t_s, name in arrivals:
            t = float(t_s)
            if not math.isfinite(t):
                # NaN passes every ordering check and inf rejects every
                # later arrival; neither may become last_t.
                raise ValueError(f"arrival time must be finite, got {t_s!r}")
            if t < prev:
                raise ValueError(
                    f"arrivals must be time-ordered: {t} is behind {prev}"
                )
            prev = t
            profile = self.functions.get(str(name))
            if profile is None:
                raise ValueError(f"unknown function: {name!r}")
            batch.append((t, profile))
        now = batch[-1][0]

        # Refresh intensity *before* deciding, against event time.
        self.provider.poll(now)
        trace = self.provider.trace()
        if trace is not self._engine.carbon_model.trace:
            self._engine.update_ci_trace(trace)
        if not self.provider.healthy(now):
            raise StaleCarbonFeed(
                f"{self.provider.name}: intensity data is "
                f"{self.provider.staleness_s(now):.0f}s old at t={now:.0f}s "
                f"(max {self.provider.max_staleness_s:.0f}s)"
            )

        # Log the whole batch first so the dF rate perception sees the
        # same trailing counts a replayed trace would (see module doc).
        self._log.extend([t for t, _ in batch])
        # ecolint: disable=ECO002 -- end-to-end serving-latency telemetry (p50/p99 in /metrics), never feeds a decision
        wall_start = time.perf_counter()
        records = self._engine.step_batch(batch)
        # ecolint: disable=ECO002 -- closes the serving-latency measurement started above
        wall = time.perf_counter() - wall_start
        self._last_t = now
        self._log.prune(now)
        self.metrics.observe_batch(len(records), wall)
        return [self._decision_payload(r) for r in records]

    @staticmethod
    def _decision_payload(record: InvocationRecord) -> dict[str, object]:
        decision = record.keepalive_decision
        assert decision is not None  # step_batch always flushes its groups
        return {
            "index": record.index,
            "function": record.func_name,
            "t_s": record.t,
            "location": record.location.value,
            "cold": record.cold,
            "service_s": record.service_s,
            "t_end_s": record.t + record.service_s,
            "keepalive": {
                "location": decision.location.value,
                "duration_s": decision.duration_s,
            },
        }

    # -- checkpoint / restore ---------------------------------------------------

    def checkpoint(self, directory: str | None = None) -> dict[str, object]:
        """Persist full scheduler + engine state; the service keeps running.

        Every live function is retired first (``retire_all`` -- an
        identity for decisions: each rehydrates on its next arrival), so
        the KDM archives plus the estimator shelf *are* the complete
        per-function state. Returns a small summary (path, counts).
        """
        target = directory or self.checkpoint_dir
        if target is None:
            raise ValueError("no checkpoint directory configured")
        root = pathlib.Path(target)
        root.mkdir(parents=True, exist_ok=True)
        kdm = self._scheduler.kdm
        arrivals = self._scheduler.arrivals
        assert kdm is not None and arrivals is not None

        kdm.retire_all()
        archives = kdm.export_archives()
        shelf = arrivals.export_shelf()

        kdm_store = CheckpointStore(root / "kdm")
        for name, record in archives.items():
            kdm_store.put(name, record)
        shelf_store = CheckpointStore(root / "arrivals")
        for name, est in shelf.items():
            shelf_store.put(name, est)

        runtime = {
            "records": self._engine.records,
            "events": self._engine._events,
            "seq": self._engine._expiry_seq,
            "next_index": self._engine._next_index,
            "token": self._engine._token,
            "horizon": self._engine._horizon,
            "pools": dict(self._engine.pools),
            "log_times": list(self._log._times),
            "last_t": self._last_t,
            "counters": {
                "decisions": kdm.decisions,
                "redistributions": kdm.redistributions,
                "retired": kdm.retired,
                "rehydrated": kdm.rehydrated,
                "peak_live": kdm.peak_live,
            },
        }
        runtime_path = root / "runtime.pkl"
        with open(runtime_path, "wb") as fh:
            pickle.dump(runtime, fh, protocol=pickle.HIGHEST_PROTOCOL)

        manifest = {
            "version": CHECKPOINT_VERSION,
            "scheduler": self.scheduler_name,
            "kdm": {
                "root": str(kdm_store.root.relative_to(root)),
                "files": kdm_store.manifest(),
            },
            "arrivals": {
                "root": str(shelf_store.root.relative_to(root)),
                "files": shelf_store.manifest(),
            },
            "runtime": runtime_path.name,
        }
        tmp = root / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        tmp.replace(root / "manifest.json")
        self.metrics.checkpoints += 1
        return {
            "path": str(root),
            "functions": len(archives),
            "estimators": len(shelf),
            "records": len(self._engine.records),
        }

    @classmethod
    def restore(
        cls,
        directory: str,
        provider: CarbonIntensityProvider,
        pair: HardwarePair = DEFAULT_PAIR,
        config: EcoLifeConfig | None = None,
        sim_config: SimulationConfig | None = None,
        functions: Mapping[str, FunctionProfile] | None = None,
        checkpoint_dir: str | None = None,
    ) -> "DecisionService":
        """Rebuild a service from :meth:`checkpoint` output.

        The caller supplies the same config/pair the checkpointed
        service ran with (config is code, not data -- exactly like the
        sweep cache); the checkpoint supplies every byte of mutable
        state. Restoring is non-destructive: the directory can be
        restored from again.
        """
        root = pathlib.Path(directory)
        manifest = json.loads((root / "manifest.json").read_text("utf-8"))
        if manifest["version"] != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {manifest['version']!r}"
            )
        service = cls(
            provider=provider,
            pair=pair,
            config=config,
            sim_config=sim_config,
            functions=functions,
            checkpoint_dir=checkpoint_dir or directory,
        )
        kdm = service._scheduler.kdm
        arrivals = service._scheduler.arrivals
        assert kdm is not None and arrivals is not None

        kdm_store = CheckpointStore.attach(
            root / manifest["kdm"]["root"], manifest["kdm"]["files"]
        )
        for name in kdm_store.names():
            record = kdm_store.peek(name)
            assert isinstance(record, RetiredFunction)
            kdm.import_archive(name, record)
        shelf_store = CheckpointStore.attach(
            root / manifest["arrivals"]["root"], manifest["arrivals"]["files"]
        )
        for name in shelf_store.names():
            est = shelf_store.peek(name)
            assert isinstance(est, ArrivalEstimator)
            arrivals.import_shelved(name, est)

        with open(root / manifest["runtime"], "rb") as fh:
            runtime = pickle.load(fh)
        engine = service._engine
        engine.records[:] = runtime["records"]
        engine._events[:] = runtime["events"]
        engine._expiry_seq = runtime["seq"]
        engine._next_index = runtime["next_index"]
        engine._token = runtime["token"]
        engine._horizon = runtime["horizon"]
        # engine.pools is shared by reference with the scheduler env's
        # view; replace the dict's items, never the dict.
        for gen, pool in runtime["pools"].items():
            engine.pools[gen] = pool
        service._log.extend(runtime["log_times"])
        service._last_t = runtime["last_t"]
        counters = runtime["counters"]
        kdm.decisions = counters["decisions"]
        kdm.redistributions = counters["redistributions"]
        kdm.retired = counters["retired"]
        kdm.rehydrated = counters["rehydrated"]
        kdm.peak_live = counters["peak_live"]
        return service
