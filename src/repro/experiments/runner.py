"""Parallel scenario-sweep runner.

Every paper figure replays full traces; multi-region / multi-pair studies
multiply that by a scenario grid. This module makes such sweeps practical:

- :class:`ScenarioSpec` -- a small, picklable recipe for one scenario
  (:func:`repro.experiments.common.default_scenario` parameters), built
  lazily inside the worker process so the grid ships cheaply.
- :class:`ScenarioGrid` -- expands cross-products of regions x hardware
  pairs x seeds x pool capacities into specs.
- :class:`RunnerJob` -- one (scheduler, scenario) unit of work. Schedulers
  are referenced by registry name so jobs stay picklable; per-job
  determinism comes from the spec's seed plus the scheduler's own config
  seed (the KDM already derives per-function RNGs stably from those).
- :class:`ParallelRunner` -- executes jobs in-process for
  ``n_workers=1`` (the reference) or over a local
  :class:`concurrent.futures.ProcessPoolExecutor` for ``n_workers>1``.
  Both paths run the identical :func:`execute_job`, so results are
  byte-identical. An optional on-disk :class:`ResultCache` keyed by
  (scenario label, scheduler name, config hash) makes reruns free.

Workers return :class:`ResultSummary`, a frozen aggregate that mirrors the
``SimulationResult`` properties the analysis layer consumes
(``total_carbon_g``, ``mean_service_s``, ``warm_ratio``, ...), so the
"% vs oracle" helpers work on both.

Scheduler names resolve through :mod:`repro.experiments.registry`,
which holds the paper's 13 schemes; plugins add their own with
``@register_scheduler("name")``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pathlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core import EcoLifeConfig
from repro.experiments.common import Scenario, run_scheduler, workload_scenario
from repro.experiments.registry import create_scheduler, scheduler_factory
from repro.simulator import RecordArrays, SimulationResult
from repro.workloads.generators import AZURE_WORKLOAD, WorkloadSpec

# ---------------------------------------------------------------------------
# Scenario specs and grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe for one :class:`Scenario`.

    Mirrors :func:`workload_scenario`'s parameters; ``build()`` runs in
    the worker so only these few scalars (plus the workload handle)
    cross the process boundary. ``workload`` selects the trace family
    from the :mod:`repro.workloads.generators` registry; the default is
    the paper's Azure-shaped synthesizer, whose label token is plain
    ``azure`` so pre-existing cache identities stay valid.
    """

    n_functions: int = 60
    hours: float = 6.0
    seed: int = 7
    region: str = "CAL"
    pair: str = "A"
    pool_gb: float = 32.0
    kmax_minutes: float = 30.0
    start_hour: float = 8.0
    workload: WorkloadSpec = AZURE_WORKLOAD

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", WorkloadSpec.of(self.workload))

    @property
    def label(self) -> str:
        # Every build parameter appears in the label -- it doubles as the
        # scenario's cache identity (see ResultCache).
        return (
            f"{self.workload.label}-n{self.n_functions}-h{self.hours:g}"
            f"-s{self.seed}-{self.region}-pair{self.pair}"
            f"-p{self.pool_gb:g}-k{self.kmax_minutes:g}-sh{self.start_hour:g}"
        )

    def build(self) -> Scenario:
        return workload_scenario(
            workload=self.workload,
            n_functions=self.n_functions,
            hours=self.hours,
            seed=self.seed,
            region=self.region,
            pair=self.pair,
            pool_gb=self.pool_gb,
            kmax_minutes=self.kmax_minutes,
            start_hour=self.start_hour,
            label=self.label,
        )


@dataclass(frozen=True)
class ScenarioGrid:
    """Cross-product of scenario axes, expanded in deterministic order.

    Axis order (outer to inner): workload, region, pair, seed, pool
    capacity, n_functions, hours, kmax -- the expansion order is part of
    the contract so cached and fresh runs line up positionally. The
    workload axis takes :class:`~repro.workloads.generators.WorkloadSpec`
    values (or bare generator names / ``name:k=v,...`` strings); the
    scalar axes (``n_functions``, ``hours``, ``kmax_minutes``) also
    accept a single scalar, which is normalised to a one-element tuple.
    """

    regions: tuple[str, ...] = ("CAL",)
    pairs: tuple[str, ...] = ("A",)
    seeds: tuple[int, ...] = (7,)
    pool_gbs: tuple[float, ...] = (32.0,)
    workloads: tuple[WorkloadSpec | str, ...] = (AZURE_WORKLOAD,)
    n_functions: tuple[int, ...] | int = (60,)
    hours: tuple[float, ...] | float = (6.0,)
    kmax_minutes: tuple[float, ...] | float = (30.0,)
    start_hour: float = 8.0

    def __post_init__(self) -> None:
        for axis in ("n_functions", "hours", "kmax_minutes"):
            value = getattr(self, axis)
            # Accept bare scalars and any sequence (a list would otherwise
            # end up wrapped whole into a one-element tuple).
            value = (value,) if isinstance(value, (int, float)) else tuple(value)
            object.__setattr__(self, axis, value)
        workloads = self.workloads
        # A bare string/spec is one workload, not an iterable of its
        # characters.
        if isinstance(workloads, (str, WorkloadSpec)):
            workloads = (workloads,)
        object.__setattr__(
            self, "workloads", tuple(WorkloadSpec.of(w) for w in workloads)
        )
        for axis in (
            "regions", "pairs", "seeds", "pool_gbs", "workloads",
            "n_functions", "hours", "kmax_minutes",
        ):
            if not getattr(self, axis):
                raise ValueError(f"grid axis {axis!r} must be non-empty")

    def __len__(self) -> int:
        return (
            len(self.workloads)
            * len(self.regions)
            * len(self.pairs)
            * len(self.seeds)
            * len(self.pool_gbs)
            * len(self.n_functions)
            * len(self.hours)
            * len(self.kmax_minutes)
        )

    def specs(self) -> tuple[ScenarioSpec, ...]:
        """Expand the grid into scenario specs."""
        return tuple(
            ScenarioSpec(
                n_functions=n_funcs,
                hours=hrs,
                seed=seed,
                region=region,
                pair=pair,
                pool_gb=pool_gb,
                kmax_minutes=kmax,
                start_hour=self.start_hour,
                workload=workload,
            )
            for workload in self.workloads
            for region in self.regions
            for pair in self.pairs
            for seed in self.seeds
            for pool_gb in self.pool_gbs
            for n_funcs in self.n_functions
            for hrs in self.hours
            for kmax in self.kmax_minutes
        )

    def jobs(
        self,
        schedulers: Sequence[str],
        config: EcoLifeConfig | None = None,
    ) -> list["RunnerJob"]:
        """One job per (scenario, scheduler), scenario-major order."""
        return [
            RunnerJob(scheduler=name, spec=spec, config=config)
            for spec in self.specs()
            for name in schedulers
        ]


# ---------------------------------------------------------------------------
# Jobs and results.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunnerJob:
    """One (scheduler, scenario) unit of work.

    Exactly one of ``spec`` / ``scenario`` must be set. Specs are the cheap
    path (built in the worker); a full ``scenario`` payload supports
    pre-built scenarios (e.g. the fig13/fig14 drivers' variants) at the
    cost of pickling its trace arrays.
    """

    scheduler: str
    spec: ScenarioSpec | None = None
    scenario: Scenario | None = None
    config: EcoLifeConfig | None = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.scenario is None):
            raise ValueError("exactly one of spec/scenario must be provided")
        scheduler_factory(self.scheduler)  # unknown names raise, listing options

    @property
    def scenario_label(self) -> str:
        return self.spec.label if self.spec is not None else self.scenario.label

    def build_scenario(self) -> Scenario:
        return self.spec.build() if self.spec is not None else self.scenario


@dataclass(frozen=True)
class ResultSummary:
    """Deterministic aggregates of one run.

    Field names deliberately mirror :class:`SimulationResult`'s properties
    so the analysis helpers (``relative_to_oracle`` & co.) accept either.
    ``wall_time_s`` is the only nondeterministic field; it is excluded from
    :meth:`deterministic_dict`.
    """

    scheduler_name: str
    scenario_label: str
    n_invocations: int
    total_carbon_g: float
    total_service_carbon_g: float
    total_keepalive_carbon_g: float
    total_operational_g: float
    total_embodied_g: float
    total_service_s: float
    mean_service_s: float
    p95_service_s: float
    total_energy_wh: float
    warm_ratio: float
    evicted_count: int
    spilled_count: int
    dropped_count: int
    wall_time_s: float = 0.0

    @classmethod
    def from_result(
        cls, result: SimulationResult, scenario_label: str
    ) -> "ResultSummary":
        return cls(
            scheduler_name=result.scheduler_name,
            scenario_label=scenario_label,
            n_invocations=len(result),
            total_carbon_g=result.total_carbon_g,
            total_service_carbon_g=result.total_service_carbon_g,
            total_keepalive_carbon_g=result.total_keepalive_carbon_g,
            total_operational_g=result.total_operational_g,
            total_embodied_g=result.total_embodied_g,
            total_service_s=result.total_service_s,
            mean_service_s=result.mean_service_s,
            p95_service_s=result.p95_service_s,
            total_energy_wh=result.total_energy_wh,
            warm_ratio=result.warm_ratio,
            evicted_count=result.evicted_count,
            spilled_count=result.spilled_count,
            dropped_count=result.dropped_count,
            wall_time_s=result.wall_time_s,
        )

    def deterministic_dict(self) -> dict[str, object]:
        """All fields except wall time (for determinism comparisons)."""
        d = dataclasses.asdict(self)
        d.pop("wall_time_s")
        return d

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def schema_token(cls) -> str:
        """Stable token identifying this summary schema.

        Derived from the ordered field names, so adding/renaming/removing
        a field changes the token automatically -- no manual version bump
        to forget. :class:`ResultCache` folds it into the key digest,
        which turns every pre-change cache entry into a clean miss
        instead of a ``TypeError`` at load time.
        """
        return "fields:" + ",".join(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_json(cls, text: str) -> "ResultSummary":
        """Parse a cached summary, tolerating schema drift.

        Unknown keys (written by a *newer* schema) are dropped; a missing
        required field (written by an *older* schema) raises
        :class:`SummarySchemaError`, which :meth:`ResultCache.get` treats
        as a cache miss. Only malformed JSON or a non-object payload is
        also a schema error -- never a raw ``TypeError``/``KeyError``
        that would abort a whole sweep.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SummarySchemaError(f"cached summary is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SummarySchemaError(
                f"cached summary must be a JSON object, got {type(data).__name__}"
            )
        fields = dataclasses.fields(cls)
        known = {f.name for f in fields}
        missing = [
            f.name
            for f in fields
            if f.name not in data and f.default is dataclasses.MISSING
        ]
        if missing:
            raise SummarySchemaError(
                f"cached summary is missing required fields {missing} "
                "(written by an older schema?)"
            )
        return cls(**{k: v for k, v in data.items() if k in known})


class SummarySchemaError(ValueError):
    """A cached :class:`ResultSummary` JSON does not match the current schema."""


def execute_job(job: RunnerJob) -> ResultSummary:
    """Run one job to completion (the worker entry point).

    Serial and parallel execution share this exact function, which is what
    makes ``n_workers > 1`` results identical to the serial path.
    """
    scenario = job.build_scenario()
    result = run_scheduler(create_scheduler(job.scheduler, job.config), scenario)
    return ResultSummary.from_result(result, scenario_label=scenario.label)


def execute_job_with_records(job: RunnerJob) -> tuple[ResultSummary, RecordArrays]:
    """Like :func:`execute_job`, but also returns the per-invocation
    records in columnar form (what the record-persisting cache stores as
    compressed ``.npz``). The simulation itself is identical."""
    scenario = job.build_scenario()
    result = run_scheduler(create_scheduler(job.scheduler, job.config), scenario)
    summary = ResultSummary.from_result(result, scenario_label=scenario.label)
    return summary, result.record_arrays()


#: What one executed job yields: a bare summary (:func:`execute_job`) or
#: a (summary, records) pair (:func:`execute_job_with_records`).
JobOutcome = ResultSummary | tuple[ResultSummary, RecordArrays]


def unpack_outcome(
    outcome: ResultSummary | tuple[ResultSummary, RecordArrays],
) -> tuple[ResultSummary, RecordArrays | None]:
    """Normalise either job-entry-point result to (summary, records?)."""
    if isinstance(outcome, tuple):
        return outcome
    return outcome, None


# ---------------------------------------------------------------------------
# On-disk result cache.
# ---------------------------------------------------------------------------


class ResultCache:
    """Directory of ``<key>.json`` result summaries.

    The key is ``sha256(version | schema token | scenario label |
    scheduler | config digest)``; see ``docs/sweep_runner.md`` for the
    format. The schema token (:meth:`ResultSummary.schema_token`) keys
    entries to the summary's field set, so a schema change makes old
    entries clean misses. Scenario labels are trusted to
    identify the scenario, which holds for :class:`ScenarioSpec` labels
    (every build parameter is in the label) -- for pre-built scenarios the
    digest additionally covers the simulation config.

    With ``store_records=True`` each entry additionally persists the full
    per-invocation record columns as a compressed ``<key>.npz`` next to
    the JSON summary (see :class:`~repro.simulator.records.RecordArrays`),
    enabling CDF-style analyses over whole grids without re-simulating.
    """

    VERSION = "v1"

    def __init__(
        self, directory: str | os.PathLike, store_records: bool = False
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store_records = store_records
        self.hits = 0
        self.misses = 0

    def key(self, job: RunnerJob) -> str:
        parts = [
            self.VERSION,
            ResultSummary.schema_token(),
            job.scenario_label,
            job.scheduler,
            repr(job.config) if job.config is not None else "default",
        ]
        if job.scenario is not None:
            parts.append(repr(job.scenario.sim_config))
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def _records_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.npz"

    def get(self, job: RunnerJob) -> ResultSummary | None:
        key = self.key(job)
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        if self.store_records and not self._records_path(key).exists():
            # A summary without its records does not satisfy a
            # record-persisting cache; treat as a miss so the runner
            # re-simulates and fills both files.
            self.misses += 1
            return None
        try:
            summary = ResultSummary.from_json(path.read_text())
        except SummarySchemaError:
            # A stale-schema entry (e.g. written before a field was
            # added/renamed, or hand-edited) is a miss, not a crash; the
            # runner re-simulates and overwrites it.
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(
        self,
        job: RunnerJob,
        summary: ResultSummary,
        records: RecordArrays | None = None,
    ) -> None:
        key = self.key(job)
        if records is not None:
            records.to_npz(self._records_path(key))
        path = self._path(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(summary.to_json())
        tmp.replace(path)

    def fetch_or_run(
        self,
        job: RunnerJob,
        run: Callable[[RunnerJob], JobOutcome] | None = None,
    ) -> ResultSummary:
        """Return the cached summary for ``job``, or execute-and-commit.

        The single primitive behind every get/execute/put dance in the
        repo: a hit returns the cached summary; a miss invokes ``run``
        (default: :func:`execute_job`, or
        :func:`execute_job_with_records` when this cache persists
        records), writes the outcome back -- records included -- and
        returns the fresh summary. Hit/miss accounting matches calling
        :meth:`get` followed by :meth:`put` exactly. ``get``/``put``
        stay public for callers that need the halves separately (the
        pool path commits results its workers ran), but in-repo code
        should prefer this entry point.
        """
        cached = self.get(job)
        if cached is not None:
            return cached
        if run is None:
            run = execute_job_with_records if self.store_records else execute_job
        summary, records = unpack_outcome(run(job))
        self.put(job, summary, records=records)
        return summary

    def get_records(self, job: RunnerJob) -> RecordArrays | None:
        """Load one job's persisted per-invocation records (or None)."""
        path = self._records_path(self.key(job))
        if not path.exists():
            return None
        return RecordArrays.from_npz(path)

    def __len__(self) -> int:
        return len(list(self.directory.glob("*.json")))

    def record_count(self) -> int:
        """How many entries have persisted per-invocation records."""
        return len(list(self.directory.glob("*.npz")))

    def clear(self) -> int:
        """Delete every cached entry (summaries and any persisted
        records); returns the number of *entries* (summaries) removed --
        a summary and its ``.npz`` records count as one entry."""
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        for path in self.directory.glob("*.npz"):
            path.unlink()
        return removed


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridResult:
    """All summaries of one grid run, positionally aligned with its jobs."""

    jobs: tuple[RunnerJob, ...]
    summaries: tuple[ResultSummary, ...]

    def __len__(self) -> int:
        return len(self.summaries)

    @property
    def scenario_labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for job in self.jobs:
            seen.setdefault(job.scenario_label)
        return tuple(seen)

    def by_scenario(self) -> dict[str, dict[str, ResultSummary]]:
        """``{scenario label: {scheduler name: summary}}``."""
        out: dict[str, dict[str, ResultSummary]] = {}
        for job, summary in zip(self.jobs, self.summaries):
            out.setdefault(job.scenario_label, {})[job.scheduler] = summary
        return out


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-sweep (OOM kill, segfault, ``os._exit``).

    ``concurrent.futures`` surfaces this as a bare ``BrokenProcessPool``
    that says nothing about *which* jobs were lost. This wrapper names
    the jobs that had not completed when the pool broke
    (``failed_labels``) and how many results landed first
    (``completed``). Completed results were already written to the
    :class:`ResultCache` (if one is configured), so re-running the same
    grid resumes from the cache and only re-executes the failed tail.
    """

    def __init__(self, failed_labels: Sequence[str], completed: int) -> None:
        self.failed_labels = tuple(failed_labels)
        self.completed = completed
        preview = ", ".join(self.failed_labels[:5])
        if len(self.failed_labels) > 5:
            preview += f", ... ({len(self.failed_labels) - 5} more)"
        super().__init__(
            f"worker process died; {completed} job(s) completed, "
            f"{len(self.failed_labels)} lost: {preview}. Completed results "
            "are in the cache (if configured) -- re-run to resume."
        )


class ParallelRunner:
    """Executes runner jobs, cache-first, in-process or on a local pool.

    ``n_workers=1`` runs in-process; ``n_workers>1`` fans the cache
    misses out over a :class:`concurrent.futures.ProcessPoolExecutor`;
    ``n_workers=None`` uses the CPU count. Both paths run the same
    :func:`execute_job` entry point, so results are bit-identical.
    Job order is always preserved in the returned list.

    If a pool worker dies mid-sweep the run raises
    :class:`WorkerCrashError` naming the lost jobs; everything that
    completed before the crash is already in the cache, so re-running
    the same grid skips it.
    """

    def __init__(
        self, n_workers: int | None = 1, cache: ResultCache | None = None
    ) -> None:
        self.n_workers = (
            int(n_workers) if n_workers is not None else (os.cpu_count() or 1)
        )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.cache = cache

    def _entry(self) -> Callable[[RunnerJob], JobOutcome]:
        # A record-persisting cache needs the per-invocation columns
        # back from the worker; otherwise ship only the summary.
        if self.cache is not None and self.cache.store_records:
            return execute_job_with_records
        return execute_job

    def run(self, jobs: Sequence[RunnerJob]) -> list[ResultSummary]:
        """Execute all jobs (cache-first), preserving job order."""
        jobs = list(jobs)
        if self.n_workers == 1:
            return self._run_serial(jobs)

        results: list[ResultSummary | None] = [None] * len(jobs)
        pending: list[int] = []
        for i, job in enumerate(jobs):
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)

        if len(pending) == 1:
            # A single miss is not worth a pool spin-up.
            [i] = pending
            summary, records = unpack_outcome(self._entry()(jobs[i]))
            results[i] = summary
            if self.cache is not None:
                self.cache.put(jobs[i], summary, records=records)
        elif pending:
            self._run_on_pool(jobs, pending, results)

        return list(results)  # type: ignore[arg-type]

    def _run_serial(self, jobs: Sequence[RunnerJob]) -> list[ResultSummary]:
        """In-process path: one cache round-trip per job, in order."""
        if self.cache is None:
            return [execute_job(job) for job in jobs]
        entry = self._entry()
        return [self.cache.fetch_or_run(job, entry) for job in jobs]

    def _run_on_pool(
        self,
        jobs: Sequence[RunnerJob],
        pending: Sequence[int],
        results: "list[ResultSummary | None]",
    ) -> None:
        """Fan the pending jobs out over a process pool and collect.

        Results are committed as they land so record arrays are dropped
        immediately -- peak memory stays one in-flight result per
        worker, not the whole grid's records. A worker death breaks the
        pool and fails every unfinished future with
        ``BrokenProcessPool``; those are aggregated into one
        :class:`WorkerCrashError`. Any other exception is a bug in the
        job itself and re-raises directly.
        """
        entry = self._entry()
        failed: list[int] = []
        first_exc: BaseException | None = None
        with concurrent.futures.ProcessPoolExecutor(
            min(self.n_workers, len(pending))
        ) as pool:
            index_of = {pool.submit(entry, jobs[i]): i for i in pending}
            for future in concurrent.futures.as_completed(index_of):
                i = index_of[future]
                exc = future.exception()
                if exc is None:
                    summary, records = unpack_outcome(future.result())
                    results[i] = summary
                    if self.cache is not None:
                        self.cache.put(jobs[i], summary, records=records)
                elif isinstance(exc, BrokenProcessPool):
                    failed.append(i)
                    if first_exc is None:
                        first_exc = exc
                else:
                    raise exc

        if failed:
            labels = [
                f"{jobs[i].scheduler} @ {jobs[i].scenario_label}"
                for i in sorted(failed)
            ]
            raise WorkerCrashError(
                labels, completed=len(jobs) - len(failed)
            ) from first_exc

    def run_grid(
        self,
        grid: ScenarioGrid | Iterable[ScenarioSpec],
        schedulers: Sequence[str],
        config: EcoLifeConfig | None = None,
    ) -> GridResult:
        """Run every scheduler over every scenario of the grid."""
        if isinstance(grid, ScenarioGrid):
            jobs = grid.jobs(schedulers, config=config)
        else:
            jobs = [
                RunnerJob(scheduler=name, spec=spec, config=config)
                for spec in grid
                for name in schedulers
            ]
        summaries = self.run(jobs)
        return GridResult(jobs=tuple(jobs), summaries=tuple(summaries))
