"""Sweep runner: grid expansion, determinism, caching, registry."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.experiments import quick_scenario, run_suite
from repro.experiments.registry import (
    create_scheduler,
    list_schedulers,
    register_scheduler,
    unregister_scheduler,
)
from repro.experiments.runner import (
    ParallelRunner,
    ResultCache,
    ResultSummary,
    RunnerJob,
    ScenarioGrid,
    ScenarioSpec,
    SummarySchemaError,
    WorkerCrashError,
    execute_job,
    execute_job_with_records,
)
from repro.workloads.generators import WorkloadSpec
from tests.oracles import sequential_ecolife


def tiny_grid(**overrides):
    """A grid small enough for per-test full replays (~100 invocations)."""
    kwargs = dict(
        regions=("CAL",), seeds=(3,), n_functions=6, hours=0.5
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


class TestScenarioSpec:
    def test_label_covers_all_axes(self):
        spec = ScenarioSpec(
            n_functions=5, hours=1.0, seed=9, region="TEN", pair="B",
            pool_gb=16.0, kmax_minutes=20.0,
        )
        label = spec.label
        for token in ("n5", "h1", "s9", "TEN", "pairB", "p16", "k20", "sh8"):
            assert token in label

    def test_labels_distinct_across_every_axis(self):
        """Labels double as cache identity: any parameter change must
        produce a distinct label."""
        base = ScenarioSpec()
        variants = [
            dataclasses.replace(base, n_functions=61),
            dataclasses.replace(base, hours=5.5),
            dataclasses.replace(base, seed=8),
            dataclasses.replace(base, region="TEN"),
            dataclasses.replace(base, pair="B"),
            dataclasses.replace(base, pool_gb=16.0),
            dataclasses.replace(base, kmax_minutes=20.0),
            dataclasses.replace(base, start_hour=0.0),
        ]
        labels = {base.label, *(v.label for v in variants)}
        assert len(labels) == len(variants) + 1

    def test_build_produces_labelled_scenario(self):
        spec = ScenarioSpec(n_functions=5, hours=0.5, seed=1)
        scenario = spec.build()
        assert scenario.label == spec.label
        assert len(scenario.trace) > 0
        assert scenario.sim_config.pool_capacity_old_gb == spec.pool_gb

    def test_build_is_deterministic(self):
        a = ScenarioSpec(n_functions=5, hours=0.5, seed=1).build()
        b = ScenarioSpec(n_functions=5, hours=0.5, seed=1).build()
        assert a.trace.times_s.tolist() == b.trace.times_s.tolist()
        assert a.ci_trace.values.tolist() == b.ci_trace.values.tolist()


class TestScenarioGrid:
    def test_cross_product_size_and_order(self):
        g = ScenarioGrid(
            regions=("CAL", "TEN"), pairs=("A", "B"), seeds=(1, 2),
            pool_gbs=(16.0, 32.0),
        )
        specs = g.specs()
        assert len(g) == 16 and len(specs) == 16
        # Region is the outermost axis, pool the innermost.
        assert specs[0].region == "CAL" and specs[0].pool_gb == 16.0
        assert specs[1].pool_gb == 32.0
        assert specs[-1].region == "TEN" and specs[-1].pair == "B"

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScenarioGrid(regions=())

    def test_runner_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            ParallelRunner(n_workers=0)
        with pytest.raises(ValueError, match=">= 1"):
            ParallelRunner(n_workers=-2)

    def test_jobs_are_scenario_major(self):
        g = tiny_grid(regions=("CAL", "TEN"))
        jobs = g.jobs(["oracle", "ecolife"])
        assert [j.scheduler for j in jobs[:2]] == ["oracle", "ecolife"]
        assert jobs[0].spec == jobs[1].spec


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in list_schedulers():
            sched = create_scheduler(name)
            assert hasattr(sched, "place")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            create_scheduler("nope")

    def test_config_reaches_ecolife(self):
        sched = create_scheduler("ecolife", EcoLifeConfig(seed=99))
        assert isinstance(sched, EcoLifeScheduler)
        assert sched.config.seed == 99


class TestRunnerJob:
    def test_requires_exactly_one_source(self):
        spec = ScenarioSpec(n_functions=5, hours=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            RunnerJob(scheduler="oracle")
        with pytest.raises(ValueError, match="exactly one"):
            RunnerJob(
                scheduler="oracle", spec=spec, scenario=quick_scenario(),
            )

    def test_rejects_unregistered_scheduler(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            RunnerJob(scheduler="nope", spec=ScenarioSpec())

    def test_execute_job_summary(self):
        job = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        summary = execute_job(job)
        assert isinstance(summary, ResultSummary)
        assert summary.scenario_label == job.scenario_label
        assert summary.n_invocations > 0
        assert summary.total_carbon_g > 0.0


class TestDeterminism:
    def test_parallel_matches_serial(self):
        """The acceptance criterion: n_workers > 1 must reproduce the
        serial aggregates byte-for-byte (wall time excluded)."""
        g = tiny_grid(regions=("CAL", "TEN"))
        schedulers = ["oracle", "ecolife"]
        serial = ParallelRunner(n_workers=1).run_grid(g, schedulers)
        parallel = ParallelRunner(n_workers=2).run_grid(g, schedulers)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial.summaries, parallel.summaries):
            assert a.deterministic_dict() == b.deterministic_dict()

    def test_repeat_runs_identical(self):
        job = RunnerJob(
            scheduler="ecolife", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        a, b = execute_job(job), execute_job(job)
        assert a.deterministic_dict() == b.deterministic_dict()


class TestBatchedSwarmEquivalence:
    """Fleet replays must be indistinguishable from the sequential-DPSO
    oracle (``tests/oracles``) in every deterministic aggregate."""

    def test_batch_on_off_identical_cached_summaries(self, tmp_path):
        """A short two-function replay, fleet vs sequential oracle,
        through the full runner + ResultCache pipeline."""
        g = tiny_grid(n_functions=2, hours=0.5)
        config = EcoLifeConfig()
        oracles = {
            "ecolife-sequential": lambda c: sequential_ecolife(c),
            "ecolife-no-dpso-sequential": lambda c: sequential_ecolife(
                c.without_dpso()
            ),
        }
        for name, factory in oracles.items():
            register_scheduler(name)(factory)
        names = {True: ["ecolife", "ecolife-no-dpso"], False: list(oracles)}
        results = {}
        try:
            for flag in (True, False):
                cache = ResultCache(tmp_path / f"batch-{flag}")
                runner = ParallelRunner(n_workers=1, cache=cache)
                grid_result = runner.run_grid(g, names[flag], config=config)
                # What landed in the cache is what we compare.
                cached = [cache.get(job) for job in grid_result.jobs]
                assert all(c is not None for c in cached)
                results[flag] = [c.deterministic_dict() for c in cached]
        finally:
            for name in oracles:
                unregister_scheduler(name)
        assert results[True] == results[False]


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        assert cache.get(job) is None
        summary = execute_job(job)
        cache.put(job, summary)
        assert cache.get(job) == summary
        assert cache.hits == 1 and cache.misses == 1

    def test_key_varies_by_scheduler_scenario_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec(n_functions=6, hours=0.5)
        base = RunnerJob(scheduler="ecolife", spec=spec)
        assert cache.key(base) != cache.key(
            RunnerJob(scheduler="oracle", spec=spec)
        )
        assert cache.key(base) != cache.key(
            RunnerJob(scheduler="ecolife", spec=dataclasses.replace(spec, seed=8))
        )
        assert cache.key(base) != cache.key(
            RunnerJob(scheduler="ecolife", spec=spec, config=EcoLifeConfig(seed=1))
        )

    def test_runner_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        g = tiny_grid()
        runner = ParallelRunner(n_workers=1, cache=cache)
        first = runner.run_grid(g, ["new-only"])
        assert cache.misses == 1 and cache.hits == 0
        second = runner.run_grid(g, ["new-only"])
        assert cache.hits == 1
        assert (
            first.summaries[0].deterministic_dict()
            == second.summaries[0].deterministic_dict()
        )

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        cache.put(job, execute_job(job))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestSummarySchemaTolerance:
    """Stale cache JSON must miss, never crash the sweep (ISSUE 7)."""

    def _summary_dict(self):
        job = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        return job, dataclasses.asdict(execute_job(job))

    def test_unknown_keys_are_tolerated(self):
        _, data = self._summary_dict()
        data["a_future_field"] = 123.0
        summary = ResultSummary.from_json(json.dumps(data))
        assert summary.scheduler_name == data["scheduler_name"]

    def test_missing_required_field_raises_schema_error(self):
        _, data = self._summary_dict()
        del data["total_carbon_g"]
        with pytest.raises(SummarySchemaError, match="total_carbon_g"):
            ResultSummary.from_json(json.dumps(data))

    def test_malformed_json_raises_schema_error(self):
        with pytest.raises(SummarySchemaError):
            ResultSummary.from_json("{not json")
        with pytest.raises(SummarySchemaError):
            ResultSummary.from_json("[1, 2, 3]")

    def test_stale_cache_entry_is_a_miss_not_a_crash(self, tmp_path):
        """Hand-written stale JSON (pre-rename schema) under the current
        key must read as a miss and be overwritten by a re-run."""
        cache = ResultCache(tmp_path)
        job, data = self._summary_dict()
        # Simulate an entry written before a field was renamed.
        stale = dict(data)
        stale["total_co2_g"] = stale.pop("total_carbon_g")
        cache._path(cache.key(job)).write_text(json.dumps(stale))
        assert cache.get(job) is None
        assert cache.misses == 1
        # The runner then re-simulates and repairs the entry in place.
        runner = ParallelRunner(n_workers=1, cache=cache)
        [summary] = runner.run([job])
        assert summary.total_carbon_g == data["total_carbon_g"]
        assert cache.get(job) == summary

    def test_schema_token_is_part_of_the_key(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        job = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        before = cache.key(job)
        monkeypatch.setattr(
            ResultSummary, "schema_token", classmethod(lambda cls: "fields:other")
        )
        assert cache.key(job) != before


class _PoisonTrace:
    """Pickles fine in the parent; kills the worker during unpickling."""

    def __reduce__(self):
        import os

        return (os._exit, (13,))


def _poison_job(scheduler: str) -> RunnerJob:
    scenario = quick_scenario(seed=3)
    scenario = dataclasses.replace(
        scenario, trace=_PoisonTrace(), label=f"poison-{scheduler}"
    )
    return RunnerJob(scheduler=scheduler, scenario=scenario)


class TestWorkerCrash:
    """A worker death surfaces as WorkerCrashError naming the lost jobs,
    and completed results stay resumable from the cache (ISSUE 7)."""

    def test_crash_names_failed_jobs_and_cache_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = RunnerJob(
            scheduler="new-only", spec=ScenarioSpec(n_functions=6, hours=0.5)
        )
        # Pre-complete the good job so it is a cache hit; both pending
        # jobs are poison, so the pool path (>= 2 pending) is exercised
        # deterministically and nothing runs in-process.
        cache.put(good, execute_job(good))
        poison = [_poison_job("new-only"), _poison_job("oracle")]
        runner = ParallelRunner(n_workers=2, cache=cache)
        with pytest.raises(WorkerCrashError) as excinfo:
            runner.run([good, *poison])
        err = excinfo.value
        assert err.completed == 1
        assert set(err.failed_labels) == {
            "new-only @ poison-new-only", "oracle @ poison-oracle"
        }
        assert "re-run to resume" in str(err)
        # Resume: the completed job is served from the cache untouched.
        hits_before = cache.hits
        [resumed] = runner.run([good])
        assert cache.hits == hits_before + 1
        assert resumed.scheduler_name == "new-only"


class TestPoolPath:
    def test_single_miss_runs_in_process(self, tmp_path, monkeypatch):
        """One miss among cache hits runs in-process: no pool starts."""
        cache = ResultCache(tmp_path)
        jobs = tiny_grid().jobs(["oracle", "new-only"])
        cache.put(jobs[0], execute_job(jobs[0]))

        def no_pool(*args, **kwargs):
            raise AssertionError("a single miss must not start a pool")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", no_pool
        )
        summaries = ParallelRunner(n_workers=2, cache=cache).run(jobs)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 2
        assert [s.deterministic_dict() for s in summaries] == [
            execute_job(job).deterministic_dict() for job in jobs
        ]


class TestGridResult:
    def test_by_scenario_pivot(self):
        g = tiny_grid(regions=("CAL", "TEN"))
        result = ParallelRunner().run_grid(g, ["oracle", "new-only"])
        pivot = result.by_scenario()
        assert set(pivot) == set(result.scenario_labels)
        for label, schemes in pivot.items():
            assert set(schemes) == {"oracle", "new-only"}
            assert schemes["oracle"].scenario_label == label


class TestDriverParallelWiring:
    """fig11 / sens_* drivers through ParallelRunner: parallel == serial."""

    @pytest.fixture(scope="class")
    def tiny_scenario(self):
        return ScenarioSpec(n_functions=6, hours=0.5, seed=3).build()

    def test_fig11_parallel_matches_serial(self, tiny_scenario):
        from repro.experiments.fig11_warmpool import run_fig11

        serial = run_fig11(tiny_scenario, n_workers=1)
        parallel = run_fig11(tiny_scenario, n_workers=2)
        assert len(serial.points) == len(parallel.points) == 6
        for a, b in zip(serial.points, parallel.points):
            assert a == b

    def test_optimizer_comparison_parallel_matches_serial(self, tiny_scenario):
        from repro.experiments.sens_optimizers import run_optimizer_comparison

        serial = run_optimizer_comparison(tiny_scenario, n_workers=1)
        parallel = run_optimizer_comparison(tiny_scenario, n_workers=2)
        assert serial.service_s == parallel.service_s
        assert serial.carbon_g == parallel.carbon_g
        assert set(serial.carbon_g) == {"ecolife", "ecolife-ga", "ecolife-sa"}

    def test_embodied_sensitivity_parallel_matches_serial(self, tiny_scenario):
        from repro.experiments.sens_embodied import run_embodied_sensitivity

        serial = run_embodied_sensitivity(tiny_scenario, n_workers=1)
        parallel = run_embodied_sensitivity(tiny_scenario, n_workers=3)
        assert serial.points == parallel.points
        assert len(serial.points) == 3

    def test_component_sensitivity_parallel_matches_serial(self, tiny_scenario):
        from repro.experiments.sens_embodied import run_component_sensitivity

        serial = run_component_sensitivity(tiny_scenario, n_workers=1)
        parallel = run_component_sensitivity(tiny_scenario, n_workers=2)
        assert serial.points == parallel.points

    def test_ga_sa_registry_names(self):
        from repro.core.config import OptimizerKind

        assert create_scheduler("ecolife-ga").config.optimizer is OptimizerKind.GENETIC
        assert (
            create_scheduler("ecolife-sa").config.optimizer is OptimizerKind.ANNEALING
        )


class TestWorkloadAxes:
    def test_spec_workload_in_label(self):
        spec = ScenarioSpec(n_functions=5, hours=0.5, workload="mmpp")
        assert spec.label.startswith("mmpp-n5")
        with_params = ScenarioSpec(
            n_functions=5,
            hours=0.5,
            workload=WorkloadSpec.make("mmpp", burst_rate_mult=8),
        )
        assert with_params.label != spec.label

    def test_spec_accepts_string_workload(self):
        spec = ScenarioSpec(workload="churn:inner=mmpp")
        assert spec.workload == WorkloadSpec.make("churn", inner="mmpp")

    def test_default_labels_unchanged(self):
        # Cache-identity compatibility: the default (azure) spec must
        # produce the exact pre-workload-axis label format.
        assert ScenarioSpec().label == "azure-n60-h6-s7-CAL-pairA-p32-k30-sh8"

    def test_spec_build_uses_generator(self):
        spec = ScenarioSpec(n_functions=5, hours=0.5, seed=3, workload="poisson")
        scenario = spec.build()
        assert scenario.label == spec.label
        assert len(scenario.trace.functions) == 5

    def test_grid_workload_axis_outermost(self):
        g = tiny_grid(workloads=("azure", "mmpp"), pool_gbs=(16.0, 32.0))
        specs = g.specs()
        assert len(g) == len(specs) == 4
        assert specs[0].workload.generator == "azure"
        assert specs[1].pool_gb == 32.0
        assert specs[2].workload.generator == "mmpp"

    def test_grid_scalar_axes_normalised(self):
        g = ScenarioGrid(n_functions=6, hours=0.5, kmax_minutes=20.0)
        assert g.n_functions == (6,)
        assert g.hours == (0.5,)
        assert g.kmax_minutes == (20.0,)
        assert len(g) == 1

    def test_grid_list_axes_coerced_to_tuples(self):
        # A list must expand as an axis, not be wrapped whole.
        g = ScenarioGrid(n_functions=[4, 6], hours=[0.5], kmax_minutes=[20.0])
        assert g.n_functions == (4, 6)
        assert len(g) == 2

    def test_grid_bare_string_workload_is_one_workload(self):
        # Not four per-character specs ("m", "m", "p", "p").
        g = ScenarioGrid(workloads="mmpp")
        assert g.workloads == (WorkloadSpec("mmpp"),)
        single = ScenarioGrid(workloads=WorkloadSpec("mmpp"))
        assert single.workloads == g.workloads

    def test_grid_new_scalar_axes_expand(self):
        g = tiny_grid(n_functions=(4, 6), hours=(0.5, 1.0), kmax_minutes=(20.0,))
        assert len(g) == 4
        labels = [s.label for s in g.specs()]
        assert len(set(labels)) == 4
        # n_functions expands outside hours (axis-order contract).
        assert "n4-h0.5" in labels[0] and "n4-h1" in labels[1]

    def test_mixed_workload_grid_parallel_matches_serial(self):
        """Acceptance: Azure + generated families through the pool, with
        byte-identical serial/parallel aggregates."""
        g = tiny_grid(workloads=("azure", "mmpp", "pareto"))
        schedulers = ["oracle", "ecolife"]
        serial = ParallelRunner(n_workers=1).run_grid(g, schedulers)
        parallel = ParallelRunner(n_workers=2).run_grid(g, schedulers)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial.summaries, parallel.summaries):
            assert a.deterministic_dict() == b.deterministic_dict()


class TestRecordPersistence:
    def make_job(self, **spec_kw):
        kw = dict(n_functions=6, hours=0.5, seed=3)
        kw.update(spec_kw)
        return RunnerJob(scheduler="new-only", spec=ScenarioSpec(**kw))

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, store_records=True)
        job = self.make_job()
        summary, records = execute_job_with_records(job)
        cache.put(job, summary, records=records)
        loaded = cache.get_records(job)
        assert loaded is not None and len(loaded) == summary.n_invocations
        for field in ("t", "service_s", "carbon_g", "energy_wh",
                      "keepalive_s", "cold", "location", "func_name"):
            assert np.array_equal(getattr(loaded, field), getattr(records, field))

    def test_arrays_consistent_with_summary(self):
        job = self.make_job()
        summary, records = execute_job_with_records(job)
        assert np.isclose(records.carbon_g.sum(), summary.total_carbon_g)
        assert np.isclose(records.service_s.mean(), summary.mean_service_s)
        assert np.isclose(records.energy_wh.sum(), summary.total_energy_wh)
        warm = 1.0 - records.cold.mean()
        assert np.isclose(warm, summary.warm_ratio)

    def test_runner_persists_records_serial_and_parallel(self, tmp_path):
        g = tiny_grid(workloads=("mmpp",))
        loaded = {}
        for workers in (1, 2):
            cache = ResultCache(tmp_path / str(workers), store_records=True)
            runner = ParallelRunner(n_workers=workers, cache=cache)
            result = runner.run_grid(g, ["oracle", "ecolife"])
            recs = [cache.get_records(job) for job in result.jobs]
            assert all(r is not None for r in recs)
            loaded[workers] = recs
        for a, b in zip(loaded[1], loaded[2]):
            assert np.array_equal(a.service_s, b.service_s)
            assert np.array_equal(a.carbon_g, b.carbon_g)

    def test_summary_without_records_is_a_miss_for_recording_cache(
        self, tmp_path
    ):
        plain = ResultCache(tmp_path)
        job = self.make_job()
        plain.put(job, execute_job(job))
        recording = ResultCache(tmp_path, store_records=True)
        assert recording.get(job) is None  # summary alone is not enough
        assert plain.get(job) is not None

    def test_record_count_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path, store_records=True)
        job = self.make_job()
        summary, records = execute_job_with_records(job)
        cache.put(job, summary, records=records)
        assert cache.record_count() == 1
        assert cache.clear() == 1
        assert cache.record_count() == 0

    def test_grid_record_cdfs(self, tmp_path):
        from repro.analysis import grid_record_cdfs, record_cdf_table

        g = tiny_grid(workloads=("azure", "mmpp"))
        cache = ResultCache(tmp_path, store_records=True)
        result = ParallelRunner(n_workers=1, cache=cache).run_grid(
            g, ["oracle", "ecolife"]
        )
        cdfs = grid_record_cdfs(cache, result.jobs)
        assert set(cdfs) == {"oracle", "ecolife"}
        total = sum(s.n_invocations for s in result.summaries) // 2
        assert cdfs["ecolife"]["service_s"].values.size == total
        assert cdfs["ecolife"]["service_s"].percentile(95) > 0.0
        table = record_cdf_table(cdfs)
        assert "svc p95" in table and "ecolife" in table

    def test_grid_record_cdfs_omits_empty_schedulers(self, tmp_path):
        from repro.analysis import grid_record_cdfs

        cache = ResultCache(tmp_path, store_records=True)
        # A workload so sparse the trace is (almost surely) empty.
        spec = ScenarioSpec(
            n_functions=2,
            hours=0.1,
            seed=3,
            workload=WorkloadSpec.make(
                "poisson",
                median_interarrival_s=7200.0,
                max_interarrival_s=7200.0,
                interarrival_sigma=0.0,
            ),
        )
        job = RunnerJob(scheduler="new-only", spec=spec)
        summary, records = execute_job_with_records(job)
        cache.put(job, summary, records=records)
        cdfs = grid_record_cdfs(cache, [job])
        if summary.n_invocations == 0:
            assert cdfs == {}
        else:  # pragma: no cover - seed-dependent fallback
            assert "new-only" in cdfs

    def test_grid_record_cdfs_missing_records_raise(self, tmp_path):
        from repro.analysis import grid_record_cdfs

        cache = ResultCache(tmp_path)  # summaries only
        job = self.make_job()
        cache.put(job, execute_job(job))
        with pytest.raises(KeyError, match="no persisted records"):
            grid_record_cdfs(cache, [job])


class TestRunSuiteIntegration:
    def test_registry_names_serial(self):
        scenario = ScenarioSpec(n_functions=6, hours=0.5).build()
        res = run_suite(["new-only"], scenario)
        assert res["new-only"].total_carbon_g > 0.0

    def test_parallel_requires_names(self):
        scenario = ScenarioSpec(n_functions=6, hours=0.5).build()
        with pytest.raises(KeyError, match="registered:.*'new-only'"):
            run_suite(["new-only", "x"], scenario, n_workers=2)

    def test_unknown_name_raises_before_running(self, monkeypatch):
        """Serial suites resolve every name first: an unknown one raises
        the registry's KeyError (listing the valid names) and nothing
        runs."""
        import repro.experiments.common as common

        ran = []
        monkeypatch.setattr(
            common, "run_scheduler", lambda sched, scenario: ran.append(sched)
        )
        scenario = ScenarioSpec(n_functions=6, hours=0.5).build()
        with pytest.raises(KeyError, match="unknown scheduler 'x'; registered:") as exc:
            run_suite(["new-only", "x"], scenario)
        assert all(name in str(exc.value) for name in list_schedulers())
        assert ran == []

    def test_parallel_matches_serial_suite(self):
        scenario = ScenarioSpec(n_functions=6, hours=0.5).build()
        schedulers = ["oracle", "new-only"]
        serial = run_suite(schedulers, scenario)
        parallel = run_suite(schedulers, scenario, n_workers=2)
        for name in schedulers:
            assert parallel[name].total_carbon_g == serial[name].total_carbon_g
            assert parallel[name].mean_service_s == serial[name].mean_service_s
