"""Scheduler registry and ``ResultCache.fetch_or_run``.

The registry is the one table from scheme name to constructor: jobs
reference schedulers by name (the picklable cross-process currency),
and out-of-tree code adds names via ``@register_scheduler``.
"""

import pytest

from repro.core import EcoLifeConfig
from repro.experiments.registry import (
    REGISTRY,
    create_scheduler,
    is_registered,
    list_schedulers,
    register_scheduler,
    scheduler_factory,
    unregister_scheduler,
)
from repro.experiments.runner import (
    ResultCache,
    RunnerJob,
    ScenarioSpec,
    execute_job,
    execute_job_with_records,
    unpack_outcome,
)
from repro.simulator import BaseScheduler

BUILTINS = {
    "ecolife",
    "ecolife-no-dpso",
    "ecolife-no-adjust",
    "eco-old",
    "eco-new",
    "ecolife-ga",
    "ecolife-sa",
    "co2-opt",
    "service-time-opt",
    "energy-opt",
    "oracle",
    "new-only",
    "old-only",
}


@pytest.fixture
def scratch_name():
    """A registry slot that is guaranteed clean before and after."""
    name = "test-scratch-scheduler"
    unregister_scheduler(name)
    yield name
    unregister_scheduler(name)


class TestBuiltinRegistrations:
    def test_all_13_builtins_registered(self):
        assert BUILTINS <= set(list_schedulers())
        assert len(BUILTINS) == 13

    def test_list_is_sorted(self):
        names = list_schedulers()
        assert list(names) == sorted(names)

    def test_schedulers_mapping_is_live_and_readonly(self, scratch_name):
        with pytest.raises(TypeError):
            REGISTRY[scratch_name] = lambda config: None  # type: ignore[index]
        register_scheduler(scratch_name)(
            lambda config: create_scheduler("new-only")
        )
        assert scratch_name in REGISTRY  # live view, not a copy

    def test_every_builtin_constructs(self):
        for name in BUILTINS:
            assert isinstance(create_scheduler(name), BaseScheduler)

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_reports_its_registry_name(self, name):
        # One display name per scheme: what a result reports is what
        # the scheme was asked for by.
        assert create_scheduler(name).name == name

    def test_create_scheduler_passes_config(self):
        sched = create_scheduler("ecolife", EcoLifeConfig(seed=3))
        assert sched.name == "ecolife"
        assert sched.config.seed == 3
        with pytest.raises(KeyError, match="unknown scheduler"):
            create_scheduler("nope")


class TestRegisterScheduler:
    def test_register_and_resolve(self, scratch_name):
        calls = []

        @register_scheduler(scratch_name)
        def factory(config):
            calls.append(config)
            return create_scheduler("new-only")

        assert is_registered(scratch_name)
        assert scheduler_factory(scratch_name) is factory
        create_scheduler(scratch_name, EcoLifeConfig(seed=1))
        assert len(calls) == 1

    def test_duplicate_registration_is_loud(self, scratch_name):
        @register_scheduler(scratch_name)
        def factory(config):
            return create_scheduler("new-only")

        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(scratch_name)(
                lambda config: create_scheduler("old-only")
            )

    def test_same_factory_reregistration_is_idempotent(self, scratch_name):
        # Module re-imports re-run decorators with the same object; that
        # must not explode.
        def factory(config):
            return create_scheduler("new-only")

        register_scheduler(scratch_name)(factory)
        register_scheduler(scratch_name)(factory)
        assert is_registered(scratch_name)

    def test_replace_opt_in(self, scratch_name):
        register_scheduler(scratch_name)(
            lambda config: create_scheduler("new-only")
        )

        @register_scheduler(scratch_name, replace=True)
        def newer(config):
            return create_scheduler("old-only")

        assert scheduler_factory(scratch_name) is newer

    def test_bad_names_rejected(self):
        for bad in ("", "  ", "name "):
            with pytest.raises(ValueError, match="non-empty token"):
                register_scheduler(bad)

    def test_unknown_lookup_lists_options(self):
        with pytest.raises(KeyError, match="registered:"):
            scheduler_factory("definitely-not-registered")

    def test_runner_job_validates_against_registry(self, scratch_name):
        spec = ScenarioSpec(n_functions=4, hours=0.5)
        with pytest.raises(KeyError, match="unknown scheduler"):
            RunnerJob(scheduler=scratch_name, spec=spec)
        register_scheduler(scratch_name)(
            lambda config: create_scheduler("new-only")
        )
        job = RunnerJob(scheduler=scratch_name, spec=spec)
        # A registered plugin name executes like a builtin.
        summary = execute_job(job)
        assert summary.scenario_label == spec.label


class TestFetchOrRun:
    """One primitive behind every get/execute/put dance."""

    def job(self, seed=1):
        return RunnerJob(
            scheduler="new-only",
            spec=ScenarioSpec(n_functions=4, hours=0.5, seed=seed),
        )

    def test_miss_runs_and_commits(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = self.job()
        summary = cache.fetch_or_run(job)
        assert (cache.hits, cache.misses) == (0, 1)
        # Second call is a pure hit -- and must not re-execute.
        def explode(_job):
            raise AssertionError("must not run on a hit")

        again = cache.fetch_or_run(job, explode)
        assert (cache.hits, cache.misses) == (1, 1)
        assert again == summary

    def test_matches_direct_execute(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = self.job(seed=2)
        via_cache = cache.fetch_or_run(job)
        direct = execute_job(job)
        assert via_cache.deterministic_dict() == direct.deterministic_dict()

    def test_records_cache_persists_records(self, tmp_path):
        cache = ResultCache(tmp_path, store_records=True)
        job = self.job(seed=3)
        cache.fetch_or_run(job)  # default run picks the records entry
        assert cache.record_count() == 1
        records = cache.get_records(job)
        assert records is not None and len(records.service_s) > 0

    def test_custom_runner_callable(self, tmp_path):
        cache = ResultCache(tmp_path, store_records=True)
        job = self.job(seed=4)
        seen = []

        def run(j):
            seen.append(j)
            return execute_job_with_records(j)

        summary = cache.fetch_or_run(job, run)
        assert seen == [job]
        expected, _ = unpack_outcome(execute_job_with_records(job))
        assert summary.deterministic_dict() == expected.deterministic_dict()
