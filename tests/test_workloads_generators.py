"""Workload-generator registry: families, WorkloadSpec, properties, churn."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.azure import AzureTraceConfig, generate_azure_trace
from repro.workloads.generators import (
    GENERATORS,
    WorkloadSpec,
    build_trace,
    generator_names,
    make_generator,
)

DURATION_S = 2.0 * 3600.0

#: The synthesizer families: everything except ``file``, which replays
#: a compiled trace from disk (seed and sizes are ignored by design, so
#: the shared synthesizer contracts below don't apply; it gets its own
#: coverage in test_workloads_tracefile.py).
SYNTH_FAMILIES = tuple(sorted(set(GENERATORS) - {"file"}))

#: Strategy over (family, n_functions, duration_s, seed) for the shared
#: property tests. Small sizes keep hypothesis rounds fast.
family_runs = st.tuples(
    st.sampled_from(SYNTH_FAMILIES),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=600.0, max_value=4.0 * 3600.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)


class TestRegistry:
    def test_expected_families_registered(self):
        assert {"azure", "poisson", "diurnal", "mmpp", "pareto", "churn"} <= set(
            generator_names()
        )

    def test_make_generator_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload generator"):
            make_generator("nope")

    def test_make_generator_unknown_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_generator(WorkloadSpec.make("poisson", warp_factor=9))

    def test_all_synth_names_instantiate_and_generate(self):
        for name in SYNTH_FAMILIES:
            trace, specs = make_generator(name).generate(4, 1800.0, seed=1)
            assert len(specs) == 4
            assert set(trace.functions) == {s.profile.name for s in specs}

    def test_file_family_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            make_generator("file")

    def test_azure_family_identical_to_legacy_synthesizer(self):
        legacy, _ = generate_azure_trace(
            AzureTraceConfig(n_functions=10, duration_s=DURATION_S, seed=5)
        )
        new, _ = make_generator("azure").generate(10, DURATION_S, seed=5)
        assert np.array_equal(legacy.times_s, new.times_s)
        assert legacy.func_names == new.func_names


class TestWorkloadSpec:
    def test_parse_bare_name(self):
        assert WorkloadSpec.parse("mmpp") == WorkloadSpec("mmpp")

    def test_parse_params_coerce_types(self):
        spec = WorkloadSpec.parse("mmpp:burst_rate_mult=8,on_duration_s=120.5")
        params = dict(spec.params)
        assert params["burst_rate_mult"] == 8
        assert isinstance(params["burst_rate_mult"], int)
        assert params["on_duration_s"] == 120.5

    def test_parse_string_param(self):
        spec = WorkloadSpec.parse("churn:inner=mmpp,cohorts=3")
        assert dict(spec.params) == {"inner": "mmpp", "cohorts": 3}

    def test_parse_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            WorkloadSpec.parse("mmpp:oops")
        with pytest.raises(ValueError, match="empty generator name"):
            WorkloadSpec.parse(":a=1")

    def test_label_is_param_order_insensitive(self):
        a = WorkloadSpec.make("mmpp", burst_rate_mult=8, on_duration_s=60)
        b = WorkloadSpec.make("mmpp", on_duration_s=60, burst_rate_mult=8)
        assert a == b
        assert a.label == b.label == "mmpp[burst_rate_mult=8,on_duration_s=60]"

    def test_default_azure_label_is_bare_name(self):
        # Cache-identity compatibility: the default workload must label
        # as plain "azure" (pre-PR ScenarioSpec labels started with it).
        assert WorkloadSpec().label == "azure"

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadSpec("mmpp", params=(("a", 1), ("a", 2)))

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = WorkloadSpec.parse("churn:inner=mmpp")
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, WorkloadSpec.parse("churn:inner=mmpp")}) == 1


class TestGeneratorProperties:
    @given(run=family_runs)
    @settings(max_examples=30, deadline=None)
    def test_times_sorted_and_in_range(self, run):
        family, n, duration, seed = run
        trace, _ = make_generator(family).generate(n, duration, seed)
        t = trace.times_s
        assert np.all(np.diff(t) >= 0.0)
        if t.size:
            assert t[0] >= 0.0
            assert t[-1] <= duration

    @given(run=family_runs)
    @settings(max_examples=30, deadline=None)
    def test_same_seed_identical_trace(self, run):
        family, n, duration, seed = run
        a, _ = make_generator(family).generate(n, duration, seed)
        b, _ = make_generator(family).generate(n, duration, seed)
        assert np.array_equal(a.times_s, b.times_s)
        assert a.func_names == b.func_names

    @given(run=family_runs)
    @settings(max_examples=30, deadline=None)
    def test_sampled_rates_within_configured_bounds(self, run):
        family, n, duration, seed = run
        gen = make_generator(family)
        _, specs = gen.generate(n, duration, seed)
        assert len(specs) == n
        lo = getattr(gen, "min_interarrival_s", None)
        hi = getattr(gen, "max_interarrival_s", None)
        for spec in specs:
            assert spec.mean_interarrival_s > 0.0
            if lo is not None and not spec.active_window_s:
                # azure's periodic class uses its fixed timer periods;
                # all popularity-sampled families respect the clip bounds.
                if family != "azure":
                    assert lo <= spec.mean_interarrival_s <= hi

    def test_different_seeds_differ(self):
        # Not a strict guarantee family-by-family for tiny traces, but at
        # workload scale two seeds colliding exactly would indicate a
        # seeding bug.
        for family in SYNTH_FAMILIES:
            a, _ = make_generator(family).generate(20, DURATION_S, seed=1)
            b, _ = make_generator(family).generate(20, DURATION_S, seed=2)
            assert not (
                len(a) == len(b) and np.array_equal(a.times_s, b.times_s)
            ), family


class TestDiurnal:
    def test_amplitude_validated(self):
        with pytest.raises(ValueError, match="amplitude"):
            make_generator(WorkloadSpec.make("diurnal", amplitude=1.5))

    def test_rate_modulation_follows_phase(self):
        """More arrivals near the configured peak than the trough."""
        gen = make_generator(
            WorkloadSpec.make(
                "diurnal",
                amplitude=0.9,
                period_s=7200.0,
                phase=0.0,
                phase_jitter=0.0,
                median_interarrival_s=20.0,
                interarrival_sigma=0.0,
                min_interarrival_s=15.0,
            )
        )
        trace, _ = gen.generate(20, 7200.0, seed=3)
        t = trace.times_s
        # sin peaks in the first half-period, troughs in the second.
        peak = np.sum(t < 3600.0)
        trough = np.sum(t >= 3600.0)
        assert peak > trough * 1.5


class TestMMPP:
    def test_burstiness_exceeds_poisson(self):
        """The MMPP's inter-arrival CV must clearly exceed Poisson's ~1."""

        def mean_cv(family, **params):
            gen = make_generator(WorkloadSpec.make(
                family, median_interarrival_s=60.0, interarrival_sigma=0.0,
                min_interarrival_s=15.0, **params,
            ))
            trace, specs = gen.generate(10, 8.0 * 3600.0, seed=11)
            cvs = []
            for s in specs:
                gaps = trace.interarrival_s(s.profile.name)
                if gaps.size >= 10:
                    cvs.append(gaps.std() / gaps.mean())
            return np.mean(cvs)

        assert mean_cv("mmpp", burst_rate_mult=10.0, idle_rate_mult=0.05) > (
            mean_cv("poisson") + 0.5
        )


class TestPareto:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="alpha"):
            make_generator(WorkloadSpec.make("pareto", alpha=0.9))

    def test_mean_gap_tracks_configured_iat(self):
        gen = make_generator(
            WorkloadSpec.make(
                "pareto", alpha=2.5, median_interarrival_s=60.0,
                interarrival_sigma=0.0, min_interarrival_s=15.0,
            )
        )
        trace, specs = gen.generate(5, 24.0 * 3600.0, seed=2)
        gaps = np.concatenate(
            [trace.interarrival_s(s.profile.name) for s in specs]
        )
        # Mean gap within 25% of the configured 60 s (heavy tail => loose).
        assert 45.0 < gaps.mean() < 75.0


class TestChurn:
    def test_windows_cover_and_bound_arrivals(self):
        gen = make_generator(WorkloadSpec.make("churn", inner="poisson", cohorts=3))
        trace, specs = gen.generate(9, DURATION_S, seed=4)
        assert len(trace) > 0
        for spec in specs:
            lo, hi = spec.active_window_s
            ts = trace.times_of(spec.profile.name)
            assert np.all((ts >= lo) & (ts < hi))

    def test_produces_function_turnover(self):
        """Some functions must stop arriving well before the trace ends
        (the slot-retirement regime for long multi-tenant runs)."""
        gen = make_generator(WorkloadSpec.make("churn", cohorts=4, overlap=0.0))
        trace, specs = gen.generate(12, DURATION_S, seed=9)
        last = {
            s.profile.name: (ts[-1] if (ts := trace.times_of(s.profile.name)).size
                             else 0.0)
            for s in specs
        }
        assert min(last.values()) < 0.5 * trace.duration_s

    def test_rejects_recursive_inner(self):
        with pytest.raises(ValueError, match="wrap itself"):
            make_generator(WorkloadSpec.make("churn", inner="churn"))

    def test_unknown_inner_raises(self):
        with pytest.raises(KeyError, match="unknown inner"):
            make_generator(WorkloadSpec.make("churn", inner="nope")).generate(
                2, 600.0, seed=1
            )


class TestFleetEquivalenceOnGeneratedTraces:
    def test_batch_on_off_identical_on_bursty_trace(self):
        """Fleet-vs-solo equivalence on a generated bursty (MMPP) trace:
        the batched SwarmFleet path must reproduce the sequential
        per-function DPSO results bit-for-bit on the new workload shapes,
        including churned functions that stop arriving mid-trace."""
        from repro.core import EcoLifeConfig, EcoLifeScheduler
        from repro.experiments.common import workload_scenario, run_scheduler
        from tests.oracles import sequential_ecolife

        for workload in ("mmpp", "churn:inner=mmpp"):
            scenario = workload_scenario(
                workload=workload, n_functions=8, hours=0.5, seed=3
            )
            cfg = EcoLifeConfig()
            on = run_scheduler(EcoLifeScheduler(cfg), scenario)
            off = run_scheduler(sequential_ecolife(cfg), scenario)
            assert on.total_carbon_g == off.total_carbon_g, workload
            assert on.total_service_s == off.total_service_s, workload
            assert np.array_equal(
                on.service_times(), off.service_times()
            ), workload


class TestBuildTrace:
    def test_build_trace_convenience(self):
        trace = build_trace("poisson", 4, 1800.0, seed=1)
        assert set(trace.invocation_counts()) == set(trace.functions)
