"""Cross-tick decision batching on continuous traces
(``EcoLifeConfig.decision_quantum_s``).

Default off (quantum 0) must leave replays untouched. With any quantum
the bucketed replay is *bit-identical* to the sequential one:
placements still run one arrival at a time against drained pool state,
every decision is evaluated at its own ``t_end``, and the
completion-bounded flush (a group closes before any arrival reaches the
earliest staged ``t_end``) guarantees keep-alive activations enter the
event heap before the drain that pops them -- the engine's event order,
and therefore every warm hit and adjustment, matches the sequential
replay exactly. ``benchmarks/bench_swarm.py`` measures the (zero)
objective error alongside the continuous-trace speedup.
"""

import numpy as np
import pytest

from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler, OptimizerKind
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace


def continuous_trace(n_funcs=10, horizon_s=900.0, seed=5, mean_iat=12.0):
    """Strictly continuous arrivals: no two invocations share an instant."""
    rng = np.random.default_rng(seed)
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.4 + 0.1 * (i % 4),
            exec_ref_s=1.0 + 0.25 * (i % 5),
            cold_ref_s=0.8,
        )
        for i in range(n_funcs)
    ]
    events = []
    for f in funcs:
        t = float(rng.exponential(mean_iat))
        while t < horizon_s:
            events.append((t, f))
            t += float(rng.exponential(mean_iat))
    trace = InvocationTrace.from_events(events)
    assert len(set(trace.times_s)) == len(trace), "arrivals must be distinct"
    return trace


class RecordingScheduler(EcoLifeScheduler):
    """EcoLife that records the keep-alive batch sizes it was handed."""

    def __init__(self, config):
        super().__init__(config)
        self.batch_sizes = []

    def keepalive_batch(self, reqs):
        self.batch_sizes.append(len(reqs))
        return super().keepalive_batch(reqs)


def replay(trace, config, scheduler_cls=EcoLifeScheduler):
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(measure_decision_overhead=False),
    )
    scheduler = scheduler_cls(config)
    return engine.run(scheduler), scheduler


def assert_records_identical(a, b):
    assert len(a.records) == len(b.records)
    assert a.total_carbon_g == b.total_carbon_g
    assert a.total_service_s == b.total_service_s
    for ra, rb in zip(a.records, b.records):
        assert ra.cold == rb.cold
        assert ra.location is rb.location
        assert ra.keepalive_decision == rb.keepalive_decision
        assert ra.keepalive_s == rb.keepalive_s
        assert ra.keepalive_carbon == rb.keepalive_carbon


def min_service_s(trace):
    return min(
        f.service_time_s(PAIR_A.server(g), cold=False, setup_s=0.05)
        for f in trace.functions.values()
        for g in (PAIR_A.old.generation, PAIR_A.new.generation)
    )


class TestQuantumOff:
    def test_zero_quantum_never_groups_distinct_instants(self):
        trace = continuous_trace()
        off, sched = replay(trace, EcoLifeConfig(), RecordingScheduler)
        assert max(sched.batch_sizes) == 1
        assert len(off.records) == len(trace)

    def test_scheduler_without_batch_support_ignores_quantum(self):
        """GA has no batched kernel: its ``keepalive_batch`` decides item
        by item, so the quantum regroups its decisions but changes none
        of its results."""
        ga = EcoLifeConfig(optimizer=OptimizerKind.GENETIC)
        trace = continuous_trace(n_funcs=4, horizon_s=300.0)
        quantum, sched = replay(
            trace,
            EcoLifeConfig(optimizer=OptimizerKind.GENETIC, decision_quantum_s=30.0),
            RecordingScheduler,
        )
        assert max(sched.batch_sizes) > 1
        plain, _ = replay(trace, ga)
        assert_records_identical(quantum, plain)


class TestQuantumOn:
    def test_groups_form_on_continuous_traces(self):
        trace = continuous_trace()
        cfg = EcoLifeConfig(decision_quantum_s=1.0)
        _, sched = replay(trace, cfg, RecordingScheduler)
        assert max(sched.batch_sizes) > 1  # batching actually engaged

    def test_small_quantum_is_bit_identical(self):
        """Quantum below the minimum service time reorders nothing."""
        trace = continuous_trace()
        q = 0.5 * min_service_s(trace)
        on, _ = replay(trace, EcoLifeConfig(decision_quantum_s=q))
        off, _ = replay(trace, EcoLifeConfig())
        assert_records_identical(on, off)

    def test_repeated_function_splits_bucket(self):
        """Back-to-back arrivals of one function inside a bucket must
        decide in order (the second depends on the first)."""
        f = FunctionProfile(name="hot", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=0.5)
        g = FunctionProfile(name="other", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=0.5)
        events = []
        for k in range(12):
            base = 10.0 * k
            events += [(base, f), (base + 0.25, g), (base + 0.5, f)]
        trace = InvocationTrace.from_events(events)
        on, _ = replay(trace, EcoLifeConfig(decision_quantum_s=1.0))
        off, _ = replay(trace, EcoLifeConfig())
        assert_records_identical(on, off)

    @pytest.mark.parametrize("quantum", [5.0, 30.0, 300.0])
    def test_wide_quantum_is_still_bit_identical(self, quantum):
        """The completion-bounded flush keeps event ordering sequential
        no matter how wide the bucket is."""
        trace = continuous_trace(n_funcs=12, horizon_s=1200.0, mean_iat=8.0)
        on, _ = replay(trace, EcoLifeConfig(decision_quantum_s=quantum))
        off, _ = replay(trace, EcoLifeConfig())
        assert_records_identical(on, off)

    def test_quantum_under_memory_pressure_bit_identical(self):
        """Adjustment/spill/eviction ordering survives bucketing."""
        trace = continuous_trace(n_funcs=12, horizon_s=900.0, mean_iat=6.0)

        def tight(config):
            engine = SimulationEngine(
                pair=PAIR_A,
                trace=trace,
                ci_trace=CarbonIntensityTrace.constant(250.0),
                config=SimulationConfig(
                    measure_decision_overhead=False,
                    pool_capacity_old_gb=1.5,
                    pool_capacity_new_gb=1.5,
                ),
            )
            return engine.run(EcoLifeScheduler(config))

        on = tight(EcoLifeConfig(decision_quantum_s=20.0))
        off = tight(EcoLifeConfig())
        assert off.evicted_count + off.spilled_count > 0  # pressure is real
        assert_records_identical(on, off)
        assert on.evicted_count == off.evicted_count
        assert on.spilled_count == off.spilled_count
        assert on.dropped_count == off.dropped_count

    def test_config_validation(self):
        with pytest.raises(ValueError, match="decision_quantum_s"):
            EcoLifeConfig(decision_quantum_s=-1.0)


class TestAdaptiveQuantum:
    """``adaptive_decision_quantum``: the engine clamps the tick to the
    observed minimum service time. Pure look-ahead heuristic -- replays
    must be bit-identical to the static setting (and to quantum off),
    even though the effective width varies as the running min tightens.
    """

    def test_adaptive_matches_static_bit_identical(self):
        trace = continuous_trace()
        q = 2.0 * min_service_s(trace)  # wider than the clamp target
        adaptive, _ = replay(
            trace,
            EcoLifeConfig(decision_quantum_s=q, adaptive_decision_quantum=True),
        )
        static, _ = replay(trace, EcoLifeConfig(decision_quantum_s=q))
        assert_records_identical(adaptive, static)

    def test_adaptive_without_static_width_matches_off(self):
        """quantum=0 + adaptive: the observed min alone drives the
        width; results still match the sequential replay exactly."""
        trace = continuous_trace(n_funcs=12, horizon_s=1200.0, mean_iat=8.0)
        adaptive, _ = replay(
            trace, EcoLifeConfig(adaptive_decision_quantum=True)
        )
        off, _ = replay(trace, EcoLifeConfig())
        assert_records_identical(adaptive, off)

    def test_adaptive_engages_batching_without_tuning(self):
        """Self-tuning: with no hand-picked quantum, groups still form
        on a dense continuous trace once a service time is observed."""
        cfg = EcoLifeConfig(adaptive_decision_quantum=True)
        trace = continuous_trace(n_funcs=12, horizon_s=1200.0, mean_iat=2.0)
        _, sched = replay(trace, cfg, RecordingScheduler)
        assert max(sched.batch_sizes) > 1

    def test_adaptive_without_batch_kernel_is_bit_identical(self):
        """SA decides item by item inside ``keepalive_batch``; the
        adaptive tick regroups it without changing a result."""
        trace = continuous_trace(n_funcs=4, horizon_s=300.0)
        sa = EcoLifeConfig(optimizer=OptimizerKind.ANNEALING)
        on, _ = replay(
            trace,
            EcoLifeConfig(
                optimizer=OptimizerKind.ANNEALING, adaptive_decision_quantum=True
            ),
        )
        plain, _ = replay(trace, sa)
        assert_records_identical(on, plain)

    def test_adaptive_under_memory_pressure_bit_identical(self):
        trace = continuous_trace(n_funcs=12, horizon_s=900.0, mean_iat=6.0)

        def tight(config):
            engine = SimulationEngine(
                pair=PAIR_A,
                trace=trace,
                ci_trace=CarbonIntensityTrace.constant(250.0),
                config=SimulationConfig(
                    measure_decision_overhead=False,
                    pool_capacity_old_gb=1.5,
                    pool_capacity_new_gb=1.5,
                ),
            )
            return engine.run(EcoLifeScheduler(config))

        on = tight(
            EcoLifeConfig(decision_quantum_s=20.0, adaptive_decision_quantum=True)
        )
        off = tight(EcoLifeConfig())
        assert off.evicted_count + off.spilled_count > 0
        assert_records_identical(on, off)
