"""Sharded single-simulation replay: bit-identical at any shard count.

The ISSUE 9 acceptance anchors: partition-by-function replay on 2 and 4
shards -- through both the in-process :class:`ThreadShardRunner` and the
TCP process coordinator -- reproduces the sequential engine's records
bit-for-bit on an Azure-family trace with churn, retirement, shelf spill
and memory pressure; and a SIGKILLed worker is replaced mid-run with the
merged result still identical (determinism *is* the checkpoint).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.carbon.regions import region_trace_for
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.distributed import ShardJob, run_sharded_tcp
from repro.distributed.shard import ShardCoordinator, _spawned_worker
from repro.hardware import PAIR_A
from repro.simulator import (
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
    ThreadShardRunner,
)
from repro.simulator.scheduler import BaseScheduler
from repro.simulator.shard import ShardEngine, barrier_width_s
from repro.workloads.generators import WorkloadSpec, build_trace


def churn_trace(n_funcs=30, horizon_s=5400.0, seed=11):
    """Azure-family trace with function churn (arrivals + departures)."""
    return build_trace(WorkloadSpec.of("churn"), n_funcs, horizon_s, seed)


def hard_config(tmp_path):
    """Retirement + shelf spill under churn: the adversarial replay."""
    return EcoLifeConfig(
        seed=3,
        retire_after_s=120.0,
        max_live_swarms=6,
        spill_dir=str(tmp_path / "shelf"),
        spill_archives_after=4,
    )


# Tight pools force evictions/spills so the shared-capacity replication
# is actually exercised, not just the happy path.
SIM_CONFIG = SimulationConfig(
    pool_capacity_old_gb=1.5,
    pool_capacity_new_gb=1.5,
    measure_decision_overhead=False,
)


def sequential(trace, ci, config):
    engine = SimulationEngine(
        pair=PAIR_A, trace=trace, ci_trace=ci, config=SIM_CONFIG
    )
    return engine.run(EcoLifeScheduler(config))


def assert_identical(a: SimulationResult, b: SimulationResult) -> None:
    assert len(a.records) == len(b.records)
    assert a.total_carbon_g == b.total_carbon_g
    assert a.total_service_s == b.total_service_s
    assert a.total_energy_wh == b.total_energy_wh
    for ra, rb in zip(a.records, b.records):
        assert ra.index == rb.index
        assert ra.func_name == rb.func_name
        assert ra.t == rb.t
        assert ra.cold == rb.cold
        assert ra.location is rb.location
        assert ra.keepalive_decision == rb.keepalive_decision
        assert ra.keepalive_s == rb.keepalive_s
        assert ra.keepalive_carbon == rb.keepalive_carbon
        assert ra.evicted == rb.evicted
        assert ra.spilled == rb.spilled


class TestThreadSharding:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_bit_identical_to_sequential(self, tmp_path, n_shards):
        trace = churn_trace()
        ci = region_trace_for("CAL", 7200.0, seed=11)
        config = hard_config(tmp_path / "seq")
        baseline = sequential(trace, ci, config)

        shard_config = hard_config(tmp_path / f"sh{n_shards}")
        sharded = ThreadShardRunner(n_shards).run(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            scheduler_factory=lambda: EcoLifeScheduler(shard_config),
            config=SIM_CONFIG,
        )
        assert sharded.meta["n_shards"] == n_shards
        assert sharded.meta["transport"] == "thread"
        assert_identical(sharded, baseline)

    def test_load_partition_identical(self, tmp_path):
        trace = churn_trace(n_funcs=20, horizon_s=3600.0)
        ci = region_trace_for("TEN", 5400.0, seed=5)
        config = hard_config(tmp_path / "seq")
        baseline = sequential(trace, ci, config)
        shard_config = hard_config(tmp_path / "load")
        sharded = ThreadShardRunner(3, by="load").run(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            scheduler_factory=lambda: EcoLifeScheduler(shard_config),
            config=SIM_CONFIG,
        )
        assert_identical(sharded, baseline)

    def test_run_scheduler_shards_path(self, tmp_path):
        from repro.experiments import run_scheduler, workload_scenario

        scenario = workload_scenario(
            workload="azure", n_functions=15, hours=1.0, seed=9
        )
        config = EcoLifeConfig(seed=9)
        plain = run_scheduler(lambda: EcoLifeScheduler(config), scenario)
        sharded = run_scheduler(
            lambda: EcoLifeScheduler(config), scenario, shards=2
        )
        assert sharded.meta["scenario"] == scenario.label
        assert_identical(sharded, plain)
        with pytest.raises(ValueError, match="factory"):
            run_scheduler(EcoLifeScheduler(config), scenario, shards=2)

    def test_unsupported_scheduler_rejected(self):
        from repro.baselines import oracle

        trace = churn_trace(n_funcs=6, horizon_s=600.0)
        ci = region_trace_for("CAL", 1200.0, seed=1)
        with pytest.raises(ValueError, match="supports_sharding"):
            ThreadShardRunner(2).run(
                pair=PAIR_A,
                trace=trace,
                ci_trace=ci,
                scheduler_factory=oracle,
                config=SIM_CONFIG,
            )

    def test_barrier_width_positive_and_conservative(self):
        trace = churn_trace(n_funcs=8, horizon_s=600.0)
        width = barrier_width_s(trace, PAIR_A, SIM_CONFIG)
        assert width > 0.0
        # No decision can activate earlier than one full width after its
        # arrival: width <= min over (func, gen) of setup + exec.
        for f in trace.functions.values():
            for server in (PAIR_A.old, PAIR_A.new):
                assert width <= SIM_CONFIG.setup_delay_s + f.exec_time_s(server)


class TestProcessSharding:
    def test_tcp_coordinator_bit_identical(self, tmp_path):
        trace = churn_trace(n_funcs=16, horizon_s=2400.0)
        ci = region_trace_for("CAL", 3600.0, seed=11)
        config = hard_config(tmp_path / "seq")
        baseline = sequential(trace, ci, config)

        job = ShardJob(
            scheduler="ecolife",
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            n_shards=2,
            config=hard_config(tmp_path / "tcp"),
            sim_config=SIM_CONFIG,
        )
        merged = run_sharded_tcp(job)
        assert merged.meta["transport"] == "tcp"
        assert merged.meta["reassignments"] == 0
        assert_identical(merged, baseline)

    def test_sigkill_worker_resumes_bit_identical(self, tmp_path):
        """Kill one worker mid-run; a replacement replays from round
        zero against the coordinator's cached barriers and the merged
        result is still bit-identical."""
        import asyncio

        trace = churn_trace(n_funcs=30, horizon_s=5400.0)
        ci = region_trace_for("CAL", 7200.0, seed=11)
        baseline = sequential(trace, ci, hard_config(tmp_path / "seq"))

        job = ShardJob(
            scheduler="ecolife",
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            n_shards=2,
            config=hard_config(tmp_path / "kill"),
            sim_config=SIM_CONFIG,
        )

        async def drive():
            coordinator = ShardCoordinator(job)
            address = await coordinator.start()
            procs = [
                multiprocessing.Process(
                    target=_spawned_worker, args=(address,), daemon=True
                )
                for _ in range(2)
            ]
            for p in procs:
                p.start()
            victim = procs[0]
            await asyncio.sleep(0.5)
            if victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()
                replacement = multiprocessing.Process(
                    target=_spawned_worker, args=(address,), daemon=True
                )
                replacement.start()
                procs.append(replacement)
            try:
                return await coordinator.wait(), coordinator.reassignments
            finally:
                await coordinator.close()
                for p in procs:
                    p.join(timeout=10.0)

        merged, reassignments = asyncio.run(drive())
        assert merged.meta["reassignments"] == reassignments
        assert_identical(merged, baseline)


class TestForeignFastPath:
    """ISSUE 10 layer 2: vectorized foreign replay, bit-identical.

    The churned trace + tight pools + retirement scenario
    puts warm hits of foreign functions *inside* bulk-candidate runs, so
    the prefix-splitting (bulk to the first warm/heap boundary, per-event
    the boundary, continue) is exercised, not just the all-cold case.
    """

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_forced_on_off_bit_identical(self, tmp_path, n_shards):
        trace = churn_trace()
        ci = region_trace_for("CAL", 7200.0, seed=11)
        baseline = sequential(trace, ci, hard_config(tmp_path / "seq"))
        results = {}
        for fast in (True, False):
            results[fast] = ThreadShardRunner(
                n_shards, foreign_fast_path=fast
            ).run(
                pair=PAIR_A,
                trace=trace,
                ci_trace=ci,
                scheduler_factory=lambda: EcoLifeScheduler(
                    hard_config(tmp_path / f"fp{fast}")
                ),
                config=SIM_CONFIG,
            )
        assert_identical(results[True], baseline)
        assert_identical(results[False], baseline)

    def test_fast_path_actually_bulk_absorbs(self, tmp_path, monkeypatch):
        absorbed = []
        orig = ShardEngine._absorb_foreign_chunk

        def spy(self, scheduler, times, ids, funcs, start, stop, *a, **kw):
            absorbed.append(stop - start)
            return orig(
                self, scheduler, times, ids, funcs, start, stop, *a, **kw
            )

        monkeypatch.setattr(ShardEngine, "_absorb_foreign_chunk", spy)
        trace = churn_trace()
        ci = region_trace_for("CAL", 7200.0, seed=11)
        ThreadShardRunner(4).run(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            scheduler_factory=lambda: EcoLifeScheduler(
                hard_config(tmp_path / "spy")
            ),
            config=SIM_CONFIG,
        )
        assert sum(absorbed) > 0

    def test_unsafe_scheduler_takes_per_event_path(self, tmp_path, monkeypatch):
        # A scheduler that does not override observe_foreign_run must
        # keep the engine off the bulk path entirely (the base hook
        # raises).
        def boom(self, scheduler, times, ids, funcs, start, stop, *a, **kw):
            raise AssertionError("bulk path reached for unsafe scheduler")

        monkeypatch.setattr(ShardEngine, "_absorb_foreign_chunk", boom)

        class PerEventEcoLife(EcoLifeScheduler):
            observe_foreign_run = BaseScheduler.observe_foreign_run

        def unsafe_factory():
            return PerEventEcoLife(hard_config(tmp_path / "unsafe"))

        trace = churn_trace(n_funcs=10, horizon_s=1200.0)
        ci = region_trace_for("CAL", 2400.0, seed=11)
        baseline = sequential(trace, ci, hard_config(tmp_path / "seq"))
        result = ThreadShardRunner(2).run(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            scheduler_factory=unsafe_factory,
            config=SIM_CONFIG,
        )
        assert_identical(result, baseline)


class TestTraceFileSharding:
    def test_shard_job_by_path_bit_identical(self, tmp_path):
        trace = churn_trace(n_funcs=16, horizon_s=2400.0)
        path = tmp_path / "trace.npz"
        trace.save(path)
        ci = region_trace_for("CAL", 3600.0, seed=11)
        baseline = sequential(trace, ci, hard_config(tmp_path / "seq"))
        job = ShardJob(
            scheduler="ecolife",
            pair=PAIR_A,
            trace=None,
            ci_trace=ci,
            n_shards=2,
            config=hard_config(tmp_path / "bypath"),
            sim_config=SIM_CONFIG,
            trace_path=str(path),
        )
        merged = run_sharded_tcp(job)
        assert_identical(merged, baseline)

    def test_shard_job_requires_exactly_one_trace_source(self, tmp_path):
        trace = churn_trace(n_funcs=4, horizon_s=300.0)
        ci = region_trace_for("CAL", 600.0, seed=1)
        with pytest.raises(ValueError, match="exactly one"):
            ShardJob(
                scheduler="ecolife",
                pair=PAIR_A,
                trace=None,
                ci_trace=ci,
                n_shards=2,
            )
        with pytest.raises(ValueError, match="exactly one"):
            ShardJob(
                scheduler="ecolife",
                pair=PAIR_A,
                trace=trace,
                ci_trace=ci,
                n_shards=2,
                trace_path="also.npz",
            )

    def test_resolve_trace_opens_mmap(self, tmp_path):
        trace = churn_trace(n_funcs=6, horizon_s=600.0)
        path = tmp_path / "t.npz"
        trace.save(path)
        ci = region_trace_for("CAL", 1200.0, seed=1)
        job = ShardJob(
            scheduler="ecolife",
            pair=PAIR_A,
            trace=None,
            ci_trace=ci,
            n_shards=2,
            trace_path=str(path),
        )
        assert job.resolve_trace() == trace


class TestShardStatePlan:
    def test_plan_covers_init_state(self):
        """Every piece of per-shard state is declared in the ownership
        plan (the ecolint ECO005 contract enforces this statically)."""
        plan = ShardEngine._SHARD_STATE_PLAN
        assert set(plan.values()) <= {"replicated", "exchanged", "shard-local"}
        assert plan["_outbox"] == "exchanged"
        assert plan["_by_index"] == "shard-local"

    def test_shard_id_validation(self):
        trace = churn_trace(n_funcs=4, horizon_s=300.0)
        ci = region_trace_for("CAL", 600.0, seed=1)
        with pytest.raises(ValueError):
            ShardEngine(
                pair=PAIR_A,
                trace=trace,
                ci_trace=ci,
                shard_id=2,
                n_shards=2,
                own_names=set(),
                transport=None,
                config=SIM_CONFIG,
            )


class TestMerge:
    def test_merge_rejects_gaps(self):
        trace = churn_trace(n_funcs=6, horizon_s=600.0)
        ci = region_trace_for("CAL", 1200.0, seed=1)
        result = sequential(trace, ci, EcoLifeConfig(seed=1))
        partial = SimulationResult(
            scheduler_name=result.scheduler_name,
            records=result.records[1:],
            horizon_s=result.horizon_s,
        )
        with pytest.raises(ValueError, match="indices"):
            SimulationResult.merge([partial])

    def test_merge_is_order_insensitive(self, tmp_path):
        trace = churn_trace(n_funcs=10, horizon_s=1200.0)
        ci = region_trace_for("CAL", 2400.0, seed=3)
        config = hard_config(tmp_path / "m")
        runner = ThreadShardRunner(3)
        result = runner.run(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            scheduler_factory=lambda: EcoLifeScheduler(config),
            config=SIM_CONFIG,
        )
        baseline = sequential(trace, ci, hard_config(tmp_path / "m2"))
        # fsum totals are a function of the record multiset, not the
        # shard interleaving that produced it.
        assert result.total_carbon_g == baseline.total_carbon_g
        assert result.total_service_s == baseline.total_service_s
