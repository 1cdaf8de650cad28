"""Sharded single-simulation replay: bit-identical at any shard count.

Partition-by-function replay on 2 and 4 shards -- through the TCP
process coordinator and the in-process thread harness from
``tests/oracles`` -- reproduces the sequential engine's records
bit-for-bit on an Azure-family trace with churn, retirement, shelf spill
and memory pressure; a SIGKILLed worker is replaced mid-run with the
merged result still identical (determinism *is* the checkpoint); and a
spawned worker that dies fails the run instead of hanging it.
"""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.carbon.regions import region_trace_for
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.distributed import ShardJob, run_sharded_tcp
from repro.distributed.shard import ShardCoordinator, _spawned_worker
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine, SimulationResult
from repro.simulator.scheduler import BaseScheduler
from repro.simulator.shard import ShardEngine, barrier_width_s
from repro.workloads.functions import FunctionProfile
from repro.workloads.generators import WorkloadSpec, build_trace
from repro.workloads.trace import InvocationTrace
from tests.oracles import PerEventShardEngine, ThreadBarrier, ThreadShardRunner


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

    def test_spawned_worker_failure_raises_instead_of_hanging(self):
        # Oracle is not sharding-capable: both spawned workers raise and
        # exit non-zero, so no replacement can ever finish their shards.
        trace = churn_trace(n_funcs=6, horizon_s=600.0)
        job = ShardJob(
            scheduler="oracle",
            pair=PAIR_A,
            trace=trace,
            ci_trace=region_trace_for("CAL", 1200.0, seed=1),
            n_shards=2,
        )
        outcome = []

        def run():
            try:
                outcome.append(run_sharded_tcp(job))
            except BaseException as exc:  # noqa: BLE001 -- asserted below
                outcome.append(exc)

        th = threading.Thread(target=run, daemon=True)
        th.start()
        th.join(timeout=60.0)
        assert not th.is_alive(), "run_sharded_tcp hung after its workers died"
        (exc,) = outcome
        assert isinstance(exc, RuntimeError)
        assert "died before the merged result" in str(exc)
        assert "exit codes [" in str(exc)

    def test_reassignment_counts_reissue_before_first_barrier(self):
        """A worker that leaves between ``hello_ack`` and its first
        barrier still has its shard id counted when re-issued."""
        import asyncio

        from repro.distributed.protocol import (
            STREAM_LIMIT,
            parse_address,
            read_msg,
            send,
        )

        trace = churn_trace(n_funcs=4, horizon_s=300.0)
        job = ShardJob(
            scheduler="ecolife",
            pair=PAIR_A,
            trace=trace,
            ci_trace=region_trace_for("CAL", 600.0, seed=1),
            n_shards=1,
        )

        async def hello(address):
            host, port = parse_address(address)
            reader, writer = await asyncio.open_connection(
                host, port, limit=STREAM_LIMIT
            )
            await send(writer, type="hello", role="shard", worker="probe")
            ack = await read_msg(reader)
            writer.close()
            await writer.wait_closed()
            return ack

        async def drive():
            coordinator = ShardCoordinator(job)
            address = await coordinator.start()
            try:
                first = await hello(address)
                # The id is freed once the coordinator sees the close;
                # until then a hello is refused ("all shard ids assigned").
                for _ in range(200):
                    second = await hello(address)
                    if second["type"] == "hello_ack":
                        break
                    await asyncio.sleep(0.01)
                return first, second, coordinator.reassignments
            finally:
                await coordinator.close()

        first, second, reassignments = asyncio.run(drive())
        assert first["type"] == second["type"] == "hello_ack"
        assert first["shard"] == second["shard"] == 0
        assert reassignments == 1


def run_shards(engine_cls, trace, ci, buckets, factory):
    """Run one shard engine per bucket on threads; (result, scheduler)s."""
    barrier = ThreadBarrier(len(buckets))
    out = [None] * len(buckets)

    def work(i):
        try:
            scheduler = factory()
            engine = engine_cls(
                pair=PAIR_A,
                trace=trace,
                ci_trace=ci,
                shard_id=i,
                n_shards=len(buckets),
                own_names=buckets[i],
                transport=barrier,
                config=SIM_CONFIG,
            )
            out[i] = (engine.run_shard(scheduler), scheduler)
        except BaseException as exc:  # noqa: BLE001 -- surfaced below
            barrier.fail(exc)
            out[i] = exc

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(buckets))
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=300.0)
        assert not th.is_alive(), "shard thread did not finish"
    for item in out:
        if isinstance(item, BaseException):
            raise item
    return out


def estimator_state(scheduler):
    return {
        name: (list(est._iats), est._last_arrival)
        for name, est in scheduler.arrivals.export_shelf().items()
    }


def assert_matches_per_event(trace, ci, buckets, factory):
    """Every shard's records and estimator state equal the oracle's."""
    fast = run_shards(ShardEngine, trace, ci, buckets, factory)
    slow = run_shards(PerEventShardEngine, trace, ci, buckets, factory)
    for (res_f, sched_f), (res_s, sched_s) in zip(fast, slow):
        assert_identical(res_f, res_s)
        state_f = estimator_state(sched_f)
        assert list(state_f) == list(estimator_state(sched_s))
        assert state_f == estimator_state(sched_s)
    return SimulationResult.merge([res for res, _ in fast])


class TestForeignFastPath:
    """Bulk absorption of inert foreign runs vs the per-event oracle.

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
        merged = assert_matches_per_event(
            trace,
            ci,
            trace.partition_names(n_shards),
            lambda: EcoLifeScheduler(hard_config(tmp_path / "fp")),
        )
        assert_identical(merged, baseline)

    def test_long_runs_and_repeated_chunks_match_oracle(self, monkeypatch):
        """A shard owning one sparse function while dense functions
        live elsewhere sees foreign runs of well over 64 events and
        absorbs chunks that repeat a function."""
        dense = [
            FunctionProfile(f"dense-{i}", 0.25, 30.0, 2.0) for i in range(3)
        ]
        sparse = FunctionProfile("sparse", 0.25, 30.0, 2.0)
        rng = np.random.default_rng(5)
        events = [(float(t), sparse) for t in np.arange(5.0, 600.0, 97.0)]
        for f in dense:
            events += [
                (float(t), f)
                for t in np.cumsum(rng.exponential(1.2, size=480))
            ]
        trace = InvocationTrace.from_events(events)
        ci = region_trace_for("CAL", 1800.0, seed=4)

        runs, chunks = [], []
        run = ShardEngine._replay_foreign_run
        absorb = ShardEngine._absorb_foreign_chunk

        def run_spy(self, scheduler, step, times, ids, funcs, index, a, b):
            if self.shard_id == 0:
                runs.append(b - a)
            return run(self, scheduler, step, times, ids, funcs, index, a, b)

        def absorb_spy(self, scheduler, funcs, tl, il, start, stop):
            if self.shard_id == 0:
                chunks.append(il[start:stop])
            return absorb(self, scheduler, funcs, tl, il, start, stop)

        monkeypatch.setattr(ShardEngine, "_replay_foreign_run", run_spy)
        monkeypatch.setattr(ShardEngine, "_absorb_foreign_chunk", absorb_spy)
        assert_matches_per_event(
            trace,
            ci,
            [{"sparse"}, {f.name for f in dense}],
            lambda: EcoLifeScheduler(EcoLifeConfig(seed=2)),
        )
        assert max(runs) > 64
        assert any(len(set(c)) < len(c) for c in chunks)

    def test_fast_path_actually_bulk_absorbs(self, tmp_path, monkeypatch):
        absorbed = []
        orig = ShardEngine._absorb_foreign_chunk

        def spy(self, scheduler, funcs, tl, il, start, stop):
            absorbed.append(stop - start)
            return orig(self, scheduler, funcs, tl, il, start, stop)

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

    def test_place_foreign_alone_is_not_sharding_capable(
        self, capsys, monkeypatch
    ):
        # Sharding needs both foreign hooks: a shard replays every
        # foreign arrival through one or the other.
        from repro.cli import main

        monkeypatch.setattr(
            EcoLifeScheduler,
            "observe_foreign_run",
            BaseScheduler.observe_foreign_run,
        )
        scheduler = EcoLifeScheduler()
        assert not scheduler.supports_sharding
        trace = churn_trace(n_funcs=6, horizon_s=600.0)
        engine = ShardEngine(
            pair=PAIR_A,
            trace=trace,
            ci_trace=region_trace_for("CAL", 1200.0, seed=1),
            shard_id=0,
            n_shards=2,
            own_names=trace.partition_names(2)[0],
            transport=None,
            config=SIM_CONFIG,
        )
        with pytest.raises(ValueError, match="observe_foreign_run"):
            engine.run_shard(scheduler)
        code = main(
            [
                "simulate", "--scheduler", "ecolife", "--functions", "4",
                "--hours", "0.1", "--shards", "2",
            ]
        )
        assert code == 2
        assert "does not support sharded replay" in capsys.readouterr().out


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
