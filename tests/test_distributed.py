"""The TCP job fabric (ISSUE 8 tentpole): protocol, server, executor,
worker -- and every fault path the acceptance criteria name.

Determinism contract under test: a grid swept through ``TcpExecutor``
-- with workers dying mid-lease, leases expiring, retries, and local
fallback -- must land summaries *bit-identical* (modulo the
``wall_time_s`` telemetry field, excluded via ``deterministic_dict``)
to a serial in-process run, because every backend executes the same
``execute_job`` entry point.

Fault injection is deterministic: "a worker killed mid-job" is a fake
protocol client that takes a lease and then disconnects (or silently
stops heartbeating), not a racy ``os.kill``. The racy real-process
variant lives in the CI ``distributed-smoke`` job.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.registry import (
    create_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.experiments.runner import (
    JobFailedError,
    ParallelRunner,
    ResultCache,
    RunnerJob,
    ScenarioSpec,
    WorkerCrashError,
    execute_job,
)
from repro.distributed import (
    JobServer,
    TcpExecutor,
    backoff_s,
    fetch_stats,
    format_address,
    parse_address,
    run_worker,
)
from repro.distributed.protocol import (
    STREAM_LIMIT,
    pack,
    read_msg,
    send,
    unpack,
)


def tiny_jobs(schedulers=("new-only", "oracle"), seeds=(1, 2)):
    return [
        RunnerJob(
            scheduler=s, spec=ScenarioSpec(n_functions=4, hours=0.5, seed=seed)
        )
        for s in schedulers
        for seed in seeds
    ]


def det(summaries):
    return [s.deterministic_dict() for s in summaries]


@pytest.fixture(scope="module")
def serial_results():
    jobs = tiny_jobs()
    return jobs, [execute_job(j).deterministic_dict() for j in jobs]


def start_worker_thread(address, name, **kwargs):
    kwargs.setdefault("exit_when_drained", True)
    thread = threading.Thread(
        target=run_worker,
        args=(address,),
        kwargs=dict(name=name, **kwargs),
        daemon=True,
    )
    thread.start()
    return thread


class TestProtocol:
    def test_parse_address_round_trip(self):
        assert parse_address("tcp://127.0.0.1:7044") == ("127.0.0.1", 7044)
        assert parse_address(format_address("host", 0)) == ("host", 0)

    @pytest.mark.parametrize(
        "bad",
        [
            "127.0.0.1:7044",  # missing scheme
            "tcp://7044",  # missing host
            "tcp://host:",  # missing port
            "tcp://host:notaport",
            "tcp://host:99999",
            "http://host:80",
        ],
    )
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_pack_unpack_round_trips_jobs(self):
        job = tiny_jobs()[0]
        clone = unpack(pack(job))
        assert clone == job

    def test_backoff_shape_matches_carbon_provider(self):
        """The retry schedule reuses the providers' capped-exponential
        shape: min(base * 2**attempt, cap)."""
        from repro.carbon.providers import ElectricityMapsProvider

        provider = ElectricityMapsProvider(
            zone="X",
            fetch=lambda: [],
            backoff_base_s=0.5,
            backoff_cap_s=8.0,
        )
        for attempt in range(8):
            assert backoff_s(attempt, 0.5, 8.0) == provider.backoff_s(attempt)


class TestTcpSweep:
    def test_two_workers_bit_identical_to_serial(
        self, serial_results, tmp_path
    ):
        jobs, serial = serial_results
        cache = ResultCache(tmp_path)
        executor = TcpExecutor(
            cache=cache, lease_timeout_s=5.0, local_fallback_after_s=None
        )
        try:
            threads = [
                start_worker_thread(executor.address, f"w{i}") for i in range(2)
            ]
            runner = ParallelRunner(cache=cache, executor=executor)
            got = runner.run(jobs)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            executor.shutdown()
        assert det(got) == serial
        # The shared cache now holds summaries bit-identical to a serial
        # run's cache (the acceptance criterion).
        assert (cache.hits, cache.misses) == (0, 4)
        for job, expected in zip(jobs, serial):
            assert cache.get(job).deterministic_dict() == expected

    def test_stats_wire_message(self, serial_results):
        jobs, _ = serial_results
        executor = TcpExecutor(lease_timeout_s=5.0, local_fallback_after_s=None)
        try:
            thread = start_worker_thread(executor.address, "w0")
            runner = ParallelRunner(executor=executor)
            runner.run(jobs)
            stats = fetch_stats(executor.address)
            thread.join(timeout=10)
        finally:
            executor.shutdown()
        assert stats["type"] == "stats"
        assert stats["done"] == len(jobs)
        assert stats["queue_depth"] == 0 and stats["leased"] == 0
        assert stats["lease_ages_s"] == []
        [(name, worker)] = [
            (n, w) for n, w in stats["workers"].items() if w["completed"]
        ]
        assert name.startswith("w0#")
        assert worker["completed"] == len(jobs)
        assert worker["busy_s"] > 0.0

    def test_runner_string_spec_hosts_executor(self, serial_results):
        """ParallelRunner(executor='tcp://...') lazily hosts the server
        and degrades to local execution with no workers attached."""
        jobs, serial = serial_results
        runner = ParallelRunner(executor="tcp://127.0.0.1:0")
        # Patch the lazily built executor to a fast fallback grace.
        executor = runner._resolve_executor()
        executor.local_fallback_after_s = 0.1
        try:
            got = runner.run(jobs)
        finally:
            runner.close()
        assert det(got) == serial

    def test_runner_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="executor spec"):
            ParallelRunner(executor="ssh://nope")


class TestLocalFallback:
    def test_zero_workers_completes_bit_identical(self, serial_results):
        jobs, serial = serial_results
        executor = TcpExecutor(local_fallback_after_s=0.1)
        try:
            runner = ParallelRunner(executor=executor)
            got = runner.run(jobs)
            stats = executor.stats()
        finally:
            executor.shutdown()
        assert det(got) == serial
        assert stats["done"] == len(jobs)
        assert stats["workers"] == {}  # nothing ever connected


async def lease_then_die(address):
    """A fake worker: handshake, take one lease, vanish mid-job."""
    host, port = parse_address(address)
    reader, writer = await asyncio.open_connection(
        host, port, limit=STREAM_LIMIT
    )
    await send(writer, type="hello", worker="doomed")
    ack = await read_msg(reader)
    assert ack["type"] == "hello_ack"
    await send(writer, type="request")
    msg = await read_msg(reader)
    assert msg["type"] == "lease", msg
    writer.close()  # killed mid-job: lease never completes
    return msg["job_id"]


async def lease_then_stall(address, hold_s):
    """A fake worker that takes a lease and silently stops heartbeating
    (a hung process, not a dead connection)."""
    host, port = parse_address(address)
    reader, writer = await asyncio.open_connection(
        host, port, limit=STREAM_LIMIT
    )
    await send(writer, type="hello", worker="stalled")
    await read_msg(reader)
    await send(writer, type="request")
    msg = await read_msg(reader)
    assert msg["type"] == "lease", msg
    await asyncio.sleep(hold_s)  # no heartbeat, no result
    writer.close()


class TestWorkerLossMidJob:
    def test_disconnect_requeues_lease_on_another_worker(
        self, serial_results
    ):
        jobs, serial = serial_results
        executor = TcpExecutor(
            lease_timeout_s=5.0,
            local_fallback_after_s=None,
            backoff_base_s=0.01,
        )
        try:
            futures = [executor.submit(j) for j in jobs]
            # Deterministic kill: the doomed worker holds a lease when it
            # dies, before any healthy worker exists.
            asyncio.run(lease_then_die(executor.address))
            thread = start_worker_thread(executor.address, "healthy")
            got = [f.result(timeout=60) for f in futures]
            stats = executor.stats()
            thread.join(timeout=10)
        finally:
            executor.shutdown()
        assert det(got) == serial
        assert stats["retries_total"] >= 1
        assert stats["failed"] == 0

    def test_heartbeat_timeout_expires_stalled_lease(self, serial_results):
        jobs, serial = serial_results
        executor = TcpExecutor(
            lease_timeout_s=0.3,
            local_fallback_after_s=None,
            backoff_base_s=0.01,
        )
        try:
            futures = [executor.submit(j) for j in jobs]
            stall = threading.Thread(
                target=asyncio.run,
                args=(lease_then_stall(executor.address, 3.0),),
                daemon=True,
            )
            stall.start()
            time.sleep(0.15)  # let the stalled client grab its lease
            thread = start_worker_thread(executor.address, "healthy")
            got = [f.result(timeout=60) for f in futures]
            stats = executor.stats()
            thread.join(timeout=10)
            stall.join(timeout=10)
        finally:
            executor.shutdown()
        assert det(got) == serial
        assert stats["expired_leases"] >= 1
        assert stats["failed"] == 0


@pytest.fixture
def boom_scheduler():
    name = "test-boom"
    unregister_scheduler(name)

    @register_scheduler(name)
    def _boom(config):
        raise RuntimeError("boom: intentionally unbuildable")

    yield name
    unregister_scheduler(name)


class TestPoisonJob:
    def test_retry_budget_exhausted_raises_worker_crash(
        self, boom_scheduler, tmp_path
    ):
        good = RunnerJob(
            scheduler="new-only",
            spec=ScenarioSpec(n_functions=4, hours=0.5, seed=1),
        )
        poison = RunnerJob(
            scheduler=boom_scheduler,
            spec=ScenarioSpec(n_functions=4, hours=0.5, seed=9),
        )
        cache = ResultCache(tmp_path)
        executor = TcpExecutor(
            cache=cache,
            max_retries=1,
            backoff_base_s=0.01,
            local_fallback_after_s=0.1,
        )
        runner = ParallelRunner(cache=cache, executor=executor)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                runner.run([good, poison])
        finally:
            executor.shutdown()
        err = excinfo.value
        # The crash names exactly the poison job...
        assert err.failed_labels == (
            f"{boom_scheduler} @ {poison.scenario_label}",
        )
        assert err.completed == 1
        assert "re-run to resume" in str(err)
        # ...the cause records the exhausted budget (1 + max_retries)...
        assert isinstance(err.__cause__, JobFailedError)
        assert err.__cause__.attempts == 2
        assert "boom" in err.__cause__.last_error
        # ...and the healthy job's result was committed server-side, so
        # a re-run resumes from the cache.
        assert cache.get(good) is not None
        hits_before = cache.hits
        [resumed] = ParallelRunner(cache=cache).run([good])
        assert cache.hits == hits_before + 1
        assert resumed.deterministic_dict() == (
            execute_job(good).deterministic_dict()
        )


class TestCacheResumeAfterPartialRun:
    def test_partial_distributed_run_resumes_serially(
        self, serial_results, tmp_path
    ):
        """Interrupt a distributed sweep after two results landed; a
        plain serial re-run over the same cache executes only the
        remainder and every summary matches the serial reference."""
        jobs, serial = serial_results
        cache = ResultCache(tmp_path)
        executor = TcpExecutor(
            cache=cache, lease_timeout_s=5.0, local_fallback_after_s=None
        )
        try:
            futures = [executor.submit(j) for j in jobs]
            thread = start_worker_thread(
                executor.address, "short-lived", max_jobs=2,
                exit_when_drained=False,
            )
            thread.join(timeout=60)
            # The server commits each result on its own thread, so the
            # second future may resolve just after the worker exits.
            deadline = time.monotonic() + 30.0
            while (
                sum(f.done() for f in futures) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            done = [f for f in futures if f.done()]
            assert len(done) == 2  # the worker quit mid-sweep
        finally:
            executor.shutdown()  # abandons the rest: the interruption

        assert cache.record_count() == 0  # summaries only
        resumed = ParallelRunner(cache=cache).run(jobs)
        assert det(resumed) == serial
        assert cache.hits == 2 and cache.misses == 2


class TestCliWorker:
    """Real `python -m repro.cli work` subprocesses against a live
    executor -- the deployment shape, including a mid-run SIGKILL."""

    def spawn(self, address, name, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "work", address,
                "--name", name, "--exit-when-drained", *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_subprocess_workers_one_killed_mid_run(self, serial_results):
        jobs, serial = serial_results
        executor = TcpExecutor(lease_timeout_s=10.0, local_fallback_after_s=None)
        procs = []
        try:
            victim = self.spawn(executor.address, "victim")
            survivor = self.spawn(executor.address, "survivor")
            procs = [victim, survivor]
            futures = [executor.submit(j) for j in jobs * 2]  # 8 jobs
            # Kill one worker as soon as the sweep is in flight.
            deadline = time.monotonic() + 30.0
            while (
                sum(1 for f in futures if f.done()) < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            victim.kill()
            got = [f.result(timeout=120) for f in futures]
            stats = executor.stats()
            # The survivor exits on its own once the server reports the
            # queue drained.
            survivor.wait(timeout=30)
        finally:
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
            executor.shutdown()
        assert det(got) == serial + serial
        assert stats["failed"] == 0
        assert survivor.returncode == 0
        assert "job(s) completed" in survivor.stdout.read()

    def test_worker_reports_unreachable_server(self):
        proc = self.spawn("tcp://127.0.0.1:1", "lost", extra=["--max-jobs", "1"])
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "could not reach job server" in out


class TestJobServerUnit:
    """Direct JobServer coverage for pieces the e2e paths skim."""

    def test_duplicate_result_is_dropped(self):
        async def scenario():
            server = JobServer(lease_timeout_s=5.0)
            await server.start()
            try:
                job = tiny_jobs()[0]
                future = server.submit(job)
                record = server.try_lease("w1")
                outcome = execute_job(record.job)
                assert server.complete(record.job_id, outcome) is True
                # A straggler (expired lease finishing late) re-delivers.
                assert server.complete(record.job_id, outcome) is False
                assert server.duplicate_results == 1
                return await future
            finally:
                await server.close()

        summary = asyncio.run(scenario())
        assert summary.scheduler_name == "new-only"

    def test_unknown_scheduler_name_on_worker_is_retried_then_fails(self):
        """A lease naming a scheduler the worker cannot resolve (plugin
        not imported) burns the retry budget like any worker error."""

        async def scenario():
            server = JobServer(
                lease_timeout_s=5.0, max_retries=1, backoff_base_s=0.01
            )
            await server.start()
            try:
                job = tiny_jobs()[0]
                future = server.submit(job)
                for _ in range(2):
                    record = None
                    while record is None:
                        record = server.try_lease("w1")
                        if record is None:
                            await asyncio.sleep(0.02)
                    try:
                        create_scheduler("not-on-this-worker")
                    except KeyError as exc:
                        server.fail_attempt(record.job_id, repr(exc))
                with pytest.raises(JobFailedError) as excinfo:
                    await future
                return excinfo.value
            finally:
                await server.close()

        err = asyncio.run(scenario())
        assert err.attempts == 2
        assert "not-on-this-worker" in err.last_error

    def test_lease_validation(self):
        with pytest.raises(ValueError, match="lease_timeout_s"):
            JobServer(lease_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            JobServer(max_retries=-1)
