"""Online decision service: replay parity, checkpointing, HTTP e2e.

The anchor assertions (ISSUE 7 acceptance): decisions served over
``/decide`` against a recorded fixture / wrapped trace are bit-identical
to the replay engine's decisions on the equivalent trace, including
across a checkpoint/restore cycle.
"""

import asyncio
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.carbon import RecordedFixtureProvider, TraceProvider
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.experiments import quick_scenario
from repro.service import (
    DecisionServer,
    DecisionService,
    LatencyWindow,
    LiveArrivalLog,
    ServiceMetrics,
    StaleCarbonFeed,
)
from repro.service.checkpoint import CheckpointStore
from repro.simulator.engine import SimulationEngine

DATA = Path(__file__).resolve().parent / "data"


def replay_payloads(scenario, config=None):
    """The replay engine's decisions, in the service's payload shape."""
    engine = SimulationEngine(
        pair=scenario.pair,
        trace=scenario.trace,
        ci_trace=scenario.ci_trace,
        config=scenario.sim_config,
    )
    result = engine.run(EcoLifeScheduler(config or EcoLifeConfig()))
    return [DecisionService._decision_payload(r) for r in result.records]


def scenario_service(scenario, provider=None, **kwargs):
    functions = {inv.func.name: inv.func for inv in scenario.trace}
    return DecisionService(
        provider or TraceProvider(scenario.ci_trace),
        pair=scenario.pair,
        config=EcoLifeConfig(),
        sim_config=scenario.sim_config,
        functions=functions,
        **kwargs,
    )


def scenario_arrivals(scenario):
    return [(inv.t, inv.func.name) for inv in scenario.trace]


class TestLatencyWindow:
    def test_percentiles_nearest_rank(self):
        w = LatencyWindow()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            w.observe(v)
        assert w.percentile(50.0) == 3.0
        assert w.percentile(99.0) == 5.0
        assert w.percentile(0.0) == 1.0

    def test_empty_and_bounds(self):
        w = LatencyWindow(maxlen=2)
        assert w.percentile(50.0) is None
        with pytest.raises(ValueError):
            w.percentile(101.0)
        for v in (1.0, 2.0, 3.0):
            w.observe(v)
        assert len(w) == 2 and w.count == 3  # window bounded, count lifetime
        with pytest.raises(ValueError):
            LatencyWindow(maxlen=0)

    def test_metrics_snapshot_shape(self):
        m = ServiceMetrics()
        snap = m.snapshot()
        assert snap["decisions_total"] == 0
        assert snap["decision_latency_p99_ms"] is None
        m.observe_batch(4, 0.004)
        snap = m.snapshot()
        assert snap["decisions_total"] == 4
        assert snap["decide_batches_total"] == 1
        assert snap["decision_latency_p50_ms"] == pytest.approx(1.0)


class TestLiveArrivalLog:
    def test_rate_matches_invocation_trace_formula(self):
        scenario = quick_scenario(seed=3)
        log = LiveArrivalLog()
        log.extend([inv.t for inv in scenario.trace])
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, scenario.trace.duration_s, 200):
            assert log.rate_per_minute(t) == scenario.trace.rate_per_minute(t)
            assert log.rate_per_minute(t, 300.0) == scenario.trace.rate_per_minute(
                t, 300.0
            )

    def test_rejects_out_of_order(self):
        log = LiveArrivalLog()
        log.extend([1.0, 2.0, 2.0])  # ties are fine
        with pytest.raises(ValueError, match="time order"):
            log.extend([1.5])
        with pytest.raises(ValueError, match="time order"):
            log.extend([3.0, 2.5])

    def test_prune_keys_off_decided_time(self):
        log = LiveArrivalLog(retention_s=100.0)
        log.extend([0.0, 50.0, 120.0, 200.0])
        # Nothing decided yet past 100s of the oldest: logging alone
        # never prunes (the service logs whole batches before stepping).
        assert len(log) == 4
        log.prune(decided_t=200.0)
        assert log.times_s.tolist() == [120.0, 200.0]

    def test_lookahead_refused(self):
        with pytest.raises(RuntimeError, match="look ahead"):
            LiveArrivalLog().next_arrival("f", 0.0)

    def test_zero_window_rate_is_zero(self):
        log = LiveArrivalLog()
        log.extend([1.0])
        assert log.rate_per_minute(1.0, 0.0) == 0.0

    def test_lookups_match_searchsorted_at_ties_and_ulps(self):
        """``rate_per_minute`` and ``prune`` bisect the logged list; on
        tied times and on queries one ULP either side of every time (and
        of every time plus the window) they must give the indices of
        ``searchsorted`` over the same times."""
        times = [0.0, 1.5, 1.5, 1.5, 60.0, 61.5, 61.5, 120.0, 3600.0, 3600.0, 3661.5]
        arr = np.array(times)
        near = np.concatenate(
            [np.nextafter(arr, -np.inf), arr, np.nextafter(arr, np.inf)]
        )
        for window in (60.0, 1.5, 300.0):
            log = LiveArrivalLog()
            log.extend(times)
            for t in np.concatenate([near, near + window]).tolist():
                lo = int(np.searchsorted(arr, t - window, side="right"))
                hi = int(np.searchsorted(arr, t, side="right"))
                assert log.rate_per_minute(t, window) == (hi - lo) * 60.0 / window
        retention = 100.0
        for cutoff in near.tolist():
            log = LiveArrivalLog(retention_s=retention)
            log.extend(times)
            decided_t = cutoff + retention
            log.prune(decided_t)
            keep = int(np.searchsorted(arr, decided_t - retention, side="left"))
            assert log.times_s.tolist() == times[keep:]


class TestDecisionParity:
    """/decide == replay, bit for bit (the acceptance criterion)."""

    def test_full_batch_bit_identical_to_replay(self):
        scenario = quick_scenario(seed=11)
        expected = replay_payloads(scenario)
        service = scenario_service(scenario)
        got = service.decide(scenario_arrivals(scenario))
        assert len(got) == len(expected) > 0
        assert got == expected

    def test_fixture_provider_matches_replay_on_equivalent_trace(self):
        """A RecordedFixtureProvider built from the scenario's CI trace
        (full-horizon reveal) reproduces the replay decisions."""
        scenario = quick_scenario(seed=11)
        samples = list(
            zip(scenario.ci_trace.times_s.tolist(), scenario.ci_trace.values.tolist())
        )
        provider = RecordedFixtureProvider(
            samples, forecast_horizon_s=float("inf")
        )
        provider.poll(0.0)
        service = scenario_service(scenario, provider=provider)
        assert service.decide(scenario_arrivals(scenario)) == replay_payloads(
            scenario
        )

    def test_empty_batch_is_a_noop(self):
        service = scenario_service(quick_scenario(seed=3))
        assert service.decide([]) == []
        assert service.metrics.batches == 0

    def test_validation_errors(self):
        scenario = quick_scenario(seed=3)
        service = scenario_service(scenario)
        arrivals = scenario_arrivals(scenario)
        with pytest.raises(ValueError, match="unknown function"):
            service.decide([(0.0, "no-such-function")])
        service.decide(arrivals[:10])
        with pytest.raises(ValueError, match="time-ordered"):
            service.decide([(arrivals[9][0] - 1.0, arrivals[0][1])])

    def test_stale_feed_refuses_to_decide(self):
        scenario = quick_scenario(seed=3)
        provider = RecordedFixtureProvider(
            [(0.0, 250.0)], max_staleness_s=100.0
        )
        service = scenario_service(scenario, provider=provider)
        arrivals = scenario_arrivals(scenario)
        late = [(t + 150.0, name) for t, name in arrivals[:5]]
        with pytest.raises(StaleCarbonFeed, match="old"):
            service.decide(late)
        assert service.metrics.decisions == 0

    def test_metrics_snapshot_after_decisions(self):
        scenario = quick_scenario(seed=3)
        service = scenario_service(scenario)
        n = len(service.decide(scenario_arrivals(scenario)[:50]))
        snap = service.metrics_snapshot()
        assert snap["decisions_total"] == n == 50
        assert snap["provider_healthy"] is True
        assert snap["swarms_live"] > 0
        assert snap["decision_latency_p99_ms"] > 0.0


class TestCheckpointRestore:
    def test_checkpoint_restore_bit_identical(self, tmp_path):
        """Decide half, checkpoint, restore into a fresh service, decide
        the rest: the concatenation equals an uninterrupted replay."""
        scenario = quick_scenario(seed=5)
        expected = replay_payloads(scenario)
        arrivals = scenario_arrivals(scenario)
        mid = len(arrivals) // 2

        service = scenario_service(scenario)
        first = service.decide(arrivals[:mid])
        summary = service.checkpoint(str(tmp_path / "ckpt"))
        assert summary["functions"] > 0 and summary["records"] == mid

        functions = {inv.func.name: inv.func for inv in scenario.trace}
        restored = DecisionService.restore(
            str(tmp_path / "ckpt"),
            provider=TraceProvider(scenario.ci_trace),
            pair=scenario.pair,
            config=EcoLifeConfig(),
            sim_config=scenario.sim_config,
            functions=functions,
        )
        second = restored.decide(arrivals[mid:])
        assert first + second == expected

    def test_checkpointed_service_keeps_serving_identically(self, tmp_path):
        """checkpoint() must not perturb the service it ran on."""
        scenario = quick_scenario(seed=5)
        expected = replay_payloads(scenario)
        arrivals = scenario_arrivals(scenario)
        mid = len(arrivals) // 2
        service = scenario_service(scenario)
        first = service.decide(arrivals[:mid])
        service.checkpoint(str(tmp_path / "ckpt"))
        second = service.decide(arrivals[mid:])
        assert first + second == expected

    def test_restore_is_non_destructive(self, tmp_path):
        scenario = quick_scenario(seed=3)
        arrivals = scenario_arrivals(scenario)
        service = scenario_service(scenario)
        service.decide(arrivals[:100])
        service.checkpoint(str(tmp_path / "ckpt"))
        functions = {inv.func.name: inv.func for inv in scenario.trace}
        for _ in range(2):  # the directory can be restored from twice
            restored = DecisionService.restore(
                str(tmp_path / "ckpt"),
                provider=TraceProvider(scenario.ci_trace),
                pair=scenario.pair,
                config=EcoLifeConfig(),
                sim_config=scenario.sim_config,
                functions=functions,
            )
            assert len(restored._engine.records) == 100

    def test_restores_a_checkpoint_written_by_an_earlier_version(self, tmp_path):
        """``tests/data/checkpoint_v2`` was written by an earlier version of
        this code (before the KDM's disk tier for archives was removed):
        ``scenario_service(quick_scenario(seed=3))`` after deciding the
        first 40 arrivals in one batch, then ``checkpoint()``, under
        Python 3.11 and numpy 2.4 (numpy 1.x cannot load numpy 2
        pickles). The current code must restore it and answer the next
        batch exactly as an uninterrupted service does."""
        scenario = quick_scenario(seed=3)
        arrivals = scenario_arrivals(scenario)
        uninterrupted = scenario_service(scenario)
        uninterrupted.decide(arrivals[:40])
        expected = uninterrupted.decide(arrivals[40:240])

        ckpt = tmp_path / "ckpt"
        shutil.copytree(DATA / "checkpoint_v2", ckpt)
        restored = DecisionService.restore(
            str(ckpt),
            provider=TraceProvider(scenario.ci_trace),
            pair=scenario.pair,
            config=EcoLifeConfig(),
            sim_config=scenario.sim_config,
            functions={inv.func.name: inv.func for inv in scenario.trace},
        )
        assert len(restored._engine.records) == 40
        assert restored.decide(arrivals[40:240]) == expected

    def test_record_stores_sharing_a_directory_stay_apart(self, tmp_path):
        """Two stores under one root (repeated checkpoints into one
        directory) write into separate subdirectories."""
        a = CheckpointStore(tmp_path)
        b = CheckpointStore(tmp_path)
        assert a.root != b.root
        a.put("fn", {"origin": "a"})
        b.put("fn", {"origin": "b"})
        assert a.peek("fn") == {"origin": "a"}
        assert b.peek("fn") == {"origin": "b"}
        reopened = CheckpointStore.attach(a.root, a.manifest())
        assert reopened.names() == ("fn",)
        assert reopened.peek("fn") == {"origin": "a"}

    def test_checkpoint_requires_a_directory(self):
        service = scenario_service(quick_scenario(seed=3))
        with pytest.raises(ValueError, match="checkpoint directory"):
            service.checkpoint()

    def test_restore_rejects_unknown_version(self, tmp_path):
        scenario = quick_scenario(seed=3)
        service = scenario_service(scenario)
        service.decide(scenario_arrivals(scenario)[:10])
        service.checkpoint(str(tmp_path / "ckpt"))
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            DecisionService.restore(
                str(tmp_path / "ckpt"), provider=TraceProvider(scenario.ci_trace)
            )


async def _request(port, method, path, payload=None, close=True):
    """Minimal HTTP/1.1 client for the e2e tests."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, body = await _request_on(
            reader, writer, method, path, payload, close=close
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return status, body


async def _request_on(reader, writer, method, path, payload=None, close=True):
    """``payload``: a JSON-able object, or raw ``bytes`` sent verbatim."""
    if isinstance(payload, bytes):
        body = payload
    else:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    connection = "close" if close else "keep-alive"
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    raw = await reader.readexactly(int(headers["content-length"]))
    return status, json.loads(raw)


class TestHTTPServer:
    """End-to-end over real sockets: POST recorded arrivals, decisions
    bit-identical to the replay engine (ISSUE 7 acceptance)."""

    def test_e2e_decisions_bit_identical_to_replay(self, tmp_path):
        scenario = quick_scenario(seed=11)
        expected = replay_payloads(scenario)
        arrivals = [
            {"t_s": t, "function": name} for t, name in scenario_arrivals(scenario)
        ]

        async def drive():
            service = scenario_service(
                scenario, checkpoint_dir=str(tmp_path / "ckpt")
            )
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                status, health = await _request(server.port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"

                status, body = await _request(
                    server.port, "POST", "/decide", {"arrivals": arrivals}
                )
                assert status == 200
                assert body["decisions"] == expected

                status, metrics = await _request(server.port, "GET", "/metrics")
                assert status == 200
                assert metrics["decisions_total"] == len(expected)
                assert metrics["decision_latency_p99_ms"] > 0.0

                status, ckpt = await _request(server.port, "POST", "/checkpoint")
                assert status == 200
                assert ckpt["checkpoint"]["records"] == len(expected)
            finally:
                await server.stop(checkpoint=False)

        asyncio.run(drive())

    def test_error_statuses_and_single_arrival_form(self):
        scenario = quick_scenario(seed=3)
        [expected_first] = replay_payloads(scenario)[:1]
        t0, name0 = scenario_arrivals(scenario)[0]

        async def drive():
            service = scenario_service(scenario)
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                # One bare arrival object is accepted.
                status, body = await _request(
                    server.port, "POST", "/decide", {"t_s": t0, "function": name0}
                )
                assert status == 200
                assert body["decisions"] == [expected_first]

                status, body = await _request(
                    server.port,
                    "POST",
                    "/decide",
                    {"arrivals": [{"t_s": t0 + 1.0, "function": "nope"}]},
                )
                assert status == 400 and "unknown function" in body["error"]

                status, body = await _request(
                    server.port, "POST", "/decide", {"bogus": 1}
                )
                assert status == 400

                status, body = await _request(server.port, "GET", "/nope")
                assert status == 404

                status, body = await _request(server.port, "GET", "/decide")
                assert status == 405
            finally:
                await server.stop(checkpoint=False)

        asyncio.run(drive())

    @pytest.mark.parametrize(
        "length, status",
        [
            ("abc", 400),
            ("-5", 400),
            (str(64 * 1024 * 1024 + 1), 413),
            ("+5", 400),
            ("1_0", 400),
        ],
        ids=["non-numeric", "negative", "oversized", "plus-sign", "underscore"],
    )
    def test_bad_content_length_fails_closed(self, length, status):
        """A Content-Length that cannot frame a body gets its status with
        ``Connection: close`` and the socket closes; the server raises
        nothing into the loop and the next connection decides as if the
        bad request never came."""
        scenario = quick_scenario(seed=3)
        expected = replay_payloads(scenario)
        arrivals = [
            {"t_s": t, "function": name} for t, name in scenario_arrivals(scenario)
        ]

        async def drive():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            server = DecisionServer(scenario_service(scenario), port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    (
                        "POST /decide HTTP/1.1\r\nHost: localhost\r\n"
                        f"Content-Length: {length}\r\n\r\n"
                    ).encode("latin-1")
                )
                await writer.drain()
                # A header that frames a body would leave the server
                # waiting for it: fail instead of hanging.
                reply = await asyncio.wait_for(reader.read(), timeout=10.0)
                head, _, body = reply.partition(b"\r\n\r\n")
                writer.close()
                lines = head.decode("latin-1").split("\r\n")
                assert int(lines[0].split()[1]) == status
                assert "Connection: close" in lines[1:]
                assert json.loads(body)["error"]

                got, decided = await _request(
                    server.port, "POST", "/decide", {"arrivals": arrivals}
                )
                assert got == 200
                assert decided["decisions"] == expected
            finally:
                await server.stop(checkpoint=False)
            assert loop_errors == []

        asyncio.run(drive())

    def test_non_finite_times_rejected_without_side_effects(self):
        """NaN, +-inf and an overflowing ``1e999`` (as a JSON number and
        as a string) get 400 before any state changes: the next valid
        batch decides exactly as for a service that never saw them."""
        scenario = quick_scenario(seed=3)
        arrivals = scenario_arrivals(scenario)
        first, second = arrivals[:10], arrivals[10:20]
        name = first[-1][1]
        bad_times = ["NaN", "Infinity", "-Infinity", "1e999", '"1e999"']

        reference = scenario_service(scenario)
        reference.decide(first)
        expected = reference.decide(second)

        async def drive():
            service = scenario_service(scenario)
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                status, _ = await _request(
                    server.port, "POST", "/decide",
                    {"arrivals": [{"t_s": t, "function": n} for t, n in first]},
                )
                assert status == 200
                last_t, log_len = service.last_t, len(service._log)
                for bad in bad_times:
                    body = (
                        '{"arrivals": [{"t_s": %s, "function": "%s"}]}'
                        % (bad, name)
                    ).encode("utf-8")
                    status, reply = await _request(
                        server.port, "POST", "/decide", body
                    )
                    assert status == 400, bad
                    assert "finite" in reply["error"], bad
                    assert service.last_t == last_t
                    assert len(service._log) == log_len
                status, body = await _request(
                    server.port, "POST", "/decide",
                    {"arrivals": [{"t_s": t, "function": n} for t, n in second]},
                )
                assert status == 200
                assert body["decisions"] == expected
            finally:
                await server.stop(checkpoint=False)

        asyncio.run(drive())

    def test_keep_alive_connection_reuse(self):
        scenario = quick_scenario(seed=3)
        arrivals = scenario_arrivals(scenario)

        async def drive():
            service = scenario_service(scenario)
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    for i in range(3):
                        t, name = arrivals[i]
                        status, _ = await _request_on(
                            reader,
                            writer,
                            "POST",
                            "/decide",
                            {"t_s": t, "function": name},
                            close=(i == 2),
                        )
                        assert status == 200
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                assert service.metrics.decisions == 3
            finally:
                await server.stop(checkpoint=False)

        asyncio.run(drive())

    def test_stale_provider_maps_to_503(self):
        scenario = quick_scenario(seed=3)
        provider = RecordedFixtureProvider([(0.0, 250.0)], max_staleness_s=10.0)
        arrivals = scenario_arrivals(scenario)

        async def drive():
            service = scenario_service(scenario, provider=provider)
            server = DecisionServer(service, port=0)
            await server.start()
            try:
                t, name = arrivals[0]
                status, body = await _request(
                    server.port,
                    "POST",
                    "/decide",
                    {"t_s": t + 100.0, "function": name},
                )
                assert status == 503 and body["stale"] is True
            finally:
                await server.stop(checkpoint=False)

        asyncio.run(drive())

    def test_graceful_stop_checkpoints_when_configured(self, tmp_path):
        scenario = quick_scenario(seed=3)
        arrivals = scenario_arrivals(scenario)

        async def drive():
            service = scenario_service(
                scenario, checkpoint_dir=str(tmp_path / "ckpt")
            )
            server = DecisionServer(service, port=0)
            await server.start()
            t, name = arrivals[0]
            status, _ = await _request(
                server.port, "POST", "/decide", {"t_s": t, "function": name}
            )
            assert status == 200
            await server.stop()  # graceful shutdown checkpoints

        asyncio.run(drive())
        assert (tmp_path / "ckpt" / "manifest.json").exists()


class TestEngineGuards:
    def test_run_refuses_live_arrival_sources(self):
        scenario = quick_scenario(seed=3)
        log = LiveArrivalLog()
        engine = SimulationEngine(
            pair=scenario.pair,
            trace=log,
            ci_trace=scenario.ci_trace,
            config=scenario.sim_config,
        )
        with pytest.raises(TypeError, match="start\\(\\)"):
            engine.run(EcoLifeScheduler(EcoLifeConfig()))

    def test_step_before_start_refused(self):
        scenario = quick_scenario(seed=3)
        engine = SimulationEngine(
            pair=scenario.pair,
            trace=scenario.trace,
            ci_trace=scenario.ci_trace,
            config=scenario.sim_config,
        )
        func = next(iter(scenario.trace)).func
        with pytest.raises(RuntimeError):
            engine.step_arrival(0.0, func)
