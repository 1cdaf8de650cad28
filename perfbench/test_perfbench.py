"""Tests of the benchmark's own logic (tracing, catalogue, inputs, wiring).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import decide_http  # noqa: E402
import replay  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from inputs import write_inputs  # noqa: E402
from measure import hash_record_arrays, quiet  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few hundred arrivals."""
    monkeypatch.setattr(replay, "HOURS", 0.1)
    monkeypatch.setattr(replay, "MIN_REPLAYS", 2)
    monkeypatch.setattr(decide_http, "HOURS", 0.1)
    monkeypatch.setattr(decide_http, "MIN_PASSES", 2)
    monkeypatch.setattr(decide_http, "WARMUP", 10)
    monkeypatch.setattr(decide_http, "LATENCY_CHUNK", 40)
    monkeypatch.setattr(decide_http, "SAT_CHUNK", 40)
    monkeypatch.setattr(decide_http, "SAT_STEP", 10)
    monkeypatch.setattr(decide_http, "BATCH_CHUNK", 60)
    monkeypatch.setattr(decide_http, "BATCH", 20)


class TestSelfTime:
    def test_synthetic_span_tree(self):
        # a[0,10] > b[1,4] > c[2,3];  a > d[5,9] > d'[6,7] (same name)
        names = ["a", "b", "c", "d"]
        ids = np.array([0, 1, 2, 3, 3])
        parents = np.array([-1, 0, 1, 0, 3])
        starts = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
        ends = np.array([10.0, 4.0, 3.0, 9.0, 7.0])
        s = tracing.summarize(names, ids, parents, starts, ends)
        assert s["a"]["self_s"] == pytest.approx(10 - 3 - 4)
        assert s["b"]["self_s"] == pytest.approx(3 - 1)
        assert s["c"]["self_s"] == pytest.approx(1)
        # The nested d' is a hop inside the layer: one call, and the
        # layer's self time is both spans' own time.
        assert s["d"]["calls"] == 1
        assert s["d"]["self_s"] == pytest.approx((4 - 1) + 1)
        assert s["d"]["total_s"] == pytest.approx(4)
        total_self = sum(v["self_s"] for v in s.values())
        assert total_self == pytest.approx(10)

    def test_live_tracer_nests_wrapped_calls(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        root = tracer.wrap("root", lambda: outer(1))
        assert root() == 3
        s = tracer.summary()
        assert (s["root"]["calls"], s["outer"]["calls"], s["inner"]["calls"]) == (
            1,
            1,
            2,
        )
        for v in s.values():
            assert 0.0 <= v["self_s"] <= v["total_s"]
        assert sum(v["self_s"] for v in s.values()) == pytest.approx(
            s["root"]["total_s"]
        )


class TestCatalogue:
    def test_names_and_units_are_well_formed(self):
        for catalogue in (report.END_TO_END, report.PER_LAYER):
            for name, unit in catalogue.items():
                assert NAME.fullmatch(name), name
                assert UNIT.fullmatch(unit), unit

    def test_benchmark_json_matches_catalogue(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(doc) == {
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        }
        e2e = {m["name"]: m for m in doc["end_to_end"]}
        assert {n: m["unit"] for n, m in e2e.items()} == report.END_TO_END
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == report.PER_LAYER
        assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
        assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
        names = [w["name"] for w in doc["workloads"]]
        assert sorted(names) == sorted(["azure-sample", "minute-burst", "decide-http"])
        assert all(NAME.fullmatch(n) for n in names)


class TestInputs:
    def test_seed_changes_inputs_deterministically(self, tmp_path):
        paths = {}
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            paths[tag] = tmp_path / f"{tag}.csv"
            write_inputs(
                paths[tag], seed=seed, hours=0.1, per_minute=False, scratch=tmp_path
            )
        assert paths["a"].read_bytes() == paths["b"].read_bytes()
        assert paths["a"].read_bytes() != paths["c"].read_bytes()

    def test_minute_floor_survives_compilation(self, tmp_path):
        from repro.workloads import InvocationTrace
        from repro.workloads.tracefile import compile_azure_csv

        csv_path = tmp_path / "m.csv"
        rows = write_inputs(
            csv_path, seed=3, hours=0.25, per_minute=True, scratch=tmp_path
        )
        compile_azure_csv(csv_path, tmp_path / "m.npz")
        trace = InvocationTrace.open(tmp_path / "m.npz")
        assert len(trace) == rows
        assert (trace.times_s % 60.0 == 0.0).all()
        # Same-minute arrivals share one instant, so decisions can batch.
        assert len(np.unique(trace.times_s)) < rows


class TestRuns:
    @pytest.mark.parametrize("workload", ["azure-sample", "minute-burst"])
    def test_replay_metric_set_is_seed_independent(self, small, tmp_path, workload):
        results = [replay.run(workload, seed, 0.01, tmp_path) for seed in (1, 2)]
        for result in results:
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == set(report.END_TO_END)
        assert results[0]["metrics"]["sim_carbon_g"] != results[1]["metrics"][
            "sim_carbon_g"
        ]

    def test_traced_run_reports_every_layer_metric(self, small, tmp_path):
        result = replay.run_traced("minute-burst", 1, tmp_path)
        assert result["correct"]
        metrics = result["metrics"]
        assert set(metrics) == set(report.PER_LAYER)
        assert metrics["adjust.rank.calls"] > 0
        assert metrics["kdm.decisions"] > metrics["kdm.decide.calls"]

    def test_decide_http_matches_in_process_replay(self, small, tmp_path):
        result = decide_http.run(1, 0.01, tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert set(result["metrics"]) == set(report.END_TO_END)


@pytest.fixture
def scenario(small, tmp_path):
    csv_path = tmp_path / "in.csv"
    write_inputs(csv_path, seed=5, hours=0.1, per_minute=True, scratch=tmp_path)
    return replay.set_up(csv_path, tmp_path / "in.npz", pool_gb=4.0)


class TestQuietTiming:
    def test_quiet_is_the_per_piece_minimum(self):
        got = quiet([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0], [9.0, 2.0, 0.5]])
        assert got.tolist() == [2.0, 1.0, 0.5]

    def test_step_cuts_never_split_an_instant(self):
        times = np.array([0, 0, 0, 1, 1, 2, 3, 3, 3, 3, 4], dtype=float)
        cuts = replay.step_cuts(times, size=2)
        assert cuts[0] == 0 and cuts[-1] == len(times)
        assert cuts == sorted(set(cuts))
        for c in cuts[1:-1]:
            assert times[c] != times[c - 1]

    def test_stepped_replay_matches_engine_run(self, scenario):
        from repro.core import EcoLifeConfig, EcoLifeScheduler
        from repro.simulator.engine import SimulationEngine

        cuts = replay.step_cuts(scenario.trace.times_s, size=5)
        stepped = replay.replay(scenario, cuts)
        assert len(stepped.steps_s) == len(cuts) - 1 + 2
        engine = SimulationEngine(
            pair=scenario.pair,
            trace=scenario.trace,
            ci_trace=scenario.ci_trace,
            config=scenario.sim_config,
        )
        result = engine.run(EcoLifeScheduler(EcoLifeConfig()))
        assert stepped.digest == hash_record_arrays(result.record_arrays())


class TestWrappers:
    def test_traced_replay_is_identical_and_originals_restored(self, scenario):
        import importlib

        originals = {}
        for module, owner, attr, _ in tracing.LAYER_HOOKS:
            obj = importlib.import_module(module)
            obj = obj if owner is None else getattr(obj, owner)
            originals[(module, owner, attr)] = (obj, obj.__dict__[attr])

        cuts = replay.step_cuts(scenario.trace.times_s)
        plain = replay.replay(scenario, cuts)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            for (_, _, attr), (obj, original) in originals.items():
                assert obj.__dict__[attr] is not original
            traced = replay.replay(scenario, cuts)
        assert traced.digest == plain.digest
        assert (traced.carbon_g, traced.service_s_mean) == (
            plain.carbon_g,
            plain.service_s_mean,
        )
        for (module, owner, attr), (obj, original) in originals.items():
            assert obj.__dict__[attr] is original, (module, owner, attr)
        calls = tracer.summary()
        for layer in ("scheduler.place", "kdm.decide", "objective.eval", "engine"):
            assert calls[layer]["calls"] > 0, layer

    def test_install_failure_restores_patched_hooks(self):
        from repro.core.scheduler import EcoLifeScheduler

        original = EcoLifeScheduler.__dict__["place"]
        hooks = (
            ("repro.core.scheduler", "EcoLifeScheduler", "place", "scheduler.place"),
            ("repro.core.scheduler", "EcoLifeScheduler", "missing", "x"),
        )
        with pytest.raises(KeyError):
            tracing.install(tracing.Tracer(), hooks)
        assert EcoLifeScheduler.__dict__["place"] is original
