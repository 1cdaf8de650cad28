"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import (
    list_schedulers,
    register_scheduler,
    unregister_scheduler,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["--version"])
        assert e.value.code == 0


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "fig14" in out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "a_old" in out and "Samsung-192" in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run-experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Case A" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run-experiment", "fig99"]) == 2

    def test_simulate_unknown_scheduler(self, capsys):
        assert main(["simulate", "--scheduler", "nope"]) == 2
        assert "'eco-old'" in capsys.readouterr().out  # lists the options

    @staticmethod
    def _simulated_scheduler_line(capsys, name):
        code = main(
            ["simulate", "--scheduler", name, "--functions", "4", "--hours", "0.25"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        return next(line for line in lines if line.startswith("scheduler "))

    @pytest.mark.parametrize("name", list_schedulers())
    def test_simulate_runs_every_registered_scheme(self, capsys, name):
        line = self._simulated_scheduler_line(capsys, name)
        assert line.split(":", 1)[1].strip() == name

    def test_simulate_runs_a_registered_plugin(self, capsys):
        from repro.baselines import new_only

        name = "test-cli-plugin"

        def factory(config):
            sched = new_only()
            sched.name = name
            return sched

        register_scheduler(name)(factory)
        try:
            line = self._simulated_scheduler_line(capsys, name)
        finally:
            unregister_scheduler(name)
        assert line.split(":", 1)[1].strip() == name

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--scheduler",
                "new-only",
                "--functions",
                "5",
                "--hours",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total carbon" in out

    def test_run_trace_experiment_quick(self, capsys):
        code = main(["run-experiment", "fig4", "--quick", "--seed", "3"])
        assert code == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_sweep_unknown_scheduler(self, capsys):
        assert main(["sweep", "--schedulers", "nope"]) == 2

    def test_sweep_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_sweep_malformed_workload_params(self, capsys):
        assert main(["sweep", "--workloads", "mmpp:oops"]) == 2
        assert "bad workload" in capsys.readouterr().out

    def test_sweep_unknown_workload_param_rejected_up_front(self, capsys):
        assert main(["sweep", "--workloads", "mmpp:bogus=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().out

    def test_sweep_bad_workload_param_value_rejected_up_front(self, capsys):
        assert main(["sweep", "--workloads", "mmpp:on_duration_s=-1"]) == 2
        assert "bad workload" in capsys.readouterr().out

    def test_sweep_non_numeric_workload_param_rejected_up_front(self, capsys):
        assert main(["sweep", "--workloads", "mmpp:on_duration_s=abc"]) == 2
        assert "bad workload" in capsys.readouterr().out

    def test_sweep_unknown_churn_inner_rejected_up_front(self, capsys):
        assert main(["sweep", "--workloads", "churn:inner=nope"]) == 2
        assert "unknown inner" in capsys.readouterr().out

    def test_sweep_store_records_survives_empty_trace(self, capsys, tmp_path):
        """A workload so sparse it produces zero invocations must not
        crash the post-sweep CDF rendering."""
        argv = [
            "sweep",
            "--workloads",
            "poisson:median_interarrival_s=7200,max_interarrival_s=7200,"
            "interarrival_sigma=0",
            "--schedulers", "new-only",
            "--functions", "2",
            "--hours", "0.1",
            "--seeds", "3",
            "--workers", "1",
            "--cache-dir", str(tmp_path),
            "--store-records",
        ]
        assert main(argv) == 0
        assert "cache:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--shards", "2"],
            ["serve", "--shards", "2"],
        ],
        ids=["simulate", "serve"],
    )
    def test_shard_flags_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--functions", "0"],
            ["simulate", "--hours", "0"],
            ["simulate", "--pool-gb", "-1"],
            ["sweep", "--functions", "8", "-3"],
            ["sweep", "--hours", "-0.5"],
            ["sweep", "--workers", "0"],
            ["sweep", "--pool-gb", "-1"],
            ["sweep", "--kmax", "0"],
            ["trace", "sample", "out.csv", "--functions", "0"],
            ["trace", "sample", "out.csv", "--hours", "-1"],
            ["serve", "--hours", "0"],
            ["serve", "--port", "-1"],
            ["serve", "--port", "65536"],
            ["trace", "compile", "in.csv", "out.npz", "--chunk-rows", "0"],
        ],
        ids=lambda argv: " ".join(
            a for a in argv if a not in ("out.csv", "in.csv", "out.npz")
        ),
    )
    def test_size_flags_fail_closed_at_parse_time(self, capsys, argv):
        """Non-positive sizes (negative pool memory) are usage errors:
        exit 2 with the flag named, before anything is built."""
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        flag = next(a for a in argv if a.startswith("--"))
        assert f"argument {flag}: must be" in err

    @pytest.mark.parametrize("port", [0, 65535])
    def test_serve_port_bounds_are_inclusive(self, port):
        assert build_parser().parse_args(["serve", "--port", str(port)]).port == port

    def test_sweep_has_no_shards_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["sweep", "--shards", "2"])
        assert e.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_sweep_store_records_requires_cache_dir(self, capsys):
        assert main(["sweep", "--store-records"]) == 2
        assert "--cache-dir" in capsys.readouterr().out

    def test_sweep_workloads_with_records(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workloads", "azure", "mmpp",
            "--schedulers", "oracle", "new-only",
            "--functions", "6",
            "--hours", "0.5",
            "--seeds", "3",
            "--workers", "1",
            "--cache-dir", str(tmp_path),
            "--store-records",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mmpp-n6" in out
        assert "per-invocation CDFs" in out
        assert "2 scenarios" in out
        assert "npz entries" in out
        assert main(argv) == 0  # warm: summaries and records round-trip
        assert "4 hits, 0 misses" in capsys.readouterr().out

    def test_sweep_small_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--regions", "CAL",
            "--schedulers", "oracle", "new-only",
            "--functions", "6",
            "--hours", "0.5",
            "--seeds", "3",
            "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "new-only" in out and "vs oracle" in out
        assert "1 hits" not in out  # first run is all misses
        assert main(argv) == 0  # second run served from the cache
        out = capsys.readouterr().out
        assert "2 hits, 0 misses" in out


class TestTraceCommands:
    """``ecolife trace sample|compile|info`` + ``simulate --trace``."""

    def _compiled(self, tmp_path, capsys):
        csv_path = tmp_path / "sample.csv"
        npz_path = tmp_path / "sample.npz"
        assert main([
            "trace", "sample", str(csv_path),
            "--functions", "12", "--hours", "0.5", "--seed", "3",
        ]) == 0
        assert "rows" in capsys.readouterr().out
        assert main(["trace", "compile", str(csv_path), str(npz_path)]) == 0
        assert "compiled" in capsys.readouterr().out
        return npz_path

    def test_sample_compile_info(self, capsys, tmp_path):
        npz_path = self._compiled(tmp_path, capsys)
        assert main(["trace", "info", str(npz_path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 1" in out
        assert "mmap_able: True" in out

    def test_info_on_missing_file(self, capsys, tmp_path):
        assert main(["trace", "info", str(tmp_path / "nope.npz")]) == 2

    def test_compile_rejects_bad_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert main([
            "trace", "compile", str(bad), str(tmp_path / "t.npz")
        ]) == 2
        assert "compile failed" in capsys.readouterr().out

    def test_simulate_from_trace_file(self, capsys, tmp_path):
        npz_path = self._compiled(tmp_path, capsys)
        assert main([
            "simulate", "--trace", str(npz_path), "--scheduler", "new-only",
        ]) == 0
        assert "total carbon" in capsys.readouterr().out

    def test_simulate_bad_trace_file(self, capsys, tmp_path):
        assert main([
            "simulate", "--trace", str(tmp_path / "nope.npz"),
        ]) == 2
        assert "bad trace file" in capsys.readouterr().out

    def test_sweep_file_workload(self, capsys, tmp_path):
        npz_path = self._compiled(tmp_path, capsys)
        assert main([
            "sweep",
            "--workloads", f"file:path={npz_path}",
            "--schedulers", "new-only",
            "--functions", "1", "--hours", "0.1",
            "--seeds", "3",
            "--workers", "1",
        ]) == 0
        assert "file[path=" in capsys.readouterr().out
