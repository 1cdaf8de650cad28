"""Command-line interface.

Examples::

    ecolife list-experiments
    ecolife run-experiment fig7 --quick
    ecolife simulate --scheduler ecolife --functions 40 --hours 4
    ecolife sweep --regions CAL TEN --seeds 1 2 --workers 4
    ecolife trace compile azure.csv azure.npz
    ecolife trace info azure.npz
    ecolife simulate --scheduler ecolife --trace azure.npz
    ecolife catalog
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, TypeVar

from repro.version import __version__

_Num = TypeVar("_Num", int, float)


def _bounded(
    convert: type[_Num],
    low: _Num,
    *,
    inclusive: bool = False,
    high: _Num | None = None,
) -> Callable[[str], _Num]:
    """An argparse ``type=`` that rejects values at or below ``low``
    (below it when ``inclusive``) and, given ``high``, above ``high``,
    so a bad value fails at parse time with a usage line instead of
    deep inside the model."""

    def parse(text: str) -> _Num:
        value = convert(text)
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low}, got {text!r}"
            )
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text!r}")
        return value

    # argparse names the converter in "invalid int value" messages.
    parse.__name__ = convert.__name__
    return parse


_POSITIVE_INT = _bounded(int, 0)
_POSITIVE_FLOAT = _bounded(float, 0.0)
_NON_NEGATIVE_FLOAT = _bounded(float, 0.0, inclusive=True)
_PORT = _bounded(int, 0, inclusive=True, high=65535)


def _cmd_list_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    print("available experiments:")
    for name, fn in EXPERIMENTS.items():
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        doc = doc_lines[0] if doc_lines else ""
        print(f"  {name:<12} {doc}")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, default_scenario, quick_scenario

    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try `ecolife list-experiments`")
        return 2
    fn = EXPERIMENTS[args.name]
    if args.name in ("fig1", "fig2", "fig3"):
        result = fn()  # analytical figures need no scenario
    else:
        scenario = (
            quick_scenario(seed=args.seed)
            if args.quick
            else default_scenario(seed=args.seed)
        )
        result = fn(scenario)
    print(result.render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import EcoLifeConfig
    from repro.experiments import default_scenario, run_scheduler
    from repro.experiments.registry import create_scheduler, list_schedulers

    if args.scheduler not in list_schedulers():
        print(
            f"unknown scheduler {args.scheduler!r}; "
            f"options: {list(list_schedulers())}"
        )
        return 2
    if args.trace:
        from repro.experiments import trace_scenario

        try:
            scenario = trace_scenario(
                args.trace,
                seed=args.seed,
                region=args.region,
                pair=args.pair,
                pool_gb=args.pool_gb,
            )
        except (OSError, ValueError) as exc:
            print(f"bad trace file {args.trace!r}: {exc}")
            return 2
    else:
        scenario = default_scenario(
            n_functions=args.functions,
            hours=args.hours,
            seed=args.seed,
            region=args.region,
            pair=args.pair,
            pool_gb=args.pool_gb,
        )
    result = run_scheduler(
        create_scheduler(args.scheduler, EcoLifeConfig(seed=args.seed)), scenario
    )
    print(result.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import grid_gap_rows, grid_gap_table, worst_margins
    from repro.experiments.registry import list_schedulers
    from repro.experiments.runner import (
        ParallelRunner,
        ResultCache,
        ScenarioGrid,
    )
    from repro.workloads.generators import (
        WorkloadSpec,
        generator_names,
        make_generator,
    )

    from repro.carbon.regions import REGION_NAMES
    from repro.hardware import PAIRS

    known = list_schedulers()
    unknown = [s for s in args.schedulers if s not in known]
    if unknown:
        print(f"unknown schedulers {unknown}; options: {list(known)}")
        return 2
    bad_regions = [r for r in args.regions if r.upper() not in REGION_NAMES]
    if bad_regions:
        print(f"unknown regions {bad_regions}; options: {sorted(REGION_NAMES)}")
        return 2
    bad_pairs = [p for p in args.pairs if p.upper() not in PAIRS]
    if bad_pairs:
        print(f"unknown pairs {bad_pairs}; options: {sorted(PAIRS)}")
        return 2
    try:
        workloads = tuple(WorkloadSpec.parse(w) for w in args.workloads)
        # Construct every generator up front so name, parameter, and
        # value errors exit cleanly here instead of as tracebacks from
        # inside a pool worker mid-sweep.
        for w in workloads:
            make_generator(w)
    # TypeError covers non-numeric parameter values reaching numeric
    # validators (e.g. mmpp:on_duration_s=abc).
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"bad workload: {message}")
        print(f"workload generator options: {list(generator_names())}")
        return 2
    if args.store_records and not args.cache_dir:
        print("--store-records requires --cache-dir")
        return 2
    grid = ScenarioGrid(
        regions=tuple(args.regions),
        pairs=tuple(args.pairs),
        seeds=tuple(args.seeds),
        pool_gbs=tuple(args.pool_gb),
        workloads=workloads,
        n_functions=tuple(args.functions),
        hours=tuple(args.hours),
        kmax_minutes=tuple(args.kmax),
    )
    cache = (
        ResultCache(args.cache_dir, store_records=args.store_records)
        if args.cache_dir
        else None
    )
    runner = ParallelRunner(n_workers=args.workers, cache=cache)
    result = runner.run_grid(grid, args.schedulers)
    by_scenario = result.by_scenario()

    n_jobs = len(result)
    title = (
        f"sweep: {len(grid)} scenarios x {len(args.schedulers)} schemes "
        f"({n_jobs} runs, {runner.n_workers} workers)"
    )
    if args.relative_to in args.schedulers:
        print(grid_gap_table(by_scenario, reference=args.relative_to, title=title))
        rows = grid_gap_rows(by_scenario, reference=args.relative_to)
        for name in args.schedulers:
            if name == args.relative_to:
                continue
            svc, co2 = worst_margins(rows, name)
            print(
                f"{name}: worst margin vs {args.relative_to} "
                f"{svc:+.1f}% service / {co2:+.1f}% carbon"
            )
    else:
        from repro.analysis import ascii_table

        body = [
            [label, name, r.mean_service_s, r.total_carbon_g, r.warm_ratio * 100.0]
            for label, schemes in by_scenario.items()
            for name, r in schemes.items()
        ]
        print(
            ascii_table(
                ["scenario", "scheme", "svc (s)", "co2 (g)", "warm %"],
                body,
                title=title,
            )
        )
    if args.store_records:
        from repro.analysis import grid_record_cdfs, record_cdf_table

        print(record_cdf_table(grid_record_cdfs(cache, result.jobs)))
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses ({args.cache_dir})")
        if args.store_records:
            print(f"per-invocation records: {cache.record_count()} npz entries")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import time

    from repro.carbon.providers import (
        ElectricityMapsProvider,
        RecordedFixtureProvider,
        TraceProvider,
    )
    from repro.carbon.regions import REGION_NAMES, region_trace_for
    from repro.core import EcoLifeConfig
    from repro.hardware import PAIRS
    from repro.service import DecisionServer, DecisionService
    from repro.simulator.engine import SimulationConfig

    if args.pair.upper() not in PAIRS:
        print(f"unknown pair {args.pair!r}; options: {sorted(PAIRS)}")
        return 2
    clock = None
    if args.provider == "trace":
        if args.region.upper() not in REGION_NAMES:
            print(f"unknown region {args.region!r}; options: {sorted(REGION_NAMES)}")
            return 2
        provider = TraceProvider(
            region_trace_for(args.region.upper(), args.hours * 3600.0)
        )
    elif args.provider == "fixture":
        if not args.fixture:
            print("--fixture PATH is required with --provider fixture")
            return 2
        provider = RecordedFixtureProvider(
            args.fixture,
            max_staleness_s=args.max_staleness,
            forecast_horizon_s=args.forecast_horizon,
        )
    else:  # electricity-maps
        token = os.environ.get("ELECTRICITYMAPS_TOKEN")
        if not token:
            print("set ELECTRICITYMAPS_TOKEN for --provider electricity-maps")
            return 2
        t0 = time.time()
        provider = ElectricityMapsProvider(
            zone=args.zone,
            token=token,
            max_staleness_s=args.max_staleness,
            t0_epoch_s=t0,
        )
        provider.poll(0.0)
        clock = lambda: time.time() - t0  # noqa: E731

    kwargs = dict(
        provider=provider,
        pair=PAIRS[args.pair.upper()],
        config=EcoLifeConfig(seed=args.seed),
        sim_config=SimulationConfig(
            pool_capacity_old_gb=args.pool_gb,
            pool_capacity_new_gb=args.pool_gb,
            kmax_minutes=args.kmax,
            measure_decision_overhead=False,
        ),
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.restore:
        service = DecisionService.restore(args.restore, **kwargs)
    else:
        service = DecisionService(**kwargs)
    server = DecisionServer(
        service, host=args.host, port=args.port, clock=clock
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"decision service on http://{server.host}:{server.port} "
            f"(scheduler={service.scheduler_name}, "
            f"provider={service.provider.name})"
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down" + (
            f" (checkpoint -> {service.checkpoint_dir})"
            if service.checkpoint_dir
            else ""
        ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``ecolife trace compile|info|sample``: the streaming trace toolchain."""
    from repro.workloads import tracefile

    if args.trace_command == "compile":
        try:
            info = tracefile.compile_azure_csv(
                args.csv,
                args.out,
                chunk_rows=args.chunk_rows,
                compress=args.compress,
            )
        except (OSError, ValueError) as exc:
            print(f"compile failed: {exc}")
            return 2
        print(
            f"compiled {info['n_rows']} rows -> {info['path']} "
            f"({info['n_functions']} functions, "
            f"{info['n_invocations']} invocations, "
            f"{info['duration_s'] / 3600.0:.2f} h, "
            f"{info['size_bytes'] / 1e6:.1f} MB, "
            f"mmap={'yes' if info['mmap_able'] else 'no'})"
        )
        return 0
    if args.trace_command == "info":
        try:
            info = tracefile.trace_info(args.file)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.file!r}: {exc}")
            return 2
        for key in (
            "path",
            "format_version",
            "size_bytes",
            "mmap_able",
            "n_functions",
            "n_invocations",
            "duration_s",
        ):
            print(f"{key:>14}: {info[key]}")
        return 0
    # sample: write a synthetic Azure-format CSV for smoke tests/demos.
    n_rows = tracefile.write_azure_sample_csv(
        args.out,
        n_functions=args.functions,
        duration_hours=args.hours,
        seed=args.seed,
    )
    print(f"wrote {n_rows} rows to {args.out}")
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    from repro import validation

    checks = validation.run_all_checks()
    print(validation.render_report(checks))
    return 0 if all(c.ok for c in checks) else 1


def _cmd_catalog(_args: argparse.Namespace) -> int:
    from repro.analysis import ascii_table
    from repro.hardware import PAIRS

    rows = []
    for name, pair in PAIRS.items():
        for server in (pair.old, pair.new):
            rows.append(
                [
                    name,
                    server.key,
                    f"{server.cpu.name} ({server.cpu.year})",
                    server.cpu.cores,
                    f"{server.dram.name} ({server.dram.year})",
                    float(server.dram.capacity_gb),
                    float(server.perf_index),
                ]
            )
    print(
        ascii_table(
            ["pair", "server", "CPU", "cores", "DRAM", "GB", "perf"],
            rows,
            title="Table I -- multi-generation hardware pairs",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecolife",
        description="EcoLife (SC'24) reproduction: carbon-aware serverless "
        "keep-alive scheduling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments", help="list reproducible figures/tables")

    run_p = sub.add_parser("run-experiment", help="run one paper experiment")
    run_p.add_argument("name", help="experiment id (e.g. fig7)")
    run_p.add_argument("--quick", action="store_true", help="small scenario")
    run_p.add_argument("--seed", type=int, default=7)

    sim_p = sub.add_parser("simulate", help="run one scheduler on a scenario")
    sim_p.add_argument("--scheduler", default="ecolife")
    sim_p.add_argument("--functions", type=_POSITIVE_INT, default=60)
    sim_p.add_argument("--hours", type=_POSITIVE_FLOAT, default=6.0)
    sim_p.add_argument("--seed", type=int, default=7)
    sim_p.add_argument("--region", default="CAL")
    sim_p.add_argument("--pair", default="A")
    sim_p.add_argument("--pool-gb", type=_NON_NEGATIVE_FLOAT, default=32.0)
    sim_p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="replay a compiled columnar trace file (.npz from `ecolife "
        "trace compile`) instead of generating a synthetic trace; "
        "--functions/--hours are ignored",
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a scenario grid (regions x pairs x seeds x pools)"
    )
    sweep_p.add_argument("--regions", nargs="+", default=["CAL"])
    sweep_p.add_argument("--pairs", nargs="+", default=["A"])
    sweep_p.add_argument("--seeds", nargs="+", type=int, default=[7])
    sweep_p.add_argument(
        "--pool-gb", nargs="+", type=_NON_NEGATIVE_FLOAT, default=[32.0]
    )
    sweep_p.add_argument(
        "--workloads", nargs="+", default=["azure"],
        help="workload generator families, as `name` or `name:key=val,...` "
        "(e.g. azure diurnal mmpp:burst_rate_mult=8 churn:inner=mmpp)",
    )
    sweep_p.add_argument(
        "--schedulers", nargs="+", default=["oracle", "ecolife"],
        help="sweep-runner registry names",
    )
    sweep_p.add_argument("--functions", nargs="+", type=_POSITIVE_INT, default=[60])
    sweep_p.add_argument("--hours", nargs="+", type=_POSITIVE_FLOAT, default=[6.0])
    sweep_p.add_argument(
        "--kmax", nargs="+", type=_POSITIVE_FLOAT, default=[30.0],
        help="maximum keep-alive period axis (minutes)",
    )
    sweep_p.add_argument(
        "--workers", type=_POSITIVE_INT, default=None,
        help="process-pool size (default: CPU count)",
    )
    sweep_p.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result cache (reruns become free)",
    )
    sweep_p.add_argument(
        "--store-records", action="store_true",
        help="persist full per-invocation records as compressed .npz next "
        "to the cached summaries and print pooled per-invocation CDFs "
        "(requires --cache-dir)",
    )
    sweep_p.add_argument(
        "--relative-to", default="oracle",
        help="reference scheme for the %%-increase table",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the online HTTP decision service (see docs/service.md)",
    )
    serve_p.add_argument(
        "--provider", choices=["trace", "fixture", "electricity-maps"],
        default="trace",
        help="carbon-intensity source: a synthetic region trace, a "
        "recorded JSON fixture, or the live Electricity Maps forecast "
        "API (needs ELECTRICITYMAPS_TOKEN)",
    )
    serve_p.add_argument("--region", default="CAL", help="trace provider region")
    serve_p.add_argument(
        "--hours", type=_POSITIVE_FLOAT, default=24.0, help="trace provider span"
    )
    serve_p.add_argument("--fixture", default=None, help="fixture JSON path")
    serve_p.add_argument(
        "--zone", default="DE", help="Electricity Maps zone code"
    )
    serve_p.add_argument(
        "--max-staleness", type=float, default=3600.0,
        help="refuse decisions once intensity data is older than this (s)",
    )
    serve_p.add_argument(
        "--forecast-horizon", type=float, default=0.0,
        help="fixture provider: reveal samples this far ahead of event time (s)",
    )
    serve_p.add_argument("--pair", default="A")
    serve_p.add_argument("--pool-gb", type=_NON_NEGATIVE_FLOAT, default=32.0)
    serve_p.add_argument("--kmax", type=_POSITIVE_FLOAT, default=30.0)
    serve_p.add_argument("--seed", type=int, default=2024)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=_PORT, default=8044)
    serve_p.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint here on /checkpoint (no body) and graceful shutdown",
    )
    serve_p.add_argument(
        "--restore", default=None,
        help="restore scheduler + engine state from this checkpoint directory",
    )

    trace_p = sub.add_parser(
        "trace",
        help="compile/inspect columnar trace files (see docs/workloads.md)",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    compile_p = trace_sub.add_parser(
        "compile",
        help="compile an Azure-format CSV (app,func,end_timestamp,duration) "
        "into a columnar .npz trace, streaming in bounded chunks",
    )
    compile_p.add_argument("csv", help="input CSV path")
    compile_p.add_argument("out", help="output .npz trace path")
    compile_p.add_argument(
        "--chunk-rows", type=_POSITIVE_INT, default=100_000,
        help="CSV rows parsed per chunk (bounds compiler memory)",
    )
    compile_p.add_argument(
        "--compress", action="store_true",
        help="zip-deflate the columns (smaller file, but workers must "
        "load it into RAM instead of memory-mapping)",
    )
    info_p = trace_sub.add_parser("info", help="print a trace file's header")
    info_p.add_argument("file", help=".npz trace path")
    sample_p = trace_sub.add_parser(
        "sample",
        help="write a synthetic Azure-format sample CSV (compiler demo "
        "input; deterministic per seed)",
    )
    sample_p.add_argument("out", help="output CSV path")
    sample_p.add_argument("--functions", type=_POSITIVE_INT, default=128)
    sample_p.add_argument("--hours", type=_POSITIVE_FLOAT, default=24.0)
    sample_p.add_argument("--seed", type=int, default=2024)

    sub.add_parser("catalog", help="print the Table I hardware catalog")
    sub.add_parser(
        "validate", help="re-check the DESIGN.md calibration targets"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (``ecolife`` console script)."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list-experiments": _cmd_list_experiments,
        "run-experiment": _cmd_run_experiment,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "catalog": _cmd_catalog,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
