"""Retirement benchmark: memory plateau + replay parity under churn.

Long multi-tenant runs continuously phase functions in and out (the
``churn`` workload family), so without slot retirement the per-function
scheduler state -- SwarmFleet slots, arrival estimators, perception
scalars -- grows with the *ever-seen* cohort count. This bench replays
one churned trace twice through the full engine:

1. **retirement off** -- today's unbounded baseline;
2. **retirement on**  -- idle sweep (``retire_after_s``) archiving state
   and compacting the fleet.

and checks three things:

- **bit-identity**: per-invocation decisions and carbon are equal (the
  retire/rehydrate equivalence contract, asserted in-process);
- **memory plateau**: peak live per-function states track the *active*
  cohort, not the total cohort count, and the fleet's allocated slots
  shrink with them;
- **no replay slowdown**: the on/off wall-clock ratio is archived and
  gated in CI (``check_regression.py --suite retirement``) -- a ratio of
  two timings on the same host is machine-portable.

Run directly (plain script, CI-invocable)::

    PYTHONPATH=src python benchmarks/bench_retirement.py --quick

Results are printed and archived as JSON under
``benchmarks/results/BENCH_retirement.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import InvocationTrace
from repro.workloads.generators import WorkloadSpec, build_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_sweep(n_live: int, repeats: int) -> dict:
    """Micro-bench the KDM idle sweep's victim selection.

    The ``max_live_swarms`` cap used to sort the whole live set by idle
    time on every enforcing sweep (O(live log live)); the LRU-ordered
    ``_last_seen`` index reads victims off the front instead. Two
    measurements over a synthetic ledger of ``n_live`` touched
    functions (no env/decisions involved -- the sweep only walks KDM
    bookkeeping):

    - ``scan``: a no-victim sweep (the steady-state case -- pure
      O(live) idle filter);
    - ``cap``: a cap-enforcing sweep retiring half the ledger (victim
      selection + archival).
    """
    def fresh_kdm(**cfg_kw):
        # The KDM needs a bound env (its objective builder reads the
        # K_AT grid), so take it from a started scheduler.
        sched = EcoLifeScheduler(EcoLifeConfig(**cfg_kw))
        SimulationEngine(
            pair=PAIR_A,
            trace=InvocationTrace.from_events([]),
            ci_trace=CarbonIntensityTrace.constant(250.0),
        ).start(sched)
        kdm = sched.kdm
        for i in range(n_live):
            kdm._touch(f"fn-{i:06d}", float(i))
        return kdm

    scan_s = float("inf")
    kdm = fresh_kdm(retire_after_s=1e9)
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(50):
            assert kdm.sweep(float(n_live)) == 0
        scan_s = min(scan_s, (time.perf_counter() - t0) / 50)

    cap_s = float("inf")
    for _ in range(repeats):
        kdm = fresh_kdm(max_live_swarms=n_live // 2)
        t0 = time.perf_counter()
        retired = kdm.sweep(float(n_live))
        cap_s = min(cap_s, time.perf_counter() - t0)
        assert retired == n_live // 2
    return {
        "n_live": n_live,
        "scan_sweep_s": scan_s,
        "scan_sweeps_per_s": 1.0 / scan_s if scan_s > 0 else float("inf"),
        "cap_sweep_s": cap_s,
        "cap_retired": n_live // 2,
    }


def replay(trace, config: EcoLifeConfig, repeats: int):
    """Best-of-``repeats`` engine replay; returns (result, scheduler, s)."""
    best = float("inf")
    result = scheduler = None
    for _ in range(repeats):
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=trace,
            ci_trace=CarbonIntensityTrace.constant(250.0),
            config=SimulationConfig(measure_decision_overhead=False),
        )
        sched = EcoLifeScheduler(config)
        t0 = time.perf_counter()
        res = engine.run(sched)
        dt = time.perf_counter() - t0
        if dt < best:
            best, result, scheduler = dt, res, sched
    return result, scheduler, best


def assert_identical(off, on) -> None:
    assert len(off.records) == len(on.records), "invocation counts differ"
    assert off.total_carbon_g == on.total_carbon_g, "total carbon differs"
    for a, b in zip(off.records, on.records):
        assert (
            a.cold == b.cold
            and a.location is b.location
            and a.keepalive_decision == b.keepalive_decision
            and a.keepalive_carbon == b.keepalive_carbon
        ), f"record {a.index} diverged under retirement"


def bench(
    n_functions: int,
    hours: float,
    cohorts: int,
    retire_after_s: float,
    repeats: int,
) -> dict:
    trace = build_trace(
        WorkloadSpec.make("churn", cohorts=cohorts, overlap=0.25),
        n_functions,
        hours * 3600.0,
        seed=7,
    )
    ever_seen = len(set(trace.func_names))

    off_res, off_sched, off_s = replay(trace, EcoLifeConfig(), repeats)
    on_res, on_sched, on_s = replay(
        trace, EcoLifeConfig(retire_after_s=retire_after_s), repeats
    )
    assert_identical(off_res, on_res)

    kdm_on, kdm_off = on_sched.kdm, off_sched.kdm
    # The plateau bound: at most ~two cohorts are simultaneously active
    # (25% overlap), plus the retirement lag tail. 3x one cohort is a
    # comfortable ceiling that still fails if retirement stops working.
    active_bound = 3.0 * n_functions / cohorts + 4
    plateau_ok = kdm_on.peak_live <= active_bound
    return {
        "trace": {
            "workload": f"churn[cohorts={cohorts}]",
            "n_functions": n_functions,
            "ever_seen": ever_seen,
            "hours": hours,
            "n_invocations": len(trace),
            "retire_after_s": retire_after_s,
        },
        "replay": {
            "off_s": off_s,
            "on_s": on_s,
            # Gated metric (higher is better): > 1 means retirement-on
            # replays *faster* than the unbounded baseline.
            "ratio_on_vs_off": off_s / on_s if on_s > 0 else float("inf"),
            "invocations_per_s_on": len(trace) / on_s if on_s > 0 else 0.0,
        },
        "memory": {
            "peak_live_on": kdm_on.peak_live,
            "peak_live_off": kdm_off.peak_live,
            # Memoised normaliser triples left by the unbounded run: only
            # reference (running-max) intensities key the memo.
            "normaliser_entries_off": kdm_off.builder.costs.normaliser_count,
            "plateau_ratio": kdm_on.peak_live / max(kdm_off.peak_live, 1),
            "active_cohort_bound": active_bound,
            "plateau_ok": plateau_ok,
            "fleet_capacity_end_on": kdm_on.fleet_capacity,
            "fleet_capacity_end_off": kdm_off.fleet_capacity,
            "retired": kdm_on.retired,
            "rehydrated": kdm_on.rehydrated,
            "archived_end": kdm_on.archived_count,
            "live_end": kdm_on.live_count,
        },
        "identical": True,  # assert_identical would have raised otherwise
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale run (smaller trace, single repeat)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_retirement.json"),
        help="JSON output path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        kw = dict(
            n_functions=80, hours=3.0, cohorts=4, retire_after_s=600.0,
            repeats=1,
        )
        sweep_kw = dict(n_live=5_000, repeats=1)
    else:
        kw = dict(
            n_functions=240, hours=12.0, cohorts=6, retire_after_s=900.0,
            repeats=3,
        )
        sweep_kw = dict(n_live=50_000, repeats=3)

    payload = {
        "bench": "retirement",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **bench(**kw),
        "sweep": bench_sweep(**sweep_kw),
    }

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    t, r, m = payload["trace"], payload["replay"], payload["memory"]
    print(
        f"churn trace: {t['n_invocations']} invocations, "
        f"{t['ever_seen']} functions ever seen over {t['hours']:g} h"
    )
    print(
        f"replay: off {r['off_s']:.2f}s, on {r['on_s']:.2f}s "
        f"(on-vs-off ratio {r['ratio_on_vs_off']:.2f}x, bit-identical)"
    )
    print(
        f"memory: peak live {m['peak_live_on']} vs {m['peak_live_off']} "
        f"({m['plateau_ratio'] * 100.0:.0f}% of unbounded; "
        f"bound {m['active_cohort_bound']:.0f}), "
        f"fleet slots end {m['fleet_capacity_end_on']} vs "
        f"{m['fleet_capacity_end_off']}, "
        f"{m['retired']} retired / {m['rehydrated']} rehydrated"
    )
    sw = payload["sweep"]
    print(
        f"sweep micro ({sw['n_live']} live): no-victim scan "
        f"{sw['scan_sweep_s'] * 1e3:.2f} ms "
        f"({sw['scan_sweeps_per_s']:.0f}/s), cap sweep retiring "
        f"{sw['cap_retired']} in {sw['cap_sweep_s'] * 1e3:.1f} ms"
    )
    print(f"archived -> {out}")

    if not m["plateau_ok"]:
        print(
            f"FAIL: peak live {m['peak_live_on']} exceeds the active-cohort "
            f"bound {m['active_cohort_bound']:.0f} -- retirement is not "
            "bounding state",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
