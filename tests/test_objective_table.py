"""The KDM objective table: gathers equal the per-particle oracle, and
the K_AT grid is exactly the set of periods a position decodes to.

The table evaluates ``p_warm`` once per decision on the K_AT grid (31
elements by default); the oracle closures in
``tests/oracles/objective.py`` evaluate it on the decoded particle
arrays (1, 15 or 30 rows). Equality is checked bit for bit, so a
length-dependent ``np.exp`` (a SIMD body vs a scalar tail) would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import oracle
from repro.carbon import CarbonIntensityTrace, CarbonModel
from repro.core import ArrivalEstimator, EcoLifeConfig, ObjectiveBuilder
from repro.experiments.common import default_scenario, run_scheduler
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, WarmPool
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads import FunctionProfile, InvocationTrace
from tests.oracles import objective as ref

OLD, NEW = Generation.OLD, Generation.NEW
LOCATION_SETS = [(OLD,), (NEW, OLD), (OLD, NEW, OLD)]
KMAX_MINUTES = [2.5, 3.5, 30.0]


def make_env(kmax_minutes: float) -> SchedulerEnv:
    """An env with a time-varying intensity, so each decision instant
    sees its own CI and running-max normaliser."""
    cfg = SimulationConfig(kmax_minutes=kmax_minutes)
    ci = CarbonIntensityTrace.from_minute_values(
        200.0 + 150.0 * np.sin(np.arange(240) / 17.0)
    )
    model = CarbonModel(trace=ci)
    return SchedulerEnv(
        pair=PAIR_A,
        carbon_model=model,
        energy_model=model.energy_model,
        pools={
            g: WarmPool(generation=g, capacity_gb=cfg.capacity(g))
            for g in Generation
        },
        trace=InvocationTrace.from_events([]),
        setup_delay_s=cfg.setup_delay_s,
        kmax_s=cfg.kmax_s,
        k_step_s=cfg.k_step_s,
    )


def make_estimator(
    rng: np.random.Generator,
    n_iats: int,
    prior_strength: float,
    on_grid: bool,
    step: float,
) -> ArrivalEstimator:
    """``n_iats < 0``: never observed. ``on_grid``: every IAT is a whole
    number of K_AT steps, so grid queries land on ``side="right"`` ties."""
    est = ArrivalEstimator(history=64, prior_strength=prior_strength)
    if n_iats < 0:
        return est
    if on_grid:
        gaps = rng.integers(0, 40, size=n_iats) * step
    else:
        gaps = rng.exponential(300.0, size=n_iats)
    t = 0.0
    est.observe(t)
    for gap in gaps:
        t += float(gap)
        est.observe(t)
    return est


def positions(
    rng: np.random.Generator, builder: ObjectiveBuilder, s: int, rows: int
) -> np.ndarray:
    """Uniform positions, with x1 forced onto cell centres, half-way
    points and the box edges in some rows."""
    x = rng.uniform(size=(s, rows, 2))
    n_k = builder.env.keepalive_grid_s().size
    step_x = builder.env.k_step_s / builder.env.kmax_s
    special = np.concatenate(
        [[0.0, 1.0], np.arange(n_k) * step_x, (np.arange(n_k) + 0.5) * step_x]
    )
    mask = rng.uniform(size=(s, rows)) < 0.3
    x[..., 1][mask] = np.clip(rng.choice(special, size=int(mask.sum())), 0.0, 1.0)
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([1, 2, 64]),
    rows=st.sampled_from([1, 15, 30]),
    kmax_minutes=st.sampled_from(KMAX_MINUTES),
    locations=st.sampled_from(LOCATION_SETS),
    prior_strength=st.sampled_from([0.0, 2.0, 7.5]),
    on_grid=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_table_gather_equals_oracle_closures(
    seed, width, rows, kmax_minutes, locations, prior_strength, on_grid
):
    rng = np.random.default_rng(seed)
    env = make_env(kmax_minutes)
    cfg = EcoLifeConfig(locations=locations)
    builder = ObjectiveBuilder(env, cfg)
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=float(rng.uniform(0.1, 2.0)),
            exec_ref_s=float(rng.uniform(0.2, 5.0)),
            cold_ref_s=float(rng.uniform(0.1, 3.0)),
        )
        for i in range(width)
    ]
    ts = [float(t) for t in rng.uniform(0.0, 240 * 60.0, size=width)]
    arrivals = [
        make_estimator(
            rng, int(rng.integers(-1, 65)), prior_strength, on_grid, env.k_step_s
        )
        for _ in range(width)
    ]
    x = positions(rng, builder, width, rows)

    table = builder.batch_fitness(funcs, ts, arrivals)(x)
    assert table.shape == (width, rows)
    # The KDM hands over the (ci, ci_ref) pairs it read for perception.
    pairs = [env.ci_pair(t) for t in ts]
    assert np.array_equal(
        table, builder.batch_fitness(funcs, ts, arrivals, intensities=pairs)(x)
    )
    assert np.array_equal(table, ref.batch_fitness(builder, funcs, ts, arrivals)(x))
    assert np.array_equal(
        table, ref.looped_batch_fitness(builder, funcs, ts, arrivals)(x)
    )
    for i in range(width):
        solo = builder.fitness(funcs[i], ts[i], arrivals[i])(x[i])
        oracle_fn = ref.fitness(builder, funcs[i], ts[i], arrivals[i])
        assert np.array_equal(solo, oracle_fn(x[i]))
        assert np.array_equal(solo, table[i])


def edge_positions(builder: ObjectiveBuilder) -> np.ndarray:
    """``(rows, 2)``: every decode boundary and its neighbours, crossed.

    x0 takes 0, 1, each location boundary ``j / n_loc`` and 0.5, each
    one ULP either side; x1 takes 0, 1 and each K_AT midpoint, each one
    ULP either side.
    """
    n_loc = len(builder.config.locations)
    step_x = builder.env.k_step_s / builder.env.kmax_s
    mids = (np.arange(builder.env.keepalive_grid_s().size) + 0.5) * step_x
    x0 = np.concatenate([[0.0, 0.5, 1.0], np.arange(1, n_loc) / n_loc])
    x1 = np.concatenate([[0.0, 1.0], mids[mids <= 1.0]])

    def with_ulps(v: np.ndarray) -> np.ndarray:
        near = np.concatenate([np.nextafter(v, -1.0), v, np.nextafter(v, 2.0)])
        return np.unique(near[(near >= 0.0) & (near <= 1.0)])

    a, b = np.meshgrid(with_ulps(x0), with_ulps(x1), indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


@pytest.mark.parametrize("kmax_minutes", KMAX_MINUTES)
@pytest.mark.parametrize("locations", LOCATION_SETS)
class TestGather:
    """The one-pass table gather == per-column decode + fancy index
    (``tests/oracles/objective.py``), bit for bit."""

    def _decision(self, kmax_minutes, locations, width, seed=0):
        rng = np.random.default_rng(seed)
        builder = ObjectiveBuilder(
            make_env(kmax_minutes), EcoLifeConfig(locations=locations)
        )
        funcs = [
            FunctionProfile(
                name=f"f{i}",
                mem_gb=float(rng.uniform(0.1, 2.0)),
                exec_ref_s=float(rng.uniform(0.2, 5.0)),
                cold_ref_s=float(rng.uniform(0.1, 3.0)),
            )
            for i in range(width)
        ]
        ts = [float(t) for t in rng.uniform(0.0, 240 * 60.0, size=width)]
        arrivals = [
            make_estimator(rng, 20, 2.0, False, builder.env.k_step_s)
            for _ in range(width)
        ]
        return rng, builder, funcs, ts, arrivals

    def test_decode_edges(self, kmax_minutes, locations):
        _, builder, funcs, ts, arrivals = self._decision(kmax_minutes, locations, 1)
        x = edge_positions(builder)
        assert np.array_equal(
            builder.decode_locations(x[:, 0]), ref.decode_locations(builder, x[:, 0])
        )
        assert np.array_equal(
            builder.decode_cells(x[:, 1]), ref.decode_cells(builder, x[:, 1])
        )
        table = builder.objective_table(funcs, ts, arrivals)[0]
        fast = builder.fitness(funcs[0], ts[0], arrivals[0])(x)
        assert np.array_equal(fast, ref.table_fitness(builder, table)(x))

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_batch_gather(self, kmax_minutes, locations, width):
        rng, builder, funcs, ts, arrivals = self._decision(
            kmax_minutes, locations, width, seed=width
        )
        edges = edge_positions(builder)
        x = np.concatenate(
            [
                np.broadcast_to(edges, (width, *edges.shape)),
                rng.uniform(size=(width, 45, 2)),
            ],
            axis=1,
        )
        table = builder.objective_table(funcs, ts, arrivals)
        fast = builder.batch_fitness(funcs, ts, arrivals)(x)
        assert fast.shape == x.shape[:2]
        assert np.array_equal(fast, ref.table_batch_fitness(builder, table)(x))
        for i in range(width):
            solo = builder.fitness(funcs[i], ts[i], arrivals[i])(x[i])
            assert np.array_equal(solo, ref.table_fitness(builder, table[i])(x[i]))


@pytest.mark.parametrize("kmax_minutes", KMAX_MINUTES)
class TestKeepAliveGrid:
    def test_grid_is_the_decodable_set(self, kmax_minutes):
        env = make_env(kmax_minutes)
        builder = ObjectiveBuilder(env, EcoLifeConfig())
        grid = env.keepalive_grid_s()
        step_x = env.k_step_s / env.kmax_s
        x1 = np.concatenate(
            [
                np.linspace(0.0, 1.0, 20001),
                np.arange(grid.size) * step_x,
                np.minimum((np.arange(grid.size) + 0.5) * step_x, 1.0),
            ]
        )
        decodable = ref.decode_k(builder, x1)
        assert np.array_equal(np.unique(decodable), grid)
        assert np.array_equal(builder.decode_k(x1), decodable)
        assert grid.max() <= env.kmax_s
        assert not grid.flags.writeable

    def test_oracle_stays_inside_kmax(self, kmax_minutes):
        scenario = default_scenario(
            n_functions=10, hours=1, seed=7, kmax_minutes=kmax_minutes
        )
        grid = set(make_env(kmax_minutes).keepalive_grid_s().tolist())
        result = run_scheduler(oracle(), scenario)
        chosen = {r.keepalive_decision.duration_s for r in result.records}
        assert max(chosen) <= kmax_minutes * 60.0
        assert chosen <= grid


def test_default_grid_unchanged():
    """30 min / 60 s: the paper's 31-cell K_AT, unchanged by the cell
    mapping."""
    grid = make_env(30.0).keepalive_grid_s()
    assert np.array_equal(grid, np.arange(31) * 60.0)
