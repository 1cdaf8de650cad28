"""SwarmFleet equivalence: batched stepping must be bit-identical to
independent per-function optimizers seeded with the same RNG streams.

The fleet is the only PSO implementation the scheduler runs; the
sequential ``ParticleSwarm`` / ``DynamicPSO`` optimizers and the
sequential-DPSO KDM live in ``tests/oracles`` as the reference it must
match -- see ``docs/optimizers.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon import CarbonIntensityTrace
from repro.core import ArrivalEstimator, EcoLifeConfig, ObjectiveBuilder
from repro.core.arrival import ArrivalRegistry
from repro.core.kdm import KeepAliveDecisionMaker
from repro.core.scheduler import EcoLifeScheduler
from repro.hardware import PAIR_A
from repro.optimizers import DPSOParams, SwarmFleet
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace
from tests.oracles import (
    DynamicPSO,
    ParticleSwarm,
    SequentialKDM,
    sequential_ecolife,
)
from tests.oracles import objective as objective_oracle
from tests.test_core_objective import make_env

N_SWARMS = 6
N_PARTICLES = 15


def sphere_at(target):
    return lambda x: ((x - target) ** 2).sum(axis=1)


def batch_spheres(targets):
    """Batched landscape: row i is a sphere centred at targets[i]."""
    targets = np.asarray(targets)

    def fn(x):
        return ((x - targets[: len(x), None, None]) ** 2).sum(axis=2)

    return fn


def perceive_one(fleet, index, delta_f, delta_ci):
    """One swarm's DPSO perception through the fleet's batched pass."""
    return bool(fleet.perceive_batch([index], [delta_f], [delta_ci])[0])


def seeded_rngs(n, base=77):
    return [np.random.default_rng(base + i) for i in range(n)]


def make_pairing(dynamic=True):
    """N independent optimizers and a fleet sharing their seed streams."""
    targets = np.linspace(0.05, 0.95, N_SWARMS)
    if dynamic:
        solos = [
            DynamicPSO(dim=2, rng=rng, n_particles=N_PARTICLES)
            for rng in seeded_rngs(N_SWARMS)
        ]
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
    else:
        solos = [
            ParticleSwarm(dim=2, rng=rng, n_particles=N_PARTICLES)
            for rng in seeded_rngs(N_SWARMS)
        ]
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES)
    for rng in seeded_rngs(N_SWARMS):
        fleet.add_swarm(rng)
    return solos, fleet, targets


def assert_swarm_equal(solo, fleet, i):
    assert np.array_equal(solo.positions, fleet.positions[i])
    assert np.array_equal(solo.velocities, fleet.velocities[i])
    assert np.array_equal(solo.pbest_positions, fleet.pbest_positions[i])
    assert np.array_equal(solo.pbest_scores, fleet.pbest_scores[i])
    assert np.array_equal(solo.gbest_position, fleet.gbest_positions([i])[0])
    assert solo.best_fitness == fleet.best_scores[i]


class TestFleetEquivalence:
    def test_initial_state_matches(self):
        solos, fleet, _ = make_pairing()
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, fleet, i)

    def test_dynamic_stepping_bit_identical(self):
        """N fleet-stepped DPSO swarms == N independent DynamicPSO
        instances, including perceive-triggered redistribution."""
        solos, fleet, targets = make_pairing(dynamic=True)
        idx = np.arange(N_SWARMS)
        # Deltas chosen so some rounds redistribute and some do not.
        deltas = [(0.0, 0.0), (3.0, 40.0), (0.01, 0.1), (5.0, 10.0)]
        for df, dci in deltas:
            for i, solo in enumerate(solos):
                solo.perceive(df, dci)
                solo.step(sphere_at(targets[i]), iterations=3)
            fired = [perceive_one(fleet, i, df, dci) for i in range(N_SWARMS)]
            fleet.step(idx, batch_spheres(targets), iterations=3)
            for i, solo in enumerate(solos):
                assert_swarm_equal(solo, fleet, i)
            assert fired == [
                s.last_perception > s.params.perception_threshold for s in solos
            ]

    def test_vanilla_stepping_bit_identical(self):
        solos, fleet, targets = make_pairing(dynamic=False)
        assert not fleet.rescore_bests
        idx = np.arange(N_SWARMS)
        for _ in range(5):
            for i, solo in enumerate(solos):
                solo.step(sphere_at(targets[i]), iterations=2)
            fleet.step(idx, batch_spheres(targets), iterations=2)
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, fleet, i)

    def test_partial_subset_stepping(self):
        """Stepping a masked subset advances exactly those swarms."""
        solos, fleet, targets = make_pairing()
        subset = np.array([0, 2, 5])
        for i in subset:
            solos[i].perceive(1.0, 1.0)
            solos[i].step(sphere_at(targets[i]), iterations=4)
            perceive_one(fleet, int(i), 1.0, 1.0)
        fleet.step(subset, batch_spheres(targets[subset]), iterations=4)
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, fleet, i)  # untouched swarms too

    def test_step_one_interleaves_with_batched_steps(self):
        """The single-swarm fast path shares state and RNG streams with
        the fused kernels, so mixing the two stays equivalent."""
        solos, fleet, targets = make_pairing()
        idx = np.arange(N_SWARMS)
        for i, solo in enumerate(solos):
            solo.step(sphere_at(targets[i]), iterations=2)
        fleet.step(idx, batch_spheres(targets), iterations=2)
        for i, solo in enumerate(solos):
            solo.perceive(2.0, 9.0)
            solo.step(sphere_at(targets[i]), iterations=3)
            perceive_one(fleet, i, 2.0, 9.0)
            fleet.step_one(i, sphere_at(targets[i]), iterations=3)
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, fleet, i)

    def test_perceive_batch_matches_scalar_perceive(self):
        """The vectorised perception pass (the KDM's fused path) is
        bit-identical to the scalar ``DynamicPSO.perceive`` oracle per
        swarm, including the redistribution draw order."""
        solos, batched, targets = make_pairing()
        idx = np.arange(N_SWARMS)
        deltas = [(0.0, 0.0), (3.0, 40.0), (0.01, 0.1), (5.0, 10.0)]
        for df, dci in deltas:
            fired = batched.perceive_batch(
                idx, np.full(N_SWARMS, df), np.full(N_SWARMS, dci)
            )
            assert fired.tolist() == [solo.perceive(df, dci) for solo in solos]
            batched.step(idx, batch_spheres(targets), iterations=2)
            for i, solo in enumerate(solos):
                solo.step(sphere_at(targets[i]), iterations=2)
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, batched, i)
            assert solo.omega == batched.omega[i]
            assert solo.c1 == batched.c1[i]
            assert solo.last_perception == batched.last_perception[i]

    @pytest.mark.parametrize("fraction", [0.5, 1.0, 0.01])
    def test_perceive_batch_all_fire_matches_oracle_redistribute(self, fraction):
        """When every swarm fires, the one-scatter redistribution equals
        each swarm's own oracle ``redistribute`` (same draws, same rows);
        a fraction that rounds to 0 particles draws nothing."""
        params = DPSOParams(redistribute_fraction=fraction)
        solos = [
            DynamicPSO(dim=2, rng=rng, n_particles=N_PARTICLES, params=params)
            for rng in seeded_rngs(N_SWARMS)
        ]
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=params)
        for rng in seeded_rngs(N_SWARMS):
            fleet.add_swarm(rng)
        targets = np.linspace(0.05, 0.95, N_SWARMS)
        idx = np.arange(N_SWARMS)
        for round_ in range(3):
            # Each delta is a new maximum, so every swarm fires.
            df, dci = 2.0 ** round_, 10.0 * 2.0 ** round_
            fired = fleet.perceive_batch(
                idx, np.full(N_SWARMS, df), np.full(N_SWARMS, dci)
            )
            assert fired.all()
            assert all(solo.perceive(df, dci) for solo in solos)
            for i, solo in enumerate(solos):
                assert_swarm_equal(solo, fleet, i)
                assert (
                    solo.rng.bit_generator.state
                    == fleet.rng_of(i).bit_generator.state
                )
            fleet.step(idx, batch_spheres(targets), iterations=2)
            for i, solo in enumerate(solos):
                solo.step(sphere_at(targets[i]), iterations=2)

    def test_perceive_batch_validation(self):
        _, fleet, _ = make_pairing()
        with pytest.raises(ValueError, match="distinct"):
            fleet.perceive_batch(np.array([1, 1]), [0.0, 0.0], [0.0, 0.0])
        vanilla = SwarmFleet(dim=2, n_particles=5)
        vanilla.add_swarm(np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="DPSOParams"):
            vanilla.perceive_batch([0], [0.0], [0.0])
        assert fleet.perceive_batch([], [], []).tolist() == []

    def test_growth_preserves_state(self):
        """Adding swarms past the initial capacity must not disturb the
        stacked state of existing swarms."""
        fleet = SwarmFleet(dim=2, n_particles=5, params=DPSOParams())
        rngs = seeded_rngs(12, base=5)
        first = fleet.add_swarm(rngs[0])
        fleet.step_one(first, sphere_at(0.3), iterations=2)
        snapshot = fleet.positions[first].copy()
        for rng in rngs[1:]:
            fleet.add_swarm(rng)
        assert fleet.n_swarms == 12
        assert np.array_equal(fleet.positions[first], snapshot)


class TestScalarPerception:
    """``perceive_batch`` runs the oracle's scalar perception per swarm:
    weights, maxima and fired masks equal ``DynamicPSO.perceive`` to the
    bit (signed zeros included) at every batch width, and the fired
    swarms' redistributions draw what the oracle draws."""

    @staticmethod
    def _rounds(width, rng):
        zeros = np.zeros(width)
        # First perception with zero deltas: both maxima are 0 (0/0 guard).
        yield zeros, zeros
        # Each df is a new maximum and dci stays 0: change == 1.0 exactly.
        yield np.full(width, 4.0), zeros
        # df equal to its maximum: change == 1.0 again, dF alone.
        yield np.full(width, 4.0), zeros
        # 0.5% of the maximum: below the 0.02 threshold, nothing fires.
        yield np.full(width, 0.02), zeros
        for _ in range(6):
            df = rng.uniform(0.0, 6.0, width) * (rng.uniform(size=width) < 0.7)
            dci = rng.uniform(0.0, 60.0, width) * (rng.uniform(size=width) < 0.5)
            yield df, dci

    @pytest.mark.parametrize("width", [1, 3, 64])
    @pytest.mark.parametrize(
        "params",
        [DPSOParams(), DPSOParams(c_min=0.0, c_max=0.0, perception_threshold=0.0)],
        ids=["default", "zero-c"],
    )
    def test_matches_oracle(self, width, params):
        solos = [
            DynamicPSO(dim=2, rng=rng, n_particles=N_PARTICLES, params=params)
            for rng in seeded_rngs(width)
        ]
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=params)
        for rng in seeded_rngs(width):
            fleet.add_swarm(rng)
        # Slots in a scrambled order: row j of the deltas is slot order[j].
        order = np.random.default_rng(width).permutation(width).tolist()
        hexed = float.hex  # tells -0.0 from 0.0
        seen = set()
        for df, dci in self._rounds(width, np.random.default_rng(11)):
            fired = fleet.perceive_batch(order, df.tolist(), dci.tolist())
            want = [solos[i].perceive(df[j], dci[j]) for j, i in enumerate(order)]
            assert fired.dtype == bool and fired.tolist() == want
            seen.update(want)
            for j, i in enumerate(order):
                solo = solos[i]
                assert hexed(fleet.omega[i]) == hexed(solo.omega)
                assert hexed(fleet.c1[i]) == hexed(solo.c1)
                assert hexed(fleet.c2[i]) == hexed(solo.c2)
                assert hexed(fleet.last_perception[i]) == hexed(solo.last_perception)
                assert fleet._df_max[i] == solo._df_max
                assert fleet._dci_max[i] == solo._dci_max
                assert_swarm_equal(solo, fleet, i)
        assert seen == {True, False}

    def test_change_of_exactly_one(self):
        fleet = SwarmFleet(dim=2, n_particles=5, params=DPSOParams())
        fleet.add_swarm(np.random.default_rng(0))
        assert not fleet.perceive_batch([0], [0.0], [0.0])[0]
        assert fleet.last_perception[0] == 0.0
        assert fleet.perceive_batch([0], [2.0], [0.0])[0]
        assert fleet.last_perception[0] == 1.0
        assert fleet.omega[0] == DPSOParams().omega_max
        assert fleet.c1[0] == fleet.c2[0] == DPSOParams().c_min

    def test_rejects_bad_batches_before_any_write(self):
        fleet = SwarmFleet(dim=2, n_particles=5, params=DPSOParams())
        for rng in seeded_rngs(3):
            fleet.add_swarm(rng)
        bad = [
            (ValueError, [0, 2, 0], [1.0] * 3, [1.0] * 3),
            (IndexError, [0, -1], [1.0] * 2, [1.0] * 2),
            (IndexError, [1, 3], [1.0] * 2, [1.0] * 2),
            (ValueError, [0, 1], [1.0] * 2, [1.0]),
            (ValueError, [0, 1], [1.0], [1.0] * 2),
        ]
        for error, idx, df, dci in bad:
            with pytest.raises(error):
                fleet.perceive_batch(idx, df, dci)
        assert not fleet._df_max.any() and not fleet._dci_max.any()
        assert not fleet.last_perception.any()


class TestFixedLandscapeStep:
    """``step`` / ``step_one`` against a fixed landscape ==
    the oracles, which re-score every iteration and draw r1/r2 per
    iteration. The landscapes are table gathers, as the KDM's are: pure
    in the positions within a call, full of ties, and redrawn between
    calls so the first-iteration re-score matters."""

    N_LOC, N_K = 2, 31

    def _tables(self, rng, s):
        # Coarse values so equal scores (ties on `<=`) are common.
        return np.round(rng.uniform(size=(s, self.N_LOC, self.N_K)), 1)

    def _fitness(self, tables):
        """Gather from one swarm's ``(N_LOC, N_K)`` table, or row-wise
        from an ``(s, N_LOC, N_K)`` stack."""
        lead = () if tables.ndim == 2 else (np.arange(len(tables))[:, None],)

        def fn(x):
            loc = np.minimum((x[..., 0] * self.N_LOC).astype(int), self.N_LOC - 1)
            cell = (x[..., 1] * (self.N_K - 1) + 0.5).astype(int)
            return tables[lead + (loc, cell)]

        return fn

    @pytest.mark.parametrize("path", ["step", "step_one"])
    @pytest.mark.parametrize("iterations", [1, 3, 8])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_matches_oracles(self, path, iterations, dynamic):
        n_particles, n_swarms = 7, 4
        if dynamic:
            solos = [
                DynamicPSO(dim=2, rng=r, n_particles=n_particles)
                for r in seeded_rngs(n_swarms, base=300)
            ]
            fleet = SwarmFleet(dim=2, n_particles=n_particles, params=DPSOParams())
        else:
            solos = [
                ParticleSwarm(dim=2, rng=r, n_particles=n_particles)
                for r in seeded_rngs(n_swarms, base=300)
            ]
            fleet = SwarmFleet(dim=2, n_particles=n_particles)
        for r in seeded_rngs(n_swarms, base=300):
            fleet.add_swarm(r)
        idx = np.arange(n_swarms)
        land = np.random.default_rng(9)
        # Rounds: (delta_f, delta_ci, explicit redistribution first?)
        rounds = [(0.0, 0.0, False), (3.0, 40.0, False), (0.1, 0.2, True),
                  (5.0, 1.0, False), (0.0, 0.0, True)]
        for df, dci, redistribute in rounds:
            tables = self._tables(land, n_swarms)
            for i, solo in enumerate(solos):
                if redistribute:
                    solo.redistribute(0.5)
                    fleet.redistribute(i, 0.5)
                if dynamic:
                    solo.perceive(df, dci)
                    perceive_one(fleet, i, df, dci)
                solo.step(self._fitness(tables[i]), iterations=iterations)
            if path == "step":
                fleet.step(idx, self._fitness(tables), iterations=iterations)
            else:
                for i in idx:
                    fleet.step_one(int(i), self._fitness(tables[i]), iterations)
            for i, solo in enumerate(solos):
                assert_swarm_equal(solo, fleet, i)
                assert (
                    solo.rng.bit_generator.state
                    == fleet.rng_of(i).bit_generator.state
                )

    @staticmethod
    def _corners(x):
        """Minima at the box corners: the swarms pile onto 0.0 and 1.0."""
        return -((x - 0.5) ** 2).sum(axis=-1)

    @pytest.mark.parametrize("landscape", ["table", "corners"])
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_widths_match_dpso_oracle(self, width, landscape):
        """Every batch width is one kernel: stepping 7 DPSO swarms in
        groups of ``width`` == 7 ``DynamicPSO`` oracles."""
        n_particles, n_swarms, iterations = 15, 7, 8
        solos = [
            DynamicPSO(dim=2, rng=r, n_particles=n_particles)
            for r in seeded_rngs(n_swarms, base=500)
        ]
        fleet = SwarmFleet(dim=2, n_particles=n_particles, params=DPSOParams())
        for r in seeded_rngs(n_swarms, base=500):
            fleet.add_swarm(r)
        groups = [
            list(range(j, min(j + width, n_swarms)))
            for j in range(0, n_swarms, width)
        ]
        land = np.random.default_rng(11)
        for df, dci in [(0.0, 0.0), (3.0, 40.0), (0.1, 0.2), (5.0, 1.0)]:
            tables = self._tables(land, n_swarms)
            fired = fleet.perceive_batch(
                np.arange(n_swarms), np.full(n_swarms, df), np.full(n_swarms, dci)
            )
            assert fired.tolist() == [solo.perceive(df, dci) for solo in solos]
            for i, solo in enumerate(solos):
                fit = (
                    self._fitness(tables[i]) if landscape == "table"
                    else self._corners
                )
                solo.step(fit, iterations=iterations)
            for group in groups:
                fit = (
                    self._fitness(tables[group]) if landscape == "table"
                    else self._corners
                )
                fleet.step(group, fit, iterations=iterations)
            for i, solo in enumerate(solos):
                assert_swarm_equal(solo, fleet, i)
                assert np.array_equal(
                    solo.best_position, fleet.best_positions[i]
                )
                assert (
                    solo.rng.bit_generator.state
                    == fleet.rng_of(i).bit_generator.state
                )
        if landscape == "corners":
            live = fleet.positions[:n_swarms]
            assert (live == 0.0).any() and (live == 1.0).any()
            assert not np.signbit(live).any()  # no -0.0 from the clip


class TestRetirement:
    """Slot retirement/compaction extends the equivalence contract: a
    retired-then-rehydrated swarm continues its stream bit-identically
    to a never-retired one, across slot reuse and compaction remaps."""

    def test_retire_rehydrate_bit_identical(self):
        solos, fleet, targets = make_pairing()
        slot = {i: i for i in range(N_SWARMS)}

        def step_all(df, dci, iters):
            order = sorted(range(N_SWARMS), key=lambda i: slot[i])
            for i, solo in enumerate(solos):
                solo.perceive(df, dci)
                solo.step(sphere_at(targets[i]), iterations=iters)
            for i in order:
                perceive_one(fleet, slot[i], df, dci)
            fleet.step(
                [slot[i] for i in order],
                batch_spheres(targets[order]),
                iterations=iters,
            )

        step_all(1.0, 5.0, 3)
        archives = {i: fleet.retire(slot.pop(i)) for i in (1, 4)}
        assert fleet.n_swarms == N_SWARMS - 2

        # Survivors keep stepping while 1 and 4 sit archived (their solo
        # twins idle too -- a retired function receives no decisions).
        rest = sorted(slot)
        for i in rest:
            solos[i].perceive(0.2, 0.4)
            solos[i].step(sphere_at(targets[i]), iterations=2)
            perceive_one(fleet, slot[i], 0.2, 0.4)
        fleet.step(
            [slot[i] for i in rest], batch_spheres(targets[rest]), iterations=2
        )

        for i in (1, 4):
            slot[i] = fleet.rehydrate(archives[i])
        assert fleet.n_swarms == N_SWARMS
        for i in (1, 4):
            assert_swarm_equal(solos[i], fleet, slot[i])

        step_all(3.0, 40.0, 3)  # redistribution round after rehydration
        for i, solo in enumerate(solos):
            assert_swarm_equal(solo, fleet, slot[i])

    def test_retire_frees_slot_for_reuse(self):
        _, fleet, _ = make_pairing()
        cap = fleet.capacity
        fleet.retire(2)
        assert fleet.n_swarms == N_SWARMS - 1
        assert not fleet.is_live(2)
        new = fleet.add_swarm(np.random.default_rng(123))
        assert new == 2  # freed slot reused, no growth
        assert fleet.capacity == cap
        assert fleet.n_swarms == N_SWARMS

    def test_compact_remaps_and_shrinks(self):
        rngs = seeded_rngs(16, base=9)
        solos = [
            DynamicPSO(dim=2, rng=rng, n_particles=N_PARTICLES) for rng in rngs
        ]
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
        for rng in seeded_rngs(16, base=9):
            fleet.add_swarm(rng)
        targets = np.linspace(0.1, 0.9, 16)
        for i, solo in enumerate(solos):
            solo.step(sphere_at(targets[i]), iterations=2)
        fleet.step(np.arange(16), batch_spheres(targets), iterations=2)
        assert fleet.capacity == 16

        keep = [12, 13, 14, 15]
        for i in range(12):
            fleet.retire(i)
        remap = fleet.compact()
        slot = {i: remap.get(i, i) for i in keep}
        assert sorted(slot.values()) == [0, 1, 2, 3]
        assert fleet.capacity < 16  # occupancy watermark shrank the arrays
        assert fleet.n_swarms == 4
        for i in keep:
            assert_swarm_equal(solos[i], fleet, slot[i])
        # Moved swarms keep stepping bit-identically after the remap.
        for i in keep:
            solos[i].perceive(2.0, 9.0)
            solos[i].step(sphere_at(targets[i]), iterations=3)
            perceive_one(fleet, slot[i], 2.0, 9.0)
        fleet.step(
            [slot[i] for i in keep],
            batch_spheres(targets[keep]),
            iterations=3,
        )
        for i in keep:
            assert_swarm_equal(solos[i], fleet, slot[i])

    def test_compact_without_free_slots_is_noop(self):
        _, fleet, _ = make_pairing()
        assert fleet.compact() == {}
        assert fleet.n_swarms == N_SWARMS

    def test_archive_is_a_snapshot(self):
        """Stepping other swarms (or reusing the slot) must not leak into
        an existing archive."""
        solos, fleet, targets = make_pairing()
        archive = fleet.retire(0)
        frozen = archive.positions.copy()
        fleet.add_swarm(np.random.default_rng(999))  # reuses slot 0
        fleet.step_one(0, sphere_at(0.5), iterations=2)
        assert np.array_equal(archive.positions, frozen)

    def test_retired_slot_guards(self):
        _, fleet, targets = make_pairing()
        fleet.retire(3)
        with pytest.raises(IndexError, match="live"):
            fleet.retire(3)
        with pytest.raises(IndexError, match="live"):
            perceive_one(fleet, 3, 1.0, 1.0)
        with pytest.raises(IndexError, match="live"):
            fleet.step_one(3, sphere_at(0.5))
        with pytest.raises(IndexError, match="live"):
            fleet.step(np.array([0, 3]), batch_spheres(targets))
        with pytest.raises(IndexError, match="live"):
            fleet.gbest_positions([3])
        with pytest.raises(IndexError, match="live"):
            fleet.rng_of(3)

    def test_rehydrate_shape_mismatch_rejected(self):
        _, fleet, _ = make_pairing()
        archive = fleet.retire(0)
        other = SwarmFleet(dim=2, n_particles=5, params=DPSOParams())
        with pytest.raises(ValueError, match="does not match"):
            other.rehydrate(archive)

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(
                ["step", "step_one", "perceive", "retire", "rehydrate", "compact"]
            ),
            min_size=4,
            max_size=14,
        ),
        data=st.data(),
    )
    def test_random_lifecycle_matches_solo_twin(self, ops, data):
        """Hypothesis: any interleaving of fused steps, single-swarm
        steps and batched perception with retire/rehydrate/compact leaves
        every swarm -- rows, weights and RNG stream position -- exactly
        where a never-retired twin fleet stepped one swarm at a time is."""
        n = 5
        targets = np.linspace(0.15, 0.85, n)
        subject = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
        twin = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
        for rng_a, rng_b in zip(seeded_rngs(n, base=900), seeded_rngs(n, base=900)):
            subject.add_swarm(rng_a)
            twin.add_swarm(rng_b)
        slot = {i: i for i in range(n)}
        archived: dict[int, object] = {}

        for op in ops:
            live = sorted(slot, key=lambda i: slot[i])
            if op == "step" and live:
                subject.step(
                    [slot[i] for i in live],
                    batch_spheres(targets[live]),
                    iterations=1,
                )
                for i in live:
                    twin.step_one(i, sphere_at(targets[i]), iterations=1)
            elif op == "step_one" and live:
                i = data.draw(st.sampled_from(live), label="step_one")
                subject.step_one(slot[i], sphere_at(targets[i]), iterations=2)
                twin.step_one(i, sphere_at(targets[i]), iterations=2)
            elif op == "perceive" and live:
                # Large deltas fire redistribution, which draws from the
                # swarm's stream.
                df, dci = data.draw(
                    st.sampled_from([(0.0, 0.0), (0.01, 0.1), (5.0, 40.0)]),
                    label="deltas",
                )
                fired = subject.perceive_batch(
                    [slot[i] for i in live],
                    np.full(len(live), df),
                    np.full(len(live), dci),
                )
                assert fired.tolist() == [
                    perceive_one(twin, i, df, dci) for i in live
                ]
            elif op == "retire" and slot:
                i = data.draw(st.sampled_from(sorted(slot)), label="retire")
                archived[i] = subject.retire(slot.pop(i))
            elif op == "rehydrate" and archived:
                i = data.draw(st.sampled_from(sorted(archived)), label="rehydrate")
                slot[i] = subject.rehydrate(archived.pop(i))
            elif op == "compact":
                remap = subject.compact()
                slot = {i: remap.get(s, s) for i, s in slot.items()}

        for i, arch in archived.items():
            slot[i] = subject.rehydrate(arch)
        for i in range(n):
            a, b = slot[i], i
            for name in subject._STACKED_STATE:
                assert np.array_equal(
                    getattr(subject, name)[a], getattr(twin, name)[b]
                ), name
            assert (
                subject.rng_of(a).bit_generator.state
                == twin.rng_of(b).bit_generator.state
            )


class TestFleetValidation:
    def test_duplicate_indices_rejected(self):
        _, fleet, targets = make_pairing()
        with pytest.raises(ValueError, match="distinct"):
            fleet.step(np.array([1, 1]), batch_spheres(targets), iterations=1)

    def test_bad_fitness_shape_rejected(self):
        _, fleet, _ = make_pairing()
        with pytest.raises(ValueError, match="shape"):
            fleet.step(np.array([0, 1]), lambda x: np.zeros((2, 3)))

    def test_perceive_requires_dynamic(self):
        fleet = SwarmFleet(dim=2, n_particles=5)
        fleet.add_swarm(np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="DPSOParams"):
            perceive_one(fleet, 0, 1.0, 1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SwarmFleet(dim=0)
        with pytest.raises(ValueError):
            SwarmFleet(dim=2, n_particles=1)
        with pytest.raises(ValueError):
            SwarmFleet(dim=2, vmax=0.0)

    @staticmethod
    def _full_fleet():
        """Four live swarms in four slots: slot -1 would wrap to slot 3."""
        fleet = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
        for rng in seeded_rngs(4):
            fleet.add_swarm(rng)
        assert fleet.capacity == fleet.n_swarms == 4
        return fleet

    def test_step_rejects_negative_slot(self):
        fleet = self._full_fleet()
        before = fleet.positions.copy()
        state = fleet.rng_of(3).bit_generator.state
        for indices in ([-1], [0, -1]):
            with pytest.raises(IndexError, match="live"):
                fleet.step(indices, batch_spheres([0.5, 0.5]))
        assert np.array_equal(fleet.positions, before)
        assert fleet.rng_of(3).bit_generator.state == state

    def test_perceive_rejects_negative_slot(self):
        fleet = self._full_fleet()
        with pytest.raises(IndexError, match="live"):
            fleet.perceive_batch([-1], [1.0], [1.0])
        with pytest.raises(IndexError, match="live"):
            fleet.perceive_batch([1, -4], [1.0, 1.0], [1.0, 1.0])
        assert not fleet._df_max.any()
        assert not fleet.last_perception.any()

    def test_gbest_rejects_negative_slot(self):
        fleet = self._full_fleet()
        with pytest.raises(IndexError, match="live"):
            fleet.gbest_positions([-1])
        with pytest.raises(IndexError, match="live"):
            fleet.gbest_positions([2, -2])
        assert fleet.gbest_positions([]).shape == (0, 2)

    def test_empty_step_is_noop(self):
        _, fleet, _ = make_pairing()
        # Compare only live rows: the backing arrays are np.empty-allocated
        # to capacity, and uninitialized tail rows can hold NaN garbage
        # (NaN != NaN would flakily fail an equality over the full array).
        live = fleet.n_swarms
        before = fleet.positions[:live].copy()
        fleet.step(np.array([], dtype=int), lambda x: x.sum(axis=2))
        assert np.array_equal(before, fleet.positions[:live])


class TestBatchFitness:
    """ObjectiveBuilder.batch_fitness row i == the per-function closure."""

    def _arrivals(self, n):
        out = []
        for i in range(n):
            est = ArrivalEstimator(history=16)
            for j in range(i + 2):
                est.observe(60.0 * j * (i + 1))
            out.append(est)
        return out

    def test_rows_match_per_function_closures(self):
        env = make_env()
        cfg = EcoLifeConfig()
        builder = ObjectiveBuilder(env, cfg)
        funcs = [
            FunctionProfile(
                name=f"f{i}",
                mem_gb=0.3 + 0.2 * i,
                exec_ref_s=1.0 + i,
                cold_ref_s=0.5 + 0.3 * i,
            )
            for i in range(4)
        ]
        ts = [100.0, 260.0, 500.0, 771.0]
        arrivals = self._arrivals(4)

        rng = np.random.default_rng(11)
        x = rng.uniform(size=(4, 30, 2))
        batched = builder.batch_fitness(funcs, ts, arrivals)(x)
        assert batched.shape == (4, 30)
        for i, (func, t, arr) in enumerate(zip(funcs, ts, arrivals)):
            solo = builder.fitness(func, t, arr)(x[i])
            assert np.array_equal(batched[i], solo)

    def test_length_mismatch_rejected(self):
        env = make_env()
        builder = ObjectiveBuilder(env, EcoLifeConfig())
        func = FunctionProfile(name="f", mem_gb=0.5, exec_ref_s=1.0, cold_ref_s=0.5)
        with pytest.raises(ValueError, match="equal length"):
            builder.batch_fitness([func], [1.0, 2.0], [ArrivalEstimator()])

    def test_vectorised_arrivals_match_reference_loop(self):
        """The table gather (arrivals queried once, on the K_AT grid) ==
        the oracle's per-particle, per-function query loop, bit for bit,
        including empty and saturated histories."""
        env = make_env()
        builder = ObjectiveBuilder(env, EcoLifeConfig())
        funcs = [
            FunctionProfile(
                name=f"f{i}",
                mem_gb=0.3 + 0.2 * i,
                exec_ref_s=1.0 + i,
                cold_ref_s=0.5 + 0.3 * i,
            )
            for i in range(5)
        ]
        ts = [100.0, 260.0, 500.0, 771.0, 912.0]
        arrivals = []
        for i, n_obs in enumerate((0, 1, 2, 9, 20)):  # empty/short/full
            est = ArrivalEstimator(history=16)
            for j in range(n_obs):
                est.observe(45.0 * j * (i + 1))
            arrivals.append(est)

        x = np.random.default_rng(5).uniform(size=(5, 30, 2))
        fast = builder.batch_fitness(funcs, ts, arrivals)(x)
        loop = objective_oracle.looped_batch_fitness(builder, funcs, ts, arrivals)(x)
        assert np.array_equal(fast, loop)


class TestKDMBatchDecisions:
    def _kdm(self, batch: bool, dynamic: bool = True):
        """``batch``: the fleet KDM; otherwise the sequential oracle."""
        env = make_env()
        cfg = EcoLifeConfig(use_dynamic_pso=dynamic)
        arrivals = ArrivalRegistry()
        kdm_cls = KeepAliveDecisionMaker if batch else SequentialKDM
        return kdm_cls(env, cfg, arrivals), arrivals

    def _funcs(self, n=4):
        return [
            FunctionProfile(
                name=f"f{i}", mem_gb=0.5, exec_ref_s=1.5 + i, cold_ref_s=0.8
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("dynamic", [True, False])
    def test_decide_batch_matches_sequential_decides(self, dynamic):
        """Same-tick fleet decisions == per-function decisions, decoded."""
        funcs = self._funcs()
        fleet_kdm, fa = self._kdm(batch=True, dynamic=dynamic)
        solo_kdm, fb = self._kdm(batch=False, dynamic=dynamic)
        for t0 in (0.0, 120.0, 240.0):
            for f in funcs:
                fa.observe(f.name, t0)
                fb.observe(f.name, t0)
            batched = fleet_kdm.decide_batch([(f, t0 + 2.0) for f in funcs])
            solo = [solo_kdm.decide(f, t0 + 2.0) for f in funcs]
            assert batched == solo
        assert fleet_kdm.decisions == solo_kdm.decisions
        assert fleet_kdm.optimizer_count == solo_kdm.optimizer_count == len(funcs)
        assert fleet_kdm.redistributions == solo_kdm.redistributions

    def test_repeated_function_splits_batch(self):
        """A duplicate name forces ordered sub-batches (its second
        decision depends on its first)."""
        f = self._funcs(1)[0]
        fleet_kdm, fa = self._kdm(batch=True)
        solo_kdm, fb = self._kdm(batch=False)
        fa.observe(f.name, 0.0)
        fb.observe(f.name, 0.0)
        batched = fleet_kdm.decide_batch([(f, 1.0), (f, 1.0), (f, 1.0)])
        solo = [solo_kdm.decide(f, 1.0) for _ in range(3)]
        assert batched == solo

    def test_ga_backend_falls_back_to_sequential(self):
        from repro.core.config import OptimizerKind

        env = make_env()
        cfg = EcoLifeConfig(optimizer=OptimizerKind.GENETIC)
        kdm = KeepAliveDecisionMaker(env, cfg, ArrivalRegistry())
        assert not kdm.use_fleet
        funcs = self._funcs(2)
        decisions = kdm.decide_batch([(f, 5.0) for f in funcs])
        assert len(decisions) == 2
        assert kdm.optimizer_count == 2


class TestEngineGrouping:
    """Fleet replay (same-tick groups stepped in fused kernels) ==
    sequential-DPSO replay, bit for bit."""

    def _quantized_events(self, n_funcs=8, n_ticks=12, tick=90.0):
        funcs = [
            FunctionProfile(
                name=f"f{i}",
                mem_gb=0.8 + 0.4 * (i % 3),
                exec_ref_s=1.0 + 0.5 * i,
                cold_ref_s=0.8,
            )
            for i in range(n_funcs)
        ]
        events = []
        for k in range(n_ticks):
            for f in funcs:
                events.append((k * tick, f))
        return events

    def _run(self, batch: bool, **cfg_kw):
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=InvocationTrace.from_events(self._quantized_events()),
            ci_trace=CarbonIntensityTrace.constant(250.0),
            config=SimulationConfig(**cfg_kw),
        )
        config = EcoLifeConfig()
        sched = EcoLifeScheduler(config) if batch else sequential_ecolife(config)
        return engine.run(sched)

    def test_grouped_replay_bit_identical(self):
        on, off = self._run(True), self._run(False)
        assert on.total_carbon_g == off.total_carbon_g
        assert on.total_service_s == off.total_service_s
        for a, b in zip(on.records, off.records):
            assert a.cold == b.cold
            assert a.location is b.location
            assert a.keepalive_decision == b.keepalive_decision
            assert a.keepalive_s == b.keepalive_s
            assert a.keepalive_carbon == b.keepalive_carbon

    def test_grouped_replay_under_memory_pressure(self):
        """Adjustment/spill/eviction bookkeeping survives grouping."""
        on = self._run(True, pool_capacity_old_gb=2.0, pool_capacity_new_gb=2.0)
        off = self._run(False, pool_capacity_old_gb=2.0, pool_capacity_new_gb=2.0)
        assert on.evicted_count + on.spilled_count > 0  # pressure is real
        assert on.total_carbon_g == off.total_carbon_g
        assert on.evicted_count == off.evicted_count
        assert on.spilled_count == off.spilled_count
        assert on.dropped_count == off.dropped_count
