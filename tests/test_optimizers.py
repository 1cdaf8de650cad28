"""Optimizer substrate: convergence, bounds, and mechanism tests.

``ParticleSwarm`` / ``DynamicPSO`` are the sequential oracles the
scheduler's ``SwarmFleet`` is checked against (``tests/oracles``); their
mechanism tests live here with GA/SA's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers import DPSOParams, GeneticOptimizer, SimulatedAnnealing
from tests.oracles import DynamicPSO, ParticleSwarm
from tests.oracles.gridsearch import cartesian_grid, grid_best


def sphere(target):
    """Quadratic bowl centred at ``target`` (unique optimum)."""
    target = np.asarray(target)

    def f(x):
        return ((x - target) ** 2).sum(axis=1)

    return f


def rastrigin_like(x):
    """Multi-modal test landscape on the unit box."""
    z = (x - 0.37) * 8.0
    return (z**2 - 2.0 * np.cos(3.0 * np.pi * z) + 2.0).sum(axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


ALL_OPTIMIZERS = [
    lambda rng: ParticleSwarm(dim=2, rng=rng),
    lambda rng: DynamicPSO(dim=2, rng=rng),
    lambda rng: GeneticOptimizer(dim=2, rng=rng),
    lambda rng: SimulatedAnnealing(dim=2, rng=rng),
]


@pytest.mark.parametrize("make", ALL_OPTIMIZERS)
class TestConvergence:
    def test_finds_sphere_optimum(self, make, rng):
        opt = make(rng)
        opt.step(sphere([0.3, 0.7]), iterations=40)
        assert opt.best_fitness < 1e-2
        assert np.allclose(opt.best_position, [0.3, 0.7], atol=0.15)

    def test_best_improves_monotonically_static(self, make, rng):
        opt = make(rng)
        f = sphere([0.5, 0.5])
        prev = np.inf
        for _ in range(5):
            opt.step(f, iterations=5)
            assert opt.best_fitness <= prev + 1e-12
            prev = opt.best_fitness

    def test_positions_stay_in_box(self, make, rng):
        opt = make(rng)
        opt.step(sphere([1.5, -0.5]), iterations=30)  # optimum outside box
        assert 0.0 <= opt.best_position.min() and opt.best_position.max() <= 1.0

    def test_unstepped_raises(self, make, rng):
        opt = make(rng)
        with pytest.raises(RuntimeError, match="not been stepped"):
            _ = opt.best_position


class TestParticleSwarm:
    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            opt = ParticleSwarm(dim=2, rng=np.random.default_rng(7))
            opt.step(sphere([0.2, 0.9]), iterations=10)
            runs.append(opt.best_position.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_set_weights(self, rng):
        opt = ParticleSwarm(dim=2, rng=rng)
        opt.set_weights(0.9, 0.5, 0.6)
        assert (opt.omega, opt.c1, opt.c2) == (0.9, 0.5, 0.6)

    def test_redistribute_moves_half(self, rng):
        opt = ParticleSwarm(dim=2, rng=rng, n_particles=10)
        before = opt.positions.copy()
        opt.redistribute(0.5)
        moved = (opt.positions != before).any(axis=1).sum()
        assert moved == 5

    def test_redistribute_zero_noop(self, rng):
        opt = ParticleSwarm(dim=2, rng=rng)
        before = opt.positions.copy()
        opt.redistribute(0.0)
        assert np.array_equal(before, opt.positions)

    def test_adapts_after_landscape_shift_with_rescoring(self, rng):
        """Re-scoring bests lets the swarm track a moving optimum."""
        opt = ParticleSwarm(dim=2, rng=rng, rescore_bests=True)
        opt.step(sphere([0.1, 0.1]), iterations=25)
        opt.step(sphere([0.9, 0.9]), iterations=40)
        assert np.allclose(opt.gbest_position, [0.9, 0.9], atol=0.2)

    def test_vanilla_goes_stale_after_landscape_shift(self, rng):
        """Classic PSO caches best scores, so a converged swarm cannot
        follow a moved optimum -- the pathology DPSO exists to fix."""
        opt = ParticleSwarm(dim=2, rng=rng)  # rescore_bests=False
        opt.step(sphere([0.1, 0.1]), iterations=40)
        opt.step(sphere([0.9, 0.9]), iterations=40)
        # gbest still reflects the old optimum's (stale) low score.
        assert np.allclose(opt.gbest_position, [0.1, 0.1], atol=0.2)

    def test_fitness_shape_validated(self, rng):
        opt = ParticleSwarm(dim=2, rng=rng)
        with pytest.raises(ValueError, match="shape"):
            opt.step(lambda x: np.zeros(3), iterations=1)

    def test_rejects_tiny_swarm(self, rng):
        with pytest.raises(ValueError):
            ParticleSwarm(dim=2, rng=rng, n_particles=1)


class TestDynamicPSO:
    def test_no_change_gives_exploit_weights(self, rng):
        opt = DynamicPSO(dim=2, rng=rng)
        fired = opt.perceive(0.0, 0.0)
        assert not fired
        assert opt.omega == opt.params.omega_min
        assert opt.c1 == opt.params.c_max

    def test_large_change_gives_explore_weights_and_redistributes(self, rng):
        opt = DynamicPSO(dim=2, rng=rng)
        opt.perceive(10.0, 50.0)  # establishes the running maxima
        before = opt.positions.copy()
        fired = opt.perceive(10.0, 50.0)  # both at their observed max
        assert fired
        assert opt.omega == opt.params.omega_max
        assert opt.c1 == opt.params.c_min
        moved = (opt.positions != before).any(axis=1).sum()
        assert moved >= opt.n_particles // 2

    def test_perception_normalised_by_running_max(self, rng):
        opt = DynamicPSO(dim=2, rng=rng)
        opt.perceive(100.0, 0.0)
        opt.perceive(1.0, 0.0)
        assert opt.last_perception == pytest.approx(0.01)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DPSOParams(omega_min=1.5, omega_max=1.0)
        with pytest.raises(ValueError):
            DPSOParams(redistribute_fraction=2.0)

    def test_tracks_moving_optimum_with_perception(self, rng):
        opt = DynamicPSO(dim=2, rng=rng)
        opt.perceive(0.0, 0.0)
        opt.step(sphere([0.15, 0.15]), iterations=25)
        opt.perceive(5.0, 100.0)  # big environment change
        opt.step(sphere([0.85, 0.85]), iterations=40)
        assert np.allclose(opt.gbest_position, [0.85, 0.85], atol=0.2)


class TestGenetic:
    def test_paper_hyperparameters_accepted(self, rng):
        opt = GeneticOptimizer(
            dim=2, rng=rng, population=15, crossover_prob=0.6, mutation_prob=0.01
        )
        opt.step(sphere([0.4, 0.6]), iterations=30)
        assert opt.best_fitness < 0.05

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GeneticOptimizer(dim=2, rng=rng, population=2)
        with pytest.raises(ValueError):
            GeneticOptimizer(dim=2, rng=rng, crossover_prob=1.5)

    def test_elitism_never_regresses(self, rng):
        opt = GeneticOptimizer(dim=2, rng=rng)
        f = sphere([0.5, 0.5])
        opt.step(f, iterations=3)
        first = opt.best_fitness
        opt.step(f, iterations=10)
        assert opt.best_fitness <= first


class TestAnnealing:
    def test_paper_schedule_length(self, rng):
        opt = SimulatedAnnealing(dim=2, rng=rng)
        # 100 -> 1 at factor 0.9: ceil(log(0.01)/log(0.9)) = 44 temperatures.
        assert 40 <= opt.schedule_length <= 50

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SimulatedAnnealing(dim=2, rng=rng, t_initial=1.0, t_stop=10.0)
        with pytest.raises(ValueError):
            SimulatedAnnealing(dim=2, rng=rng, cooling=1.5)

    def test_multimodal_reasonable(self, rng):
        opt = SimulatedAnnealing(dim=2, rng=rng)
        opt.step(rastrigin_like, iterations=5)
        # Global optimum is 0 at x = 0.37; random positions average ~30.
        assert opt.best_fitness < 8.0


class TestGridSearch:
    def test_exact_on_grid(self):
        axes = np.linspace(0, 1, 11)
        grid = cartesian_grid(axes, axes)
        pos, score = grid_best(sphere([0.5, 0.5]), grid)
        assert np.allclose(pos, [0.5, 0.5])
        assert score == pytest.approx(0.0)

    def test_tie_breaks_to_first(self):
        cands = np.array([[0.1, 0.0], [0.9, 0.0]])
        pos, _ = grid_best(lambda x: np.zeros(len(x)), cands)
        assert np.allclose(pos, [0.1, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_best(lambda x: np.zeros(len(x)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="shape"):
            grid_best(lambda x: np.zeros(99), np.zeros((3, 2)))

    def test_cartesian_grid_shape(self):
        g = cartesian_grid(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
        assert g.shape == (6, 2)


# -- property-based ------------------------------------------------------------


@given(
    seed=st.integers(0, 2**31 - 1),
    n_particles=st.integers(2, 20),
    omega=st.floats(0.0, 1.2),
    c=st.floats(0.0, 2.0),
    vmax=st.floats(0.05, 1.0),
    tx=st.floats(-0.5, 1.5),
    ty=st.floats(-0.5, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_positions_and_velocities_always_bounded(
    seed, n_particles, omega, c, vmax, tx, ty
):
    """Invariant: positions live in the unit box and velocities within
    +/-vmax, whatever the weights or the (possibly out-of-box) optimum."""
    rng = np.random.default_rng(seed)
    opt = ParticleSwarm(
        dim=2, rng=rng, n_particles=n_particles, omega=omega, c1=c, c2=c,
        vmax=vmax,
    )
    assert opt.velocities.min() >= -vmax and opt.velocities.max() <= vmax
    opt.step(sphere([tx, ty]), iterations=8)
    assert 0.0 <= opt.positions.min() and opt.positions.max() <= 1.0
    assert opt.velocities.min() >= -vmax and opt.velocities.max() <= vmax


@given(
    seed=st.integers(0, 2**31 - 1),
    targets=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_pbest_scores_monotone_without_rescoring(seed, targets):
    """With cached best scores (rescore_bests=False) the personal bests
    can only improve, even when the landscape shifts under the swarm."""
    rng = np.random.default_rng(seed)
    opt = ParticleSwarm(dim=2, rng=rng)  # rescore_bests=False
    prev = opt.pbest_scores.copy()
    for target in targets:
        opt.step(sphere([target, target]), iterations=3)
        assert (opt.pbest_scores <= prev).all()
        prev = opt.pbest_scores.copy()


@given(
    seed=st.integers(0, 2**31 - 1),
    n_particles=st.integers(2, 25),
    fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_redistribute_resets_exactly_rounded_fraction(seed, n_particles, fraction):
    """redistribute(f) forgets exactly round(f*n) personal bests."""
    rng = np.random.default_rng(seed)
    opt = ParticleSwarm(dim=2, rng=rng, n_particles=n_particles)
    opt.step(sphere([0.5, 0.5]), iterations=1)  # all pbest scores finite
    assert np.isfinite(opt.pbest_scores).all()
    opt.redistribute(fraction)
    assert np.isinf(opt.pbest_scores).sum() == round(fraction * n_particles)


@given(
    seed=st.integers(0, 2**31 - 1),
    df=st.floats(0.0, 1e6),
    dci=st.floats(0.0, 1e6),
)
@settings(max_examples=40, deadline=None)
def test_perceive_weights_always_within_param_ranges(seed, df, dci):
    """Dynamic weights are clamped into the DPSOParams ranges for any
    observed deltas."""
    rng = np.random.default_rng(seed)
    opt = DynamicPSO(dim=2, rng=rng)
    p = opt.params
    for deltas in ((df, dci), (df / 2.0, dci * 2.0), (0.0, 0.0)):
        opt.perceive(*deltas)
        assert p.omega_min <= opt.omega <= p.omega_max
        assert p.c_min <= opt.c1 <= p.c_max
        assert opt.c1 == opt.c2


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_perceive_threshold_boundary_does_not_fire(seed):
    """A change exactly at the perception threshold is not 'perceived'
    (the response requires change > threshold), and zero deltas pin the
    weights to the exploit end without touching the swarm."""
    rng = np.random.default_rng(seed)
    opt = DynamicPSO(dim=2, rng=rng)
    p = opt.params
    opt.perceive(1.0, 0.0)  # establishes df_max = 1.0
    before = opt.positions.copy()
    # nf = threshold / 1.0 == threshold exactly; strict > must not fire.
    fired = opt.perceive(p.perception_threshold, 0.0)
    assert not fired
    assert opt.last_perception == p.perception_threshold
    assert np.array_equal(opt.positions, before)
    # Zero deltas: no perceived change, exploit-mode weights, no motion.
    assert not opt.perceive(0.0, 0.0)
    assert opt.omega == p.omega_min
    assert opt.c1 == opt.c2 == p.c_max
    assert np.array_equal(opt.positions, before)


@given(
    seed=st.integers(0, 2**31 - 1),
    tx=st.floats(0.05, 0.95),
    ty=st.floats(0.05, 0.95),
)
@settings(max_examples=25, deadline=None)
def test_pso_beats_random_sampling(seed, tx, ty):
    """PSO with a small budget outperforms its own initial random spread."""
    rng = np.random.default_rng(seed)
    opt = ParticleSwarm(dim=2, rng=rng)
    f = sphere([tx, ty])
    initial_best = float(f(opt.positions).min())
    opt.step(f, iterations=15)
    assert opt.best_fitness <= initial_best + 1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_grid_best_is_lower_bound_for_pso_on_grid_points(seed):
    """No heuristic can beat exhaustive search over the same candidates."""
    rng = np.random.default_rng(seed)
    f = rastrigin_like
    axes = np.linspace(0, 1, 21)
    grid = cartesian_grid(axes, axes)
    _, grid_score = grid_best(f, grid)
    opt = ParticleSwarm(dim=2, rng=rng)
    opt.step(f, iterations=10)
    # Quantise PSO's answer onto the grid and compare.
    snapped = np.round(opt.best_position * 20) / 20
    snapped_score = float(f(snapped[None, :])[0])
    assert snapped_score >= grid_score - 1e-9
