from __future__ import annotations

import importlib
import itertools
import time

import numpy as np
import pytest

from privroute import game as game_module
from privroute.config import build_game_from_config
from privroute.game import (
    EquilibriumError,
    build_game,
    edge_flows,
    gap_from_losses,
    nash_gap,
    path_losses,
    potential_from_flows,
    potential_gradient,
    solve_equilibrium,
    uniform_allocation,
)
from privroute.network import block_slices, build_network

from conftest import (
    REPO_ROOT,
    fixed_step_potential,
    gradient_smoothness,
    random_allocation,
    random_game,
)


def test_edge_flows_pigou(pigou_game):
    np.testing.assert_allclose(edge_flows(pigou_game, np.array([[1.0, 0.0]])), [1.0, 0.0])
    np.testing.assert_allclose(edge_flows(pigou_game, np.array([[0.5, 0.5]])), [0.5, 0.5])


def test_edge_flows_match_dense_oracle(standin_game):
    rng = np.random.default_rng(1)
    x = random_allocation(rng, standin_game)
    # Independent dense oracle: loop over populations, OD pairs, paths, edges.
    expected = np.zeros(standin_game.network.num_edges)
    for k in range(standin_game.num_populations):
        offset = 0
        for i, group in enumerate(standin_game.paths.paths):
            for p, path in enumerate(group):
                for j in path:
                    expected[j] += standin_game.masses[k, i] * x[k, offset + p]
            offset += len(group)
    np.testing.assert_allclose(edge_flows(standin_game, x), expected, rtol=1e-12)


def test_edge_flows_linear_in_allocation_and_mass(standin_game):
    rng = np.random.default_rng(2)
    x = random_allocation(rng, standin_game)
    y = random_allocation(rng, standin_game)
    lam = 0.3
    mix = lam * x + (1 - lam) * y
    np.testing.assert_allclose(
        edge_flows(standin_game, mix),
        lam * edge_flows(standin_game, x) + (1 - lam) * edge_flows(standin_game, y),
        rtol=1e-12,
    )
    doubled = build_game(
        standin_game.network,
        standin_game.costs,
        2.0 * standin_game.masses,
        mass_bound=2.0 * standin_game.mass_bound,
    )
    np.testing.assert_allclose(
        edge_flows(doubled, x), 2.0 * edge_flows(standin_game, x), rtol=1e-12
    )


def test_path_losses_pigou(pigou_game):
    np.testing.assert_allclose(path_losses(pigou_game, np.array([1.0, 0.0])), [1.0, 1.0])


def test_path_losses_zero_flow_gives_intercepts(standin_game):
    phi = np.zeros(standin_game.network.num_edges)
    losses = path_losses(standin_game, phi)
    expected = []
    for group in standin_game.paths.paths:
        for path in group:
            expected.append(sum(standin_game.costs[j, 1] for j in path))
    np.testing.assert_allclose(losses, expected, rtol=1e-12)


def test_path_losses_match_per_path_summation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        game = random_game(rng)
        phi = rng.uniform(0, 3, size=game.network.num_edges)
        losses = path_losses(game, phi)
        expected = []
        for group in game.paths.paths:
            for path in group:
                expected.append(sum(game.costs[j, 0] * phi[j] + game.costs[j, 1] for j in path))
        np.testing.assert_allclose(losses, expected, rtol=1e-12)


def test_potential_pigou_analytic(pigou_game):
    for x, value in (([[1.0, 0.0]], 0.5), ([[0.0, 1.0]], 1.0)):
        phi = edge_flows(pigou_game, np.array(x))
        assert potential_from_flows(pigou_game, phi) == pytest.approx(value)


def test_potential_zero_mass():
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[1, 0], [2, 1]], [[0.0]])
    for x in ([[1.0, 0.0]], [[0.3, 0.7]]):
        assert potential_from_flows(game, edge_flows(game, np.array(x))) == 0.0


def central_difference_gradient(game, x, h=1e-5):
    grad = np.zeros_like(x)
    for k in range(x.shape[0]):
        for p in range(x.shape[1]):
            up = x.copy()
            down = x.copy()
            up[k, p] += h
            down[k, p] -= h
            f_up, f_down = (potential_from_flows(game, edge_flows(game, z)) for z in (up, down))
            grad[k, p] = (f_up - f_down) / (2 * h)
    return grad


def test_gradient_pigou(pigou_game):
    np.testing.assert_allclose(
        potential_gradient(pigou_game, np.array([[1.0, 0.0]])), [[1.0, 1.0]]
    )


def test_gradient_zero_mass_population(standin_game):
    game = build_game(
        standin_game.network,
        standin_game.costs,
        np.array([[1.0, 0.5], [0.0, 0.0]]),
    )
    x = uniform_allocation(game)
    grad = potential_gradient(game, x)
    assert np.all(grad[1] == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(25):
        game = random_game(rng)
        x = random_allocation(rng, game)
        grad = potential_gradient(game, x)
        fd = central_difference_gradient(game, x)
        denom = max(float(np.linalg.norm(grad)), 1e-12)
        assert np.linalg.norm(fd - grad) / denom < 1e-6


def test_nash_gap_pigou(pigou_game):
    assert nash_gap(pigou_game, np.array([[1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    assert nash_gap(pigou_game, np.array([[0.0, 1.0]])) == pytest.approx(1.0)


def test_nash_gap_indifference_is_zero():
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[0.0, 2.0], [0.0, 2.0]], [[1.3]])
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = random_allocation(rng, game)
        assert nash_gap(game, x) == pytest.approx(0.0, abs=1e-12)


def test_nash_gap_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        game = random_game(rng)
        assert nash_gap(game, random_allocation(rng, game)) >= 0.0


def test_potential_convex_along_segments():
    rng = np.random.default_rng(8)
    for _ in range(50):
        game = random_game(rng)
        x = random_allocation(rng, game)
        y = random_allocation(rng, game)
        f_x, f_mid, f_y = (
            potential_from_flows(game, edge_flows(game, z)) for z in (x, 0.5 * (x + y), y)
        )
        assert f_mid <= 0.5 * (f_x + f_y) + 1e-12


def test_solve_equilibrium_pigou(pigou_game):
    eq = solve_equilibrium(pigou_game, tol=1e-6)
    assert eq.potential == pytest.approx(0.5, abs=1e-6)
    assert eq.gap <= 1e-6
    assert eq.allocation[0, 0] == pytest.approx(1.0, abs=2e-3)


def test_solve_equilibrium_symmetric_split():
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[1.0, 0.0], [1.0, 0.0]], [[1.0]])
    eq = solve_equilibrium(game, tol=1e-10)
    np.testing.assert_allclose(eq.allocation, [[0.5, 0.5]], atol=1e-6)
    assert nash_gap(game, eq.allocation) <= 1e-10


def test_solve_equilibrium_standin_certificate(standin_game):
    eq = solve_equilibrium(standin_game, tol=1e-6)
    assert eq.gap <= 1e-6
    assert nash_gap(standin_game, eq.allocation) <= 1e-6


def test_solve_equilibrium_budget_error(pigou_game, monkeypatch):
    # The cap is read at each call.
    monkeypatch.setattr(game_module, "MAX_ITERATIONS", 5)
    with pytest.raises(EquilibriumError, match="^no equilibrium within 5 iterations"):
        solve_equilibrium(pigou_game, tol=1e-10)


@pytest.mark.parametrize("mass", [np.nan, np.inf])
def test_build_game_rejects_non_finite_masses(pigou_game, mass):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        build_game(pigou_game.network, pigou_game.costs, [[mass]])


def test_solve_equilibrium_stops_at_a_nan_gap(pigou_game):
    # Flows of 1e300 on slopes of 1e300 overflow to inf, so the first gap is inf - inf.
    game = build_game(pigou_game.network, [[1e300, 0.0]] * 2, [[1e300]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        EquilibriumError, match="NaN at iteration 0"
    ):
        solve_equilibrium(game)


def test_solve_equilibrium_stops_at_a_non_finite_step_test(pigou_game):
    # Both losses are finite, so the first gap is inf, not NaN; the mass-weighted
    # loss 1e5 * 5e304 overflows, so the step drives a log-weight to -inf.
    game = build_game(pigou_game.network, [[1e300, 0.0], [0.0, 1.0]], [[1e5]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        EquilibriumError, match="^the step test is not finite at iteration 0$"
    ):
        solve_equilibrium(game)


def test_solve_equilibrium_stops_when_the_step_underflows(pigou_game, monkeypatch):
    # Every candidate's flows sit one unit off the first ones, so its curvature
    # stays at 0.5 while the KL term shrinks with eta: no step is ever accepted.
    calls = []

    def shifted_after_the_first_call(game, x):
        calls.append(x)
        return edge_flows(game, x) + (len(calls) > 1)

    monkeypatch.setattr(game_module, "edge_flows", shifted_after_the_first_call)
    monkeypatch.setattr(game_module, "MAX_ITERATIONS", 5)
    with pytest.raises(EquilibriumError, match="^the step size underflowed at iteration 0$"):
        solve_equilibrium(pigou_game)


def test_solve_equilibrium_with_constant_costs(pigou_game):
    # Zero slope: the curvature is 0, every step is accepted and eta doubles each time.
    game = build_game(pigou_game.network, [[0.0, 2.0], [0.0, 1.0]], [[1.0]])
    eq = solve_equilibrium(game)
    assert eq.gap <= 1e-8 and nash_gap(game, eq.allocation) <= 1e-8
    assert eq.iterations <= 10
    assert eq.allocation[0, 1] == pytest.approx(1.0, abs=1e-8)
    assert eq.potential == pytest.approx(1.0, abs=1e-8)


def test_solve_equilibrium_zero_mass_returns_at_iteration_0(standin_game):
    game = build_game(standin_game.network, standin_game.costs, np.zeros_like(standin_game.masses))
    eq = solve_equilibrium(game)
    assert (eq.iterations, eq.gap, eq.potential) == (0, 0.0, 0.0)
    np.testing.assert_array_equal(eq.allocation, uniform_allocation(game))


# Both solvers stop at a gap of at most tol, which bounds each one's suboptimality.
@pytest.mark.parametrize("name, tol", [("pigou_game", 1e-6), ("standin_game", 1e-8)])
def test_equilibrium_matches_fixed_step_oracle(name, tol, request):
    game = request.getfixturevalue(name)
    assert abs(solve_equilibrium(game, tol=tol).potential - fixed_step_potential(game, tol)) <= tol


def test_equilibrium_matches_fixed_step_oracle_on_random_games():
    rng = np.random.default_rng(2)
    for _ in range(10):
        game = random_game(rng)
        eq = solve_equilibrium(game, tol=1e-8)
        assert abs(eq.potential - fixed_step_potential(game, 1e-8)) <= 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_equilibrium_at_1e_8_within_a_second(seed, monkeypatch):
    # The benchmark's grid game: the fixed 1 / smoothness step took 184,440
    # iterations at 1e-8 on seed 1.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    game = build_game_from_config(importlib.import_module("grid").make_config(seed))
    start = time.perf_counter()
    eq = solve_equilibrium(game, tol=1e-8)
    assert time.perf_counter() - start < 1.0
    assert nash_gap(game, eq.allocation) <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", ["slope", "intercept"])
def test_affine_cost_rejects_non_finite_coefficients(pigou_game, bad, slot):
    costs = pigou_game.costs.copy()
    costs[1, ["slope", "intercept"].index(slot)] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        build_game(pigou_game.network, costs, [[1.0]])


@pytest.mark.parametrize(
    "costs, match",
    [
        ([[1.0, 0.0], [-1.0, 1.0]], "coefficients must be nonnegative"),
        ([[1.0, 0.0], [0.0, -0.5]], "coefficients must be nonnegative"),
        ([[1.0, 0.0]], r"expected 2 edge costs .* shape \(1, 2\)"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], r"expected 2 edge costs .* shape \(2, 3\)"),
        ([1.0, 0.0], r"expected 2 edge costs .* shape \(2,\)"),
    ],
    ids=["negative-slope", "negative-intercept", "missing-row", "3-wide-rows", "flat"],
)
def test_build_game_rejects_malformed_costs(pigou_game, costs, match):
    with pytest.raises(ValueError, match=match):
        build_game(pigou_game.network, costs, [[1.0]])


@pytest.mark.parametrize(
    "costs, masses, match",
    [
        ([[1.0, 0.0], [0.0, 1.0, 2.0]], [[1.0]], r"costs must be 2 \[slope, intercept\] rows"),
        ([[1.0, 0.0], ["a", 1.0]], [[1.0]], r"costs must be 2 \[slope, intercept\] rows"),
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0], [1.0, 2.0]], "masses must be a populations x od_pairs"),
    ],
    ids=["ragged-costs", "string-cost", "ragged-masses"],
)
def test_build_game_names_ragged_or_non_numeric_inputs(pigou_game, costs, masses, match):
    with pytest.raises(ValueError, match=match + ".* of numbers, got a ragged or non-numeric"):
        build_game(pigou_game.network, costs, masses)


def test_mass_bound_is_a_true_upper_bound(pigou_game):
    with pytest.raises(ValueError, match="exceeds the declared bound 1.0"):
        build_game(pigou_game.network, pigou_game.costs, [[1.0 + 5e-13]], mass_bound=1.0)
    exact = build_game(pigou_game.network, pigou_game.costs, [[1.0]], mass_bound=1.0)
    assert exact.mass_bound == 1.0


def test_build_game_stores_cost_rows_read_only(pigou_game):
    # The stored (E, 2) rows build the same game again, also where E = 2.
    np.testing.assert_array_equal(pigou_game.costs, [[1.0, 0.0], [0.0, 1.0]])
    assert not pigou_game.costs.flags.writeable
    again = build_game(pigou_game.network, pigou_game.costs, pigou_game.masses)
    np.testing.assert_array_equal(again.costs, pigou_game.costs)
    phi = edge_flows(again, np.array([[1.0, 0.0]]))
    assert potential_from_flows(again, phi) == pytest.approx(0.5)


def test_equilibrium_beats_every_vertex(standin_game):
    eq = solve_equilibrium(standin_game, tol=1e-8)
    losses = path_losses(standin_game, edge_flows(standin_game, eq.allocation))
    slices = block_slices(standin_game.block_sizes)
    sizes = standin_game.block_sizes
    weights = standin_game.path_weights()
    for k in range(standin_game.num_populations):
        current = np.sum(weights[k] * eq.allocation[k] * losses)
        for choice in itertools.product(*(range(n) for n in sizes)):
            vertex = np.zeros(standin_game.total_paths)
            for s, p in zip(slices, choice):
                vertex[s.start + p] = 1.0
            value = np.sum(weights[k] * vertex * losses)
            assert current <= value + 1e-8


def test_gradient_smoothness_pigou(pigou_game):
    assert gradient_smoothness(pigou_game) == pytest.approx(1.0)


def test_path_weights_is_one_read_only_array(standin_game):
    weights = standin_game.path_weights()
    assert weights is standin_game.path_weights() and not weights.flags.writeable
    expected = np.repeat(standin_game.masses, standin_game.block_sizes, axis=1)
    assert weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g, x, phi, losses: potential_from_flows(g, [1.0]),
         "edge flows must have shape (8,), got (1,)"),
        (lambda g, x, phi, losses: gap_from_losses(g, x[:1], losses),
         "allocation must have shape (2, 5), got (1, 5)"),
        (lambda g, x, phi, losses: gap_from_losses(g, x, np.append(losses, 1.0)),
         "path losses must have shape (5,), got (6,)"),
        (lambda g, x, phi, losses: edge_flows(g, np.stack([x] * 3, axis=-1)),
         "allocation must have shape (2, 5), got (2, 5, 3)"),
        (lambda g, x, phi, losses: path_losses(g, np.stack([phi] * 2, axis=-1)),
         "edge flows must have shape (8,), got (8, 2)"),
    ],
    ids=["potential-one-flow", "gap-one-population", "gap-extra-loss", "flows-3d-allocation",
         "losses-batched-flows"],
)
def test_public_helpers_refuse_any_other_shape(standin_game, call, message):
    # two_od: 8 edges, 2 populations, 5 paths.  Only the kernels take batch axes.
    x = uniform_allocation(standin_game)
    phi = edge_flows(standin_game, x)
    losses = path_losses(standin_game, phi)
    with pytest.raises(ValueError) as info:
        call(standin_game, x, phi, losses)
    assert str(info.value) == message


def test_potential_and_gap_are_floats(standin_game):
    x = uniform_allocation(standin_game)
    phi = edge_flows(standin_game, x)
    assert type(potential_from_flows(standin_game, phi)) is float
    assert type(gap_from_losses(standin_game, x, path_losses(standin_game, phi))) is float


@pytest.mark.parametrize("populations", [1, 2, 3])
@pytest.mark.parametrize("batch", [(3, 150), (1, 1), (7,), ()], ids=str)
def test_kernels_equal_the_generic_reductions(populations, batch):
    # The forms the kernels replaced: a sum over populations, a reduceat block
    # minimum.  Each must give the same bytes at the engine's shapes and unbatched.
    rng = np.random.default_rng(len(batch) + populations)
    net = build_network({
        "nodes": ["s", "a", "b", "t"],
        "edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"], ["s", "t"]],
        "od_pairs": [["s", "t"], ["a", "t"]],
    })
    game = build_game(net, rng.uniform(0.0, 1.0, (5, 2)), rng.uniform(0.0, 1.5, (populations, 2)))
    lead = (slice(None),) * 2 + (None,) * len(batch)
    weights, masses = game.path_weights()[lead], game.masses[lead]
    slope, intercept = game.costs.T[lead]
    blocks = block_slices(game.block_sizes)
    x = np.concatenate([rng.dirichlet(np.ones(n), (populations,) + batch)
                        for n in game.block_sizes], axis=-1)
    x = np.moveaxis(x, -1, 1)
    for w, m in ((weights, masses), tuple(np.broadcast_to(a, a.shape[:2] + batch).copy()
                                          for a in (weights, masses))):
        summed = (w * x).sum(axis=0)
        phi = game.paths.incidence @ summed.reshape(len(summed), -1)
        assert game_module._edge_flows(game.paths.incidence, w * x).tobytes() == phi.tobytes()
        phi = phi.reshape((-1,) + batch)
        losses = game_module._path_losses(game.paths.incidence.T, slope, intercept, phi)
        block_min = np.minimum.reduceat(losses, [s.start for s in blocks], axis=0)
        current = (w * x * losses).sum(axis=(0, 1))
        gap = np.maximum(current - (m * block_min).sum(axis=(0, 1)), 0.0)
        assert game_module._gap(w * x, losses, blocks, m).tobytes() == gap.tobytes()
    if batch == ():  # the public helpers take one allocation
        assert edge_flows(game, x).tobytes() == phi.tobytes()
        assert np.asarray(gap_from_losses(game, x, losses)).tobytes() == gap.tobytes()
