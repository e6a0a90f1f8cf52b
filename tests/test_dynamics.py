from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from privroute.dynamics import (
    BregmanGeometry,
    LearningSchedule,
    dual_norm,
    project_simplex,
    reference_norm,
    suboptimality_bound,
)
from privroute.game import (
    edge_flows,
    path_losses,
    potential_from_flows,
    uniform_allocation,
)
from privroute.network import block_slices

from conftest import gradient_smoothness, random_allocation, random_game


def random_point(rng, sizes, strict=True):
    blocks = []
    for n in sizes:
        b = rng.dirichlet(np.ones(n))
        if strict:
            b = (b + 1e-6) / (1.0 + n * 1e-6)
        blocks.append(b)
    return np.concatenate(blocks)


# ---------------------------------------------------------------- divergences


def test_divergence_identity():
    rng = np.random.default_rng(0)
    for kind in ("entropic", "euclidean"):
        geom = BregmanGeometry(kind, (3, 2))
        x = random_point(rng, geom.block_sizes)
        assert geom.divergence(x, x) == pytest.approx(0.0, abs=1e-12)


def test_divergence_entropic_kl_value():
    geom = BregmanGeometry("entropic", (2,))
    value = geom.divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert value == pytest.approx(math.log(2), rel=1e-12)


def test_divergence_euclidean_value():
    geom = BregmanGeometry("euclidean", (2,))
    value = geom.divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert value == pytest.approx(1.0, rel=1e-12)


def test_divergence_entropic_rejects_zero_reference():
    geom = BregmanGeometry("entropic", (2,))
    with pytest.raises(ValueError, match="positive"):
        geom.divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_divergence_strong_convexity():
    rng = np.random.default_rng(1)
    for kind in ("entropic", "euclidean"):
        for sizes in [(2,), (3, 2), (2, 4, 3)]:
            geom = BregmanGeometry(kind, sizes)
            for _ in range(200):
                x = random_point(rng, sizes)
                y = random_point(rng, sizes)
                dist = reference_norm(x - y, sizes)
                assert geom.divergence(x, y) >= 0.5 * geom.strong_convexity * dist**2 - 1e-12


def test_divergence_bound_is_attained_at_a_vertex():
    # From the uniform start each block's divergence peaks at a vertex, and the blocks add up.
    rng = np.random.default_rng(2)
    sizes = (2, 4, 3)
    uniform = np.concatenate([np.full(n, 1.0 / n) for n in sizes])
    vertex = np.concatenate([np.eye(n)[0] for n in sizes])
    for kind in ("entropic", "euclidean"):
        geom = BregmanGeometry(kind, sizes)
        bound = geom.divergence_bound()
        assert geom.divergence(vertex, uniform) == pytest.approx(bound, rel=1e-12)
        for _ in range(200):
            assert geom.divergence(random_point(rng, sizes, strict=False), uniform) <= bound + 1e-12
    assert BregmanGeometry("euclidean", sizes).divergence_bound() == pytest.approx(
        0.5 * (1 / 2 + 3 / 4 + 2 / 3), rel=1e-12)


def test_norm_duality_on_samples():
    rng = np.random.default_rng(2)
    sizes = (3, 2)
    for _ in range(200):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        assert abs(np.dot(x, y)) <= reference_norm(x, sizes) * dual_norm(y, sizes) + 1e-12


# ---------------------------------------------------------------- prox steps


def numerical_prox_oracle(geom, x, loss, eta):
    """Generic constrained argmin of <loss, z> + divergence(z, x) / eta."""
    sizes = geom.block_sizes
    start = random_point(np.random.default_rng(99), sizes)

    def objective(z):
        z = np.maximum(z, 1e-12)
        blocks = []
        offset = 0
        for n in sizes:
            b = z[offset : offset + n]
            blocks.append(b / b.sum())
            offset += n
        z = np.concatenate(blocks)
        return float(np.dot(loss, z) + geom.divergence(z, x) / eta)

    out = minimize(objective, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    z = np.maximum(out.x, 1e-12)
    blocks = []
    offset = 0
    for n in sizes:
        b = z[offset : offset + n]
        blocks.append(b / b.sum())
        offset += n
    return np.concatenate(blocks)


def test_entropic_prox_closed_form_value():
    geom = BregmanGeometry("entropic", (2,))
    x = np.array([0.5, 0.5])
    loss = np.array([math.log(2), 0.0])
    out = geom.prox(x, loss, 1.0)
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    oracle = numerical_prox_oracle(geom, x, loss, 1.0)
    np.testing.assert_allclose(out, oracle, atol=1e-5)


def test_prox_constant_loss_is_identity():
    rng = np.random.default_rng(3)
    geom = BregmanGeometry("entropic", (3, 2))
    x = random_point(rng, geom.block_sizes)
    loss = np.concatenate([np.full(3, 1.7), np.full(2, -0.4)])
    np.testing.assert_allclose(geom.prox(x, loss, 0.8), x, atol=1e-13)


def test_prox_small_step_continuity():
    rng = np.random.default_rng(4)
    for kind in ("entropic", "euclidean"):
        geom = BregmanGeometry(kind, (3, 2))
        x = random_point(rng, geom.block_sizes)
        loss = rng.normal(size=5)
        out = geom.prox(x, loss, 1e-12)
        assert np.max(np.abs(out - x)) < 1e-8


def test_prox_rejects_bad_inputs():
    geom = BregmanGeometry("entropic", (2,))
    with pytest.raises(ValueError, match="non-finite"):
        geom.prox(np.array([0.5, 0.5]), np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError, match="positive iterate"):
        geom.prox(np.array([1.0, 0.0]), np.array([0.1, 0.2]), 1.0)


def test_prox_handles_extreme_losses():
    geom = BregmanGeometry("entropic", (3,))
    x = np.array([0.2, 0.3, 0.5])
    out = geom.prox(x, np.array([2000.0, -2000.0, 0.0]), 1.0)
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_prox_output_beats_random_feasible_points():
    rng = np.random.default_rng(5)
    sizes = (3, 2)
    for kind in ("entropic", "euclidean"):
        geom = BregmanGeometry(kind, sizes)
        x = random_point(rng, sizes)
        loss = rng.normal(scale=2.0, size=5)
        eta = 0.7
        out = geom.prox(x, loss, eta)

        def objective(z):
            return float(np.dot(loss, z) + geom.divergence(z, x) / eta)

        best = objective(out)
        for _ in range(1000):
            z = random_point(rng, sizes)
            assert best <= objective(z) + 1e-10


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(1e-3, 10.0),
)
def test_prox_stays_on_simplex(raw_loss, eta):
    n = len(raw_loss)
    for kind in ("entropic", "euclidean"):
        geom = BregmanGeometry(kind, (n,))
        x = np.full(n, 1.0 / n)
        out = geom.prox(x, np.array(raw_loss), eta)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_simplex_kkt():
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = rng.normal(scale=3.0, size=rng.integers(2, 7))
        z = project_simplex(v)
        assert z.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(z >= 0)
        # KKT: v - tau on the support, <= tau off it.
        support = z > 1e-12
        tau = (v[support] - z[support]).mean()
        np.testing.assert_allclose(v[support] - z[support], tau, atol=1e-9)
        assert np.all(v[~support] <= tau + 1e-9)


# ------------------------------------------------ one mirror-descent step


def test_smd_update_zero_mass_blocks_are_frozen():
    geom = BregmanGeometry("entropic", (2, 2))
    x = np.array([0.3, 0.7, 0.6, 0.4])
    loss = np.repeat([0.0, 1.0], geom.block_sizes) * np.array([5.0, -1.0, 0.5, 0.25])
    out = geom.prox(x, loss, 1.0)
    np.testing.assert_allclose(out[:2], x[:2], atol=1e-13)
    assert not np.allclose(out[2:], x[2:])


def test_joint_update_matches_first_order_conditions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        game = random_game(rng)
        sizes = game.block_sizes
        x = random_allocation(rng, game)
        losses = path_losses(game, edge_flows(game, x))
        geoms = [BregmanGeometry("entropic", sizes) for _ in range(game.num_populations)]
        scheds = [LearningSchedule(float(rng.uniform(0.2, 1.5)), 0.5)] * game.num_populations
        for k in range(game.num_populations):
            eta = scheds[k].rate(3)
            weights = np.repeat(game.masses[k], sizes)
            new = geoms[k].prox(x[k], weights * losses, eta)
            v = weights * losses + (np.log(new) - np.log(x[k])) / eta
            for s in block_slices(game.block_sizes):
                resid = v[s] - v[s].mean()
                assert np.max(np.abs(resid)) < 1e-8


def test_euclidean_update_matches_projection_kkt():
    rng = np.random.default_rng(8)
    geom = BregmanGeometry("euclidean", (4,))
    x = np.array([0.4, 0.3, 0.2, 0.1])
    loss = rng.normal(scale=2.0, size=4)
    new = geom.prox(x, 1.3 * loss, 0.9)
    v = 1.3 * loss + (new - x) / 0.9
    support = new > 1e-12
    mu = v[support].mean()
    np.testing.assert_allclose(v[support], mu, atol=1e-9)
    assert np.all(v[~support] >= mu - 1e-9)


def test_deterministic_small_step_descends_potential():
    rng = np.random.default_rng(9)
    for _ in range(10):
        game = random_game(rng)
        smooth = gradient_smoothness(game)
        eta = 0.5 / smooth if smooth > 0 else 0.5
        geoms = [BregmanGeometry("entropic", game.block_sizes)] * game.num_populations
        weights = game.path_weights()
        x = uniform_allocation(game)
        previous = potential_from_flows(game, edge_flows(game, x))
        for _ in range(50):
            losses = path_losses(game, edge_flows(game, x))
            for k in range(game.num_populations):
                x[k] = geoms[k].prox(x[k], weights[k] * losses, eta)
            current = potential_from_flows(game, edge_flows(game, x))
            assert current <= previous + 1e-10
            previous = current


# ------------------------------------------------------- suboptimality bound


def test_bound_single_population_value():
    geom = BregmanGeometry("entropic", (2,))
    sched = LearningSchedule(1.0, 0.5)
    value = suboptimality_bound([geom], [sched], 1.0, 1)
    assert value == pytest.approx(2.0 * (math.log(2) + 1.0), abs=1e-12)


def test_bound_degenerate_zero():
    geom = BregmanGeometry("entropic", (1,))  # single path: zero divergence bound
    sched = LearningSchedule(1.0, 0.5)
    assert suboptimality_bound([geom], [sched], 0.0, 17) == 0.0


def test_bound_decay_rate():
    geoms = [BregmanGeometry("entropic", (3, 2))] * 2
    scheds = [LearningSchedule(1.0, 0.5), LearningSchedule(1.0, 0.2)]

    def normalized(t):
        return suboptimality_bound(geoms, scheds, 1.0, t) * t**0.2 / math.log(t)

    assert normalized(10_000) <= normalized(1_000) * 1.05
    assert normalized(10_000) <= normalized(100) * 1.05


def test_bound_rejects_bad_decay():
    # The bound needs a decay strictly inside (0, 1); a schedule outside it is never built.
    for decay in (0.0, -0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="decay"):
            LearningSchedule(1.0, decay)


def test_schedule_values_and_validation():
    sched = LearningSchedule(2.0, 0.5)
    assert sched.rate(0) == pytest.approx(2.0)
    assert sched.rate(3) == pytest.approx(1.0)
    rates = [sched.rate(t) for t in range(20)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError):
        LearningSchedule(0.0, 0.5)
    with pytest.raises(ValueError):
        LearningSchedule(1.0, 1.0)
