from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from privroute import privacy
from privroute.dynamics import (
    BregmanGeometry,
    LearningSchedule,
    dual_norm,
    reference_norm,
)
from privroute.game import build_game, edge_flows, loss_sup_bound, path_losses
from privroute.privacy import (
    SensitivityConstants,
    allocation_shift_bound,
    compose_adaptive,
    privacy_curve,
    privacy_report,
    spectral_norm,
    tail_delta,
)

from privroute.config import (
    build_dynamics_from_config,
    build_game_from_config,
    load_config,
    privacy_pairs,
)
from privroute.network import block_slices, build_network

from conftest import CONFIG_DIR, random_allocation, random_game


# ------------------------------------------------------------- constants


def constants(game) -> SensitivityConstants:
    """``from_game`` with a placeholder schedule, for the game-derived constants."""
    return SensitivityConstants.from_game(game, (LearningSchedule(1.0, 0.5),))


def incidence_blocks(game) -> list[np.ndarray]:
    return [game.paths.incidence[:, s] for s in block_slices(game.block_sizes)]


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_norm_matches_eigen_oracle():
    # Two paths sharing an edge plus one private edge each.
    m = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = math.sqrt(max(np.linalg.eigvalsh(m.T @ m)))
    assert oracle == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert spectral_norm(m) == pytest.approx(oracle, rel=1e-9)


def test_spectral_norm_random_matrices_match_svd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.uniform(0, 1, size=(rng.integers(2, 8), rng.integers(1, 6)))
        if not m.any():
            continue
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-8)


def exceeds_spectrum(gram, bound: Fraction) -> bool:
    """Whether ``bound * I - gram`` is positive definite, in exact arithmetic.

    Gaussian elimination without pivoting keeps every pivot positive exactly
    for a positive definite matrix (integer ``gram``).
    """
    n = len(gram)
    a = [[(bound if i == j else 0) - Fraction(int(gram[i][j])) for j in range(n)] for i in range(n)]
    for i in range(n):
        if a[i][i] <= 0:
            return False
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return True


def test_spectral_norm_is_an_upper_bound(standin_game):
    # Both two_od blocks (exact norms 2.66815042220747... and 2) and eye(2).
    for m in (*incidence_blocks(standin_game), np.eye(2)):
        gram = (m.T @ m).round().astype(int).tolist()
        assert exceeds_spectrum(gram, Fraction(spectral_norm(m)) ** 2)


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError, match="all-zero"):
        spectral_norm(np.zeros((3, 2)))


def test_incidence_gain_pigou(pigou_game):
    assert constants(pigou_game).incidence_gain == pytest.approx(1.0, rel=1e-9)


def test_incidence_gain_is_max_over_blocks(standin_game):
    oracle = max(np.linalg.norm(m, 2) for m in incidence_blocks(standin_game))
    gain = constants(standin_game).incidence_gain
    assert gain == pytest.approx(oracle, rel=1e-8)
    # Duplicating an OD pair leaves the max unchanged.
    spec = {
        "nodes": list(standin_game.network.nodes),
        "edges": [list(e) for e in standin_game.network.edges],
        "od_pairs": [["v0", "v6"], ["v1", "v5"], ["v0", "v6"]],
    }
    doubled = build_game(build_network(spec), standin_game.costs, [[1.0, 1.0, 1.0]])
    assert constants(doubled).incidence_gain == pytest.approx(gain, rel=1e-9)


def test_allocation_supremum(pigou_game, standin_game):
    assert constants(pigou_game).allocation_norm_bound == 1.0
    assert constants(standin_game).allocation_norm_bound == 2.0


def test_constants_take_one_norm_per_block(monkeypatch, standin_game, standin_dynamics):
    calls = []

    def counting(matrix):
        calls.append(np.shape(matrix))
        return spectral_norm(matrix)

    monkeypatch.setattr(privacy, "spectral_norm", counting)
    SensitivityConstants.from_game(standin_game, standin_dynamics[1])
    assert calls == [(8, 3), (8, 2)]  # one norm per OD block


def test_loss_lipschitz_pigou(pigou_game):
    assert constants(pigou_game).loss_lipschitz == pytest.approx(1.0, rel=1e-9)
    rng = np.random.default_rng(1)
    bound = constants(pigou_game).loss_lipschitz
    from privroute.game import path_losses

    for _ in range(200):
        phi_a = rng.uniform(0, 2, size=2)
        phi_b = rng.uniform(0, 2, size=2)
        num = reference_norm(
            path_losses(pigou_game, phi_a) - path_losses(pigou_game, phi_b),
            pigou_game.block_sizes,
        )
        den = np.linalg.norm(phi_a - phi_b)
        assert num <= bound * den + 1e-12


def test_loss_lipschitz_constant_costs():
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[0.0, 1.0], [0.0, 2.0]], [[1.0]])
    assert constants(game).loss_lipschitz == 0.0


def test_loss_lipschitz_monte_carlo_ratios():
    rng = np.random.default_rng(2)
    from privroute.game import path_losses

    for _ in range(10):
        game = random_game(rng)
        bound = constants(game).loss_lipschitz
        for _ in range(1000):
            phi_a = rng.uniform(0, 3, size=game.network.num_edges)
            phi_b = rng.uniform(0, 3, size=game.network.num_edges)
            num = reference_norm(
                path_losses(game, phi_a) - path_losses(game, phi_b), game.block_sizes
            )
            den = float(np.linalg.norm(phi_a - phi_b))
            if den > 1e-12:
                assert num <= bound * den + 1e-10


def test_loss_sup_bound_cases(pigou_game, standin_game):
    assert loss_sup_bound(pigou_game) == pytest.approx(1.0)
    # Documented bound of the bundled two-OD example.
    assert loss_sup_bound(standin_game) == pytest.approx(1.948, rel=1e-9)
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    zero_mass = build_game(net, [[1.0, 0.3], [2.0, 0.7]], [[0.0]])
    assert loss_sup_bound(zero_mass) == pytest.approx(0.7)


def test_loss_sup_dominates_realized_losses(standin_game):
    rng = np.random.default_rng(3)
    bound = loss_sup_bound(standin_game)
    from privroute.game import path_losses

    for _ in range(500):
        x = random_allocation(rng, standin_game)
        losses = path_losses(standin_game, edge_flows(standin_game, x))
        assert np.max(losses) <= bound + 1e-12


def simplex_vertices(game):
    """Every allocation that puts each population's mass of each OD pair on one path."""
    starts = [s.start for s in block_slices(game.block_sizes)]
    picks = [range(n) for _ in range(game.num_populations) for n in game.block_sizes]
    for pick in itertools.product(*picks):
        x = np.zeros((game.num_populations, game.total_paths))
        for i, path in enumerate(pick):
            k, block = divmod(i, len(starts))
            x[k, starts[block] + path] = 1.0
        yield x


@pytest.mark.parametrize("name", ["pigou", "two_od"])
@pytest.mark.parametrize("clip", [None, 0.1, 1.0, 10.0])
def test_observed_losses_stay_within_the_clipped_loss_bound(name, clip):
    # Every released loss l(x) + n whose noise coordinates stay within a has a
    # dual norm of at most clipped_loss_bound(a).  On pigou the vertices with
    # noise +a everywhere reach the bound to the last bit, so a halved a fails.
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    clip = float(cfg["privacy"]["a"]) if clip is None else clip  # None: the config's a
    bound = consts.clipped_loss_bound(clip)
    rng = np.random.default_rng(18)
    allocations = [*simplex_vertices(game), *(random_allocation(rng, game) for _ in range(40))]
    corners = np.array(list(itertools.product([-clip, clip], repeat=game.total_paths)))
    for x in allocations:
        losses = path_losses(game, edge_flows(game, x))
        for noise in corners:
            observed = dual_norm(losses + noise, game.block_sizes)
            assert observed <= bound, (x.tolist(), noise.tolist(), observed, bound)


# ------------------------------------------------- prox displacement bound


def test_allocation_shift_bound_values():
    assert allocation_shift_bound(0.5, 2.0, 1.0, 0.0) == 0.0
    assert allocation_shift_bound(0.1, 2.0, 1.0, 0.05) == pytest.approx(0.01, rel=1e-12)


def prox_displacement_trial(rng, kind):
    n_blocks = int(rng.integers(1, 4))
    sizes = tuple(int(rng.integers(2, 5)) for _ in range(n_blocks))
    geom = BregmanGeometry(kind, sizes)
    dim = sum(sizes)
    blocks = [rng.dirichlet(np.ones(n)) + 1e-6 for n in sizes]
    x = np.concatenate([b / b.sum() for b in blocks])
    loss = rng.normal(scale=2.0, size=dim)
    eta = float(rng.uniform(0.01, 2.0))
    theta_a = rng.uniform(0.0, 2.0, size=n_blocks)
    theta_b = rng.uniform(0.0, 2.0, size=n_blocks)
    out_a = geom.prox(x, np.repeat(theta_a, sizes) * loss, eta)
    out_b = geom.prox(x, np.repeat(theta_b, sizes) * loss, eta)
    moved = reference_norm(out_a - out_b, sizes)
    bound = allocation_shift_bound(
        eta,
        dual_norm(loss, sizes),
        geom.strong_convexity,
        float(np.max(np.abs(theta_a - theta_b))),
    )
    return moved, bound


@pytest.mark.parametrize("kind", ["entropic", "euclidean"])
def test_prox_displacement_never_exceeds_bound(kind):
    rng = np.random.default_rng(4)
    for _ in range(1000):
        moved, bound = prox_displacement_trial(rng, kind)
        assert moved <= bound * (1.0 + 1e-9) + 1e-12


def flow_shift_trial(rng):
    game = random_game(rng)
    sizes = game.block_sizes
    geom = BregmanGeometry("entropic", sizes)
    x = random_allocation(rng, game)
    loss = rng.normal(scale=2.0, size=game.total_paths)
    eta = float(rng.uniform(0.01, 1.5))

    k_star = int(rng.integers(0, game.num_populations))
    radius = float(rng.uniform(0.01, 0.5))
    theta_b = game.masses.copy()
    shift = rng.uniform(-radius, radius, size=game.network.num_od_pairs)
    theta_b[k_star] = np.clip(theta_b[k_star] + shift, 0.0, game.mass_bound)
    actual_radius = float(np.max(np.abs(theta_b[k_star] - game.masses[k_star])))

    game_b = build_game(game.network, game.costs, theta_b, mass_bound=game.mass_bound)
    scaled_a = np.repeat(game.masses, sizes, axis=1) * loss[None, :]
    scaled_b = np.repeat(theta_b, sizes, axis=1) * loss[None, :]
    x_a = np.array([geom.prox(x[k], scaled_a[k], eta) for k in range(game.num_populations)])
    x_b = np.array([geom.prox(x[k], scaled_b[k], eta) for k in range(game.num_populations)])
    moved = float(np.linalg.norm(edge_flows(game, x_a) - edge_flows(game_b, x_b)))

    consts = constants(game)
    bound = actual_radius * consts.incidence_gain * (
        consts.allocation_norm_bound
        + game.mass_bound * eta * dual_norm(loss, sizes) / geom.strong_convexity
    )
    return moved, bound


def test_flow_shift_never_exceeds_bound():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        moved, bound = flow_shift_trial(rng)
        assert moved <= bound * (1.0 + 1e-9) + 1e-12


# ------------------------------------------------------ per-step sensitivity


def demo_constants(**overrides):
    values = dict(
        mass_bound=1.2,
        allocation_norm_bound=2.0,
        incidence_gain=1.0,
        loss_lipschitz=1.0,
        loss_sup=2.0,
        modulus_min=1.0,
        total_paths=4,
        schedules=(LearningSchedule(1.0, 0.5),),
    )
    values.update(overrides)
    return SensitivityConstants(**values)


def release_sensitivity(consts, c, release, loss_dual_bound) -> float:
    """The accountant's sensitivity of the 1-based ``release``, as a float."""
    return float(privacy._sensitivities(consts, c, release, loss_dual_bound))


# Listed here, not read from the declaration, so a bound dropped from it fails.
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "name", ["incidence_gain", "allocation_norm_bound", "mass_bound", "loss_lipschitz", "loss_sup"])
def test_constants_refuse_each_bound_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got {value}$"):
        demo_constants(**{name: value})


def test_step_sensitivity_formula_value():
    consts = demo_constants()
    # Release 2 follows the update at t = 0: eta(0) = 1, dual bound sqrt(4) * (2 + 2) = 8.
    value = release_sensitivity(consts, 1e-6, 2, math.sqrt(4) * (2.0 + 2.0))
    assert value == pytest.approx(1e-6 * (2.0 + 1.2 * 1.0 * 8.0), rel=1e-12)
    assert release_sensitivity(consts, 1e-6, 1, 8.0) == value  # the first release reuses eta(0)


def test_step_sensitivity_zero_radius():
    consts = demo_constants()
    assert release_sensitivity(consts, 0.0, 5, 8.0) == 0.0


def test_step_sensitivity_monotone_with_floor():
    consts, c = demo_constants(), 1e-6
    values = [release_sensitivity(consts, c, r, 8.0) for r in range(2, 202)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)
    floor = c * consts.loss_lipschitz * consts.incidence_gain * 2.0
    assert release_sensitivity(consts, c, 10**12 + 2, 8.0) == pytest.approx(floor, rel=1e-5)


@pytest.mark.parametrize("name", ["two_od", "pigou"])
def test_step_sensitivity_uses_the_tested_shift_bound(name):
    # The accountant's step-size term is allocation_shift_bound, the bound the prox
    # displacement trials check, at the largest rate and the largest mass shift.
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    loss_dual_bound = consts.clipped_loss_bound(privacy.DEFAULT_CLIP)
    releases = np.arange(1, 201)
    t = np.maximum(releases - 2, 0)
    eta_max = np.max([s.rate(t) for s in schedules], axis=0).tolist()
    for c in {c for c, _ in privacy_pairs(cfg)}:
        sensitivities = privacy._sensitivities(consts, c, releases, loss_dual_bound).tolist()
        for release, eta, value in zip(releases.tolist(), eta_max, sensitivities):
            shift = allocation_shift_bound(eta, loss_dual_bound, consts.modulus_min,
                                           consts.mass_bound)
            expected = c * consts.loss_lipschitz * consts.incidence_gain * (
                consts.allocation_norm_bound + shift)
            assert value == expected, (c, release)


# ------------------------------------------------------- gaussian mechanism


def release_epsilon(sensitivity, sigma, delta_step) -> tuple[float, bool]:
    """The accountant's epsilon and validity flag of one release, as Python scalars."""
    epsilon, valid = privacy._epsilons(sensitivity, sigma, delta_step)
    return float(epsilon), bool(valid)


def test_gaussian_epsilon_round_trip():
    delta = 1.25 * math.exp(-2.0)
    eps, valid = release_epsilon(1.0, 5.0746, delta)
    assert eps == pytest.approx(2.0 / 5.0746, rel=1e-12)
    assert valid
    # Re-inverting gives back the noise level.
    b = math.sqrt(2.0 * math.log(1.25 / delta))
    assert b * 1.0 / eps == pytest.approx(5.0746, rel=1e-12)


def test_gaussian_epsilon_edge_cases():
    eps, valid = release_epsilon(0.0, 1.0, 1e-5)
    assert eps == 0.0 and not valid
    eps, valid = release_epsilon(1.0, 1.0, 1.25)
    assert eps == 0.0 and not valid
    eps, valid = release_epsilon(10.0, 0.1, 1e-5)
    assert eps > 1.0 and not valid
    # An epsilon of exactly 1 is outside (0, 1), where the calibration is not known to hold.
    delta = 1e-5
    eps, valid = release_epsilon(1.0, math.sqrt(2.0 * math.log(1.25 / delta)), delta)
    assert (eps, valid) == (1.0, False)


def test_single_step_dp_holds_on_interval_grid():
    """Exact-CDF check of the (eps, delta) guarantee for interval events."""
    sensitivity, sigma = 0.3, 2.0
    eps, valid = release_epsilon(sensitivity, sigma, 1e-4)
    assert valid
    delta = 1e-4
    grid = np.linspace(-10 * sigma, 10 * sigma + sensitivity, 400)
    worst = 0.0
    for mu_a, mu_b in [(0.0, sensitivity), (sensitivity, 0.0)]:
        cdf_a = ndtr((grid - mu_a) / sigma)
        cdf_b = ndtr((grid - mu_b) / sigma)
        for i in range(len(grid)):
            # Right-open tails [g_i, inf) and a spread of finite intervals.
            p_a = 1.0 - cdf_a[i]
            p_b = 1.0 - cdf_b[i]
            worst = max(worst, p_a - math.exp(eps) * p_b)
            for width in (5, 40, 150):
                if i + width < len(grid):
                    p_a = cdf_a[i + width] - cdf_a[i]
                    p_b = cdf_b[i + width] - cdf_b[i]
                    worst = max(worst, p_a - math.exp(eps) * p_b)
    assert worst <= delta


# ----------------------------------------------------------------- tail mass


def test_tail_delta_values():
    assert tail_delta(1.0, 2.0, 1, 1) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert tail_delta(0.1, 2.0, 200, 5) < 1e-80
    assert tail_delta(1.0, 2.0, 0, 5) == 0.0
    with pytest.raises(ValueError, match="too large"):
        tail_delta(10.0, 0.5, 10, 2)


def test_tail_delta_matches_direct_product():
    # Direct evaluation is fine when nothing underflows.
    sigma, clip, steps, paths = 1.0, 2.5, 7, 3
    q = 2.0 * math.exp(-clip**2 / (2 * sigma**2))
    direct = 1.0 - (1.0 - q) ** (steps * paths)
    assert tail_delta(sigma, clip, steps, paths) == pytest.approx(direct, rel=1e-12)


# --------------------------------------------------------------- composition


def test_compose_zero_delta():
    eps, delta = compose_adaptive([0.1, 0.1, 0.1], [0.0, 0.0, 0.0])
    assert eps == pytest.approx(0.3, rel=1e-12)
    assert delta == 0.0


def test_compose_three_step_hand_expansion():
    d0 = 1e-6
    eps, delta = compose_adaptive([0.1, 0.1, 0.1], [d0, d0, d0])
    expected = d0 * (math.exp(0.2) + math.exp(0.1) + 1.0)
    assert eps == pytest.approx(0.3, abs=1e-12)
    assert delta == pytest.approx(expected, abs=1e-12)


def test_compose_single_step_with_tail():
    eps, delta = compose_adaptive([0.2], [1e-5], extra_delta=1e-7)
    assert (eps, delta) == (pytest.approx(0.2), pytest.approx(1e-5 + 1e-7, rel=1e-12))


def test_compose_block_associativity():
    rng = np.random.default_rng(6)
    eps = rng.uniform(0, 0.2, size=9).tolist()
    deltas = rng.uniform(0, 1e-5, size=9).tolist()
    full_eps, full_delta = compose_adaptive(eps, deltas)
    head_eps, head_delta = compose_adaptive(eps[:4], deltas[:4])
    tail_eps, tail_delta_ = compose_adaptive(eps[4:], deltas[4:])
    # Two-block adaptive composition of the partial results.
    assert full_eps == pytest.approx(head_eps + tail_eps, rel=1e-12)
    assert full_delta == pytest.approx(
        math.exp(tail_eps) * head_delta + tail_delta_, rel=1e-12
    )


def test_compose_monotone_in_steps():
    eps1, delta1 = compose_adaptive([0.1, 0.2], [1e-6, 1e-6])
    eps2, delta2 = compose_adaptive([0.1, 0.2, 0.05], [1e-6, 1e-6, 1e-7])
    assert eps2 >= eps1 and delta2 >= delta1


def test_compose_log_domain_keeps_finite_delta_past_exp_range():
    # exp(710) overflows a float, but exp(710) * 1e-10 is about 2e298.
    eps, delta = compose_adaptive([0.0, 710.0], [1e-10, 0.0], extra_delta=1e-7)
    assert eps == 710.0
    assert delta == pytest.approx(math.exp(710.0 + math.log(1e-10)), rel=1e-12)
    # Only a delta beyond the float range itself is reported as inf.
    assert compose_adaptive([0.0, 800.0], [1e-10, 0.0]) == (800.0, math.inf)


def test_compose_rejects_bad_inputs():
    with pytest.raises(ValueError, match="equal length"):
        compose_adaptive([0.1], [1e-6, 1e-6])
    for args in (([-0.1], [1e-6]), ([0.1], [-1e-6]), ([0.1], [1e-6], -1e-9)):
        with pytest.raises(ValueError, match="nonnegative"):
            compose_adaptive(*args)
    assert compose_adaptive([], [], extra_delta=1e-7) == (0.0, 1e-7)


# ---------------------------------------------------------------- accountant


# An independent reference for privacy_curve: the scalar per-release formulas
# and compose_adaptive.  At c = 1e-2 and T = 400 the composed delta is inf.
@pytest.mark.parametrize("c", [1e-6, 1e-2])
@pytest.mark.parametrize("horizon", [1, 12, 400])
def test_report_per_step_matches_scalar_ops(horizon, c, standin_game, standin_dynamics):
    _, schedules = standin_dynamics
    report = privacy_report(
        standin_game, schedules, sigma=0.1, horizon=horizon, clip=2.0,
        delta_budget=1e-3, adjacency_radius=c,
    )
    consts = SensitivityConstants.from_game(standin_game, schedules)
    for release in range(1, horizon + 1):
        expected = release_sensitivity(consts, c, release, consts.clipped_loss_bound(2.0))
        assert report.sensitivities[release - 1] == pytest.approx(expected, rel=1e-12)
        eps, valid = release_epsilon(expected, 0.1, 1e-3 / horizon)
        assert report.epsilons[release - 1] == pytest.approx(eps, rel=1e-12)
        assert bool(report.valid_steps[release - 1]) == valid
    eps, delta = compose_adaptive(
        report.epsilons.tolist(), report.deltas.tolist(), report.tail_delta
    )
    assert report.epsilon == pytest.approx(eps, rel=1e-12)
    assert report.delta == pytest.approx(delta, rel=1e-12)


def test_report_zero_radius(standin_game, standin_dynamics):
    _, schedules = standin_dynamics
    for horizon in (1, 5, 40):
        report = privacy_report(
            standin_game, schedules, sigma=0.1, horizon=horizon, clip=2.0,
            delta_budget=1e-3, adjacency_radius=0.0,
        )
        assert report.epsilon == 0.0
        assert report.delta == pytest.approx(
            report.deltas.sum() + report.tail_delta, rel=1e-12
        )
        assert not report.valid  # epsilon = 0 falls outside (0, 1)


def test_report_monotonicities(standin_game, standin_dynamics):
    _, schedules = standin_dynamics

    def build(sigma=0.1, radius=1e-6, horizon=50):
        return privacy_report(
            standin_game, schedules, sigma=sigma, horizon=horizon, clip=2.0,
            delta_budget=1e-3, adjacency_radius=radius,
        )

    horizons = [1, 5, 20, 50, 100, 200]
    eps_curve = [build(horizon=h).epsilon for h in horizons]
    delta_curve = [build(horizon=h).delta for h in horizons]
    assert all(a <= b + 1e-15 for a, b in zip(eps_curve, eps_curve[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(delta_curve, delta_curve[1:]))

    assert build(sigma=0.2).epsilon < build(sigma=0.1).epsilon
    assert build(sigma=0.2).delta <= build(sigma=0.1).delta
    assert build(radius=2e-6).epsilon > build(radius=1e-6).epsilon
    assert build(radius=2e-6).delta >= build(radius=1e-6).delta


def test_report_requires_radius(standin_game, standin_dynamics):
    _, schedules = standin_dynamics
    missing = "missing 1 required keyword-only argument: 'adjacency_radius'"
    with pytest.raises(TypeError, match=missing):
        privacy_report(standin_game, schedules, sigma=0.1, horizon=5, clip=2.0, delta_budget=1e-3)


@pytest.mark.parametrize(
    "name, c",
    [
        ("two_od", 1e-6),
        ("two_od", 1e-5),
        ("two_od", 0.0),
        ("two_od", 1e-2),  # the composition overflows: delta is inf
        ("pigou", 1e-3),
        ("pigou", 1e-4),
    ],
)
def test_curve_matches_per_horizon_reports(name, c):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    horizons = [1, 2, 3, 10, 57, 400, 1500]
    settings = dict(clip=2.0, delta_budget=1e-3)
    for sigma in (0.1, 0.3):
        curve = privacy_curve(consts, c, sigma, horizons, **settings)
        for i, horizon in enumerate(horizons):
            report = privacy_report(
                game, schedules, sigma, horizon, adjacency_radius=c, **settings
            )
            assert curve.epsilon[i] == pytest.approx(report.epsilon, rel=1e-12, abs=0.0)
            assert curve.delta[i] == pytest.approx(report.delta, rel=1e-12, abs=0.0)
            assert bool(curve.releases_valid[i]) == bool(report.valid_steps.all())
            assert bool(curve.valid[i]) == report.valid
        if c == 1e-2:
            assert math.isinf(curve.delta[-1])


# The scalar reference at every horizon: one release at a time through the
# sensitivity and the Gaussian mechanism, then compose_adaptive, with the
# delta budget split over the T releases.
@pytest.mark.parametrize(
    "name, c",
    [
        ("two_od", 1e-6),
        ("two_od", 1e-5),
        ("two_od", 0.0),
        ("two_od", 1e-2),  # the composition overflows: delta is inf
        ("pigou", 1e-3),
        ("pigou", 1e-4),
    ],
)
def test_curve_matches_scalar_oracle_at_every_horizon(name, c):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    horizons = [1, 2, 3, 10, 57, 400, 1500, 10000]
    loss_bound = consts.clipped_loss_bound(2.0)
    sens = [release_sensitivity(consts, c, r, loss_bound) for r in range(1, horizons[-1] + 1)]
    for sigma in (0.1, 0.3):
        curve = privacy_curve(consts, c, sigma, horizons, 2.0, 1e-3)
        for i, horizon in enumerate(horizons):
            step = 1e-3 / horizon
            releases = [release_epsilon(s, sigma, step) for s in sens[:horizon]]
            tail = tail_delta(sigma, 2.0, horizon, consts.total_paths)
            eps, delta = compose_adaptive([e for e, _ in releases], [step] * horizon, tail)
            assert curve.epsilon[i] == pytest.approx(eps, rel=1e-12, abs=0.0)
            assert curve.delta[i] == pytest.approx(delta, rel=1e-12, abs=0.0)  # inf == inf
            assert bool(curve.releases_valid[i]) == all(valid for _, valid in releases)
        if c == 1e-2:
            assert math.isinf(curve.delta[-1])


def two_od_constants() -> SensitivityConstants:
    cfg = load_config(CONFIG_DIR / "two_od.json")
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    return SensitivityConstants.from_game(game, schedules)


def test_exp_sums_match_the_uncut_sums():
    # At c = 1e-3 and sigma = 0.3 the last 444 of T = 2000's terms fall below
    # the smallest normal float, and are left out.
    consts = two_od_constants()
    horizons = np.arange(1, 2001)
    sens = privacy._sensitivities(consts, 1e-3, horizons, consts.clipped_loss_bound(2.0))
    later = np.concatenate(([0.0], privacy._running_sum(sens[1:])))
    scale = privacy._epsilons(np.ones(horizons.size), 0.3, 1e-3 / horizons)[0]
    assert np.count_nonzero(np.exp(-scale[-1] * later) < np.finfo(float).tiny) == 444
    uncut = [np.exp(-s * later[:h]).sum() for s, h in zip(scale.tolist(), horizons.tolist())]
    cut = privacy._exp_sums(later, scale, horizons)
    assert np.array(cut).tobytes() == np.array(uncut).tobytes()


def test_curve_holds_no_array_per_release():
    # Per horizon the curve holds two 4-row float stacks (the sensitivity
    # rows, and the epsilon rows that epsilon is one of), the 2-row epsilon
    # range, delta, the per-release delta, the tail mass and a flag: 105 B.
    # The bound allows 16 floats, 128 B per horizon, or 128 KB at
    # H = 1,000; one bool per release would be 10^6 B at T = 10^6.
    consts = two_od_constants()
    horizons = np.arange(1, 1_000_001, 1000)
    privacy_curve(consts, 1e-5, 0.1, [5], 2.0, 1e-3)  # warm up, so the traced call loads nothing
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        curve = privacy_curve(consts, 1e-5, 0.1, horizons, 2.0, 1e-3)
        size = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert size < 16 * 8 * horizons.size, size
    assert curve.valid_releases == horizons[-1]


def test_curve_rejects_bad_horizons(standin_game, standin_dynamics):
    _, schedules = standin_dynamics
    consts = SensitivityConstants.from_game(standin_game, schedules)
    for horizons in ([], [0, 5], [[1, 2]]):
        with pytest.raises(ValueError, match="horizons"):
            privacy_curve(consts, 1e-6, 0.1, horizons, 2.0, 1e-3)


def test_curve_refuses_work_beyond_its_budget(monkeypatch, pigou_game):
    # The budget caps horizons x T_max: 10 horizons up to T = 10 are 100 units, [101] is 101.
    monkeypatch.setattr(privacy, "CURVE_BUDGET", 100)
    consts = constants(pigou_game)
    assert privacy_curve(consts, 1e-3, 0.1, np.arange(1, 11), 2.0, 1e-3).epsilon.size == 10
    message = "^horizons x T_max = 1 x 101 exceeds the accountant's budget of 100$"
    with pytest.raises(ValueError, match=message):
        privacy_curve(consts, 1e-3, 0.1, [101], 2.0, 1e-3)


@pytest.mark.parametrize(
    "setting, value",
    [
        ("sigma", 0.0), ("sigma", -0.1), ("sigma", math.nan), ("sigma", math.inf),
        ("clip", 0.0), ("clip", math.nan), ("clip", math.inf),
        ("delta_budget", -1e-3), ("delta_budget", 0.0), ("delta_budget", math.nan),
        ("delta_budget", math.inf),
    ],
)
def test_curve_rejects_bad_settings(pigou_game, setting, value):
    # Each is refused at the entry, by name, before it can read as an overflow.
    what = {"sigma": "noise standard deviation", "clip": "clip level",
            "delta_budget": "delta budget"}[setting]
    args = {"c": 1e-3, "sigma": 0.1, "clip": 2.0, "delta_budget": 1e-3} | {setting: value}
    with pytest.raises(ValueError, match=f"^{what} must be positive and finite, got {setting} = "):
        privacy_curve(constants(pigou_game), horizons=[5], **args)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_curve_rejects_bad_radius(pigou_game, radius):
    with pytest.raises(ValueError, match="adjacency radius must be finite and nonnegative"):
        privacy_curve(constants(pigou_game), radius, 0.1, [5], 2.0, 1e-3)


@pytest.mark.parametrize("sigma, clip", [(math.nan, 2.0), (1.0, math.nan)])
def test_tail_delta_rejects_nan(sigma, clip):
    with pytest.raises(ValueError, match="must be positive"):
        tail_delta(sigma, clip, 5, 2)
