from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from privroute import sim
from privroute.dynamics import BregmanGeometry, LearningSchedule, block_projection, block_softmax
from privroute.game import (
    build_game,
    edge_flows,
    gap_from_losses,
    path_losses,
    potential_from_flows,
    solve_equilibrium,
    uniform_allocation,
)
from privroute.network import block_slices, build_network
from privroute.sim import (
    EnsembleRuns,
    RunRecord,
    SimulationConfig,
    check_suboptimality_bound,
    fit_loglog_slope,
    monte_carlo,
    run_seeds,
    run_trajectory,
    simulate_sweep,
)

from conftest import pages, physical_memory, sweep_with_records, validate_allocation


def small_config(game, sigma=0.1, horizon=40, runs=3, seed=11, scale=1.0, decay=0.5):
    k = game.num_populations
    return SimulationConfig(
        game=game,
        geometries=tuple(BregmanGeometry("entropic", game.block_sizes) for _ in range(k)),
        schedules=tuple(LearningSchedule(scale, decay) for _ in range(k)),
        sigma=sigma,
        horizon=horizon,
        runs=runs,
        seed=seed,
    )


# ------------------------------------------------------------- trajectories


def test_trajectory_deterministic_descent_to_equilibrium(pigou_game):
    # A decay of 1e-9 keeps the rate within 1e-8 of 0.8 over the whole horizon.
    cfg = small_config(pigou_game, sigma=0.0, horizon=400, runs=1, scale=0.8, decay=1e-9)
    record = run_trajectory(cfg, 0)
    assert np.all(np.diff(record.potentials) <= 1e-12)
    assert record.potentials[-1] == pytest.approx(0.5, abs=1e-3)
    assert record.gaps[-1] < 1e-3
    np.testing.assert_array_equal(record.observed_losses[0], [0.5, 1.0])


def test_trajectory_bit_identical_for_equal_seeds(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.4, 25, 1, 5)
    a = run_trajectory(cfg, 123)
    b = run_trajectory(cfg, 123)
    assert a.potentials.tobytes() == b.potentials.tobytes()
    assert a.gaps.tobytes() == b.gaps.tobytes()
    assert a.allocations.tobytes() == b.allocations.tobytes()
    assert a.observed_losses.tobytes() == b.observed_losses.tobytes()


def test_trajectory_zero_mass_is_constant():
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[1, 0], [0, 1]], [[0.0]])
    cfg = small_config(game, sigma=0.2, horizon=30, runs=1)
    record = run_trajectory(cfg, 3)
    assert np.all(record.potentials == 0.0)
    np.testing.assert_allclose(record.allocations, 0.5, atol=1e-12)


def test_trajectory_feasible_at_every_iteration(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.4, 60, 1, 9)
    record = run_trajectory(cfg, 42)
    for t in range(cfg.horizon):
        validate_allocation(standin_game, record.allocations[t])


# --------------------------------------------------------------- ensembles


def test_monte_carlo_singleton_equals_single_run(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 30, 1, 77)
    stats = monte_carlo(cfg, solve_equilibrium(standin_game))
    child = np.random.SeedSequence(77).spawn(1)[0]
    record = run_trajectory(cfg, child)
    np.testing.assert_array_equal(stats.f_mean, record.potentials)
    np.testing.assert_array_equal(stats.f_std, np.zeros(30))
    np.testing.assert_array_equal(stats.flow_mean, record.allocations)


def test_monte_carlo_reproducible(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 20, 4, 13)
    eq = solve_equilibrium(standin_game)
    a = monte_carlo(cfg, eq)
    b = monte_carlo(cfg, eq)
    assert a.f_mean.tobytes() == b.f_mean.tobytes()
    assert a.slope == b.slope


def test_monte_carlo_respects_theory_bound(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 50, 5, 21)
    stats = monte_carlo(cfg, solve_equilibrium(standin_game))
    result = check_suboptimality_bound(cfg, stats)
    assert result["ok"]
    assert result["realized"] <= result["bound"]


def test_slope_fit_recovers_power_law():
    values = 3.0 * np.arange(1, 201) ** -0.7
    assert fit_loglog_slope(values, (50, 200)) == pytest.approx(-0.7, abs=1e-9)
    with pytest.raises(ValueError, match="window"):
        fit_loglog_slope(values, (500, 600))


@pytest.mark.parametrize("window", [(1, 200), (50, 200), (10, 11), (150, 200), (1, 5000)])
def test_slope_fit_equals_polyfit(window):
    # The closed-form slope of the centred logs is polyfit's least-squares line.
    t = np.arange(1, window[1] + 1)
    rng, lo = np.random.default_rng(window), window[0] - 1
    for exponent, noise in itertools.product([-2.5, -0.7, -0.1, 0.3], [0.0, 0.1, 1.0]):
        values = 3.0 * t ** exponent * np.exp(noise * rng.standard_normal(t.size))
        reference = np.polyfit(np.log(t[lo:]), np.log(values[lo:]), 1)[0]
        assert fit_loglog_slope(values, window) == pytest.approx(reference, rel=1e-12, abs=0.0), (
            exponent, noise)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_slope_fit_refuses_non_finite_values(bad):
    values = 3.0 * np.arange(1, 201) ** -0.7
    values[120] = bad
    with pytest.raises(ValueError, match=r"slope window \(50, 200\) are not all finite"):
        fit_loglog_slope(values, (50, 200))
    # A value outside the window is not fitted.
    assert np.isfinite(fit_loglog_slope(values, (1, 100)))


def test_simulation_config_validation(standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    with pytest.raises(ValueError, match="per population"):
        SimulationConfig(standin_game, geometries[:1], schedules, 0.1, 10, 1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        SimulationConfig(standin_game, geometries, schedules, -0.1, 10, 1, 0)
    bad_geom = tuple(BregmanGeometry("entropic", (2, 2)) for _ in geometries)
    with pytest.raises(ValueError, match="block structure"):
        SimulationConfig(standin_game, bad_geom, schedules, 0.1, 10, 1, 0)


# ------------------------------------------------- batched engine vs a loop


def loop_oracle(cfg, seed):
    """One run as a plain per-step, per-population loop (the engine's reference)."""
    game = cfg.game
    rng = np.random.default_rng(seed)
    weights = game.path_weights()
    x = uniform_allocation(game)
    losses = path_losses(game, edge_flows(game, x))
    potentials, gaps, allocations, observed = [], [], [], []
    for t in range(cfg.horizon):
        loss_hat = losses + cfg.sigma * rng.standard_normal(losses.shape) if cfg.sigma else losses
        for k in range(game.num_populations):
            eta = cfg.schedules[k].rate(t)
            x[k] = cfg.geometries[k].prox(x[k], weights[k] * loss_hat, eta)
        phi = edge_flows(game, x)
        losses = path_losses(game, phi)
        potentials.append(potential_from_flows(game, phi))
        gaps.append(gap_from_losses(game, x, losses))
        allocations.append(x.copy())
        observed.append(loss_hat)
    return np.array(potentials), np.array(gaps), np.array(allocations), np.array(observed)


def engine_case(name, standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    if name == "two_od_sigma0":
        return SimulationConfig(standin_game, geometries, schedules, 0.0, 40, 3, 1)
    if name == "two_od_sigma0.4":
        return SimulationConfig(standin_game, geometries, schedules, 0.4, 40, 4, 2)
    if name == "mixed_geometries":
        mixed = (geometries[0], BregmanGeometry("euclidean", standin_game.block_sizes))
        return SimulationConfig(standin_game, mixed, schedules, 0.4, 40, 4, 3)
    euclidean = (BregmanGeometry("euclidean", standin_game.block_sizes),) * 2
    return SimulationConfig(standin_game, euclidean, schedules, 0.4, 40, 4, 5)


@pytest.mark.parametrize(
    "case",
    ["two_od_sigma0", "two_od_sigma0.4", "mixed_geometries", "all_euclidean"],
)
def test_engine_matches_loop_oracle(case, standin_game, standin_dynamics):
    cfg = engine_case(case, standin_game, standin_dynamics)
    seeds = run_seeds(cfg.seed, cfg.runs)
    (runs,), (records,) = sweep_with_records(cfg, [cfg.sigma])
    for seed, record in zip(seeds, records):
        potentials, gaps, allocations, observed = loop_oracle(cfg, seed)
        np.testing.assert_allclose(record.potentials, potentials, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.gaps, gaps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.allocations, allocations, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.observed_losses, observed, rtol=0, atol=1e-12)
    summed = sum(record.allocations for record in records)
    assert runs.flow_mean.tobytes() == (summed / cfg.runs).tobytes()
    potentials = np.stack([record.potentials for record in records])
    gaps = np.stack([record.gaps for record in records])
    assert runs.f_mean.tobytes() == potentials.mean(axis=0).tobytes()
    assert runs.f_std.tobytes() == potentials.std(axis=0).tobytes()
    assert runs.gap_mean.tobytes() == gaps.mean(axis=0).tobytes()
    streamed = simulate_sweep(cfg, [cfg.sigma])[0]
    assert not hasattr(streamed, "records")
    for field in ("f_mean", "f_std", "gap_mean", "flow_mean"):
        assert getattr(streamed, field).tobytes() == getattr(runs, field).tobytes()


@pytest.mark.parametrize(
    "case",
    ["two_od_sigma0", "two_od_sigma0.4", "mixed_geometries", "all_euclidean"],
)
def test_sweep_matches_one_sigma_calls(case, standin_game, standin_dynamics):
    # Each sigma of a sweep gets the same bytes as a call with that sigma alone.
    cfg = engine_case(case, standin_game, standin_dynamics)
    sigmas = [0.25, 0.0, 0.4, cfg.sigma]
    kept, kept_records = sweep_with_records(cfg, sigmas)
    streamed = simulate_sweep(cfg, sigmas)
    assert len(kept) == len(streamed) == len(kept_records) == len(sigmas)
    for sigma, swept, swept_streamed, swept_records in zip(sigmas, kept, streamed, kept_records):
        (alone,), (alone_records,) = sweep_with_records(cfg, [sigma])
        for runs in (swept, swept_streamed):
            for field in ("f_mean", "f_std", "gap_mean", "flow_mean"):
                assert getattr(runs, field).tobytes() == getattr(alone, field).tobytes()
        assert not hasattr(swept_streamed, "records")
        for a, b in zip(swept_records, alone_records, strict=True):
            for field in ("potentials", "gaps", "allocations", "observed_losses"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("case", ["two_od_sigma0", "two_od_sigma0.4", "mixed_geometries",
                                  "all_euclidean"])
def test_two_worlds_in_one_sweep_equal_two_one_world_sweeps(case, standin_game,
                                                            standin_dynamics):
    # World B shifts population 1's masses by c and runs as the sweep's second sigma
    # column; the release is the default, each column's losses plus its own noise.
    cfg_a = engine_case(case, standin_game, standin_dynamics)
    shifted = standin_game.masses + np.array([[0.0], [0.05]])
    game_b = build_game(standin_game.network, standin_game.costs, shifted)
    cfg_b = SimulationConfig(game_b, cfg_a.geometries, cfg_a.schedules, 0.25, cfg_a.horizon,
                             cfg_a.runs, cfg_a.seed)
    masses = np.stack([standin_game.masses, shifted], -1)[..., None]  # (K, OD, worlds, 1)

    def two_worlds(cfg, sigmas, on_chunk):
        return sim._sweep(cfg, sigmas, run_seeds(cfg.seed, cfg.runs), on_chunk, masses,
                          sim._release)

    both, both_records = sweep_with_records(cfg_a, [cfg_a.sigma, cfg_b.sigma], two_worlds)
    assert cfg_a.runs >= 2
    for cfg, world, world_records in zip((cfg_a, cfg_b), both, both_records, strict=True):
        (alone,), (alone_records,) = sweep_with_records(cfg, [cfg.sigma])
        for field in fields(EnsembleRuns):
            a, b = (np.asarray(getattr(runs, field.name)) for runs in (world, alone))
            assert a.tobytes() == b.tobytes(), field.name
        for a, b in zip(world_records, alone_records, strict=True):
            for field in fields(RunRecord):
                assert getattr(a, field.name).tobytes() == getattr(b, field.name).tobytes()


def test_sweep_rejects_a_negative_sigma(standin_game, standin_dynamics):
    cfg = engine_case("two_od_sigma0.4", standin_game, standin_dynamics)
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_sweep(cfg, [0.1, -0.1])


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_non_finite_sigma_is_refused(standin_game, standin_dynamics, sigma):
    geometries, schedules = standin_dynamics
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        SimulationConfig(standin_game, geometries, schedules, sigma, 10, 1, 0)
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 10, 1, 0)
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        simulate_sweep(cfg, [0.1, sigma])


def test_engine_steps_with_the_rates_the_accountant_bounds(standin_game, standin_dynamics,
                                                           monkeypatch):
    # numpy's array power and libm's scalar pow may round differently, so both
    # sides must take each schedule's rates from the same kind of call.
    from privroute import privacy

    calls = []
    rate = LearningSchedule.rate

    def spy(self, t):
        eta = rate(self, t)
        calls.append((self, t, eta))
        return eta

    monkeypatch.setattr(LearningSchedule, "rate", spy)
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 200, 2, 1)
    simulate_sweep(cfg, [cfg.sigma])
    engine = calls[:]
    consts = privacy.SensitivityConstants.from_game(standin_game, schedules)
    privacy.privacy_curve(consts, 1e-6, 0.1, [cfg.horizon], 2.0, 1e-3)
    accountant = calls[len(engine):]
    assert all(isinstance(t, np.ndarray) for _, t, _ in calls)
    assert len(engine) == len(accountant) == len(schedules)
    for schedule, (own, t, eta), (other, t_acc, eta_acc) in zip(schedules, engine, accountant):
        assert own is schedule and other is schedule
        assert t.tolist() == list(range(cfg.horizon))
        # Release r is bounded at t = max(r - 2, 0), every one a step the engine took.
        assert eta_acc.tobytes() == eta[t_acc].tobytes()


@pytest.mark.parametrize("case", ["two_od_sigma0.4", "one_path_entropic", "mixed_geometries"])
def test_monte_carlo_takes_a_sweep_ensemble(case, standin_game, standin_dynamics):
    # The one-path game has populations x paths x sigmas = 1, so each run's
    # step reduces to one value, the shape numpy would sum over runs pairwise.
    if case == "one_path_entropic":
        cfg = one_path_config("entropic")
    else:
        cfg = engine_case(case, standin_game, standin_dynamics)
    eq = solve_equilibrium(cfg.game)
    (runs,), (records,) = sweep_with_records(cfg, [cfg.sigma])
    direct = monte_carlo(cfg, eq)
    for given in (runs, records):
        stats = monte_carlo(cfg, eq, records=given)
        assert stats.f_mean.tobytes() == direct.f_mean.tobytes()
        assert stats.f_std.tobytes() == direct.f_std.tobytes()
        assert stats.gap_mean.tobytes() == direct.gap_mean.tobytes()
        assert stats.flow_mean.tobytes() == direct.flow_mean.tobytes()


def test_engine_noise_is_successive_draws_from_each_child():
    # Zero costs keep every loss at 0, so with sigma = 1 the observed losses
    # are the raw noise draws.
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"]] * 3, "od_pairs": [["s", "t"]]}
    )
    game = build_game(net, [[0.0, 0.0]] * 3, [[1.0]])
    cfg = small_config(game, sigma=1.0, horizon=25, runs=4, seed=8)
    seeds = run_seeds(cfg.seed, cfg.runs)
    _, (records,) = sweep_with_records(cfg, [cfg.sigma])
    for seed, record in zip(seeds, records):
        rng = np.random.default_rng(seed)
        draws = np.array([rng.standard_normal(3) for _ in range(cfg.horizon)])
        assert record.observed_losses.tobytes() == draws.tobytes()


@pytest.mark.parametrize("seed, n", [(0, 1), (8, 5), (2**64 + 3, 4)])
def test_run_seeds_are_the_spawned_children(seed, n):
    seeds = run_seeds(seed, n)
    spawned = [c.generate_state(4).tobytes() for c in np.random.SeedSequence(seed).spawn(n)]
    assert len(seeds) == n
    assert [c.generate_state(4).tobytes() for c in seeds] == spawned
    assert [seeds[i].generate_state(4).tobytes() for i in range(-n, n)] == spawned * 2
    with pytest.raises(IndexError):
        seeds[n]


def test_engine_rejects_non_finite_losses(pigou_game):
    cfg = small_config(pigou_game, sigma=1e308, horizon=50, runs=2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite loss entries"):
        monte_carlo(cfg, solve_equilibrium(pigou_game))


# ------------------------------------------ the engine's reductions, byte for byte


def generic_reductions_oracle(cfg, sigmas, seeds):
    """The engine with numpy's generic reductions over the whole horizon at once.

    Populations are summed by ``(w * x).sum(axis=0)``, block minima taken by
    ``np.minimum.reduceat``, allocations summed over runs by a cumulative sum,
    and each run draws its ``(T, paths)`` noise in one block.  Potentials and
    gaps are kept for every run and step, then averaged over runs.
    """
    game, T, R = cfg.game, cfg.horizon, len(seeds)
    sigmas, sizes = np.asarray(sigmas, float), game.block_sizes
    S, K, P = len(sigmas), game.num_populations, game.total_paths
    weights, masses = game.path_weights()[:, :, None, None], game.masses[:, :, None, None]
    slope, intercept = game.costs.T[:, :, None, None]
    starts = [s.start for s in block_slices(sizes)]
    kinds = np.array([g.kind for g in cfg.geometries])
    entropic, euclidean = kinds == "entropic", kinds == "euclidean"
    rates = np.stack([s.rate(np.arange(T)) for s in cfg.schedules], 1)[..., None, None, None]
    noise = np.stack([np.random.default_rng(seed).standard_normal((T, P)) for seed in seeds], -1)

    def contract(matrix, v):
        return (matrix @ v.reshape(len(v), -1)).reshape((-1, S, R))

    def losses_at(phi):
        return contract(game.paths.incidence.T, slope * phi + intercept)

    x = np.tile(uniform_allocation(game)[:, :, None, None], (1, 1, S, R))
    logits = np.log(x[entropic])
    potentials, gaps = np.empty((S, R, T)), np.empty((S, R, T))
    flow_sum = np.empty((S, T, K, P))
    losses = losses_at(contract(game.paths.incidence, (weights * x).sum(axis=0)))
    for t in range(T):
        step = rates[t] * (weights * (losses + sigmas[:, None] * noise[t][:, None]))
        if entropic.any():
            logits -= step[entropic]
            x[entropic] = block_softmax(logits, sizes, axis=1)
        if euclidean.any():
            x[euclidean] = block_projection(x[euclidean] - step[euclidean], sizes, axis=1)
        phi = contract(game.paths.incidence, (weights * x).sum(axis=0))
        losses = losses_at(phi)
        potentials[:, :, t] = (0.5 * slope * phi * phi + intercept * phi).sum(axis=0)
        best = (masses * np.minimum.reduceat(losses, starts, axis=0)).sum(axis=(0, 1))
        gaps[:, :, t] = np.maximum((weights * x * losses).sum(axis=(0, 1)) - best, 0.0)
        flow_sum[:, t] = np.cumsum(x, axis=-1)[..., -1].transpose(2, 0, 1)
    return [(potentials[i].mean(axis=0), potentials[i].std(axis=0), gaps[i].mean(axis=0),
             flow_sum[i] / R) for i in range(S)]


def one_path_config(geometry):
    net = build_network({"nodes": ["s", "t"], "edges": [["s", "t"]], "od_pairs": [["s", "t"]]})
    game = build_game(net, [[0.7, 0.2]], [[1.3]])
    return SimulationConfig(game, (BregmanGeometry(geometry, (1,)),),
                            (LearningSchedule(1.0, 0.5),), 0.4, 60, 9, 4)


@pytest.mark.parametrize(
    "case, sigmas, runs",
    [
        ("two_od", [0.01, 0.1, 0.4], 150),
        ("two_od", [0.4], 1),
        ("one_path_euclidean", [0.4], 9),
        ("one_path_entropic", [0.4], 9),
        ("mixed_geometries", [0.01, 0.1, 0.4], 30),
        ("all_euclidean", [0.01, 0.1, 0.4], 30),
        ("two_od_T51", [0.4], 150),
    ],
)
def test_engine_equals_the_generic_reductions(case, sigmas, runs, standin_game, standin_dynamics):
    # The one-path cases have populations x paths x sigmas = 1, where a sum over
    # runs laid out as (runs, 1) would go pairwise instead of in run order; so
    # would one sigma's potentials over a one-step chunk, as T = 51 ends in.
    if case.startswith("one_path"):
        cfg = one_path_config(case.rsplit("_", 1)[1])
    elif case.startswith("two_od"):
        geometries, schedules = standin_dynamics
        horizon = 51 if case == "two_od_T51" else 120
        cfg = SimulationConfig(standin_game, geometries, schedules, sigmas[0], horizon, runs, 6)
    else:
        cfg = engine_case(case, standin_game, standin_dynamics)
    cfg = replace(cfg, runs=runs)
    expected = generic_reductions_oracle(cfg, sigmas, run_seeds(cfg.seed, runs))
    for kept in (False, True):
        sweep = (sweep_with_records(cfg, sigmas)[0] if kept
                 else simulate_sweep(cfg, sigmas))
        for runs_of_sigma, fields in zip(sweep, expected):
            got = (runs_of_sigma.f_mean, runs_of_sigma.f_std, runs_of_sigma.gap_mean,
                   runs_of_sigma.flow_mean)
            for name, a, b in zip(("f_mean", "f_std", "gap_mean", "flow_mean"), got, fields):
                assert a.tobytes() == b.tobytes(), (name, kept)


@pytest.mark.parametrize("case", ["two_od", "mixed_geometries", "all_euclidean"])
def test_outputs_do_not_depend_on_the_chunk(case, standin_game, standin_dynamics, monkeypatch):
    # T = 201 leaves a one-step last chunk for chunks of 2 and 50.
    geometries, schedules = standin_dynamics
    if case == "two_od":
        cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 201, 150, 20260810)
    else:
        base = engine_case(case, standin_game, standin_dynamics)
        cfg = SimulationConfig(standin_game, base.geometries, base.schedules, 0.4, 201, 6, 3)
    sigmas = [0.01, 0.1, 0.4]
    eq = solve_equilibrium(standin_game)
    stats_bytes, record_bytes = [], []
    for chunk in (2, 7, 50, 201, 1000):
        monkeypatch.setattr(sim, "_STEP_CHUNK", chunk)
        for kept in (False, True):
            if kept:
                sweep, records = sweep_with_records(cfg, sigmas)
            else:
                sweep = simulate_sweep(cfg, sigmas)
            stats = [monte_carlo(cfg, eq, records=runs) for runs in sweep]
            stats_bytes.append([
                [getattr(s, f).tobytes() for f in ("f_mean", "f_std", "gap_mean", "flow_mean")]
                + [s.slope] for s in stats
            ])
            if kept:
                record_bytes.append([
                    [getattr(r, f).tobytes() for r in runs_of_sigma
                     for f in ("potentials", "gaps", "allocations", "observed_losses")]
                    for runs_of_sigma in records
                ])
    assert all(b == stats_bytes[0] for b in stats_bytes[1:])
    assert all(b == record_bytes[0] for b in record_bytes[1:])


ITEM_14 = ("ROADMAP item 14: the contraction is a BLAS product over the whole batch, whose "
           "summation order can change when the batch is one column wide")
BATCHES = {"one_sigma": [0.1], "three_sigmas": [0.01, 0.1, 0.4], "run_trajectory": None}


def two_od_run0(standin_game, standin_dynamics, runs, batch):
    """Run 0's record bytes at sigma 0.1 in a two_od sweep of ``BATCHES[batch]``."""
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 200, runs, 20260810)
    seeds, sigmas = run_seeds(cfg.seed, runs), BATCHES[batch]
    if sigmas is None:
        record = run_trajectory(cfg, seeds[0])
    else:
        record = sweep_with_records(cfg, sigmas)[1][sigmas.index(0.1)][0]
    return [getattr(record, field.name).tobytes() for field in fields(RunRecord)]


@pytest.mark.parametrize("runs, batch", [
    *itertools.product((2, 7, 150), ("one_sigma", "three_sigmas")),
    pytest.param(1, "one_sigma", marks=pytest.mark.xfail(strict=True, reason=ITEM_14)),
    pytest.param(1, "run_trajectory", marks=pytest.mark.xfail(strict=True, reason=ITEM_14)),
])
def test_a_runs_bytes_do_not_depend_on_its_batch(runs, batch, standin_game, standin_dynamics):
    # Run 0's seed is child 0 of the master seed for every run count; only the batch
    # of (sigma, run) columns it shares the sweep with changes.
    expected = two_od_run0(standin_game, standin_dynamics, 2, "one_sigma")
    assert two_od_run0(standin_game, standin_dynamics, runs, batch) == expected


def _traced_peak(cfg, sigmas, on_chunk=None) -> int:
    """Bytes that one streamed sweep holds at its peak, over what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        simulate_sweep(cfg, sigmas, on_chunk)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_each_sigma_costs_less_than_two_noise_chunks(standin_game, standin_dynamics):
    # Every sigma scales the runs' one noise draw step by step, so a sigma adds
    # its (populations, paths, runs) state and its potentials and gaps, not a
    # copy of the chunk's draw.
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 200, 150, 20260810)
    simulate_sweep(replace(cfg, runs=2), [0.1])  # warm up, so the first sweep loads nothing
    peaks = {n: _traced_peak(cfg, np.linspace(0.01, 0.4, n)) for n in (1, 3, 6)}
    chunk = cfg.runs * sim._STEP_CHUNK * standin_game.total_paths * 8
    per_sigma = [(peaks[3] - peaks[1]) / 2, (peaks[6] - peaks[3]) / 3]
    assert max(per_sigma) < 2 * chunk, (peaks, per_sigma, chunk)


def test_a_plain_sweep_holds_one_row_of_outputs_per_run(standin_game, standin_dynamics):
    # Per run, a sweep without a hook holds its noise chunk (chunk x paths floats),
    # its state and the running sums over runs of one step's allocations, potentials
    # and gaps, (populations x paths + 2) x sigmas floats.  The state is its
    # generator (under 1 KB) and the step's arrays, fewer than 16 at a time of
    # populations x paths x sigmas floats each.  A chunk of every run's potentials
    # and gaps, reduced when the chunk ends, would add sigmas x chunk x 2 floats more.
    geometries, schedules = standin_dynamics
    sigmas, K, P = [0.01, 0.1, 0.4], standin_game.num_populations, standin_game.total_paths

    def config(runs):
        return SimulationConfig(standin_game, geometries, schedules, 0.1, 200, runs, 20260810)

    simulate_sweep(config(2), [0.1])  # warm up
    peaks = {runs: _traced_peak(config(runs), sigmas) for runs in (150, 600)}
    per_run = (peaks[600] - peaks[150]) / 450
    noise, row = sim._STEP_CHUNK * P * 8, (K * P + 2) * len(sigmas) * 8
    state = 1024 + 16 * K * P * len(sigmas) * 8
    assert per_run < noise + state + row, (peaks, per_run, noise, state, row)


def test_a_hooked_sweep_holds_one_chunk_of_runs(standin_game, standin_dynamics):
    # The hook sees views of chunk-wide buffers, so a sweep whose hook keeps
    # nothing grows with T only by its per-step outputs, not by its runs' rows.
    geometries, schedules = standin_dynamics
    sigmas, K, P = [0.01, 0.1, 0.4], standin_game.num_populations, standin_game.total_paths

    def config(horizon, runs):
        return SimulationConfig(standin_game, geometries, schedules, 0.1, horizon, runs, 20260810)

    def discard(start, chunk):
        pass

    simulate_sweep(config(2, 2), [0.1], discard)  # warm up
    peaks = {T: _traced_peak(config(T, 150), sigmas, discard) for T in (100, 1000)}
    chunk = len(sigmas) * 150 * sim._STEP_CHUNK * (K * P + P + 2) * 8  # the hooked buffers
    assert peaks[1000] - peaks[100] < chunk, (peaks, chunk)


# ------------------------------------------- the working set against physical memory


@pytest.mark.parametrize("runs", [150, 600])
@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
def test_the_working_set_bounds_the_traced_peak_within_a_factor_of_two(
        runs, hooked, standin_game, standin_dynamics):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 200, runs, 20260810)
    sigmas = [0.01, 0.1, 0.4]

    def discard(start, chunk):
        pass

    hook = discard if hooked else None
    simulate_sweep(replace(cfg, horizon=2, runs=2), [0.1], hook)  # warm up
    peak = _traced_peak(cfg, sigmas, hook)
    estimate = sim._working_set(cfg, len(sigmas), hooked)
    assert peak <= estimate <= 2 * peak, (peak, estimate)


def test_a_sweep_beyond_physical_memory_is_refused_before_any_seed_or_array(
        standin_game, standin_dynamics, monkeypatch):
    geometries, schedules = standin_dynamics
    cfg = SimulationConfig(standin_game, geometries, schedules, 0.1, 200, 150, 20260810)
    sigmas = [0.01, 0.1, 0.4]
    simulate_sweep(replace(cfg, horizon=2, runs=2), [0.1])  # warm up

    def unreachable(*args):
        raise AssertionError("a seed was made for a refused sweep")

    monkeypatch.setattr(sim, "run_seeds", unreachable)
    physical_memory(monkeypatch, pages(1_000_000))  # the sweep needs about 1.14 MB
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            simulate_sweep(cfg, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("a sweep of shape (2, 5, 3, 150) needs about 0.00114 GB, "
                                  "more than the 0.001 GB of physical memory")
    assert peak < 64 * 1024, peak


def unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("sysconf", [None, pages(-1), unknown_name],
                         ids=["no-sysconf", "indeterminate", "unknown-name"])
def test_unreported_physical_memory_refuses_nothing(sysconf, pigou_game, monkeypatch):
    # Where os.sysconf is missing it is an AttributeError, and where it does not
    # know the name a ValueError; an indeterminate value is -1.
    cfg = small_config(pigou_game, horizon=5, runs=2)
    physical_memory(monkeypatch, pages(1))
    with pytest.raises(MemoryError, match="of physical memory"):
        simulate_sweep(cfg, [0.1])
    physical_memory(monkeypatch, sysconf)
    (runs,) = simulate_sweep(cfg, [0.1])
    assert runs.runs == 2
