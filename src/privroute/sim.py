"""Monte Carlo simulation of noisy mirror-descent routing dynamics."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import game as game_ops
from .dynamics import BregmanGeometry, LearningSchedule, block_projection, block_softmax
from .dynamics import suboptimality_bound
from .game import Equilibrium, GameInstance, solve_equilibrium
from .privacy import loss_sup_bound

__all__ = [
    "EnsembleRuns",
    "EnsembleStats",
    "RunRecord",
    "SimulationConfig",
    "check_suboptimality_bound",
    "fit_loglog_slope",
    "monte_carlo",
    "run_seeds",
    "run_trajectory",
    "simulate_runs",
    "simulate_sweep",
    "write_csv",
    "write_ensemble_csv",
    "write_manifest",
    "write_run_csv",
]


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """One experiment: a game, per-population dynamics, noise, and replication.

    ``sigma = 0`` runs the deterministic dynamics.  Each run draws one
    noise vector per iteration, observed identically by all populations.
    ``slope_window`` bounds the iterations used for the log-log rate fit
    and defaults to the last three quarters of the horizon.
    """

    game: GameInstance
    geometries: tuple[BregmanGeometry, ...]
    schedules: tuple[LearningSchedule, ...]
    sigma: float
    horizon: int
    runs: int
    seed: int
    slope_window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        k = self.game.num_populations
        if len(self.geometries) != k or len(self.schedules) != k:
            raise ValueError("one geometry and one schedule per population are required")
        for geom in self.geometries:
            if geom.block_sizes != self.game.block_sizes:
                raise ValueError("geometry block structure does not match the game")
        if self.sigma < 0:
            raise ValueError("noise standard deviation must be nonnegative")
        if self.horizon < 1 or self.runs < 1:
            raise ValueError("horizon and run count must be at least one")


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One trajectory: post-update states and the observations that drove them.

    Row ``t`` (0-based) holds the potential, gap, and allocation after
    ``t + 1`` updates, plus the noisy loss vector observed at the state
    preceding that update.
    """

    potentials: np.ndarray
    gaps: np.ndarray
    allocations: np.ndarray
    observed_losses: np.ndarray
    seed: object


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-iteration statistics across independent runs."""

    iterations: np.ndarray
    f_mean: np.ndarray
    f_std: np.ndarray
    gap_mean: np.ndarray
    flow_mean: np.ndarray
    f_star: float
    equilibrium: Equilibrium
    slope: float
    slope_window: tuple[int, int]
    sigma: float
    runs: int
    seed: int


@dataclass(frozen=True, eq=False)
class EnsembleRuns:
    """The runs of one noise level, as :func:`simulate_sweep` returns them."""

    potentials: np.ndarray  # (runs, T)
    gaps: np.ndarray  # (runs, T)
    flow_sum: np.ndarray  # (T, populations, paths): allocations summed over runs in order
    records: list[RunRecord] | None  # every run's trajectory, only when kept


def simulate_sweep(
    cfg: SimulationConfig, sigmas, seeds: list, keep_runs: bool = False
) -> list[EnsembleRuns]:
    """Advance one run per (sigma, seed) pair, all together; one EnsembleRuns per sigma.

    ``sigmas`` replaces ``cfg.sigma``.  Run ``r`` draws its noise once, as
    ``default_rng(seeds[r]).standard_normal((T, paths))`` (the same numbers as
    ``T`` successive draws of one vector), and every sigma scales those draws.
    Entropic populations are held as logits and euclidean ones as iterates,
    as ``(populations, paths, sigmas, runs)`` arrays.  Each (sigma, run)
    column is computed alone, so it gets the same bytes in any sweep.
    """
    game, T, R, P = cfg.game, cfg.horizon, len(seeds), cfg.game.total_paths
    sigmas = np.asarray(sigmas, float)
    if not np.all(sigmas >= 0):
        raise ValueError("noise standard deviation must be nonnegative")
    S, K, sizes = len(sigmas), game.num_populations, game.block_sizes
    weights = game.path_weights()[:, :, None, None]
    kinds = np.array([g.kind for g in cfg.geometries])
    entropic, euclidean = np.flatnonzero(kinds == "entropic"), np.flatnonzero(kinds == "euclidean")
    rates = np.array([[s.rate(t) for s in cfg.schedules] for t in range(T)])[..., None, None, None]
    noise = np.zeros((T, 1, 1, 1))
    if np.any(sigmas > 0):
        noise = np.empty((T, P, 1, R))
        for r, seed in enumerate(seeds):
            noise[:, :, 0, r] = np.random.default_rng(seed).standard_normal((T, P))
    x = np.tile(game_ops.uniform_allocation(game)[:, :, None, None], (1, 1, S, R))
    logits = np.log(x[entropic])
    potentials, gaps, flow_sum = np.empty((S, R, T)), np.empty((S, R, T)), np.empty((S, T, K, P))
    allocations = np.empty((S, R, T, K, P)) if keep_runs else None
    observed = np.empty((S, R, T, P)) if keep_runs else None

    losses = game_ops.path_losses(game, game_ops.edge_flows(game, x))
    for t in range(T):
        loss_hat = losses + sigmas[:, None] * noise[t]
        scaled = weights * loss_hat
        if not np.all(np.isfinite(scaled)):
            raise ValueError("non-finite loss entries")
        step = rates[t] * scaled
        if entropic.size:
            logits -= step[entropic]
            x[entropic] = block_softmax(logits, sizes, axis=1)
        if euclidean.size:
            x[euclidean] = block_projection(x[euclidean] - step[euclidean], sizes, axis=1)
        phi = game_ops.edge_flows(game, x)
        losses = game_ops.path_losses(game, phi)
        potentials[:, :, t] = game_ops.potential_from_flows(game, phi)
        gaps[:, :, t] = game_ops.gap_from_losses(game, x, losses)
        # A cumulative sum adds the runs one by one, in run order, as a sum of the records does.
        flow_sum[:, t] = np.cumsum(x, axis=-1)[..., -1].transpose(2, 0, 1)
        if keep_runs:
            allocations[:, :, t] = x.transpose(2, 3, 0, 1)
            observed[:, :, t] = loss_hat.transpose(1, 2, 0)
    records = [
        [RunRecord(potentials[i, r], gaps[i, r], allocations[i, r], observed[i, r], s)
         for r, s in enumerate(seeds)] if keep_runs else None
        for i in range(S)
    ]
    return [EnsembleRuns(potentials[i], gaps[i], flow_sum[i], records[i]) for i in range(S)]


def simulate_runs(cfg: SimulationConfig, seeds: list, keep_runs: bool = False) -> EnsembleRuns:
    """Advance one run per seed at ``cfg.sigma``: a :func:`simulate_sweep` of one sigma."""
    return simulate_sweep(cfg, [cfg.sigma], seeds, keep_runs)[0]


def run_trajectory(cfg: SimulationConfig, seed) -> RunRecord:
    """Simulate one run; fully determined by the config and the seed."""
    return simulate_runs(cfg, [seed], keep_runs=True).records[0]


def fit_loglog_slope(iterations: np.ndarray, values: np.ndarray, window: tuple[int, int]) -> float:
    """Least-squares slope of log(values) against log(iterations) in a window."""
    lo, hi = window
    mask = (iterations >= lo) & (iterations <= hi)
    if mask.sum() < 2:
        raise ValueError(f"slope window {window} selects fewer than two iterations")
    safe = np.clip(values[mask], 1e-300, None)
    return float(np.polyfit(np.log(iterations[mask]), np.log(safe), 1)[0])


def run_seeds(seed: int, runs: int) -> list[np.random.SeedSequence]:
    """Per-run seed substreams: ``SeedSequence(seed).spawn(runs)``."""
    return np.random.SeedSequence(seed).spawn(runs)


def monte_carlo(
    cfg: SimulationConfig,
    equilibrium: Equilibrium | None = None,
    records: EnsembleRuns | list[RunRecord] | None = None,
) -> EnsembleStats:
    """Replicate the trajectory over independent seeds and aggregate.

    All runs advance in one :func:`simulate_runs` call seeded by
    :func:`run_seeds`, so runs are independent yet the whole ensemble is
    reproducible.  The potential reference value comes from a gap-certified
    equilibrium solve, shared across noise levels when passed in.
    Precomputed runs (one noise level of a :func:`simulate_sweep`, or a list
    of run records) skip the simulation pass.
    """
    if equilibrium is None:
        equilibrium = solve_equilibrium(cfg.game)
    if records is None:
        records = simulate_runs(cfg, run_seeds(cfg.seed, cfg.runs))
    elif not isinstance(records, EnsembleRuns):
        records = EnsembleRuns(np.stack([r.potentials for r in records]),
                               np.stack([r.gaps for r in records]),
                               sum(r.allocations for r in records), records)
    f_runs = records.potentials
    if len(f_runs) != cfg.runs:
        raise ValueError(f"expected {cfg.runs} run records, got {len(f_runs)}")

    iterations = np.arange(1, cfg.horizon + 1)
    window = cfg.slope_window or (max(1, cfg.horizon // 4), cfg.horizon)
    f_mean = f_runs.mean(axis=0)
    slope = fit_loglog_slope(iterations, f_mean - equilibrium.potential, window)
    return EnsembleStats(
        iterations=iterations,
        f_mean=f_mean,
        f_std=f_runs.std(axis=0),
        gap_mean=records.gaps.mean(axis=0),
        flow_mean=records.flow_sum / cfg.runs,
        f_star=equilibrium.potential,
        equilibrium=equilibrium,
        slope=slope,
        slope_window=window,
        sigma=cfg.sigma,
        runs=cfg.runs,
        seed=cfg.seed,
    )


def check_suboptimality_bound(cfg: SimulationConfig, stats: EnsembleStats) -> dict:
    """Compare realized final-iterate suboptimality against the theory bound.

    The noise second moment is bounded by ``total_paths * (M^2 + sigma^2)``
    with ``M`` the uniform loss bound; noise coordinates are independent
    and the dual norm is dominated by the full euclidean norm.
    """
    loss_sup = loss_sup_bound(cfg.game)
    noise_bound = cfg.game.total_paths * (loss_sup**2 + cfg.sigma * cfg.sigma)
    bound = suboptimality_bound(cfg.geometries, cfg.schedules, noise_bound, cfg.horizon)
    realized = float(stats.f_mean[-1] - stats.f_star)
    return {
        "noise_bound": noise_bound,
        "bound": bound,
        "realized": realized,
        "ok": realized <= 3.0 * bound,
    }


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Write per-iteration ensemble statistics as RFC-4180 CSV.

    Columns: ``t, f_mean, f_std, gap_mean`` then ``flow[k][p]`` for every
    population ``k`` and concatenated path index ``p``.
    """
    _, n_pops, n_paths = stats.flow_mean.shape
    header = ["t", "f_mean", "f_std", "gap_mean"] + [
        f"flow[{k}][{p}]" for k in range(n_pops) for p in range(n_paths)
    ]
    values = np.column_stack([stats.f_mean, stats.f_std, stats.gap_mean,
                              stats.flow_mean.reshape(len(stats.iterations), -1)])
    rows = zip(stats.iterations.tolist(), values.tolist())
    write_csv(path, header, ([t, *row] for t, row in rows))


def write_run_csv(record: RunRecord, path) -> None:
    """Write one trajectory as RFC-4180 CSV.

    Columns: ``t, f, gap`` then ``flow[k][p]`` and the released noisy
    losses ``loss_hat[p]``.
    """
    horizon, n_pops, n_paths = record.allocations.shape
    header = (
        ["t", "f", "gap"]
        + [f"flow[{k}][{p}]" for k in range(n_pops) for p in range(n_paths)]
        + [f"loss_hat[{p}]" for p in range(n_paths)]
    )
    values = np.column_stack([record.potentials, record.gaps,
                              record.allocations.reshape(horizon, -1), record.observed_losses])
    write_csv(path, header, ([t, *row] for t, row in enumerate(values.tolist(), 1)))


def write_csv(path, header: list, rows) -> None:
    """Write ``header`` and then ``rows`` as RFC-4180 CSV.

    ``csv.writer`` writes a Python float (what ``tolist`` gives) as its
    ``repr``: the shortest string that reads back as the same float.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def stats_summary(stats: EnsembleStats) -> dict:
    """Manifest-ready summary of an ensemble (no per-iteration arrays)."""
    return {
        "sigma": stats.sigma,
        "runs": stats.runs,
        "seed": stats.seed,
        "f_star": stats.f_star,
        "equilibrium_gap": stats.equilibrium.gap,
        "equilibrium_iterations": stats.equilibrium.iterations,
        "slope": stats.slope,
        "slope_window": list(stats.slope_window),
        "terminal_f_mean": float(stats.f_mean[-1]),
        "terminal_gap_mean": float(stats.gap_mean[-1]),
    }
