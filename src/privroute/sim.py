"""Monte Carlo simulation of noisy mirror-descent routing dynamics."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass

import numpy as np

from . import game as game_ops
from .dynamics import BregmanGeometry, LearningSchedule, block_projection, block_softmax
from .dynamics import suboptimality_bound
from .game import Equilibrium, GameInstance, loss_sup_bound
from .network import block_slices
from .output import write_csv, write_manifest  # write_manifest: re-exported for library callers

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
    "simulate_sweep",
    "write_ensemble_csv",
    "write_manifest",
    "write_run_csv",
]


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """One experiment: a game, per-population dynamics, noise, and replication.

    ``sigma = 0`` runs the deterministic dynamics.  Each run draws one
    noise vector per iteration, observed identically by all populations.
    """

    game: GameInstance
    geometries: tuple[BregmanGeometry, ...]
    schedules: tuple[LearningSchedule, ...]
    sigma: float
    horizon: int
    runs: int
    seed: int

    def __post_init__(self) -> None:
        k = self.game.num_populations
        if len(self.geometries) != k or len(self.schedules) != k:
            raise ValueError("one geometry and one schedule per population are required")
        for geom in self.geometries:
            if geom.block_sizes != self.game.block_sizes:
                raise ValueError("geometry block structure does not match the game")
        _check_sigmas(self.sigma)
        if self.horizon < 1 or self.runs < 1:
            raise ValueError("horizon and run count must be at least one")


def _check_sigmas(sigmas) -> np.ndarray:
    """``sigmas`` as a float array, refused unless every entry is finite and nonnegative."""
    sigmas = np.asarray(sigmas, float)
    if not np.all(np.isfinite(sigmas) & (sigmas >= 0)):
        raise ValueError("noise standard deviation must be finite and nonnegative")
    return sigmas


@dataclass(frozen=True, eq=False)
class RunRecord:
    """A run's steps: post-update states and the observations that drove them.

    Row ``t`` holds the potential, gap, and allocation after ``start + t + 1``
    updates, ``start`` being the first step held (0 for a whole run), plus the
    noisy loss vector observed at the state preceding that update.
    """

    potentials: np.ndarray
    gaps: np.ndarray
    allocations: np.ndarray
    observed_losses: np.ndarray


@dataclass(frozen=True, eq=False)
class EnsembleRuns:
    """The runs of one noise level, reduced over runs, as :func:`simulate_sweep` returns them.

    Every reduction adds the runs one by one, in run order.
    """

    f_mean: np.ndarray  # (T,)
    f_std: np.ndarray  # (T,)
    gap_mean: np.ndarray  # (T,)
    flow_mean: np.ndarray  # (T, populations, paths): the allocations' mean over runs
    runs: int


@dataclass(frozen=True, eq=False)
class EnsembleStats(EnsembleRuns):
    """One noise level's :class:`EnsembleRuns` and the fit of its mean potential's decay."""

    equilibrium: Equilibrium
    slope: float
    slope_window: tuple[int, int]


_STEP_CHUNK = 50  # steps whose noise is drawn together, and that a chunk hook is handed at once


def _reduce_runs(potentials: np.ndarray, gaps: np.ndarray, allocations: np.ndarray) -> tuple:
    """:class:`EnsembleRuns`' four fields from arrays whose last axis is the runs.

    Each mean is a running sum over the runs divided by their count, and the
    std is the potentials' as ``np.std`` computes it.  A running sum adds the
    runs in run order for every shape, where ``np.mean`` would sum a
    contiguous last axis pairwise and give other bytes.
    """
    def mean(a: np.ndarray) -> np.ndarray:
        return np.add.accumulate(a, axis=-1)[..., -1] / a.shape[-1]

    f_mean = mean(potentials)
    deviations = potentials - f_mean[..., None]
    return f_mean, np.sqrt(mean(deviations * deviations)), mean(gaps), mean(allocations)


def simulate_sweep(
    cfg: SimulationConfig, sigmas, seeds: Sequence, on_chunk: Callable | None = None
) -> list[EnsembleRuns]:
    """Advance one run per (sigma, seed) pair, all together; one EnsembleRuns per sigma.

    ``sigmas`` replaces ``cfg.sigma``.  Run ``r`` draws its noise from
    ``default_rng(seeds[r])``, one ``(steps, paths)`` block per chunk of steps
    (the same numbers as ``T`` successive draws of one vector), and every sigma
    scales those draws.  Entropic populations are held as logits and euclidean
    ones as iterates, as ``(populations, paths, sigmas, runs)`` arrays.  On one
    BLAS kernel, a batch of two or more (sigma, run) columns gives each column
    the same bytes; a one-column batch, or another kernel, can differ in the
    last bits.  Each step's allocations, potentials and gaps are reduced over
    runs, their last axis, as the step ends, so the state does not grow with
    ``T`` beyond the per-step means and the potentials' std.
    ``on_chunk(start, records)`` is called as each chunk ends, ``records[i][r]``
    being sigma ``i``'s run ``r`` over steps ``start + 1..``: a :class:`RunRecord`
    of views of chunk-wide buffers that the next chunk reuses, so copy what is kept.
    """
    return _sweep(cfg, sigmas, seeds, on_chunk, cfg.game.masses[..., None, None],
                  lambda t, losses, noise: (losses + noise,) * 2)  # released, and learned from


def _sweep(cfg, sigmas, seeds, on_chunk, masses, release):
    """:func:`simulate_sweep` with ``masses`` ``(K, OD, sigmas or 1, runs or 1)`` and with
    ``release(t, losses, sigma * noise)`` giving step ``t``'s released and learned-from vectors."""
    game, T, R, P = cfg.game, cfg.horizon, len(seeds), cfg.game.total_paths
    sigmas = _check_sigmas(sigmas)
    S, K, sizes = len(sigmas), game.num_populations, game.block_sizes
    kinds = np.array([g.kind for g in cfg.geometries])
    entropic, euclidean = np.flatnonzero(kinds == "entropic"), np.flatnonzero(kinds == "euclidean")
    # One array call per schedule, as the accountant makes, so both see the same rounding.
    rates = np.stack([s.rate(np.arange(T)) for s in cfg.schedules], 1)[..., None, None, None]
    # The kernels' coefficients, spread once from their last two axes over the (sigmas,
    # runs) batch: numpy multiplies two arrays of one shape faster than an array and a
    # broadcast column.
    def spread(a: np.ndarray) -> np.ndarray:
        return np.broadcast_to(a, a.shape[:-2] + (S, R)).copy()

    weights, masses = spread(np.repeat(masses, sizes, axis=1)), spread(masses)
    slope, intercept = spread(game.costs.T[..., None, None])
    half_slope, scale = 0.5 * slope, sigmas[:, None]
    incidence, blocks = game.paths.incidence, block_slices(sizes)
    incidence_t = incidence.T
    rngs = [np.random.default_rng(seed) for seed in seeds]

    width = min(_STEP_CHUNK, T)
    noise = np.empty((R, width, P))  # runs first: each generator draws straight into its block
    # Per step, EnsembleRuns' fields for every sigma; with a hook, a chunk of RunRecord's.
    reduced = [np.empty((T,) + shape) for shape in ((S,), (S,), (S,), (K, P, S))]
    if on_chunk:
        hooked = [np.empty((width,) + shape + (S, R)) for shape in ((), (), (K, P), (P,))]
    x = np.tile(game_ops.uniform_allocation(game)[:, :, None, None], (1, 1, S, R))
    logits = np.log(x[entropic])

    losses = game_ops._path_losses(incidence_t, slope, intercept,
                                   game_ops._edge_flows(incidence, weights * x))
    for start in range(0, T, width):
        steps = min(width, T - start)
        for rng, block in zip(rngs, noise):
            rng.standard_normal((steps, P), out=block[:steps])
        # A (steps, paths, 1, runs) view of the draw; each step scales its own slice,
        # so no sigmas-fold copy of the chunk's noise is ever held.
        drawn = noise[:, :steps, :, None].transpose(1, 2, 3, 0)
        for t in range(start, start + steps):
            released, learned = release(t, losses, scale * drawn[t - start])
            scaled = weights * learned
            if not np.isfinite(scaled).all():
                raise ValueError("non-finite loss entries")
            step = rates[t] * scaled
            if entropic.size:
                logits -= step[entropic]
                x[entropic] = block_softmax(logits, sizes, axis=1)
            if euclidean.size:
                x[euclidean] = block_projection(x[euclidean] - step[euclidean], sizes, axis=1)
            weighted = weights * x
            phi = game_ops._edge_flows(incidence, weighted)
            losses = game_ops._path_losses(incidence_t, slope, intercept, phi)
            outputs = (game_ops._potential(half_slope, intercept, phi),
                       game_ops._gap(weighted, losses, blocks, masses), x)
            for table, value in zip(reduced, _reduce_runs(*outputs)):
                table[t] = value
            if on_chunk:
                for buffer, value in zip(hooked, outputs + (released,)):
                    buffer[t - start] = value
        if on_chunk:
            on_chunk(start, [[RunRecord(*(h[:steps, ..., i, r] for h in hooked))
                              for r in range(R)] for i in range(S)])
    return [EnsembleRuns(*(table[..., i] for table in reduced), R) for i in range(S)]


def run_trajectory(cfg: SimulationConfig, seed) -> RunRecord:
    """Simulate one run; fully determined by the config and the seed."""
    chunks = []  # astuple copies each chunk's views before the sweep reuses their buffers
    simulate_sweep(cfg, [cfg.sigma], [seed], lambda _, runs: chunks.append(astuple(runs[0][0])))
    return RunRecord(*map(np.concatenate, zip(*chunks)))


def fit_loglog_slope(values: np.ndarray, window: tuple[int, int]) -> float:
    """Least-squares slope of log(values[t - 1]) against log(t), for t = 1.. in a window."""
    iterations = np.arange(1, len(values) + 1)
    lo, hi = window
    mask = (iterations >= lo) & (iterations <= hi)
    if mask.sum() < 2:
        raise ValueError(f"slope window {window} selects fewer than two iterations")
    x = np.log(iterations[mask])
    y = np.log(np.clip(values[mask], 1e-300, None))
    if not np.isfinite(y).all():
        raise ValueError(f"the values to fit in slope window {window} are not all finite")
    x, y = x - x.mean(), y - y.mean()
    return float((x * y).sum() / (x * x).sum())


class _RunSeeds(Sequence):
    """Child ``i`` of ``SeedSequence(seed).spawn(runs)``, made only when it is read."""

    def __init__(self, seed: int, runs: int) -> None:
        self._seed, self._keys = seed, range(runs)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self._seed, spawn_key=(self._keys[i],))


def run_seeds(seed: int, runs: int) -> Sequence[np.random.SeedSequence]:
    """Per-run seed substreams, the children of ``SeedSequence(seed).spawn(runs)``.

    Each is made when it is read, so a run count that no array can hold fails
    at the sweep's first allocation, not after spawning every child.
    """
    return _RunSeeds(seed, runs)


def monte_carlo(
    cfg: SimulationConfig,
    equilibrium: Equilibrium,
    records: EnsembleRuns | list[RunRecord] | None = None,
) -> EnsembleStats:
    """Replicate the trajectory over independent seeds and aggregate.

    All runs advance in one :func:`simulate_sweep` call seeded by
    :func:`run_seeds`, so runs are independent yet the whole ensemble is
    reproducible.  The potential reference value is ``equilibrium``'s, one
    gap-certified solve shared across noise levels.  Precomputed runs (one
    noise level of a :func:`simulate_sweep`, or a list of run records, reduced
    as the sweep reduces its runs) skip the simulation pass.
    The result is those runs' reductions plus the slope fit.
    """
    if records is None:
        records = simulate_sweep(cfg, [cfg.sigma], run_seeds(cfg.seed, cfg.runs))[0]
    elif not isinstance(records, EnsembleRuns):
        stacked = [np.stack([getattr(r, field) for r in records], -1)
                   for field in ("potentials", "gaps", "allocations")]
        records = EnsembleRuns(*_reduce_runs(*stacked), len(records))
    if records.runs != cfg.runs:
        raise ValueError(f"expected {cfg.runs} run records, got {records.runs}")

    window = (max(1, cfg.horizon // 4), cfg.horizon)  # the last three quarters
    fit = {"equilibrium": equilibrium, "slope_window": window,
           "slope": fit_loglog_slope(records.f_mean - equilibrium.potential, window)}
    return EnsembleStats(**vars(records) | fit)


def check_suboptimality_bound(cfg: SimulationConfig, stats: EnsembleStats) -> dict:
    """Compare realized final-iterate suboptimality against the theory bound.

    The noise second moment is bounded by ``total_paths * (M^2 + sigma^2)``
    with ``M`` the uniform loss bound; noise coordinates are independent
    and the dual norm is dominated by the full euclidean norm.
    """
    loss_sup = loss_sup_bound(cfg.game)
    noise_bound = cfg.game.total_paths * (loss_sup * loss_sup + cfg.sigma * cfg.sigma)
    bound = suboptimality_bound(cfg.geometries, cfg.schedules, noise_bound, cfg.horizon)
    realized = float(stats.f_mean[-1] - stats.equilibrium.potential)
    return {
        "noise_bound": noise_bound,
        "bound": bound,
        "realized": realized,
        "ok": realized <= 3.0 * bound,
    }


_CSV_BLOCK = 256  # rows stacked and made into Python floats at a time


def _numbered_rows(columns: list, start: int = 0):
    """``[t, *row]`` for t = start + 1.. over ``columns`` (1-D or 2-D) side by side, in blocks."""
    for first in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[first:first + _CSV_BLOCK] for c in columns])
        for t, row in enumerate(block.tolist(), start + first + 1):
            yield [t, *row]


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Write per-iteration ensemble statistics as RFC-4180 CSV.

    Columns: ``t, f_mean, f_std, gap_mean`` then ``flow[k][p]`` for every
    population ``k`` and concatenated path index ``p``.
    """
    horizon, n_pops, n_paths = stats.flow_mean.shape
    header = ["t", "f_mean", "f_std", "gap_mean"] + [
        f"flow[{k}][{p}]" for k in range(n_pops) for p in range(n_paths)
    ]
    write_csv(path, header, _numbered_rows([stats.f_mean, stats.f_std, stats.gap_mean,
                                            stats.flow_mean.reshape(horizon, -1)]))


def write_run_csv(record: RunRecord, path, start: int = 0) -> None:
    """Write one trajectory, or its steps ``start + 1..``, as RFC-4180 CSV.

    Columns: ``t, f, gap`` then ``flow[k][p]`` and the released noisy
    losses ``loss_hat[p]``.  A ``start`` above 0 appends the rows, with no header.
    """
    steps, n_pops, n_paths = record.allocations.shape
    header = (
        ["t", "f", "gap"]
        + [f"flow[{k}][{p}]" for k in range(n_pops) for p in range(n_paths)]
        + [f"loss_hat[{p}]" for p in range(n_paths)]
    ) if start == 0 else None
    write_csv(path, header, _numbered_rows([record.potentials, record.gaps,
                                            record.allocations.reshape(steps, -1),
                                            record.observed_losses], start))
