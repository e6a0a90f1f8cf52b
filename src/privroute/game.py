"""Routing-game evaluation: edge flows, path losses, potential, equilibrium."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import block_softmax
from .network import DEFAULT_PATH_CAP, Network, PathSet, enumerate_paths

__all__ = [
    "AffineCost",
    "EQUILIBRIUM_TOL",
    "EquilibriumError",
    "Equilibrium",
    "GameInstance",
    "GenericCost",
    "SIMPLEX_TOL",
    "build_game",
    "edge_flows",
    "gap_from_losses",
    "gradient_smoothness",
    "nash_gap",
    "path_losses",
    "potential",
    "potential_from_flows",
    "potential_gradient",
    "solve_equilibrium",
    "uniform_allocation",
    "validate_allocation",
    "weighted_inner",
]

SIMPLEX_TOL = 1e-12
EQUILIBRIUM_TOL = 1e-8  # the Nash gap every equilibrium solve stops at by default


class EquilibriumError(RuntimeError):
    """Equilibrium solve exhausted its iteration budget or met a NaN Nash gap."""


@dataclass(frozen=True)
class AffineCost:
    """Edge travel cost ``slope * u + intercept`` with both coefficients >= 0."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if self.slope < 0 or self.intercept < 0:
            raise ValueError("affine cost coefficients must be nonnegative")

    def value(self, u):
        return self.slope * u + self.intercept

    def integral(self, u):
        return 0.5 * self.slope * u * u + self.intercept * u

    @property
    def lipschitz(self) -> float:
        return self.slope


@dataclass(frozen=True)
class GenericCost:
    """Nondecreasing Lipschitz edge cost given by callables.

    ``antiderivative`` must be the closed-form integral of ``fn`` from 0;
    potential evaluation refuses to run without it rather than falling back
    to silent quadrature.  Monotonicity and the declared Lipschitz constant
    are spot-checked on the feasible flow range when a game is built.
    """

    fn: Callable[[float], float]
    lipschitz: float
    antiderivative: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.lipschitz < 0:
            raise ValueError("lipschitz constant must be nonnegative")

    def value(self, u):
        return self.fn(u)

    def integral(self, u):
        if self.antiderivative is None:
            raise ValueError("generic cost without antiderivative")
        return self.antiderivative(u)


EdgeCost = AffineCost | GenericCost


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A routing game: network, path structure, edge costs, population masses.

    ``masses`` has one row per population and one column per OD pair; each
    entry is the traffic mass that population routes on that OD pair.
    ``mass_bound`` is the common-knowledge sup-norm bound on every row.
    """

    network: Network
    paths: PathSet
    costs: tuple[EdgeCost, ...]
    masses: np.ndarray
    mass_bound: float
    incidence: np.ndarray  # stacked num_edges x total_paths matrix

    @property
    def num_populations(self) -> int:
        return self.masses.shape[0]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.paths.block_sizes

    @property
    def total_paths(self) -> int:
        return self.paths.total_paths

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def path_weights(self) -> np.ndarray:
        """Per-population masses expanded over the concatenated path axis."""
        return np.repeat(self.masses, self.block_sizes, axis=1)

    @cached_property
    def affine_coefficients(self) -> np.ndarray | None:
        """Rows of per-edge slopes and intercepts if every edge cost is affine, else None."""
        if all(isinstance(c, AffineCost) for c in self.costs):
            return np.array([[c.slope, c.intercept] for c in self.costs]).T
        return None


def build_game(
    network: Network,
    costs: Sequence[EdgeCost],
    masses,
    mass_bound: float | None = None,
    paths: PathSet | None = None,
    max_paths_per_od: int | None = None,
) -> GameInstance:
    """Assemble and validate a :class:`GameInstance`.

    ``mass_bound`` defaults to the largest mass entry.  Generic costs are
    spot-checked for monotonicity and for their declared Lipschitz constant
    on a grid of the feasible flow range ``[0, total mass]``.
    """
    if paths is None:
        paths = enumerate_paths(network, max_paths_per_od or DEFAULT_PATH_CAP)
    costs = tuple(costs)
    if len(costs) != network.num_edges:
        raise ValueError(
            f"expected {network.num_edges} edge costs, got {len(costs)}"
        )
    masses = np.array(masses, dtype=float)
    if masses.ndim != 2 or masses.shape[1] != network.num_od_pairs:
        raise ValueError(
            "masses must be a populations x od_pairs array, got shape "
            f"{masses.shape} for {network.num_od_pairs} OD pairs"
        )
    if not np.all(np.isfinite(masses) & (masses >= 0)):
        raise ValueError("population masses must be finite and nonnegative")
    peak = float(masses.max(initial=0.0))
    if mass_bound is None:
        mass_bound = peak
    elif peak > mass_bound + 1e-12:
        raise ValueError(f"mass entry {peak} exceeds the declared bound {mass_bound}")
    _spot_check_costs(costs, float(masses.sum()))
    masses.setflags(write=False)
    return GameInstance(
        network=network,
        paths=paths,
        costs=costs,
        masses=masses,
        mass_bound=float(mass_bound),
        incidence=np.concatenate(paths.incidence, axis=1),
    )


def _spot_check_costs(costs: tuple[EdgeCost, ...], total_mass: float) -> None:
    grid = np.linspace(0.0, max(total_mass, 1.0), 33)
    for j, cost in enumerate(costs):
        if isinstance(cost, AffineCost):
            continue
        values = np.array([float(cost.value(u)) for u in grid])
        diffs = np.diff(values)
        if np.any(diffs < -1e-9):
            raise ValueError(f"edge cost {j} is decreasing on the feasible range")
        ratios = np.abs(diffs) / np.diff(grid)
        if np.any(ratios > cost.lipschitz * (1 + 1e-6) + 1e-12):
            raise ValueError(
                f"edge cost {j} violates its declared Lipschitz constant {cost.lipschitz}"
            )


# Batch axes trail: allocations are ``(K, P, ...)``, edge flows ``(E, ...)`` and path
# losses ``(P, ...)``, so every sum runs over a leading axis across the contiguous
# batch, each batch column alone.  Generic cost callables are applied per entry.
def _lead(a: np.ndarray, ndim: int) -> np.ndarray:
    """``a`` with trailing singleton axes up to ``ndim``, to broadcast over a batch."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _contract(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix @ v`` over the leading axis of ``v``, keeping its batch axes."""
    if v.ndim <= 2:
        return matrix @ v
    return (matrix @ v.reshape(len(v), -1)).reshape(matrix.shape[:1] + v.shape[1:])


def _cost_values(game: GameInstance, phi: np.ndarray) -> np.ndarray:
    if game.affine_coefficients is not None:
        slope, intercept = _lead(game.affine_coefficients, phi.ndim + 1)
        return slope * phi + intercept
    return np.stack([np.vectorize(c.value, otypes=[float])(phi[j])
                     for j, c in enumerate(game.costs)])


def _cost_integrals(game: GameInstance, phi: np.ndarray):
    if game.affine_coefficients is not None:
        slope, intercept = _lead(game.affine_coefficients, phi.ndim + 1)
        total = (0.5 * slope * phi * phi + intercept * phi).sum(axis=0)
    else:
        total = sum(np.vectorize(c.integral, otypes=[float])(phi[j])
                    for j, c in enumerate(game.costs))
    return float(total) if np.ndim(total) == 0 else total


def uniform_allocation(game: GameInstance) -> np.ndarray:
    """Every population splits each OD's unit uniformly over its paths."""
    row = np.concatenate([np.full(n, 1.0 / n) for n in game.block_sizes])
    return np.tile(row, (game.num_populations, 1))


def validate_allocation(game: GameInstance, x: np.ndarray, tol: float = SIMPLEX_TOL) -> None:
    """Check shape, nonnegativity, and per-block normalization of ``x``."""
    x = np.asarray(x)
    expected = (game.num_populations, game.total_paths)
    if x.shape != expected:
        raise ValueError(f"allocation shape {x.shape} does not match {expected}")
    if np.any(x < -tol):
        raise ValueError("allocation has negative entries")
    for s in game.paths.block_slices():
        sums = x[:, s].sum(axis=1)
        if np.any(np.abs(sums - 1.0) > max(tol, 1e-9)):
            raise ValueError(f"allocation block {s} does not sum to one: {sums}")


def edge_flows(game: GameInstance, x: np.ndarray) -> np.ndarray:
    """Mass-weighted aggregation of allocations ``(K, P, ...)`` into edge flows ``(E, ...)``."""
    x = np.asarray(x, float)
    if x.shape[:2] != (game.num_populations, game.total_paths):
        raise ValueError(
            f"allocation shape {x.shape} does not match "
            f"({game.num_populations}, {game.total_paths}, ...)"
        )
    weighted = (_lead(game.path_weights(), x.ndim) * x).sum(axis=0)
    return _contract(game.incidence, weighted)


def path_losses(game: GameInstance, phi: np.ndarray) -> np.ndarray:
    """Per-path travel costs ``(P, ...)``: each path sums its edges' costs at flow ``phi``."""
    phi = np.asarray(phi, float)
    if phi.ndim < 1 or phi.shape[0] != game.network.num_edges:
        raise ValueError("flow vector length does not match the edge count")
    return _contract(game.incidence.T, _cost_values(game, phi))


def potential_from_flows(game: GameInstance, phi: np.ndarray):
    return _cost_integrals(game, np.asarray(phi, float))


def potential(game: GameInstance, x: np.ndarray) -> float:
    """Congestion potential: sum over edges of the cost antiderivative."""
    return potential_from_flows(game, edge_flows(game, x))


def potential_gradient(game: GameInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the potential: mass-scaled path losses, one row per population."""
    losses = path_losses(game, edge_flows(game, x))
    return game.path_weights() * losses[None, :]


def weighted_inner(x: np.ndarray, y: np.ndarray, theta, block_sizes: Sequence[int]) -> float:
    """Mass-weighted inner product: blocks are scaled by their OD mass."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    weights = np.repeat(np.asarray(theta, float), block_sizes)
    if x.shape != weights.shape or y.shape != weights.shape:
        raise ValueError("weighted_inner arguments do not match the block structure")
    return float(np.sum(weights * x * y))


def gap_from_losses(game: GameInstance, x: np.ndarray, losses: np.ndarray):
    """Nash gap of allocations ``(K, P, ...)`` at losses ``(P, ...)``: float or ``(...)`` array."""
    x = np.asarray(x, float)
    starts = [s.start for s in game.paths.block_slices()]
    block_min = np.minimum.reduceat(losses, starts, axis=0)
    current = (_lead(game.path_weights(), x.ndim) * x * losses).sum(axis=(0, 1))
    best = (_lead(game.masses, x.ndim) * block_min).sum(axis=(0, 1))
    gap = np.maximum(current - best, 0.0)
    return float(gap) if gap.ndim == 0 else gap


def nash_gap(game: GameInstance, x: np.ndarray) -> float:
    """Total incentive to deviate; zero exactly at equilibrium.

    Each population compares its current mass-weighted cost against
    rerouting every OD's mass onto that OD's cheapest path, holding the
    losses fixed.
    """
    losses = path_losses(game, edge_flows(game, x))
    return gap_from_losses(game, x, losses)


def gradient_smoothness(game: GameInstance) -> float:
    """Upper bound on the Lipschitz constant of the potential gradient."""
    lam = max((c.lipschitz for c in game.costs), default=0.0)
    if lam == 0.0 or game.total_mass == 0.0:
        return 0.0
    spectral = np.linalg.norm(game.incidence, 2)
    mass_sq = float(np.sum(game.masses.max(axis=1) ** 2))
    return lam * spectral**2 * mass_sq


@dataclass(frozen=True, eq=False)
class Equilibrium:
    allocation: np.ndarray
    potential: float
    gap: float
    iterations: int


def solve_equilibrium(
    game: GameInstance,
    tol: float = EQUILIBRIUM_TOL,
    max_iter: int = 500_000,
) -> Equilibrium:
    """Minimize the potential over the allocation polytope to a gap certificate.

    Runs deterministic entropic mirror descent on exact losses from the
    uniform allocation and stops once :func:`nash_gap` (which upper-bounds
    the potential suboptimality) drops to ``tol``, or at a NaN gap.  The step
    size is the inverse gradient-smoothness bound; iterates are kept in the log
    domain so long runs cannot underflow a path's weight into a hard zero.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    smoothness = gradient_smoothness(game)
    eta = 1.0 / smoothness if smoothness > 0 else 1.0

    weights, sizes = game.path_weights(), game.block_sizes
    logits = np.log(uniform_allocation(game))
    for it in range(max_iter + 1):
        x = block_softmax(logits, sizes)
        phi = edge_flows(game, x)
        losses = path_losses(game, phi)
        gap = gap_from_losses(game, x, losses)
        if gap <= tol:
            return Equilibrium(x, potential_from_flows(game, phi), gap, it)
        if np.isnan(gap):
            raise EquilibriumError(f"the Nash gap is NaN at iteration {it}")
        logits -= eta * weights * losses[None, :]
    raise EquilibriumError(
        f"no equilibrium within {max_iter} iterations (gap {gap:.3e} > tol {tol:.1e})"
    )
