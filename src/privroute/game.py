"""Routing-game evaluation: edge flows, path losses, potential, equilibrium."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network, PathSet, block_slices, enumerate_paths

__all__ = [
    "EQUILIBRIUM_TOL",
    "MAX_ITERATIONS",
    "EquilibriumError",
    "Equilibrium",
    "GameInstance",
    "build_game",
    "edge_flows",
    "gap_from_losses",
    "loss_sup_bound",
    "nash_gap",
    "path_losses",
    "potential_from_flows",
    "potential_gradient",
    "solve_equilibrium",
    "uniform_allocation",
]

EQUILIBRIUM_TOL = 1e-8  # the Nash gap every equilibrium solve stops at by default
MAX_ITERATIONS = 500_000  # the steps a solve may take before it fails; read at each call


class EquilibriumError(RuntimeError):
    """Equilibrium solve ran out of iterations, met a NaN Nash gap or a failed step search."""


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A routing game: network, path structure, edge costs, population masses.

    ``costs`` has one ``[slope, intercept]`` row per edge: edge ``j`` costs
    ``slope * u + intercept`` at flow ``u``.  ``masses`` has one row per
    population and one column per OD pair; each entry is the traffic mass
    that population routes on that OD pair.  ``mass_bound`` is the
    common-knowledge sup-norm bound on every row.  Both arrays are read-only.
    """

    network: Network
    paths: PathSet
    costs: np.ndarray
    masses: np.ndarray
    mass_bound: float
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weights = np.repeat(self.masses, self.block_sizes, axis=1)
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)

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
        """Per-population masses expanded over the concatenated path axis (read-only)."""
        return self._weights

    @property
    def max_slope(self) -> float:
        """Largest edge-cost slope: the Lipschitz constant of every edge cost."""
        return float(self.costs[:, 0].max(initial=0.0))


def _float_array(values, name: str, layout: str) -> np.ndarray:
    """``values`` as a float array; a ragged or non-numeric input is one error naming it."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be {layout} of numbers, got a ragged or "
                         "non-numeric input") from None


def build_game(network: Network, costs, masses, mass_bound: float | None = None) -> GameInstance:
    """Assemble and validate a :class:`GameInstance` over every simple path of ``network``.

    ``costs`` holds one ``[slope, intercept]`` row per edge, both finite and
    nonnegative.  No mass entry may exceed ``mass_bound``, which defaults to the largest.
    """
    paths = enumerate_paths(network)
    costs = _float_array(costs, "costs", f"{network.num_edges} [slope, intercept] rows")
    if costs.shape != (network.num_edges, 2):
        raise ValueError(
            f"expected {network.num_edges} edge costs as [slope, intercept] rows, "
            f"got shape {costs.shape}"
        )
    if not np.isfinite(costs).all():
        raise ValueError("affine cost coefficients must be finite")
    if (costs < 0).any():
        raise ValueError("affine cost coefficients must be nonnegative")
    masses = _float_array(masses, "masses", "a populations x od_pairs array")
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
    elif peak > mass_bound:
        raise ValueError(f"mass entry {peak} exceeds the declared bound {mass_bound}")
    costs.setflags(write=False)
    masses.setflags(write=False)
    return GameInstance(
        network=network, paths=paths, costs=costs, masses=masses, mass_bound=float(mass_bound)
    )


def uniform_allocation(game: GameInstance) -> np.ndarray:
    """Every population splits each OD's unit uniformly over its paths."""
    row = np.concatenate([np.full(n, 1.0 / n) for n in game.block_sizes])
    return np.tile(row, (game.num_populations, 1))


def _shaped(values, shape: tuple, name: str) -> np.ndarray:
    """``values`` as a float array of exactly ``shape``; any other is one error naming it."""
    a = np.asarray(values, float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    return a


def _contract(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix @ v`` over the leading axis of ``v``, keeping its batch axes."""
    return (matrix @ v.reshape(len(v), -1)).reshape(matrix.shape[:1] + v.shape[1:])


# The kernels: each formula once, with batch axes that trail: allocations are
# ``(K, P, ...)``, edge flows ``(E, ...)`` and path losses ``(P, ...)``, so every sum
# runs over a leading axis across the contiguous batch, each batch column alone, and
# coefficient columns such as ``(E, 1, ...)`` broadcast over it.  They check and
# reshape nothing.  ``sim.simulate_sweep`` calls them with its ``(..., sigmas, runs)``
# shapes built once, before its step loop; the public helpers below take one
# allocation, check its shape and call them.
def _edge_flows(incidence: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """Edge flows ``(E, ...)`` of mass-weighted allocations ``weighted = w * x`` ``(K, P, ...)``."""
    total = weighted[0]
    for row in weighted[1:]:  # a running sum in population order
        total = total + row
    return _contract(incidence, total)


def _path_losses(incidence_t: np.ndarray, slope, intercept, phi: np.ndarray) -> np.ndarray:
    """Path losses ``(P, ...)`` at edge flows ``phi``: each path sums its edges' costs."""
    return _contract(incidence_t, slope * phi + intercept)


def _potential(half_slope, intercept, phi: np.ndarray):
    """Congestion potential at edge flows ``phi`` ``(E, ...)``, as a ``(...)`` array."""
    total = half_slope * phi  # half_slope * phi * phi + intercept * phi, in place
    total *= phi
    total += intercept * phi
    return total.sum(axis=0)


def _gap(weighted: np.ndarray, losses: np.ndarray, blocks, masses) -> np.ndarray:
    """Nash gap ``(...)`` of ``weighted = w * x`` at ``losses``; ``masses`` is ``(K, OD, ...)``."""
    current = (weighted * losses).sum(axis=(0, 1))
    block_min = np.empty((len(blocks),) + losses.shape[1:])
    for i, s in enumerate(blocks):
        losses[s].min(axis=0, keepdims=True, out=block_min[i:i + 1])
    best = (masses * block_min).sum(axis=(0, 1))
    return np.maximum(current - best, 0.0)


def edge_flows(game: GameInstance, x: np.ndarray) -> np.ndarray:
    """Mass-weighted aggregation of an allocation ``(K, P)`` into edge flows ``(E,)``."""
    x = _shaped(x, (game.num_populations, game.total_paths), "allocation")
    return _edge_flows(game.paths.incidence, game.path_weights() * x)


def path_losses(game: GameInstance, phi: np.ndarray) -> np.ndarray:
    """Per-path travel costs ``(P,)``: each path sums its edges' costs at flows ``phi`` ``(E,)``."""
    phi = _shaped(phi, (game.network.num_edges,), "edge flows")
    slope, intercept = game.costs.T
    return _path_losses(game.paths.incidence.T, slope, intercept, phi)


def loss_sup_bound(game: GameInstance) -> float:
    """Uniform bound on any path loss over all feasible allocations.

    Costs are nondecreasing, so routing the entire mass of every
    population over a single path is the worst case; evaluating all edges
    at the total mass and taking the costliest path is an upper bound.
    """
    return float(np.max(path_losses(game, np.full(game.network.num_edges, game.total_mass))))


def potential_from_flows(game: GameInstance, phi: np.ndarray) -> float:
    """Congestion potential at edge flows ``(E,)``."""
    phi = _shaped(phi, (game.network.num_edges,), "edge flows")
    slope, intercept = game.costs.T
    return float(_potential(0.5 * slope, intercept, phi))


def potential_gradient(game: GameInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the potential: mass-scaled path losses, one row per population."""
    losses = path_losses(game, edge_flows(game, x))
    return game.path_weights() * losses[None, :]


def gap_from_losses(game: GameInstance, x: np.ndarray, losses: np.ndarray) -> float:
    """Nash gap of an allocation ``(K, P)`` at path losses ``(P,)``."""
    x = _shaped(x, (game.num_populations, game.total_paths), "allocation")
    losses = _shaped(losses, (game.total_paths,), "path losses")
    weighted = game.path_weights() * x
    return float(_gap(weighted, losses, block_slices(game.block_sizes), game.masses))


def nash_gap(game: GameInstance, x: np.ndarray) -> float:
    """Total incentive to deviate; zero exactly at equilibrium.

    Each population compares its current mass-weighted cost against
    rerouting every OD's mass onto that OD's cheapest path, holding the
    losses fixed.
    """
    losses = path_losses(game, edge_flows(game, x))
    return gap_from_losses(game, x, losses)


@dataclass(frozen=True, eq=False)
class Equilibrium:
    allocation: np.ndarray
    potential: float
    gap: float
    iterations: int


def solve_equilibrium(game: GameInstance, tol: float = EQUILIBRIUM_TOL) -> Equilibrium:
    """Minimize the potential over the allocation polytope to a gap certificate.

    Entropic mirror descent on exact losses, in the log domain, from the
    uniform allocation; it stops once :func:`nash_gap` (an upper bound on the
    potential suboptimality) is at most ``tol``.  The step ``eta`` starts at 1,
    doubles after each accepted step and halves on each rejection; a step is
    accepted when ``D_f(x+, x) <= KL(x+ || x) / eta`` (relative smoothness).
    Both sides are sums of nonnegative terms: affine costs make ``D_f`` exactly
    ``0.5 sum_j slope_j dphi_j**2`` in the edge-flow change ``dphi``, and the KL
    sums ``x ((1 + u) d - u)`` over ``d = log x+ - log x``, ``u = expm1(d)``, so
    no difference of potentials is lost to roundoff near the optimum.  A NaN
    gap, a non-finite step test, an ``eta`` that underflows or ``MAX_ITERATIONS``
    steps without reaching ``tol`` raise :class:`EquilibriumError`.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    weights, sizes, slope = game.path_weights(), game.block_sizes, game.costs[:, 0]
    starts = [s.start for s in block_slices(sizes)]
    x = uniform_allocation(game)
    log_x, phi, eta = np.log(x), edge_flows(game, x), 1.0
    for it in range(MAX_ITERATIONS + 1):
        losses = path_losses(game, phi)
        gap = gap_from_losses(game, x, losses)
        if gap <= tol:
            return Equilibrium(x, potential_from_flows(game, phi), gap, it)
        if np.isnan(gap):
            raise EquilibriumError(f"the Nash gap is NaN at iteration {it}")
        if it == MAX_ITERATIONS:
            raise EquilibriumError(f"no equilibrium within {MAX_ITERATIONS} iterations "
                                   f"(gap {gap:.3e} > tol {tol:.1e})")
        while True:
            z = log_x - eta * weights * losses
            log_y = z - np.repeat(np.logaddexp.reduceat(z, starts, axis=1), sizes, axis=1)
            y = np.exp(log_y)
            phi_y = edge_flows(game, y)
            d = log_y - log_x
            u = np.expm1(d)
            curvature = 0.5 * np.sum(slope * (phi_y - phi) ** 2)
            kl = np.sum(x * ((1 + u) * d - u))
            if not np.isfinite(curvature + kl):  # both are sums of nonnegative terms
                raise EquilibriumError(f"the step test is not finite at iteration {it}")
            if curvature <= kl / eta:
                break
            eta /= 2
            if eta == 0.0:
                raise EquilibriumError(f"the step size underflowed at iteration {it}")
        log_x, x, phi, eta = log_y, y, phi_y, 2 * eta
