from __future__ import annotations

from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from privroute.config import build_dynamics_from_config, build_game_from_config, load_config
from privroute.dynamics import block_softmax
from privroute.game import (
    GameInstance,
    build_game,
    edge_flows,
    gap_from_losses,
    path_losses,
    potential_from_flows,
    uniform_allocation,
)
from privroute.network import block_slices, build_network
from privroute.sim import RunRecord, simulate_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
SIMPLEX_TOL = 1e-12


def make_pigou() -> GameInstance:
    net = build_network(
        {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    )
    return build_game(net, [[1.0, 0.0], [0.0, 1.0]], [[1.0]])


def random_game(rng: np.random.Generator, n_populations: int | None = None) -> GameInstance:
    """A random small instance from a family of solvable topologies."""
    kind = rng.integers(0, 3)
    if kind == 0:
        n_links = int(rng.integers(2, 5))
        spec = {
            "nodes": ["s", "t"],
            "edges": [["s", "t"]] * n_links,
            "od_pairs": [["s", "t"]],
        }
    elif kind == 1:
        spec = {
            "nodes": ["s", "a", "b", "t"],
            "edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"], ["a", "b"]],
            "od_pairs": [["s", "t"]],
        }
    else:
        spec = {
            "nodes": ["s", "a", "b", "t"],
            "edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"], ["s", "t"]],
            "od_pairs": [["s", "t"], ["a", "t"]],
        }
    net = build_network(spec)
    costs = [[rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.5)] for _ in net.edges]
    k = n_populations if n_populations is not None else int(rng.integers(1, 3))
    masses = rng.uniform(0.0, 1.5, size=(k, net.num_od_pairs))
    return build_game(net, costs, masses)


def random_allocation(rng: np.random.Generator, game: GameInstance) -> np.ndarray:
    """Strictly positive feasible allocation drawn from per-block Dirichlets."""
    rows = []
    for _ in range(game.num_populations):
        blocks = [rng.dirichlet(np.ones(n)) + 1e-9 for n in game.block_sizes]
        row = np.concatenate([b / b.sum() for b in blocks])
        rows.append(row)
    return np.array(rows)


def validate_allocation(game: GameInstance, x: np.ndarray, tol: float = SIMPLEX_TOL) -> None:
    """Check shape, nonnegativity, and per-block normalization of ``x``."""
    x = np.asarray(x)
    expected = (game.num_populations, game.total_paths)
    if x.shape != expected:
        raise ValueError(f"allocation shape {x.shape} does not match {expected}")
    if np.any(x < -tol):
        raise ValueError("allocation has negative entries")
    for s in block_slices(game.block_sizes):
        sums = x[:, s].sum(axis=1)
        if np.any(np.abs(sums - 1.0) > max(tol, 1e-9)):
            raise ValueError(f"allocation block {s} does not sum to one: {sums}")


def sweep_with_records(cfg, sigmas, seeds, sweep=simulate_sweep):
    """``sweep``'s result and ``records[i][r]``, sigma ``i``'s run ``r`` in full.

    ``sweep(cfg, sigmas, seeds, on_chunk)`` is ``simulate_sweep`` unless given.
    The records are collected through the sweep's chunk hook: each chunk's
    views are copied (``astuple`` copies arrays) before the next chunk reuses
    their buffers, and each chunk must start where the one before it stopped.
    """
    chunks = []

    def collect(start, records):
        held = sum(len(chunk[0][0][0]) for chunk in chunks)  # sigma 0, run 0, potentials
        assert start == held, (start, held)
        chunks.append([[astuple(record) for record in runs] for runs in records])

    ensembles = sweep(cfg, sigmas, seeds, collect)
    records = [[RunRecord(*map(np.concatenate, zip(*(chunk[i][r] for chunk in chunks))))
                for r in range(len(seeds))] for i in range(len(ensembles))]
    return ensembles, records


def gradient_smoothness(game: GameInstance) -> float:
    """Upper bound on the Lipschitz constant of the potential gradient."""
    lam = game.max_slope
    if lam == 0.0 or game.total_mass == 0.0:
        return 0.0
    spectral = np.linalg.norm(game.paths.incidence, 2)
    mass_sq = float(np.sum(game.masses.max(axis=1) ** 2))
    return lam * spectral**2 * mass_sq


def fixed_step_potential(game: GameInstance, tol: float, max_iter: int = 500_000) -> float:
    """Oracle: the potential that entropic mirror descent at the worst-case fixed
    step ``1 / gradient_smoothness`` reaches once the Nash gap is at most ``tol``."""
    smoothness = gradient_smoothness(game)
    eta = 1.0 / smoothness if smoothness > 0 else 1.0
    logits = np.log(uniform_allocation(game))
    for _ in range(max_iter + 1):
        x = block_softmax(logits, game.block_sizes)
        phi = edge_flows(game, x)
        losses = path_losses(game, phi)
        if gap_from_losses(game, x, losses) <= tol:
            return potential_from_flows(game, phi)
        logits -= eta * game.path_weights() * losses[None, :]
    raise AssertionError(f"the fixed-step oracle missed tol {tol} in {max_iter} iterations")


@pytest.fixture(scope="session")
def pigou_game() -> GameInstance:
    return make_pigou()


@pytest.fixture(scope="session")
def standin_config() -> dict:
    return load_config(CONFIG_DIR / "two_od.json")


@pytest.fixture(scope="session")
def standin_game(standin_config) -> GameInstance:
    return build_game_from_config(standin_config)


@pytest.fixture(scope="session")
def standin_dynamics(standin_config, standin_game):
    return build_dynamics_from_config(standin_config, standin_game.paths)
