from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from privroute.config import build_dynamics_from_config, build_game_from_config, load_config
from privroute.game import GameInstance, build_game
from privroute.network import build_network

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


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
