"""Neighbouring worlds that learn from one release, checked against the per-release bound.

World A runs the config's masses.  Each neighbouring world shifts one population's
masses by ``+c`` and, where they stay nonnegative, by ``-c``: the README's adjacency.
Every world runs as one sigma column of one engine sweep, and all learn from the same
release: world A's mean loss plus noise at a corner of ``[-a, a]^P``, whose signs flip
every ``period`` releases.  Such a release lies inside the clip event that
``tail_delta`` conditions on, so the accountant's ``d_r`` must bound how far each
neighbour's mean losses lie from world A's at release ``r``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from privroute import privacy, sim
from privroute.config import build_dynamics_from_config, build_game_from_config, load_config
from privroute.dynamics import BregmanGeometry
from privroute.sim import SimulationConfig

from conftest import CONFIG_DIR

RADIUS = 1e-3
PERIODS = (50, 500)  # releases between sign flips; flips every 50 gave the worst ratios


def worst_ratio(name: str, geometry: str, horizon: int) -> tuple[float, int | None]:
    """The largest ``||l_A - l_B||_2 / d_r`` over every neighbour B and history, and the first
    release above 1."""
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    game = build_game_from_config(cfg)
    geometries, schedules = build_dynamics_from_config(cfg, game.paths)
    if geometry == "euclidean":
        geometries = tuple(BregmanGeometry("euclidean", game.block_sizes) for _ in geometries)
    clip = cfg["privacy"]["a"]
    worlds = [game.masses]  # world A, then its neighbours
    for k, shift in itertools.product(range(game.num_populations), (RADIUS, -RADIUS)):
        shifted = game.masses.copy()
        shifted[k] += shift
        if (shifted >= 0).all():
            worlds.append(shifted)
    masses = np.stack(worlds, -1)[..., None]  # (K, OD, worlds, 1)

    # One run per history: a corner of [-a, a]^P and a flip period.
    corners = np.array(list(itertools.product((-clip, clip), repeat=game.total_paths)))
    histories = list(itertools.product(corners, PERIODS))
    signs = np.stack([corner for corner, _ in histories], -1)  # (P, runs)
    periods = np.array([period for _, period in histories])

    def release(t, losses, noise):
        # Each world releases its own mean loss; all learn from world A's, plus the corner.
        return losses, losses[:, :1] + signs[:, None] * (-1.0) ** (t // periods)

    consts = privacy.SensitivityConstants.from_game(game, schedules)
    bound = privacy._sensitivities(consts, RADIUS, np.arange(1, horizon + 1),
                                   consts.clipped_loss_bound(clip))
    ratios = np.empty(horizon)

    def check(start, chunk):
        losses = chunk.observed_losses  # (steps, paths, worlds, runs)
        gaps = np.linalg.norm(losses[..., 1:, :] - losses[..., :1, :], axis=1)
        worst = gaps.max(axis=(-2, -1))  # the worst neighbour and history, per release
        ratios[start:start + len(worst)] = worst / bound[start:start + len(worst)]

    run_cfg = SimulationConfig(game, geometries, schedules, 0.0, horizon, len(histories), 0)
    sim._sweep(run_cfg, [0.0] * len(worlds), sim.run_seeds(0, len(histories)), check, masses,
               release)
    above = np.flatnonzero(ratios > 1.0)
    return float(ratios.max()), (int(above[0]) + 1 if above.size else None)


ITEM_20 = ("ROADMAP item 20: d_r covers one prox step, while the two worlds drift apart over "
           "every step")


@pytest.mark.parametrize("name, geometry, horizon", [
    ("two_od", "entropic", 2000),
    ("two_od", "euclidean", 2000),
    pytest.param("pigou", "entropic", 3000, marks=pytest.mark.xfail(strict=True, reason=ITEM_20)),
    pytest.param("pigou", "euclidean", 3000, marks=pytest.mark.xfail(strict=True, reason=ITEM_20)),
])
def test_two_worlds_stay_within_the_per_release_sensitivity(name, geometry, horizon):
    ratio, first = worst_ratio(name, geometry, horizon)
    assert first is None, f"||l_A - l_B|| / d_r reaches {ratio:.4f}, first above 1 at {first}"
