"""The ``grid_per_run`` workload: a seeded grid game driven through the public API.

``make_config(seed)`` builds a bidirectional 3x4 grid (34 edges) with two
corner-to-corner OD pairs (38 simple paths each) and affine edge costs drawn
from ``seed``; one population is entropic and one euclidean.  The costs are a
fixed base draw perturbed by ``COST_JITTER`` from ``seed``: independent draws
made the solver's iteration count range from 22,600 to 49,900 over ten seeds,
so solver work, not the code, set the spread between seeds.  Run as a script,
this module follows the sequence ``privroute simulate --per-run`` follows,
with the equilibrium solved to ``TOL`` instead of the CLI's fixed 1e-8: at
1e-8 the solve takes about five times the iterations (184,440 for seed 1)
and would be most of the workload.

    python perfbench/grid.py --config grid.json --out outdir

Library calls go through module attributes (``sim.run_trajectory`` rather
than a name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROWS, COLS = 3, 4
TOL = 1e-3
RUNS, HORIZON, SIGMA = 40, 200, 0.1
SLOPE_RANGE = (0.5, 1.5)
INTERCEPT_RANGE = (0.0, 0.5)
BASE_COST_SEED = 1
COST_JITTER = 0.02  # relative; keeps solver iterations within a few percent


def _node(r: int, c: int) -> str:
    return f"r{r}c{c}"


def make_config(seed: int) -> dict:
    """A schema-valid experiment config whose costs and noise seed come from ``seed``."""
    base = np.random.default_rng(BASE_COST_SEED)
    jitter = np.random.default_rng(seed)
    nodes = [_node(r, c) for r in range(ROWS) for c in range(COLS)]
    edges = []
    for r in range(ROWS):
        for c in range(COLS):
            if c + 1 < COLS:
                edges += [[_node(r, c), _node(r, c + 1)], [_node(r, c + 1), _node(r, c)]]
            if r + 1 < ROWS:
                edges += [[_node(r, c), _node(r + 1, c)], [_node(r + 1, c), _node(r, c)]]
    costs = [
        {
            "affine": [
                round(float(base.uniform(*bounds) * (1 + COST_JITTER * jitter.uniform(-1, 1))), 4)
                for bounds in (SLOPE_RANGE, INTERCEPT_RANGE)
            ]
        }
        for _ in edges
    ]
    return {
        "network": {
            "nodes": nodes,
            "edges": edges,
            "od_pairs": [
                [_node(0, 0), _node(ROWS - 1, COLS - 1)],
                [_node(ROWS - 1, 0), _node(0, COLS - 1)],
            ],
        },
        "edge_costs": costs,
        "populations": [
            {"theta": [1.0, 0.5], "geometry": "entropic", "c_k": 1.0, "alpha_k": 0.5},
            {"theta": [0.5, 1.0], "geometry": "euclidean", "c_k": 1.0, "alpha_k": 0.5},
        ],
        "mass_bound": 1.0,
        "simulation": {"T": HORIZON, "runs": RUNS, "sigma": SIGMA, "seed": int(seed)},
        "privacy": {"c_adj": 1e-5, "sigma": SIGMA},
    }


def run(config_path: Path, outdir: Path) -> int:
    """Build, bound, solve, simulate every run, write per-run and ensemble CSVs."""
    # Imported here: run.py and workloads.py import this module for make_config
    # without the program on its path.
    from privroute import config, game, privacy, sim

    cfg = config.load_config(config_path)
    block = cfg["simulation"]
    inst = config.build_game_from_config(cfg)
    geometries, schedules = config.build_dynamics_from_config(cfg, inst.paths)
    consts = privacy.SensitivityConstants.from_game(inst, schedules)
    equilibrium = game.solve_equilibrium(inst, tol=TOL)
    run_cfg = sim.SimulationConfig(
        game=inst,
        geometries=geometries,
        schedules=schedules,
        sigma=float(block["sigma"]),
        horizon=int(block["T"]),
        runs=int(block["runs"]),
        seed=int(block["seed"]),
    )
    records = [sim.run_trajectory(run_cfg, s) for s in sim.run_seeds(run_cfg.seed, run_cfg.runs)]
    run_dir = outdir / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    for i, record in enumerate(records):
        sim.write_run_csv(record, run_dir / f"run_{i:03d}.csv")
    stats = sim.monte_carlo(run_cfg, equilibrium, records=records)
    bound = sim.check_suboptimality_bound(run_cfg, stats)
    sim.write_ensemble_csv(stats, outdir / "ensemble.csv")
    sim.write_manifest(
        outdir / "manifest.json",
        {
            "equilibrium": {
                "potential": equilibrium.potential,
                "gap": equilibrium.gap,
                "iterations": equilibrium.iterations,
                "tol": TOL,
            },
            "constants": {
                "incidence_gain": consts.incidence_gain,
                "loss_lipschitz": consts.loss_lipschitz,
                "loss_sup": consts.loss_sup,
            },
            "slope": stats.slope,
            "suboptimality_bound": bound,
        },
    )
    return 0 if bound["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    return run(args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
