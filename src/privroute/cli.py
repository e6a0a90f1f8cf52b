"""Command-line front end: simulate, accountant, constants, equilibrium."""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_dynamics_from_config,
    build_game_from_config,
    load_config,
    privacy_pairs,
)
from .game import EQUILIBRIUM_TOL, EquilibriumError, solve_equilibrium
from .network import NetworkError
from .privacy import SensitivityConstants, privacy_curve
from .sim import (
    SimulationConfig,
    check_suboptimality_bound,
    monte_carlo,
    run_seeds,
    simulate_sweep,
    stats_summary,
    write_csv,
    write_ensemble_csv,
    write_manifest,
    write_run_csv,
)

OUTPUT_DIR_ENV = "PRIVROUTE_OUTDIR"


def _output_dir(args, cfg: dict) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.get("output_dir"):
        return Path(cfg["output_dir"])
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _sigma_token(sigma: float) -> str:
    return f"{sigma:g}".replace(".", "p").replace("-", "m")


def _manifest(command: str, cfg: dict, **fields) -> dict:
    """The manifest of one command: what ran, when, on which config, then ``fields``."""
    return {
        "command": command,
        "version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg,
        **fields,
    }


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim_cfg = cfg.get("simulation")
    if sim_cfg is None:
        raise ConfigError("config has no simulation block")
    game = build_game_from_config(cfg)
    geometries, schedules = build_dynamics_from_config(cfg, game.paths)

    sigmas = [args.sigma] if args.sigma is not None else np.atleast_1d(sim_cfg["sigma"]).tolist()
    horizon = args.T if args.T is not None else sim_cfg["T"]
    runs = args.runs if args.runs is not None else sim_cfg["runs"]
    seed = args.seed if args.seed is not None else sim_cfg["seed"]
    window = tuple(sim_cfg["slope_window"]) if "slope_window" in sim_cfg else None

    equilibrium = solve_equilibrium(game)
    base = SimulationConfig(
        game=game, geometries=geometries, schedules=schedules, sigma=0.0,
        horizon=int(horizon), runs=int(runs), seed=int(seed), slope_window=window,
    )
    # One pass advances every (sigma, run) pair; all sigmas share the runs' noise draws.
    ensembles = simulate_sweep(base, sigmas, run_seeds(base.seed, base.runs), args.per_run)
    run_cfgs = [dataclasses.replace(base, sigma=float(sigma)) for sigma in sigmas]
    results = [monte_carlo(r, equilibrium, records=e) for r, e in zip(run_cfgs, ensembles)]
    bounds = [check_suboptimality_bound(r, stats) for r, stats in zip(run_cfgs, results)]

    outdir = _output_dir(args, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    for run, ensemble, stats, bound in zip(run_cfgs, ensembles, results, bounds):
        token = _sigma_token(run.sigma)
        if args.per_run:
            run_dir = outdir / f"runs_sigma_{token}"
            run_dir.mkdir(parents=True, exist_ok=True)
            for i, record in enumerate(ensemble.records):
                write_run_csv(record, run_dir / f"run_{i:03d}.csv")
        write_ensemble_csv(stats, outdir / f"ensemble_sigma_{token}.csv")
        manifest = _manifest(
            "simulate", cfg,
            effective={"sigma": run.sigma, "T": run.horizon, "runs": run.runs, "seed": run.seed},
            seeding={"master_seed": run.seed,
                     "rule": "numpy SeedSequence(master_seed).spawn(runs)"},
            results=stats_summary(stats),
            checks={"suboptimality_bound": bound},
        )
        write_manifest(outdir / f"manifest_sigma_{token}.json", manifest)
        print(
            f"sigma={run.sigma:g}: slope={stats.slope:.4f} "
            f"terminal_f_mean={stats.f_mean[-1]:.6f} f_star={stats.f_star:.6f} "
            f"bound_ok={bound['ok']}"
        )
    return 0 if all(bound["ok"] for bound in bounds) else 1


def _parse_t_range(text: str) -> range:
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError:
        raise ConfigError(f"bad T-range {text!r}; expected integers start:stop[:step]") from None
    if len(parts) == 2:
        start, stop = parts
        step = 1
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise ConfigError(f"bad T-range {text!r}; expected start:stop[:step]")
    if start < 1 or stop < start or step < 1:
        raise ConfigError(f"bad T-range {text!r}; need 1 <= start <= stop and step >= 1")
    return range(start, stop + 1, step)


def cmd_accountant(args) -> int:
    cfg = load_config(args.config)
    pairs = privacy_pairs(cfg)  # raises when the config has no privacy block
    privacy_cfg = cfg["privacy"]
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    if args.c is not None:
        pairs = [(args.c, sigma) for sigma in sorted({sigma for _, sigma in pairs})]
    spec = args.t_range or ":".join(map(str, privacy_cfg.get("T_range", [1, 200])))
    horizons = _parse_t_range(spec)

    # privacy_curve's own defaults stand in for the keys the config leaves out.
    keys = {"a": "clip", "delta_budget": "delta_budget", "paper_variant": "paper_variant"}
    settings = {arg: privacy_cfg[key] for key, arg in keys.items() if key in privacy_cfg}
    constants = SensitivityConstants.from_game(game, schedules)
    curves = [privacy_curve(constants, c, sigma, horizons, **settings) for c, sigma in pairs]

    outdir = _output_dir(args, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / "accountant.csv"
    write_csv(out_path, ["c", "sigma", "T", "epsilon", "delta", "valid"], (
        [c, sigma, *row]
        for (c, sigma), curve in zip(pairs, curves)
        for row in zip(*(col.tolist() for col in
                         (curve.horizons, curve.epsilon, curve.delta, curve.valid.astype(int))))
    ))
    for (c, sigma), curve in zip(pairs, curves):
        report_path = outdir / f"report_c_{c:g}_sigma_{_sigma_token(sigma)}.json"
        write_manifest(report_path, curve.report.to_dict())
    used = curves[0].report  # every pair shares the settings
    manifest = _manifest(
        "accountant", cfg,
        effective={
            "pairs": [[c, s] for c, s in pairs],
            "T_range": [horizons.start, horizons.stop - 1, horizons.step],
            "a": used.clip,
            "delta_budget": used.delta_budget,
            "paper_variant": used.paper_variant,
        },
        diagnostics=[{"c": c, "sigma": sigma, **curve.diagnostics()}
                     for (c, sigma), curve in zip(pairs, curves)],
    )
    write_manifest(outdir / "accountant_manifest.json", manifest)
    print(f"wrote {out_path}")
    return 0


def cmd_constants(args) -> int:
    cfg = load_config(args.config)
    game = build_game_from_config(cfg)
    _, schedules = build_dynamics_from_config(cfg, game.paths)
    consts = SensitivityConstants.from_game(game, schedules)
    n_blocks = game.network.num_od_pairs
    skip = ("modulus_min", "schedules")  # accounting inputs, not printed
    values = {k: v for k, v in vars(consts).items() if k not in skip}
    values["moduli"] = [consts.modulus_min] * game.num_populations
    values["paths_per_od"] = list(game.block_sizes)
    if args.json:
        json.dump(values, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"paths per OD pair: {values['paths_per_od']} (total {values['total_paths']})")
    for label, key, derivation in [
        ("incidence gain A_x", "incidence_gain", "largest per-OD incidence spectral norm"),
        ("allocation norm bound A_Delta", "allocation_norm_bound",
         "sum over OD pairs of the per-simplex vertex norm, 1 each"),
        ("mass bound A_theta", "mass_bound", "largest declared OD mass"),
        ("loss Lipschitz A_ell", "loss_lipschitz",
         "sum of incidence spectral norms times the worst cost slope"),
        ("loss sup bound M", "loss_sup", "costliest path with the total mass on every edge"),
    ]:
        print(f"{label} = {values[key]!r}  ({derivation})")
    for k, modulus in enumerate(values["moduli"]):
        print(
            f"population {k}: strong-convexity modulus = {modulus!r}"
            f"  (1 per simplex, / {n_blocks} OD blocks for the summed norm)"
        )
    return 0


def cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    game = build_game_from_config(cfg)
    eq = solve_equilibrium(game, tol=args.tol)
    if args.json:
        payload = {
            "f_star": eq.potential,
            "gap": eq.gap,
            "iterations": eq.iterations,
            "allocation": eq.allocation.tolist(),
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"f_star = {eq.potential!r}  (gap {eq.gap:.3e} after {eq.iterations} iterations)")
    for k in range(game.num_populations):
        print(f"population {k} path flows: {np.round(eq.allocation[k], 6).tolist()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privroute",
        description=(
            "Simulate noisy mirror-descent routing-game dynamics and compute "
            "differential-privacy guarantees for the released loss sequence."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--sigma", type=float, help="override the config noise level")
    p_sim.add_argument("--runs", type=int, help="override the Monte Carlo run count")
    p_sim.add_argument("--T", type=int, help="override the iteration horizon")
    p_sim.add_argument("--seed", type=int, help="override the master seed")
    p_sim.add_argument("--per-run", dest="per_run", action="store_true",
                       help="also write one CSV per Monte Carlo run")
    p_sim.add_argument("--out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_acc = sub.add_parser("accountant", help="tabulate (epsilon, delta) against T")
    p_acc.add_argument("--config", required=True)
    p_acc.add_argument("--T-range", dest="t_range", help="start:stop[:step]")
    p_acc.add_argument("--c", type=float, help="override the adjacency radius")
    p_acc.add_argument("--out", help="output directory")
    p_acc.set_defaults(func=cmd_accountant)

    p_const = sub.add_parser("constants", help="print the sensitivity constants")
    p_const.add_argument("--config", required=True)
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(func=cmd_constants)

    p_eq = sub.add_parser("equilibrium", help="solve for the equilibrium allocation")
    p_eq.add_argument("--config", required=True)
    p_eq.add_argument("--tol", type=float, default=EQUILIBRIUM_TOL)
    p_eq.add_argument("--json", action="store_true")
    p_eq.set_defaults(func=cmd_equilibrium)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NetworkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, EquilibriumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
