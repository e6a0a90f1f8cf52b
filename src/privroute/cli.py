"""Command-line front end: simulate, accountant, constants, equilibrium."""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

# main catches these modules' errors; sim, privacy and output are imported by the commands
# that run them, so each command loads only the modules it uses.
from . import __version__, config, game, network


# Adding 0.0 turns -0.0 into 0.0 and keeps every other value, so the zeros name one file.
def _sigma_token(sigma: float) -> str:
    return f"{sigma + 0.0:g}".replace(".", "p").replace("-", "m")


def _ensemble_name(sigma: float) -> str:
    return f"ensemble_sigma_{_sigma_token(sigma)}.csv"


def _check_distinct_names(values, name_of, what: str) -> None:
    """Fail when two values, equal or not, would write the same output (names keep 6 digits)."""
    first = {}
    for value in values:
        name = name_of(value)
        if name in first:
            raise config.ConfigError(
                f"{what} {first[name]!r} and {value!r} would both write {name}")
        first[name] = value


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
    from . import output, sim

    cfg = config.load_config(args.config)
    if "simulation" not in cfg:
        raise config.ConfigError("config has no simulation block")
    # The flags that are set replace their config values and meet the same schema.
    flags = {"sigma": args.sigma, "T": args.T, "runs": args.runs, "seed": args.seed}
    block = cfg["simulation"] | {k: v for k, v in flags.items() if v is not None}
    config.check_config(cfg | {"simulation": block})
    sigmas = np.atleast_1d(block["sigma"]).tolist()
    _check_distinct_names(sigmas, _ensemble_name, "sigma")
    inst = config.build_game_from_config(cfg)
    geometries, schedules = config.build_dynamics_from_config(cfg, inst.paths)

    equilibrium = game.solve_equilibrium(inst)
    # int() because the schema also accepts integral floats such as 20.0.
    horizon, runs, seed = (int(block[key]) for key in ("T", "runs", "seed"))
    run_cfgs = [sim.SimulationConfig(inst, geometries, schedules, float(sigma), horizon, runs, seed)
                for sigma in sigmas]
    outdir = Path(args.out)

    def write_rows(start, records):  # each run's rows of one chunk, appended to its file
        for run, runs_of_sigma in zip(run_cfgs, records):
            run_dir = outdir / f"runs_sigma_{_sigma_token(run.sigma)}"
            run_dir.mkdir(parents=True, exist_ok=True)
            for i, record in enumerate(runs_of_sigma):
                sim.write_run_csv(record, run_dir / f"run_{i:03d}.csv", start)

    # Every result first; then --per-run replays the sweep, writing each chunk as it ends.
    try:
        ensembles = sim.simulate_sweep(run_cfgs[0], sigmas, sim.run_seeds(seed, runs))
        results = [sim.monte_carlo(r, equilibrium, records=e) for r, e in zip(run_cfgs, ensembles)]
        bounds = [sim.check_suboptimality_bound(r, stats) for r, stats in zip(run_cfgs, results)]
        if args.per_run:
            sim.simulate_sweep(run_cfgs[0], sigmas, sim.run_seeds(seed, runs), write_rows)
    except MemoryError as exc:  # main prints it in one line; the size goes at its end
        size = f"(simulate: T={horizon}, runs={runs}, sigmas={len(sigmas)})"
        raise MemoryError(" ".join(filter(None, [str(exc), size]))) from exc

    outdir.mkdir(parents=True, exist_ok=True)
    for run, stats, bound in zip(run_cfgs, results, bounds):
        token = _sigma_token(run.sigma)
        sim.write_ensemble_csv(stats, outdir / _ensemble_name(run.sigma))
        manifest = _manifest(
            "simulate", cfg,
            effective={"sigma": run.sigma, "T": run.horizon, "runs": run.runs, "seed": run.seed},
            seeding={"master_seed": run.seed,
                     "rule": "numpy SeedSequence(master_seed).spawn(runs)"},
            results={"sigma": run.sigma, "runs": run.runs, "seed": run.seed,
                     "f_star": equilibrium.potential, "equilibrium_gap": equilibrium.gap,
                     "equilibrium_iterations": equilibrium.iterations,
                     "slope": stats.slope, "slope_window": list(stats.slope_window),
                     "terminal_f_mean": float(stats.f_mean[-1]),
                     "terminal_gap_mean": float(stats.gap_mean[-1])},
            checks={"suboptimality_bound": bound},
        )
        output.write_manifest(outdir / f"manifest_sigma_{token}.json", manifest)
        print(
            f"sigma={run.sigma:g}: slope={stats.slope:.4f} "
            f"terminal_f_mean={stats.f_mean[-1]:.6f} f_star={stats.equilibrium.potential:.6f} "
            f"bound_ok={bound['ok']}"
        )
    return 0 if all(bound["ok"] for bound in bounds) else 1


def _parse_t_range(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(":")]
    except ValueError:
        raise config.ConfigError(
            f"bad T-range {text!r}; expected integers start:stop[:step]") from None


def cmd_accountant(args) -> int:
    from . import output, privacy

    cfg = config.load_config(args.config)
    pairs = config.privacy_pairs(cfg)  # raises when the config has no privacy block
    privacy_cfg = cfg["privacy"]
    if args.t_range is not None:
        # The flag replaces the config's range and meets the same schema.
        privacy_cfg = privacy_cfg | {"T_range": _parse_t_range(args.t_range)}
        config.check_config(cfg | {"privacy": privacy_cfg})
    # A pair names its rows of accountant.csv by its key there, with -0.0 read as 0.0.
    _check_distinct_names(pairs, lambda pair: f"rows {pair[0] + 0.0},{pair[1]} of accountant.csv",
                          "(c, sigma)")
    # int() because the schema also accepts integral floats such as 1.0.
    start, stop, step = [*map(int, privacy_cfg.get("T_range", [1, 200])), 1][:3]
    span = range(start, stop + 1, step)  # its size and last horizon, with none allocated
    privacy._check_budget(len(span), span[-1])
    horizons = np.arange(start, stop + 1, step)
    inst = config.build_game_from_config(cfg)
    _, schedules = config.build_dynamics_from_config(cfg, inst.paths)

    # float(), so the manifest records an integer "a": 2 as 2.0.
    clip = float(privacy_cfg.get("a", privacy.DEFAULT_CLIP))
    delta_budget = float(privacy_cfg.get("delta_budget", privacy.DEFAULT_DELTA_BUDGET))
    constants = privacy.SensitivityConstants.from_game(inst, schedules)
    curves = [privacy.privacy_curve(constants, c, sigma, horizons, clip, delta_budget)
              for c, sigma in pairs]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / "accountant.csv"
    # Each pair's c and sigma are formatted once, as one field that holds both.
    output.write_csv(out_path, ["c", "sigma", "T", "epsilon", "delta", "valid"], (
        [pair, *row]
        for pair, curve in zip((f"{c},{sigma}" for c, sigma in pairs), curves)
        for row in zip(*(col.tolist() for col in
                         (horizons, curve.epsilon, curve.delta, curve.valid.astype(int))))
    ))
    # One entry per pair: privacy_curve's values at the last, largest horizon, and the
    # first horizon with an invalid release and the first with delta >= 1, or None.
    entries = []
    for (c, sigma), curve in zip(pairs, curves):
        entries.append({
            "c": c, "sigma": sigma,
            # The releases, summarised in constant size.
            "per_step": {
                "sensitivity": dict(zip(("min", "max"), curve.sensitivity_range[:, -1].tolist())),
                "epsilon": dict(zip(("min", "max"), curve.epsilon_range[:, -1].tolist())),
                "delta": float(curve.release_delta[-1]),  # the uniform split: every release has it
                "valid_releases": curve.valid_releases,
            },
            "tail_delta": float(curve.tail_delta[-1]), "epsilon": float(curve.epsilon[-1]),
            "delta": float(curve.delta[-1]), "trivial": bool(curve.delta[-1] >= 1.0),
            "valid": bool(curve.valid[-1]),
        } | {k: int(horizons[m.argmax()]) if m.any() else None
             for k, m in [("first_invalid_release_T", ~curve.releases_valid),
                          ("first_trivial_T", curve.delta >= 1.0)]})
    manifest = _manifest(
        "accountant", cfg,
        effective={"T_range": [start, stop, step], "a": clip, "delta_budget": delta_budget},
        horizon=int(horizons[-1]),
        loss_dual_bound=constants.clipped_loss_bound(clip),
        constants={k: v for k, v in vars(constants).items() if k != "schedules"},
        pairs=entries,
    )
    output.write_manifest(outdir / "accountant_manifest.json", manifest)
    print(f"wrote {out_path}")
    return 0


def cmd_constants(args) -> int:
    from . import privacy

    cfg = config.load_config(args.config)
    inst = config.build_game_from_config(cfg)
    geometries, schedules = config.build_dynamics_from_config(cfg, inst.paths)
    consts = privacy.SensitivityConstants.from_game(inst, schedules)
    skip = ("modulus_min", "schedules")  # accounting inputs, not printed
    values = {k: v for k, v in vars(consts).items() if k not in skip}
    values["moduli"] = [g.strong_convexity for g in geometries]
    values["paths_per_od"] = list(inst.block_sizes)
    if args.json:
        json.dump(values, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"paths per OD pair: {values['paths_per_od']} (total {values['total_paths']})")
    for _, value, label, derivation in consts.bounds():
        print(f"{label} = {value!r}  ({derivation})")
    for k, geometry in enumerate(geometries):
        print(f"population {k}: strong-convexity modulus = {geometry.strong_convexity!r}"
              f"  ({geometry.modulus_derivation})")
    return 0


def cmd_equilibrium(args) -> int:
    cfg = config.load_config(args.config)
    inst = config.build_game_from_config(cfg)
    eq = game.solve_equilibrium(inst)
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
    for k in range(inst.num_populations):
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
    # No abbreviated flags: --c would otherwise be read as --config.

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiment", allow_abbrev=False)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--sigma", type=float, help="override the config noise level")
    p_sim.add_argument("--runs", type=int, help="override the Monte Carlo run count")
    p_sim.add_argument("--T", type=int, help="override the iteration horizon")
    p_sim.add_argument("--seed", type=int, help="override the master seed")
    p_sim.add_argument("--per-run", dest="per_run", action="store_true",
                       help="also write one CSV per Monte Carlo run")
    p_sim.add_argument("--out", default=".",
                       help="output directory (default: the working directory)")
    p_sim.set_defaults(func=cmd_simulate)

    p_acc = sub.add_parser("accountant", help="tabulate (epsilon, delta) against T",
                           allow_abbrev=False)
    p_acc.add_argument("--config", required=True)
    p_acc.add_argument("--T-range", dest="t_range", help="start:stop[:step]")
    p_acc.add_argument("--out", default=".",
                       help="output directory (default: the working directory)")
    p_acc.set_defaults(func=cmd_accountant)

    p_const = sub.add_parser("constants", help="print the sensitivity constants",
                             allow_abbrev=False)
    p_const.add_argument("--config", required=True)
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(func=cmd_constants)

    p_eq = sub.add_parser("equilibrium", help="solve for the equilibrium allocation",
                          allow_abbrev=False)
    p_eq.add_argument("--config", required=True)
    p_eq.add_argument("--json", action="store_true")
    p_eq.set_defaults(func=cmd_equilibrium)
    return parser


def main(argv=None) -> int:
    # The parser is not kept, so its cyclic objects are freed while the command runs.
    args = build_parser().parse_args(argv)
    try:
        # Overflow reaches the output as inf or NaN, which the commands' own
        # finiteness checks turn into the one-line error below.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (config.ConfigError, network.NetworkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, game.EquilibriumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # also numpy's _ArrayMemoryError
        print(": ".join(filter(None, ["error: out of memory", str(exc)])), file=sys.stderr)
        return 1


def run() -> int:
    """The process entry: ``main``, then the end of the process without interpreter teardown.

    Teardown only frees memory that the operating system takes back anyway, and
    its cyclic collection walks every object alive, most of them numpy's.  Every
    file a command writes is closed when ``main`` returns, so only standard output
    and standard error are flushed here.  A flush that fails is left to the
    interpreter's own exit, which reports it.  ``main`` is the entry for callers
    that keep running.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
