"""The three benchmark workloads: inputs from the seed, commands, output checks.

Every check returns a list of problems (empty when the output is correct) and
a fingerprint: a few sums over each output table that ``reference.json``
holds for the default seeds.  Fingerprints are compared within
``|x - ref| <= ATOL + RTOL * |ref|``, not byte for byte, so summation-order
drift of about 1e-15 passes and a changed formula does not.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

import grid

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
TWO_OD = ROOT / "configs" / "two_od.json"
REFERENCE = BENCH / "reference.json"

RTOL, ATOL = 1e-6, 1e-9
SIMPLEX_TOL = 1e-9
CLI_EQUILIBRIUM_TOL = 1e-8  # what `privroute simulate` solves to


def fingerprint(m: np.ndarray) -> list[float]:
    """Total, row-weighted and column-weighted sums, and sum of squares."""
    rows = np.arange(1, m.shape[0] + 1) / m.shape[0]
    cols = np.arange(1, m.shape[1] + 1) / m.shape[1]
    return [float(m.sum()), float(rows @ m.sum(axis=1)), float(m.sum(axis=0) @ cols), float((m * m).sum())]


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def simplex_problems(header, table, block_sizes, where: str) -> list[str]:
    """Every population's flow block must lie on its simplex to SIMPLEX_TOL."""
    flows = table[:, [i for i, h in enumerate(header) if h.startswith("flow[")]]
    flows = flows.reshape(len(table), -1, sum(block_sizes))
    problems = []
    if flows.min() < -SIMPLEX_TOL:
        problems.append(f"{where}: negative allocation {flows.min():.3e}")
    start = 0
    for size in block_sizes:
        err = np.abs(flows[:, :, start : start + size].sum(axis=2) - 1.0).max()
        if err > SIMPLEX_TOL:
            problems.append(f"{where}: allocation block off the simplex by {err:.3e}")
        start += size
    return problems


def compare_reference(workload: str, key: str, got: dict) -> list[str]:
    """Problems against ``reference.json``; none when it has no entry for ``key``."""
    want = json.loads(REFERENCE.read_text())[workload].get(key)
    if want is None:
        return []
    problems = []
    for name, values in want.items():
        mine = got.get(name)
        if mine is None or len(mine) != len(values):
            problems.append(f"reference {name}: output missing or of another shape")
            continue
        for x, ref in zip(mine, values):
            if not abs(x - ref) <= ATOL + RTOL * abs(ref):
                problems.append(f"reference {name}: {x!r} differs from {ref!r}")
                break
    return problems


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


class Workload:
    """One named workload; subclasses fill in inputs, command and checks."""

    name: str
    target: str  # "cli" or "grid": what the traced run executes
    rate_metric: str  # the throughput this workload reports
    config: Path
    work: int  # units of `rate_metric` done by one invocation
    reference_key: str

    def args(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, stdout: str, block_sizes) -> tuple[list[str], dict]:
        raise NotImplementedError

    def command(self, out: Path) -> list[str]:
        if self.target == "cli":
            return [sys.executable, "-m", "privroute.cli", *self.args(out)]
        return [sys.executable, str(BENCH / "grid.py"), *self.args(out)]

    def traced_command(self, out: Path, spans: Path) -> list[str]:
        tracer = str(BENCH / "spans.py")
        return [sys.executable, tracer, "--spans", str(spans), self.target, *self.args(out)]

    def verify(self, out: Path, stdout: str, block_sizes) -> list[str]:
        problems, prints = self.check(out, stdout, block_sizes)
        return problems + compare_reference(self.name, self.reference_key, prints)


class SimTwoOd(Workload):
    name = "sim_two_od"
    target = "cli"
    rate_metric = "run_steps_per_s"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = TWO_OD
        block = json.loads(TWO_OD.read_text())["simulation"]
        self.sigmas = [float(s) for s in _as_list(block["sigma"])]
        self.horizon = block["T"]
        self.work = len(self.sigmas) * block["runs"] * block["T"]
        self.reference_key = str(seed)

    def args(self, out):
        return ["simulate", "--config", str(self.config), "--seed", str(self.seed), "--out", str(out)]

    def check(self, out, stdout, block_sizes):
        problems, prints = [], {}
        verdicts = [line.rsplit("bound_ok=", 1)[1] for line in stdout.splitlines() if "bound_ok=" in line]
        if verdicts != ["True"] * len(self.sigmas):
            problems.append(f"expected bound_ok=True for {len(self.sigmas)} sigmas, got {verdicts}")
        for sigma in self.sigmas:
            token = f"{sigma:g}".replace(".", "p").replace("-", "m")
            manifest = json.loads((out / f"manifest_sigma_{token}.json").read_text())
            results = manifest["results"]
            if not results["equilibrium_gap"] <= CLI_EQUILIBRIUM_TOL:
                problems.append(f"sigma {sigma}: equilibrium gap {results['equilibrium_gap']} above tol")
            header, table = read_table(out / f"ensemble_sigma_{token}.csv")
            if len(table) != self.horizon:
                problems.append(f"sigma {sigma}: {len(table)} ensemble rows, expected {self.horizon}")
            problems += simplex_problems(header, table, block_sizes, f"sigma {sigma} ensemble")
            keys = ("f_star", "slope", "terminal_f_mean", "terminal_gap_mean")
            prints[f"results_{token}"] = [results[k] for k in keys]
            prints[f"ensemble_{token}"] = fingerprint(table)
        return problems, prints


class AccountantLong(Workload):
    name = "accountant_long"
    target = "cli"
    rate_metric = "accountant_rows_per_s"
    STOP, STEP = 10_000, 10

    def __init__(self, seed: int, workdir: Path) -> None:
        # The seed shifts the horizon grid; every shift gives 1,000 horizons.
        self.start = 1 + seed % self.STEP
        self.config = TWO_OD
        privacy = json.loads(TWO_OD.read_text())["privacy"]
        c_list, s_list = _as_list(privacy["c_adj"]), _as_list(privacy["sigma"])
        n_pairs = max(len(c_list), len(s_list))
        self.horizons = np.arange(self.start, self.STOP + 1, self.STEP)
        self.work = n_pairs * len(self.horizons)
        self.n_pairs = n_pairs
        self.reference_key = f"start_{self.start}"

    def args(self, out):
        spec = f"{self.start}:{self.STOP}:{self.STEP}"
        return ["accountant", "--config", str(self.config), "--T-range", spec, "--out", str(out)]

    def check(self, out, stdout, block_sizes):
        problems, prints = [], {}
        with open(out / "accountant.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != self.work:
            return [f"{len(rows)} accountant rows, expected {self.work}"], prints
        n = len(self.horizons)
        for i in range(self.n_pairs):
            block = rows[i * n : (i + 1) * n]
            where = f"pair ({block[0]['c']}, {block[0]['sigma']})"
            horizons = np.array([int(r["T"]) for r in block])
            eps = np.array([float(r["epsilon"]) for r in block])
            delta = np.array([float(r["delta"]) for r in block])
            valid = {r["valid"] for r in block}
            if not np.array_equal(horizons, self.horizons):
                problems.append(f"{where}: horizons differ from the requested grid")
            if np.any(np.diff(eps) < 0) or np.any(np.diff(delta) < 0):
                problems.append(f"{where}: epsilon or delta decreases in T")
            if not valid <= {"0", "1"}:
                problems.append(f"{where}: valid column holds {sorted(valid)}")
            nontrivial = delta < 1.0
            prints[f"epsilon_{i}"] = fingerprint(eps[:, None])
            prints[f"delta_{i}"] = fingerprint(delta[nontrivial, None]) if nontrivial.any() else []
            prints[f"counts_{i}"] = [float(nontrivial.sum()), float(sum(r["valid"] == "1" for r in block))]
        return problems, prints


class GridPerRun(Workload):
    name = "grid_per_run"
    target = "grid"
    rate_metric = "run_steps_per_s"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = workdir / "grid.json"
        self.config.write_text(json.dumps(grid.make_config(seed), indent=1))
        self.work = grid.RUNS * grid.HORIZON
        self.reference_key = str(seed)

    def args(self, out):
        return ["--config", str(self.config), "--out", str(out)]

    def check(self, out, stdout, block_sizes):
        problems, prints = [], {}
        manifest = json.loads((out / "manifest.json").read_text())
        eq = manifest["equilibrium"]
        if not eq["gap"] <= grid.TOL:
            problems.append(f"equilibrium gap {eq['gap']} above tol {grid.TOL}")
        if not manifest["suboptimality_bound"]["ok"]:
            problems.append("suboptimality bound check failed")
        run_files = sorted((out / "runs").glob("run_*.csv"))
        if len(run_files) != grid.RUNS:
            problems.append(f"{len(run_files)} per-run CSVs, expected {grid.RUNS}")
        runs_print = np.zeros(4)
        for path in run_files:
            header, table = read_table(path)
            if len(table) != grid.HORIZON:
                problems.append(f"{path.name}: {len(table)} rows, expected {grid.HORIZON}")
            problems += simplex_problems(header, table, block_sizes, path.name)
            runs_print += fingerprint(table)
        header, table = read_table(out / "ensemble.csv")
        problems += simplex_problems(header, table, block_sizes, "ensemble")
        consts = manifest["constants"]
        prints["results"] = [eq["potential"], manifest["slope"], *(consts[k] for k in sorted(consts))]
        prints["ensemble"] = fingerprint(table)
        prints["runs"] = runs_print.tolist()
        return problems, prints


WORKLOADS = {w.name: w for w in (SimTwoOd, AccountantLong, GridPerRun)}
