"""privroute benchmark: one workload per call, end to end or traced per module.

    python3 perfbench/run.py --workload sim_two_od --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``sim_two_od``: ``privroute simulate`` on ``configs/two_od.json`` with the
  seed as master seed (3 sigmas x 150 runs x T=200);
- ``accountant_long``: ``privroute accountant`` on the same config over
  1,000 horizons from ``1 + seed % 10`` to 10,000 in steps of 10;
- ``grid_per_run``: ``grid.py`` on a 3x4 grid config generated from the seed.
  It is not in ``BENCHMARK.json``: on a 2-vCPU machine whose speed drifts by
  tens of percent over minutes, its ten-seed ``wall_s`` spread, measured
  before times were scaled by the speed probe, reached a quarter of the
  median, and the time budget of the three-workload set
  allowed no longer runs.  Run it by hand, traced or timed.

With ``--trace 0`` the benchmark times set-up in fresh interpreters (median
of ``SETUP_PROBES``), then launches the workload again and again, one process
at a time, until ``--seconds`` would be exceeded, and reports medians of
``wall_s`` (launch to exit) and ``peak_rss_mb``.  The machine's speed drifts
by tens of percent over minutes for every process alike, so ``speed.py``
runs beside the set-up probes and the timed runs, and ``wall_s`` and
``setup_s`` are reported at the probe rate ``REFERENCE_RATE``: measured time x
probe rate / ``REFERENCE_RATE``.  With ``--trace 1`` it runs
the workload once untraced and twice under ``spans.py``, reports per-module
time and counts, and fails if an exact count differs between the two traced
runs.  Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import summarize
from workloads import ROOT, WORKLOADS

WORK = ROOT / "perfbench" / ".work"
SETUP_PROBES = 7
REFERENCE_RATE = 35_000.0  # speed-probe units per second that reported times refer to
TRACED_RUNS = 2
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Per-module metrics of the traced run.  "<span>.s" is a span's inclusive
# time, "<span>.self_s" its time outside child spans, "<span>.calls" its call
# count; other names are counts taken at the call boundary.
PER_LAYER = [
    ("network.enumerate_paths.s", "s"),
    ("network.paths_total", "count"),
    ("config.load_config.s", "s"),
    ("config.build_game_from_config.s", "s"),
    ("game.solve_equilibrium.s", "s"),
    ("game.solve_equilibrium.iterations", "count"),
    ("game.edge_flows.s", "s"),
    ("game.edge_flows.calls", "count"),
    ("game.path_losses.s", "s"),
    ("game.gap_from_losses.s", "s"),
    ("game.potential_from_flows.s", "s"),
    ("dynamics.smd_update.s", "s"),
    ("dynamics.smd_update.calls", "count"),
    ("sim.observe_losses.s", "s"),
    ("sim.run_trajectory.self_s", "s"),
    ("sim.run_steps", "count"),
    ("sim.monte_carlo.self_s", "s"),
    ("sim.write_run_csv.s", "s"),
    ("sim.bytes_written", "bytes"),
    ("sim.write_ensemble_csv.s", "s"),
    ("privacy.constants.s", "s"),
    ("privacy.spectral_norm.calls", "count"),
    ("privacy.privacy_report.s", "s"),
    ("privacy.privacy_report.calls", "count"),
    ("privacy.compose_adaptive.s", "s"),
    ("privacy.compose_adaptive.terms", "count"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead_s", "s"),
]


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Run:
    """Launches processes for one benchmark run and tallies their outcomes."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )

    def launch(self, cmd: list[str]) -> Invocation:
        """Run ``cmd`` to completion; wall time is launch to exit."""
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(self.workdir / "stdout", "w+") as out, open(self.workdir / "stderr", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read(), err.read())

    def record(self, what: str, inv: Invocation, problems: list[str]) -> None:
        self.attempted += 1
        if inv.exit_code != 0:
            problems = [f"exit code {inv.exit_code}: {inv.stderr.strip()[-400:]}"] + problems
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)
        status = "ok" if not problems else "FAILED"
        print(f"{what}: wall {inv.wall_s:.3f} s, peak rss {inv.peak_rss_mb:.1f} MB, {status}")

    def workload(self, wl, block_sizes, traced_spans: Path | None = None) -> Invocation:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cmd = wl.command(out) if traced_spans is None else wl.traced_command(out, traced_spans)
        inv = self.launch(cmd)
        problems = []
        if inv.exit_code == 0:
            try:
                problems = wl.verify(out, inv.stdout, block_sizes)
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                problems = [f"output unreadable: {exc!r}"]
        self.record("traced run" if traced_spans else "run", inv, problems)
        shutil.rmtree(out, ignore_errors=True)
        return inv


@contextlib.contextmanager
def speed_probe(env: dict):
    """Run ``speed.py`` beside the block; afterwards ``["rate"]`` is its units per second."""
    result = {}
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "speed.py")],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdout.readline()
        yield result
    finally:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    units, seconds = out.split()
    result["rate"] = int(units) / float(seconds)


def environment(env: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
    }


def probe_command(wl) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            "--src", str(ROOT / "src"), "--config", str(wl.config)]


def measure_setup(run: Run, wl) -> tuple[list[float], dict | None]:
    walls, shape = [], None
    for i in range(SETUP_PROBES):
        inv = run.launch(probe_command(wl))
        if inv.exit_code == 0:
            shape = json.loads(inv.stdout.strip().splitlines()[-1])
            walls.append(inv.wall_s)
        run.record(f"setup probe {i + 1}", inv, [])
    return walls, shape


def timed(run: Run, wl, seconds: float, block_sizes) -> dict:
    start = time.perf_counter()
    walls, rss = [], []
    while True:
        inv = run.workload(wl, block_sizes)
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    wall = statistics.median(walls)
    print(f"{len(walls)} timed runs in {elapsed:.1f} s")
    return {"wall_s": wall, "peak_rss_mb": statistics.median(rss), wl.rate_metric: wl.work / wall}


def exact_counts(summary: dict) -> dict:
    counts = dict(summary["counts"])
    counts.update({f"{name}.calls": s["calls"] for name, s in summary["spans"].items()})
    return counts


def per_layer(summaries: list[dict], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metric values (median over traced runs) and notes on zeros."""
    values, notes = {}, []
    first = summaries[0]
    for name, _unit in PER_LAYER:
        if name == "trace_overhead_s":
            values[name] = overhead
            continue
        span, _, field = ("cli.main.self_s" if name == "cli.self_s" else name).rpartition(".")
        if field == "calls" and span in first["spans"]:
            values[name] = first["spans"][span]["calls"]
        elif field in ("s", "self_s") and span in first["spans"]:
            values[name] = statistics.median(s["spans"][span][field] for s in summaries)
        else:
            values[name] = first["counts"].get(name, 0)
        if values[name] == 0:
            notes.append(f"{name}: 0, this workload makes no traced call that produces it")
    for target in first["missing"]:
        notes.append(f"not produced: {target} does not exist at this commit, so it is not traced")
    return values, notes


def traced(run: Run, wl, block_sizes, spans_path: Path) -> tuple[dict, list[str], bool]:
    baseline = run.workload(wl, block_sizes)
    summaries, walls = [], []
    for _ in range(TRACED_RUNS):
        spans_path.unlink(missing_ok=True)
        inv = run.workload(wl, block_sizes, traced_spans=spans_path)
        walls.append(inv.wall_s)
        if spans_path.exists():
            summaries.append(summarize(spans_path))
    if len(summaries) != TRACED_RUNS:
        return {}, ["traced run wrote no spans"], False
    counts = [exact_counts(s) for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        differing = sorted(k for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1)
        print(f"FAILED exact counts differ between traced runs: {differing}", file=sys.stderr)
    values, notes = per_layer(summaries, statistics.median(walls) - baseline.wall_s)
    return values, notes, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="privroute benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    needed = [ROOT / "src" / "privroute" / "cli.py", ROOT / "configs" / "two_od.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a privroute source checkout; missing {', '.join(absent)}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run is in progress in this checkout", file=sys.stderr)
            return 3
        workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            return measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    run = Run(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    print(f"privroute benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(run.env)))
    # Untraced runs are timed beside the speed probe; traced runs need no probe.
    with contextlib.nullcontext({}) if args.trace else speed_probe(run.env) as speed:
        setup_walls, shape = measure_setup(run, wl)
        if shape is None:
            print("error: every set-up probe failed", file=sys.stderr)
            return 1
        print(f"input: config={wl.config.name} edges={shape['edges']} "
              f"paths_per_od={shape['paths_per_od']} populations={shape['populations']} "
              f"work={wl.work} ({wl.rate_metric.removesuffix('_per_s')})")
        block_sizes = shape["paths_per_od"]
        if args.trace:
            spans_path = WORK / f"spans_{wl.name}_{args.seed}.npz"
            values, notes, repeat = traced(run, wl, block_sizes, spans_path)
        else:
            values = timed(run, wl, args.seconds, block_sizes)

    if args.trace:
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        for note in notes:
            print(note)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        correct = repeat and run.failed == 0
    else:
        scale = speed["rate"] / REFERENCE_RATE
        print(f"measured: wall_s {values['wall_s']:.4f} s, setup_s "
              f"{statistics.median(setup_walls):.4f} s; speed probe {speed['rate']:.0f} units/s, "
              f"times reported at {REFERENCE_RATE:.0f} units/s (x {scale:.4f})")
        values["wall_s"] *= scale
        values["setup_s"] = statistics.median(setup_walls) * scale
        values[wl.rate_metric] = wl.work / values["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for other in ("run_steps_per_s", "accountant_rows_per_s"):
            if other == wl.rate_metric:
                print(f"{other}: {values[other]:.1f} 1/s")
            else:
                print(f"{other}: not produced, {wl.name} does no {other.removesuffix('_per_s')}")
        correct = run.failed == 0
    print(f"error_rate: {run.failed / run.attempted:g} ({run.failed} failed of {run.attempted})")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
