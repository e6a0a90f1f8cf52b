"""Span tracing for the traced benchmark run, from outside the package.

``install(tracer)`` replaces each public function listed in ``WRAPPED`` by a
wrapper at the module attribute its caller looks up (``privroute.sim.smd_update``
is what ``run_trajectory`` calls, ``privroute.cli.privacy_report`` what the
accountant command calls).  Every call records one span (name, start, end,
parent) in flat in-memory arrays; counts such as solver iterations or bytes
written are taken from the call's arguments or result.  Run as a script, this
module executes one workload under the tracer and writes the spans and counts
to an ``.npz`` file at the end:

    python perfbench/spans.py --spans out.npz cli simulate --config ...
    python perfbench/spans.py --spans out.npz grid --config grid.json --out dir
"""

from __future__ import annotations

import argparse
import array
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _paths_total(args, kwargs, result):
    return {"network.paths_total": result.total_paths}


def _iterations(args, kwargs, result):
    return {"game.solve_equilibrium.iterations": result.iterations}


def _run_steps(args, kwargs, result):
    return {"sim.run_steps": len(result.potentials)}


def _bytes_written(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"sim.bytes_written": os.path.getsize(path)}


def _terms(args, kwargs, result):
    epsilons = kwargs.get("epsilons", args[0] if args else ())
    return {"privacy.compose_adaptive.terms": len(epsilons)}


# (module, attribute, span name, count hook).  An attribute appears once per
# module its callers look it up in; the CLI imports most names into its own
# namespace, the library calls its siblings through their modules.
WRAPPED = [
    ("privroute.game", "enumerate_paths", "network.enumerate_paths", _paths_total),
    ("privroute.cli", "load_config", "config.load_config", None),
    ("privroute.config", "load_config", "config.load_config", None),
    ("privroute.cli", "build_game_from_config", "config.build_game_from_config", None),
    ("privroute.config", "build_game_from_config", "config.build_game_from_config", None),
    ("privroute.cli", "solve_equilibrium", "game.solve_equilibrium", _iterations),
    ("privroute.sim", "solve_equilibrium", "game.solve_equilibrium", _iterations),
    ("privroute.game", "solve_equilibrium", "game.solve_equilibrium", _iterations),
    ("privroute.game", "edge_flows", "game.edge_flows", None),
    ("privroute.game", "path_losses", "game.path_losses", None),
    ("privroute.game", "gap_from_losses", "game.gap_from_losses", None),
    ("privroute.game", "potential_from_flows", "game.potential_from_flows", None),
    ("privroute.sim", "smd_update", "dynamics.smd_update", None),
    ("privroute.sim", "observe_losses", "sim.observe_losses", None),
    ("privroute.cli", "run_trajectory", "sim.run_trajectory", _run_steps),
    ("privroute.sim", "run_trajectory", "sim.run_trajectory", _run_steps),
    ("privroute.cli", "monte_carlo", "sim.monte_carlo", None),
    ("privroute.sim", "monte_carlo", "sim.monte_carlo", None),
    ("privroute.cli", "write_run_csv", "sim.write_run_csv", _bytes_written),
    ("privroute.sim", "write_run_csv", "sim.write_run_csv", _bytes_written),
    ("privroute.cli", "write_ensemble_csv", "sim.write_ensemble_csv", _bytes_written),
    ("privroute.sim", "write_ensemble_csv", "sim.write_ensemble_csv", _bytes_written),
    ("privroute.privacy", "SensitivityConstants.from_game", "privacy.constants", None),
    ("privroute.privacy", "spectral_norm", "privacy.spectral_norm", None),
    ("privroute.cli", "privacy_report", "privacy.privacy_report", None),
    ("privroute.privacy", "compose_adaptive", "privacy.compose_adaptive", _terms),
    ("privroute.cli", "main", "cli.main", None),
]


class Tracer:
    """Flat span store: parallel arrays of name id, parent index, start and end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._open = [-1]

    def wrap(self, fn, name: str, count=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += int(value)
            return result

        return wrapper

    def save(self, path, missing: list[str]) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            count_keys=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
            missing=np.array(missing),
        )


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in ``WRAPPED``; return the targets that do not exist."""
    missing = []
    for module_name, attr, span, count in WRAPPED:
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(fn, span, count)
        # A bound classmethod keeps its class; store the wrapper as static.
        setattr(owner, leaf, staticmethod(wrapper) if outer else wrapper)
    return missing


def summarize(path) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; plus counts.

    The program is single-threaded, so the spans nest: a span's children are
    disjoint intervals inside it, and the time they cover is the sum of their
    durations.
    """
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    nid, parent = data["name_id"], data["parent"]
    duration = data["end"] - data["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    self_time = duration - covered
    k = len(names)
    spans = {
        name: {"calls": int(c), "s": float(s), "self_s": float(x)}
        for name, c, s, x in zip(
            names,
            np.bincount(nid, minlength=k),
            np.bincount(nid, weights=duration, minlength=k),
            np.bincount(nid, weights=self_time, minlength=k),
        )
    }
    counts = {str(key): int(v) for key, v in zip(data["count_keys"], data["count_values"])}
    return {"spans": spans, "counts": counts, "missing": [str(m) for m in data["missing"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload under the span tracer.")
    parser.add_argument("--spans", required=True)
    parser.add_argument("target", choices=["cli", "grid"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = Tracer()
    missing = install(tracer)
    try:
        if args.target == "cli":
            import privroute.cli

            return privroute.cli.main(args.rest)
        import grid

        return grid.main(args.rest)
    finally:
        tracer.save(args.spans, missing)


if __name__ == "__main__":
    sys.exit(main())
