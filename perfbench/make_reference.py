"""Write ``reference.json``: output fingerprints of the workloads at the default seeds.

    python3 perfbench/make_reference.py [workload ...]

With workload names, only their entries are rewritten.

Run it only on a commit whose outputs are known to be right; the benchmark
then flags any later output that leaves the tolerance in ``workloads.py``.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, Run, probe_command
from workloads import REFERENCE, WORKLOADS, AccountantLong

DEFAULT_SEEDS = range(21)


def main() -> int:
    workdir = WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in sys.argv[1:] or WORKLOADS:
        cls = WORKLOADS[name]
        # Accountant inputs repeat with period STEP, so those seeds cover it.
        seeds = range(AccountantLong.STEP) if cls is AccountantLong else DEFAULT_SEEDS
        reference[name] = {}
        for seed in seeds:
            wl = cls(seed, workdir)
            run = Run(workdir)  # a fresh deadline for each seed
            out = workdir / "out"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            probe = run.launch(probe_command(wl))
            inv = run.launch(wl.command(out))
            if probe.exit_code or inv.exit_code:
                print(f"error: {name} seed {seed} failed: {inv.stderr}", file=sys.stderr)
                return 1
            block_sizes = json.loads(probe.stdout.splitlines()[-1])["paths_per_od"]
            problems, prints = wl.check(out, inv.stdout, block_sizes)
            if problems:
                print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference[name][wl.reference_key] = prints
            print(f"{name} seed {seed}: {wl.reference_key}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
