"""Machine-speed probe: repeat a fixed unit of work until SIGTERM, then print the rate.

The machine this benchmark was tuned on has two CPUs whose speed drifts by
tens of percent over minutes, for every process alike: a fresh interpreter's
set-up time moves in step with the workload's time.  The benchmark runs this
probe on the other CPU for the whole timed part of a run and reports times
at a fixed reference rate, so a change in machine speed between runs does not
read as a change in the program.

    python perfbench/speed.py    # prints "ready", then "<units> <seconds>" on SIGTERM
"""

from __future__ import annotations

import signal
import sys
import time

import numpy as np


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    m = np.linspace(0.5, 1.5, 40).reshape(8, 5)
    x = np.full(5, 0.2)
    units = 0
    print("ready", flush=True)
    t0 = time.perf_counter()
    while not stopped:
        # One unit: the kind of work the workloads do per step, small numpy
        # calls, a Python-level loop and float formatting.
        cost = np.array([0.5 * u + 0.1 for u in m @ x])
        w = x * np.exp(-0.01 * (m.T @ cost))
        x = w / w.sum()
        ",".join(repr(float(v)) for v in x)
        units += 1
    print(units, time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
