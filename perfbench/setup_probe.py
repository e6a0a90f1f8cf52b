"""Set-up probe: import privroute, load and validate a config, build the game and dynamics.

The benchmark times this script from launch to exit in a fresh interpreter.
It prints the input's shape as one JSON line, and fails if ``privroute`` was
imported from anywhere but the ``src`` directory given:

    python perfbench/setup_probe.py --src src --config configs/two_od.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    import privroute
    from privroute.config import build_dynamics_from_config, build_game_from_config, load_config

    origin = Path(privroute.__file__).resolve()
    if args.src.resolve() not in origin.parents:
        print(f"error: privroute imported from {origin}, not from {args.src}", file=sys.stderr)
        return 1
    cfg = load_config(args.config)
    game = build_game_from_config(cfg)
    build_dynamics_from_config(cfg, game.paths)
    shape = {
        "edges": game.network.num_edges,
        "paths_per_od": list(game.block_sizes),
        "populations": game.num_populations,
    }
    print(json.dumps(shape))
    return 0


if __name__ == "__main__":
    sys.exit(main())
