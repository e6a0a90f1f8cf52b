"""Run the CI workflow's shell steps on this checkout, without installing anything.

Every ``run:`` step of ``.github/workflows/tests.yml`` whose script does not
call ``pip install`` runs as GitHub runs it (``bash -e -o pipefail``) from the
repository root, with ``RUNNER_TEMP`` in a fresh temporary directory, ``src``
on ``PYTHONPATH`` and a stand-in ``privroute`` script (``python -m
privroute.cli``) first on ``PATH``.

    python tests/run_ci_locally.py [NAME_PART ...]

With arguments, only the steps whose name contains one of them run.  Exits 1
if any step fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "tests.yml"


def main(argv: list[str]) -> int:
    try:
        import yaml
    except ImportError:
        print("run_ci_locally: PyYAML is not installed, so the workflow cannot be read",
              file=sys.stderr)
        return 1
    steps = [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
             for step in job["steps"] if "run" in step and "pip install" not in step["run"]]
    if argv:
        steps = [step for step in steps if any(part in step["name"] for part in argv)]
    failed = []
    with tempfile.TemporaryDirectory() as temp:
        bin_dir = Path(temp, "bin")
        bin_dir.mkdir()
        # The steps call `python` and `privroute`; both run this interpreter.
        for name, command in [("python", ""), ("privroute", " -m privroute.cli")]:
            script = bin_dir / name
            script.write_text(f'#!/bin/sh\nexec "{sys.executable}"{command} "$@"\n')
            script.chmod(0o755)
        env = os.environ | {
            "RUNNER_TEMP": str(Path(temp, "runner")),
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])),
        }
        for step in steps:
            Path(env["RUNNER_TEMP"]).mkdir(exist_ok=True)
            print(f"--- {step['name']}", flush=True)
            result = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail",
                                     "-c", step["run"]], cwd=REPO_ROOT, env=env)
            if result.returncode:
                failed.append(step["name"])
    print(f"{len(steps) - len(failed)} of {len(steps)} steps passed")
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
