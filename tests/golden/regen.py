"""Rewrite the committed outputs of the five shipped scenarios.

    python3 tests/golden/regen.py

runs each scenario of `scenarios/` through `wvlab.cli.main` (`estimate` at
`--seed 7`) on this checkout's `src/`, and replaces `tests/golden/<command>/`
with what it wrote. `numpy.json` records the numpy version the files were
made with. `tests/test_golden.py` runs the same scenarios and compares each
file with the committed one bitwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# (command, shipped scenario, extra arguments)
SCENARIOS = (
    ("shift", "shift", []),
    ("budget", "budget", []),
    ("noise", "noise", []),
    ("scheme", "phase_space", []),
    ("estimate", "estimate", ["--seed", "7"]),
)
VERSION_FILE = HERE / "numpy.json"


def run_scenarios(out: Path) -> dict[str, int]:
    """Exit status of each command, its outputs written to out/<command>/."""
    from wvlab.cli import main

    return {cmd: main([cmd, "--config", str(ROOT / "scenarios" / f"{scenario}.json"),
                       "--out", str(out / cmd), *extra])
            for cmd, scenario, extra in SCENARIOS}


def numpy_version() -> dict:
    import numpy

    return {"numpy": numpy.__version__}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        status = run_scenarios(Path(tmp))
        failed = {cmd: rc for cmd, rc in status.items() if rc != 0}
        if failed:
            print(f"not rewritten, commands failed: {failed}", file=sys.stderr)
            return 1
        for cmd, _, _ in SCENARIOS:
            shutil.rmtree(HERE / cmd, ignore_errors=True)
            shutil.copytree(Path(tmp) / cmd, HERE / cmd)
    VERSION_FILE.write_text(json.dumps(numpy_version(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
