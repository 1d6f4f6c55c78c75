"""Shared test settings and helpers: one hypothesis profile for every
property test, and fresh interpreters on this checkout's `src`."""

import json
import os
import subprocess
import sys
from pathlib import Path

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("wvlab", max_examples=20, deadline=None, derandomize=True)
    settings.load_profile("wvlab")

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter(code: str) -> tuple[list[str], list[str]]:
    """Run `code` in a fresh interpreter on this checkout's `src`: the lines
    it printed, and the names of the modules it loaded."""
    code += "\nimport json, sys; print(json.dumps(list(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    *printed, modules = out.stdout.splitlines()
    return printed, json.loads(modules)


def scipy_loaded(code: str) -> list[str]:
    """The scipy modules that `code` loads in a fresh interpreter."""
    return [m for m in fresh_interpreter(code)[1] if m.split(".")[0] == "scipy"]
