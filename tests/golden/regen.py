"""Rewrite the committed outputs of the five shipped scenarios and of the
six Monte Carlo plans of the `crb_plans` benchmark workload.

    python3 tests/golden/regen.py

runs each scenario of `scenarios/` through `wvlab.cli.main` (`estimate` at
`--seed 7`) on this checkout's `src/`, and replaces `tests/golden/<command>/`
with what it wrote. It then builds the six `crb_plans` plans at each seed of
CRB_SEEDS, as `perfbench/worker.py` builds them, and writes the reports of
`run_experiment` to `tests/golden/crb_plans/seed_<n>.json`. `numpy.json`
records the numpy version the files were made with. Before it rewrites, it
prints what changes against the committed copy: each file, key or column
that differs, with its maximum relative change and that change in ulps
(`compare`). `tests/test_golden.py` runs the same scenarios and plans and
fails on any line `compare` reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

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
CRB_SEEDS = (1, 2, 3)
VERSION_FILE = HERE / "numpy.json"


def run_scenarios(out: Path) -> dict[str, int]:
    """Exit status of each command, its outputs written to out/<command>/."""
    from wvlab.cli import main

    return {cmd: main([cmd, "--config", str(ROOT / "scenarios" / f"{scenario}.json"),
                       "--out", str(out / cmd), *extra])
            for cmd, scenario, extra in SCENARIOS}


def crb_plans(seed: int) -> dict:
    """The six plans of the `crb_plans` workload at `seed`: the plan seeds
    and the noise plans' true value come from random.Random, as in
    `perfbench/worker.py` `crb_inputs`."""
    from wvlab import estimate, noise, schemes
    from wvlab.meter import FockMeter

    rng = random.Random(seed)
    s = [rng.randrange(1, 2**31) for _ in range(6)]
    true_value = random.Random(s[-1]).uniform(-1.0, 1.0)
    standard = schemes.StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05)
    phase = schemes.PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0))
    entangled = schemes.EntangledSpec(phi=0.01, epsilon=0.05, n=4)
    model = noise.CorrelatedNoiseModel(a=0.05, c=1.0, dt=1.0, tau_c=100.0, n=1000)
    plan = estimate.ExperimentPlan
    return {
        "mle_grid": plan(standard, 10_000, 12, s[0], "mle_grid"),
        "amr_standard": plan(standard, 10_000, 200, s[1], "amr"),
        "amr_phase_space": plan(phase, 10_000, 200, s[2], "amr"),
        "amr_entangled": plan(entangled, 10_000, 200, s[3], "amr"),
        "noise_amr": plan(None, model.n, 200, s[4], "amr", noise=model, true_value=true_value),
        "noise_mle": plan(None, model.n, 200, s[4], "mle_correlated", noise=model,
                          true_value=true_value),
    }


def run_crb_plans(out: Path) -> None:
    """The reports of the six plans at each seed, to out/crb_plans/seed_<n>.json."""
    from wvlab.estimate import run_experiment

    (out / "crb_plans").mkdir(parents=True)
    for seed in CRB_SEEDS:
        reports = {name: run_experiment(p).to_dict() for name, p in crb_plans(seed).items()}
        (out / "crb_plans" / f"seed_{seed}.json").write_text(json.dumps(reports, indent=2) + "\n")


def numpy_version() -> dict:
    return {"numpy": np.__version__}


# ---------------------------------------------------------------------------
# comparison with the committed files


def _value(x):
    try:
        return float(x)
    except ValueError:
        return x


def _by_key(data: bytes, suffix: str) -> dict[str, list]:
    """Every value of an output file under its CSV column or JSON key path;
    the items of a JSON list share the list's key."""
    text = data.decode("utf-8")
    if suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {col: [_value(row[i]) for row in rows] for i, col in enumerate(header)}
    flat: dict[str, list] = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        else:
            flat.setdefault(key, []).append(node)

    walk(json.loads(text), "")
    return flat


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def differences(got: bytes, want: bytes, suffix: str) -> list[str]:
    """One line per key or column whose values differ."""
    new, old = _by_key(got, suffix), _by_key(want, suffix)
    out = []
    for key in sorted(set(new) | set(old)):
        a, b = new.get(key), old.get(key)
        if a is None or b is None:
            out.append(f"{key}: {'not in the committed file' if b is None else 'missing'}")
            continue
        if len(a) != len(b):
            out.append(f"{key}: {len(a)} values, committed {len(b)}")
            continue
        rel = ulps = 0.0
        other = 0
        for x, y in zip(a, b):
            if x == y or (x != x and y != y):
                continue
            if _finite(x) and _finite(y):
                d = abs(x - y)
                rel = max(rel, d / abs(y) if y else math.inf)
                ulps = max(ulps, d / float(np.spacing(abs(float(y)))))
            else:
                other += 1
        if rel:
            out.append(f"{key}: max relative change {rel:.3g} ({ulps:.0f} ulp)")
        if other:
            out.append(f"{key}: {other} non-numeric or non-finite values changed")
    return out


def compare(got_root: Path, names) -> list[str]:
    """One line per file, key or column of got_root/<name>/ that differs
    from the committed HERE/<name>/, and the numpy versions if any does."""
    problems = []
    for cmd in names:
        got_dir, want_dir = got_root / cmd, HERE / cmd
        got = {p.name for p in got_dir.iterdir()}
        want = {p.name for p in want_dir.iterdir()}
        if got != want:
            problems.append(f"{cmd}: wrote {sorted(got)}, committed {sorted(want)}")
        for name in sorted(got & want):
            a, b = (got_dir / name).read_bytes(), (want_dir / name).read_bytes()
            if a != b:
                lines = differences(a, b, Path(name).suffix) or ["bytes differ, every value equal"]
                problems += [f"{cmd}/{name} {line}" for line in lines]
    if problems:
        made = json.loads(VERSION_FILE.read_text())
        if made != numpy_version():
            problems.append(f"the golden files were made with numpy {made['numpy']}, "
                            f"this run has numpy {numpy_version()['numpy']}")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    names = [cmd for cmd, _, _ in SCENARIOS] + ["crb_plans"]
    with tempfile.TemporaryDirectory() as tmp:
        status = run_scenarios(Path(tmp))
        failed = {cmd: rc for cmd, rc in status.items() if rc != 0}
        if failed:
            print(f"not rewritten, commands failed: {failed}", file=sys.stderr)
            return 1
        run_crb_plans(Path(tmp))
        print("\n".join(compare(Path(tmp), names)) or "every file is bitwise the committed one")
        for cmd in names:
            shutil.rmtree(HERE / cmd, ignore_errors=True)
            shutil.copytree(Path(tmp) / cmd, HERE / cmd)
    VERSION_FILE.write_text(json.dumps(numpy_version(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
