"""Rewrite the committed outputs of the five shipped scenarios and of the
six Monte Carlo plans of the `crb_plans` benchmark workload.

    python3 tests/golden/regen.py

runs each scenario of `scenarios/` through `wvlab.cli.main` (`estimate` at
`--seed 7`) on this checkout's `src/`, and replaces `tests/golden/<command>/`
with what it wrote. It then builds the six `crb_plans` plans at each seed of
CRB_SEEDS, as `perfbench/worker.py` builds them, and writes the reports of
`run_experiment` to `tests/golden/crb_plans/seed_<n>.json`. `numpy.json`
records the numpy version the files were made with. `tests/test_golden.py`
runs the same scenarios and plans and compares each file with the committed
one bitwise.
"""

from __future__ import annotations

import json
import random
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
        run_crb_plans(Path(tmp))
        for cmd in [cmd for cmd, _, _ in SCENARIOS] + ["crb_plans"]:
            shutil.rmtree(HERE / cmd, ignore_errors=True)
            shutil.copytree(Path(tmp) / cmd, HERE / cmd)
    VERSION_FILE.write_text(json.dumps(numpy_version(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
