"""wvlab benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is cli_scenarios, crb_plans or noise_scaling (see README.md). The checkout
is the parent of this directory; wvlab runs from its src/ without being
installed. A run starts SETUP_PROBES fresh interpreters that only import wvlab
and build the inputs, then one that also repeats whole rounds of the
workload's operations for S seconds (at least three rounds), then checks every
round's outputs. --trace 1 installs the timing and counting wrappers of
tracer.py in the workload's processes and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Without a wvlab source tree next to this
directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_scenarios", "crb_plans", "noise_scaling")
SETUP_PROBES = 4


def worker(mode: str, workload: str, seed: int, directory: Path, *extra: str) -> dict:
    """Start worker.py in a fresh interpreter and return its result."""
    directory.mkdir(parents=True, exist_ok=True)
    result = directory / f"{mode}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
         "--seed", str(seed), "--t0", repr(t0), "--result", str(result),
         "--dir", str(directory), *extra],
        env=env, stdout=sys.stderr, timeout=160)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int, directory: Path) -> dict:
    """Set-up probes plus one measured run; the run's result with the probes'
    set-up and import times added to its own."""
    probes = [worker("setup", workload, seed, directory / f"probe{k}") for k in range(SETUP_PROBES)]
    result = worker("run", workload, seed, directory, "--seconds", str(seconds), "--trace", str(trace))
    result["setup_samples"] = [p["setup_s"] for p in probes] + [result["setup_s"]]
    result["import_samples"] = [p["import_s"] for p in probes] + [result["import_s"]]
    return result


def batch_seconds(op_times: list[list[float]]) -> float:
    """Time to finish one batch: the sum over its operations of each one's
    median over the rounds after the first, which warms caches up. The median
    keeps a stall in one operation of one round out of the figure."""
    return sum(statistics.median(op) for op in zip(*op_times[1:]))


def metrics(result: dict, trace: int) -> dict:
    if trace:
        imports = statistics.median(result["import_samples"])
        return {"import.wvlab_s": {"value": imports, "unit": "s"}, **result["layers"]}
    return {
        "setup_s": {"value": statistics.median(result["setup_samples"]), "unit": "s"},
        "wall_s": {"value": batch_seconds(result["op_times"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for needed in (ROOT / "src" / "wvlab" / "__init__.py", ROOT / "scenarios"):
        if not needed.exists():
            print(f"no {needed.relative_to(ROOT)} in {ROOT}: nothing to benchmark", file=sys.stderr)
            return 2

    sys.path.insert(0, str(HERE))
    import checks

    directory = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, directory)
        problems = checks.check(args.workload, result)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)

    out = metrics(result, args.trace)
    rounds = len(result["op_times"])
    print(f"{args.workload} seed={args.seed} rounds={rounds} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} correct={not problems}")
    if args.trace:  # the traced run's own time, against the untraced wall_s
        print(f"  traced wall_s = {batch_seconds(result['op_times']):.4f} s")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
