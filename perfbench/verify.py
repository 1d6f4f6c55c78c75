"""Show that the output checks hold over a seed sweep and that they bite.

    python3 perfbench/verify.py --seeds 1-30 [--workload W ...]

For every workload and seed, one worker process runs three rounds (no set-up
probes, no timings kept) and checks.py checks its outputs; the sweep prints
how many seeds passed. It also counts how often the rule "crb_ratio within 3
jackknife SE of the expected ratio" would have rejected the same Monte Carlo
reports. Then, on the last seed's outputs, which passed, it perturbs one
checked output at a time (in memory, or in a file on disk, restored after)
and reports whether the checks catch it. Exits 1 if a seed fails or a
perturbation goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run


def cli_perturbations():
    def out(result, cmd):
        return Path(next(o["out"] for o in result["rounds"][0] if o["cmd"] == cmd))

    def flip_byte(cmd, name):
        def mutate(result):
            path = out(result, cmd) / name
            data = bytearray(path.read_bytes())
            data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
            path.write_bytes(bytes(data))
        return mutate

    def rewrite(cmd, name, edit):
        # change a value and re-hash it in every round's manifest, so that
        # only the check on the value itself can object
        def mutate(result):
            for outputs in result["rounds"]:
                d = Path(next(o["out"] for o in outputs if o["cmd"] == cmd))
                (d / name).write_text(edit((d / name).read_text()))
                manifest = json.loads((d / "manifest.json").read_text())
                manifest["files"][name] = checks.sha256(d / name)
                (d / "manifest.json").write_text(json.dumps(manifest))
        return mutate

    def scale_first_q_jt(text):
        head, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6))
        return "\n".join([head, ",".join(cells), *rest]) + "\n"

    def f_p_above_q_jt(text):
        report = json.loads(text)
        return json.dumps({**report, "f_p": 1.1 * report["q_jt"]})

    return [
        ("one byte of shift.csv", flip_byte("shift", "shift.csv")),
        ("budget.csv q_jt x (1 + 1e-6), re-hashed", rewrite("budget", "budget.csv", scale_first_q_jt)),
        ("report.json F_p = 1.1 Q_jt, re-hashed", rewrite("scheme", "report.json", f_p_above_q_jt)),
    ]


def crb_perturbations():
    def every_round(name, key, change):
        def mutate(result):
            for reports in result["rounds"]:
                reports[name][key] = change(reports[name][key])
        return mutate

    def round_one(result):
        result["rounds"][1]["amr_standard"]["mean_estimate"] *= 1 + 1e-15

    return [
        ("noise_amr fisher_total x (1 + 1e-6)", every_round("noise_amr", "fisher_total", lambda x: x * (1 + 1e-6))),
        ("mle_grid crb_ratio x 5", every_round("mle_grid", "crb_ratio", lambda x: 5 * x)),
        ("round 1 amr_standard mean_estimate x (1 + 1e-15)", round_one),
    ]


def noise_perturbations():
    def every_round(regime, n, key, change):
        def mutate(result):
            args = {(m[0], m[1]): m[2] for m in result["inputs"]["models"]}[(regime, n)]
            for rows in result["rounds"]:
                row = next(x for x in rows if x.get("regime") == regime and x.get("n") == n)
                row[key] = change(row[key], args)
        return mutate

    return [
        ("slow_1 N=2000 F_CM x (1 + 1e-6)", every_round("slow_1", 2000, "f_cm", lambda x, m: x * (1 + 1e-6))),
        ("white N=4000 GLS weights sum x (1 + 1e-11)",
         every_round("white", 4000, "w_sum", lambda x, m: x * (1 + 1e-11))),
        ("slow_2 N=4000 F_CM = 1.001 N/a", every_round("slow_2", 4000, "f_cm", lambda x, m: 1.001 * m[4] / m[0])),
    ]


PERTURBATIONS = {"cli_scenarios": cli_perturbations, "crb_plans": crb_perturbations,
                 "noise_scaling": noise_perturbations}


def jackknife_misses(workload: str, result: dict) -> tuple[int, int]:
    """(reports farther than 3 jackknife SE from the expected ratio, reports)."""
    if workload == "crb_plans":
        model = result["inputs"]["noise_model"]
        c, n = checks.dense_covariance(*model), model[-1]
        vf = float(c.sum()) * float(np.linalg.solve(c, np.ones(n)).sum()) / n**2
        reports = [(r, vf if k == "noise_amr" else 1.0) for k, r in result["rounds"][0].items()]
    elif workload == "noise_scaling":
        reports = [(result["rounds"][0][-1]["plan"], 1.0)]
    else:
        out = next(o["out"] for o in result["rounds"][0] if o["cmd"] == "estimate")
        reports = [(json.loads((Path(out) / "estimate.json").read_text()), 1.0)]
    misses = sum(abs(r["crb_ratio"] - e) > 3 * r["crb_ratio_se"] for r, e in reports)
    return misses, len(reports)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-30", help="inclusive range a-b")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    ok = True
    for workload in args.workload or run.WORKLOADS:
        base = run.ROOT / ".perfbench_runs" / f"verify-{workload}"
        passed, misses, reports = 0, 0, 0
        for seed in range(lo, hi + 1):
            shutil.rmtree(base, ignore_errors=True)
            result = run.worker("run", workload, seed, base, "--seconds", "0", "--trace", "0")
            problems = checks.check(workload, result)
            passed += not problems and result["failed"] == 0
            for problem in problems:
                print(f"  seed {seed}: {problem}")
            m, n = jackknife_misses(workload, result)
            misses, reports = misses + m, reports + n
        ok &= passed == hi - lo + 1
        print(f"{workload}: {passed}/{hi - lo + 1} seeds pass every check; 3 jackknife SE "
              f"would reject {misses} of {reports} Monte Carlo reports", flush=True)

        files = {f: f.read_bytes() for f in base.rglob("*") if f.is_file()}
        for what, mutate in PERTURBATIONS[workload]():
            perturbed = copy.deepcopy(result)
            mutate(perturbed)
            caught = checks.check(workload, perturbed)
            for f, data in files.items():
                f.write_bytes(data)
            ok &= bool(caught)
            print(f"  perturb {what}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}", flush=True)
        shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
