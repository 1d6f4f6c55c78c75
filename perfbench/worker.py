"""One benchmark process: import wvlab, build a workload's inputs, run rounds.

    python3 perfbench/worker.py setup --workload W --seed S --t0 T --result F
    python3 perfbench/worker.py run   --workload W --seed S --t0 T --result F
                                      --seconds X --trace 0|1 --dir D
    python3 perfbench/worker.py cli STATS ARGV...   (one traced CLI command)

`setup` stops after the inputs are built; `run` then repeats whole rounds of
the workload's operations until X seconds have passed (at least three rounds)
and writes the outputs of every round, the time of every operation and its
peak resident memory to F as JSON. Checking the outputs is left to run.py, so the
benchmark's own reference matrices never count towards this process's memory.
T is the parent's time.monotonic() just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_COMMANDS = (  # (subcommand, shipped scenario)
    ("shift", "shift"),
    ("budget", "budget"),
    ("noise", "noise"),
    ("scheme", "phase_space"),
    ("estimate", "estimate"),
)
STANDARD = dict(g=0.0025, sigma=1.0, epsilon=0.05)  # as scenarios/estimate.json
NOISE_SIZES = (1000, 2000, 4000)
NOISE_P_F = 0.01  # post-selection probability of cmd_noise's regimes
PLAN_N = 4000
MIN_ROUNDS = 3  # round 0 warms up; wall_s takes medians over the others


def import_wvlab() -> float:
    t = time.perf_counter()
    import wvlab  # noqa: F401
    seconds = time.perf_counter() - t
    if not Path(wvlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"wvlab imported from {wvlab.__file__}, not from this checkout")
    return seconds


def seeds(seed: int, k: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(k)]


# ---------------------------------------------------------------------------
# inputs


def cli_inputs(seed: int, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    (est_seed,) = seeds(seed, 1)
    commands = []
    for cmd, scenario in CLI_COMMANDS:
        config = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
        path = directory / f"{scenario}.json"
        path.write_text(json.dumps(config))
        argv = [cmd, "--config", str(path)]
        if cmd == "estimate":
            argv += ["--seed", str(est_seed)]
        commands.append({"cmd": cmd, "argv": argv, "config": config})
    return {"commands": commands, "estimate_seed": est_seed}


def crb_inputs(seed: int) -> dict:
    from wvlab import estimate, noise, schemes
    from wvlab.meter import FockMeter

    s = seeds(seed, 6)
    rng = random.Random(s[-1])
    standard = schemes.StandardSpec(**STANDARD)
    model = noise.CorrelatedNoiseModel(a=0.05, c=1.0, dt=1.0, tau_c=100.0, n=1000)
    true_value = rng.uniform(-1.0, 1.0)
    phase = schemes.PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0))
    entangled = schemes.EntangledSpec(phi=0.01, epsilon=0.05, n=4)
    plan = estimate.ExperimentPlan
    plans = {
        "mle_grid": plan(standard, 10_000, 12, s[0], "mle_grid"),
        "amr_standard": plan(standard, 10_000, 200, s[1], "amr"),
        "amr_phase_space": plan(phase, 10_000, 200, s[2], "amr"),
        "amr_entangled": plan(entangled, 10_000, 200, s[3], "amr"),
        "noise_amr": plan(None, model.n, 200, s[4], "amr", noise=model, true_value=true_value),
        "noise_mle": plan(None, model.n, 200, s[4], "mle_correlated", noise=model,
                          true_value=true_value),
    }
    truths = {"mle_grid": standard.g, "amr_standard": standard.g, "amr_phase_space": phase.g,
              "amr_entangled": entangled.phi, "noise_amr": true_value, "noise_mle": true_value}
    return {"plans": plans, "truths": truths, "noise_model": model_args(model)}


def model_args(m) -> tuple:
    return (m.a, m.c, m.dt, m.tau_c, m.n)


def noise_regimes(a: float, c: float, n: int) -> dict:
    """The three regimes of cmd_noise at dt = 1: white, slow_1, slow_2."""
    return {"white": (a, c, 1.0, 1e-3, n),
            "slow_1": (a, c, 1.0, 1.0 / (10 * NOISE_P_F), n),
            "slow_2": (a, c, 1.0, 1e3, n)}


def noise_inputs(seed: int) -> dict:
    from wvlab import estimate, noise

    # a and c stay fixed, because the dense Cholesky's time depends on their
    # values: slow_1 at N = 4000 took 0.79 s at a/c = 1/4 and 0.87 s at a/c = 4
    s = seeds(seed, 2)
    a, c = 1.0, 1.0  # as scenarios/noise.json
    models = [(name, n, noise.CorrelatedNoiseModel(*args))
              for n in NOISE_SIZES for name, args in noise_regimes(a, c, n).items()]
    plan_model = noise.CorrelatedNoiseModel(*noise_regimes(a, c, PLAN_N)["slow_1"])
    true_value = random.Random(s[1]).uniform(-1.0, 1.0)
    plan = estimate.ExperimentPlan(None, PLAN_N, 20, s[0], "mle_correlated",
                                   noise=plan_model, true_value=true_value)
    return {"models": models, "plan": plan}


def build_inputs(workload: str, seed: int, directory: Path) -> dict:
    if workload == "cli_scenarios":
        return cli_inputs(seed, directory / "inputs")
    if workload == "crb_plans":
        return crb_inputs(seed)
    if workload == "noise_scaling":
        return noise_inputs(seed)
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# rounds: each returns (outputs, seconds of each operation, failed operations)


def guarded(times: list, fn, *args, **kwargs):
    """fn(*args, **kwargs), timed into `times`; an operation that raises is
    counted, not fatal."""
    t = time.perf_counter()
    try:
        return fn(*args, **kwargs), 0
    except Exception as exc:
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, 1
    finally:
        times.append(time.perf_counter() - t)


def cli_round(inputs, k, directory: Path, tracer, extra) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs, times, failed = [], [], 0
    for item in inputs["commands"]:
        out = directory / f"r{k}" / item["cmd"]
        argv = item["argv"] + ["--out", str(out)]
        stats = directory / f"r{k}" / f"{item['cmd']}.trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "wvlab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(stats), *argv]
        proc, _ = guarded(times, subprocess.run, cmd, env=env, capture_output=True, text=True, timeout=170)
        rc = proc.returncode if proc is not None else None
        failed += rc != 0
        outputs.append({"cmd": item["cmd"], "rc": rc, "stderr": proc.stderr if proc else "",
                        "out": str(out)})
        if tracer is not None and stats.exists():
            child = json.loads(stats.read_text())
            tracer.records += [(k, *r[1:]) for r in child["records"]]
            extra["cli_main"].setdefault(item["cmd"], []).append(child["main_s"])
    if tracer is not None:
        extra["bytes"].append(sum(f.stat().st_size for f in (directory / f"r{k}").rglob("*")
                                  if f.is_file() and f.parent != directory / f"r{k}"))
    return outputs, times, failed


def crb_round(inputs, k, directory, tracer, extra) -> tuple:
    from wvlab import estimate

    outputs, times, failed = {}, [], 0
    for name, plan in inputs["plans"].items():
        if tracer is not None:
            tracer.scope = name
        report, bad = guarded(times, estimate.run_experiment, plan)
        outputs[name] = report.to_dict() if report is not None else None
        failed += bad
    return outputs, times, failed


def gls_weight_sum(model) -> float:
    from wvlab import estimate, noise

    return float(estimate.mle_weights(noise.covariance(model)).sum())


def noise_round(inputs, k, directory, tracer, extra) -> tuple:
    from wvlab import estimate, noise

    outputs, times, failed = [], [], 0
    for name, n, model in inputs["models"]:
        if tracer is not None:
            tracer.scope = f"{name}_n{n}"
        row = {"regime": name, "n": n}
        for key, fn in (("f_cm", noise.cm_fisher_correlated), ("v_amr", noise.amr_variance_exact),
                        ("w_sum", gls_weight_sum)):
            row[key], bad = guarded(times, fn, model)
            failed += bad
        outputs.append(row)
    if tracer is not None:
        tracer.scope = f"mle_correlated_n{PLAN_N}"
    report, bad = guarded(times, estimate.run_experiment, inputs["plan"])
    outputs.append({"plan": report.to_dict() if report is not None else None})
    return outputs, times, failed + bad


ROUNDS = {"cli_scenarios": cli_round, "crb_plans": crb_round, "noise_scaling": noise_round}


def describe(workload: str, inputs: dict) -> dict:
    """The generated inputs the checks need, as JSON."""
    if workload == "cli_scenarios":
        return inputs
    if workload == "crb_plans":
        return {"truths": inputs["truths"], "noise_model": inputs["noise_model"],
                "plans": {k: {"trials": p.trials, "nu": p.nu, "seed": p.seed}
                          for k, p in inputs["plans"].items()}}
    return {"models": [(name, n, model_args(m)) for name, n, m in inputs["models"]],
            "plan_model": model_args(inputs["plan"].noise), "truth": inputs["plan"].true_value}


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main_run(args) -> dict:
    directory = Path(args.dir)
    import_s = import_wvlab()
    tracer = None
    if args.trace and args.mode == "run":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = build_inputs(args.workload, args.seed, directory)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        return result

    round_fn = ROUNDS[args.workload]
    extra = {"cli_main": {}, "bytes": []}
    op_times, rounds, failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        k = len(rounds)
        if tracer is not None:
            tracer.round = k
        outputs, times, n_failed = round_fn(inputs, k, directory, tracer, extra)
        op_times.append(times)
        rounds.append(outputs)
        failed += n_failed
    result.update(op_times=op_times, rounds=rounds, failed=failed,
                  attempted=sum(len(t) for t in op_times),
                  peak_rss_mb=peak_rss_mb(), inputs=describe(args.workload, inputs))
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer.records, len(rounds), extra["cli_main"],
            extra["bytes"][0] if extra["bytes"] else 0)
    return result


def main_cli(stats: str, argv: list[str]) -> int:
    """One CLI command in this fresh interpreter, with the wrappers installed."""
    import tracer as tracing

    import wvlab.cli

    tr = tracing.Tracer()
    tr.install()
    tr.scope = argv[0]
    t = time.perf_counter()
    rc = wvlab.cli.main(argv)
    main_s = time.perf_counter() - t
    Path(stats).write_text(json.dumps({"main_s": main_s, "records": tr.records}))
    return rc


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "cli":
        return main_cli(sys.argv[2], sys.argv[3:])
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--dir", required=True)
    args = p.parse_args()
    result = main_run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
