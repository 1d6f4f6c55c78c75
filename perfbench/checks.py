"""Checks of a workload's outputs against independent computations.

`check(workload, result)` returns a list of problems; an empty list means the
outputs are correct. Reference values are computed here, with numpy, from the
generated inputs and closed forms; nothing is compared with a stored copy.

Monte Carlo checks use the spread expected under a correct program, not the
program's own jackknife error: the estimates of a plan are Gaussian about the
truth with variance E/F_total (E = 1 for an efficient estimator, the exact
V*F for the plain average under correlated noise). A correct program then
passes each such check with probability 1 - 7e-6 (Z = 4.5 standard normal
tails; the sample-variance band uses the Wilson-Hilferty chi-square
quantiles), so a run fails on chance alone far less often than once in the
thousands of runs a benchmark sees.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

Z = 4.5


def variance_band(trials: int) -> tuple[float, float]:
    """Bounds on s^2 / sigma^2 for `trials` Gaussian draws at two-sided Z."""
    k = trials - 1
    h = 2.0 / (9.0 * k)
    return tuple((1.0 - h + s * Z * math.sqrt(h)) ** 3 for s in (-1.0, 1.0))


def monte_carlo(name: str, report: dict, truth: float, expected_ratio: float) -> list[str]:
    n, f_total = report["trials"], report["fisher_total"]
    problems = []
    se = math.sqrt(expected_ratio / (f_total * n))
    if abs(report["mean_estimate"] - truth) > Z * se:
        problems.append(f"{name}: mean {report['mean_estimate']!r} is "
                        f"{abs(report['mean_estimate'] - truth) / se:.2f} SE from truth {truth!r}")
    lo, hi = variance_band(n)
    r = report["crb_ratio"] / expected_ratio
    if not lo <= r <= hi:
        problems.append(f"{name}: crb_ratio {report['crb_ratio']!r} / expected "
                        f"{expected_ratio!r} = {r:.4f} outside [{lo:.4f}, {hi:.4f}]")
    return problems


def dense_covariance(a, c, dt, tau_c, n) -> np.ndarray:
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return a * np.eye(n) + c * np.exp(-lags * (dt / tau_c))


def ones_c_ones(a, c, dt, tau_c, n) -> float:
    """1' C 1 summed by lag: N (a + c) + 2 c sum_k (N - k) rho^k."""
    k = np.arange(1, n)
    return float(n * (a + c) + 2.0 * c * np.sum((n - k) * np.exp(-k * dt / tau_c)))


def rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def same_rounds(rounds: list) -> list[str]:
    return [f"round {k} differs from round 0" for k, r in enumerate(rounds) if r != rounds[0]]


# ---------------------------------------------------------------------------
# cli_scenarios


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_cli(result: dict) -> list[str]:
    problems = []
    commands = {c["cmd"]: c for c in result["inputs"]["commands"]}
    for k, outputs in enumerate(result["rounds"]):  # a command that exits non-zero counts as failed
        for o in outputs:
            if o["rc"] == 0 and o["stderr"]:
                problems.append(f"round {k} {o['cmd']}: stderr {o['stderr'][:200]!r}")
    manifests = [{o["cmd"]: json.loads((Path(o["out"]) / "manifest.json").read_text())
                  for o in outputs if o["rc"] == 0} for outputs in result["rounds"]]
    problems += same_rounds(manifests)

    out = {o["cmd"]: Path(o["out"]) for o in result["rounds"][0]}
    for cmd, manifest in manifests[0].items():
        d = out[cmd]
        on_disk = {f.name for f in d.iterdir()} - {"manifest.json"}
        if manifest["command"] != cmd or set(manifest["files"]) != on_disk:
            problems.append(f"{cmd}: manifest lists {sorted(manifest['files'])}, dir has {sorted(on_disk)}")
        for name, digest in manifest["files"].items():
            if (d / name).exists() and sha256(d / name) != digest:
                problems.append(f"{cmd}: sha256 of {name} does not match manifest")
        echo = json.loads((d / "config_echo.json").read_text())
        if echo != commands[cmd]["config"]:
            problems.append(f"{cmd}: config_echo.json differs from the scenario")

    if "budget" in manifests[0]:
        block = commands["budget"]["config"]["scheme"]
        q_jt = 1.0 / block["sigma"] ** 2
        rows = read_csv(out["budget"] / "budget.csv")
        if len(rows) != block["theta"]["points"]:
            problems.append(f"budget.csv has {len(rows)} rows")
        for row in rows:
            if rel(float(row["q_jt"]), q_jt) > 1e-9 or abs(float(row["sum_ratio"]) - 1.0) > 1e-9:
                problems.append(f"budget.csv theta_i={row['theta_i']}: q_jt {row['q_jt']}, "
                                f"sum_ratio {row['sum_ratio']}")
        for row in read_csv(out["budget"] / "budget_pf_sweep.csv"):
            if not (0.0 <= float(row["fi_real"]) <= q_jt and 0.0 <= float(row["fi_imag"]) <= q_jt):
                problems.append(f"budget_pf_sweep.csv delta={row['delta']}: readout FI above Q_jt")

    if "shift" in manifests[0]:
        block = commands["shift"]["config"]["scheme"]
        rows = read_csv(out["shift"] / "shift.csv")
        if len(rows) != len(block["gammas"]) * block["theta"]["points"]:
            problems.append(f"shift.csv has {len(rows)} rows")
        for row in rows:
            gamma, theta = float(row["gamma"]), float(row["theta"])
            # <Q>_f / (gamma0 t) = -sin 2theta / (1 - cos 2theta exp(-Gamma^2 / 2))
            closed = -math.sin(2 * theta) / (1 - math.cos(2 * theta) * math.exp(-gamma**2 / 2))
            if rel(float(row["shift_over_g"]), closed) > 1e-12:
                problems.append(f"shift.csv gamma={gamma} theta={theta}: closed form column")
            if rel(float(row["shift_over_g_grid"]), closed) > 0.01:
                problems.append(f"shift.csv gamma={gamma} theta={theta}: grid column off by > 1%")

    if "scheme" in manifests[0]:
        report = json.loads((out["scheme"] / "report.json").read_text())
        nbar = commands["scheme"]["config"]["scheme"]["nbar"]
        q_jt, b = nbar**2 + 2 * nbar, report["budget"]
        if rel(report["q_jt"], q_jt) > 1e-9 or rel(b["q_jt"], q_jt) > 1e-9:
            problems.append(f"phase space: Q_jt {report['q_jt']!r}, closed form {q_jt!r}")
        if abs(b["pf_qf"] + b["pr_qr"] + b["f_p"] - b["q_jt"]) > 1e-8 * abs(b["q_jt"]):
            problems.append("phase space: budget does not close within 1e-8")
        if not 0.0 <= report["f_p"] <= q_jt:
            problems.append(f"phase space: F_p {report['f_p']!r} above Q_jt")
        if abs(report["sweep"]["fitted_slope"] - 2.0) > 1e-3:
            problems.append(f"phase space: fitted slope {report['sweep']['fitted_slope']!r}")

    if "estimate" in manifests[0]:
        report = json.loads((out["estimate"] / "estimate.json").read_text())
        config = commands["estimate"]["config"]
        if report["seed"] != result["inputs"]["estimate_seed"] or report["nu"] != config["experiment"]["nu"]:
            problems.append("estimate.json: seed or nu differs from the inputs")
        problems += monte_carlo("estimate.json", report, config["scheme"]["g"], 1.0)

    if "noise" in manifests[0]:
        nb = commands["noise"]["config"]["noise"]
        white = nb["n"] / (nb["a"] + nb["c"])
        for row in read_csv(out["noise"] / "noise_table.csv"):
            if row["regime"] == "white" and rel(float(row["numeric"]), white) > 1e-9:
                problems.append(f"noise_table.csv white {row['quantity']}: {row['numeric']} vs N/(a+c) {white!r}")
    return problems


# ---------------------------------------------------------------------------
# crb_plans


def check_crb(result: dict) -> list[str]:
    problems = same_rounds(result["rounds"])
    inputs, reports = result["inputs"], result["rounds"][0]
    model = inputs["noise_model"]
    n = model[-1]
    c = dense_covariance(*model)
    f_cm = float(np.linalg.solve(c, np.ones(n)).sum())
    expected = {"noise_amr": float(c.sum()) * f_cm / n**2}
    for name, report in reports.items():
        if report is None:
            continue
        plan = inputs["plans"][name]
        if (report["trials"], report["nu"], report["seed"]) != (plan["trials"], plan["nu"], plan["seed"]):
            problems.append(f"{name}: report echoes other trials, nu or seed")
        if name.startswith("noise") and rel(report["fisher_total"], f_cm) > 1e-9:
            problems.append(f"{name}: fisher_total {report['fisher_total']!r} vs LU 1'C^-1 1 {f_cm!r}")
        problems += monte_carlo(name, report, inputs["truths"][name], expected.get(name, 1.0))
    return problems


# ---------------------------------------------------------------------------
# noise_scaling


def check_noise(result: dict) -> list[str]:
    problems = same_rounds(result["rounds"])
    inputs = result["inputs"]
    models = {(name, n): tuple(args) for name, n, args in inputs["models"]}
    f_cm = {}
    for row in result["rounds"][0]:
        if "plan" in row:
            continue
        n, args = row["n"], models[(row["regime"], row["n"])]
        tag = f"{row['regime']} N={n}"
        one_c_one = ones_c_ones(*args)
        if row["f_cm"] is not None:
            f = f_cm[args] = row["f_cm"]
            if not n * n / one_c_one * (1 - 1e-12) <= f <= n / args[0] * (1 + 1e-12):
                problems.append(f"{tag}: F_CM {f!r} outside [N^2/1'C1, N/a]")
            if n <= 2000:
                lu = float(np.linalg.solve(dense_covariance(*args), np.ones(n)).sum())
                if rel(f, lu) > 1e-9:
                    problems.append(f"{tag}: F_CM {f!r} vs LU {lu!r}")
        if row["v_amr"] is not None and rel(row["v_amr"], one_c_one / n**2) > 1e-9:
            problems.append(f"{tag}: AMR variance {row['v_amr']!r} vs 1'C1/N^2 {one_c_one / n**2!r}")
        if row["w_sum"] is not None and abs(row["w_sum"] - 1.0) > 1e-12:
            problems.append(f"{tag}: GLS weights sum to {row['w_sum']!r}")
    report = result["rounds"][0][-1]["plan"]
    if report is not None:
        model = tuple(inputs["plan_model"])
        if model in f_cm and rel(report["fisher_total"], f_cm[model]) > 1e-12:
            problems.append("plan: fisher_total differs from cm_fisher_correlated of its model")
        problems += monte_carlo("mle_correlated plan", report, inputs["truth"], 1.0)
    return problems


def check(workload: str, result: dict) -> list[str]:
    return {"cli_scenarios": check_cli, "crb_plans": check_crb,
            "noise_scaling": check_noise}[workload](result)
