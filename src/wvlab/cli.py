"""Command-line front end: scenario configs in, tables and JSON reports out.

Subcommands: shift | budget | noise | scheme | estimate. Every run writes its
outputs plus a manifest.json carrying the seed, the echoed config, and a
sha256 per emitted file so results are auditable. Exit status is 0 only when
all internal checks of the requested command pass; config problems exit 2 and
failed checks exit 1, both with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimate as est
from . import schemes
from .coupling import (
    CouplingConfig,
    Generator,
    evolve_joint,
    postselect,
    trapped_ion_shift,
)
from .errors import ConfigError, WvlabError
from .infometrics import (
    classical_fisher,
    info_budget,
    qfi_joint,
    quadrature_family,
    selection_fisher,
    selection_probability,
)
from .meter import FockMeter, GaussianMeter, to_grid
from .noise import (
    CorrelatedNoiseModel,
    amr_information,
    amr_variance_exact,
    cm_fisher_correlated,
)
from .qsys import SIGMA_X, SIGMA_Z, SystemState, bloch_state, optimal_postselection

_BLOCK_KEYS = {
    "scheme": {
        "variant", "g", "sigma", "epsilon", "phi", "points", "theta_angle",
        "phi_angle", "tau", "beta", "omega0", "delta_omega", "resolution",
        "p_f", "loss", "mode", "mirror_r", "n_input", "alpha", "nbar",
        "mixture", "theta_i", "n", "variant_post", "iterative", "gammas",
        "gamma0_t", "theta", "grid_check", "g_over_2sigma", "pf_sweep",
        "n_values", "wva_p_f", "phi_align", "eps_fluct", "omega_noise",
    },
    "noise": {"a", "c", "dt", "tau_c", "n"},
    "experiment": {"nu", "trials", "seed", "estimator", "true_value"},
    "output": {"directory", "formats", "dump_samples"},
    "sweep": {"parameter", "values"},
}


@dataclass
class ScenarioConfig:
    """Validated scenario: one scheme block plus optional noise, experiment,
    output and sweep blocks. Unknown keys anywhere are rejected."""

    scheme: dict
    noise: dict | None = None
    experiment: dict | None = None
    output: dict | None = None
    sweep: dict | None = None

    @classmethod
    def parse(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        unknown = set(raw) - set(_BLOCK_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        if "scheme" not in raw:
            raise ConfigError("config needs a 'scheme' block")
        for block, keys in _BLOCK_KEYS.items():
            if block in raw:
                if not isinstance(raw[block], dict):
                    raise ConfigError(f"'{block}' block must be an object")
                bad = set(raw[block]) - keys
                if bad:
                    raise ConfigError(f"unknown keys in '{block}': {sorted(bad)}")
        return cls(
            scheme=raw["scheme"],
            noise=raw.get("noise"),
            experiment=raw.get("experiment"),
            output=raw.get("output"),
            sweep=raw.get("sweep"),
        )

    def to_dict(self) -> dict:
        out = {"scheme": self.scheme}
        for name in ("noise", "experiment", "output", "sweep"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ScenarioConfig.parse(raw)


def _require(block: dict, *names):
    missing = [n for n in names if n not in block]
    if missing:
        raise ConfigError(f"missing keys: {missing}")
    return [block[n] for n in names]


def build_scheme_spec(block: dict):
    """Map a scheme block onto the matching spec object."""
    variant = block.get("variant")
    if variant == "standard":
        g, sigma = _require(block, "g", "sigma")
        return schemes.StandardSpec(
            g=g, sigma=sigma, epsilon=block.get("epsilon"), phi=block.get("phi"),
            points=block.get("points", 4096),
        )
    if variant == "inverse":
        g, sigma = _require(block, "g", "sigma")
        return schemes.InverseSpec(
            g=g, sigma=sigma, theta_angle=block.get("theta_angle", 0.0),
            phi_angle=block.get("phi_angle", 0.0), points=block.get("points", 4096),
        )
    if variant == "abwva":
        g, eps, sigma = _require(block, "g", "epsilon", "sigma")
        return schemes.ABWVASpec(g=g, epsilon=eps, sigma=sigma,
                                 points=block.get("points", 4096))
    if variant == "joint_wm":
        tau, phi, om0, dom = _require(block, "tau", "phi_align", "omega0", "delta_omega")
        return schemes.JointWMSpec(
            tau=tau, phi=phi, eps_fluct=block.get("eps_fluct", 0.0),
            omega0=om0, delta_omega=dom, omega_noise=block.get("omega_noise", 0.0),
        )
    if variant == "biased":
        tau, beta, eps, om0, dom = _require(
            block, "tau", "beta", "epsilon", "omega0", "delta_omega"
        )
        return schemes.BiasedSpec(
            tau=tau, beta=beta, epsilon=eps, omega0=om0, delta_omega=dom,
            resolution=block.get("resolution"), points=block.get("points", 8192),
        )
    if variant == "recycle":
        (p_f,) = _require(block, "p_f")
        return schemes.RecycleSpec(
            p_f=p_f, loss=block.get("loss", 0.0), mode=block.get("mode", "pulsed"),
            mirror_r=block.get("mirror_r"), n_input=block.get("n_input", 1.0),
        )
    if variant == "phase_space":
        g, eps = _require(block, "g", "epsilon")
        if "mixture" in block:
            meter = FockMeter.mixture([tuple(p) for p in block["mixture"]])
        else:
            alpha = block.get("alpha", math.sqrt(block.get("nbar", 1.0)))
            meter = FockMeter.coherent(alpha)
        return schemes.PhaseSpaceSpec(
            g=g, epsilon=eps, meter=meter,
            theta_i=block.get("theta_i", math.pi / 2),
        )
    if variant == "entangled":
        phi, eps, n = _require(block, "phi", "epsilon", "n")
        return schemes.EntangledSpec(
            phi=phi, epsilon=eps, n=int(n),
            variant=block.get("variant_post", "max_prob"),
            iterative=bool(block.get("iterative", False)),
        )
    raise ConfigError(f"unknown scheme variant {variant!r}")


def build_noise_model(block: dict) -> CorrelatedNoiseModel:
    a, c, dt, tau_c, n = _require(block, "a", "c", "dt", "tau_c", "n")
    return CorrelatedNoiseModel(a=a, c=c, dt=dt, tau_c=tau_c, n=int(n))


# ---------------------------------------------------------------------------
# output plumbing


class RunWriter:
    def __init__(
        self,
        out_dir: Path,
        command: str,
        seed: int | None,
        config: ScenarioConfig,
        fmt: str = "csv",
    ):
        self.dir = out_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.seed = seed
        self.config = config
        self.fmt = fmt
        self.files: dict[str, str] = {}

    def _register(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files[path.name] = digest

    def write_table(self, name: str, header: list[str], rows) -> Path:
        if self.fmt == "json":
            payload = {
                "columns": list(header),
                "rows": [
                    [x if isinstance(x, str) else float(x) for x in row]
                    for row in rows
                ],
            }
            return self.write_json(Path(name).with_suffix(".json").name, payload)
        path = self.dir / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(
                        x if isinstance(x, str) else format(float(x), ".17g")
                        for x in row
                    )
                    + "\n"
                )
        self._register(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(payload, indent=2, default=float), encoding="utf-8")
        self._register(path)
        return path

    def finish(self) -> Path:
        echo = self.write_json("config_echo.json", self.config.to_dict())
        manifest = {
            "command": self.command,
            "seed": self.seed,
            "files": self.files,
        }
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# commands


def cmd_shift(cfg: ScenarioConfig, writer: RunWriter) -> int:
    block = cfg.scheme
    if block.get("variant") != "trapped_ion":
        raise ConfigError("shift expects scheme variant 'trapped_ion'")
    gammas, g0t, theta = _require(block, "gammas", "gamma0_t", "theta")
    thetas = np.linspace(theta["start"], theta["stop"], int(theta["points"]))
    grid_check = bool(block.get("grid_check", False))

    rows = []
    worst = 0.0
    for gamma in gammas:
        for th in thetas:
            ratio = trapped_ion_shift(gamma, th, g0t) / g0t
            row = [gamma, th, ratio]
            if grid_check:
                grid_ratio = _trapped_ion_grid_ratio(gamma, th)
                worst = max(worst, abs(grid_ratio - ratio) / max(abs(ratio), 1e-12))
                row.append(grid_ratio)
            rows.append(row)
    header = ["gamma", "theta", "shift_over_g"]
    if grid_check:
        header.append("shift_over_g_grid")
    writer.write_table("shift.csv", header, rows)
    if grid_check and worst > 0.01:
        raise WvlabError(f"grid check deviates by {worst:.3%} (> 1%)")
    return 0


def _trapped_ion_grid_ratio(gamma: float, theta: float, sigma: float = 1.0) -> float:
    pre = SystemState(np.array([0.0, 1.0]))
    post = SystemState(np.array([math.cos(theta), -math.sin(theta)]))
    g = gamma * sigma
    base = to_grid(GaussianMeter(sigma), 16 * sigma + 8 * g, 4096)
    joint = evolve_joint(pre, base, CouplingConfig(g, Generator.MOMENTUM_KICK, SIGMA_X))
    ps = postselect(joint, post)
    return ps.success_meter.mean_q() / g


def cmd_budget(cfg: ScenarioConfig, writer: RunWriter) -> int:
    block = cfg.scheme
    if block.get("variant") != "budget_sweep":
        raise ConfigError("budget expects scheme variant 'budget_sweep'")
    g2s, sigma = _require(block, "g_over_2sigma", "sigma")
    theta = block.get("theta", {"start": 0.05, "stop": 1.52, "points": 40})
    thetas = np.linspace(theta["start"], theta["stop"], int(theta["points"]))
    g = 2 * sigma * g2s
    meter = GaussianMeter(sigma)
    coupling = CouplingConfig(g, Generator.MOMENTUM_KICK, SIGMA_Z)

    rows = []
    worst = 0.0
    for th in thetas:
        pre = bloch_state(th, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        budget = info_budget(pre, post, coupling, meter)
        q = budget.q_jt
        total = (budget.p_f_q_f + budget.p_r_q_r + budget.f_p) / q
        worst = max(worst, abs(total - 1.0))
        rows.append(
            [th, budget.q_jt, budget.p_f_q_f / q, budget.p_r_q_r / q,
             budget.f_p / q, total]
        )
    writer.write_table(
        "budget.csv",
        ["theta_i", "q_jt", "q_wva_ratio", "pr_qr_ratio", "f_p_ratio", "sum_ratio"],
        rows,
    )
    if bool(block.get("pf_sweep", False)):
        _budget_pf_sweep(sigma, g, writer)
    if worst > 1e-6:
        raise WvlabError(f"budget identity violated by {worst:.3e} (> 1e-6)")
    return 0


def _budget_pf_sweep(sigma: float, g: float, writer: RunWriter) -> None:
    """Classical readout FI of real (Q readout) vs imaginary (P readout) WVA
    against the post-selection probability, Fig.-5(c,d) style."""
    meter = GaussianMeter(sigma)
    q_grid = to_grid(meter, 16 * sigma + 8 * g, 4096).q_grid
    coupling = CouplingConfig(g, Generator.MOMENTUM_KICK, SIGMA_Z)

    def readout_fisher(pre, post, theta: float) -> tuple[float, float]:
        fam = quadrature_family(pre, post, SIGMA_Z, meter, theta, q_grid)
        p_f, _ = selection_probability(pre, post, coupling, meter)
        return p_f, classical_fisher(fam, g).fi

    rows = []
    for delta in np.linspace(0.1, 1.45, 28):
        # real WVA: optimal pair (theta_i, -theta_i); p_f ~ cos^2(theta_i)
        pre_re = bloch_state(delta, 0.0)
        post_re = optimal_postselection(pre_re, SIGMA_Z)
        p_re, f_re = readout_fisher(pre_re, post_re, 0.0)
        # imaginary WVA: azimuth-detuned pair at the equator; p_f ~ sin^2(d/2)
        pre_im = bloch_state(np.pi / 2, 0.0)
        post_im = bloch_state(-np.pi / 2, delta)
        p_im, f_im = readout_fisher(pre_im, post_im, np.pi / 2)
        rows.append([delta, p_re, p_re * f_re, p_im, p_im * f_im])
    writer.write_table(
        "budget_pf_sweep.csv",
        ["delta", "p_f_real", "fi_real", "p_f_imag", "fi_imag"],
        rows,
    )


def cmd_noise(cfg: ScenarioConfig, writer: RunWriter) -> int:
    """Information table of averaging (I) against the full 1'C^-1 1 (F), for
    conventional measurement and for real WVA at p_f <A>_w^2 = 1.

    F has a closed form, the averaging information of its I row, only in the
    white limit C -> (a + c) I and the fully correlated limit C -> a I + c 11'
    (exchangeable, so uniform GLS weights). The slow regimes lie between the
    two, so their F rows print NaN in the analytic column.
    """
    block = cfg.scheme
    if block.get("variant") != "noise_table":
        raise ConfigError("noise expects scheme variant 'noise_table'")
    if cfg.noise is None:
        raise ConfigError("noise command needs a 'noise' block")
    base = build_noise_model(cfg.noise)
    p_f = float(block.get("wva_p_f", 0.01))

    # slow_1: post-selection thins the kept samples below the correlation
    # time (p_f < dt/tau); slow_2: they stay correlated (p_f > dt/tau)
    regimes = {
        "white": CorrelatedNoiseModel(base.a, base.c, base.dt, base.dt * 1e-3, base.n),
        "slow_1": CorrelatedNoiseModel(
            base.a, base.c, base.dt, base.dt / (10 * p_f), base.n
        ),
        "slow_2": CorrelatedNoiseModel(base.a, base.c, base.dt, base.dt * 1e3, base.n),
    }
    rows = [r for name, m in regimes.items() for r in _noise_rows(name, m, p_f, name == "white")]
    writer.write_table(
        "noise_table.csv", ["regime", "quantity", "analytic", "numeric"], rows
    )
    return 0


def _noise_rows(name: str, model: CorrelatedNoiseModel, p_f: float, at_limit: bool) -> list:
    """The I_CM, F_CM, I_WVA and F_WVA rows of one regime: [name, quantity,
    analytic, numeric]. The analytic F is the averaging information when
    `model` sits at the white or fully correlated limit, and NaN otherwise."""
    w = 1.0 / math.sqrt(p_f)
    i_cm = amr_information(model, "cm").value
    i_wva = amr_information(model, "wva", p_f=p_f, weak_value=w).value
    thinned = model.thinned(p_f)
    return [
        [name, "I_CM", i_cm, 1.0 / amr_variance_exact(model)],
        [name, "F_CM", i_cm if at_limit else math.nan, cm_fisher_correlated(model)],
        [name, "I_WVA", i_wva, w**2 / amr_variance_exact(thinned)],
        [name, "F_WVA", i_wva if at_limit else math.nan, w**2 * cm_fisher_correlated(thinned)],
    ]


def cmd_scheme(cfg: ScenarioConfig, writer: RunWriter) -> int:
    spec = build_scheme_spec(cfg.scheme)
    payload: dict = {}

    if isinstance(spec, schemes.StandardSpec):
        res = schemes.standard_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["x", "density"],
            np.column_stack([res.distribution.grid, res.distribution.density]),
        )
    elif isinstance(spec, schemes.InverseSpec):
        res = schemes.inverse_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["q", "density"],
            np.column_stack([res.q_distribution.grid, res.q_distribution.density]),
        )
    elif isinstance(spec, schemes.ABWVASpec):
        res = schemes.abwva_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["p", "p0", "p1", "p2", "difference"],
            np.column_stack([res.p_grid, res.p0, res.p1, res.p2, res.difference]),
        )
    elif isinstance(spec, schemes.JointWMSpec):
        res = schemes.joint_wm_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["omega", "detector_plus", "detector_minus"],
            np.column_stack([res.omega_grid, res.dist_plus, res.dist_minus]),
        )
    elif isinstance(spec, schemes.BiasedSpec):
        res = schemes.biased_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["omega", "spectrum"],
            np.column_stack([res.omega_grid, res.spectrum]),
        )
    elif isinstance(spec, schemes.RecycleSpec):
        payload = schemes.recycle_scheme(spec).report.to_dict()
    elif isinstance(spec, schemes.PhaseSpaceSpec):
        res = schemes.phase_space_scheme(spec)
        payload = res.report.to_dict()
        n = np.arange(res.photon_distribution.size)
        writer.write_table(
            "distribution.csv", ["n", "probability"],
            np.column_stack([n, res.photon_distribution]),
        )
    elif isinstance(spec, schemes.EntangledSpec):
        res = schemes.entangled_scheme(spec)
        payload = res.report.to_dict()
        writer.write_table(
            "distribution.csv", ["sigma_z", "probability"],
            np.column_stack([np.array([1.0, -1.0]), res.outcome_probs]),
        )

    if cfg.sweep is not None:
        payload["sweep"] = _run_sweep(cfg, writer)
    writer.write_json("report.json", payload)
    return 0


def _run_sweep(cfg: ScenarioConfig, writer: RunWriter) -> dict:
    param, values = _require(cfg.sweep, "parameter", "values")
    variant = cfg.scheme.get("variant")
    rows = []
    if variant == "phase_space" and param == "nbar":
        for nbar in values:
            block = dict(cfg.scheme)
            block["nbar"] = nbar
            block.pop("alpha", None)
            res = schemes.phase_space_scheme(build_scheme_spec(block))
            rows.append([nbar, res.f_p, res.report.p_f])
        writer.write_table("sweep.csv", ["nbar", "f_p", "p_f"], rows)
        logs = np.log10(np.array([[r[0], r[1]] for r in rows], dtype=float))
        slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
        return {"parameter": param, "fitted_slope": slope}
    if variant == "entangled" and param == "n":
        for n in values:
            block = dict(cfg.scheme)
            block["n"] = int(n)
            res = schemes.entangled_scheme(build_scheme_spec(block))
            rows.append([n, res.q_jt, res.report.p_f])
        writer.write_table("sweep.csv", ["n", "q_jt", "p_f"], rows)
        logs = np.log10(np.array([[r[0], r[1]] for r in rows], dtype=float))
        slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
        return {"parameter": param, "fitted_slope": slope}
    raise ConfigError(f"unsupported sweep {param!r} for variant {variant!r}")


def cmd_estimate(cfg: ScenarioConfig, writer: RunWriter, seed_override: int | None) -> int:
    if cfg.experiment is None:
        raise ConfigError("estimate command needs an 'experiment' block")
    exp = cfg.experiment
    seed = int(seed_override if seed_override is not None else exp.get("seed", 0))
    writer.seed = seed  # the manifest records the seed the run used
    scheme_spec = None
    if cfg.scheme.get("variant") != "none":
        scheme_spec = build_scheme_spec(cfg.scheme)
    noise_model = build_noise_model(cfg.noise) if cfg.noise else None
    plan = est.ExperimentPlan(
        scheme=scheme_spec,
        nu=int(exp["nu"]),
        trials=int(exp["trials"]),
        seed=seed,
        estimator=exp.get("estimator", "amr"),
        noise=noise_model,
        true_value=float(exp.get("true_value", 0.0)),
    )
    report = est.run_experiment(plan)
    writer.write_json("estimate.json", report.to_dict())
    if cfg.output and cfg.output.get("dump_samples"):
        if noise_model is not None:
            samples = plan.true_value + est.correlated_noise_samples(
                noise_model, plan.seed, 0
            )
        else:
            family, g_true = est._scheme_family(scheme_spec)
            samples = est.sample(family, plan.nu, plan.seed, 0, g_true)
        writer.write_table("samples.csv", ["x"], [[s] for s in samples])
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wvlab",
        description="Weak-value-amplification numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("shift", "budget", "noise", "scheme", "estimate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        writer = RunWriter(Path(args.out), args.command, args.seed, cfg, args.format)
        if args.command == "shift":
            rc = cmd_shift(cfg, writer)
        elif args.command == "budget":
            rc = cmd_budget(cfg, writer)
        elif args.command == "noise":
            rc = cmd_noise(cfg, writer)
        elif args.command == "scheme":
            rc = cmd_scheme(cfg, writer)
        else:
            rc = cmd_estimate(cfg, writer, args.seed)
        writer.finish()
        return rc
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except WvlabError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
