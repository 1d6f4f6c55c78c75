"""Command-line front end: scenario configs in, tables and JSON reports out.

Subcommands: shift | budget | noise | scheme | estimate. Every run writes its
outputs plus a manifest.json carrying the seed, the echoed config, and a
sha256 per emitted file so results are auditable. Exit status is 0 only when
all internal checks of the requested command pass; config problems exit 2 and
failed checks exit 1, both with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

from . import estimate as est
from . import schemes
from .coupling import CouplingConfig, Generator, evolve_joint, postselect, trapped_ion_shift
from .errors import ConfigError, WvlabError
from .infometrics import classical_fisher, info_budget, quadrature_family, readout_axis
from .meter import FockMeter, GaussianMeter, to_grid
from .noise import CorrelatedNoiseModel, amr_information, amr_variance_exact, cm_fisher_correlated
from .qsys import SIGMA_X, SIGMA_Z, SystemState, bloch_state, optimal_postselection

# ---------------------------------------------------------------------------
# config schema: each block is a dataclass whose fields are its keys


@dataclass(frozen=True)
class Linspace:
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class TrappedIon:
    """`shift`: <Q>_f / (gamma0 t) over theta for each coupling Gamma."""

    gammas: list[float]
    gamma0_t: float
    theta: Linspace
    grid_check: bool = False

    def __post_init__(self):
        if self.gamma0_t == 0:
            raise ValueError("gamma0_t must be nonzero")


@dataclass(frozen=True)
class BudgetSweep:
    """`budget`: the information budget over theta_i at fixed g / 2 sigma."""

    g_over_2sigma: float
    sigma: float
    theta: Linspace = Linspace(0.05, 1.52, 40)
    pf_sweep: bool = False

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class NoiseTable:
    """`noise`: the correlated-noise table with real WVA at rate wva_p_f."""

    wva_p_f: float = 0.01

    def __post_init__(self):
        if not 0 < self.wva_p_f <= 1:
            raise ValueError("wva_p_f must lie in (0, 1]")


@dataclass(frozen=True)
class NoScheme:
    """`estimate` on the noise model alone."""


@dataclass(frozen=True)
class Output:
    dump_samples: bool = False


@dataclass(frozen=True)
class Sweep:
    parameter: str
    values: list[float]

    def __post_init__(self):
        if len(self.values) < 2 or min(self.values) <= 0:
            raise ValueError("the log-log slope needs >= 2 positive values")


VARIANTS = {
    "standard": schemes.StandardSpec,
    "inverse": schemes.InverseSpec,
    "abwva": schemes.ABWVASpec,
    "joint_wm": schemes.JointWMSpec,
    "biased": schemes.BiasedSpec,
    "recycle": schemes.RecycleSpec,
    "phase_space": schemes.PhaseSpaceSpec,
    "entangled": schemes.EntangledSpec,
    "trapped_ion": TrappedIon,
    "budget_sweep": BudgetSweep,
    "noise_table": NoiseTable,
    "none": NoScheme,
}
CATALOG = tuple(cls for cls in VARIANTS.values() if hasattr(cls, "run"))
# sweepable spec -> (swept key, reported result attribute)
SWEEPS = {schemes.PhaseSpaceSpec: ("nbar", "f_p"), schemes.EntangledSpec: ("n", "q_jt")}
# the blocks each command reads
BLOCKS = {"shift": ("scheme",), "budget": ("scheme",), "noise": ("scheme", "noise"),
          "scheme": ("scheme", "sweep"), "estimate": ("scheme", "noise", "experiment", "output")}
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def build(cls, block, where: str, **given):
    """`cls` from a JSON object whose keys are its fields, less those `given`.

    Unknown or missing keys, a wrong JSON type and the ValueError of the
    class's own checks all raise ConfigError. Any finite number fills a float
    field as it is; an int field takes integral numbers only (1e4, not 100.7).
    """
    if not isinstance(block, dict):
        raise ConfigError(f"'{where}' must be an object")
    fields = {
        f.metadata.get("config", f.name): f
        for f in dataclasses.fields(cls) if f.name not in given
    }
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {unknown}")
    missing = [k for k, f in fields.items() if k not in block
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing keys in '{where}': {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {f.name: _typed(block[k], hints[f.name], f"{where}.{k}")
              for k, f in fields.items() if k in block}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(f"'{where}': {exc}") from exc


def _typed(value, hint, where: str):
    if dataclasses.is_dataclass(hint):
        return build(hint, value, where)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0], where)
    if typing.get_origin(hint) is list and isinstance(value, list):
        return [_typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is float and number:
        if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, 1e400
            raise ConfigError(f"'{where}' must be a finite number, got {json.dumps(value)}")
        return value
    if hint is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if hint in (bool, str) and isinstance(value, hint):
        return value
    expected = _JSON_TYPES.get(hint, "an array")
    raise ConfigError(f"'{where}' must be {expected}, got {json.dumps(value)}")


def _phase_space(block: dict) -> schemes.PhaseSpaceSpec:
    """The meter comes from one of alpha, nbar (n-bar = 1 if none is given)
    or mixture, a list of [probability, alpha] pairs."""
    meter_keys = [k for k in ("alpha", "nbar", "mixture") if k in block]
    if len(meter_keys) > 1:
        raise ConfigError(f"phase_space takes one of alpha, nbar, mixture; got {meter_keys}")
    key = meter_keys[0] if meter_keys else "nbar"
    hint = list[list[float]] if key == "mixture" else float
    value = _typed(block.get(key, 1.0), hint, f"scheme.{key}")
    try:
        if key == "mixture":
            if any(len(pair) != 2 for pair in value):
                raise ValueError("expected [probability, alpha] pairs")
            meter = FockMeter.mixture([tuple(pair) for pair in value])
        else:
            meter = FockMeter.coherent(value if key == "alpha" else math.sqrt(value))
    except ValueError as exc:
        raise ConfigError(f"'scheme.{key}': {exc}") from exc
    rest = {k: v for k, v in block.items() if k not in meter_keys}
    return build(schemes.PhaseSpaceSpec, rest, "scheme", meter=meter)


def build_scheme(block):
    """The spec of a scheme block, chosen by its variant."""
    if not isinstance(block, dict):
        raise ConfigError("'scheme' must be an object")
    rest = dict(block)
    variant = rest.pop("variant", None)
    cls = VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ConfigError(f"unknown scheme variant {variant!r}")
    if cls is schemes.PhaseSpaceSpec:
        return _phase_space(rest)
    return build(cls, rest, "scheme")


@dataclass
class ScenarioConfig:
    """A scenario with every block built, and `raw`, the JSON as read, which
    config_echo.json repeats."""

    raw: dict
    scheme: object
    noise: CorrelatedNoiseModel | None = None
    experiment: est.ExperimentPlan | None = None
    output: Output = Output()
    sweep: list | None = None  # (value, spec) per swept value

    @classmethod
    def parse(cls, raw, command: str | None = None) -> "ScenarioConfig":
        """With a command, only the blocks that command reads are allowed."""
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        unknown = sorted(set(raw) - set(BLOCKS.get(command) or set().union(*BLOCKS.values())))
        if unknown:
            raise ConfigError(f"unknown top-level keys for {command or 'any command'}: {unknown}")
        if "scheme" not in raw:
            raise ConfigError("config needs a 'scheme' block")
        cfg = cls(raw, build_scheme(raw["scheme"]))
        if "noise" in raw:
            cfg.noise = build(CorrelatedNoiseModel, raw["noise"], "noise")
        if "experiment" in raw:
            scheme = None if isinstance(cfg.scheme, NoScheme) else cfg.scheme
            cfg.experiment = build(est.ExperimentPlan, raw["experiment"], "experiment",
                                   scheme=scheme, noise=cfg.noise)
        cfg.output = build(Output, raw.get("output", {}), "output")
        if "sweep" in raw:
            sweep = build(Sweep, raw["sweep"], "sweep")
            if sweep.parameter != SWEEPS.get(type(cfg.scheme), (None,))[0]:
                raise ConfigError(f"this variant has no sweep over {sweep.parameter!r}")
            base = {k: v for k, v in raw["scheme"].items() if k != "alpha"}
            cfg.sweep = [(v, build_scheme({**base, sweep.parameter: v})) for v in sweep.values]
        return cfg

    def to_dict(self) -> dict:
        return self.raw


def load_config(path: str, command: str | None = None) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ScenarioConfig.parse(raw, command)


# ---------------------------------------------------------------------------
# output plumbing


class RunWriter:
    def __init__(self, out_dir: Path, command: str, seed: int | None,
                 config: ScenarioConfig, fmt: str = "csv"):
        self.dir = out_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.seed = seed
        self.config = config
        self.fmt = fmt
        self.files: dict[str, str] = {}

    def _write(self, name: str, text: str) -> Path:
        path, data = self.dir / name, text.encode("utf-8")
        path.write_bytes(data)
        self.files[name] = hashlib.sha256(data).hexdigest()
        return path

    def write_table(self, name: str, header: list[str], rows) -> Path:
        if self.fmt == "json":
            rows = [[x if isinstance(x, str) else float(x) for x in row] for row in rows]
            payload = {"columns": list(header), "rows": rows}
            return self.write_json(Path(name).with_suffix(".json").name, payload)
        lines = [",".join(header)] + [
            ",".join(x if isinstance(x, str) else format(float(x), ".17g") for x in row)
            for row in rows
        ]
        return self._write(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload: dict) -> Path:
        return self._write(name, json.dumps(payload, indent=2, default=float))

    def finish(self) -> Path:
        self.write_json("config_echo.json", self.config.to_dict())
        manifest = {"command": self.command, "seed": self.seed, "files": self.files}
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# commands


def _expect(cfg: ScenarioConfig, command: str, *classes):
    if not isinstance(cfg.scheme, classes):
        names = " or ".join(repr(v) for v, cls in VARIANTS.items() if cls in classes)
        raise ConfigError(f"{command} expects scheme variant {names}")
    return cfg.scheme


def cmd_shift(cfg: ScenarioConfig, writer: RunWriter) -> int:
    spec = _expect(cfg, "shift", TrappedIon)
    g0t, grid_check = spec.gamma0_t, spec.grid_check
    rows, worst = [], 0.0
    for gamma in spec.gammas:
        joint = _trapped_ion_joint(gamma) if grid_check else None
        for th in spec.theta.values():
            ratio = trapped_ion_shift(gamma, th, g0t) / g0t
            row = [gamma, th, ratio]
            if grid_check:
                grid_ratio = _trapped_ion_grid_ratio(joint, gamma, th)
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


def _trapped_ion_joint(gamma: float):
    """|1> and a unit-width Gaussian meter on a 4096-point grid after
    exp(-i gamma sigma_x p): one joint state for every post-selection angle."""
    base = to_grid(GaussianMeter(1.0), 16.0 + 8 * gamma, 4096)
    pre = SystemState(np.array([0.0, 1.0]))
    return evolve_joint(pre, base, CouplingConfig(gamma, Generator.MOMENTUM_KICK, SIGMA_X))


def _trapped_ion_grid_ratio(joint, gamma: float, theta: float) -> float:
    """Meter shift over gamma on the grid, post-selected at angle theta."""
    post = SystemState(np.array([math.cos(theta), -math.sin(theta)]))
    return postselect(joint, post).success_meter.mean_q() / gamma


def cmd_budget(cfg: ScenarioConfig, writer: RunWriter) -> int:
    spec = _expect(cfg, "budget", BudgetSweep)
    sigma = spec.sigma
    g = 2 * sigma * spec.g_over_2sigma
    meter = GaussianMeter(sigma)
    coupling = CouplingConfig(g, Generator.MOMENTUM_KICK, SIGMA_Z)

    rows = []
    for th in spec.theta.values():
        pre = bloch_state(th, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        budget = info_budget(pre, post, coupling, meter)
        q = budget.q_jt
        parts = [budget.p_f_q_f, budget.p_r_q_r, budget.f_p, budget.parts]
        rows.append([th, q] + [x / q for x in parts])
    header = ["theta_i", "q_jt", "q_wva_ratio", "pr_qr_ratio", "f_p_ratio", "sum_ratio"]
    writer.write_table("budget.csv", header, rows)
    if spec.pf_sweep:
        _budget_pf_sweep(sigma, g, writer)
    return 0


def _budget_pf_sweep(sigma: float, g: float, writer: RunWriter) -> None:
    """Classical readout FI of real (Q readout) vs imaginary (P readout) WVA
    against the post-selection probability, Fig.-5(c,d) style."""
    meter = GaussianMeter(sigma)
    q_grid = readout_axis(sigma, g, 4096)

    def readout_fisher(pre, post, theta: float) -> tuple[float, float]:
        # p_f and the Fisher number read one build of the readout's kernels
        fam = quadrature_family(pre, post, SIGMA_Z, meter, theta, q_grid)
        return fam.kernels(g).p_f(), classical_fisher(fam, g)

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
    header = ["delta", "p_f_real", "fi_real", "p_f_imag", "fi_imag"]
    writer.write_table("budget_pf_sweep.csv", header, rows)


def cmd_noise(cfg: ScenarioConfig, writer: RunWriter) -> int:
    """Information table of averaging (I) against the full 1'C^-1 1 (F), for
    conventional measurement and for real WVA at p_f <A>_w^2 = 1.

    F has a closed form, the averaging information of its I row, only in the
    white limit C -> (a + c) I and the fully correlated limit C -> a I + c 11'
    (exchangeable, so uniform GLS weights). The slow regimes lie between the
    two, so their F rows print NaN in the analytic column.
    """
    p_f = float(_expect(cfg, "noise", NoiseTable).wva_p_f)
    if cfg.noise is None:
        raise ConfigError("noise command needs a 'noise' block")
    base = cfg.noise

    # slow_1: post-selection thins the kept samples below the correlation
    # time (p_f < dt/tau); slow_2: they stay correlated (p_f > dt/tau)
    regimes = {
        "white": CorrelatedNoiseModel(base.a, base.c, base.dt, base.dt * 1e-3, base.n),
        "slow_1": CorrelatedNoiseModel(base.a, base.c, base.dt, base.dt / (10 * p_f), base.n),
        "slow_2": CorrelatedNoiseModel(base.a, base.c, base.dt, base.dt * 1e3, base.n),
    }
    rows = [r for name, m in regimes.items() for r in _noise_rows(name, m, p_f, name == "white")]
    writer.write_table("noise_table.csv", ["regime", "quantity", "analytic", "numeric"], rows)
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
    res = _expect(cfg, "scheme", *CATALOG).run()
    payload = res.report.to_dict()
    table = res.table()
    if table is not None:
        writer.write_table("distribution.csv", list(table), np.column_stack(list(table.values())))
    if cfg.sweep is not None:
        payload["sweep"] = _run_sweep(cfg, writer)
    writer.write_json("report.json", payload)
    return 0


def _run_sweep(cfg: ScenarioConfig, writer: RunWriter) -> dict:
    key, metric = SWEEPS[type(cfg.scheme)]
    rows = []
    for value, spec in cfg.sweep:
        res = spec.run()
        rows.append([value, getattr(res, metric), res.report.p_f])
    writer.write_table("sweep.csv", [key, metric, "p_f"], rows)
    logs = np.log10(np.array([[r[0], r[1]] for r in rows], dtype=float))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return {"parameter": key, "fitted_slope": slope}


def cmd_estimate(cfg: ScenarioConfig, writer: RunWriter) -> int:
    plan = cfg.experiment
    if plan is None:
        raise ConfigError("estimate command needs an 'experiment' block")
    if writer.seed is not None:  # --seed overrides the config's seed
        plan = dataclasses.replace(plan, seed=writer.seed)
    writer.seed = plan.seed  # the manifest records the seed the run used
    report = est.run_experiment(plan)
    writer.write_json("estimate.json", report.to_dict())
    if cfg.output.dump_samples:
        if plan.noise is not None:
            samples = plan.true_value + est.correlated_noise_samples(plan.noise, plan.seed, 0)
        else:
            family, g_true = plan.scheme.outcome_family()
            samples = est.sample(family, plan.nu, plan.seed, 0, g_true)
        writer.write_table("samples.csv", ["x"], [[s] for s in samples])
    return 0


COMMANDS = {"shift": cmd_shift, "budget": cmd_budget, "noise": cmd_noise,
            "scheme": cmd_scheme, "estimate": cmd_estimate}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wvlab", description="Weak-value-amplification numerical laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        writer = RunWriter(Path(args.out), args.command, args.seed, cfg, args.format)
        rc = COMMANDS[args.command](cfg, writer)
        writer.finish()
        return rc
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except WvlabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
