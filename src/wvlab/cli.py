"""Command-line front end: scenario configs in, tables and JSON reports out.

Subcommands: shift | budget | noise | scheme | estimate; `COMMANDS` says what
each reads, and the whole input is checked against it first. A run that
passes writes its outputs plus a manifest.json carrying the seed, the echoed
config, and a sha256 per emitted file; a run that fails writes no `--out`.
Exit status is 0 only when all internal checks of the requested command
pass; bad input exits 2 and failed checks exit 1, both with a
machine-readable JSON error on stderr. Every number written comes from
closed forms, the conditioning kernels of `infometrics` and the meter's
generator spectrum; no command runs the FFT grid chain, which the tests keep
as their oracle.
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
from .coupling import CouplingConfig, trapped_ion_shift
from .errors import ConfigError, WvlabError
from .infometrics import classical_fisher, info_budget, quadrature_family
from .meter import FockMeter, GaussianMeter
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
    """`shift`: <Q>_f / (gamma0 t) over theta for each coupling Gamma, from
    the closed form and from the conditioning kernels."""

    gammas: list[float]
    theta: Linspace

    def __post_init__(self):
        if not self.gammas:
            raise ValueError("gammas must hold at least one value")
        if any(gamma <= 0 for gamma in self.gammas):
            raise ValueError("every gamma must be positive")


@dataclass(frozen=True)
class BudgetSweep:
    """`budget`: the information budget over theta_i at fixed g / 2 sigma."""

    g_over_2sigma: float
    sigma: float
    theta: Linspace = Linspace(0.05, 1.52, 40)

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
        if len(set(self.values)) < 2 or min(self.values) <= 0:
            raise ValueError("the log-log slope needs >= 2 distinct positive values")


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
# sweepable spec -> (swept key, report key)
SWEEPS = {schemes.PhaseSpaceSpec: ("nbar", "f_p"), schemes.EntangledSpec: ("n", "q_jt")}
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
    """The meter is a coherent state of mean photon number nbar (1 if
    neither is given) or mixture, a list of [probability, alpha] pairs."""
    if "nbar" in block and "mixture" in block:
        raise ConfigError("phase_space takes one of nbar, mixture")
    key = "mixture" if "mixture" in block else "nbar"
    hint = list[list[float]] if key == "mixture" else float
    value = _typed(block.get(key, 1.0), hint, f"scheme.{key}")
    try:
        if key == "mixture":
            if any(len(pair) != 2 for pair in value):
                raise ValueError("expected [probability, alpha] pairs")
            meter = FockMeter.mixture([tuple(pair) for pair in value])
        else:
            meter = FockMeter.coherent(math.sqrt(value))
    except ValueError as exc:
        raise ConfigError(f"'scheme.{key}': {exc}") from exc
    rest = {k: v for k, v in block.items() if k != key}
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
    def parse(cls, raw, command: str) -> "ScenarioConfig":
        """The config of `command`: the blocks, and the scheme variants, that
        `COMMANDS[command]` lists, and no others."""
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        reads = COMMANDS[command]
        unknown = sorted(set(raw) - set(reads.needs) - set(reads.may))
        if unknown:
            raise ConfigError(f"unknown top-level keys for {command}: {unknown}")
        missing = [block for block in reads.needs if block not in raw]
        if missing:
            raise ConfigError(f"{command} needs the blocks {missing}")
        cfg = cls(raw, build_scheme(raw["scheme"]))
        if not isinstance(cfg.scheme, reads.variants):
            names = " or ".join(repr(v) for v, c in VARIANTS.items() if c in reads.variants)
            raise ConfigError(f"{command} expects scheme variant {names}")
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
            cfg.sweep = [(v, build_scheme({**raw["scheme"], sweep.parameter: v}))
                         for v in sweep.values]
        return cfg


def load_config(path: str, command: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ScenarioConfig.parse(raw, command)


# ---------------------------------------------------------------------------
# output plumbing


def _json_values(node):
    """`node` with every value JSON has no type for (a numpy scalar) as a
    float, and every NaN or infinity as None."""
    if isinstance(node, dict):
        return {k: _json_values(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_values(v) for v in node]
    if node is None or isinstance(node, (str, int)):
        return node
    x = float(node)
    return x if math.isfinite(x) else None


class RunWriter:
    """A run's files, kept in memory until `finish` makes `--out` and writes
    them, so a run that fails writes nothing."""

    def __init__(self, out_dir: Path, command: str, config: ScenarioConfig):
        self.dir = out_dir
        self.command = command
        self.config = config
        self.files: dict[str, bytes] = {}

    def write_table(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)] + [
            ",".join(x if isinstance(x, str) else format(float(x), ".17g") for x in row)
            for row in rows
        ]
        self.files[name] = ("\n".join(lines) + "\n").encode("utf-8")

    def write_json(self, name: str, payload: dict) -> None:
        """Strict JSON: a non-finite number is written as null."""
        text = json.dumps(_json_values(payload), indent=2, allow_nan=False)
        self.files[name] = text.encode("utf-8")

    def finish(self) -> Path:
        self.write_json("config_echo.json", self.config.raw)
        plan = self.config.experiment  # the seed the run drew from, if any
        seed = None if plan is None else plan.seed
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (self.dir / name).write_bytes(data)
        hashes = {name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()}
        manifest = {"command": self.command, "seed": seed, "files": hashes}
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# commands


def cmd_shift(cfg: ScenarioConfig, writer: RunWriter) -> int:
    """<Q>_f / (gamma0 t) from the closed form, and the post-selected meter
    mean over gamma from the conditioning kernels: |1> and a unit-width
    Gaussian meter after exp(-i gamma sigma_x p), selected on
    (cos theta, -sin theta) and read out in position on `readout_axis`, the
    4096-point grid the FFT chain of the tests samples. A deviation of more
    than 1 % from the closed form fails the command."""
    spec = cfg.scheme
    pre, meter = SystemState(np.array([0.0, 1.0])), GaussianMeter(1.0)
    rows, worst = [], 0.0
    for gamma in spec.gammas:
        for th in spec.theta.values():
            ratio = trapped_ion_shift(gamma, th, 1.0)
            post = SystemState(np.array([math.cos(th), -math.sin(th)]))
            family = quadrature_family(pre, post, SIGMA_X, meter, 0.0, gamma)
            grid_ratio = family.mean_std(gamma)[0] / gamma
            worst = max(worst, abs(grid_ratio - ratio) / max(abs(ratio), 1e-12))
            rows.append([gamma, th, ratio, grid_ratio])
    header = ["gamma", "theta", "shift_over_g", "shift_over_g_grid"]
    writer.write_table("shift.csv", header, rows)
    if worst > 0.01:
        raise WvlabError(f"grid check deviates by {worst:.3%} (> 1%)")
    return 0


def cmd_budget(cfg: ScenarioConfig, writer: RunWriter) -> int:
    """The information budget over theta_i, then the classical readout FI of
    real (Q readout) vs imaginary (P readout) WVA against the post-selection
    probability, Fig.-5(c,d) style."""
    spec = cfg.scheme
    sigma = spec.sigma
    g = 2 * sigma * spec.g_over_2sigma
    meter = GaussianMeter(sigma)
    coupling = CouplingConfig(g, SIGMA_Z)

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

    def readout_fisher(pre, post, theta: float) -> tuple[float, float]:
        # p_f and the Fisher number read one build of the readout's kernels
        fam = quadrature_family(pre, post, SIGMA_Z, meter, theta, g)
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
    return 0


def cmd_noise(cfg: ScenarioConfig, writer: RunWriter) -> int:
    """Information table of averaging (I) against the full 1'C^-1 1 (F), for
    conventional measurement and for real WVA at p_f <A>_w^2 = 1.

    F has a closed form, the averaging information of its I row, only in the
    white limit C -> (a + c) I and the fully correlated limit C -> a I + c 11'
    (exchangeable, so uniform GLS weights). The slow regimes lie between the
    two, so their F rows print NaN in the analytic column.
    """
    p_f, base = float(cfg.scheme.wva_p_f), cfg.noise

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
    i_cm = amr_information(model).value
    i_wva = amr_information(model, p_f).value
    thinned = model.thinned(p_f)
    return [
        [name, "I_CM", i_cm, 1.0 / amr_variance_exact(model)],
        [name, "F_CM", i_cm if at_limit else math.nan, cm_fisher_correlated(model)],
        [name, "I_WVA", i_wva, w**2 / amr_variance_exact(thinned)],
        [name, "F_WVA", i_wva if at_limit else math.nan, w**2 * cm_fisher_correlated(thinned)],
    ]


def cmd_scheme(cfg: ScenarioConfig, writer: RunWriter) -> int:
    report = cfg.scheme.run()
    payload, table = report.to_dict(), report.table
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
        report = spec.run()
        rows.append([value, report.extras[metric], report.p_f])
    writer.write_table("sweep.csv", [key, metric, "p_f"], rows)
    logs = np.log10(np.array([[r[0], r[1]] for r in rows], dtype=float))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return {"parameter": key, "fitted_slope": slope}


def cmd_estimate(cfg: ScenarioConfig, writer: RunWriter) -> int:
    plan = cfg.experiment
    report = est.run_experiment(plan)
    writer.write_json("estimate.json", report.to_dict())
    if cfg.output.dump_samples:  # trial 0's data
        writer.write_table("samples.csv", ["x"], [[s] for s in est.trial_samples(plan, 0)])
    return 0


class Command(typing.NamedTuple):
    """What a command runs and reads: the scheme variants it takes, the
    blocks it needs and those it may have, and whether it takes --seed."""

    run: typing.Callable[[ScenarioConfig, RunWriter], int]
    variants: tuple
    needs: tuple = ("scheme",)
    may: tuple = ()
    seed: bool = False


COMMANDS = {
    "shift": Command(cmd_shift, (TrappedIon,)),
    "budget": Command(cmd_budget, (BudgetSweep,)),
    "noise": Command(cmd_noise, (NoiseTable,), needs=("scheme", "noise")),
    "scheme": Command(cmd_scheme, CATALOG, may=("sweep",)),
    "estimate": Command(cmd_estimate, (*CATALOG, NoScheme), needs=("scheme", "experiment"),
                        may=("noise", "output"), seed=True),
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 as a config error does
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="wvlab", description="Weak-value-amplification numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if command.seed:
            p.add_argument("--seed", type=int, help="overrides the config's seed")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.command)
        if getattr(args, "seed", None) is not None:
            try:
                cfg.experiment = dataclasses.replace(cfg.experiment, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"'--seed': {exc}") from exc
        out = Path(args.out)
        if out.exists() and not out.is_dir():
            raise ConfigError(f"'--out' {args.out} exists and is not a directory")
        writer = RunWriter(out, args.command, cfg)
        rc = COMMANDS[args.command].run(cfg, writer)
        try:
            writer.finish()
        except OSError as exc:
            raise WvlabError(f"cannot write '--out' {args.out}: {exc}") from exc
        return rc
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except WvlabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
