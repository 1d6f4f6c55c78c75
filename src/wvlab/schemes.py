"""Catalog of complete weak-value-amplification measurement protocols.

Every scheme compiles to the same primitives -- states, impulsive coupling,
post-selection, outcome distribution -- so the information metrics come from
one engine (`infometrics`) rather than per-scheme re-derivations. Each
function returns a result object carrying a `SchemeReport` plus the
scheme-specific distributions and a parameterized outcome family for the
estimation module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupling import (
    CouplingConfig,
    Generator,
    RegimeLabel,
    aav_condition_margin,
    classify_regime,
)
from .errors import FlatLikelihood, RegimeViolationWarning, ValidityViolation
from .infometrics import (
    Conditioning,
    InfoBudget,
    ParamDistribution,
    _arm_budget,
    _arms,
    _fisher,
    _generator_weights,
    _selection_fisher,
    classical_fisher,
    qfi_joint,
    quadrature_family,
    readout_axis,
    selection_angle_family,
)
from .meter import (
    FockMeter,
    GaussianMeter,
    SampledDistribution,
    fock_moments,
    optimal_quadrature_angle,
)
from .qsys import (
    PROJ_ONE,
    SIGMA_Z,
    Observable,
    SystemState,
    bloch_state,
    weak_value,
)


@dataclass
class SchemeReport:
    """Per-scheme summary: amplification factor, post-selection probability,
    Fisher information per input trial, SNR per sqrt(trial), and regime."""

    amplification: float
    p_f: float
    fisher: float
    snr_per_root_nu: float
    regime: RegimeLabel | None = None
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_f <= 1.0:
            raise ValueError(f"p_f = {self.p_f!r} outside [0, 1]")
        if self.fisher < 0:
            raise ValueError("fisher must be nonnegative")

    def to_dict(self) -> dict:
        out = {
            "amplification": self.amplification,
            "p_f": self.p_f,
            "fisher": self.fisher,
            "snr_per_root_nu": self.snr_per_root_nu,
            "regime": self.regime.to_dict() if self.regime else None,
            "warnings": list(self.warnings),
        }
        out.update(self.extras)
        return out


# ---------------------------------------------------------------------------
# standard real / imaginary WVA


@dataclass(frozen=True)
class StandardSpec:
    """Standard WVA: epsilon tilts the post-selection polar angle (real weak
    value ~ 2/epsilon), phi detunes the azimuth (imaginary ~ -2i/phi)."""

    g: float
    sigma: float
    epsilon: float | None = None
    phi: float | None = None
    points: int = 4096

    def __post_init__(self):
        if (self.epsilon is None) == (self.phi is None):
            raise ValueError("give exactly one of epsilon (real) or phi (imaginary)")
        if self.sigma <= 0 or self.g == 0:
            raise ValueError("need sigma > 0 and g != 0")
        if self.points < 256:
            raise ValueError("need points >= 256")

    def states(self) -> tuple[SystemState, SystemState]:
        pre = bloch_state(np.pi / 2, 0.0)
        if self.epsilon is not None:
            post = bloch_state(-np.pi / 2 + self.epsilon, 0.0)
        else:
            post = bloch_state(-np.pi / 2, self.phi)
        return pre, post

    def run(self) -> "StandardResult":
        return standard_scheme(self)

    def outcome_family(self) -> tuple[ParamDistribution, float]:
        return self.readout()[0], self.g

    def readout(self) -> tuple[ParamDistribution, float, float, list[str]]:
        """(family, theta, margin, notes): the density of the quadrature
        S_theta at the optimal angle theta, read out of the post-selected
        meter, and the linear-response (Eq.-(5)-style AAV) margin. A margin of
        1 or more warns with a RegimeViolationWarning, whose message `notes`
        holds; the family stays exact."""
        pre, post = self.states()
        margin = aav_condition_margin(pre, post, SIGMA_Z, self.g, self.sigma)
        notes = []
        if margin >= 1.0:
            notes.append(f"AAV margin {margin:.3g} >= 1: outside the standard-WVA regime")
            warnings.warn(notes[0], RegimeViolationWarning, stacklevel=3)
        # the weak value is real (epsilon) or imaginary (phi), so the optimal
        # angle is a quarter turn: 0 or pi reads +-Q, -+pi/2 reads -+P.
        # Roundoff in w tilts the computed angle by ~1e-15 sigma^2 / phi; snap it.
        w = weak_value(pre, post, SIGMA_Z)
        theta = math.pi / 2 * round(2 * optimal_quadrature_angle(w, self.sigma) / math.pi)
        q_grid = readout_axis(self.sigma, self.g, self.points)
        meter = GaussianMeter(self.sigma)
        return quadrature_family(pre, post, SIGMA_Z, meter, theta, q_grid), theta, margin, notes


@dataclass
class StandardResult:
    report: SchemeReport
    distribution: SampledDistribution
    family: ParamDistribution
    weak_value: complex
    theta_opt: float
    budget: InfoBudget

    def table(self) -> dict:
        return {"x": self.distribution.grid, "density": self.distribution.density}


def standard_scheme(spec: StandardSpec) -> StandardResult:
    """Standard WVA measured along its optimal quadrature (`StandardSpec.readout`,
    which warns when the AAV margin reaches 1; everything is still exact)."""
    pre, post = spec.states()
    w = weak_value(pre, post, SIGMA_Z)
    cfg = CouplingConfig(spec.g, Generator.MOMENTUM_KICK, SIGMA_Z)
    meter = GaussianMeter(spec.sigma)
    family, theta, margin, notes = spec.readout()
    dist = SampledDistribution(family.grid, family.probabilities(spec.g))

    success, failure = _arms(pre, post, cfg, *_generator_weights(meter, cfg))
    budget = _arm_budget(qfi_joint(pre, meter, cfg), success, failure)
    p_f = success.p_f()
    fi_cond = classical_fisher(family, spec.g)
    x0 = SampledDistribution(family.grid, family.probabilities(0.0)).mean()
    std = math.sqrt(dist.var())
    snr1 = abs(dist.mean() - x0) / std if std > 0 else 0.0

    report = SchemeReport(
        amplification=abs(w),
        p_f=p_f,
        fisher=p_f * fi_cond,
        snr_per_root_nu=snr1,
        regime=classify_regime(abs(spec.g), spec.sigma, w),
        warnings=notes,
        extras={
            "weak_value_re": w.real,
            "weak_value_im": w.imag,
            "aav_margin": margin,
            "q_jt": budget.q_jt,
            "budget": budget.to_dict(),
            "fisher_conditioned": fi_cond,
            "theta_opt": theta,
        },
    )
    return StandardResult(report, dist, family, w, theta, budget)


# ---------------------------------------------------------------------------
# inverse WVA


@dataclass(frozen=True)
class InverseSpec:
    """Inverse WVA: the post-selection angles theta_i / phi_i are the unknowns
    and the (known) coupling g amplifies them by 1/g. Exactly one of the two
    angles may be nonzero (real vs imaginary variant)."""

    g: float
    sigma: float
    theta_angle: float = 0.0
    phi_angle: float = 0.0
    points: int = 4096

    def __post_init__(self):
        if self.sigma <= 0 or self.g <= 0:
            raise ValueError("need sigma > 0 and g > 0")
        if self.theta_angle != 0.0 and self.phi_angle != 0.0:
            raise ValueError("set only one of theta_angle, phi_angle")
        if self.points < 256:
            raise ValueError("need points >= 256")

    def post_state(self, theta: float, phi: float) -> SystemState:
        c = math.cos(np.pi / 4 - theta / 2)
        s = math.sin(np.pi / 4 - theta / 2)
        return SystemState(np.array([c, -s * np.exp(1j * phi)]))

    def run(self) -> "InverseResult":
        return inverse_scheme(self)


@dataclass
class InverseResult:
    report: SchemeReport
    q_distribution: SampledDistribution
    p_distribution: SampledDistribution
    family: ParamDistribution
    mean_q: float
    mean_p: float

    def table(self) -> dict:
        return {"q": self.q_distribution.grid, "density": self.q_distribution.density}


def inverse_scheme(spec: InverseSpec) -> InverseResult:
    """Dark-port estimation of a small selection angle.

    Valid when |<f|i>| << g/sigma << 1; raises ValidityViolation otherwise.
    Both quadrature means of the bimodal conditioned meter come from the exact
    Q and P readout densities; the imaginary variant's -phi_I/g shift shows up
    in the momentum-like quadrature, the Fisher family's readout over the angle.
    """
    imaginary = spec.phi_angle != 0.0
    pre = bloch_state(np.pi / 2, 0.0)
    post = spec.post_state(spec.theta_angle, spec.phi_angle)
    overlap = abs(np.vdot(post.amplitudes, pre.amplitudes))
    g_over_sigma = spec.g / spec.sigma
    if not (overlap < g_over_sigma < 1.0):
        raise ValidityViolation(
            f"need |<f|i>| ({overlap:.3g}) < g/sigma ({g_over_sigma:.3g}) < 1"
        )

    def post_of(angle: float) -> tuple[SystemState, np.ndarray]:
        # <f| at the unknown angle and its derivative in that angle
        f = spec.post_state(0.0, angle) if imaginary else spec.post_state(angle, 0.0)
        c, b = f.amplitudes
        return f, np.array([0.0, 1j * b]) if imaginary else np.array([-b, c]) / 2

    meter = GaussianMeter(spec.sigma)
    q_grid = readout_axis(spec.sigma, spec.g, spec.points)
    angle0 = spec.phi_angle if imaginary else spec.theta_angle
    q_family, p_family = (
        selection_angle_family(pre, post_of, SIGMA_Z, spec.g, meter, theta, q_grid)
        for theta in (0.0, math.pi / 2)
    )
    q_dist, p_dist = (
        SampledDistribution(fam.grid, fam.probabilities(angle0)) for fam in (q_family, p_family)
    )
    mean_q, mean_p = q_dist.mean(), p_dist.mean()
    family = p_family if imaginary else q_family
    fi = classical_fisher(family, angle0)
    cfg = CouplingConfig(spec.g, Generator.MOMENTUM_KICK, SIGMA_Z)
    p_f = Conditioning.of_meter(pre, post, cfg, meter).kernels(spec.g).p_f()

    if imaginary:
        predicted = -spec.phi_angle / spec.g
    else:
        predicted = 2 * spec.theta_angle * spec.sigma**2 / spec.g
    # (1 - cos(angle) exp(-g^2 / (2 sigma^2))) / 2, free of cancellation
    decay = math.expm1(-g_over_sigma**2 / 2)
    p_f_closed = math.sin(angle0 / 2) ** 2 - math.cos(angle0) * decay / 2

    w = weak_value(pre, post, SIGMA_Z) if overlap > 1e-12 else complex(np.inf)
    report = SchemeReport(
        amplification=1.0 / spec.g,
        p_f=p_f,
        fisher=p_f * fi,
        snr_per_root_nu=abs(mean_p if imaginary else mean_q)
        / math.sqrt((p_dist if imaginary else q_dist).var()),
        regime=classify_regime(spec.g, spec.sigma, w)
        if np.isfinite(abs(w))
        else None,
        extras={
            "mean_q": mean_q,
            "mean_p": mean_p,
            "predicted_shift": predicted,
            "shift_coordinate": "mean_p" if imaginary else "mean_q",
            "p_f_closed_form": p_f_closed,
            "validity_overlap_ratio": overlap / g_over_sigma,
            "g_over_sigma": g_over_sigma,
            "fisher_conditioned": fi,
        },
    )
    return InverseResult(report, q_dist, p_dist, family, mean_q, mean_p)


# ---------------------------------------------------------------------------
# almost-balanced WVA


@dataclass(frozen=True)
class ABWVASpec:
    g: float
    epsilon: float
    sigma: float
    points: int = 4096

    def __post_init__(self):
        if self.sigma <= 0 or not 0 < self.epsilon < np.pi / 2:
            raise ValueError("need sigma > 0 and epsilon in (0, pi/2)")

    def run(self) -> "ABWVAResult":
        return abwva_scheme(self)


@dataclass
class ABWVAResult:
    report: SchemeReport
    p_grid: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    total: np.ndarray
    difference: np.ndarray
    centroid: float
    predicted_centroid: float

    def table(self) -> dict:
        return {"p": self.p_grid, "p0": self.p0, "p1": self.p1, "p2": self.p2,
                "difference": self.difference}


def _split_exact(p0: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p1, p2) with p1 + p2 == p0 bitwise.

    The second subtraction is exact by the Sterbenz lemma because the major
    part lies in [p0/2, p0], so major + minor reproduces p0 without rounding.
    """
    approx_minor = 0.5 * p0 * (1.0 - np.abs(s))
    major = p0 - approx_minor
    minor = p0 - major
    p1 = np.where(s >= 0, major, minor)
    p2 = np.where(s >= 0, minor, major)
    return p1, p2


def abwva_scheme(spec: ABWVASpec) -> ABWVAResult:
    """Two almost-balanced post-selections P_{1,2}(p) = [1 +- sin(eps + 2gp)]
    P0(p)/2; their sum recovers P0 exactly and their difference carries the
    amplified shift g cot(eps) / (2 sigma^2) at signal strength ~ sin(eps)."""
    sp = 1.0 / (2 * spec.sigma)
    p = np.linspace(-10 * sp, 10 * sp, spec.points, endpoint=False)
    p0 = np.exp(-2 * spec.sigma**2 * p**2) * math.sqrt(2 * spec.sigma**2 / np.pi)

    def branch_sin(g: float) -> np.ndarray:
        return np.sin(spec.epsilon + 2 * g * p)

    s = branch_sin(spec.g)
    p1, p2 = _split_exact(p0, s)
    diff = p1 - p2
    dp = p[1] - p[0]
    centroid = float(np.sum(p * diff) / np.sum(diff))
    predicted = spec.g / (2 * spec.sigma**2) / math.tan(spec.epsilon)

    def joint_probs(g: float) -> np.ndarray:
        sg = branch_sin(g)
        return np.concatenate([(1 + sg) * p0 / 2, (1 - sg) * p0 / 2])

    def joint_deriv(g: float) -> np.ndarray:
        c = 2 * p * np.cos(spec.epsilon + 2 * g * p) * p0 / 2
        return np.concatenate([c, -c])

    # two-detector data: outcome space is (detector, p); density over a
    # doubled grid with the same spacing
    family = ParamDistribution(
        "continuous",
        joint_probs,
        grid=np.concatenate([p, p + (p[-1] - p[0]) + dp]),
        derivative=joint_deriv,
    )
    fisher = classical_fisher(family, spec.g)

    # signal strengths for the user-formed comparison against standard WVA:
    # the difference signal is ~ sin(eps), the standard post-selected
    # intensity is sin^2(eps/2)
    report = SchemeReport(
        amplification=1.0 / (2 * spec.sigma**2 * math.tan(spec.epsilon)),
        p_f=1.0,  # both arms detected: no photon discarded
        fisher=fisher,
        snr_per_root_nu=abs(centroid) * 2 * spec.sigma,  # shift over p-space width
        regime=None,
        extras={
            "difference_signal_strength": math.sin(spec.epsilon),
            "standard_wva_signal_strength": math.sin(spec.epsilon / 2) ** 2,
            "centroid": centroid,
            "predicted_centroid": predicted,
        },
    )
    return ABWVAResult(report, p, p0, p1, p2, p1 + p2, diff, centroid, predicted)


# ---------------------------------------------------------------------------
# joint weak measurement


@dataclass(frozen=True, kw_only=True)
class JointWMSpec:
    """Two-detector spectral estimation of a time delay tau with alignment
    fluctuation eps_fluct and frequency-detection noise omega_noise. Configs
    name the alignment phase `phi_align`."""

    tau: float
    phi: float = field(metadata={"config": "phi_align"})
    eps_fluct: float = 0.0
    omega0: float
    delta_omega: float
    omega_noise: float = 0.0

    def __post_init__(self):
        if self.delta_omega < 0 or self.omega_noise < 0:
            raise ValueError("delta_omega and omega_noise must be nonnegative")
        if math.sin(self.phi) == 0:
            raise ValueError("sin(phi) must be nonzero")

    def run(self) -> "JointWMResult":
        return joint_wm_scheme(self)


@dataclass
class JointWMResult:
    report: SchemeReport
    omega_grid: np.ndarray
    dist_plus: np.ndarray
    dist_minus: np.ndarray
    tau_est: float
    phi_est: float
    bias_prediction: float

    def table(self) -> dict:
        return {"omega": self.omega_grid, "detector_plus": self.dist_plus,
                "detector_minus": self.dist_minus}


def _jwm_probs(spec: JointWMSpec, omega: np.ndarray, tau: float, phi: float, damping: float):
    base = np.exp(-((omega - spec.omega0) ** 2) / (2 * spec.delta_omega**2))
    base /= base.sum() * (omega[1] - omega[0])
    mod = damping * np.cos(phi - omega * tau)
    return 0.5 * base * (1 + mod), 0.5 * base * (1 - mod)


def joint_wm_sample(spec: JointWMSpec, nu: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw (omega_i, q_i) pairs from the physical model: spectrum draw,
    detector choice with damped fringes, then additive detection noise."""
    omega = rng.normal(spec.omega0, spec.delta_omega, size=nu)
    damping = math.exp(-(spec.eps_fluct**2) / 2)
    p_plus = 0.5 * (1 + damping * np.cos(spec.phi - omega * spec.tau))
    q = np.where(rng.random(nu) < p_plus, 1, -1)
    if spec.omega_noise > 0:
        omega = omega + rng.normal(0.0, spec.omega_noise, size=nu)
    return omega, q


def joint_wm_mle(
    spec: JointWMSpec, omega: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """Maximize the fringe log-likelihood sum log[1 + q cos(phi - omega tau)]
    over (tau, phi); the spectrum factor is parameter-independent."""
    if spec.delta_omega == 0:
        raise FlatLikelihood("zero spectral spread carries no delay information")
    from scipy.optimize import minimize

    def nll(x) -> float:
        tau, phi = x
        val = 1.0 + q * np.cos(phi - omega * tau)
        return -float(np.sum(np.log(np.clip(val, 1e-300, None))))

    res = minimize(
        nll,
        x0=np.array([spec.tau, spec.phi]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 4000},
    )
    return float(res.x[0]), float(res.x[1])


def joint_wm_pseudo_true(spec: JointWMSpec) -> tuple[float, float]:
    """Asymptotic (tau, phi) of the fringe MLE under the exact data model.

    Detection noise relabels the recorded frequency, so the fringe seen at the
    detector carries the shrunk rate kappa tau with kappa = Dw^2/(Dw^2+W^2);
    the mismatched fit converges to the maximizer of the population
    log-likelihood computed here by quadrature. The noiseless case returns the
    true parameters.
    """
    if spec.delta_omega == 0:
        raise FlatLikelihood("zero spectral spread carries no delay information")
    from scipy.optimize import minimize

    var_obs = spec.delta_omega**2 + spec.omega_noise**2
    kappa = spec.delta_omega**2 / var_obs
    v = kappa * spec.omega_noise**2
    w = np.linspace(
        spec.omega0 - 8 * math.sqrt(var_obs),
        spec.omega0 + 8 * math.sqrt(var_obs),
        4001,
    )
    pw = np.exp(-((w - spec.omega0) ** 2) / (2 * var_obs))
    pw /= pw.sum()
    damp = math.exp(-(spec.eps_fluct**2) / 2 - v * spec.tau**2 / 2)
    m = damp * np.cos(spec.phi - (spec.omega0 + kappa * (w - spec.omega0)) * spec.tau)

    def neg_obj(x) -> float:
        c = np.clip(np.cos(x[1] - w * x[0]), -1 + 1e-12, 1 - 1e-12)
        val = (1 + m) / 2 * np.log(1 + c) + (1 - m) / 2 * np.log(1 - c)
        return -float(np.sum(pw * val))

    res = minimize(
        neg_obj,
        x0=np.array([spec.tau, spec.phi]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 8000},
    )
    return float(res.x[0]), float(res.x[1])


def joint_wm_scheme(spec: JointWMSpec, nu: int = 20000, seed: int = 7) -> JointWMResult:
    """Single seeded demonstration run plus the predicted relative bias
    tau/tau0 = 1 + (eps/sin phi)^2/2 + (Omega/Delta omega)^2/2."""
    grid = np.linspace(
        spec.omega0 - 8 * spec.delta_omega,
        spec.omega0 + 8 * spec.delta_omega,
        2048,  # spectral points of the reported detector distributions
    )
    damping = math.exp(-(spec.eps_fluct**2) / 2)
    d_plus, d_minus = _jwm_probs(spec, grid, spec.tau, spec.phi, damping)

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    omega, q = joint_wm_sample(spec, nu, rng)
    tau_est, phi_est = joint_wm_mle(spec, omega, q)

    # source-literature approximation (sign disagrees with the exact
    # pseudo-true fit under recorded-frequency noise; both are reported)
    bias = 1.0 + 0.5 * (spec.eps_fluct / math.sin(spec.phi)) ** 2
    if spec.delta_omega > 0:
        bias += 0.5 * (spec.omega_noise / spec.delta_omega) ** 2
    tau_asym, phi_asym = joint_wm_pseudo_true(spec)

    report = SchemeReport(
        amplification=1.0,
        p_f=1.0,
        fisher=0.0,
        snr_per_root_nu=0.0,
        extras={
            "tau_est": tau_est,
            "phi_est": phi_est,
            "bias_prediction": bias,
            "tau_pseudo_true": tau_asym,
            "damping": damping,
        },
    )
    return JointWMResult(report, grid, d_plus, d_minus, tau_est, phi_est, bias)


# ---------------------------------------------------------------------------
# biased WVA


@dataclass(frozen=True)
class BiasedSpec:
    """Biased WVA: a pre-coupling bias phase beta sets up conjugate
    destructive interference; the delay tau shifts the spectrum centroid by
    ~ (2 omega0^2 / epsilon) tau near beta_s = epsilon / omega0."""

    tau: float
    beta: float
    epsilon: float
    omega0: float
    delta_omega: float
    resolution: float | None = None
    points: int = 8192

    def __post_init__(self):
        if self.delta_omega <= 0 or self.epsilon == 0 or self.omega0 == 0:
            raise ValueError("need delta_omega > 0, epsilon != 0 and omega0 != 0")
        if self.resolution is not None and self.resolution <= 0:
            raise ValueError("resolution must be positive")

    def run(self) -> "BiasedResult":
        return biased_scheme(self)


@dataclass
class BiasedResult:
    report: SchemeReport
    omega_grid: np.ndarray
    spectrum: np.ndarray
    centroid_shift: float
    p_f_grid: float
    p_f_closed: float

    def table(self) -> dict:
        return {"omega": self.omega_grid, "spectrum": self.spectrum}


def biased_beta_s(epsilon: float, omega0: float) -> float:
    """Root beta_s = epsilon / omega0 of omega0 * beta - epsilon = 0."""
    return epsilon / omega0


def biased_p_f_closed(spec: BiasedSpec) -> float:
    """Exact selection probability for the Gaussian |f(omega)|^2 = N(omega0,
    delta_omega^2): [1 - e^{-x} cos(theta)]/2 with x = 2 d^2 b^2, b = beta +
    tau, and theta = 2(omega0 b - eps). It is summed as (1 - e^{-x})/2 +
    e^{-x} sin^2(theta/2), so no digits cancel where p_f is small, and
    theta/2 is formed in exact rationals and rounded once, because near the
    bias point omega0 b - eps cancels too."""
    from fractions import Fraction  # not at module level: it costs `import wvlab` ~4 ms

    b = Fraction(spec.beta) + Fraction(spec.tau)
    x = 2 * spec.delta_omega**2 * float(b) ** 2
    half_theta = float(Fraction(spec.omega0) * b - Fraction(spec.epsilon))
    return -0.5 * math.expm1(-x) + math.exp(-x) * math.sin(half_theta) ** 2


def biased_scheme(spec: BiasedSpec) -> BiasedResult:
    """The spectrum sin^2(omega b - eps) |f(omega)|^2, b = beta + tau, on a
    `points`-point omega grid: the success arm of pre |+> and post
    (-i e^{-i eps}, i e^{i eps})/sqrt(2) after exp(-i b sigma_z omega), read out
    by the conditioning kernels at g = b. The slope d(shift)/d(tau) is the
    exact sum_omega omega d(density)/db."""
    w = np.linspace(
        spec.omega0 - 8 * spec.delta_omega,
        spec.omega0 + 8 * spec.delta_omega,
        spec.points,
    )
    f2 = np.exp(-((w - spec.omega0) ** 2) / (2 * spec.delta_omega**2))
    pre = SystemState(np.array([1.0, 1.0]) / math.sqrt(2))
    post = SystemState(np.array([-1j * np.exp(-1j * spec.epsilon), 1j * np.exp(1j * spec.epsilon)])
                       / math.sqrt(2))
    kern = Conditioning.of(pre, post, SIGMA_Z, w, f2 / f2.sum()).kernels(spec.beta + spec.tau)
    p_f_grid = kern.p_f()
    p_f_closed = biased_p_f_closed(spec)
    shift = float(np.sum(w * kern.density())) - spec.omega0
    slope = float(np.sum(w * kern.density_dg()))
    slope_closed = 2 * spec.omega0**2 / spec.epsilon

    extras = {
        "centroid_shift": shift,
        "slope": slope,
        "slope_closed_form": slope_closed,
        "p_f_grid": p_f_grid,
        "p_f_closed_form": p_f_closed,
        "beta_s": biased_beta_s(spec.epsilon, spec.omega0),
        "standard_amplification": 2 * spec.delta_omega**2 / spec.epsilon,
    }
    if spec.resolution is not None:
        extras["tau_resolution_standard"] = (
            abs(spec.epsilon) * spec.resolution / spec.delta_omega**2
        )
        extras["tau_resolution_biased"] = (
            abs(spec.epsilon) * spec.resolution / (2 * spec.omega0**2)
        )

    report = SchemeReport(
        amplification=slope_closed,
        p_f=min(max(p_f_grid, 0.0), 1.0),
        fisher=0.0,
        snr_per_root_nu=0.0,
        extras=extras,
    )
    spectrum = np.abs(kern.k) ** 2 * kern.weights / (w[1] - w[0])
    return BiasedResult(report, w, spectrum, shift, p_f_grid, p_f_closed)


# ---------------------------------------------------------------------------
# power recycling


@dataclass(frozen=True)
class RecycleSpec:
    """Power-recycled WVA: pulsed loop (per-round loss) or resonant cavity."""

    p_f: float
    loss: float = 0.0
    mode: str = "pulsed"
    mirror_r: float | None = None
    n_input: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_f < 1 and self.p_f != 1.0:
            raise ValueError("p_f must lie in (0, 1]")
        if not 0 <= self.loss < 1:
            raise ValueError("loss must lie in [0, 1)")
        if self.mode not in ("pulsed", "cavity"):
            raise ValueError("mode must be 'pulsed' or 'cavity'")
        if (self.mode == "cavity") != (self.mirror_r is not None):
            raise ValueError("mirror_r is needed in cavity mode and only there")
        if self.n_input <= 0 or not 0 <= (self.mirror_r or 0.0) < 1:
            raise ValueError("need n_input > 0 and mirror_r in [0, 1)")

    def run(self) -> "RecycleResult":
        return recycle_scheme(self)


@dataclass
class RecycleResult:
    report: SchemeReport
    total_detected: float
    snr_gain: float
    cavity_gain: float | None

    def table(self) -> None:
        return None  # one operating point: the report holds it all


def cavity_gain(r: float, loss: float) -> float:
    """G = (1 - r) / [1 + (1 - beta) r - 2 sqrt(r (1 - beta))]."""
    return (1.0 - r) / (1.0 + (1.0 - loss) * r - 2.0 * math.sqrt(r * (1.0 - loss)))


def recycle_scheme(spec: RecycleSpec) -> RecycleResult:
    """Pulsed: rounds j keep N_j = N [(1-p_f)(1-loss)]^j photons, every round
    detects the p_f fraction; lossless recycling re-detects all N photons for
    an SNR gain of exactly 1/sqrt(p_f). Cavity: gain G from the closed form
    and SNR factor sqrt(G)."""
    if spec.mode == "pulsed":
        keep = (1.0 - spec.p_f) * (1.0 - spec.loss)
        total = spec.p_f * spec.n_input / (1.0 - keep)
        single = spec.p_f * spec.n_input
        snr_gain = math.sqrt(total / single)
        gain = None
    else:
        gain = cavity_gain(spec.mirror_r, spec.loss)
        total = spec.p_f * spec.n_input * gain
        snr_gain = math.sqrt(gain)

    report = SchemeReport(
        amplification=1.0,
        p_f=spec.p_f,
        fisher=0.0,
        snr_per_root_nu=snr_gain,
        extras={
            "total_detected": total,
            "snr_gain": snr_gain,
            "cavity_gain": gain,
            "lossless_gain": 1.0 / math.sqrt(spec.p_f),
        },
    )
    return RecycleResult(report, total, snr_gain, gain)


# ---------------------------------------------------------------------------
# phase-space WVA (photon-number coupling)


@dataclass(frozen=True)
class PhaseSpaceSpec:
    """Cross-phase-modulation WVA: H = g delta(t) |1><1| x n with the usual
    selection pair (theta_i = pi/2 pre, epsilon-detuned post)."""

    g: float
    epsilon: float
    meter: FockMeter
    theta_i: float = np.pi / 2

    def states(self) -> tuple[SystemState, SystemState]:
        pre = SystemState(
            np.array([math.cos(self.theta_i / 2), math.sin(self.theta_i / 2)])
        )
        post = SystemState(
            np.array([-np.exp(-1j * self.epsilon), 1.0]) / math.sqrt(2)
        )
        return pre, post

    def run(self) -> "PhaseSpaceResult":
        return phase_space_scheme(self)

    def selection(self) -> Conditioning:
        """The success arm: `pre` selected on `post` after the photon-number
        phase at g, read out on the meter's number distribution."""
        pre, post = self.states()
        cfg = CouplingConfig(self.g, Generator.PHOTON_NUMBER_PHASE, PROJ_ONE)
        return Conditioning.of_meter(pre, post, cfg, self.meter)

    def outcome_family(self) -> tuple[ParamDistribution, float]:
        return self.selection().selection_family(), self.g


@dataclass
class PhaseSpaceResult:
    report: SchemeReport
    budget: InfoBudget | None
    photon_distribution: np.ndarray
    photon_family: ParamDistribution
    selection_family: ParamDistribution
    mean_shift: float
    predicted_mean_shift: float
    f_p: float
    f_photon: float

    def table(self) -> dict:
        n = np.arange(self.photon_distribution.size)
        return {"n": n, "probability": self.photon_distribution}


def phase_space_scheme(spec: PhaseSpaceSpec) -> PhaseSpaceResult:
    pre, post = spec.states()
    cfg = CouplingConfig(spec.g, Generator.PHOTON_NUMBER_PHASE, PROJ_ONE)
    w = weak_value(pre, post, PROJ_ONE)
    mean0, var0 = fock_moments(spec.meter)

    # conditioned photon-number statistics of both arms (nothing is silently
    # discarded) and of the selection itself, each Fisher number read off the
    # arms' kernels at g as `classical_fisher` reads it off the arm's family;
    # F_p is the budget's, from the rarer arm
    success = spec.selection()
    kern, kern_r = _arms(pre, post, cfg, success.values, success.weights)
    f_n, p_f = kern.density(), kern.p_f()
    mean_f = float(np.sum(success.values * f_n))

    f_photon = _fisher(f_n, kern.density_dg())
    f_photon_failure = _fisher(kern_r.density(), kern_r.density_dg())
    f_p = _selection_fisher(kern, kern_r)

    budget = None
    if len(spec.meter.components) == 1:
        budget = _arm_budget(qfi_joint(pre, spec.meter, cfg), kern, kern_r)

    predicted_shift = 2 * spec.g * w.imag * var0
    report = SchemeReport(
        amplification=abs(w),
        p_f=p_f,
        fisher=f_p,
        snr_per_root_nu=abs(mean_f - mean0) / math.sqrt(max(var0, 1e-300)),
        extras={
            "weak_value_im": w.imag,
            "f_p": f_p,
            "f_photon": f_photon,
            "f_photon_failure": f_photon_failure,
            "f_wva_ps_closed": 4 * p_f * w.imag**2 * var0,
            "mean_shift": mean_f - mean0,
            "predicted_mean_shift": predicted_shift,
            "meter_mean_n": mean0,
            "meter_var_n": var0,
            "q_jt": budget.q_jt if budget else None,
            "budget": budget.to_dict() if budget else None,
        },
    )
    return PhaseSpaceResult(
        report,
        budget,
        f_n,
        success.family(),
        success.selection_family(),
        mean_f - mean0,
        predicted_shift,
        f_p,
        f_photon,
    )


# ---------------------------------------------------------------------------
# entanglement-assisted / iterative WVA


@dataclass(frozen=True)
class EntangledSpec:
    """N quantum-correlated probes or, in the same model, N iterative passes in
    the effective two-dimensional subspace {|0...0>, |1...1>}, qubit meter,
    post-selection maximizing the success probability or the weak-value modulus."""

    phi: float
    epsilon: float
    n: int
    # "max_prob" or "max_weak_value"; configs call it `variant_post`
    variant: str = field(default="max_prob", metadata={"config": "variant_post"})

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if self.variant not in ("max_prob", "max_weak_value"):
            raise ValueError("variant must be 'max_prob' or 'max_weak_value'")

    @property
    def detuning(self) -> float:
        scale = self.n if self.variant == "max_prob" else math.sqrt(self.n)
        return scale * self.epsilon

    def run(self) -> "EntangledResult":
        return entangled_scheme(self)

    def selection(self) -> Conditioning:
        """Pre |+>, post (e^{-id}, -e^{id})/sqrt(2) with the detuning d, after
        exp(-i phi diag(N, -N) x sigma_z) on the |+> meter, whose sigma_z
        eigenvalues m = +-1 have weights 1/2 each."""
        d = self.detuning
        pre = SystemState(np.array([1.0, 1.0]) / math.sqrt(2))
        post = SystemState(np.array([np.exp(-1j * d), -np.exp(1j * d)]) / math.sqrt(2))
        a = Observable(np.diag([self.n, -self.n]))
        return Conditioning.of(pre, post, a, [1.0, -1.0], [0.5, 0.5])

    def outcome_family(self) -> tuple[ParamDistribution, float]:
        return self.selection().family(), self.phi


@dataclass
class EntangledResult:
    report: SchemeReport
    q_jt: float
    outcome_probs: np.ndarray
    family: ParamDistribution

    def table(self) -> dict:
        return {"sigma_z": np.array([1.0, -1.0]), "probability": self.outcome_probs}


def entangled_scheme(spec: EntangledSpec) -> EntangledResult:
    """Exact 2x2 evolution: branch a = +-N drags the |+> meter by the phase
    e^{-i phi a sigma_z}. Q_jt = 4 N^2 exactly (Heisenberg scaling). With
    the detuning d, p_f = [sin^2(d + N phi) + sin^2(d - N phi)] / 2, which is
    sin^2(d) at phi = 0: the max_prob post-selection (d = N eps) gives
    p_f ~ N^2 eps^2 with |w| = N cot(N eps) ~ 1/eps, the max_weak_value one
    (d = sqrt(N) eps) p_f ~ N eps^2 with |w| ~ sqrt(N)/eps."""
    d = spec.detuning
    cond = spec.selection()
    family = cond.family()
    kern = cond.kernels(spec.phi)
    p_f, probs = kern.p_f(), kern.density()
    f_f = _fisher(probs, kern.density_dg())

    wv = spec.n / math.tan(d) if math.tan(d) != 0 else math.inf
    q_jt = 4.0 * spec.n**2
    report = SchemeReport(
        amplification=abs(wv),
        p_f=p_f,
        fisher=p_f * f_f,
        snr_per_root_nu=0.0,
        extras={
            "q_jt": q_jt,
            "p_f_closed_form": (math.sin(d + spec.n * spec.phi) ** 2
                                + math.sin(d - spec.n * spec.phi) ** 2) / 2,
            "p_f_small_eps": (spec.n * spec.epsilon) ** 2
            if spec.variant == "max_prob"
            else spec.n * spec.epsilon**2,
            "weak_value_modulus": abs(wv),
            "sql_baseline": 4.0 * spec.n,
            "variant": spec.variant,
        },
    )
    return EntangledResult(report, q_jt, probs, family)
