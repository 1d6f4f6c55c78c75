"""Classical and quantum Fisher information, SNR, the post-selection
information budget, and the standard scaling bounds.

The post-selected quantities are evaluated with exact conditioning kernels:
for U = exp(-i g A x M) and selection states (i, f), the conditioned meter is
K(m) = sum_k u_k e^{-i a_k g m} acting multiplicatively in the eigenbasis of
the meter generator M (momentum p or photon number n), with
u_k = <f|v_k><v_k|i>. Its g-derivative kernel is J(m) = sum_k u_k a_k m
e^{-i a_k g m}, so p_f, dp_f/dg, the conditioned-state QFI Q_f and the
selection FI F_p are all plain quadratures -- no weak-coupling approximation
anywhere: `Conditioning.of_meter(pre, post, cfg, meter).kernels(g)` reads
them as `.p_f()`, `.dp_dg()`, `.qfi_conditioned()` and `.selection_fisher()`.
The same kernels give every post-selected outcome family its density and its
analytic derivative, in g or (inverse WVA) in the post-selection angle; a
family keeps the kernels of the last x it built, so its probabilities,
derivative and mean at one x cost one build. The budget is read off the two
arms of a qubit selection, `post` and its orthogonal state, built once each
on one readout spectrum (`_arms`, then `_arm_budget`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .coupling import CouplingConfig, Generator
from .errors import EmptyPostselection, InsufficientSpan, UnsupportedDimension, ZeroVariance
from .meter import FockMeter, FockState, GaussianMeter, gaussian_density
from .qsys import Observable, SystemState

PROBABILITY_FLOOR = 1e-14  # outcomes below this are excluded from FI sums


# ---------------------------------------------------------------------------
# parameterized outcome distributions


@dataclass
class ParamDistribution:
    """Family g -> outcome distribution.

    Discrete: `evaluator(g)` returns a probability vector over `labels`.
    Continuous: `evaluator(g)` returns density samples on the fixed uniform
    `grid`. `derivative(g)` is the analytic g-derivative of the same array;
    every Fisher number and score is taken from it. A post-selected family
    also keeps `kernels(g)`, the conditioning kernels both are read off.
    """

    kind: str  # "discrete" | "continuous"
    evaluator: Callable[[float], np.ndarray]
    grid: np.ndarray | None = None
    labels: np.ndarray | None = None
    derivative: Callable[[float], np.ndarray] = field(kw_only=True)
    kernels: Callable[[float], _Kernels] | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError("kind must be 'discrete' or 'continuous'")
        if self.kind == "continuous":
            if self.grid is None:
                raise ValueError("continuous distribution needs a grid")
            self.grid = np.asarray(self.grid, dtype=float)
        elif self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0]) if self.kind == "continuous" else 1.0

    def probabilities(self, g: float) -> np.ndarray:
        p = np.asarray(self.evaluator(g), dtype=float)
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min():.3e} at g={g!r}")
        total = p.sum() * self.spacing
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total!r} at g={g!r}")
        return np.clip(p, 0.0, None)

    def outcome_values(self) -> np.ndarray:
        if self.kind == "continuous":
            return self.grid
        if self.labels is None:
            raise ValueError("discrete distribution has no numeric labels")
        return self.labels

    def mean_std(self, g: float) -> tuple[float, float]:
        x = self.outcome_values()
        w = self.probabilities(g) * self.spacing
        w = w / w.sum()
        m = float(np.sum(x * w))
        v = float(np.sum((x - m) ** 2 * w))
        return m, math.sqrt(max(v, 0.0))


# ---------------------------------------------------------------------------
# classical Fisher information


def classical_fisher(dist: ParamDistribution, g: float) -> float:
    """F_g = sum_x (d_g P)^2 / P (integral for densities), from the family's
    analytic derivative. Outcomes with P < 1e-14 are excluded."""
    return _fisher(dist.probabilities(g), np.asarray(dist.derivative(g), dtype=float), dist.spacing)


def _fisher(p: np.ndarray, dp: np.ndarray, spacing: float = 1.0) -> float:
    """sum (dp)^2 / p over the outcomes with p > 1e-14, times `spacing`: what
    `classical_fisher` takes of a family's arrays at one g."""
    mask = p > PROBABILITY_FLOOR
    return float(np.sum(dp[mask] ** 2 / p[mask]) * spacing)


def snr(dist: ParamDistribution, g: float, nu: int, x0: float) -> float:
    """sqrt(nu) |<x> - x0| / std(x) under the distribution at g."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    mean, std = dist.mean_std(g)
    if std <= 0:
        raise ZeroVariance("outcome distribution has zero variance")
    return math.sqrt(nu) * abs(mean - x0) / std


# ---------------------------------------------------------------------------
# meter-generator moments and conditioning kernels


def _generator_weights(meter, cfg: CouplingConfig, points: int = 4096):
    """(values m, probability weights w) of the meter generator's spectrum."""
    if cfg.generator is Generator.MOMENTUM_KICK:
        if isinstance(meter, GaussianMeter):
            sp = 1.0 / (2 * meter.sigma)
            p = np.linspace(
                meter.mean_p - 8 * sp, meter.mean_p + 8 * sp, points, endpoint=False
            )
            w = np.exp(-((p - meter.mean_p) ** 2) / (2 * sp**2)) / math.sqrt(
                2 * np.pi * sp**2
            )
            w = w / (w.sum())
            return p, w
        raise UnsupportedDimension("momentum generator needs a Gaussian meter")
    if not isinstance(meter, (FockMeter, FockState)):
        raise UnsupportedDimension("photon-number generator needs a Fock meter")
    w = meter.number_probabilities()
    n = np.arange(w.size, dtype=float)
    return n, w / w.sum()


def generator_moments(meter, cfg: CouplingConfig) -> tuple[float, float]:
    """(mean, variance) of the coupling generator in the initial meter."""
    if cfg.generator is Generator.MOMENTUM_KICK and isinstance(meter, GaussianMeter):
        return meter.mean_p, meter.var_p()
    m, w = _generator_weights(meter, cfg)
    mean = float(np.sum(m * w))
    return mean, float(np.sum(m**2 * w) - mean**2)


def qfi_joint(pre: SystemState, meter, cfg: CouplingConfig) -> float:
    """QFI of the joint state: 4 [ <A^2>_s <M^2>_m - <A>_s^2 <M>_m^2 ]
    (equivalently 4 [ <A^2> Var(M) + Var(A) <M>^2 ])."""
    amps = pre.amplitudes
    a1 = float(np.real(np.vdot(amps, cfg.a.matrix @ amps)))
    a2 = float(np.real(np.vdot(amps, cfg.a.matrix @ cfg.a.matrix @ amps)))
    m_mean, m_var = generator_moments(meter, cfg)
    return 4.0 * (a2 * (m_var + m_mean**2) - a1**2 * m_mean**2)


@dataclass(frozen=True)
class _Kernels:
    weights: np.ndarray  # |phi(m)|^2 weights of the outcome values m
    k: np.ndarray  # K(m) = sum_k u_k exp(-i a_k g m)
    j: np.ndarray  # J(m) = sum_k u_k a_k m exp(-i a_k g m), so dK/dg = -i J

    def p_f(self) -> float:
        return float(np.sum(np.abs(self.k) ** 2 * self.weights))

    def dp_dg(self) -> float:
        # p' = 2 Im <K|J> for the unnormalized kernels
        return 2.0 * float(np.imag(np.sum(np.conj(self.k) * self.j * self.weights)))

    def density(self) -> np.ndarray:
        """Conditioned outcome probabilities |K|^2 w / p_f over the values."""
        return np.abs(self.k) ** 2 * self.weights / self.p_f()

    def density_dg(self) -> np.ndarray:
        """g-derivative of `density`: [2 Im(K* J) w - |K|^2 w p_f'/p_f] / p_f."""
        p = self.p_f()
        k2 = np.abs(self.k) ** 2
        return (2.0 * np.imag(np.conj(self.k) * self.j) - k2 * self.dp_dg() / p) * self.weights / p

    def selection_fisher(self) -> float:
        """F_p = p'^2 / (p (1 - p)), the FI of the selection statistics, from
        this arm's p. It keeps a finite limit as p -> 0, so only p = 0 or 1
        give 0."""
        p, dp = self.p_f(), self.dp_dg()
        if not 0.0 < p < 1.0:
            return 0.0
        return dp**2 / (p * (1.0 - p))

    def phase(self) -> float:
        """beta = Im<phi|d_g phi> of the normalized conditioned meter, which
        for dK/dg = -i J is -Re<K|J> / p_f."""
        return -float(np.real(np.sum(np.conj(self.k) * self.j * self.weights))) / self.p_f()

    def qfi_conditioned(self) -> float:
        """Q_f = 4 [<J|J>/p_f - |<J|K>|^2/p_f^2], the QFI of the normalized
        conditioned meter (the p_f variation cancels exactly)."""
        p = self.p_f()
        if p <= PROBABILITY_FLOOR:
            raise EmptyPostselection(f"p_f = {p:.3e}")
        jj = float(np.sum(np.abs(self.j) ** 2 * self.weights))
        jk = complex(np.sum(np.conj(self.j) * self.k * self.weights))
        return 4.0 * (jj / p - abs(jk) ** 2 / p**2)


@dataclass(frozen=True)
class Conditioning:
    """Selection of `pre` on `post` after U = exp(-i g A x M), the one engine
    behind every post-selected probability, outcome family and QFI.

    A enters through its eigenvalues a_k and u_k = <f|v_k><v_k|i>; the
    readout is the spectrum m of M with probability weights w(m). With
    `position` set, the readout is the position q of that Gaussian meter
    under a momentum kick, with the grid spacing as weight: K(q) = sum_k u_k
    psi(q - a_k g) is the conditioned amplitude and J = i dK/dg. K is linear
    in <f|, so `post` may also be a bare amplitude vector such as d<f|/dangle.
    """

    u: np.ndarray
    a: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    position: GaussianMeter | None = None

    @classmethod
    def of(
        cls, pre: SystemState, post: SystemState | np.ndarray, a: Observable, values, weights,
        position: GaussianMeter | None = None,
    ) -> "Conditioning":
        eigvals, eigvecs = a.eig()
        v_dag = eigvecs.conj().T
        u = np.conj(v_dag @ getattr(post, "amplitudes", post)) * (v_dag @ pre.amplitudes)
        values, weights = np.asarray(values, float), np.asarray(weights, float)
        return cls(u, eigvals, values, weights, position)

    @classmethod
    def of_meter(
        cls, pre: SystemState, post: SystemState, cfg: CouplingConfig, meter
    ) -> "Conditioning":
        """Readout on the spectrum of the coupling generator in `meter`. A
        mixed Fock meter enters through its number distribution alone,
        because K(n) is the same for every component."""
        return cls.of(pre, post, cfg.a, *_generator_weights(meter, cfg))

    def kernels(self, g: float) -> _Kernels:
        if self.position is None:
            phases = np.exp(-1j * np.outer(self.a, self.values) * g)
            k = self.u @ phases
            j = (self.u * self.a) @ (phases * self.values[None, :])
        else:
            meter = self.position
            x = self.values[None, :] - g * self.a[:, None]
            psi = meter.amplitudes(x)
            dpsi = ((x - meter.mean_q) / (2 * meter.sigma**2) - 1j * meter.mean_p) * psi
            k = self.u @ psi
            j = 1j * ((self.u * self.a) @ dpsi)
        return _Kernels(self.weights, k, j)

    def family(self, grid: np.ndarray | None = None) -> ParamDistribution:
        """Outcome family g -> conditioned distribution over `values`, with
        its analytic g-derivative: discrete with the values as labels, or a
        density on `grid`, the uniform readout axis with one point per value."""
        return _kernel_family(self.kernels, grid, self.values)

    def selection_family(self) -> ParamDistribution:
        """The {p_f, 1 - p_f} statistics of the selection (labels 1 and 0),
        with the analytic derivative {p_f', -p_f'}."""
        step = np.array([1.0, -1.0])
        kernels = lru_cache(maxsize=1)(self.kernels)  # see `_kernel_family`
        return ParamDistribution(
            "discrete", lambda g: np.array([0.0, 1.0]) + kernels(g).p_f() * step,
            labels=np.array([1.0, 0.0]), derivative=lambda g: kernels(g).dp_dg() * step,
        )


def _kernel_family(kernels_of, grid, values) -> ParamDistribution:
    """Family x -> `kernels_of(x).density()` with the derivative `density_dg`:
    discrete over `values`, or a density on `grid` when it is given. A
    one-entry memo builds the kernels only when x differs from the last x
    built, so `probabilities`, `derivative` and `mean_std` at one x share one
    build, in any order."""
    scale = 1.0 if grid is None else 1.0 / float(grid[1] - grid[0])
    kernels = lru_cache(maxsize=1)(kernels_of)
    return ParamDistribution(
        "discrete" if grid is None else "continuous", lambda x: scale * kernels(x).density(),
        grid=grid, labels=values if grid is None else None,
        derivative=lambda x: scale * kernels(x).density_dg(), kernels=kernels,
    )


def readout_axis(sigma: float, g: float, points: int) -> np.ndarray:
    """Position axis [-span, span), span = 16 sigma + 8 |g|, of a meter of width
    sigma kicked by g: wide enough for every branch displacement and for
    near-orthogonal conditioning (bimodal states up to ~sqrt(3) sigma wide)."""
    if points < 256:
        raise InsufficientSpan(f"points = {points} < 256")
    span = 16.0 * sigma + 8.0 * abs(g)
    return np.linspace(-span, span, points, endpoint=False)


def _quarter_turn(meter: GaussianMeter, theta: float, q_grid: np.ndarray):
    """(values, weights, position, grid) of the readout S_theta = Q cos(theta)
    + P sin(theta), theta a multiple of pi/2 (to 1e-6): Q on `q_grid` or P on
    its FFT momentum grid, each axis reversed where cos(theta) or sin(theta)
    is -1. These are the grids `quadrature_marginal` gives for a meter sampled
    on `q_grid`; that grid path is the oracle of every family read out here."""
    q_grid = np.asarray(q_grid, dtype=float)
    turns, dq = round(2 * theta / math.pi), q_grid[1] - q_grid[0]
    if abs(theta - turns * math.pi / 2) > 1e-6:
        raise ValueError(f"readout angle {theta!r} is not a multiple of pi/2")
    sign = 1.0 if turns % 4 < 2 else -1.0
    if turns % 2 == 0:
        axis, position = q_grid, meter
        weights = np.full(q_grid.size, dq)
    else:
        position = None
        axis = np.fft.fftshift(2 * np.pi * np.fft.fftfreq(q_grid.size, dq))
        momentum = GaussianMeter(1.0 / (2 * meter.sigma), meter.mean_p)
        weights = gaussian_density(momentum, axis) * (axis[1] - axis[0])
    if sign < 0:
        axis, weights = axis[::-1], weights[::-1]
    return axis, weights, position, sign * axis


def quadrature_family(
    pre: SystemState, post: SystemState, a: Observable, meter: GaussianMeter,
    theta: float, q_grid: np.ndarray,
) -> ParamDistribution:
    """Family g -> density of S_theta = Q cos(theta) + P sin(theta) of the
    Gaussian meter conditioned on `post` after the kick exp(-i g A x P), read
    out at a quarter turn (see `_quarter_turn`)."""
    values, weights, position, grid = _quarter_turn(meter, theta, q_grid)
    return Conditioning.of(pre, post, a, values, weights, position).family(grid)


def selection_angle_family(
    pre: SystemState, post_of: Callable[[float], tuple], a: Observable, g: float,
    meter: GaussianMeter, theta: float, q_grid: np.ndarray,
) -> ParamDistribution:
    """Family angle -> density of the quarter-turn readout S_theta at a fixed
    kick g, conditioned on post_of(angle) = (<f|, d<f|/dangle). K is linear in
    <f|, so dK/dangle is the kernel of d<f|/dangle, and with J = i dK/dangle
    `_Kernels.density_dg` is the analytic angle derivative."""
    values, weights, position, grid = _quarter_turn(meter, theta, q_grid)

    def kernels(angle: float) -> _Kernels:
        k, dk = (
            Conditioning.of(pre, f, a, values, weights, position).kernels(g).k
            for f in post_of(angle)
        )
        return _Kernels(weights, k, 1j * dk)

    return _kernel_family(kernels, grid, values)


# ---------------------------------------------------------------------------
# information budget


@dataclass(frozen=True)
class InfoBudget:
    """Split of the joint-state QFI across the post-selection POVM:
    q_jt = p_f q_f + p_r q_r + f_p + arm_phase within 1e-6 relative.

    arm_phase = 4 Var_a(beta_a) over the two arms, with beta_a =
    Im<phi_a|d_g phi_a> the phase each normalized arm state picks up. It
    vanishes for the momentum kick of a Gaussian meter, but not for the
    photon-number coupling at finite g."""

    q_jt: float
    p_f_q_f: float
    p_r_q_r: float
    f_p: float
    arm_phase: float

    def __post_init__(self):
        if abs(self.parts - self.q_jt) > 1e-6 * max(abs(self.q_jt), 1e-30):
            raise ValueError(
                f"budget identity violated: {self.parts!r} vs q_jt = {self.q_jt!r}"
            )

    @property
    def parts(self) -> float:
        return self.p_f_q_f + self.p_r_q_r + self.f_p + self.arm_phase

    @property
    def residual(self) -> float:
        return abs(self.parts - self.q_jt) / abs(self.q_jt)

    def to_dict(self) -> dict:
        return {
            "q_jt": self.q_jt,
            "pf_qf": self.p_f_q_f,
            "pr_qr": self.p_r_q_r,
            "f_p": self.f_p,
            "arm_phase": self.arm_phase,
        }


def info_budget(pre: SystemState, post: SystemState, cfg: CouplingConfig, meter) -> InfoBudget:
    """{Q_jt, p_f Q_f, p_r Q_r, F_p, 4 Var(beta)} of a qubit selection, read
    off its two arms on the spectrum of the coupling generator in `meter`."""
    arms = _arms(pre, post, cfg, *_generator_weights(meter, cfg))
    return _arm_budget(qfi_joint(pre, meter, cfg), *arms)


def _arms(pre: SystemState, post: SystemState, cfg: CouplingConfig, values, weights):
    """(success, failure): the kernels at g of the two arms of a qubit selection
    on one readout spectrum, `post` and the state orthogonal to it."""
    if pre.dim != 2:
        raise UnsupportedDimension("the two-arm split requires a qubit system")
    return tuple(
        Conditioning.of(pre, arm, cfg.a, values, weights).kernels(cfg.g)
        for arm in (post, post.orthogonal_qubit())
    )


def _arm_budget(q_jt: float, success: _Kernels, failure: _Kernels) -> InfoBudget:
    """The budget from the kernels of the two arms at g. The arm variance is
    p_f p_r (beta_f - beta_r)^2. Below 1e-14 a failure arm adds nothing but
    its share of F_p, as p_r Q_r and its variance share are O(p_r)."""
    p_f, q_f = success.p_f(), success.qfi_conditioned()
    p_r = failure.p_f()
    p_r_q_r, arm_phase = 0.0, 0.0
    if p_r > PROBABILITY_FLOOR:
        p_r_q_r = p_r * failure.qfi_conditioned()
        arm_phase = 4.0 * p_f * p_r * (success.phase() - failure.phase()) ** 2
    return InfoBudget(q_jt, p_f * q_f, p_r_q_r, _selection_fisher(success, failure), arm_phase)


def _selection_fisher(success: _Kernels, failure: _Kernels) -> float:
    """F_p of a two-arm selection, from the rarer arm, whose p keeps the
    digits that 1 - p of the other loses."""
    return (success if success.p_f() <= 0.5 else failure).selection_fisher()


# ---------------------------------------------------------------------------
# scaling bounds


def scaling_bounds(n: int, h_min: float, h_max: float) -> tuple[float, float]:
    """(Q_SQL, Q_HL) = (N (h_max-h_min)^2, N^2 (h_max-h_min)^2) for N probes."""
    if n < 1:
        raise ValueError("N must be >= 1")
    if not h_max > h_min:
        raise ValueError("h_max must exceed h_min")
    spread2 = (h_max - h_min) ** 2
    return n * spread2, n**2 * spread2


def tmsv_phase_variance(nbar: float) -> float:
    """Two-mode squeezed-vacuum phase bound Var(phi) = 1 / [8 (nbar^2 + nbar)]."""
    if nbar <= 0:
        raise ValueError("nbar must be positive")
    return 1.0 / (8.0 * (nbar**2 + nbar))
