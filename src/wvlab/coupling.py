"""Joint system-meter evolution under an impulsive coupling, post-selection,
and the closed-form meter shifts.

The interaction integrates to a single unitary U = exp(-i g A x M) with M the
meter generator, which the meter's representation fixes: the momentum
operator P (a position kick) for a Gaussian or grid meter, the photon-number
operator n (a phase) for a Fock meter. Joint states are stored branch-wise
over the eigenbasis of A -- exact for any coupling strength, no weak
approximation anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    IncompatibleMeter,
)
from .meter import (
    DEFAULT_GRID_POINTS,
    FockMeter,
    FockState,
    GaussianMeter,
    GridMeter,
)
from .qsys import Observable, SystemState

EMPTY_THRESHOLD = 1e-14


@dataclass(frozen=True)
class CouplingConfig:
    """H = g delta(t - t0) A x M; the meter the coupling acts on fixes M."""

    g: float
    a: Observable

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ValueError("coupling strength must be finite")


@dataclass(frozen=True)
class Branch:
    """One eigenvalue sector of A: amplitude <v_k|pre> and the meter it drags."""

    eigenvalue: float
    amplitude: complex
    system_vector: np.ndarray
    meter: GaussianMeter | GridMeter | FockState


@dataclass(frozen=True)
class JointState:
    branches: tuple
    config: CouplingConfig

    def __post_init__(self):
        total = sum(
            abs(b.amplitude) ** 2 * _meter_norm(b.meter) for b in self.branches
        )
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint state norm {total!r} deviates from 1")

    @property
    def dim(self) -> int:
        return self.branches[0].system_vector.size


def _meter_norm(m) -> float:
    return 1.0 if isinstance(m, GaussianMeter) else m.norm()


class RegimeKind(enum.Enum):
    STRONG = "strong"
    STANDARD_WVA = "standard_wva"
    INVERSE_WVA = "inverse_wva"


@dataclass(frozen=True)
class RegimeLabel:
    kind: RegimeKind
    g_over_sigma: float
    gw_over_sigma: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "g_over_sigma": self.g_over_sigma,
            "gw_over_sigma": self.gw_over_sigma,
        }


@dataclass(frozen=True)
class PostSelectedMeter:
    """Conditioned meters and probabilities of both post-selection arms.

    p_r is defined as 1 - p_f so the pair always sums to one exactly. For
    d > 2 systems the failure arm is a rank-(d-1) mixture and `failure_meter`
    is None (the success arm stays exact).
    """

    success_meter: GridMeter | FockState | None
    p_f: float
    failure_meter: GridMeter | FockState | None
    empty: bool = False

    @property
    def p_r(self) -> float:
        return 1.0 - self.p_f


def evolve_joint(
    pre: SystemState, meter, cfg: CouplingConfig
) -> JointState:
    """Apply U = exp(-i g A x M) to |pre> x |meter>, branch per eigenvalue of A.

    A Gaussian or grid meter is kicked: branch k is displaced by a_k g in
    position. A Fock meter takes a phase: Fock level n of branch k is
    multiplied by exp(-i a_k g n). Exact to machine precision.
    """
    eigvals, eigvecs = cfg.a.eig()
    if eigvecs.shape[0] != pre.dim:
        raise ValueError("observable and state dimensions differ")

    branches = []
    for k in range(eigvals.size):
        v = eigvecs[:, k]
        amp = complex(np.vdot(v, pre.amplitudes))
        shifted = _shift_meter(meter, float(eigvals[k]) * cfg.g)
        branches.append(Branch(float(eigvals[k]), amp, v, shifted))
    return JointState(tuple(branches), cfg)


def _shift_meter(meter, d: float):
    """The meter after the coupling by d = a_k g on one branch."""
    if isinstance(meter, GaussianMeter):
        return meter.displaced(d)
    if isinstance(meter, GridMeter):
        return _displace_grid(meter, d)
    if isinstance(meter, FockMeter):
        if meter.is_mixture:
            raise IncompatibleMeter(
                "evolve_joint acts on pure meters; decompose the mixture first"
            )
        (_, state), = meter.component_states()
    elif isinstance(meter, FockState):
        state = meter
    else:
        raise IncompatibleMeter(f"a {type(meter).__name__} meter has no coupling generator")
    n = np.arange(state.coeffs.size)
    return FockState(state.coeffs * np.exp(-1j * d * n))


def _displace_grid(meter: GridMeter, d: float) -> GridMeter:
    """Spectral displacement psi(q) -> psi(q - d); exact while the support
    stays inside the (implicitly periodic) grid."""
    p = 2 * np.pi * np.fft.fftfreq(meter.q_grid.size, meter.spacing)
    psi = np.fft.ifft(np.fft.fft(meter.amplitudes) * np.exp(-1j * p * d))
    return GridMeter(meter.q_grid, psi)


def _common_grid(joint: JointState, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    metres = [b.meter for b in joint.branches]
    if all(isinstance(m, GridMeter) for m in metres):
        return metres[0].q_grid
    sigma = max(m.sigma for m in metres)
    centers = [m.mean_q for m in metres]
    center = 0.5 * (max(centers) + min(centers))
    spread = max(abs(c - center) for c in centers)
    # near-orthogonal conditioning can widen the meter to ~sqrt(3) sigma, so
    # budget a doubled width on top of the branch spread
    half = 8.0 * (2.0 * sigma + spread)
    return np.linspace(center - half, center + half, points, endpoint=False)


def _branch_amplitudes_on(joint: JointState, weights: np.ndarray) -> tuple:
    """Coherent sum over branches with system weights <sel|v_k>."""
    metres = [b.meter for b in joint.branches]
    if isinstance(metres[0], FockState):
        amp = np.zeros(metres[0].coeffs.size, dtype=complex)
        for b, w in zip(joint.branches, weights):
            amp += w * b.amplitude * b.meter.coeffs
        p = float(np.sum(np.abs(amp) ** 2))
        return amp, p, "fock"
    grid = _common_grid(joint)
    amp = np.zeros(grid.size, dtype=complex)
    for b, w in zip(joint.branches, weights):
        c = w * b.amplitude
        if c == 0:
            continue
        if isinstance(b.meter, GaussianMeter):
            amp += c * b.meter.amplitudes(grid)
        else:
            amp += c * b.meter.amplitudes
    dq = float(grid[1] - grid[0])
    p = float(np.sum(np.abs(amp) ** 2) * dq)
    return (grid, amp), p, "grid"


def postselect(joint: JointState, post: SystemState) -> PostSelectedMeter:
    """Project the system on |post>; exact conditioned meters and p_f.

    p_f = ||<post|Psi_jt>||^2 and p_r = 1 - p_f by construction. A qubit
    failure arm is conditioned on the unique orthogonal state.
    """
    weights = np.array(
        [np.vdot(post.amplitudes, b.system_vector) for b in joint.branches]
    )
    payload, p_f, kind = _branch_amplitudes_on(joint, weights)
    p_f = min(max(p_f, 0.0), 1.0)

    success = None
    if p_f > EMPTY_THRESHOLD:
        success = _normalize_payload(payload, p_f, kind)

    failure = None
    if joint.dim == 2:
        orth = post.orthogonal_qubit()
        w_r = np.array(
            [np.vdot(orth.amplitudes, b.system_vector) for b in joint.branches]
        )
        payload_r, p_r_raw, _ = _branch_amplitudes_on(joint, w_r)
        if p_r_raw > EMPTY_THRESHOLD:
            failure = _normalize_payload(payload_r, p_r_raw, kind)

    return PostSelectedMeter(
        success_meter=success,
        p_f=p_f,
        failure_meter=failure,
        empty=p_f <= EMPTY_THRESHOLD,
    )


def _normalize_payload(payload, p, kind):
    if kind == "fock":
        return FockState(payload / math.sqrt(p))
    grid, amp = payload
    return GridMeter(grid, amp / math.sqrt(p))


# ---------------------------------------------------------------------------
# closed-form shifts and regimes


def classify_regime(g: float, sigma: float, weak_value: complex) -> RegimeLabel:
    """Strong (g >= sigma), inverse WVA (g |w| >= sigma > g), else standard WVA.

    The thresholds are strict ratio comparisons at 1; the underlying
    inequalities are asymptotic, so the margins are always reported.
    """
    if g <= 0 or sigma <= 0:
        raise ValueError("g and sigma must be positive")
    r_g = g / sigma
    r_gw = g * abs(complex(weak_value)) / sigma
    if r_g >= 1.0:
        kind = RegimeKind.STRONG
    elif r_gw >= 1.0:
        kind = RegimeKind.INVERSE_WVA
    else:
        kind = RegimeKind.STANDARD_WVA
    return RegimeLabel(kind, r_g, r_gw)


def trapped_ion_shift(gamma: float, theta: float, gamma0_t: float) -> float:
    """<Q>_f = -gamma0 t sin(2 theta) / [1 - cos(2 theta) exp(-Gamma^2/2)].

    Gamma = gamma0 t / sigma is the relative coupling strength. The Gamma->inf
    limit is the post-selected expectation -gamma0 t sin(2 theta); the
    Gamma->0 limit of <Q>_f/(gamma0 t) is the weak value -cot(theta).
    """
    if gamma <= 0:
        raise ValueError("Gamma must be positive")
    denom = 1.0 - math.cos(2 * theta) * math.exp(-(gamma**2) / 2)
    if abs(denom) < 1e-15:
        raise DegenerateDenominator(
            "shift undefined as theta -> 0 and Gamma -> 0 together"
        )
    return -gamma0_t * math.sin(2 * theta) / denom


def aav_condition_margin(
    pre: SystemState,
    post: SystemState,
    a: Observable,
    g: float,
    sigma: float,
) -> float:
    """max_{1<=n<=8} g |<post|A^n|pre>|^{1/n} / |<post|pre>| divided by sigma.

    Values below 1 mean the linear-response (AAV) approximation is valid.
    """
    overlap = abs(np.vdot(post.amplitudes, pre.amplitudes))
    if overlap == 0:
        raise DegenerateDenominator("margin undefined for orthogonal selection")
    if g == 0:
        return 0.0
    worst = 0.0
    a_n = np.eye(a.dim, dtype=complex)
    for n in range(1, 9):
        a_n = a_n @ a.matrix
        amp = abs(np.vdot(post.amplitudes, a_n @ pre.amplitudes))
        worst = max(worst, abs(g) * amp ** (1.0 / n) / overlap)
    return worst / sigma
