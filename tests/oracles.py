"""Independent references for the tests: finite-difference Fisher numbers,
QFIs and saturating-detector information, and the LAPACK solve of a
first-order recursion.

Every Fisher number in `wvlab` is analytic. The references here take
derivatives by central differences instead, so they share no derivative
code with the package and pin it from outside. Likewise the recursions of
the correlated-noise engine run as numpy doubling scans, and the reference
here is LAPACK's banded triangular solve. Nothing in `src/` imports this
module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wvlab.errors import WvlabError
from wvlab.infometrics import PROBABILITY_FLOOR, ParamDistribution
from wvlab.meter import FockState
from wvlab.noise import SaturatedFisherResult, SaturatingDetector, readout_distribution

SLD_EIGENVALUE_CUTOFF = 1e-12


class StepTooLarge(WvlabError):
    """A finite-difference probe left the valid parameter domain."""


def numeric_family(kind: str, evaluator, grid=None, labels=None) -> ParamDistribution:
    """A family with no analytic derivative: only the step branch of
    `classical_fisher` below can take its Fisher number."""
    return ParamDistribution(kind, evaluator, grid=grid, labels=labels, derivative=None)


def binary_selection_distribution(p_of_g: Callable[[float], float]) -> ParamDistribution:
    """The {p_f, 1 - p_f} statistics of post-selection as a distribution."""

    def evaluate(g: float) -> np.ndarray:
        p = float(p_of_g(g))
        return np.array([p, 1.0 - p])

    return numeric_family("discrete", evaluate, labels=np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# classical Fisher information


class FisherMethod(enum.Enum):
    ANALYTIC = "analytic"
    CENTRAL_DIFFERENCE = "central_difference"


@dataclass(frozen=True)
class FisherReport:
    fi: float
    method: FisherMethod
    step: float

    def __post_init__(self):
        if self.fi < -1e-9:
            raise ValueError(f"Fisher information {self.fi!r} < -1e-9")
        object.__setattr__(self, "fi", max(self.fi, 0.0))

    def to_dict(self) -> dict:
        return {"fi": self.fi, "method": self.method.value, "step": self.step}


def default_step(g: float) -> float:
    """Central-difference step balancing truncation against roundoff."""
    return max(1e-6, 1e-4 * abs(g))


def classical_fisher(
    dist: ParamDistribution, g: float, h: float | None = None
) -> FisherReport:
    """F_g = sum_x (d_g P)^2 / P (integral for densities).

    Uses the supplied analytic derivative when available; otherwise central
    differences at steps h and h/2 combined by one Richardson extrapolation.
    Outcomes with P < 1e-14 are excluded.
    """
    p0 = dist.probabilities(g)
    if dist.derivative is not None:
        dp = np.asarray(dist.derivative(g), dtype=float)
        method, step = FisherMethod.ANALYTIC, 0.0
    else:
        step = h if h is not None else default_step(g)
        try:
            d1 = (dist.probabilities(g + step) - dist.probabilities(g - step)) / (
                2 * step
            )
            d2 = (
                dist.probabilities(g + step / 2) - dist.probabilities(g - step / 2)
            ) / step
        except ValueError as exc:
            raise StepTooLarge(
                f"two-sided probe at step {step!r} left the valid domain"
            ) from exc
        dp = (4 * d2 - d1) / 3
        method = FisherMethod.CENTRAL_DIFFERENCE
    mask = p0 > PROBABILITY_FLOOR
    fi = float(np.sum(dp[mask] ** 2 / p0[mask]) * dist.spacing)
    return FisherReport(fi, method, step)


# ---------------------------------------------------------------------------
# quantum Fisher information


def _family_vector(state) -> np.ndarray:
    """Flatten a state into a complex vector (`qfi_pure` normalizes it)."""
    vec = state.coeffs if isinstance(state, FockState) else getattr(state, "amplitudes", state)
    return np.asarray(vec, dtype=complex).reshape(-1)


def qfi_pure(family: Callable[[float], object], g: float, h: float = 1e-6) -> float:
    """4 [ <d psi|d psi> - |<d psi|psi>|^2 ] with a central-difference derivative.

    The family must return normalized states (vectors, SystemState, GridMeter
    or FockState); each evaluation is re-normalized defensively.
    """

    def vec(x: float) -> np.ndarray:
        v = _family_vector(family(x))
        return v / np.linalg.norm(v)

    psi = vec(g)
    dpsi = (vec(g + h) - vec(g - h)) / (2 * h)
    term1 = float(np.real(np.vdot(dpsi, dpsi)))
    term2 = abs(np.vdot(dpsi, psi)) ** 2
    return 4.0 * (term1 - term2)


def qfi_mixed(family: Callable[[float], np.ndarray], g: float, h: float = 1e-6) -> float:
    """QFI of a density-matrix family via the symmetric logarithmic derivative.

    Builds L = sum_{jk} 2 (d rho)_{jk} / (lambda_j + lambda_k) |j><k| over
    eigenvalue pairs with lambda_j + lambda_k > 1e-12 and returns Tr(L rho L).
    """
    rho = np.asarray(family(g), dtype=complex)
    drho = (np.asarray(family(g + h), dtype=complex) - np.asarray(family(g - h), dtype=complex)) / (2 * h)
    lam, vecs = np.linalg.eigh(rho)
    d_eig = vecs.conj().T @ drho @ vecs
    denom = lam[:, None] + lam[None, :]
    sld = np.zeros_like(d_eig)
    ok = denom > SLD_EIGENVALUE_CUTOFF
    sld[ok] = 2.0 * d_eig[ok] / denom[ok]
    rho_eig = np.diag(lam.astype(complex))
    return float(np.real(np.trace(sld @ rho_eig @ sld)))


# ---------------------------------------------------------------------------
# first-order recursions


def bidiagonal_solve(coef, rhs: np.ndarray) -> np.ndarray:
    """z_k = coef_k z_{k-1} + rhs_k with z_0 = rhs_0, as the LAPACK `dtbtrs`
    solve of the unit lower bidiagonal system with -coef_k below the
    diagonal. A scalar coef stands for every k; coef_0 is unused."""
    from scipy.linalg.lapack import dtbtrs

    rhs = np.array(rhs, dtype=float)
    coef = np.broadcast_to(np.asarray(coef, dtype=float), rhs.shape)
    band = np.empty((2, rhs.size))
    band[0] = 1.0
    band[1, :-1] = -coef[1:]
    band[1, -1] = 0.0
    z, info = dtbtrs(band, rhs, uplo="L")
    assert info == 0, f"dtbtrs info={info}"
    return z


# ---------------------------------------------------------------------------
# saturating detectors


def saturating_response(det: SaturatingDetector, n_in: int) -> np.ndarray:
    """R(.|N) of the noiseless readout by the nearest ladder level: the clip
    at k_s, then the rounded level found by search over the whole ladder."""
    levels = det.readout_levels()
    if n_in >= det.k_s:
        k = float(det.k_s)
    else:
        k = min(round(n_in / det.quantization) * det.quantization, float(det.k_s))
    probs = np.zeros(levels.size)
    probs[int(np.argmin(np.abs(levels - k)))] = 1.0
    return probs


def response_matrix(det: SaturatingDetector, n_values: np.ndarray) -> np.ndarray:
    """The dense (photons x ladder) Gaussian readout matrix R(k|N) of a
    detector with readout_sigma > 0, every column computed."""
    from scipy.special import ndtr

    levels = det.readout_levels()
    edges = np.concatenate([[-np.inf], 0.5 * (levels[1:] + levels[:-1]), [np.inf]])
    cdf = ndtr((edges[None, :] - n_values[:, None]) / det.readout_sigma)
    return np.diff(cdf, axis=1)


def readout_distribution_matrix(
    det: SaturatingDetector, nbar: float, response: np.ndarray | None = None
) -> np.ndarray:
    """P(k) as Poisson weights times a (photons x ladder) response matrix, one
    row per photon number, built row by row when readout_sigma = 0."""
    from scipy.special import gammaln, xlogy

    mu = det.eta * nbar
    lo = max(0, int(mu - 10 * math.sqrt(mu) - 2))
    hi = int(mu + 10 * math.sqrt(mu) + 10)
    ns = np.arange(lo, hi + 1)
    pois = np.exp(xlogy(ns, mu) - gammaln(ns + 1) - mu)
    if response is not None:
        return pois @ response[np.clip(ns, 0, response.shape[0] - 1)]
    if det.readout_sigma == 0:
        return pois @ np.array([saturating_response(det, int(n)) for n in ns])
    return pois @ response_matrix(det, ns.astype(float))


def saturated_fisher(
    nbar_of_g,
    det: SaturatingDetector,
    g: float,
    h: float | None = None,
    response: np.ndarray | None = None,
) -> SaturatedFisherResult:
    """F = sum_j FI[P(k_j | g)] with central differences in g, three readout
    evaluations per pixel: `nbar_of_g` maps g to the mean photon numbers."""
    step = h if h is not None else default_step(g)
    nbar0 = np.asarray(nbar_of_g(g), dtype=float)
    nplus = np.asarray(nbar_of_g(g + step), dtype=float)
    nminus = np.asarray(nbar_of_g(g - step), dtype=float)
    dnbar = (nplus - nminus) / (2 * step)

    per_pixel = np.zeros(nbar0.size)
    gammas = np.zeros(nbar0.size)
    for j in range(nbar0.size):
        if nbar0[j] <= 0:
            continue
        pk0 = readout_distribution(det, nbar0[j], response)
        pkp = readout_distribution(det, nplus[j], response)
        pkm = readout_distribution(det, nminus[j], response)
        dpk = (pkp - pkm) / (2 * step)
        mask = pk0 > 1e-14
        per_pixel[j] = float(np.sum(dpk[mask] ** 2 / pk0[mask]))
        ideal = det.eta / nbar0[j] * dnbar[j] ** 2
        gammas[j] = per_pixel[j] / ideal if ideal > 0 else 0.0
    return SaturatedFisherResult(float(per_pixel.sum()), gammas, per_pixel)
