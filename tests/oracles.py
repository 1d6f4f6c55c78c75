"""Independent references for the tests: finite-difference Fisher numbers,
QFIs and saturating-detector information, the LAPACK solve of a first-order
recursion, and the closed forms and transforms that no shipped path needs.

Every Fisher number in `wvlab` is analytic. The references here take
derivatives by central differences instead, so they share no derivative
code with the package and pin it from outside. Likewise the recursions of
the correlated-noise engine run as numpy doubling scans, and the reference
here is LAPACK's banded triangular solve. The meter-shift formulas, the
expectation value, the mixed-state weak values, the Wigner map, pixel
binning, scipy's Toeplitz build of the dense covariance, the dense GLS
estimate and the matrix-product kernels check the package from outside too;
no command calls them. Nothing in `src/` imports this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wvlab.errors import DegenerateDenominator, OrthogonalSelection, WvlabError
from wvlab.estimate import mle_weights
from wvlab.infometrics import PROBABILITY_FLOOR, Conditioning, ParamDistribution
from wvlab.meter import FockState, GridMeter, SampledDistribution
from wvlab.noise import (
    CorrelatedNoiseModel,
    DiscreteDistribution,
    PixelatedDetector,
    SaturatedFisherResult,
    SaturatingDetector,
    readout_distribution,
)
from wvlab.qsys import ORTHOGONALITY_THRESHOLD, DensityState, Observable, SystemState

SLD_EIGENVALUE_CUTOFF = 1e-12


class StepTooLarge(WvlabError):
    """A finite-difference probe left the valid parameter domain."""


class NotOrthogonal(WvlabError):
    """An orthogonal weak value was asked of a non-orthogonal selection."""


class ResolutionTooCoarse(WvlabError):
    """A pixel is narrower than 8 steps of the sampled density."""


def numeric_family(evaluator, grid=None, labels=None) -> ParamDistribution:
    """A family with no analytic derivative: only the step branch of
    `classical_fisher` below can take its Fisher number."""
    return ParamDistribution(evaluator, grid=grid, labels=labels, derivative=None)


def binary_selection_distribution(p_of_g: Callable[[float], float]) -> ParamDistribution:
    """The {p_f, 1 - p_f} statistics of post-selection as a distribution."""

    def evaluate(g: float) -> np.ndarray:
        p = float(p_of_g(g))
        return np.array([p, 1.0 - p])

    return numeric_family(evaluate, labels=np.array([1.0, 0.0]))


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


def kernels_by_matmul(cond: Conditioning, g: float) -> tuple[np.ndarray, np.ndarray]:
    """(K, J) of `cond` at g as (d,) @ (d, N) matrix products over a (d, N)
    array of per-eigenvalue terms: the reference for the per-eigenvalue sums
    of `Conditioning.kernels`."""
    if cond.position is None:
        phases = np.exp(-1j * np.outer(cond.a, cond.values) * g)
        return cond.u @ phases, (cond.u * cond.a) @ (phases * cond.values[None, :])
    meter = cond.position
    x = cond.values[None, :] - g * cond.a[:, None]
    psi = meter.amplitudes(x)
    dpsi = ((x - meter.mean_q) / (2 * meter.sigma**2) - 1j * meter.mean_p) * psi
    return cond.u @ psi, 1j * ((cond.u * cond.a) @ dpsi)


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


# ---------------------------------------------------------------------------
# closed-form meter shifts


def aav_shifts(weak_value: complex, g: float, sigma: float) -> tuple[float, float]:
    """First-order meter shifts (<Q>_f, <P>_f) = (g Re w, g Im w / (2 sigma^2))."""
    w = complex(weak_value)
    return g * w.real, g * w.imag / (2 * sigma**2)


def exact_shifts(weak_value: complex, g: float, sigma: float) -> tuple[float, float]:
    """Second-order shifts for A with A^2 = I and a Gaussian meter:

    <Q>_f = 4 g Re(w) sigma^2 / [4 sigma^2 + g^2 (|w|^2 - 1)]
    <P>_f = 2 g Im(w)       / [4 sigma^2 + g^2 (|w|^2 - 1)]

    Maximizing over real (imaginary) w at weak coupling gives sigma (1/(2 sigma)).
    """
    w = complex(weak_value)
    denom = 4 * sigma**2 + g**2 * (abs(w) ** 2 - 1.0)
    if abs(denom) < 1e-300:
        raise DegenerateDenominator("shift denominator vanished")
    return 4 * g * w.real * sigma**2 / denom, 2 * g * w.imag / denom


def trapped_ion_extremal_theta(gamma: float) -> float:
    """Post-selection angle maximizing the trapped-ion shift: arccos(e^{-G^2/2})/2."""
    return 0.5 * math.acos(math.exp(-(gamma**2) / 2))


def orthogonal_shifts(a_ow: complex, g: float, sigma: float) -> tuple[float, float]:
    """Shifts under strictly orthogonal selection:
    (<Q>_f, <P>_f) = (g Re w_ow, 3 g Im w_ow / (2 sigma^2))."""
    w = complex(a_ow)
    return g * w.real, 3 * g * w.imag / (2 * sigma**2)


# ---------------------------------------------------------------------------
# expectation values and weak values of mixed states


def expectation(state: SystemState, a: Observable) -> float:
    """<state|A|state>, the weak value of a post-selection on `state` itself."""
    return float(np.real(np.vdot(state.amplitudes, a.matrix @ state.amplitudes)))


def high_order_weak_value(
    rho_s: DensityState,
    pi_f: Observable,
    a: Observable,
    m: int,
    l: int,
    threshold: float = ORTHOGONALITY_THRESHOLD,
) -> complex:
    """Tr(Pi_f A^m rho A^l) / Tr(Pi_f rho) for integer orders m, l >= 0."""
    if m < 0 or l < 0:
        raise ValueError("orders m, l must be nonnegative integers")
    denom = complex(np.trace(pi_f.matrix @ rho_s.matrix))
    if abs(denom) <= threshold:
        raise OrthogonalSelection(
            f"Tr(Pi_f rho) = {abs(denom):.3e} <= {threshold:.1e}; "
            "use orthogonal_weak_value"
        )
    a_m = np.linalg.matrix_power(a.matrix, m)
    a_l = np.linalg.matrix_power(a.matrix, l)
    num = complex(np.trace(pi_f.matrix @ a_m @ rho_s.matrix @ a_l))
    return num / denom


def orthogonal_weak_value(
    rho_i: DensityState,
    pi_f: Observable,
    a: Observable,
    m: int,
    l: int,
    threshold: float = ORTHOGONALITY_THRESHOLD,
) -> complex:
    """Tr(Pi_f A^{m+1} rho A^{l+1}) / [(m+1)(l+1) Tr(Pi_f A rho A)].

    Defined only for strictly orthogonal selections, Tr(Pi_f rho) <= threshold.
    """
    if m < 0 or l < 0:
        raise ValueError("orders m, l must be nonnegative integers")
    overlap = complex(np.trace(pi_f.matrix @ rho_i.matrix))
    if abs(overlap) > threshold:
        raise NotOrthogonal(
            f"Tr(Pi_f rho) = {abs(overlap):.3e} > {threshold:.1e}; selection not orthogonal"
        )
    a_rho_a = a.matrix @ rho_i.matrix @ a.matrix
    denom = complex(np.trace(pi_f.matrix @ a_rho_a))
    if abs(denom) <= threshold:
        raise DegenerateDenominator("Tr(Pi_f A rho A) vanishes")
    a_m1 = np.linalg.matrix_power(a.matrix, m + 1)
    a_l1 = np.linalg.matrix_power(a.matrix, l + 1)
    num = complex(np.trace(pi_f.matrix @ a_m1 @ rho_i.matrix @ a_l1))
    return num / ((m + 1) * (l + 1) * denom)


# ---------------------------------------------------------------------------
# Wigner maps and quadrature variances


@dataclass(frozen=True)
class WignerMap:
    """W(q, p) on a rectangular grid; integrates to 1 within 1e-6."""

    q_grid: np.ndarray
    p_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_grid, dtype=float)
        p = np.asarray(self.p_grid, dtype=float)
        w = np.asarray(self.values, dtype=float)
        if w.shape != (q.size, p.size):
            raise ValueError("values must have shape (len(q_grid), len(p_grid))")
        for arr in (q, p, w):
            arr.setflags(write=False)
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", w)
        total = self.integral()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"Wigner map integrates to {total!r}, not 1 within 1e-6")

    @property
    def dq(self) -> float:
        return float(self.q_grid[1] - self.q_grid[0])

    @property
    def dp(self) -> float:
        return float(self.p_grid[1] - self.p_grid[0])

    def integral(self) -> float:
        return float(np.sum(self.values) * self.dq * self.dp)

    def marginal_q(self) -> SampledDistribution:
        return SampledDistribution(self.q_grid, np.sum(self.values, axis=1) * self.dp)

    def marginal_p(self) -> SampledDistribution:
        return SampledDistribution(self.p_grid, np.sum(self.values, axis=0) * self.dq)


def _upsample_bandlimited(psi: np.ndarray) -> np.ndarray:
    """Exact 2x spectral interpolation.

    Even lengths split the Nyquist bin symmetrically; odd lengths have no
    Nyquist ambiguity and pad between the frequency halves directly.
    """
    n = psi.size
    spec = np.fft.fft(psi)
    out = np.zeros(2 * n, dtype=complex)
    if n % 2 == 0:
        half = n // 2
        out[:half] = spec[:half]
        out[half] = spec[half] / 2
        out[half + n] = spec[half] / 2
        out[half + n + 1 :] = spec[half + 1 :]
    else:
        pos = (n + 1) // 2  # bins 0 .. (n-1)/2
        out[:pos] = spec[:pos]
        out[2 * n - (n - pos) :] = spec[pos:]
    return 2.0 * np.fft.ifft(out)


def wigner(
    meter: GridMeter,
    q_points: int = 257,
    p_points: int = 257,
    p_span: float | None = None,
) -> WignerMap:
    """Wigner function W(q,p) = (1/pi) int psi*(q+y) psi(q-y) e^{2ipy} dy.

    The correlation is evaluated at half-grid steps in y (via exact spectral
    upsampling) so the p-marginal identity holds for interference states, and
    integrated by the trapezoid rule; for a pure Gaussian the map matches
    exp[-q^2/(2 s^2)] exp(-2 s^2 p^2) / pi pointwise.
    """
    q = meter.q_grid
    n = q.size
    dq = meter.spacing
    psi2 = _upsample_bandlimited(meter.amplitudes)  # spacing dq/2
    n2 = psi2.size

    stride = max(1, n // q_points)
    # start so the central sample (q nearest 0 on symmetric grids) is kept
    idx = np.arange((n // 2) % stride, n, stride)
    q_out = q[idx]

    if p_span is None:
        mom = meter.momentum()
        p_center = mom.mean_q()
        p_span = 8.0 * math.sqrt(mom.var_q())
    else:
        p_center = 0.0
    p_out = np.linspace(p_center - p_span, p_center + p_span, p_points)

    # correlation C[j, k] = psi*(q_j + y_k) psi(q_j - y_k), y_k = k dq/2
    kmax = n2 // 2 - 1
    ks = np.arange(-kmax, kmax + 1)
    jj = 2 * idx[:, None]  # output points on the upsampled lattice
    plus = jj + ks[None, :]
    minus = jj - ks[None, :]
    valid = (plus >= 0) & (plus < n2) & (minus >= 0) & (minus < n2)
    corr = np.zeros((idx.size, ks.size), dtype=complex)
    pv = np.clip(plus, 0, n2 - 1)
    mv = np.clip(minus, 0, n2 - 1)
    corr[valid] = np.conj(psi2[pv[valid]]) * psi2[mv[valid]]

    kernel = np.exp(2j * np.outer(ks * dq / 2, p_out))
    values = (dq / 2 / np.pi) * np.real(corr @ kernel)
    return WignerMap(q_out, p_out, values)


def quadrature_variance(sigma: float, theta: float) -> float:
    """Var(S_theta) for the Eq.-(1)-style Gaussian meter:
    sigma^2 cos^2(theta) + sin^2(theta) / (4 sigma^2).

    Note: the literature expression sigma^2 (2 sigma^2 cos^2 + sin^2/(2 sigma^2))
    coincides with this only at sigma = sqrt(2)/2 and is dimensionally
    inconsistent at theta = 0; the grid marginal is the ground truth here.
    """
    return sigma**2 * math.cos(theta) ** 2 + math.sin(theta) ** 2 / (4 * sigma**2)


# ---------------------------------------------------------------------------
# pixel binning


def pixelate(dist: SampledDistribution, det: PixelatedDetector) -> DiscreteDistribution:
    """Bin a sampled density into pixels; mass-preserving within 1e-10.

    Uses the linearly interpolated CDF so pixel masses telescope exactly to
    the grid total. Requires at least 8 grid samples per pixel.
    """
    dq = dist.spacing
    if det.r < 8 * dq:
        raise ResolutionTooCoarse(
            f"pixel width {det.r!r} < 8 grid steps ({8 * dq!r})"
        )
    grid, dens = dist.grid, dist.density
    # cumulative trapezoid over the grid; cdf[i] is mass up to grid[i]
    inc = 0.5 * (dens[1:] + dens[:-1]) * dq
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    edges = det.edges(grid[0], grid[-1])
    cdf_at = np.interp(edges, grid, cdf)
    masses = np.diff(cdf_at)
    labels = np.round((edges[:-1] + det.r / 2 - det.h) / det.r).astype(int)
    total_grid = cdf[-1]
    if abs(masses.sum() - total_grid) > 1e-10:
        raise AssertionError("pixelation lost probability mass")
    return DiscreteDistribution(labels, masses / total_grid)


# ---------------------------------------------------------------------------
# the dense covariance and the dense GLS estimate


def toeplitz_covariance(model: CorrelatedNoiseModel) -> np.ndarray:
    """The dense covariance as scipy's Toeplitz matrix of
    c exp(-|k - l| dt / tau_c), plus a on its diagonal, in numpy's own
    allocation: `covariance` must equal it bitwise."""
    from scipy.linalg import toeplitz

    lags = np.arange(model.n)
    row = model.c * np.exp(-lags * model.ratio)
    mat = toeplitz(row)
    mat[np.diag_indices(model.n)] += model.a
    return mat


def mle_correlated(samples: np.ndarray, c: np.ndarray) -> float:
    """Weighted average sum_k f_k s_k with GLS weights from a dense covariance.

    For exchangeable covariances the weights are uniform and the estimate is
    the plain mean, so white-noise results match `amr_estimate` bitwise. The
    `mle_correlated` estimator of `run_experiment` takes its weights from
    `StateSpaceNoise.gls_weights` instead.
    """
    f = mle_weights(np.asarray(c, dtype=float))
    if np.all(f == f[0]):
        return float(np.mean(samples))
    return float(f @ samples)
