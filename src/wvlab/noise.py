"""Noise and detector-imperfection models with their Fisher-information yields.

Covers time-correlated measurement noise (white floor + exponential memory),
beam-jitter closed forms for conventional vs imaginary-weak-value deflection
measurements, detector pixelation, and saturating photodetectors.
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LadderTooLong, UnsupportedCombination
from .infometrics import PROBABILITY_FLOOR, ParamDistribution, classical_fisher
from .qsys import weak_value


# ---------------------------------------------------------------------------
# time-correlated noise (white floor + exponential memory)


@dataclass(frozen=True)
class CorrelatedNoiseModel:
    """C_{k,l} = a delta_{k,l} + c exp(-|k-l| dt / tau_c) over N measurements."""

    a: float
    c: float
    dt: float
    tau_c: float
    n: int

    def __post_init__(self):
        for name in ("a", "c", "dt", "tau_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        check_integer("N", self.n)
        if self.a <= 0:
            raise ValueError("white-noise floor a must be positive")
        if self.c < 0:
            raise ValueError("correlated variance c must be nonnegative")
        if self.dt <= 0 or self.tau_c <= 0:
            raise ValueError("dt and tau_c must be positive")
        if not 0 < self.dt / self.tau_c < math.inf:
            raise ValueError("dt / tau_c must be a positive finite number")
        if self.n < 1:
            raise ValueError("N must be >= 1")

    @property
    def ratio(self) -> float:
        """Decay per step, dt / tau_c."""
        return self.dt / self.tau_c

    def thinned(self, p_f: float) -> "CorrelatedNoiseModel":
        """Noise model seen by the p_f-fraction of post-selected samples."""
        _check_fraction(p_f)
        n_kept = max(1, round(self.n * p_f))
        return CorrelatedNoiseModel(self.a, self.c, self.dt / p_f, self.tau_c, n_kept)


def check_integer(name: str, value) -> None:
    """Raise `ValueError` unless value is an integer: a Python or numpy one,
    not a bool and not an integral float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_fraction(p_f: float) -> None:
    if not 0 < p_f <= 1:
        raise ValueError(f"p_f must lie in (0, 1], got {p_f!r}")


def covariance(model: CorrelatedNoiseModel) -> np.ndarray:
    """Dense N x N covariance matrix; symmetric positive definite.

    The matrix lives on its own private anonymous mapping, so freeing it
    unmaps it. From the heap, glibc would keep a freed matrix of up to
    32 MiB resident: freeing an mmapped chunk raises its mmap threshold to
    that chunk's size, and its trim threshold to twice that. Transparent
    huge pages are advised, as numpy advises them for its own large arrays;
    on a private mapping they make the fill about as fast as `np.empty`'s."""
    import mmap  # no shipped command builds C, so none loads mmap

    n = int(model.n)  # a numpy int32 N would wrap 8 N^2 from N = 2^14
    row = model.c * np.exp(-np.arange(n) * model.ratio)
    row[0] += model.a
    try:
        buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise MemoryError(f"cannot map an {n} x {n} covariance") from exc
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a hint: kernels without THP refuse it
            buf.madvise(mmap.MADV_HUGEPAGE)
    mat = np.ndarray((n, n), dtype=np.float64, buffer=buf)
    # C_kl = row[|k - l|]: row k of this Toeplitz view starts at both[n - 1 - k]
    both = np.concatenate((row[:0:-1], row))
    mat[...] = np.lib.stride_tricks.as_strided(both[n - 1:], (n, n), (-8, 8))
    return mat


def _run_recursion(coef, rhs: np.ndarray) -> np.ndarray:
    """z_k = coef_k z_{k-1} + rhs_k with z_0 = rhs_0 down the first axis of
    rhs, each column of a block on its own, by recursive doubling
    (Kogge & Stone 1973). The step at distance d = 1, 2, 4, ... composes
    each affine map with the one d places back: z_k then sums the 2d terms
    up to k, and coef_k becomes the product of the 2d coefficients that
    carry z_{k-2d} to z_k. So log2 N vectorised steps solve the recursion.
    A scalar coef is one constant for every k; its power coef^d is taken by
    `**` at each step, one rounding rather than log2 d compounded squarings.
    Every step is elementwise, so a column of a block is bitwise its 1-D
    scan; a C-ordered block's slices z[d:] are contiguous. `rhs` becomes z,
    an array `coef` is overwritten, and coef_0 is never read."""
    z, n, d = rhs, rhs.shape[0], 1
    scalar = np.ndim(coef) == 0
    while d < n:
        if scalar:
            z[d:] += coef**d * z[:-d]
        else:
            z[d:] += coef[d:] * z[:-d]
            # the products below 2d are never used again
            coef[2 * d:] *= coef[d : n - d]
        d *= 2
    return z


class StateSpaceNoise:
    """C = c K + a I with K_kl = rho^|k-l|, rho = exp(-dt/tau_c), as the
    state-space model x_k = rho x_{k-1} + sqrt(c (1 - rho^2)) xi_k,
    y_k = x_k + sqrt(a) eta_k, with x_1 ~ N(0, c).

    Every quantity costs O(N) memory. The Kalman filter of this model
    factors C^{-1} = (I - B)' D^{-1} (I - B): D holds the innovation variances
    S_k and I - B maps a sequence to its innovations. The predicted state
    variances P_k follow a scalar Riccati recursion, a Moebius map with fixed
    points P_inf > 0 > P_-, so (P_k - P_inf)/(P_k - P_-) decays geometrically
    and P_k has a closed form (Kalman 1960; Kac, Murdock & Szegoe 1953). The
    three first-order recursions left, the innovations of the all-ones
    sequence, the backward pass of the GLS weights and the AR(1) draw, run
    as numpy doubling scans (`_run_recursion`) in O(N log N) flops with no
    LAPACK call.
    """

    def __init__(self, model: CorrelatedNoiseModel):
        self.model = model
        r = model.ratio
        self.rho = math.exp(-r)
        self._one_minus_rho = -math.expm1(-r)
        self._one_minus_rho2 = -math.expm1(-2 * r)

    @cached_property
    def _kalman(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S_k, P_k / S_k, a / S_k, innovations of the all-ones sequence)."""
        m, rho, eps = self.model, self.rho, self._one_minus_rho2
        a, c, n, r = m.a, m.c, m.n, m.ratio
        # fixed points of P -> rho^2 a P / (P + a) + c eps: the roots of
        # P^2 + b P - c a eps = 0, each taken in its cancellation-free form
        b = eps * (a - c)
        root = math.sqrt(b * b + 4 * c * a * eps)
        if b >= 0:
            p_minus = -(b + root) / 2
            p_inf = 2 * c * a * eps / (b + root)
        else:
            p_inf = (root - b) / 2
            p_minus = -c * a * eps / p_inf
        # w_k = (P_k - P_inf)/(P_k - P_-) = w_1 kappa^(k-1) with
        # kappa = (rho a / (a + P_inf))^2, the map's slope at P_inf
        log_kappa = -2 * r - 2 * math.log1p(p_inf / a)
        w_1 = (c - p_inf) / (c - p_minus)
        one_minus_w_1 = (p_inf - p_minus) / (c - p_minus)
        steps = np.arange(1, n) * log_kappa
        w = w_1 * np.exp(steps)
        p = np.empty(n)
        p[0] = c
        p[1:] = p_inf + (p_inf - p_minus) * w / (one_minus_w_1 - w_1 * np.expm1(steps))
        s = p + a
        keep = a / s
        # innovations of y = 1: e_1 = 1, e_{k+1} = (1 - rho) + rho (a/S_k) e_k
        coef = np.empty(n)
        coef[0] = 0.0
        coef[1:] = rho * keep[:-1]
        rhs = np.full(n, self._one_minus_rho)
        rhs[0] = 1.0
        return s, p / s, keep, _run_recursion(coef, rhs)

    def fisher(self) -> float:
        """1' C^{-1} 1 = sum_k e_k^2 / S_k."""
        s, _, _, e = self._kalman
        return float(np.sum(e * e / s))

    def gls_weights(self) -> np.ndarray:
        """C^{-1} 1 / (1' C^{-1} 1) = (I - B)' D^{-1} e, normalised."""
        s, gain, keep, e = self._kalman
        u = e / s
        # (I - B)' u: v_j = u_j - rho gain_j r_j with the backward recursion
        # r_j = u_{j+1} + rho keep_{j+1} r_{j+1}, r_N = 0 (solved reversed)
        n = u.size
        coef = np.empty(n)
        coef[0] = 0.0
        coef[1:] = self.rho * keep[:0:-1]
        rhs = np.empty(n)
        rhs[0] = 0.0
        rhs[1:] = u[:0:-1]
        r = _run_recursion(coef, rhs)[::-1]
        v = u - self.rho * gain * r
        return v / v.sum()

    @cached_property
    def _scale(self) -> np.ndarray:
        """Innovation scales of the AR(1) state."""
        n, c = self.model.n, self.model.c
        scale = np.full(n, math.sqrt(c * self._one_minus_rho2))
        scale[0] = math.sqrt(c)
        return scale

    def sample(self, normals: np.ndarray) -> np.ndarray:
        """The noise sequence made from 2N standard normals, or one per row
        of a (rows, 2N) block in one scan: the first N of a row drive the
        AR(1) state, the last N are the white floor."""
        n = self.model.n
        rows = np.atleast_2d(normals)
        # the state is scanned as N x rows, so every step reads contiguous
        # memory; each column is still bitwise the scan of its row alone
        state = np.multiply(rows[:, :n].T, self._scale[:, None], order="C")
        sequence = math.sqrt(self.model.a) * rows[:, n:]
        sequence += _run_recursion(self.rho, state).T
        return sequence.reshape(normals.shape[:-1] + (n,))


def cm_fisher_correlated(model: CorrelatedNoiseModel) -> float:
    """F_CM = sum_{k,l} [C^{-1}]_{k,l}, from the Kalman innovations in O(N)."""
    return StateSpaceNoise(model).fisher()


def amr_variance_exact(model: CorrelatedNoiseModel) -> float:
    """Exact variance of the plain sample mean: sum(C) / N^2."""
    lags = np.arange(1, model.n)
    s = model.n * (model.a + model.c) + 2 * model.c * np.sum(
        (model.n - lags) * np.exp(-lags * model.ratio)
    )
    return float(s) / model.n**2


class AmrRegime(enum.Enum):
    WHITE = "white"
    SLOW_CM = "slow_cm"
    SLOW_WVA_UNCORRELATED = "slow_wva_1"  # p_f below dt/tau: thinning whitens
    SLOW_WVA_CORRELATED = "slow_wva_2"  # p_f above dt/tau: still correlated


@dataclass(frozen=True)
class AmrInfo:
    value: float
    regime: AmrRegime
    p_f_threshold: float  # dt / tau_c, the boundary the regime choice used


def amr_information(model: CorrelatedNoiseModel, p_f: float | None = None) -> AmrInfo:
    """Closed-form information of the averaging estimator per regime:
    conventional measurement without `p_f`, optimal real WVA (weak value
    w = 1/sqrt(p_f), so p_f w^2 = 1) with it.

    CM: N/(a+c) in the white limit (tau <= dt), N/(a+Nc) in the slow limit.
    WVA: N/(a+c) in the white limit and in the slow limit with p_f below
    dt/tau (thinning de-correlates); w^2 p_f N / (a + p_f N c) when the kept
    samples stay correlated. The regime threshold (p_f vs dt/tau) is
    explicit in the result.
    """
    thr = model.ratio
    white = model.tau_c <= model.dt
    if p_f is None:
        if white:
            return AmrInfo(model.n / (model.a + model.c), AmrRegime.WHITE, thr)
        return AmrInfo(model.n / (model.a + model.n * model.c), AmrRegime.SLOW_CM, thr)
    _check_fraction(p_f)
    if white or p_f <= thr:
        regime = AmrRegime.WHITE if white else AmrRegime.SLOW_WVA_UNCORRELATED
        return AmrInfo(model.n / (model.a + model.c), regime, thr)
    kept = p_f * model.n
    w = 1.0 / math.sqrt(p_f)
    return AmrInfo(w**2 * kept / (model.a + kept * model.c), AmrRegime.SLOW_WVA_CORRELATED, thr)


# ---------------------------------------------------------------------------
# beam-jitter noise (deflection measurement, CM vs imaginary WVA)


@dataclass(frozen=True)
class BeamGeometry:
    """Gaussian-beam deflection setup: wavenumber k0, propagation l1 then l2,
    lens focal length f, beam waist sigma, N detected photons."""

    k0: float
    l1: float
    l2: float
    f: float
    sigma: float
    n: int

    def __post_init__(self):
        for name in ("k0", "l1", "l2", "f", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n < 1:
            raise ValueError("N must be >= 1")

    @property
    def diffraction_factor(self) -> float:
        """(l1 + l2) / (2 k0 sigma^2): how much beam spreading suppresses
        angular jitter in the imaginary-WVA readout."""
        return (self.l1 + self.l2) / (2 * self.k0 * self.sigma**2)


class JitterCase(enum.Enum):
    ANGULAR = "angular_b0"
    DISPLACEMENT = "displacement_q0"
    DETECTOR = "detector_d0"


def jitter_fisher(
    case: JitterCase, geometry: BeamGeometry, noise_std: float, scheme: str
) -> float:
    """Closed-form FI about the deflection for the supported combinations.

    scheme is "cm" or "imaginary_wva". The (cm, displacement) pair has no
    closed form in the source analysis and raises UnsupportedCombination.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    base = 4.0 * geometry.n * geometry.sigma**2
    s = geometry.sigma
    if scheme == "cm":
        if case is JitterCase.ANGULAR:
            return base / (1.0 + (2 * s * noise_std) ** 2)
        if case is JitterCase.DETECTOR:
            return base / (1.0 + (2 * geometry.k0 * s * noise_std / geometry.f) ** 2)
        raise UnsupportedCombination(
            "no closed form for CM with displacement noise; not invented"
        )
    if scheme != "imaginary_wva":
        raise ValueError("scheme must be 'cm' or 'imaginary_wva'")
    if case is JitterCase.ANGULAR:
        d = geometry.diffraction_factor
        return base / (1.0 + d**2 * (1.0 + (2 * s * noise_std) ** 2))
    if case is JitterCase.DISPLACEMENT:
        return 4.0 * geometry.n * (s**2 + noise_std**2)
    return base / (1.0 + noise_std**2 / s**2)


# ---------------------------------------------------------------------------
# pixelation


@dataclass(frozen=True)
class PixelatedDetector:
    """Arrayed detector with pixel width r and boundary misalignment h in [0, r)."""

    r: float
    h: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("pixel width must be positive")
        if not 0 <= self.h < self.r:
            raise ValueError("misalignment h must lie in [0, r)")

    def edges(self, lo: float, hi: float) -> np.ndarray:
        """Pixel boundaries (n - 1/2) r + h covering [lo, hi]."""
        n_lo = math.floor((lo - self.h) / self.r - 0.5)
        n_hi = math.ceil((hi - self.h) / self.r + 0.5)
        ns = np.arange(n_lo, n_hi + 1)
        return (ns - 0.5) * self.r + self.h


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses over integer pixel indices."""

    labels: np.ndarray
    probs: np.ndarray


def _gaussian_pixels(det: PixelatedDetector, rate: float, width: float) -> ParamDistribution:
    """Family g -> pixel masses Phi(b_j) - Phi(a_j) of N(rate g, width^2), with
    a_j = (e_j - rate g) / width, and their derivative (phi(a_j) - phi(b_j))
    rate / width. The edges e_j of `det` over +-10 width are frozen once, so
    every g and every family compared with this one sees the same
    misalignment h; the outermost pixels are open-ended, and each tail is
    taken from its own side, so far pixels keep their relative precision."""
    from scipy.special import ndtr

    edges = det.edges(-10 * width, 10 * width)
    edges[[0, -1]] = -np.inf, np.inf

    def bounds(g: float) -> tuple[np.ndarray, np.ndarray]:
        z = (edges - rate * g) / width
        return z[:-1], z[1:]

    def masses(g: float) -> np.ndarray:
        a, b = bounds(g)
        return np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))

    def derivative(g: float) -> np.ndarray:
        a, b = bounds(g)
        return (np.exp(-a * a / 2) - np.exp(-b * b / 2)) * rate / (width * math.sqrt(2 * math.pi))

    return ParamDistribution(masses, derivative=derivative)


def pixelated_fisher_ratio(
    scheme: str,
    g: float,
    sigma: float,
    det: PixelatedDetector,
    selection,
) -> float:
    """p_f F(pixelated WVA) / F(pixelated CM) with identical misalignment h.

    `selection` is (pre, post, A) as SystemState/Observable objects. For the
    real scheme the ratio collapses to Re(<f|A|i>)^2 / lambda_max^2 <= 1; for
    the imaginary scheme it is the ratio alpha_p / alpha_q of pixelation
    degradation factors, approaching 1 for fine pixels.
    """
    pre, post, a = selection
    w = weak_value(pre, post, a)
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(a.matrix))))
    p_f = abs(np.vdot(post.amplitudes, pre.amplitudes)) ** 2

    if scheme == "real_wva":
        nu_wva, width = w.real, sigma
    elif scheme == "imaginary_wva":
        # detection happens in the conjugate variable: width 1/(2 sigma),
        # shift rate Im(w)/(2 sigma^2) per unit g
        nu_wva, width = w.imag / (2 * sigma**2), 1.0 / (2 * sigma)
    else:
        raise ValueError("scheme must be 'real_wva' or 'imaginary_wva'")

    f_wva = classical_fisher(_gaussian_pixels(det, nu_wva, width), g)
    f_cm = classical_fisher(_gaussian_pixels(det, lam_max, sigma), g)
    return p_f * f_wva / f_cm


def pixelation_info_ratio(sigma: float, det: PixelatedDetector, g: float = 0.0) -> float:
    """alpha = F(pixelated) / F(ideal) for a Gaussian location family."""
    return classical_fisher(_gaussian_pixels(det, 1.0, sigma), g) * sigma**2


# ---------------------------------------------------------------------------
# saturating detectors


MAX_LADDER_LEVELS = 10**7  # 80 MB for each array over the readout ladder


@dataclass(frozen=True)
class SaturatingDetector:
    """Clipping photodetector: readout Gaussian of width readout_sigma around
    the photon number, quantized, clipped to [0, k_s]. Its ladder of
    ceil(k_s / Q) + 1 levels may hold at most MAX_LADDER_LEVELS."""

    k_s: int
    eta: float = 1.0
    readout_sigma: float = 0.0
    quantization: float = 1.0

    def __post_init__(self):
        if self.k_s < 1:
            raise ValueError("saturation threshold must be >= 1")
        if not 0 < self.eta <= 1:
            raise ValueError("detection efficiency must lie in (0, 1]")
        if self.readout_sigma < 0:
            raise ValueError("readout noise must be nonnegative")
        if not self.quantization > 0:
            raise ValueError("quantization step must be positive")
        size = self.k_s / self.quantization + 1  # ceil(size) levels
        if size > MAX_LADDER_LEVELS:
            raise LadderTooLong(f"{size:.3e} readout levels > {MAX_LADDER_LEVELS}")

    def readout_levels(self) -> np.ndarray:
        """The digitized ladder 0, Q, 2Q, ..., capped at k_s."""
        ks = np.arange(0.0, self.k_s, self.quantization)
        return np.append(ks, float(self.k_s))


def _ladder_index(det: SaturatingDetector, n_in: np.ndarray, top: int) -> np.ndarray:
    """Ladder level of the noiseless readout of n_in photons: n_in / Q
    rounded half to even, clipped at the top level k_s (index `top`), which
    every n_in >= k_s reads."""
    idx = np.minimum(np.round(n_in / det.quantization), top).astype(np.intp)
    return np.where(n_in >= det.k_s, top, idx)


def _bin_edges(levels: np.ndarray) -> np.ndarray:
    """Readout bin edges of a ladder: halfway between its levels, and +-inf
    at the ends, which clip at 0 and saturate at k_s."""
    return np.concatenate([[-np.inf], 0.5 * (levels[1:] + levels[:-1]), [np.inf]])


def _response_band(edges: np.ndarray, sigma: float, n_values: np.ndarray):
    """(cols, band): the rows R(k|N) of the Gaussian readout of width sigma
    > 0 into the bins `edges` for each N in n_values are zero outside the
    ladder columns `cols`, which `band` holds. A bin whose upper edge
    lies 40 sigma below every N has ndtr = 0 at both edges, and one whose
    lower edge lies 9 sigma above every N has ndtr = 1 at both, so every
    dropped entry is exactly 0. A band of more than MAX_LADDER_LEVELS cells
    raises LadderTooLong before it is built."""
    from scipy.special import ndtr

    first = int(np.searchsorted(edges, n_values.min() - 40 * sigma, side="right")) - 1
    stop = int(np.searchsorted(edges, n_values.max() + 9 * sigma, side="left"))
    if n_values.size * (stop - first) > MAX_LADDER_LEVELS:
        raise LadderTooLong(
            f"readout band of {n_values.size} x {stop - first} cells > {MAX_LADDER_LEVELS}"
        )
    cdf = ndtr((edges[None, first : stop + 1] - n_values[:, None]) / sigma)
    return slice(first, stop), np.diff(cdf, axis=1)


def saturating_response(det: SaturatingDetector, n_in: int) -> DiscreteDistribution:
    """R(k | N): distribution of the readout for N incident photons.

    Gaussian readout centered at N, quantized to the detector ladder, with
    all mass at or above k_s accumulated at k_s (hard clip).
    """
    levels = det.readout_levels()
    probs = np.zeros(levels.size)
    if det.readout_sigma == 0:
        probs[_ladder_index(det, np.asarray(n_in), levels.size - 1)] = 1.0
    else:
        edges, n = _bin_edges(levels), np.array([float(n_in)])
        cols, band = _response_band(edges, det.readout_sigma, n)
        probs[cols] = band[0]
    return DiscreteDistribution(levels, probs)


def _readout(det: SaturatingDetector, response: np.ndarray | None):
    """mu -> (N, Pois(N; mu), fold) over the photon numbers N within mu +- 10
    sqrt(mu), where fold is the linear map m -> sum_N R(k|N) m_N onto the
    ladder. Without readout noise R is the quantize-and-clip rule, so fold
    adds each m_N to its level in O(len(N)); with it, fold multiplies by the
    nonzero band of R alone. A tabulated `response` reuses its last row
    beyond its length (deep saturation). The ladder and its bin edges are
    built once, here, for every mu."""
    from scipy.special import gammaln, xlogy

    if response is None:
        levels = det.readout_levels()
        size, edges = levels.size, _bin_edges(levels) if det.readout_sigma > 0 else None

    def read(mu: float):
        lo = max(0, int(mu - 10 * math.sqrt(mu) - 2))
        hi = int(mu + 10 * math.sqrt(mu) + 10)
        ns = np.arange(lo, hi + 1)
        pois = np.exp(xlogy(ns, mu) - gammaln(ns + 1) - mu)
        if response is not None:
            rows = response[np.clip(ns, 0, response.shape[0] - 1)]
            return ns, pois, lambda m: m @ rows
        if edges is None:
            idx = _ladder_index(det, ns, size - 1)
            return ns, pois, lambda m: np.bincount(idx, weights=m, minlength=size)
        cols, band = _response_band(edges, det.readout_sigma, ns.astype(float))

        def fold(m: np.ndarray) -> np.ndarray:
            out = np.zeros(size)
            out[cols] = m @ band
            return out

        return ns, pois, fold

    return read


@dataclass(frozen=True)
class SaturatedFisherResult:
    total: float
    gammas: np.ndarray  # per-pixel equivalent-SNR factors Gamma(R, nbar_j)
    per_pixel: np.ndarray


def readout_distribution(
    det: SaturatingDetector, nbar: float, response: np.ndarray | None = None
) -> np.ndarray:
    """P(k) = sum_N R(k|N) Poisson(N; eta nbar) on the detector ladder.

    `response` optionally supplies a measured matrix with row N holding
    R(.|N); rows beyond the matrix reuse its last row (deep saturation).
    """
    _, pois, fold = _readout(det, response)(det.eta * nbar)
    return fold(pois)


def saturated_fisher(
    nbar, dnbar, det: SaturatingDetector, response: np.ndarray | None = None
) -> SaturatedFisherResult:
    """FI about g of the per-pixel readouts, F = sum_j FI[P(k_j | g)].

    `nbar` and `dnbar` hold each pixel's mean photon number and its
    g-derivative at the working point. With mu = eta nbar_j, the readout
    derivative is exact: d_mu Pois(N; mu) = Pois(N - 1; mu) - Pois(N; mu)
    = Pois(N; mu) (N - mu) / mu, folded onto the ladder like P(k) itself.
    Each per-pixel Gamma is the ratio of the pixel's FI to the
    shot-noise-limited value (eta / nbar_j)(d nbar_j / d g)^2; Gamma -> 1 for
    an ideal detector and -> 0 for strongly saturated pixels. A calibrated
    `response` matrix, row N holding R(.|N), overrides the parametric model.
    """
    nbar, dnbar = np.asarray(nbar, dtype=float), np.asarray(dnbar, dtype=float)
    if nbar.shape != dnbar.shape:
        raise ValueError("nbar and dnbar must have the same shape")
    per_pixel = np.zeros(nbar.size)
    gammas = np.zeros(nbar.size)
    read = _readout(det, response)
    for j in np.flatnonzero(nbar > 0):
        mu = det.eta * nbar[j]
        ns, pois, fold = read(mu)
        pk = fold(pois)
        dpk = det.eta * dnbar[j] * fold(pois * (ns - mu) / mu)
        mask = pk > PROBABILITY_FLOOR
        per_pixel[j] = float(np.sum(dpk[mask] ** 2 / pk[mask]))
        ideal = det.eta / nbar[j] * dnbar[j] ** 2
        gammas[j] = per_pixel[j] / ideal if ideal > 0 else 0.0
    return SaturatedFisherResult(float(per_pixel.sum()), gammas, per_pixel)
