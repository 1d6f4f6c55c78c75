"""Meter-state representations and phase-space tooling.

Three meter families:

* `GaussianMeter` -- the analytic minimum-uncertainty wave packet
  psi(q) = (2 pi sigma^2)^{-1/4} exp[-(q-q0)^2 / (4 sigma^2) + i p0 (q-q0)],
  with Var(Q) = sigma^2 and Var(P) = 1/(4 sigma^2) under [Q, P] = i.
* `GridMeter` -- complex amplitudes sampled on a uniform position grid.
* `FockMeter` -- truncated photon-number representation: a mixture of
  coherent components.

Plus the Wigner transform, rotated-quadrature marginals (via the fractional
Fourier transform), and photon-number moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSpan, TruncationTooTight

DEFAULT_GRID_POINTS = 4096


# ---------------------------------------------------------------------------
# sampled distributions (shared by meter marginals, noise models, schemes)


@dataclass(frozen=True)
class SampledDistribution:
    """Probability density sampled on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.shape != dens.shape or grid.ndim != 1:
            raise ValueError("grid and density must be 1-d arrays of equal length")
        grid.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def total(self) -> float:
        return float(np.sum(self.density) * self.spacing)

    def mean(self) -> float:
        return float(np.sum(self.grid * self.density) * self.spacing / self.total())

    def var(self) -> float:
        m = self.mean()
        return float(
            np.sum((self.grid - m) ** 2 * self.density) * self.spacing / self.total()
        )


# ---------------------------------------------------------------------------
# Gaussian meter


@dataclass(frozen=True)
class GaussianMeter:
    """Minimum-uncertainty Gaussian wave packet; Var(Q) Var(P) = 1/4."""

    sigma: float
    mean_q: float = 0.0
    mean_p: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def var_q(self) -> float:
        return self.sigma**2

    def var_p(self) -> float:
        return 1.0 / (4 * self.sigma**2)

    def amplitudes(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return (2 * np.pi * self.sigma**2) ** -0.25 * np.exp(
            -((q - self.mean_q) ** 2) / (4 * self.sigma**2)
            + 1j * self.mean_p * (q - self.mean_q)
        )

    def displaced(self, dq: float) -> "GaussianMeter":
        return GaussianMeter(self.sigma, self.mean_q + dq, self.mean_p)


def gaussian_density(meter: GaussianMeter, q) -> np.ndarray | float:
    """|<q|Phi>|^2, the normal density with mean mean_q and variance sigma^2."""
    q = np.asarray(q, dtype=float)
    out = np.exp(-((q - meter.mean_q) ** 2) / (2 * meter.sigma**2)) / math.sqrt(
        2 * np.pi * meter.sigma**2
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Grid meter


@dataclass(frozen=True)
class GridMeter:
    """Complex amplitudes on a uniform position grid.

    Normalized so that sum(|psi|^2) * dq = 1 within 1e-10, and the grid must
    cover at least +-8 effective standard deviations of |psi|^2.
    """

    q_grid: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_grid, dtype=float)
        psi = np.asarray(self.amplitudes, dtype=complex)
        if q.ndim != 1 or q.shape != psi.shape:
            raise ValueError("q_grid and amplitudes must be 1-d arrays of equal length")
        if q.size < 16:
            raise ValueError("grid too small")
        steps = np.diff(q)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise ValueError("q_grid must be uniformly spaced")
        q.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "amplitudes", psi)
        norm = self.norm()
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"grid norm {norm!r} deviates from 1 by more than 1e-10")
        mean, std = self.mean_q(), math.sqrt(self.var_q())
        if mean - 8 * std < q[0] or mean + 8 * std > q[-1]:
            raise InsufficientSpan(
                f"grid [{q[0]:.3g}, {q[-1]:.3g}] does not cover mean +- 8 sigma_eff "
                f"({mean:.3g} +- {8 * std:.3g})"
            )

    @classmethod
    def normalized(cls, q_grid, amplitudes) -> "GridMeter":
        psi = np.asarray(amplitudes, dtype=complex)
        dq = float(q_grid[1] - q_grid[0])
        nrm = math.sqrt(np.sum(np.abs(psi) ** 2) * dq)
        if nrm == 0:
            raise ValueError("cannot normalize zero amplitudes")
        return cls(q_grid, psi / nrm)

    @property
    def spacing(self) -> float:
        return float(self.q_grid[1] - self.q_grid[0])

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.spacing)

    def density(self) -> SampledDistribution:
        return SampledDistribution(self.q_grid, np.abs(self.amplitudes) ** 2)

    def mean_q(self) -> float:
        w = np.abs(self.amplitudes) ** 2
        return float(np.sum(self.q_grid * w) * self.spacing / self.norm())

    def var_q(self) -> float:
        w = np.abs(self.amplitudes) ** 2
        m = self.mean_q()
        return float(np.sum((self.q_grid - m) ** 2 * w) * self.spacing / self.norm())

    def momentum(self) -> "GridMeter":
        """Exact discrete Fourier transform to the momentum representation."""
        p_grid, phi = fourier_pair(self.q_grid, self.amplitudes)
        return GridMeter(p_grid, phi)

    def mean_p(self) -> float:
        return self.momentum().mean_q()

    def var_p(self) -> float:
        return self.momentum().var_q()

    def to_csv(self, path) -> None:
        """Columns q, re, im."""
        data = np.column_stack(
            [self.q_grid, self.amplitudes.real, self.amplitudes.imag]
        )
        _write_csv(path, "q,re,im", data)


def fourier_pair(q_grid: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuum-normalized FT: phi(p) = (2 pi)^{-1/2} int psi(q) e^{-ipq} dq.

    Returns a sorted momentum grid and amplitudes; Parseval-exact on the grid.
    """
    n = q_grid.size
    dq = float(q_grid[1] - q_grid[0])
    p = 2 * np.pi * np.fft.fftfreq(n, dq)
    phi = dq / math.sqrt(2 * np.pi) * np.exp(-1j * p * q_grid[0]) * np.fft.fft(psi)
    order = np.argsort(p)
    return p[order], phi[order]


def to_grid(
    meter: GaussianMeter, span: float, points: int = DEFAULT_GRID_POINTS
) -> GridMeter:
    """Sample a Gaussian meter on [mean_q - span, mean_q + span).

    `span` is the half-width; it must cover at least 8 sigma. Amplitudes are
    renormalized on the grid.
    """
    if points < 256:
        raise InsufficientSpan(f"points = {points} < 256")
    if span < 8 * meter.sigma:
        raise InsufficientSpan(f"span = {span:.3g} < 8 sigma = {8 * meter.sigma:.3g}")
    q = np.linspace(meter.mean_q - span, meter.mean_q + span, points, endpoint=False)
    return GridMeter.normalized(q, meter.amplitudes(q))


# ---------------------------------------------------------------------------
# Wigner transform


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

    def to_csv(self, path) -> None:
        """Long format, columns q, p, value."""
        qq, pp = np.meshgrid(self.q_grid, self.p_grid, indexing="ij")
        data = np.column_stack([qq.ravel(), pp.ravel(), self.values.ravel()])
        _write_csv(path, "q,p,value", data)


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


# ---------------------------------------------------------------------------
# rotated quadratures


def optimal_quadrature_angle(weak_value: complex, sigma: float) -> float:
    """Angle theta maximizing the post-selected mean of S_theta = Q cos + P sin.

    Solves 2 sigma^2 tan(theta) = tan(arg w) on the branch that maximizes the
    shift g (Re w cos theta + Im w sin theta / (2 sigma^2)). A purely real
    (imaginary) weak value gives theta = 0 (+-pi/2): measure Q (P).

    At sigma = sqrt(2)/2 this angle also maximizes the extracted Fisher
    information; for other widths the information-optimal quadrature solves
    tan(theta) = 2 sigma^2 tan(arg w) instead (the Rayleigh quotient of the
    shift against the theta-dependent variance).
    """
    w = complex(weak_value)
    if w == 0:
        raise ValueError("weak value must be nonzero")
    return float(np.arctan2(w.imag, 2 * sigma**2 * w.real))


def quadrature_marginal(meter: GridMeter, theta: float) -> SampledDistribution:
    """Distribution of S_theta = Q cos(theta) + P sin(theta).

    Implemented through the fractional Fourier transform: a chirp multiply, an
    exact FFT, and a coordinate scaling. Angles with |sin theta| < 1/sqrt(2)
    are routed through an exact quarter rotation first so the chirp never
    aliases on the grid. Spectrally accurate for well-resolved states.
    """
    th = float(np.mod(theta, 2 * np.pi))
    grid, psi = meter.q_grid, meter.amplitudes

    if abs(math.sin(th)) < 1e-12:  # theta ~ 0 or pi
        dens = np.abs(psi) ** 2
        if math.cos(th) > 0:
            return SampledDistribution(grid, dens)
        return SampledDistribution(-grid[::-1], dens[::-1])

    if abs(math.sin(th)) >= math.sqrt(0.5):
        alpha = th
    else:
        # F_theta = F_{theta - pi/2} o F_{pi/2}; the quarter turn is an exact FFT
        grid, psi = fourier_pair(grid, psi)
        alpha = th - np.pi / 2
        if abs(math.sin(alpha)) < 1e-12:  # theta ~ pi/2 or 3 pi/2
            dens = np.abs(psi) ** 2
            if math.cos(alpha) > 0:
                return SampledDistribution(grid, dens)
            return SampledDistribution(-grid[::-1], dens[::-1])

    sa, ca = math.sin(alpha), math.cos(alpha)
    chirped = np.exp(0.5j * (ca / sa) * grid**2) * psi
    p_grid, phi = fourier_pair(grid, chirped)
    s_grid = p_grid * sa
    dens = np.abs(phi) ** 2 / abs(sa)
    if sa < 0:
        s_grid, dens = s_grid[::-1], dens[::-1]
    dens = dens / (np.sum(dens) * (s_grid[1] - s_grid[0]))
    return SampledDistribution(s_grid, dens)


def quadrature_variance(sigma: float, theta: float) -> float:
    """Var(S_theta) for the Eq.-(1)-style Gaussian meter:
    sigma^2 cos^2(theta) + sin^2(theta) / (4 sigma^2).

    Note: the literature expression sigma^2 (2 sigma^2 cos^2 + sin^2/(2 sigma^2))
    coincides with this only at sigma = sqrt(2)/2 and is dimensionally
    inconsistent at theta = 0; the grid marginal is the ground truth here.
    """
    return sigma**2 * math.cos(theta) ** 2 + math.sin(theta) ** 2 / (4 * sigma**2)


# ---------------------------------------------------------------------------
# Fock-space meters


@dataclass(frozen=True)
class FockState:
    """Pure meter state as truncated number-basis coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    def norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def number_probabilities(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    def moments(self) -> tuple[float, float]:
        p = self.number_probabilities()
        p = p / p.sum()
        n = np.arange(p.size)
        mean = float(np.sum(n * p))
        return mean, float(np.sum(n**2 * p) - mean**2)


def coherent_coeffs(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients of |alpha>, computed in log space."""
    n = np.arange(n_max + 1)
    mag2 = abs(alpha) ** 2
    if mag2 == 0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    log_factorial = np.fromiter(map(math.lgamma, range(1, n_max + 2)), float, n_max + 1)
    log_mag = -mag2 / 2 + n * math.log(abs(alpha)) - 0.5 * log_factorial
    return np.exp(log_mag + 1j * n * np.angle(alpha))


def fock_truncation(nbar: float) -> int:
    """Default cutoff ceil(nbar + 10 sqrt(nbar) + 20); Poisson tail < 1e-8."""
    return int(math.ceil(nbar + 10 * math.sqrt(max(nbar, 0.0)) + 20))


@dataclass(frozen=True)
class FockMeter:
    """Photon-number meter: a mixture of coherent components.

    `components` holds (probability, alpha) pairs. Probabilities must sum to
    1 within 1e-10 and the truncated tail mass must stay < 1e-8. The number
    distribution is computed once, at construction.
    """

    components: tuple = ()
    n_max: int = 0
    _number: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("provide coherent components")
        comp = tuple((float(p), complex(a)) for p, a in self.components)
        object.__setattr__(self, "components", comp)
        probs = np.array([p for p, _ in comp])
        if probs.min() < 0:
            raise ValueError("component probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("component probabilities must sum to 1 within 1e-10")
        n_max = self.n_max or max(fock_truncation(abs(a) ** 2) for _, a in comp)
        object.__setattr__(self, "n_max", int(n_max))
        number = np.zeros(self.n_max + 1)
        for p, a in comp:
            number += p * np.abs(coherent_coeffs(a, self.n_max)) ** 2
        number.setflags(write=False)
        object.__setattr__(self, "_number", number)
        tail = self.tail_mass()
        if tail >= 1e-8:
            raise TruncationTooTight(f"truncated tail mass {tail:.3e} >= 1e-8")

    @classmethod
    def coherent(cls, alpha: complex, n_max: int | None = None) -> "FockMeter":
        return cls(components=((1.0, alpha),), n_max=n_max or 0)

    @classmethod
    def mixture(cls, pairs, n_max: int | None = None) -> "FockMeter":
        return cls(components=tuple(pairs), n_max=n_max or 0)

    @property
    def is_mixture(self) -> bool:
        return len(self.components) > 1

    def component_states(self) -> list[tuple[float, FockState]]:
        return [
            (p, FockState(coherent_coeffs(a, self.n_max))) for p, a in self.components
        ]

    def number_probabilities(self) -> np.ndarray:
        """The photon-number distribution on 0..n_max (read-only)."""
        return self._number

    def tail_mass(self) -> float:
        return float(abs(1.0 - self._number.sum()))


def fock_moments(meter: FockMeter) -> tuple[float, float]:
    """(mean, variance) of the photon number; exact on the truncated support.

    Raises TruncationTooTight when the truncated tail mass reaches 1e-8
    (also enforced at construction).
    """
    p = meter.number_probabilities()
    tail = float(abs(1.0 - p.sum()))
    if tail >= 1e-8:
        raise TruncationTooTight(f"truncated tail mass {tail:.3e} >= 1e-8")
    n = np.arange(p.size)
    mean = float(np.sum(n * p))
    var = float(np.sum(n**2 * p) - mean**2)
    return mean, var


# ---------------------------------------------------------------------------
# CSV plumbing


def _write_csv(path, header: str, data: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
