"""Sampling, estimators, and Monte Carlo Cramér-Rao experiments.

Randomness comes from a counter-based Philox generator with one substream per
(seed, trial) pair, so experiments reproduce bit-for-bit regardless of trial
execution order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
import numpy as np

from .errors import BoundaryMaximum, SingularCovariance
from .infometrics import ParamDistribution, classical_fisher
from .noise import CorrelatedNoiseModel, StateSpaceNoise, spd_cholesky
from .qsys import SIGMA_Z, weak_value
from .schemes import StandardSpec


def substream(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, trial)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, trial])))


# ---------------------------------------------------------------------------
# sampling


class AliasSampler:
    """Walker alias method for discrete distributions: O(1) per draw."""

    def __init__(self, probs: np.ndarray):
        p = np.asarray(probs, dtype=float)
        p = p / p.sum()
        n = p.size
        scaled = p * n
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        self.prob = np.ones(n)
        self.alias = np.arange(n)
        while small and large:
            s, l = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for i in small + large:
            self.prob[i] = 1.0

    def draw(self, rng: np.random.Generator, nu: int) -> np.ndarray:
        idx = rng.integers(0, self.prob.size, size=nu)
        take_alias = rng.random(nu) >= self.prob[idx]
        return np.where(take_alias, self.alias[idx], idx)


class Bracket:
    """j = searchsorted(table, x, "right") - 1 of a finite nondecreasing table:
    the index of the last entry <= x, or -1 below the table, exactly.

    A guide table (Chen & Asau 1974; Devroye 1986, §III.2.4), built once, holds
    the bracket of the lower edge of each of 2 (n - 1) equal buckets over
    [table[0], table[-1]], so a bucket of an evenly spaced table holds at most
    one entry. A key's candidate is its bucket's entry, stepped once past a
    table entry inside the bucket; it is kept where table[j] <= x < table[j+1]
    holds (or j is last), and only the other keys are searched, so rounding
    in the bucket arithmetic can cost time but never a wrong j. Keys must not
    be NaN.
    """

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        buckets, span = 2 * max(t.size - 1, 1), t[-1] - t[0]
        self.table, self.upper = t, np.append(t[1:], np.inf)
        self.origin, self.top = t[0], buckets - 1
        self.scale = buckets / span if span > 0 else 0.0
        edges = t[0] + np.arange(buckets) * (span / buckets)
        self.guide = np.searchsorted(t, edges, side="right") - 1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        j = self.guide.take(np.clip((x - self.origin) * self.scale, 0, self.top).astype(np.intp))
        j += x >= self.upper.take(j)
        wrong = self.table.take(j) > x
        wrong |= x >= self.upper.take(j)
        if wrong.any():
            j[wrong] = np.searchsorted(self.table, x[wrong], side="right") - 1
        return j


class OutcomeSampler:
    """Draws from one outcome distribution, evaluated once at g: the
    normalised table of a discrete family, or the inverse CDF
    (trapezoid-integrated density) of a continuous one, with its `Bracket`
    and np.interp's slopes. A discrete family's alias table is built on the
    first `draw`, so a plan that only draws `counts` never builds it."""

    def __init__(self, dist: ParamDistribution, g: float):
        probs = dist.probabilities(g)
        self.discrete = dist.kind == "discrete"
        if self.discrete:
            self.probs, self.cdf, self.values = probs, None, dist.outcome_values()
        else:
            inc = 0.5 * (probs[1:] + probs[:-1]) * dist.spacing
            cdf = np.concatenate([[0.0], np.cumsum(inc)])
            self.probs, self.cdf, self.values = None, cdf / cdf[-1], dist.grid
            self.bracket = Bracket(self.cdf)
            # np.interp's slopes: inf on a flat stretch (never read) or past a
            # subnormal CDF step
            with np.errstate(divide="ignore", over="ignore"):
                self.slope = np.append(np.diff(self.values) / np.diff(self.cdf), 0.0)

    @cached_property
    def alias(self) -> AliasSampler:
        return AliasSampler(self.probs)

    def counts(self, rng: np.random.Generator, nu: int) -> np.ndarray:
        """How often each outcome of a discrete family occurs in nu draws:
        one multinomial, the sufficient statistic of the nu outcomes."""
        return rng.multinomial(nu, self.probs / self.probs.sum())

    def draw(self, rng: np.random.Generator, nu: int) -> np.ndarray:
        if self.discrete:
            return self.values[self.alias.draw(rng, nu)]
        u = rng.random(nu)
        # np.interp(u, cdf, values) term by term, so the draws are bitwise
        # its own: u's bracket j, then slope[j] (u - cdf[j]) + values[j], or
        # values[j] where u sits on cdf[j] (an infinite slope gives inf * 0
        # there), as it does where j is last (u <= 1 = cdf[-1]); elsewhere the
        # slope is not NaN, so np.interp's NaN retry never applies
        j = self.bracket(u)
        at, value = self.cdf.take(j), self.values.take(j)
        on = u == at
        with np.errstate(invalid="ignore", over="ignore"):
            u -= at
            u *= self.slope.take(j)
            u += value
        np.copyto(u, value, where=on)
        return u


def sample(
    dist: ParamDistribution | OutcomeSampler, nu: int, seed: int, trial: int = 0,
    g: float = 0.0,
) -> np.ndarray:
    """nu i.i.d. draws from the distribution at parameter g, or from an
    `OutcomeSampler` already built (g is then unused).

    Continuous: inverse-CDF on the grid; discrete: alias method. Identical
    (seed, trial) pairs reproduce identical sequences.
    """
    rng = substream(seed, trial)
    sampler = dist if isinstance(dist, OutcomeSampler) else OutcomeSampler(dist, g)
    return sampler.draw(rng, nu)


def correlated_noise_samples(
    model: CorrelatedNoiseModel, seed: int, trial: int = 0
) -> np.ndarray:
    """One zero-mean Gaussian noise sequence with the model covariance: an
    AR(1) state plus white noise from 2N normals of the (seed, trial) stream."""
    rng = substream(seed, trial)
    return StateSpaceNoise(model).sample(rng.standard_normal(2 * model.n))


# ---------------------------------------------------------------------------
# estimators


def amr_estimate(samples: np.ndarray, calibration: float) -> float:
    """Averaged measurement results: mean(samples) / calibration."""
    if calibration == 0:
        raise ValueError("calibration must be nonzero")
    return float(np.mean(samples)) / calibration


def mle_weights(c: np.ndarray) -> np.ndarray:
    """Generalized-least-squares weights f = C^{-1} 1 / (1' C^{-1} 1) of a
    dense covariance; `StateSpaceNoise.gls_weights` is the O(N) path for the
    correlated-noise model."""
    from scipy.linalg import cho_solve

    y = cho_solve(spd_cholesky(c), np.ones(c.shape[0]))
    total = y.sum()
    if total <= 0:
        raise SingularCovariance("inverse-covariance row sums are not positive")
    return y / total


def mle_correlated(samples: np.ndarray, c: np.ndarray) -> float:
    """Weighted average sum_k f_k s_k with GLS weights from the covariance.

    For exchangeable covariances the weights are uniform and the estimate is
    delegated to the plain mean so white-noise results match `amr_estimate`
    bitwise.
    """
    f = mle_weights(np.asarray(c, dtype=float))
    if np.all(f == f[0]):
        return float(np.mean(samples))
    return float(f @ samples)


class MLWindow:
    """The window [g_grid[0], g_grid[-1]] of `mle_grid` and `mle_counts`, with
    the family's (p, p') at the window's two ends and its midpoint, where
    every search starts, evaluated once; and, for a density, the `Bracket` of
    its grid. A plan builds one and hands it to every trial, as it does an
    `OutcomeSampler`."""

    def __init__(self, dist: ParamDistribution, g_grid: np.ndarray):
        self.dist = dist
        self.lo, self.hi = float(g_grid[0]), float(g_grid[-1])
        self.mid = 0.5 * (self.lo + self.hi)
        self.fixed = tuple(self.at(g) for g in (self.lo, self.hi, self.mid))
        self.cells = Bracket(dist.grid) if dist.kind == "continuous" else None

    def at(self, g: float) -> tuple[np.ndarray, np.ndarray]:
        return self.dist.probabilities(g), self.dist.derivative(g)


def _window(dist: ParamDistribution, g_grid: np.ndarray | MLWindow) -> MLWindow:
    """The window a search takes: the plan's own, or one built from the array."""
    if not isinstance(g_grid, MLWindow):
        return MLWindow(dist, g_grid)
    if g_grid.dist is not dist:
        raise ValueError("the window was built for another family")
    return g_grid


def mle_grid(
    samples: np.ndarray, dist: ParamDistribution, g_grid: np.ndarray | MLWindow
) -> float:
    """Maximum likelihood in the window [g_grid[0], g_grid[-1]], given as an
    array or as the `MLWindow` a plan built once.

    Each sample's probability is its outcome's entry, or the linear
    interpolation of the density between its two grid points, floored at
    1e-300. The maximiser is the down-crossing of the analytic score
    S(g) = sum p'/p: Fisher scoring (step S / sum (p'/p)^2) kept by bisection
    in a bracket with S(lo) > 0 > S(hi), stopped when a step falls below 1e-6
    of the window's sd, (hi - lo) / 16. A discrete family's samples enter
    through their outcome counts alone (see `mle_counts`).
    """
    window = _window(dist, g_grid)
    if dist.kind == "discrete":
        # each sample's outcome index, whatever order the labels are in
        labels = dist.outcome_values()
        order = np.argsort(labels, kind="stable")
        idx = order[np.clip(np.searchsorted(labels[order], samples), 0, labels.size - 1)]
        return mle_counts(np.bincount(idx, minlength=labels.size), dist, window)

    grid = dist.grid
    x = np.clip(samples, grid[0], grid[-1])
    i = np.minimum(window.cells(x), grid.size - 2)
    k = i + 1
    left = grid.take(i)
    w = x - left
    w /= grid.take(k) - left
    v = 1.0 - w

    def read(a):  # (1 - w) a[i] + w a[i + 1]
        out, right = a.take(i), a.take(k)
        out *= v
        right *= w
        out += right
        return out

    def score(p, dp) -> tuple[float, float]:
        r = _ratio(read(p), read(dp))
        return float(r.sum()), float(r @ r)

    return _score_root(score, window)


def mle_counts(
    counts: np.ndarray, dist: ParamDistribution, g_grid: np.ndarray | MLWindow
) -> float:
    """`mle_grid` of a discrete family from its outcome counts n_k: the score
    is sum_k n_k p'_k / p_k and the information sum_k n_k (p'_k / p_k)^2, so
    a trial costs O(K) in the K outcomes, not O(nu) in its draws."""

    def score(p, dp) -> tuple[float, float]:
        r = _ratio(p, dp)
        return float(counts @ r), float(counts @ (r * r))

    return _score_root(score, _window(dist, g_grid))


def _ratio(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """p'/p, and 0 where p is below the 1e-300 floor."""
    return np.divide(dp, p, out=np.zeros_like(p), where=p > 1e-300)


def _score_root(score, window: MLWindow) -> float:
    """The down-crossing of score(p, p') = (S, sum (p'/p)^2) in the window, as
    `mle_grid` describes it; the family is evaluated only past the midpoint."""
    lo, hi = window.lo, window.hi
    tol = 1e-6 * (hi - lo) / 16
    at_lo, at_hi, at_mid = window.fixed
    if not (score(*at_lo)[0] > 0 > score(*at_hi)[0]):
        raise BoundaryMaximum("the score has no down-crossing inside the window")
    g, last, arrays = window.mid, hi - lo, at_mid
    while True:
        s, info = score(*arrays)
        if s == 0:
            return g
        lo, hi = (g, hi) if s > 0 else (lo, g)
        step = s / info
        # bisect when scoring would leave the bracket or not halve the last
        # step, so the bracket keeps shrinking
        if not (lo < g + step < hi) or abs(step) > 0.5 * last:
            step = 0.5 * (lo + hi) - g
        last, g = abs(step), g + step
        if last < tol:
            return g
        arrays = window.at(g)


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentPlan:
    """Replicated sampling experiment.

    scheme: a scheme spec from `wvlab.schemes` (or None for a bare
    noise-model experiment measuring `true_value` directly). noise: optional
    CorrelatedNoiseModel applied per measurement sequence. Without noise the
    plan samples the scheme's outcome family; with noise the scheme is None
    or a real-weak-value StandardSpec, and nu must equal the number of
    samples the (thinned) model keeps. These combinations are checked here,
    not partway through a run.
    """

    scheme: object | None
    nu: int
    trials: int
    seed: int = 0
    estimator: str = "amr"  # "amr" | "mle_correlated" | "mle_grid"
    noise: CorrelatedNoiseModel | None = None
    true_value: float = 0.0

    def __post_init__(self):
        if self.nu < 1 or self.trials < 1:
            raise ValueError("nu and trials must be >= 1")
        if self.estimator not in ("amr", "mle_correlated", "mle_grid"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.noise is None:
            if not hasattr(self.scheme, "outcome_family"):
                what = "no scheme" if self.scheme is None else type(self.scheme).__name__
                raise ValueError(f"{what}: no outcome family to sample without a noise model")
            if self.estimator == "mle_correlated":
                raise ValueError("mle_correlated needs a noise model")
            return
        if self.estimator == "mle_grid":
            raise ValueError("mle_grid is not defined for noise plans")
        kept = _noise_setup(self)[2].n
        if kept != self.nu:
            raise ValueError(f"the noise model keeps {kept} samples; nu must equal it")


@dataclass(frozen=True)
class EstimateReport:
    mean_estimate: float
    empirical_variance: float
    crb: float
    crb_ratio: float
    crb_ratio_se: float
    fisher_total: float
    trials: int
    nu: int
    seed: int
    estimator: str

    def to_dict(self) -> dict:
        return asdict(self)


def _jackknife_ratio_se(estimates: np.ndarray, fisher_total: float) -> float:
    """Jackknife standard error of Var(estimates) * F over trials."""
    n = estimates.size
    if n < 3:
        return float("nan")
    s1, s2 = estimates.sum(), np.sum(estimates**2)
    mean_i = (s1 - estimates) / (n - 1)
    var_i = (s2 - estimates**2 - (n - 1) * mean_i**2) / (n - 2)
    theta_i = var_i * fisher_total
    theta_bar = theta_i.mean()
    return float(math.sqrt((n - 1) / n * np.sum((theta_i - theta_bar) ** 2)))


def _noise_setup(plan: ExperimentPlan) -> tuple[float, float, CorrelatedNoiseModel]:
    """(calibration, truth, model) of a noise plan: the results are s_k =
    truth * calibration + x_k. A standard-WVA scheme amplifies by Re<A>_w
    over the p_f-thinned noise sequence."""
    if plan.scheme is None:
        return 1.0, plan.true_value, plan.noise
    if not isinstance(plan.scheme, StandardSpec):
        raise ValueError("noise plans support scheme=None or StandardSpec")
    pre, post = plan.scheme.states()
    calibration = weak_value(pre, post, SIGMA_Z).real
    if abs(calibration) < 1e-9:
        raise ValueError("noise plans need a real-weak-value scheme")
    p_f = abs(np.vdot(post.amplitudes, pre.amplitudes)) ** 2
    return calibration, plan.scheme.g, plan.noise.thinned(p_f)


def run_experiment(plan: ExperimentPlan) -> EstimateReport:
    """Independent replications of (sample, estimate); reports the empirical
    estimator variance against the Cramér-Rao bound of the experiment.

    crb_ratio = empirical_variance * F_total, where F_total is nu times the
    single-draw Fisher information for i.i.d. scheme sampling, or the full
    correlated-sequence information sum[C^{-1}] for noise experiments.
    """
    estimates = np.empty(plan.trials)

    if plan.noise is not None:
        calibration, truth, model = _noise_setup(plan)
        engine = StateSpaceNoise(model)
        fisher_total = calibration**2 * engine.fisher()
        weights = engine.gls_weights() if plan.estimator == "mle_correlated" else None
        for t in range(plan.trials):
            rng = substream(plan.seed, t)
            s = truth * calibration + engine.sample(rng.standard_normal(2 * plan.nu))
            if plan.estimator == "amr":
                estimates[t] = amr_estimate(s, calibration)
            else:
                estimates[t] = float(weights @ s) / calibration
    else:
        family, g_true = plan.scheme.outcome_family()
        fisher_single = classical_fisher(family, g_true)
        fisher_total = plan.nu * fisher_single
        sampler = OutcomeSampler(family, g_true)  # one evaluation for every trial

        def counts(t: int) -> np.ndarray:
            # a discrete trial is its outcome counts: one draw, not nu
            return sampler.counts(substream(plan.seed, t), plan.nu)

        if plan.estimator == "amr":
            # calibration: linear response of the outcome mean, sum_x x dp/dg
            values, dp = family.outcome_values(), family.derivative(g_true)
            slope = float(np.sum(values * dp)) * family.spacing
            m0 = family.mean_std(g_true)[0]
            for t in range(plan.trials):
                if sampler.discrete:
                    mean = float(counts(t) @ values) / plan.nu
                else:
                    mean = float(np.mean(sample(sampler, plan.nu, plan.seed, t)))
                estimates[t] = g_true + (mean - m0) / slope
        else:
            sd = 1.0 / math.sqrt(max(fisher_total, 1e-300))
            window = MLWindow(family, np.linspace(g_true - 8 * sd, g_true + 8 * sd, 101))
            for t in range(plan.trials):
                if sampler.discrete:
                    estimates[t] = mle_counts(counts(t), family, window)
                else:
                    estimates[t] = mle_grid(sample(sampler, plan.nu, plan.seed, t), family, window)

    emp_var = float(np.var(estimates, ddof=1))
    crb = 1.0 / fisher_total
    ratio = emp_var * fisher_total
    se = _jackknife_ratio_se(estimates, fisher_total)
    return EstimateReport(
        mean_estimate=float(np.mean(estimates)),
        empirical_variance=emp_var,
        crb=crb,
        crb_ratio=ratio,
        crb_ratio_se=se,
        fisher_total=fisher_total,
        trials=plan.trials,
        nu=plan.nu,
        seed=plan.seed,
        estimator=plan.estimator,
    )
