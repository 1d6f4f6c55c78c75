"""Sampling, estimators, and Monte Carlo Cramér-Rao experiments.

Randomness comes from a counter-based Philox generator with one substream per
(seed, trial) pair, so experiments reproduce bit-for-bit regardless of trial
execution order. A trial of an outcome family is its outcome counts over the
family's nodes; `trial_samples` spells out the data one trial estimates from.
An `OutcomeSampler` holds the law it draws from, and an `MLWindow` the
family that `mle_grid` searches: a plan builds each once and passes it to
every trial.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoundaryMaximum, InvalidCovariance, SingularCovariance
from .infometrics import ParamDistribution, classical_fisher
from .noise import CorrelatedNoiseModel, StateSpaceNoise, check_integer
from .qsys import SIGMA_Z, weak_value
from .schemes import StandardSpec


def substream(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, trial): the Philox
    generator of `np.random.SeedSequence([seed, trial])`, bitwise, with its
    key taken from `_stream_key`'s block of 256 trials. One block is kept,
    so calls that alternate between seeds or blocks of trials key a whole
    block (about 0.1 ms) each time."""
    return np.random.Generator(np.random.Philox(_stream_key(seed, trial)))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) in uint32 words: a
# 4-word pool hashed from the entropy words, mixed word into word, then
# hashed out as the two 64-bit words of a Philox key
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4
# trials keyed at once; 2^32 is a multiple, so every trial of a block has
# as many 32-bit words as the block's first
_LANES = 256
# (seed, block, the block's keys, the ISeedSequence type that hands one over)
_key_memo: tuple = (None, None, None, None)


def _words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first,
    as SeedSequence splits its entropy."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, init * mult^2, ... mod 2^32: the hash constant
    before each of `count` hashes and after the last, as a column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value[i] under the constants consts[i] and
    consts[i + 1], one lane per column."""
    x = (value ^ consts[:-1]) * consts[1:]
    return x ^ (x >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _block_keys(seed: int, block: int) -> np.ndarray:
    """The Philox keys `SeedSequence([seed, t]).generate_state(2, np.uint64)`
    of the 256 trials t of a block, one read-only row each, mixed at once
    with one uint32 lane a trial."""
    seed_words, trial_words = _words(seed), _words(block * _LANES)
    entropy = np.array(seed_words + trial_words, dtype=np.uint32)[:, None].repeat(_LANES, 1)
    entropy[len(seed_words)] += np.arange(_LANES, dtype=np.uint32)  # the trials' low words
    extra = max(0, len(entropy) - _POOL)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((_POOL, _LANES), np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hash(pool, a[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        # every other word mixes in a hash of this one, under its own constant
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], a[k : k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(word, a[k : k + _POOL + 1]))
        k += _POOL
    state = _hash(pool, _hash_constants(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    keys = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    keys.flags.writeable = False
    return keys


def _stream_key(seed: int, trial: int):
    """An `ISeedSequence` whose `generate_state` is the Philox key of
    SeedSequence([seed, trial]), from a one-entry memo of the keys of the
    256 trials that hold `trial`."""
    global _key_memo
    seed, trial = operator.index(seed), operator.index(trial)
    if seed < 0 or trial < 0:
        raise ValueError("expected non-negative integer")
    memo = _key_memo
    if memo[:2] != (seed, trial // _LANES):
        block = trial // _LANES
        memo = _key_memo = seed, block, _block_keys(seed, block), _key_type()
    return memo[3](memo[2][trial % _LANES])


@functools.cache
def _key_type() -> type:
    """The ISeedSequence of a precomputed key. numpy.random is imported
    here, not with the module: no command but `estimate` draws."""
    from numpy.random.bit_generator import ISeedSequence

    class StreamKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            """The key as Philox asks for it, two uint64 words."""
            if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("a stream key is two uint64 words")
            return self.key

    return StreamKey


# ---------------------------------------------------------------------------
# sampling


class OutcomeSampler:
    """One outcome law, evaluated once at g: the family's K nodes (a density's
    grid points, a discrete family's outcomes) with probabilities p_k / sum p,
    which for a density is p_k dx over the grid, the law its Fisher number
    sums over. A trial is its outcome `counts`."""

    def __init__(self, dist: ParamDistribution, g: float):
        probs = dist.probabilities(g)
        self.probs, self.values = probs / probs.sum(), dist.outcome_values()

    def counts(self, rng: np.random.Generator, nu: int) -> np.ndarray:
        """How often each node occurs in nu draws: one multinomial, the
        sufficient statistic of the nu outcomes, drawn as a chain of
        binomials over the nodes with no array of nu draws. numpy draws a
        binomial of mean below 30 by inversion, about one step per count,
        so part of the cost grows with nu while the nodes' means are
        small; a binomial of larger mean is drawn by BTPE, whose cost does
        not grow with it."""
        return rng.multinomial(nu, self.probs)


def sample(sampler: OutcomeSampler, nu: int, seed: int, trial: int = 0) -> np.ndarray:
    """The outcome counts of nu i.i.d. draws from the sampler's law, from the
    (seed, trial) stream; identical pairs reproduce identical counts."""
    return sampler.counts(substream(seed, trial), nu)


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
    """Averaged measurement results: mean(samples) / calibration, the mean
    taken as np.mean takes it, sum / N, without its dispatch."""
    if calibration == 0:
        raise ValueError("calibration must be nonzero")
    samples = np.asarray(samples, dtype=float)
    return float(samples.sum() / samples.size) / calibration


# side of the square tiles that the covariance check and the triangle restore
# walk: each tile's temporaries are 128 KiB at most, not N^2 entries
_TILE = 128


def _lower_tiles(n: int):
    """(rows, cols) slices of the tiles of an n x n matrix on and below its
    diagonal, row by row."""
    for top in range(0, n, _TILE):
        rows = slice(top, min(top + _TILE, n))
        for left in range(0, top + 1, _TILE):
            yield rows, slice(left, min(left + _TILE, n))


def _check_covariance(c: np.ndarray) -> None:
    """Raise `InvalidCovariance` unless c is square, finite and bitwise
    symmetric, tile by tile."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCovariance(f"covariance must be a square matrix, got shape {c.shape}")
    bits = c.view(np.uint64)
    for rows, cols in _lower_tiles(c.shape[0]):
        if not np.isfinite(c[rows, cols]).all():
            raise InvalidCovariance("covariance has a non-finite entry")
        if not np.array_equal(bits[rows, cols], bits[cols, rows].T):
            raise InvalidCovariance("covariance is not exactly symmetric")


def _mirror_upper(c: np.ndarray, diagonal: np.ndarray) -> None:
    """Copy the strictly upper triangle of c over its lower one, tile by
    tile, and put `diagonal` back."""
    for rows, cols in _lower_tiles(c.shape[0]):
        if cols.start < rows.start:
            c[rows, cols] = c[cols, rows].T
        else:
            square = c[rows, cols]
            below = np.tril_indices(square.shape[0], -1)
            square[below] = square.T[below]
    np.fill_diagonal(c, diagonal)


def mle_weights(c: np.ndarray) -> np.ndarray:
    """Generalized-least-squares weights f = C^{-1} 1 / (1' C^{-1} 1) of a
    dense covariance; `StateSpaceNoise.gls_weights` is the O(N) path for the
    correlated-noise model.

    LAPACK factors the Fortran-ordered view c.T in place, so no copy of C is
    made: its upper triangle is C's lower one, the same numbers in the same
    layout as a Fortran copy of a symmetric C. A matrix that fails is retried
    once with a trace-scaled jitter on its diagonal before it is declared
    singular. The untouched upper triangle and the saved diagonal then put C
    back, so the caller's array is bitwise unchanged on every path; it holds
    the factor while the call runs."""
    from scipy.linalg import cho_factor, cho_solve

    c = np.asarray(c)
    if np.iscomplexobj(c):
        raise InvalidCovariance("covariance must be real")
    # LAPACK would write through a read-only array, so such a C is copied
    c = c.astype(float, copy=not c.flags.writeable)
    _check_covariance(c)
    n, diagonal = c.shape[0], c.diagonal().copy()
    try:
        try:
            factor = cho_factor(c.T, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            _mirror_upper(c, diagonal)
            jitter = 1e-12 * np.trace(c) / n
            np.fill_diagonal(c, diagonal + jitter)
            try:
                factor = cho_factor(c.T, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance("covariance not positive definite") from exc
        y = cho_solve(factor, np.ones(n), check_finite=False)
    finally:
        _mirror_upper(c, diagonal)
    total = y.sum()
    if total <= 0:
        raise SingularCovariance("inverse-covariance row sums are not positive")
    return y / total


class MLWindow:
    """The family `dist` and the window [lo, hi] that `mle_grid` searches,
    with the family's (p, p') at the window's two ends and its midpoint,
    where every search starts, evaluated once. A plan builds one and hands it
    to every trial, as it does an `OutcomeSampler`."""

    def __init__(self, dist: ParamDistribution, lo: float, hi: float):
        self.dist = dist
        self.lo, self.hi = float(lo), float(hi)
        self.mid = 0.5 * (self.lo + self.hi)
        self.fixed = tuple(self.at(g) for g in (self.lo, self.hi, self.mid))

    def at(self, g: float) -> tuple[np.ndarray, np.ndarray]:
        return self.dist.probabilities(g), self.dist.derivative(g)


def mle_grid(counts: np.ndarray, window: MLWindow) -> float:
    """Maximum likelihood of the window's family in the window, from the
    outcome counts n_k of a trial over the family's nodes.

    The maximiser is the down-crossing of the analytic score
    S(g) = sum_k n_k p'_k / p_k, with p'/p read as 0 where p is below 1e-300:
    Fisher scoring (step S / sum_k n_k (p'_k / p_k)^2) kept by bisection in a
    bracket with S(lo) > 0 > S(hi), stopped when a step falls below 1e-6 of
    the window's sd, (hi - lo) / 16. A trial costs O(K) in the K nodes, not
    O(nu) in its draws.
    """
    lo, hi = window.lo, window.hi
    tol = 1e-6 * (hi - lo) / 16
    at_lo, at_hi, at_mid = window.fixed

    def score(p, dp) -> tuple[float, float]:
        r = np.divide(dp, p, out=np.zeros_like(p), where=p > 1e-300)
        return float(counts @ r), float(counts @ (r * r))

    if not (score(*at_lo)[0] > 0 > score(*at_hi)[0]):
        raise BoundaryMaximum("the score has no down-crossing inside the window")
    # the family is evaluated only past the midpoint
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


# samples a noise plan scans at once: 2 normals each, 256 KiB a block
_NOISE_BLOCK = 16384


@dataclass(frozen=True)
class ExperimentPlan:
    """Replicated sampling experiment.

    scheme: a scheme spec from `wvlab.schemes`, whose g is the value the plan
    estimates; or None for a bare noise-model experiment measuring
    `true_value` (0 if not given) directly. A plan with a scheme refuses a
    `true_value`, which it would not read. noise: optional
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
    true_value: float | None = None

    def __post_init__(self):
        for name in ("nu", "trials", "seed"):
            check_integer(name, getattr(self, name))
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if self.trials < 3:
            raise ValueError("trials must be >= 3, the jackknife's minimum")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.estimator not in ("amr", "mle_correlated", "mle_grid"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.scheme is not None and self.true_value is not None:
            raise ValueError("true_value is read only without a scheme; a scheme's g is the truth")
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
        return 1.0, plan.true_value or 0.0, plan.noise
    if not isinstance(plan.scheme, StandardSpec):
        raise ValueError("noise plans support scheme=None or StandardSpec")
    pre, post = plan.scheme.states()
    calibration = weak_value(pre, post, SIGMA_Z).real
    if abs(calibration) < 1e-9:
        raise ValueError("noise plans need a real-weak-value scheme")
    p_f = abs(np.vdot(post.amplitudes, pre.amplitudes)) ** 2
    return calibration, plan.scheme.g, plan.noise.thinned(p_f)


def trial_samples(plan: ExperimentPlan, trial: int = 0) -> np.ndarray:
    """The nu results that trial `trial` of `run_experiment(plan)` estimates
    from: truth * calibration plus the thinned model's noise sequence for a
    noise plan, else the trial's outcome counts spelt out as node values in
    uniformly random order, shuffled by the stream that drew them."""
    if plan.noise is not None:
        calibration, truth, model = _noise_setup(plan)
        return truth * calibration + correlated_noise_samples(model, plan.seed, trial)
    family, g_true = plan.scheme.outcome_family()
    sampler, rng = OutcomeSampler(family, g_true), substream(plan.seed, trial)
    draws = np.repeat(sampler.values, sampler.counts(rng, plan.nu))
    rng.shuffle(draws)
    return draws


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
        # trials are drawn row by row, each from its own stream, and scanned
        # a block at a time; each row's estimate is formed on its own, so
        # every estimate is bitwise that of its trial alone
        rows = max(1, _NOISE_BLOCK // plan.nu)
        for first in range(0, plan.trials, rows):
            normals = np.empty((min(rows, plan.trials - first), 2 * plan.nu))
            for t, row in enumerate(normals, first):
                substream(plan.seed, t).standard_normal(out=row)
            block = truth * calibration + engine.sample(normals)
            for t, s in enumerate(block, first):
                if plan.estimator == "amr":
                    estimates[t] = amr_estimate(s, calibration)
                else:
                    estimates[t] = float(weights @ s) / calibration
    else:
        family, g_true = plan.scheme.outcome_family()
        fisher_single = classical_fisher(family, g_true)
        fisher_total = plan.nu * fisher_single
        sampler = OutcomeSampler(family, g_true)  # one evaluation for every trial
        if plan.estimator == "amr":
            # calibration: linear response of the outcome mean, sum_x x dp/dg
            values, dp = sampler.values, family.derivative(g_true)
            slope = float(np.sum(values * dp)) * family.spacing
            m0 = family.mean_std(g_true)[0]
            for t in range(plan.trials):
                mean = float(sample(sampler, plan.nu, plan.seed, t) @ values) / plan.nu
                estimates[t] = g_true + (mean - m0) / slope
        else:
            sd = 1.0 / math.sqrt(max(fisher_total, 1e-300))
            window = MLWindow(family, g_true - 8 * sd, g_true + 8 * sd)
            for t in range(plan.trials):
                estimates[t] = mle_grid(sample(sampler, plan.nu, plan.seed, t), window)

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
