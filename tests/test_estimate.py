import math
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import mle_correlated, numeric_family
from wvlab.errors import (
    BoundaryMaximum,
    InvalidCovariance,
    RegimeViolationWarning,
    SingularCovariance,
)
from wvlab.estimate import (
    ExperimentPlan,
    MLWindow,
    OutcomeSampler,
    _noise_setup,
    amr_estimate,
    correlated_noise_samples,
    mle_grid,
    mle_weights,
    run_experiment,
    sample,
    substream,
    trial_samples,
)
from wvlab.infometrics import Conditioning, ParamDistribution, classical_fisher
from wvlab.noise import CorrelatedNoiseModel, StateSpaceNoise, cm_fisher_correlated, covariance
from wvlab.meter import FockMeter, GaussianMeter
from wvlab.qsys import SIGMA_Z
from wvlab.schemes import (
    BiasedSpec,
    EntangledSpec,
    InverseSpec,
    JointWMSpec,
    PhaseSpaceSpec,
    StandardSpec,
)


def gaussian_family(sigma=1.0):
    grid = np.linspace(-10, 10, 4001)

    def density(g):
        return np.exp(-((grid - g) ** 2) / (2 * sigma**2)) / math.sqrt(
            2 * np.pi * sigma**2
        )

    def derivative(g):
        return (grid - g) / sigma**2 * density(g)

    return ParamDistribution(density, grid=grid, derivative=derivative)


def _scan_mle(counts, dist, g_grid):
    """Oracle for `mle_grid`: grid maximum-likelihood of a trial's outcome
    counts over the family's nodes, with three-point parabolic refinement,
    one family evaluation per grid point."""
    g_grid = np.asarray(g_grid, dtype=float)
    loglik = np.array([counts @ np.log(np.clip(dist.probabilities(g), 1e-300, None))
                       for g in g_grid])
    k = int(np.argmax(loglik))
    if k == 0 or k == g_grid.size - 1:
        raise BoundaryMaximum("likelihood maximum on the grid edge")
    y0, y1, y2 = loglik[k - 1], loglik[k], loglik[k + 1]
    denom = y0 - 2 * y1 + y2
    offset = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    step = g_grid[k] - g_grid[k - 1]
    return float(g_grid[k] + offset * step)


def _tally(samples, values):
    """How often each node value occurs among the samples, whatever order the
    values are in."""
    order = np.argsort(values, kind="stable")
    idx = order[np.searchsorted(values[order], samples)]
    assert np.array_equal(values[idx], samples)
    return np.bincount(idx, minlength=values.size)


def coarse_axis(sigma, g, points):
    """A `readout_axis` [-span, span), span = 16 sigma + 8 |g|, of `points`
    points."""
    span = 16 * sigma + 8 * abs(g)
    return np.linspace(-span, span, points, endpoint=False)


@dataclass(frozen=True)
class CoarseStandard:
    """`spec`'s +Q readout family on a 256-point readout axis, which keeps the
    oracle scans cheap: the spec's own 4096-point axis more than doubles
    their time."""

    spec: StandardSpec

    def outcome_family(self) -> tuple[ParamDistribution, float]:
        spec = self.spec
        pre, post = spec.states()
        assert spec.readout()[1] == 0.0
        axis = coarse_axis(spec.sigma, spec.g, 256)
        weights = np.full(axis.size, axis[1] - axis[0])
        meter = GaussianMeter(spec.sigma)
        return Conditioning.of(pre, post, SIGMA_Z, axis, weights, meter).family(axis), spec.g


# (spec, nu) of the oracle sweep: a continuous family and two discrete ones
# with descending labels, [1, 0] and [1, -1]
ORACLE_CASES = {
    "standard": (CoarseStandard(StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05)), 2000),
    "phase_space": (PhaseSpaceSpec(g=1e-3, epsilon=0.1, meter=FockMeter.coherent(10)), 10_000),
    "entangled": (EntangledSpec(phi=0.01, epsilon=0.05, n=4), 10_000),
}


@lru_cache(maxsize=None)
def _oracle_case(name):
    """(family, truth, nu, sd) with sd the CRB standard deviation at nu,
    whose +-8 sd window `run_experiment` hands to `mle_grid`."""
    spec, nu = ORACLE_CASES[name]
    family, g = spec.outcome_family()
    return family, g, nu, 1.0 / math.sqrt(nu * classical_fisher(family, g))


def _noise_plans(name, scheme, n=2000, trials=4):
    """amr and mle_correlated plans on one slow-noise model of n samples,
    measured directly or through a p_f = 0.05 post-selection that keeps 100
    of 2000 samples."""
    model = CorrelatedNoiseModel(a=0.5, c=1.0, dt=1.0, tau_c=200.0, n=n)
    nu = model.n if scheme is None else model.thinned(0.05).n
    truth = 0.2 if scheme is None else None  # a scheme's truth is its g
    return {f"{name}_{e}": ExperimentPlan(scheme, nu, trials, 7, e, noise=model, true_value=truth)
            for e in ("amr", "mle_correlated")}


# one plan of each kind: both estimators on a density, amr and mle_grid on
# discrete families, and both noise estimators with and without a scheme
TRIAL_PLANS = {
    "standard_amr": ExperimentPlan(ORACLE_CASES["standard"][0], 2000, 4, 7, "amr"),
    "standard_mle_grid": ExperimentPlan(ORACLE_CASES["standard"][0], 2000, 4, 7, "mle_grid"),
    "phase_space_amr": ExperimentPlan(ORACLE_CASES["phase_space"][0], 10_000, 4, 7, "amr"),
    "entangled_mle_grid": ExperimentPlan(ORACLE_CASES["entangled"][0], 10_000, 4, 7, "mle_grid"),
    **_noise_plans("noise", None),
    **_noise_plans("noise_standard",
                   StandardSpec(g=1e-3, sigma=1.0, epsilon=2 * math.asin(math.sqrt(0.05)))),
    # noise trials are scanned in blocks of 16384 // N rows: 16 rows of
    # N = 1001, each at another offset, then 4; and one row of N = 16384
    **_noise_plans("noise_partial_block", None, n=1001, trials=20),
    **_noise_plans("noise_row_blocks", None, n=16384, trials=3),
}


def _trial_estimate(plan, samples):
    """The plan's estimate from one trial's data, formed as `run_experiment`
    forms it; an outcome family's samples enter through their tally."""
    if plan.noise is not None:
        calibration, _, model = _noise_setup(plan)
        if plan.estimator == "amr":
            return amr_estimate(samples, calibration)
        return float(StateSpaceNoise(model).gls_weights() @ samples) / calibration
    family, g = plan.scheme.outcome_family()
    values = family.outcome_values()
    counts = _tally(samples, values)
    if plan.estimator == "mle_grid":
        sd = 1.0 / math.sqrt(plan.nu * classical_fisher(family, g))
        return mle_grid(counts, MLWindow(family, g - 8 * sd, g + 8 * sd))
    mean = float(counts @ values) / plan.nu
    slope = float(np.sum(values * family.derivative(g))) * family.spacing
    return g + (mean - family.mean_std(g)[0]) / slope


def _per_call_sample(dist, nu, seed, trial, g):
    """Oracle for `sample`: the family evaluated on every call, and one
    multinomial over its nodes with probabilities p dx / sum p dx (the
    uniform dx cancels)."""
    p = dist.probabilities(g)
    return substream(seed, trial).multinomial(nu, p / p.sum())


@dataclass(frozen=True)
class _Table:
    """A scheme whose outcome family is the discrete table p over the labels
    0..k-1, at g = 0."""

    p: tuple

    def outcome_family(self):
        p = np.array(self.p)
        return numeric_family(lambda g: p, labels=np.arange(p.size)), 0.0


def _random_table(seed, k):
    """(p, its sampler, a scheme of it): a random table over the labels
    0..k-1 with some exact zeros."""
    rng = np.random.default_rng(seed)
    p = (rng.exponential(size=k) + 0.05) * (rng.random(k) > 0.2)
    p[rng.integers(k)] += 0.1
    p /= p.sum()
    scheme = _Table(tuple(p))
    return p, OutcomeSampler(*scheme.outcome_family()), scheme


# the readout densities of the standard scheme at g = 0.0025, sigma = 1: the
# real weak value's Q axis (dx = 0.0078), and the imaginary one's P axis, the
# FFT dual of the Q axis (dx = 0.196 against a momentum sd of 0.5)
DENSITY_SPECS = {
    "standard_q": StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05),
    "standard_p": StandardSpec(g=0.0025, sigma=1.0, phi=0.05),
}


@lru_cache(maxsize=None)
def _density_sampler(name):
    return OutcomeSampler(*DENSITY_SPECS[name].outcome_family())


def _assert_multinomial(n, p, nu, trials):
    """n (trials x k) against multinomial(nu, p): over the trials, each
    outcome's total is binomial(trials nu, p_k), and each entry of the
    centred product (n - nu p)(n - nu p)^T averages to nu (diag p - p p^T)
    with the exact variance from the multinomial's fourth moments. Each
    nonzero nu p_k should be about 10 or more, so these averages are close to
    Gaussian."""
    k = p.size
    assert np.all(n.sum(axis=1) == nu) and np.all(n[:, p == 0] == 0)
    mu = nu * p
    assert np.all(np.abs(n.sum(axis=0) - trials * mu) <= 5 * np.sqrt(trials * mu * (1 - p)))
    c = np.diag(p) - np.outer(p, p)  # covariance of one draw
    y2 = (np.eye(k) - p) ** 2  # (delta_ij - p_j)^2 for the draw i
    fourth = y2.T @ (p[:, None] * y2)  # E[Y_j^2 Y_k^2] of one centred draw
    second = nu * fourth + nu * (nu - 1.0) * (np.outer(np.diag(c), np.diag(c)) + 2 * c**2)
    var_z = np.maximum(second - (nu * c) ** 2, 0.0)
    d = n - mu
    assert np.all(np.abs(d.T @ d / trials - nu * c) <= 5 * np.sqrt(var_z / trials) + 1e-9 * nu)


SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130]
TRIAL_EDGES = [0, 255, 256, 2**32 - 1, 2**32]


def _reference_stream(seed, trial):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, trial])))


class TestSubstream:
    @settings(max_examples=100)
    @given(
        seed=st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**130),
                       st.integers(0, 2**63 - 1).map(np.int64)),
        trial=st.one_of(st.sampled_from(TRIAL_EDGES), st.integers(0, 2**40)),
    )
    def test_key_and_draws_are_the_seed_sequence_streams(self, seed, trial):
        # the keys mixed 256 trials at a time are numpy's SeedSequence keys,
        # and the stream draws what numpy's reference generator draws
        key = np.random.SeedSequence([seed, trial]).generate_state(2, np.uint64)
        rng, reference = substream(seed, trial), _reference_stream(seed, trial)
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(2, np.uint64), key)
        assert np.array_equal(rng.bit_generator.state["state"]["key"], key)
        assert rng.standard_normal(9).tobytes() == reference.standard_normal(9).tobytes()
        p = [0.1, 0.2, 0.3, 0.4]
        assert np.array_equal(rng.multinomial(1000, p), reference.multinomial(1000, p))

    def test_keys_hold_across_blocks_and_seeds(self):
        # one block of keys is kept at a time: stepping over a block's edge,
        # to another seed and back reads numpy's key every time
        for seed, trial in [(1, 254), (1, 255), (1, 256), (2, 256), (1, 256), (1, 0),
                            (np.int64(1), 255), (2**32, 2**32 - 1), (2**32, 2**32)]:
            key = np.random.SeedSequence([seed, trial]).generate_state(2, np.uint64)
            assert np.array_equal(substream(seed, trial).bit_generator.state["state"]["key"], key)

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-(2**40), 3)])
    def test_a_negative_seed_or_trial_is_refused(self, seed, trial):
        with pytest.raises(ValueError):
            np.random.SeedSequence([seed, trial])
        with pytest.raises(ValueError):
            substream(seed, trial)


class TestSampling:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_sample_is_the_built_sampler_and_the_per_call_formula(self, name):
        family, g, nu, _ = _oracle_case(name)
        sampler = OutcomeSampler(family, g)
        for trial in (0, 7):
            counts = sample(sampler, nu, 5, trial).tobytes()
            assert counts == sampler.counts(substream(5, trial), nu).tobytes()
            assert counts == _per_call_sample(family, nu, 5, trial, g).tobytes()

    def test_gaussian_law_of_large_numbers(self):
        fam = gaussian_family()
        counts = sample(OutcomeSampler(fam, 0.4), 10**5, seed=1)
        se = 1.0 / math.sqrt(10**5)
        assert abs(counts @ fam.grid / 10**5 - 0.4) < 5 * se

    def test_same_seed_same_sequence(self):
        sampler = OutcomeSampler(gaussian_family(), 0.0)
        a = sample(sampler, 1000, seed=9, trial=3)
        b = sample(sampler, 1000, seed=9, trial=3)
        assert np.array_equal(a, b)
        c = sample(sampler, 1000, seed=9, trial=4)
        assert not np.array_equal(a, c)

    def test_discrete_binomial_interval(self):
        dist = numeric_family(lambda g: np.array([0.3, 0.7]), labels=np.array([1.0, 0.0]))
        nu = 50000
        freq = sample(OutcomeSampler(dist, 0.0), nu, seed=4)[0] / nu
        # exact binomial 5-sigma interval around p = 0.3
        half = 5 * math.sqrt(0.3 * 0.7 / nu)
        assert 0.3 - half <= freq <= 0.3 + half

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 50), log_nu=st.floats(4.0, 9.0),
           table=st.sampled_from(["random", *DENSITY_SPECS]))
    def test_counts_have_the_multinomial_mean_and_covariance(self, seed, k, log_nu, table):
        # a random table with some exact zeros, or a standard readout density
        # over its 4096 grid nodes with probabilities p dx. A density's counts
        # are checked on up to k random nodes with nu p >= 10 and the lump of
        # the others, which keeps one such node too: the marginal of a
        # multinomial on a partition of its outcomes is the multinomial of the
        # parts' probabilities
        nu, trials = int(10**log_nu), 400
        if table == "random":
            p, sampler, _ = _random_table(seed, k)
        else:
            sampler = _density_sampler(table)
            p = sampler.probs
        n = np.array([sampler.counts(substream(seed, t), nu) for t in range(trials)])
        assert n.shape == (trials, p.size) and np.all(n[:, p == 0] == 0)
        if table != "random":
            rng = np.random.default_rng(seed)
            support = np.flatnonzero(nu * p >= 10)
            keep = rng.choice(support, size=min(k, support.size - 1), replace=False)
            n = np.column_stack([n[:, keep], nu - n[:, keep].sum(axis=1)])
            p = np.append(p[keep], max(1.0 - p[keep].sum(), 0.0))
        _assert_multinomial(n, p, nu, trials)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 50), nu=st.integers(1, 20_000),
           trial=st.integers(0, 10**4), table=st.sampled_from(["random", *DENSITY_SPECS]))
    def test_draws_tally_to_the_counts_of_their_stream(self, seed, k, nu, trial, table):
        # the single draws that `trial_samples` spells out and the counts of
        # `sample` read one multinomial per (seed, trial): the tally is the
        # counts, exactly, every draw is a node value, and an outcome of
        # probability 0 never occurs
        if table == "random":
            p, sampler, scheme = _random_table(seed, k)
        else:
            sampler, scheme = _density_sampler(table), DENSITY_SPECS[table]
            p = sampler.probs
        draws = trial_samples(ExperimentPlan(scheme, nu, 3, seed), trial)
        tally = _tally(draws, sampler.values)
        assert draws.size == nu
        assert np.array_equal(tally, sample(sampler, nu, seed, trial))
        assert np.all(tally[p == 0] == 0)


class TestEstimators:
    def test_amr(self):
        assert amr_estimate(np.array([2.0, 4.0]), 3.0) == pytest.approx(1.0)

    def test_mle_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = CorrelatedNoiseModel(
                a=rng.uniform(0.3, 2),
                c=rng.uniform(0, 2),
                dt=1.0,
                tau_c=rng.uniform(0.01, 1000),
                n=int(rng.integers(2, 200)),
            )
            w = mle_weights(covariance(model))
            assert abs(w.sum() - 1.0) < 1e-12

    def test_white_noise_bitwise_equality(self):
        model = CorrelatedNoiseModel(a=1.0, c=0.5, dt=1.0, tau_c=1e-4, n=500)
        samples = correlated_noise_samples(model, seed=8) + 0.2
        assert mle_correlated(samples, covariance(model)) == amr_estimate(samples, 1.0)

    def test_exchangeable_weights_uniform(self):
        # constant-plus-floor covariance is exchangeable: uniform weights
        n = 40
        c = 0.5 * np.ones((n, n)) + np.eye(n)
        w = mle_weights(c)
        assert np.allclose(w, 1 / n, atol=1e-12)

    def test_slow_noise_mle_beats_amr(self):
        model = CorrelatedNoiseModel(a=0.05, c=1.0, dt=1.0, tau_c=100.0, n=400)
        c = covariance(model)
        w = mle_weights(c)
        var_mle = float(w @ c @ w)
        var_amr = float(np.mean(c))
        assert var_mle < var_amr
        assert var_mle == pytest.approx(1 / cm_fisher_correlated(model), rel=1e-10)

    def test_mle_grid_matches_sample_mean(self):
        fam = gaussian_family()
        counts = sample(OutcomeSampler(fam, 0.25), 4000, seed=3)
        est = mle_grid(counts, MLWindow(fam, -0.5, 1.0))
        assert est == pytest.approx(counts @ fam.grid / 4000, abs=2e-3)

    @pytest.mark.parametrize(
        "spec",
        [
            PhaseSpaceSpec(g=1e-3, epsilon=0.1, meter=FockMeter.coherent(10)),
            EntangledSpec(phi=0.01, epsilon=0.05, n=4),
        ],
        ids=["phase_space", "entangled"],
    )
    def test_mle_grid_descending_labels(self, spec):
        # outcome labels [1, 0] and [1, -1]: each count must be scored with
        # its own outcome's probability
        rep = run_experiment(ExperimentPlan(spec, 10000, 20, 3, "mle_grid"))
        truth = spec.g if isinstance(spec, PhaseSpaceSpec) else spec.phi
        assert math.isfinite(rep.mean_estimate) and math.isfinite(rep.crb_ratio)
        assert abs(rep.mean_estimate - truth) <= 4.5 * math.sqrt(rep.crb / rep.trials)

    def test_mle_grid_boundary(self):
        fam = gaussian_family()
        counts = sample(OutcomeSampler(fam, 0.0), 100, seed=3)
        with pytest.raises(BoundaryMaximum):
            mle_grid(counts, MLWindow(fam, 1.0, 2.0))

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 10**4))
    def test_mle_grid_is_the_limit_of_the_scan(self, name, seed, trial):
        # the scan's parabolic error is O(step^2): 2.2e-4 sd at 101 points on
        # the phase-space family, 100x less at 1001
        family, g, nu, sd = _oracle_case(name)
        counts = sample(OutcomeSampler(family, g), nu, seed, trial)
        window = np.linspace(g - 8 * sd, g + 8 * sd, 101)
        est = mle_grid(counts, MLWindow(family, g - 8 * sd, g + 8 * sd))
        fine = _scan_mle(counts, family, np.linspace(g - 8 * sd, g + 8 * sd, 1001))
        assert abs(est - fine) <= 1e-5 * sd
        assert abs(est - _scan_mle(counts, family, window)) <= 1e-3 * sd

    @pytest.mark.parametrize("name", ["phase_space", "entangled", "standard"])
    def test_mle_grid_is_the_count_estimate_of_the_same_draws(self, name):
        # trial_samples() spells out the counts of its (seed, trial) stream,
        # so mle_grid of the draws' tally is the plan's count estimate of that
        # trial, bitwise
        family, g, nu, sd = _oracle_case(name)
        window = MLWindow(family, g - 8 * sd, g + 8 * sd)
        plan = ExperimentPlan(ORACLE_CASES[name][0], nu, 4, 9, "mle_grid")
        sampler = OutcomeSampler(family, g)
        estimates = []
        for trial in range(plan.trials):
            tally = _tally(trial_samples(plan, trial), family.outcome_values())
            estimates.append(mle_grid(tally, window))
            assert estimates[-1].hex() == mle_grid(sample(sampler, nu, 9, trial), window).hex()
        assert run_experiment(plan).mean_estimate.hex() == float(np.mean(estimates)).hex()

    def test_mle_grid_evaluation_count(self):
        family, g = StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05).outcome_family()
        sd = 1.0 / math.sqrt(10**4 * classical_fisher(family, g))
        sampler = OutcomeSampler(family, g)
        calls = Counter()
        for name in ("probabilities", "derivative"):
            def counted(x, fn=getattr(family, name), name=name):
                calls[name] += 1
                return fn(x)
            setattr(family, name, counted)
        for trial in range(3):
            counts = sample(sampler, 10**4, 101, trial)
            calls.clear()
            mle_grid(counts, MLWindow(family, g - 8 * sd, g + 8 * sd))
            assert 0 < calls["probabilities"] <= 12
            assert 0 < calls["derivative"] <= 12


def _copied_gls(c):
    """GLS weights from a Cholesky factor of a copy of c, as scipy factors a
    C-ordered matrix when it may not overwrite it."""
    from scipy.linalg import cho_factor, cho_solve

    y = cho_solve(cho_factor(c.copy()), np.ones(c.shape[0]))
    return y / y.sum()


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _random_spd(seed, n):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return (m + m.T) / 2 + n * np.eye(n)  # exactly symmetric: + commutes


# the tile edges of the in-place factor's check and restore sit at 128 and 256
DENSE_SIZES = (1, 2, 127, 128, 129, 255, 256, 257, 1000)
REGIMES = {"white": 1e-3, "slow_1": 10.0, "slow_2": 1e3}


class TestDenseGLS:
    """`mle_weights` factors the caller's matrix in place and puts it back."""

    @pytest.mark.parametrize("n", DENSE_SIZES)
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_weights_are_those_of_a_copied_factor(self, n, regime):
        c = covariance(CorrelatedNoiseModel(1.0, 1.0, 1.0, REGIMES[regime], n))
        before = c.copy()
        w = mle_weights(c)
        assert np.array_equal(_bits(w), _bits(_copied_gls(before)))
        assert np.array_equal(_bits(c), _bits(before))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_spd_matrices(self, seed):
        n = int(np.random.default_rng(seed).integers(3, 400))
        c = _random_spd(seed, n)
        before = c.copy()
        assert np.array_equal(_bits(mle_weights(c)), _bits(_copied_gls(before)))
        assert np.array_equal(_bits(c), _bits(before))

    @pytest.mark.parametrize("n", (3, 300))
    def test_jitter_retry_leaves_the_matrix_unchanged(self, n):
        # all-ones is singular: the retry factors C + 1e-12 tr(C)/N I
        c = np.ones((n, n))
        w = mle_weights(c)
        jittered = c + 1e-12 * np.trace(c) / n * np.eye(n)
        assert np.array_equal(_bits(w), _bits(_copied_gls(jittered)))
        assert np.array_equal(_bits(c), _bits(np.ones((n, n))))

    @pytest.mark.parametrize("n", (3, 300))
    def test_singular_covariance_leaves_the_matrix_unchanged(self, n):
        c = -np.eye(n)
        with pytest.raises(SingularCovariance):
            mle_weights(c)
        assert np.array_equal(_bits(c), _bits(-np.eye(n)))

    @pytest.mark.parametrize("layout", ["fortran", "strided", "read_only", "integer"])
    def test_other_layouts(self, layout):
        c = _random_spd(7, 300)
        if layout == "integer":
            c = np.rint(c)
        expected = mle_weights(c)
        if layout == "fortran":
            other = np.asfortranarray(c)
        elif layout == "strided":
            other = np.zeros((600, 600))[::2, ::2]
            other[...] = c
        elif layout == "read_only":
            other = c.copy()
            other.setflags(write=False)
        else:
            other = c.astype(np.int64)
        before = other.copy()
        w = mle_weights(other)
        assert np.array_equal(_bits(w), _bits(expected))
        assert other.dtype == before.dtype and other.tobytes() == before.tobytes()

    @pytest.mark.parametrize("c", [np.ones((3, 4)), np.ones(3), np.ones((1, 2, 2))],
                             ids=["3x4", "vector", "stack"])
    def test_rejects_a_non_square_matrix(self, c):
        with pytest.raises(InvalidCovariance, match="square"):
            mle_weights(c)

    def test_rejects_a_complex_matrix(self):
        with pytest.raises(InvalidCovariance, match="real"):
            mle_weights(np.eye(3, dtype=complex))

    @pytest.mark.parametrize("entry", [(5, 5, np.nan), (299, 0, np.inf), (140, 3, -np.inf)])
    def test_rejects_a_non_finite_matrix(self, entry):
        i, j, value = entry
        c = _random_spd(3, 300)
        c[i, j] = c[j, i] = value
        with pytest.raises(InvalidCovariance, match="non-finite"):
            mle_weights(c)

    @pytest.mark.parametrize("entry", [(1, 0), (0, 1), (299, 200)])
    def test_rejects_an_asymmetric_matrix(self, entry):
        c = _random_spd(4, 300)
        c[entry] = np.nextafter(c[entry], np.inf)
        with pytest.raises(InvalidCovariance, match="symmetric"):
            mle_weights(c)

    def test_symmetry_is_bitwise(self):
        # -0.0 == 0.0, but restoring the lower triangle from the upper one
        # would flip the sign bit of the caller's entry
        c = np.eye(3)
        c[2, 1] = -0.0
        with pytest.raises(InvalidCovariance, match="symmetric"):
            mle_weights(c)

    def test_holds_no_copy_of_the_matrix(self):
        c = covariance(CorrelatedNoiseModel(1.0, 1.0, 1.0, REGIMES["slow_1"], 1500))
        mle_weights(c)  # warm: scipy imported, LAPACK routines looked up
        tracemalloc.start()
        try:
            mle_weights(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * c.nbytes


class TestMLWindow:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_plan_window_is_the_array_window_bitwise(self, name):
        # one window reused over trials gives each trial's estimate bitwise
        # as a window built for that trial alone
        family, g, nu, sd = _oracle_case(name)
        window = MLWindow(family, g - 8 * sd, g + 8 * sd)
        sampler = OutcomeSampler(family, g)
        for trial in range(4):
            counts = sample(sampler, nu, 21, trial)
            alone = MLWindow(family, g - 8 * sd, g + 8 * sd)
            assert mle_grid(counts, window).hex() == mle_grid(counts, alone).hex()


class TestRunExperiment:
    @pytest.mark.parametrize("name, search", [("standard", "mle_grid"), ("entangled", "mle_grid")])
    def test_ml_plan_evaluates_the_window_once(self, name, search, monkeypatch):
        # the window's ends and midpoint, where every search starts, are
        # evaluated once per plan, before its trials; a trial's search
        # evaluates the family only past the midpoint
        import wvlab.estimate as estimate_mod

        windows, calls, searching = [], [], []

        class Recorded(MLWindow):
            def __init__(self, *args):
                super().__init__(*args)
                windows.append(self)

        def searched(*args, fn=getattr(estimate_mod, search)):
            searching.append(True)
            try:
                return fn(*args)
            finally:
                searching.pop()

        def counted(self, g, fn=ParamDistribution.probabilities):
            calls.append((g, bool(searching)))
            return fn(self, g)

        monkeypatch.setattr(estimate_mod, "MLWindow", Recorded)
        monkeypatch.setattr(estimate_mod, search, searched)
        monkeypatch.setattr(ParamDistribution, "probabilities", counted)
        spec, nu = ORACLE_CASES[name]
        run_experiment(ExperimentPlan(spec, nu, 6, 3, "mle_grid"))
        (window,) = windows
        fixed = (window.lo, window.hi, window.mid)
        assert [g for g, inside in calls if inside and g in fixed] == []
        assert [g for g, _ in calls if g in fixed[:2]] == [window.lo, window.hi]
        assert any(inside for _, inside in calls)

    def test_one_family_evaluation_for_every_trial(self, monkeypatch):
        # the outcome table is built once per plan; each trial still goes
        # through `sample` once, which `perfbench/tracer.py` times per trial
        import wvlab.estimate as estimate_mod

        class Counted:
            evaluations = 0

            def outcome_family(self):
                family = gaussian_family()

                def evaluator(g, density=family.evaluator):
                    self.evaluations += 1
                    return density(g)

                family.evaluator = evaluator
                return family, 0.3

        samples = Counter()

        def counted_sample(sampler, *args, fn=estimate_mod.sample):
            samples[type(sampler).__name__] += 1
            return fn(sampler, *args)

        monkeypatch.setattr(estimate_mod, "sample", counted_sample)
        evaluations = []
        for trials in (5, 50):
            scheme = Counted()
            samples.clear()
            run_experiment(ExperimentPlan(scheme, 1000, trials, seed=2))
            evaluations.append(scheme.evaluations)
            assert samples == {"OutcomeSampler": trials}
        assert evaluations[0] == evaluations[1]

    @pytest.mark.parametrize("estimator", ["amr", "mle_grid"])
    def test_discrete_trial_is_one_count_draw(self, estimator, monkeypatch):
        # each trial takes one substream and draws its counts from it: one
        # sample() call, which returns the counts
        import wvlab.estimate as estimate_mod

        streams, draws = [], []

        def counted_substream(seed, trial=0, fn=estimate_mod.substream):
            streams.append((seed, trial))
            return fn(seed, trial)

        def counted_sample(sampler, nu, seed, trial, fn=estimate_mod.sample):
            draws.append(fn(sampler, nu, seed, trial))
            return draws[-1]

        monkeypatch.setattr(estimate_mod, "substream", counted_substream)
        monkeypatch.setattr(estimate_mod, "sample", counted_sample)
        spec, nu = ORACLE_CASES["entangled"]
        run_experiment(ExperimentPlan(spec, nu, 6, 4, estimator))
        assert streams == [(4, t) for t in range(6)]
        assert [d.shape for d in draws] == [(spec.outcome_family()[0].labels.size,)] * 6
        assert all(d.sum() == nu for d in draws)

    @pytest.mark.parametrize("name", ["phase_space", "entangled"])
    def test_discrete_amr_plan_at_a_billion_draws(self, name):
        # counts cost O(K) per trial whatever nu is; single outcomes at
        # nu = 10^9 would ask for gigabytes
        spec = ORACLE_CASES[name][0]
        plan = ExperimentPlan(spec, 10**9, 5, 12, "amr")
        start = time.perf_counter()
        rep = run_experiment(plan)
        assert time.perf_counter() - start < 1.0
        truth = spec.outcome_family()[1]
        assert abs(rep.mean_estimate - truth) <= 4.5 * math.sqrt(rep.crb / plan.trials)

    @pytest.mark.parametrize("name", list(TRIAL_PLANS))
    def test_trials_estimate_from_trial_samples(self, name):
        # trial_samples(plan, t) is the data trial t estimates from: the
        # plan's estimator on it gives the report's mean, bitwise
        plan = TRIAL_PLANS[name]
        data = [trial_samples(plan, t) for t in range(plan.trials)]
        assert all(d.shape == (plan.nu,) for d in data)
        estimates = [_trial_estimate(plan, d) for d in data]
        rep = run_experiment(plan)
        assert float(np.mean(estimates)).hex() == rep.mean_estimate.hex()
        assert float(np.var(estimates, ddof=1)).hex() == rep.empirical_variance.hex()

    def test_reproducible(self):
        plan = ExperimentPlan(
            scheme=StandardSpec(g=2e-3, sigma=1.0, epsilon=0.05),
            nu=500,
            trials=20,
            seed=77,
            estimator="amr",
        )
        a, b = run_experiment(plan), run_experiment(plan)
        assert a.to_dict() == b.to_dict()

    def test_amr_crb_saturation_gaussian_scheme(self):
        plan = ExperimentPlan(
            scheme=StandardSpec(g=2e-3, sigma=1.0, epsilon=0.05),
            nu=2000,
            trials=150,
            seed=5,
            estimator="amr",
        )
        rep = run_experiment(plan)
        assert abs(rep.crb_ratio - 1.0) <= 4 * rep.crb_ratio_se

    def test_amr_plan_on_the_p_readout_reads_the_node_law(self):
        # the imaginary standard scheme's P readout is coarse (dx = 0.196
        # against a momentum sd of 0.5), so the node law and a law between
        # the nodes differ: the amr crb_ratio Var F / slope^2 is 1.00504 on
        # the nodes the Fisher number sums over, and 1.0575 on the
        # piecewise-linear density between them. The plan samples the nodes
        spec = DENSITY_SPECS["standard_p"]
        family, g = spec.outcome_family()
        x, w = family.outcome_values(), family.probabilities(g) * family.spacing
        w = w / w.sum()
        sampler = OutcomeSampler(family, g)
        assert sampler.values is x and np.allclose(sampler.probs, w, rtol=1e-14, atol=0)
        variance = float(w @ x**2 - (w @ x) ** 2)
        slope = float(x @ family.derivative(g)) * family.spacing
        expected = variance * classical_fisher(family, g) / slope**2
        assert expected == pytest.approx(1.00504, abs=1e-5)
        rep = run_experiment(ExperimentPlan(spec, 10_000, 2000, 24, "amr"))
        assert abs(rep.crb_ratio - expected) <= 4.5 * rep.crb_ratio_se

    def test_zero_parameter_mean(self):
        # symmetric scheme at g ~ 0: mean estimate compatible with zero
        plan = ExperimentPlan(
            scheme=StandardSpec(g=1e-12, sigma=1.0, epsilon=0.5),
            nu=2000,
            trials=50,
            seed=21,
            estimator="amr",
        )
        rep = run_experiment(plan)
        se = math.sqrt(rep.empirical_variance / plan.trials)
        assert abs(rep.mean_estimate) < 5 * se + 1e-10

    def test_noise_experiment_mle_efficient(self):
        model = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=1000.0, n=500)
        plan = ExperimentPlan(
            scheme=None,
            nu=500,
            trials=200,
            seed=13,
            estimator="mle_correlated",
            noise=model,
            true_value=0.2,
        )
        rep = run_experiment(plan)
        assert abs(rep.crb_ratio - 1.0) <= 4 * rep.crb_ratio_se

    def test_plan_validation(self):
        model = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=10.0, n=100)
        with pytest.raises(ValueError):
            ExperimentPlan(
                scheme=None, nu=50, trials=5, seed=0, estimator="amr", noise=model
            )
        with pytest.raises(ValueError):
            ExperimentPlan(scheme=None, nu=10, trials=5, seed=0, estimator="bogus")
        # the jackknife needs 3 trials; numpy's seed sequence refuses a
        # negative seed
        spec = ORACLE_CASES["standard"][0]
        for trials, seed, message in ((1, 0, "trials"), (2, 0, "trials"), (5, -3, "seed")):
            with pytest.raises(ValueError, match=f"{message} must be >= "):
                ExperimentPlan(spec, 100, trials, seed)
        # a plan with a scheme estimates the scheme's g, so it refuses a
        # true value it would not read
        with pytest.raises(ValueError, match="true_value"):
            ExperimentPlan(spec, 100, 5, 0, true_value=0.7)
        # a bool or a non-integral nu, trials or seed is refused here, not
        # by numpy partway through a run; numpy integers are integers
        for nu, trials, seed, name in ((2.5, 5, 0, "nu"), (True, 5, 0, "nu"), (100, 5.5, 0, "trials"),
                                       (100, 5.0, 0, "trials"), (100, 5, 1.5, "seed"),
                                       (100, 5, False, "seed")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentPlan(spec, nu, trials, seed)
        plan = ExperimentPlan(spec, np.int32(100), np.int64(3), np.uint8(4))
        assert run_experiment(plan).to_dict() == run_experiment(ExperimentPlan(spec, 100, 3, 4)).to_dict()

    def test_amr_variance_saturates_under_slow_noise(self):
        # window well inside one correlation time: AMR variance stays pinned
        # near c no matter how many samples are averaged
        for n in (200, 800):
            model = CorrelatedNoiseModel(a=0.5, c=1.0, dt=1.0, tau_c=1e6, n=n)
            plan = ExperimentPlan(
                scheme=None, nu=n, trials=300, seed=31,
                estimator="amr", noise=model, true_value=0.0,
            )
            rep = run_experiment(plan)
            from wvlab.noise import amr_variance_exact

            expected = amr_variance_exact(model)
            assert expected == pytest.approx(1.0, rel=0.01)  # ~ c
            se = expected * math.sqrt(2 / (plan.trials - 1))
            assert rep.empirical_variance == pytest.approx(expected, abs=4 * se)

    def test_wva_with_slow_noise_beats_cm_averaging(self):
        # slow-2 regime: post-selection thins the sequence but the amplified
        # response mitigates the correlated offset by ~1/p_f
        n_in, p_f = 4000, 0.01
        eps = 2 * math.asin(math.sqrt(p_f))  # selection with p_f = sin^2(eps/2)
        spec = StandardSpec(g=1e-3, sigma=1.0, epsilon=eps)
        model = CorrelatedNoiseModel(a=0.1, c=1.0, dt=1.0, tau_c=1e6, n=n_in)
        kept = round(p_f * n_in)
        plan_wva = ExperimentPlan(
            scheme=spec, nu=kept, trials=250, seed=9,
            estimator="amr", noise=model,
        )
        rep_wva = run_experiment(plan_wva)
        # unbiased recovery of g through the weak-value calibration
        se = math.sqrt(rep_wva.empirical_variance / plan_wva.trials)
        assert rep_wva.mean_estimate == pytest.approx(spec.g, abs=5 * se)

        plan_cm = ExperimentPlan(
            scheme=None, nu=n_in, trials=250, seed=9,
            estimator="amr", noise=model, true_value=spec.g,
        )
        rep_cm = run_experiment(plan_cm)
        # variance advantage approaches 1/p_f in the fully correlated limit
        gain = rep_cm.empirical_variance / rep_wva.empirical_variance
        assert gain > 0.2 / p_f

    def test_amr_slope_is_the_analytic_mean_derivative(self):
        # the phase-space plan of the crb_plans benchmark: amr calibrates by
        # sum_x x dp/dg from the family's analytic derivative (a central
        # difference at h = 1e-6 read this slope 1.7e-5 low)
        spec = PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0))
        plan = ExperimentPlan(spec, 10_000, 3, 11, "amr")
        family, g = spec.selection().selection_family(), spec.g
        slope = float(np.sum(family.outcome_values() * family.derivative(g)))
        assert slope == pytest.approx(548.896, abs=1e-3)
        # the shift of each trial's mean, rebuilt from the outcome counts the
        # plan draws from substream(seed, t)
        m0, sampler = family.mean_std(g)[0], OutcomeSampler(family, g)
        shift = np.mean([sampler.counts(substream(plan.seed, t), plan.nu) @ family.outcome_values()
                         / plan.nu - m0 for t in range(plan.trials)])
        implied = shift / (run_experiment(plan).mean_estimate - g)
        assert implied == pytest.approx(slope, rel=1e-12)

    def test_phase_space_selection_statistics_reach_heisenberg_crb(self):
        # estimating g from the binary selection record alone: the empirical
        # variance tracks 1/(nu F_p) with F_p ~ N^2
        from wvlab.meter import FockMeter
        from wvlab.schemes import PhaseSpaceSpec

        nbar = 400.0
        spec = PhaseSpaceSpec(
            g=1e-4, epsilon=0.3, meter=FockMeter.coherent(math.sqrt(nbar))
        )
        plan = ExperimentPlan(
            scheme=spec, nu=3000, trials=120, seed=6, estimator="amr"
        )
        rep = run_experiment(plan)
        assert abs(rep.crb_ratio - 1.0) <= 4 * rep.crb_ratio_se
        # the per-draw information indeed scales like N^2
        assert rep.fisher_total / plan.nu == pytest.approx(nbar**2, rel=0.25)


# each spec with a pure selection, and what its scheme report reads off the
# same family at the true value: (the probabilities, the family's Fisher number)
SPEC_FAMILIES = {
    "standard": (StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05),
                 lambda r: (r.table["density"], r.extras["fisher_conditioned"])),
    "phase_space": (PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(10.0)),
                    lambda r: (np.array([r.p_f, 1 - r.p_f]), r.fisher)),
    "entangled": (EntangledSpec(phi=0.01, epsilon=0.05, n=4),
                  lambda r: (r.table["probability"], r.fisher / r.p_f)),
}


# each scheme on the conditioning kernels and its kernel builds per run.
# standard: the readout density at g and the two arms;
# inverse: the Q and P readout densities at the angle, two kernels each (<f|
# and d<f|/dangle); joint WM: its two detectors' arms at g = tau/2; the
# others: their arms at g alone
SCHEME_BUILDS = {
    "standard": (StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05), 3),
    # the Q and P readouts, <f| and d<f|/dangle each; p_f is read off them
    "inverse": (InverseSpec(g=0.1, sigma=1.0, theta_angle=0.01), 4),
    "phase_space": (PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0)), 2),
    "entangled": (EntangledSpec(phi=0.01, epsilon=0.05, n=4), 1),
    "biased": (BiasedSpec(tau=1e-4, beta=0.0025, epsilon=0.05, omega0=20.0, delta_omega=2.0), 1),
    "joint_wm": (JointWMSpec(tau=0.05, phi=1.5, omega0=20.0, delta_omega=2.0), 2),
}


@pytest.fixture
def kernel_builds(monkeypatch):
    """The g of every `Conditioning.kernels` call made after it is set up."""
    from wvlab.infometrics import Conditioning

    build, built = Conditioning.kernels, []

    def kernels(self, g):
        built.append(g)
        return build(self, g)

    monkeypatch.setattr(Conditioning, "kernels", kernels)
    return built


class TestSpecFamilies:
    @pytest.mark.parametrize("name", SPEC_FAMILIES)
    def test_family_is_the_scheme_family_bitwise(self, name):
        spec, read = SPEC_FAMILIES[name]
        family, g = spec.outcome_family()
        probabilities, fisher = read(spec.run())
        assert family.probabilities(g).tobytes() == probabilities.tobytes()
        # the derivative, through the Fisher number (phase space: F_p off the rarer arm)
        assert classical_fisher(family, g) == pytest.approx(fisher, rel=1e-12)

    @pytest.mark.parametrize("name", SPEC_FAMILIES)
    def test_family_builds_no_kernels_and_no_report(self, name, kernel_builds, monkeypatch):
        import wvlab.schemes as schemes_mod

        def refuse(*args):
            raise AssertionError("a report quantity was computed")

        for report_fn in ("_arms", "_arm_budget", "qfi_joint", "_fisher", "classical_fisher"):
            monkeypatch.setattr(schemes_mod, report_fn, refuse)
        SPEC_FAMILIES[name][0].outcome_family()
        assert kernel_builds == []

    @pytest.mark.parametrize("name", SCHEME_BUILDS)
    def test_scheme_builds_each_arm_once(self, name, kernel_builds):
        # p_f, the budget and the Fisher numbers are read off the arms'
        # kernels at g, each built once; the rest are readout densities
        spec, builds = SCHEME_BUILDS[name]
        spec.run()
        assert len(kernel_builds) == builds

    @pytest.mark.parametrize("name", ["standard", "phase_space", "entangled"])
    def test_amr_plan_builds_kernels_once(self, name, kernel_builds):
        # the amr plans of perfbench's crb_plans, nu = 10^4, 200 trials: the
        # Fisher number, the sampler, the slope and the mean read one build
        spec = SCHEME_BUILDS[name][0]
        run_experiment(ExperimentPlan(spec, 10_000, 200, 5, "amr"))
        assert len(kernel_builds) == 1

    def test_plan_warns_outside_the_regime_like_the_scheme(self):
        # an AAV margin >= 1 warns from StandardSpec.readout, which both the
        # scheme and the Monte Carlo plan's family go through
        spec = StandardSpec(g=0.3, sigma=1.0, epsilon=0.005)
        with pytest.warns(RegimeViolationWarning) as scheme_warnings:
            spec.run()
        with pytest.warns(RegimeViolationWarning) as plan_warnings:
            run_experiment(ExperimentPlan(spec, 100, 3, 1, "amr"))
        assert [str(w.message) for w in plan_warnings] == [str(w.message) for w in scheme_warnings]
