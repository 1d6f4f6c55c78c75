import math
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import numeric_family
from wvlab.errors import BoundaryMaximum, RegimeViolationWarning
from wvlab.estimate import (
    AliasSampler,
    Bracket,
    ExperimentPlan,
    MLWindow,
    OutcomeSampler,
    amr_estimate,
    correlated_noise_samples,
    mle_correlated,
    mle_counts,
    mle_grid,
    mle_weights,
    run_experiment,
    sample,
    substream,
)
from wvlab.infometrics import ParamDistribution, classical_fisher, readout_axis
from wvlab.noise import CorrelatedNoiseModel, cm_fisher_correlated, covariance
from wvlab.meter import FockMeter
from wvlab.schemes import BiasedSpec, EntangledSpec, InverseSpec, PhaseSpaceSpec, StandardSpec


def gaussian_family(sigma=1.0):
    grid = np.linspace(-10, 10, 4001)

    def density(g):
        return np.exp(-((grid - g) ** 2) / (2 * sigma**2)) / math.sqrt(
            2 * np.pi * sigma**2
        )

    def derivative(g):
        return (grid - g) / sigma**2 * density(g)

    return ParamDistribution("continuous", density, grid=grid, derivative=derivative)


def _scan_mle(samples, dist, g_grid):
    """Oracle for `mle_grid`: grid maximum-likelihood with three-point
    parabolic refinement, one family evaluation per grid point."""
    g_grid = np.asarray(g_grid, dtype=float)
    if dist.kind == "discrete":
        # each sample's outcome index, whatever order the labels are in
        labels = dist.outcome_values()
        order = np.argsort(labels, kind="stable")
        pos = np.searchsorted(labels[order], samples)
        idx = order[np.clip(pos, 0, labels.size - 1)]
    loglik = np.empty(g_grid.size)
    for i, g in enumerate(g_grid):
        p = dist.probabilities(g)
        if dist.kind == "continuous":
            vals = np.interp(samples, dist.grid, p)
        else:
            vals = p[idx]
        loglik[i] = np.sum(np.log(np.clip(vals, 1e-300, None)))
    k = int(np.argmax(loglik))
    if k == 0 or k == g_grid.size - 1:
        raise BoundaryMaximum("likelihood maximum on the grid edge")
    y0, y1, y2 = loglik[k - 1], loglik[k], loglik[k + 1]
    denom = y0 - 2 * y1 + y2
    offset = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    step = g_grid[k] - g_grid[k - 1]
    return float(g_grid[k] + offset * step)


# (spec, nu) of the oracle sweep: a continuous family and two discrete ones
# with descending labels, [1, 0] and [1, -1]
ORACLE_CASES = {
    "standard": (StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05, points=256), 2000),
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


def _per_call_sample(dist, nu, seed, trial, g):
    """Oracle for `sample`: the family evaluated and its table built on every
    call, drawn by np.interp on the unsorted uniforms."""
    rng = substream(seed, trial)
    probs = dist.probabilities(g)
    if dist.kind == "discrete":
        return dist.outcome_values()[AliasSampler(probs).draw(rng, nu)]
    inc = 0.5 * (probs[1:] + probs[:-1]) * dist.spacing
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    return np.interp(rng.random(nu), cdf / cdf[-1], dist.grid)


class _Uniforms:
    """Stands in for a generator whose `random` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, nu):
        assert nu == self.u.size
        return self.u.copy()


class TestSampling:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(16, 600),
           nu=st.integers(1, 3000))
    def test_sorted_draw_is_the_unsorted_interp(self, seed, points, nu):
        # zero runs of the density at both ends and in the middle, with mass
        # on either side of the middle one, give the CDF flat stretches at 0,
        # at 1 and between; a fifth of the uniforms sit exactly on CDF values
        rng = np.random.default_rng(seed)
        grid = np.linspace(-1.0, 1.0, points)
        p = rng.exponential(size=points)
        head, tail, run = rng.integers(2, points // 4 + 1, size=3)
        start = rng.integers(head + 1, points - tail - run)
        p[:head] = p[points - tail:] = p[start:start + run] = 0.0
        p /= p.sum() * (grid[1] - grid[0])
        sampler = OutcomeSampler(numeric_family("continuous", lambda g: p, grid=grid), 0.0)
        cdf = sampler.cdf
        assert cdf[0] == cdf[1] == 0.0 and cdf[-2] == cdf[-1] == 1.0
        u = rng.random(nu)
        hit = rng.integers(0, nu, size=nu // 5 + 1)
        u[hit] = cdf[rng.integers(0, cdf.size, size=hit.size)]
        expected = np.interp(u, cdf, sampler.values)
        assert sampler.draw(_Uniforms(u), nu).tobytes() == expected.tobytes()

    def test_draw_past_a_subnormal_cdf_step_is_the_interp(self):
        # a density rising through subnormal values makes CDF steps below
        # 1e-308, so np.interp's slope dq / step overflows to inf: a uniform
        # on the step's left end reads the grid value there (not inf * 0), and
        # one inside the step reads inf, as np.interp does
        grid = np.linspace(-1.0, 1.0, 64)
        p = np.ones(grid.size)
        p[:10], p[10:13] = 0.0, [1e-320, 1e-315, 1e-310]
        p /= p.sum() * (grid[1] - grid[0])
        sampler = OutcomeSampler(numeric_family("continuous", lambda g: p, grid=grid), 0.0)
        cdf = sampler.cdf
        assert 0.0 < cdf[10] < 1e-308 and np.isinf(sampler.slope[9])
        u = np.concatenate([cdf, [5e-324, 0.5 * cdf[12], 0.5]])
        expected = np.interp(u, cdf, sampler.values)
        assert np.isinf(expected).any()
        assert sampler.draw(_Uniforms(u), u.size).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_sample_is_the_built_sampler_and_the_per_call_formula(self, name):
        family, g, nu, _ = _oracle_case(name)
        sampler = OutcomeSampler(family, g)
        for trial in (0, 7):
            draws = sample(family, nu, 5, trial, g).tobytes()
            assert draws == sample(sampler, nu, 5, trial).tobytes()
            assert draws == sampler.draw(substream(5, trial), nu).tobytes()
            assert draws == _per_call_sample(family, nu, 5, trial, g).tobytes()

    def test_gaussian_law_of_large_numbers(self):
        fam = gaussian_family()
        draws = sample(fam, 10**5, seed=1, g=0.4)
        se = 1.0 / math.sqrt(10**5)
        assert abs(np.mean(draws) - 0.4) < 5 * se

    def test_same_seed_same_sequence(self):
        fam = gaussian_family()
        a = sample(fam, 1000, seed=9, trial=3, g=0.0)
        b = sample(fam, 1000, seed=9, trial=3, g=0.0)
        assert np.array_equal(a, b)
        c = sample(fam, 1000, seed=9, trial=4, g=0.0)
        assert not np.array_equal(a, c)

    def test_discrete_binomial_interval(self):
        dist = numeric_family(
            "discrete", lambda g: np.array([0.3, 0.7]), labels=np.array([1.0, 0.0])
        )
        nu = 50000
        draws = sample(dist, nu, seed=4)
        freq = np.mean(draws)
        # exact binomial 5-sigma interval around p = 0.3
        half = 5 * math.sqrt(0.3 * 0.7 / nu)
        assert 0.3 - half <= freq <= 0.3 + half

    def test_alias_tables_reproduce_probabilities(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(17))
        sampler = AliasSampler(probs)
        draws = sampler.draw(substream(2, 0), 200000)
        freq = np.bincount(draws, minlength=17) / 200000
        assert np.max(np.abs(freq - probs)) < 0.01

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 50), log_nu=st.floats(4.0, 9.0))
    def test_counts_have_the_multinomial_mean_and_covariance(self, seed, k, log_nu):
        # a random table with some exact zeros; over the trials, each outcome's
        # total is binomial(trials nu, p_k), and each entry of the centred
        # product (n - nu p)(n - nu p)^T averages to nu (diag p - p p^T) with
        # the exact variance from the multinomial's fourth moments. Each
        # nonzero nu p_k is about 10 or more, so these averages are close to
        # Gaussian
        rng = np.random.default_rng(seed)
        p = (rng.exponential(size=k) + 0.05) * (rng.random(k) > 0.2)
        p[rng.integers(k)] += 0.1
        p /= p.sum()
        nu, trials = int(10**log_nu), 400
        sampler = OutcomeSampler(numeric_family("discrete", lambda g: p, labels=np.arange(k)), 0.0)
        n = np.array([sampler.counts(substream(seed, t), nu) for t in range(trials)])
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


def _keys(rng, table, m):
    """Keys around a table: m of its own values, their floating-point
    neighbours on both sides, and m uniforms over and past its range."""
    on = rng.choice(table, size=m)
    pad = 0.1 * max(table[-1] - table[0], 1.0)
    return np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                           rng.uniform(table[0] - pad, table[-1] + pad, size=m)])


class TestBracket:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), m=st.integers(1, 300),
           ties=st.sampled_from([0.0, 0.3, 1.0]))
    def test_is_searchsorted_on_monotone_tables(self, seed, n, m, ties):
        # steps of 0 (ties and flat runs, or a constant table), of 1e-12 (many
        # entries in one guide bucket), and of order 1 and 1e3
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-12, 1.0, 1e3], size=n, p=[0.3, 0.6, 0.1])
        steps = np.where(rng.random(n) < ties, 0.0, rng.exponential(size=n) * scale)
        table = rng.normal(scale=10.0) + np.cumsum(steps)
        x = _keys(rng, table, m)
        assert np.array_equal(Bracket(table)(x), np.searchsorted(table, x, side="right") - 1)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(1e-3, 1e3),
           g_over_sigma=st.floats(-5.0, 5.0), points=st.integers(256, 8192))
    def test_is_searchsorted_on_readout_axes(self, seed, sigma, g_over_sigma, points):
        # linspace grids are not exactly uniform: their points and the guide's
        # bucket edges disagree in the last bits
        grid = readout_axis(sigma, g_over_sigma * sigma, points)
        x = np.concatenate([_keys(np.random.default_rng(seed), grid, 2000),
                            0.5 * (grid[1:] + grid[:-1])])
        assert np.array_equal(Bracket(grid)(x), np.searchsorted(grid, x, side="right") - 1)


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
        draws = sample(fam, 4000, seed=3, g=0.25)
        grid = np.linspace(-0.5, 1.0, 301)
        est = mle_grid(draws, fam, grid)
        assert est == pytest.approx(np.mean(draws), abs=2e-3)

    @pytest.mark.parametrize(
        "spec",
        [
            PhaseSpaceSpec(g=1e-3, epsilon=0.1, meter=FockMeter.coherent(10)),
            EntangledSpec(phi=0.01, epsilon=0.05, n=4),
        ],
        ids=["phase_space", "entangled"],
    )
    def test_mle_grid_descending_labels(self, spec):
        # outcome labels [1, 0] and [1, -1]: each sample must be scored with
        # its own outcome's probability
        rep = run_experiment(ExperimentPlan(spec, 10000, 20, 3, "mle_grid"))
        truth = spec.g if isinstance(spec, PhaseSpaceSpec) else spec.phi
        assert math.isfinite(rep.mean_estimate) and math.isfinite(rep.crb_ratio)
        assert abs(rep.mean_estimate - truth) <= 4.5 * math.sqrt(rep.crb / rep.trials)

    def test_mle_grid_boundary(self):
        fam = gaussian_family()
        draws = sample(fam, 100, seed=3, g=0.0)
        with pytest.raises(BoundaryMaximum):
            mle_grid(draws, fam, np.linspace(1.0, 2.0, 11))

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 10**4))
    def test_mle_grid_is_the_limit_of_the_scan(self, name, seed, trial):
        # the scan's parabolic error is O(step^2): 2.2e-4 sd at 101 points on
        # the phase-space family, 100x less at 1001
        family, g, nu, sd = _oracle_case(name)
        draws = sample(family, nu, seed, trial, g)
        window = np.linspace(g - 8 * sd, g + 8 * sd, 101)
        est = mle_grid(draws, family, window)
        fine = _scan_mle(draws, family, np.linspace(g - 8 * sd, g + 8 * sd, 1001))
        assert abs(est - fine) <= 1e-5 * sd
        assert abs(est - _scan_mle(draws, family, window)) <= 1e-3 * sd

    @pytest.mark.parametrize("name", ["phase_space", "entangled"])
    def test_mle_grid_is_the_count_estimate_of_the_same_draws(self, name):
        # sample() draws by the alias table; their outcome counts, tallied
        # here by label, give the estimate the plan takes from counts; and the
        # plan's own counts, spelt out as samples, give mle_grid the plan's
        # estimates
        family, g, nu, sd = _oracle_case(name)
        window = np.linspace(g - 8 * sd, g + 8 * sd, 101)
        labels = family.outcome_values()
        for trial in range(4):
            draws = sample(family, nu, 9, trial, g)
            counts = (draws[:, None] == labels[None, :]).sum(axis=0)
            assert abs(mle_grid(draws, family, window) - mle_counts(counts, family, window)) <= 1e-9 * sd
        plan = ExperimentPlan(ORACLE_CASES[name][0], nu, 4, 9, "mle_grid")
        sampler = OutcomeSampler(family, g)
        spelt = [mle_grid(np.repeat(labels, sampler.counts(substream(9, t), nu)), family, window)
                 for t in range(plan.trials)]
        assert abs(run_experiment(plan).mean_estimate - np.mean(spelt)) <= 1e-9 * sd

    def test_mle_grid_evaluation_count(self):
        family, g = StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05).outcome_family()
        sd = 1.0 / math.sqrt(10**4 * classical_fisher(family, g))
        window = np.linspace(g - 8 * sd, g + 8 * sd, 101)
        calls = Counter()
        for name in ("probabilities", "derivative"):
            def counted(x, fn=getattr(family, name), name=name):
                calls[name] += 1
                return fn(x)
            setattr(family, name, counted)
        for trial in range(3):
            draws = sample(family, 10**4, 101, trial, g)
            calls.clear()
            mle_grid(draws, family, window)
            assert 0 < calls["probabilities"] <= 12
            assert 0 < calls["derivative"] <= 12


class TestMLWindow:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_plan_window_is_the_array_window_bitwise(self, name):
        # one window reused over trials gives each trial's estimate bitwise
        # as a window built from the array for that trial alone
        family, g, nu, sd = _oracle_case(name)
        g_grid = np.linspace(g - 8 * sd, g + 8 * sd, 101)
        window = MLWindow(family, g_grid)
        sampler = OutcomeSampler(family, g)
        for trial in range(4):
            draws = sample(sampler, nu, 21, trial)
            assert mle_grid(draws, family, window).hex() == mle_grid(draws, family, g_grid).hex()
            if sampler.discrete:
                counts = sampler.counts(substream(21, trial), nu)
                by_window = mle_counts(counts, family, window)
                assert by_window.hex() == mle_counts(counts, family, g_grid).hex()

    def test_window_of_another_family_is_refused(self):
        family = _oracle_case("standard")[0]
        window = MLWindow(gaussian_family(), np.linspace(-1.0, 1.0, 11))
        with pytest.raises(ValueError, match="another family"):
            mle_grid(np.zeros(10), family, window)


class TestRunExperiment:
    @pytest.mark.parametrize("name, search", [("standard", "mle_grid"), ("entangled", "mle_counts")])
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

        def counted_sample(dist, *args, fn=estimate_mod.sample):
            samples[type(dist).__name__] += 1
            return fn(dist, *args)

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
        # each trial takes one substream and draws its counts from it: no
        # sample() call, and no alias table is built
        import wvlab.estimate as estimate_mod

        streams = []

        def counted_substream(seed, trial=0, fn=estimate_mod.substream):
            streams.append((seed, trial))
            return fn(seed, trial)

        def refuse(*args):
            raise AssertionError("a discrete plan drew single outcomes")

        monkeypatch.setattr(estimate_mod, "substream", counted_substream)
        monkeypatch.setattr(estimate_mod, "sample", refuse)
        monkeypatch.setattr(estimate_mod, "AliasSampler", refuse)
        spec, nu = ORACLE_CASES["entangled"]
        run_experiment(ExperimentPlan(spec, nu, 6, 4, estimator))
        assert streams == [(4, t) for t in range(6)]

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
        from wvlab.schemes import phase_space_scheme

        spec = PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0))
        plan = ExperimentPlan(spec, 10_000, 3, 11, "amr")
        family, g = phase_space_scheme(spec).selection_family, spec.g
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


# each spec with a pure selection, and where its scheme result holds the same family
SPEC_FAMILIES = {
    "standard": (StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05), "family"),
    "phase_space": (PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(10.0)),
                    "selection_family"),
    "entangled": (EntangledSpec(phi=0.01, epsilon=0.05, n=4), "family"),
}


# each scheme on the conditioning kernels and its kernel builds per run.
# standard: the readout density at g, the two arms, the density at g = 0;
# inverse: the Q and P readout densities at the angle, two kernels each (<f|
# and d<f|/dangle), and the success arm; the others: their arms at g alone
SCHEME_BUILDS = {
    "standard": (StandardSpec(g=0.0025, sigma=1.0, epsilon=0.05), 4),
    "inverse": (InverseSpec(g=0.1, sigma=1.0, theta_angle=0.01), 5),
    "phase_space": (PhaseSpaceSpec(g=1e-6, epsilon=0.1, meter=FockMeter.coherent(100.0)), 2),
    "entangled": (EntangledSpec(phi=0.01, epsilon=0.05, n=4), 1),
    "biased": (BiasedSpec(tau=1e-4, beta=0.0025, epsilon=0.05, omega0=20.0, delta_omega=2.0), 1),
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
        spec, attr = SPEC_FAMILIES[name]
        family, g = spec.outcome_family()
        reported = getattr(spec.run(), attr)
        for method in ("probabilities", "derivative"):
            assert getattr(family, method)(g).tobytes() == getattr(reported, method)(g).tobytes()

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
        spec = StandardSpec(g=0.3, sigma=1.0, epsilon=0.005, points=256)
        with pytest.warns(RegimeViolationWarning) as scheme_warnings:
            spec.run()
        with pytest.warns(RegimeViolationWarning) as plan_warnings:
            run_experiment(ExperimentPlan(spec, 100, 3, 1, "amr"))
        assert [str(w.message) for w in plan_warnings] == [str(w.message) for w in scheme_warnings]
