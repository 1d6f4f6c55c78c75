"""The O(N) state-space noise engine against independent slower paths.

Its doubling scan is pinned to the LAPACK bidiagonal solve; F_CM to a dense
LU solve; the GLS weights to a 40-digit tridiagonal solve of
C^{-1} 1 = (cI + aT)^{-1} T 1 (T = K^{-1}, Kac, Murdock & Szegoe 1953) over
the whole sweep, and to the dense Cholesky `mle_weights` wherever that
oracle is itself accurate to better than the tolerance; the sampler's
linear map is pinned exactly to the dense covariance. The saturating
detector's readout band is pinned bitwise to the dense readout matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")
from hypothesis import example, given, strategies as st

import oracles
from wvlab.estimate import (
    ExperimentPlan,
    correlated_noise_samples,
    mle_weights,
    run_experiment,
)
from wvlab.errors import LadderTooLong
from wvlab.noise import (
    CorrelatedNoiseModel,
    SaturatingDetector,
    StateSpaceNoise,
    _bin_edges,
    _response_band,
    _run_recursion,
    covariance,
    readout_distribution,
    saturated_fisher,
    saturating_response,
)


@st.composite
def noise_models(draw, max_n=1500):
    a = 10 ** draw(st.floats(-3, 3))
    c = 10 ** draw(st.floats(-3, 3))
    dt = 10 ** draw(st.floats(-1, 1))
    tau_over_dt = 10 ** draw(st.floats(-3, 9))
    n = draw(st.integers(1, max_n))
    return CorrelatedNoiseModel(a, c, dt, dt * tau_over_dt, n)


def precise_inverse_row_sums(model: CorrelatedNoiseModel) -> list:
    """C^{-1} 1 in 40-digit arithmetic through the tridiagonal K^{-1}."""
    with mp.workdps(40):
        a, c, n = mp.mpf(model.a), mp.mpf(model.c), model.n
        rho = mp.exp(-mp.mpf(model.dt) / mp.mpf(model.tau_c))
        if n == 1:
            return [1 / (a + c)]
        s = 1 / (1 - rho**2)
        t_diag = [s * (1 + (rho**2 if 0 < k < n - 1 else 0)) for k in range(n)]
        t_off = -s * rho
        t_ones = [t_diag[k] + t_off * ((k > 0) + (k < n - 1)) for k in range(n)]
        diag = [c + a * t for t in t_diag]
        off = a * t_off
        # Thomas algorithm on the symmetric tridiagonal cI + aT
        cp, dp = [off / diag[0]], [t_ones[0] / diag[0]]
        for k in range(1, n):
            den = diag[k] - off * cp[-1]
            cp.append(off / den)
            dp.append((t_ones[k] - off * dp[-1]) / den)
        x = [dp[-1]]
        for k in range(n - 2, -1, -1):
            x.append(dp[k] - cp[k] * x[-1])
        return [float(v) for v in x[::-1]]


def dense_condition_bound(model: CorrelatedNoiseModel) -> float:
    """lambda_max / lambda_min of C <= 1 + (c/a) min(N, coth(dt / 2 tau_c))."""
    coth = 1.0 / math.tanh(model.ratio / 2)
    return 1.0 + model.c / model.a * min(model.n, coth)


# lengths at and around every power of two up to 4096, where the doubling
# steps begin and end
SCAN_SIZES = sorted({1, 2, 3} | {2**k + s for k in range(2, 13) for s in (-1, 0, 1)} - {4097})
# coefficients in [0, 1], down to 1 - 1e-12 of a barely decaying memory
COEFFICIENTS = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 12.0).map(lambda k: 1.0 - 10**-k))


@given(
    n=st.one_of(st.sampled_from(SCAN_SIZES), st.integers(1, 4096)),
    bounds=st.tuples(COEFFICIENTS, COEFFICIENTS).map(sorted),
    scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 17),
)
@example(n=4096, bounds=[1.0, 1.0], scalar=False, seed=0, rows=1)
@example(n=4096, bounds=[1.0 - 1e-9, 1.0 - 1e-9], scalar=True, seed=0, rows=16)
def test_run_recursion_is_the_bidiagonal_solve(n, bounds, scalar, seed, rows):
    rng = np.random.default_rng(seed)
    coef = bounds[0] if scalar else rng.uniform(*bounds, n)
    rhs = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3, n)  # signed
    reference = oracles.bidiagonal_solve(coef, rhs)
    z = _run_recursion(coef if scalar else coef.copy(), rhs.copy())
    assert np.max(np.abs(z - reference)) <= 1e-13 * np.max(np.abs(reference))
    if scalar:
        # an (n, columns) block scans each column on its own: bitwise the
        # 1-D scan
        block = np.column_stack([rhs, rng.standard_normal((n, rows - 1))])
        scanned = _run_recursion(coef, block.copy())
        assert scanned.shape == block.shape
        for column, z_column in zip(block.T, scanned.T):
            assert z_column.tobytes() == _run_recursion(coef, column.copy()).tobytes()


class TestAgainstDense:
    @given(noise_models())
    def test_fisher_matches_lu(self, model):
        lu = float(np.linalg.solve(covariance(model), np.ones(model.n)).sum())
        assert StateSpaceNoise(model).fisher() == pytest.approx(lu, rel=1e-12)

    @given(noise_models())
    def test_gls_weights(self, model):
        w = StateSpaceNoise(model).gls_weights()
        assert abs(w.sum() - 1.0) <= 1e-12
        exact = np.array(precise_inverse_row_sums(model))
        exact /= exact.sum()
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(w - exact)) <= 1e-10 * scale
        # the dense Cholesky loses ~cond(C) eps, so it referees only where
        # that stays below the tolerance
        if dense_condition_bound(model) <= 1e5:
            dense = mle_weights(covariance(model))
            assert np.max(np.abs(w - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_dense_referee_is_weaker_than_the_structure(self):
        # a=1e-3, c=1e3, tau/dt=1e9, N=1500: cond(C) ~ 1.5e9
        model = CorrelatedNoiseModel(1e-3, 1e3, 1.0, 1e9, 1500)
        exact = np.array(precise_inverse_row_sums(model))
        exact /= exact.sum()
        scale = np.max(np.abs(exact))
        structured = np.max(np.abs(StateSpaceNoise(model).gls_weights() - exact))
        dense = np.max(np.abs(mle_weights(covariance(model)) - exact))
        assert structured <= 1e-12 * scale < dense


class TestSampler:
    @given(noise_models(max_n=40))
    def test_linear_map_reproduces_covariance(self, model):
        engine = StateSpaceNoise(model)
        basis = np.eye(2 * model.n)
        m = np.column_stack([engine.sample(basis[i].copy()) for i in range(2 * model.n)])
        cov = covariance(model)
        assert np.max(np.abs(m @ m.T - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_draws_repeat_bitwise_per_seed_and_trial(self):
        model = CorrelatedNoiseModel(a=0.3, c=2.0, dt=1.0, tau_c=50.0, n=700)
        first = correlated_noise_samples(model, seed=9, trial=4)
        assert np.array_equal(first, correlated_noise_samples(model, seed=9, trial=4))
        assert not np.array_equal(first, correlated_noise_samples(model, seed=9, trial=5))
        assert not np.array_equal(first, correlated_noise_samples(model, seed=10, trial=4))

    def test_experiment_uses_the_trial_draws(self):
        model = CorrelatedNoiseModel(a=0.3, c=2.0, dt=1.0, tau_c=50.0, n=300)
        plans = [
            ExperimentPlan(None, model.n, 3, 17, est, noise=model, true_value=0.4)
            for est in ("amr", "mle_correlated")
        ]
        for plan in plans:
            assert run_experiment(plan).to_dict() == run_experiment(plan).to_dict()
        draws = [0.4 + correlated_noise_samples(model, 17, t) for t in range(3)]
        amr = run_experiment(plans[0])
        assert amr.mean_estimate == pytest.approx(np.mean([d.mean() for d in draws]), rel=1e-14)
        weights = StateSpaceNoise(model).gls_weights()
        mle = run_experiment(plans[1])
        assert mle.mean_estimate == pytest.approx(np.mean([weights @ d for d in draws]), rel=1e-14)

    def test_noise_plan_memory_is_linear(self):
        # a dense path holds at least one 5000 x 5000 float64 matrix (200 MB)
        model = CorrelatedNoiseModel(a=0.05, c=1.0, dt=1.0, tau_c=100.0, n=5000)
        plan = ExperimentPlan(None, model.n, 5, 3, "mle_correlated", noise=model)
        tracemalloc.start()
        try:
            run_experiment(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestReadoutOracle:
    def test_matches_scipy_stats_bitwise(self):
        stats = pytest.importorskip("scipy.stats")
        det = SaturatingDetector(k_s=40, eta=0.8, readout_sigma=1.3, quantization=0.5)
        levels = det.readout_levels()
        edges = np.concatenate([[-np.inf], 0.5 * (levels[1:] + levels[:-1]), [np.inf]])
        for n_in in (0, 7, 55):
            expected = np.diff(stats.norm.cdf(edges, loc=n_in, scale=det.readout_sigma))
            assert np.array_equal(saturating_response(det, n_in).probs, expected)
        for nbar in (0.3, 7.0, 55.5, 180.0):
            mu = det.eta * nbar
            lo = max(0, int(mu - 10 * math.sqrt(mu) - 2))
            ns = np.arange(lo, int(mu + 10 * math.sqrt(mu) + 10) + 1)
            cols, band = _response_band(edges, det.readout_sigma, ns.astype(float))
            expected = np.zeros(det.readout_levels().size)
            expected[cols] = stats.poisson.pmf(ns, mu) @ band
            assert np.array_equal(readout_distribution(det, nbar), expected)


# the Gaussian-readout detectors of the detector tests
READOUT_DETECTORS = [
    SaturatingDetector(k_s=40, eta=0.8, readout_sigma=1.3, quantization=0.5),
    SaturatingDetector(k_s=80, eta=0.9, readout_sigma=1.5),
    SaturatingDetector(k_s=40, readout_sigma=2.0),
    SaturatingDetector(k_s=40, readout_sigma=6.0),
    SaturatingDetector(k_s=10, readout_sigma=1.0),
    SaturatingDetector(k_s=160, readout_sigma=1.0),
    SaturatingDetector(k_s=12, readout_sigma=1.0),
    SaturatingDetector(k_s=400, readout_sigma=0.3, quantization=0.1),
    SaturatingDetector(k_s=400, readout_sigma=4.0, quantization=7.0),
]


class TestReadoutBand:
    @pytest.mark.parametrize("det", READOUT_DETECTORS)
    def test_band_is_the_dense_matrix_bitwise(self, det):
        for mu in (0.0, 0.3, 7.0, 55.5, 180.0, 2000.0):
            lo = max(0, int(mu - 10 * math.sqrt(mu) - 2))
            ns = np.arange(lo, int(mu + 10 * math.sqrt(mu) + 10) + 1).astype(float)
            cols, band = _response_band(_bin_edges(det.readout_levels()), det.readout_sigma, ns)
            embedded = np.zeros((ns.size, det.readout_levels().size))
            embedded[:, cols] = band
            assert np.array_equal(embedded, oracles.response_matrix(det, ns))
        for n_in in (0, 7, 55, 1000):
            dense = oracles.response_matrix(det, np.array([float(n_in)]))[0]
            assert np.array_equal(saturating_response(det, n_in).probs, dense)

    def test_long_ladder_costs_only_its_band(self):
        # the dense (photons x ladder) matrix would be 650 x 10^6 cells, 5.2 GB
        det = SaturatingDetector(k_s=10**6, readout_sigma=1.0)
        tracemalloc.start()
        try:
            res = saturated_fisher([1000.0], [1000.0], det)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60e6
        # far below saturation, readout noise of 1 photon keeps almost all
        # of the shot-noise information (d nbar / dg)^2 / nbar = 1000
        assert 0.99 * 1000 < res.total <= 1000 * (1 + 1e-9)

    def test_band_too_large_is_refused_before_allocation(self):
        det = SaturatingDetector(k_s=10**6, readout_sigma=1e4)
        tracemalloc.start()
        try:
            with pytest.raises(LadderTooLong):
                readout_distribution(det, 1e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60e6
