import math

import numpy as np
import pytest

from oracles import quadrature_variance, wigner
from wvlab.errors import InsufficientSpan, TruncationTooTight
from wvlab.infometrics import generator_moments
from wvlab.meter import (
    FockMeter,
    GaussianMeter,
    GridMeter,
    SampledDistribution,
    coherent_coeffs,
    fock_truncation,
    fourier_pair,
    gaussian_density,
    optimal_quadrature_angle,
    quadrature_marginal,
    to_grid,
)

SQ2_HALF = math.sqrt(2) / 2


class TestGaussianDensity:
    def test_peak(self):
        assert gaussian_density(GaussianMeter(1.0), 0.0) == pytest.approx(
            1 / math.sqrt(2 * np.pi), rel=1e-14
        )

    def test_normalization_and_variance(self):
        m = GaussianMeter(0.7, mean_q=0.3)
        q = np.linspace(-8, 8, 20001)
        dens = gaussian_density(m, q)
        dq = q[1] - q[0]
        assert np.sum(dens) * dq == pytest.approx(1.0, abs=1e-10)
        mean = np.sum(q * dens) * dq
        var = np.sum((q - mean) ** 2 * dens) * dq
        assert var == pytest.approx(0.49, abs=1e-8)


class TestToGrid:
    def test_norm(self):
        g = to_grid(GaussianMeter(1.0), 16.0, 4096)
        assert abs(g.norm() - 1.0) < 1e-12

    def test_mean_within_tenth_step(self):
        m = GaussianMeter(1.0, mean_q=0.25)
        g = to_grid(m, 16.0, 4096)
        assert abs(g.mean_q() - 0.25) < g.spacing / 10

    def test_momentum_variance_fourier_pair(self):
        # analytic Gaussian pair: Var(P) = 1/(4 sigma^2)
        for sigma in (0.5, 1.0, 2.0):
            g = to_grid(GaussianMeter(sigma), 16.0 * sigma, 4096)
            assert g.var_p() == pytest.approx(1 / (4 * sigma**2), abs=1e-6)

    def test_insufficient_span(self):
        with pytest.raises(InsufficientSpan):
            to_grid(GaussianMeter(1.0), 4.0, 4096)
        with pytest.raises(InsufficientSpan):
            to_grid(GaussianMeter(1.0), 16.0, 128)

    def test_parseval(self):
        g = to_grid(GaussianMeter(1.3, mean_q=0.4, mean_p=-0.7), 24.0, 4096)
        p, phi = fourier_pair(g.q_grid, g.amplitudes)
        norm_p = np.sum(np.abs(phi) ** 2) * (p[1] - p[0])
        assert abs(norm_p - g.norm()) < 1e-10

    def test_minimum_uncertainty_product(self):
        g = to_grid(GaussianMeter(0.8), 16.0, 4096)
        assert g.var_q() * g.var_p() == pytest.approx(0.25, abs=1e-8)


class TestWigner:
    def test_peak_value(self):
        m = to_grid(GaussianMeter(SQ2_HALF), 16.0, 4096)
        wm = wigner(m)
        i = np.argmin(np.abs(wm.q_grid))
        j = np.argmin(np.abs(wm.p_grid))
        assert wm.values[i, j] == pytest.approx(1 / np.pi, abs=1e-9)

    def test_pointwise_analytic(self):
        m = to_grid(GaussianMeter(SQ2_HALF), 16.0, 4096)
        wm = wigner(m)
        qq, pp = np.meshgrid(wm.q_grid, wm.p_grid, indexing="ij")
        truth = np.exp(-(qq**2)) * np.exp(-(pp**2)) / np.pi  # sigma^2 = 1/2
        assert np.max(np.abs(wm.values - truth)) < 1e-6

    def test_displacement_covariance(self):
        wm = wigner(to_grid(GaussianMeter(1.0, mean_q=0.9, mean_p=-0.4), 20.0, 4096))
        qq, pp = np.meshgrid(wm.q_grid, wm.p_grid, indexing="ij")
        truth = np.exp(-((qq - 0.9) ** 2) / 2 - 2 * (pp + 0.4) ** 2) / np.pi
        assert np.max(np.abs(wm.values - truth)) < 1e-6

    def test_odd_grid_length(self):
        q = np.linspace(-16.0, 16.0, 4097)
        m = GridMeter.normalized(q, GaussianMeter(SQ2_HALF).amplitudes(q))
        wm = wigner(m)
        i = np.argmin(np.abs(wm.q_grid))
        j = np.argmin(np.abs(wm.p_grid))
        assert wm.values[i, j] == pytest.approx(1 / np.pi, abs=1e-9)
        assert wm.integral() == pytest.approx(1.0, abs=1e-6)

    def test_integral_and_marginals(self):
        m = to_grid(GaussianMeter(1.0, mean_q=0.5), 20.0, 4096)
        wm = wigner(m)
        assert wm.integral() == pytest.approx(1.0, abs=1e-6)
        mq = wm.marginal_q()
        dens = gaussian_density(GaussianMeter(1.0, mean_q=0.5), mq.grid)
        assert np.max(np.abs(mq.density - dens)) < 1e-6
        mp = wm.marginal_p()
        sp2 = 0.25
        dens_p = np.exp(-(mp.grid**2) / (2 * sp2)) / math.sqrt(2 * np.pi * sp2)
        assert np.max(np.abs(mp.density - dens_p)) < 1e-6
        assert mp.density.min() > -1e-9


class TestQuadratureMarginal:
    @pytest.fixture()
    def grid_meter(self):
        return to_grid(GaussianMeter(1.0), 16.0, 4096)

    def test_position_limit(self, grid_meter):
        d = quadrature_marginal(grid_meter, 0.0)
        assert d.var() == pytest.approx(1.0, abs=1e-9)

    def test_momentum_limit(self, grid_meter):
        d = quadrature_marginal(grid_meter, np.pi / 2)
        assert d.var() == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.2, 2.0, -0.4, 3.0])
    def test_general_angle_variance(self, grid_meter, theta):
        d = quadrature_marginal(grid_meter, theta)
        assert d.var() == pytest.approx(quadrature_variance(1.0, theta), abs=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.6, np.pi / 2, 2.2])
    def test_mean_linear_in_displacement(self, theta):
        delta = 0.45
        base = quadrature_marginal(to_grid(GaussianMeter(1.0), 16.0, 4096), theta)
        moved = quadrature_marginal(
            to_grid(GaussianMeter(1.0, mean_q=delta), 16.0, 4096), theta
        )
        assert moved.mean() - base.mean() == pytest.approx(
            delta * math.cos(theta), abs=1e-8
        )

    def test_displaced_mean_general(self):
        m = to_grid(GaussianMeter(1.0, mean_q=0.7, mean_p=-0.3), 16.0, 4096)
        for theta in (0.5, 1.9):
            d = quadrature_marginal(m, theta)
            assert d.mean() == pytest.approx(
                0.7 * math.cos(theta) - 0.3 * math.sin(theta), abs=1e-8
            )


class TestOptimalQuadratureAngle:
    def test_real_measures_q(self):
        assert optimal_quadrature_angle(5.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_measures_p(self):
        assert abs(optimal_quadrature_angle(5.0j, 1.0)) == pytest.approx(
            np.pi / 2, abs=1e-12
        )

    def test_figure_one_complex_value(self):
        # <A>_w = 100 - 100i at sigma = sqrt(2)/2: theta = arctan(tan(-pi/4)/(2 s^2))
        theta = optimal_quadrature_angle(100 - 100j, SQ2_HALF)
        assert theta == pytest.approx(math.atan(math.tan(-np.pi / 4) / 1.0), abs=1e-12)

    def test_condition_and_maximal_shift(self):
        w, sigma, g = 100 - 100j, SQ2_HALF, 1e-4
        theta = optimal_quadrature_angle(w, sigma)
        phi_wv = np.angle(w)
        assert 2 * sigma**2 * math.tan(theta) == pytest.approx(
            math.tan(phi_wv), rel=1e-12
        )
        # grid check: the mean shift along theta is the predicted maximum
        base = to_grid(GaussianMeter(sigma), 16.0, 8192)
        shifted = GaussianMeter(
            sigma, mean_q=g * w.real, mean_p=g * w.imag / (2 * sigma**2)
        )
        d = quadrature_marginal(to_grid(shifted, 16.0, 8192), theta)
        expected = (
            g
            * abs(w)
            * math.sqrt(
                math.cos(phi_wv) ** 2 + math.sin(phi_wv) ** 2 / (4 * sigma**4)
            )
        )
        assert abs(d.mean()) == pytest.approx(expected, rel=1e-6)


class TestFock:
    def test_coherent_poisson_moments(self):
        m = FockMeter.coherent(2.0)  # nbar = 4
        mean, var = generator_moments(m)
        assert mean == pytest.approx(4.0, abs=1e-7)
        assert var == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("nbar", [1.0, 100.0, 1e4])
    def test_coherent_moments_at_large_nbar(self, nbar):
        # normalized weights and a variance summed about the mean: a raw
        # second moment less mean^2 lost 8.9e-8 of Var(n) at nbar = 1e4
        mean, var = generator_moments(FockMeter.coherent(math.sqrt(nbar)))
        assert mean == pytest.approx(nbar, rel=1e-12)
        assert var == pytest.approx(nbar, rel=1e-12)

    def test_vacuum(self):
        assert generator_moments(FockMeter.coherent(0.0)) == (0.0, 0.0)

    def test_balanced_mixture_variance(self):
        # half vacuum, half |alpha|^2 = 2 nbar: mean nbar, Var = nbar^2 + nbar
        nbar = 16.0
        m = FockMeter.mixture([(0.5, 0.0), (0.5, math.sqrt(2 * nbar))])
        mean, var = generator_moments(m)
        assert mean == pytest.approx(nbar, abs=1e-6)
        assert var == pytest.approx(nbar**2 + nbar, rel=1e-7)
        # mean-photon spread N = 2 nbar keeps Var >= N^2/4
        assert var >= (2 * nbar) ** 2 / 4

    def test_truncation_too_tight(self):
        with pytest.raises(TruncationTooTight):
            FockMeter.coherent(10.0, n_max=100)

    def test_probabilities_sum(self):
        m = FockMeter.mixture([(0.3, 1.0), (0.7, 2.5)])
        assert m.number_probabilities().sum() == pytest.approx(1.0, abs=1e-8)

    def test_number_distribution_is_built_once(self, monkeypatch):
        import wvlab.meter as meter_mod

        calls = []

        def counted(alpha, n_max):
            calls.append(alpha)
            return coherent_coeffs(alpha, n_max)

        monkeypatch.setattr(meter_mod, "coherent_coeffs", counted)
        pairs = [(0.3, 1.0), (0.7, 2.5j)]
        m = FockMeter.mixture(pairs)
        p = m.number_probabilities()
        m.number_probabilities(), m.tail_mass(), generator_moments(m)
        assert calls == [1.0, 2.5j]
        assert not p.flags.writeable
        # oracle: the mixture summed from the amplitudes on each call
        expected = np.zeros(m.n_max + 1)
        for w, a in pairs:
            expected += w * np.abs(coherent_coeffs(a, m.n_max)) ** 2
        assert p.tobytes() == expected.tobytes()
        assert m == FockMeter.mixture(pairs)

    @pytest.mark.parametrize("nbar", [0.01, 1.0, 100.0, 1e4])
    def test_coherent_coeffs_against_mpmath(self, nbar):
        # c_n = e^{-|a|^2/2} a^n / sqrt(n!) by its recurrence in 40 digits; the
        # complex relative error bounds magnitude and phase together, at
        # 4 eps per unit of log-space magnitude the float path accumulates
        mpmath = pytest.importorskip("mpmath")
        alpha = math.sqrt(nbar) * complex(math.cos(0.7), math.sin(0.7))
        n_max = fock_truncation(nbar)
        coeffs = coherent_coeffs(alpha, n_max)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            a = mpmath.mpc(alpha)
            exact = mpmath.exp(-abs(a) ** 2 / 2)
            checked = 0
            for n, c in enumerate(coeffs):
                if n:
                    exact *= a / mpmath.sqrt(n)
                if abs(exact) <= 1e-300:
                    continue
                err = float(abs(mpmath.mpc(c) - exact) / abs(exact))
                log_c = float(mpmath.log(abs(exact)))
                assert err <= 4 * eps * (1 + n * abs(math.log(abs(alpha))) + abs(log_c)), n
                checked += 1
        assert checked > n_max // 2
