"""Cross-module consistency: coupling -> meter -> infometrics chains."""

import math

import numpy as np
import pytest

import oracles
from oracles import wigner
from wvlab.coupling import CouplingConfig, evolve_joint, postselect
from wvlab.infometrics import Conditioning
from wvlab.meter import (
    GaussianMeter,
    optimal_quadrature_angle,
    quadrature_marginal,
    to_grid,
)
from wvlab.qsys import SIGMA_Z, bloch_state, weak_value


@pytest.fixture(scope="module")
def conditioned_meter():
    """A genuinely non-Gaussian (near-orthogonal, complex-phase) conditioned
    meter on a wide grid."""
    pre = bloch_state(np.pi / 2, 0.0)
    post = bloch_state(-np.pi / 2 + 0.12, 0.35)
    g, sigma = 0.35, 1.0
    base = to_grid(GaussianMeter(sigma), 20.0, 4096)
    joint = evolve_joint(pre, base, CouplingConfig(g, SIGMA_Z))
    return postselect(joint, post).success_meter


class TestWignerConsistency:
    def test_marginals_match_grid_densities(self, conditioned_meter):
        cm = conditioned_meter
        wm = wigner(cm, q_points=513, p_points=513)
        mq = wm.marginal_q()
        dens_q = np.interp(mq.grid, cm.q_grid, cm.density().density)
        assert np.max(np.abs(mq.density - dens_q)) < 1e-6
        # momentum density evaluated exactly at the map's p points (FFT
        # samples are too coarse to compare through linear interpolation)
        mp = wm.marginal_p()
        kernel = np.exp(-1j * np.outer(mp.grid, cm.q_grid))
        phi = cm.spacing / math.sqrt(2 * np.pi) * kernel @ cm.amplitudes
        assert np.max(np.abs(mp.density - np.abs(phi) ** 2)) < 1e-6

    def test_interference_negativity_with_valid_marginals(self, conditioned_meter):
        wm = wigner(conditioned_meter, q_points=257, p_points=257)
        assert wm.values.min() < -1e-3  # genuine quantum interference
        assert wm.marginal_q().density.min() > -1e-9
        assert wm.marginal_p().density.min() > -1e-9
        assert wm.integral() == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_variance_follows_wigner_covariance(self, conditioned_meter):
        # Var(S_theta) = cos^2 Vq + sin^2 Vp + sin(2 theta) Cov_W(q, p)
        cm = conditioned_meter
        wm = wigner(cm, q_points=513, p_points=513)
        qq, pp = np.meshgrid(wm.q_grid, wm.p_grid, indexing="ij")
        w = wm.values * wm.dq * wm.dp
        mean_q, mean_p = np.sum(qq * w), np.sum(pp * w)
        var_q = np.sum((qq - mean_q) ** 2 * w)
        var_p = np.sum((pp - mean_p) ** 2 * w)
        cov = np.sum((qq - mean_q) * (pp - mean_p) * w)
        for theta in (0.4, 1.0, 2.3):
            dist = quadrature_marginal(cm, theta)
            expected = (
                math.cos(theta) ** 2 * var_q
                + math.sin(theta) ** 2 * var_p
                + math.sin(2 * theta) * cov
            )
            assert dist.var() == pytest.approx(expected, rel=1e-4)
            expected_mean = mean_q * math.cos(theta) + mean_p * math.sin(theta)
            assert dist.mean() == pytest.approx(expected_mean, abs=1e-6)


class TestOptimalReadout:
    @staticmethod
    def _readout_fisher(pre, post, sigma, g, theta):
        cfg = CouplingConfig(g, SIGMA_Z)
        base = to_grid(GaussianMeter(sigma), 16.0 * max(sigma, 1.0), 4096)
        ref_grid = quadrature_marginal(base, theta).grid

        def density(gp: float) -> np.ndarray:
            joint = evolve_joint(pre, base, CouplingConfig(gp, cfg.a))
            cm = postselect(joint, post).success_meter
            return quadrature_marginal(cm, theta).density

        fam = oracles.numeric_family(density, grid=ref_grid)
        return oracles.classical_fisher(fam, g).fi

    def test_shift_optimal_angle_extracts_qfi_at_matched_width(self):
        # at sigma = sqrt(2)/2 the maximal-shift quadrature is also the
        # information-optimal one and captures the conditioned QFI exactly
        sigma = math.sqrt(2) / 2
        g = 2e-3 * sigma
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 0.08, 0.08)  # complex <A>_w
        w = weak_value(pre, post, SIGMA_Z)
        assert abs(w.real) > 1 and abs(w.imag) > 1
        theta = optimal_quadrature_angle(w, sigma)
        cfg = CouplingConfig(g, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        q_f = kern.qfi_conditioned()
        f_theta = self._readout_fisher(pre, post, sigma, g, theta)
        assert f_theta == pytest.approx(q_f, rel=1e-6)

    def test_information_optimal_angle_at_general_width(self):
        # for sigma != sqrt(2)/2 the two optimality notions split: the
        # Fisher-optimal angle solves tan(theta) = 2 sigma^2 tan(phi_wv) and
        # recovers the full conditioned QFI; the shift-optimal angle does not
        sigma, g = 1.0, 2e-3
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 0.08, 0.08)
        w = weak_value(pre, post, SIGMA_Z)
        cfg = CouplingConfig(g, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        q_f = kern.qfi_conditioned()

        theta_info = float(np.arctan2(2 * sigma**2 * w.imag, w.real))
        f_info = self._readout_fisher(pre, post, sigma, g, theta_info)
        assert f_info == pytest.approx(q_f, rel=1e-6)

        theta_shift = optimal_quadrature_angle(w, sigma)
        f_shift = self._readout_fisher(pre, post, sigma, g, theta_shift)
        assert f_shift < 0.8 * q_f  # markedly suboptimal here
