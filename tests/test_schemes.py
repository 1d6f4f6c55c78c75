import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wvlab.coupling import RegimeKind
from wvlab.errors import FlatLikelihood, RegimeViolationWarning, ValidityViolation
from wvlab.estimate import substream
from wvlab.infometrics import classical_fisher
from wvlab.meter import FockMeter
from wvlab.schemes import (
    ABWVASpec,
    BiasedSpec,
    EntangledSpec,
    InverseSpec,
    JointWMSpec,
    PhaseSpaceSpec,
    RecycleSpec,
    StandardSpec,
    abwva_scheme,
    biased_beta_s,
    biased_scheme,
    cavity_gain,
    entangled_scheme,
    inverse_scheme,
    joint_wm_mle,
    joint_wm_sample,
    joint_wm_scheme,
    phase_space_scheme,
    recycle_scheme,
    standard_scheme,
)

SQ2_HALF = math.sqrt(2) / 2


class TestStandard:
    def test_real_epsilon(self):
        eps = 0.01
        spec = StandardSpec(g=1e-4, sigma=1.0, epsilon=eps)
        res = standard_scheme(spec)
        assert res.report.amplification == pytest.approx(2 / eps, rel=1e-4)
        # p_f carries an O(g^2/sigma^2) coupling correction on sin^2(eps/2)
        assert res.report.p_f == pytest.approx(math.sin(eps / 2) ** 2, rel=1e-3)
        assert res.report.regime.kind is RegimeKind.STANDARD_WVA
        # far inside the AAV regime the meter mean tracks g Re<A>_w
        assert res.distribution.mean() == pytest.approx(
            spec.g * res.weak_value.real, rel=1e-3
        )
        assert res.report.fisher <= res.report.extras["q_jt"] * (1 + 1e-6)

    def test_p_f_exact_at_vanishing_coupling(self):
        eps = 0.01
        res = standard_scheme(StandardSpec(g=1e-9, sigma=1.0, epsilon=eps))
        assert res.report.p_f == pytest.approx(math.sin(eps / 2) ** 2, rel=1e-10)

    def test_imaginary_phi(self):
        phi = 0.01
        spec = StandardSpec(g=1e-4, sigma=1.0, phi=phi)
        res = standard_scheme(spec)
        assert res.weak_value.imag == pytest.approx(-2 / phi, rel=1e-4)
        assert abs(res.theta_opt) == pytest.approx(np.pi / 2, abs=1e-6)
        # the optimal quadrature orients the first-order momentum shift
        # |g Im(w)| / (2 sigma^2) to be positive
        assert res.distribution.mean() == pytest.approx(
            spec.g * abs(res.weak_value.imag) / 2, rel=1e-3
        )

    def test_balanced_epsilon_is_cm_like(self):
        spec = StandardSpec(g=0.01, sigma=1.0, epsilon=np.pi / 2)
        res = standard_scheme(spec)
        assert res.report.p_f == pytest.approx(0.5, abs=1e-12)
        # conditioned-meter FI equals the conventional-measurement 1/sigma^2
        assert res.report.extras["fisher_conditioned"] == pytest.approx(1.0, rel=1e-4)

    def test_regime_warning(self):
        with pytest.warns(RegimeViolationWarning):
            res = standard_scheme(StandardSpec(g=0.3, sigma=1.0, epsilon=0.005))
        assert res.report.warnings

    def test_fig1_parameters(self):
        sigma = SQ2_HALF
        res = standard_scheme(StandardSpec(g=sigma / 400, sigma=sigma, epsilon=0.01))
        assert res.report.extras["aav_margin"] < 1.0
        assert res.report.amplification == pytest.approx(200.0, abs=0.01)


class TestInverse:
    def test_real_angle_shift(self):
        g, sigma = 1e-2, 1.0
        theta = g / (10 * sigma)
        res = inverse_scheme(InverseSpec(g=g, sigma=sigma, theta_angle=theta))
        assert res.mean_q == pytest.approx(2 * theta * sigma**2 / g, rel=0.05)
        assert res.report.p_f == pytest.approx(g**2 / (4 * sigma**2), rel=0.05)

    def test_imaginary_angle_shift_in_conjugate_quadrature(self):
        g, sigma = 1e-2, 1.0
        phi = g / (10 * sigma)
        res = inverse_scheme(InverseSpec(g=g, sigma=sigma, phi_angle=phi))
        # the -phi/g shift lives in the momentum-like readout
        assert res.mean_p == pytest.approx(-phi / g, rel=0.05)
        assert abs(res.mean_q) < 1e-9
        assert res.report.extras["shift_coordinate"] == "mean_p"

    def test_symmetric_dark_port(self):
        res = inverse_scheme(InverseSpec(g=1e-2, sigma=1.0))
        assert abs(res.mean_q) < 1e-9 and abs(res.mean_p) < 1e-9

    def test_recovers_complete_information(self):
        # p_f * F about phi_I approaches the joint QFI (= 1) at the dark port
        g, sigma = 1e-2, 1.0
        res = inverse_scheme(InverseSpec(g=g, sigma=sigma, phi_angle=g / 20))
        assert res.report.fisher == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize(
        "angle", [{"theta_angle": 1e-3}, {"theta_angle": 5e-4}, {"phi_angle": 1e-3},
                  {"phi_angle": -2e-3}], ids=["theta", "theta_half", "phi", "phi_negative"],
    )
    def test_p_f_is_the_closed_form(self, angle):
        # (1 - cos(angle) exp(-g^2 / (2 sigma^2))) / 2: the overlap term
        # phi^2 / 4 alone read 100x low at phi = 1e-3
        res = inverse_scheme(InverseSpec(g=0.01, sigma=1.0, **angle))
        assert res.report.p_f == pytest.approx(res.report.extras["p_f_closed_form"], rel=1e-9)

    def test_validity_ordering_enforced(self):
        with pytest.raises(ValidityViolation):
            inverse_scheme(InverseSpec(g=1e-3, sigma=1.0, theta_angle=0.5))

    def test_wide_meter_runs(self):
        # p_f = g^2 / (4 sigma^2) = 2.5e-15: the grid path had no success arm
        res = inverse_scheme(InverseSpec(g=0.1, sigma=1e6))
        assert res.report.p_f == pytest.approx(res.report.extras["p_f_closed_form"], rel=1e-6)
        assert math.isfinite(classical_fisher(res.family, 0.0))


class TestABWVA:
    def test_sum_rule_bitwise(self):
        res = abwva_scheme(ABWVASpec(g=1e-4, epsilon=0.05, sigma=1.0))
        assert np.array_equal(res.p1 + res.p2, res.p0)
        assert np.array_equal(res.total, res.p0)

    def test_distributions_nonnegative(self):
        res = abwva_scheme(ABWVASpec(g=5e-3, epsilon=0.3, sigma=0.7))
        assert res.p1.min() >= 0 and res.p2.min() >= 0

    def test_zero_coupling_difference(self):
        res = abwva_scheme(ABWVASpec(g=0.0, epsilon=0.1, sigma=1.0))
        expected = math.sin(0.1) * res.p0
        assert np.max(np.abs(res.difference - expected)) < 1e-12
        assert abs(res.centroid) < 1e-12

    def test_centroid_matches_closed_form(self):
        res = abwva_scheme(ABWVASpec(g=1e-4, epsilon=0.05, sigma=1.0))
        assert res.centroid == pytest.approx(res.predicted_centroid, rel=0.02)

    def test_signal_strength_factor(self):
        eps = 0.05
        res = abwva_scheme(ABWVASpec(g=1e-4, epsilon=eps, sigma=1.0))
        ratio = (
            res.report.extras["difference_signal_strength"]
            / res.report.extras["standard_wva_signal_strength"]
        )
        assert ratio == pytest.approx(4 / eps, rel=1e-3)

    def test_two_detector_fisher_is_full_qfi(self):
        # joint detection extracts 4 Var(P) = 1/sigma^2 at any epsilon
        for eps in (0.05, 0.4):
            res = abwva_scheme(ABWVASpec(g=1e-4, epsilon=eps, sigma=1.0))
            assert res.report.fisher == pytest.approx(1.0, rel=1e-6)


class TestJointWM:
    def test_noiseless_estimate_unbiased(self):
        spec = JointWMSpec(
            tau=0.05, phi=np.pi / 2, eps_fluct=0.0, omega0=20.0, delta_omega=2.0
        )
        res = joint_wm_scheme(spec, nu=40000, seed=3)
        # sigma(tau) ~ 1/sqrt(nu Var(omega)) = 1/sqrt(4e4 * 4) = 2.5e-3
        assert res.tau_est == pytest.approx(0.05, abs=0.01)
        assert res.bias_prediction == 1.0

    def test_balanced_phase_minimizes_fluctuation_bias(self):
        biases = [
            joint_wm_scheme(
                JointWMSpec(tau=0.05, phi=phi, eps_fluct=0.3, omega0=20.0, delta_omega=2.0),
                nu=100,
                seed=1,
            ).bias_prediction
            for phi in (0.3, np.pi / 2, 2.8)
        ]
        assert biases[1] == min(biases)
        assert biases[1] == pytest.approx(1 + 0.5 * 0.3**2, rel=1e-9)

    def test_detection_noise_bias_against_population_oracle(self):
        # the mismatched fit converges to the pseudo-true value computed by
        # population-level quadrature; the bias magnitude scales as
        # (Omega/Delta omega)^2 (NB the sign is a shrinkage, downwards)
        from wvlab.schemes import joint_wm_pseudo_true

        base = dict(tau=0.08, phi=np.pi / 2, eps_fluct=0.0, omega0=20.0, delta_omega=2.0)
        spec = JointWMSpec(omega_noise=1.0, **base)
        estimates = []
        for t in range(40):
            rng = substream(17, t)
            omega, q = joint_wm_sample(spec, 20000, rng)
            estimates.append(joint_wm_mle(spec, omega, q)[0])
        mean = np.mean(estimates)
        se = np.std(estimates) / math.sqrt(len(estimates))
        tau_star, _ = joint_wm_pseudo_true(spec)
        assert mean == pytest.approx(tau_star, abs=max(4 * se, 2e-4))
        # quadratic growth of the bias with the noise-to-spread ratio
        bias_half = spec.tau - joint_wm_pseudo_true(JointWMSpec(omega_noise=0.5, **base))[0]
        bias_full = spec.tau - tau_star
        assert bias_full == pytest.approx(4 * bias_half, rel=0.15)

    def test_flat_likelihood(self):
        spec = JointWMSpec(tau=0.05, phi=np.pi / 2, omega0=20.0, delta_omega=0.0)
        with pytest.raises(FlatLikelihood):
            joint_wm_mle(spec, np.array([20.0]), np.array([1]))


class TestBiased:
    def test_beta_s_root(self):
        assert biased_beta_s(0.1, 10.0) == pytest.approx(0.01, rel=1e-10)

    def test_slope_at_bias_point(self):
        eps, om0, dom = 0.1, 10.0, 1.0
        spec = BiasedSpec(tau=0.0, beta=eps / om0, epsilon=eps, omega0=om0, delta_omega=dom)
        res = biased_scheme(spec)
        assert res.report.extras["slope"] == pytest.approx(
            2 * om0**2 / eps, rel=0.02
        )

    def test_zero_delay_zero_shift(self):
        spec = BiasedSpec(tau=0.0, beta=0.01, epsilon=0.1, omega0=10.0, delta_omega=1.0)
        assert abs(biased_scheme(spec).centroid_shift) < 1e-9

    def test_p_f_grid_matches_closed_form(self):
        spec = BiasedSpec(tau=1e-5, beta=0.012, epsilon=0.1, omega0=10.0, delta_omega=1.0)
        res = biased_scheme(spec)
        assert res.p_f_grid == pytest.approx(res.p_f_closed, rel=1e-6)

    def test_unbiased_limit_is_standard_wva(self):
        # beta = 0: S ~ eps^2 |f|^2 with amplification 2 delta^2/eps
        eps, dom = 0.1, 1.0
        spec = BiasedSpec(tau=0.0, beta=0.0, epsilon=eps, omega0=10.0, delta_omega=dom)
        res = biased_scheme(spec)
        assert res.p_f_grid == pytest.approx(eps**2, rel=0.01)
        assert res.report.extras["standard_amplification"] == pytest.approx(
            2 * dom**2 / eps
        )

    def test_resolution_bounds(self):
        spec = BiasedSpec(
            tau=0.0, beta=0.01, epsilon=0.1, omega0=10.0, delta_omega=1.0,
            resolution=0.05,
        )
        res = biased_scheme(spec)
        assert res.report.extras["tau_resolution_standard"] == pytest.approx(
            0.1 * 0.05 / 1.0
        )
        assert res.report.extras["tau_resolution_biased"] == pytest.approx(
            0.1 * 0.05 / 200.0
        )

    def test_p_f_closed_form_keeps_its_digits_at_small_p_f(self):
        # (1 - E cos th) / 2 in double precision read 2.5119391567e-09 here,
        # 7.3e-9 relative off
        mp = pytest.importorskip("mpmath")
        eps = 10**-2.3
        spec = BiasedSpec(tau=1e-5 * eps, beta=eps, epsilon=eps, omega0=1.0, delta_omega=0.01)
        with mp.workdps(40):
            b = mp.mpf(spec.beta) + mp.mpf(spec.tau)
            e = mp.exp(-2 * b**2 * mp.mpf(spec.delta_omega) ** 2)
            p_f = float((1 - e * mp.cos(2 * (b - mp.mpf(eps)))) / 2)
        assert p_f == pytest.approx(2.5119391751e-09, rel=1e-10)
        closed = biased_scheme(spec).report.extras["p_f_closed_form"]
        assert closed == pytest.approx(p_f, rel=1e-14, abs=0)

    @given(
        st.floats(0.0, 1.7), st.floats(-2.0, -0.5), st.floats(-2.3, -0.3),
        st.floats(0.0, 2.0), st.floats(-5.0, -1.0), st.sampled_from([1.0, -1.0]),
    )
    def test_matches_40_digit_closed_form(self, log_om0, log_width, log_eps, r, log_tau, sign):
        """Centroid shift, its tau-slope and p_f against the Gaussian closed
        forms at 40 digits: p_f = (1 - E cos(th)) / 2 as in `biased_p_f_closed`
        and shift = 2 b dw^2 E sin(th) / (1 - E cos(th)), with E = exp(-2 b^2
        dw^2), th = 2 (om0 b - eps), b = beta + tau. The shift sum_w w P(w) -
        om0 cancels om0, and the slope's sum cancels om0 times sum |dP/db| ~
        om0 / sqrt(p_f): below those roundoff floors no relative bound
        applies."""
        mp = pytest.importorskip("mpmath")
        om0 = 10**log_om0
        eps = 10**log_eps
        spec = BiasedSpec(
            tau=sign * eps / om0 * 10**log_tau, beta=r * eps / om0, epsilon=eps,
            omega0=om0, delta_omega=om0 * 10**log_width,
        )
        res = biased_scheme(spec)
        with mp.workdps(40):
            dw, b = mp.mpf(spec.delta_omega), mp.mpf(spec.beta) + mp.mpf(spec.tau)

            def e_th(x):
                return mp.exp(-2 * x**2 * dw**2), 2 * (om0 * x - mp.mpf(eps))

            def shift(x):
                e, th = e_th(x)
                return 2 * x * dw**2 * e * mp.sin(th) / (1 - e * mp.cos(th))

            e, th = e_th(b)
            p_f = float((1 - e * mp.cos(th)) / 2)
            exact_shift, exact_slope = float(shift(b)), float(mp.diff(shift, b))
        assert res.p_f_grid == pytest.approx(p_f, rel=1e-10, abs=0)
        assert res.report.extras["p_f_closed_form"] == pytest.approx(p_f, rel=1e-14, abs=0)
        assert abs(res.centroid_shift - exact_shift) <= 1e-10 * abs(exact_shift) + 1e-14 * om0
        assert abs(res.report.extras["slope"] - exact_slope) <= (
            1e-10 * abs(exact_slope) + 1e-14 * om0**2 / math.sqrt(p_f)
        )


class TestRecycle:
    def test_lossless_conservation_and_gain(self):
        res = recycle_scheme(RecycleSpec(p_f=0.03, n_input=1000.0))
        assert res.total_detected == pytest.approx(1000.0, abs=1e-9)
        assert res.snr_gain == pytest.approx(1 / math.sqrt(0.03), abs=1e-12)

    def test_unit_probability(self):
        res = recycle_scheme(RecycleSpec(p_f=1.0))
        assert res.snr_gain == 1.0

    def test_lossy_rounds(self):
        p_f, loss, n = 0.03, 0.16, 1.0
        res = recycle_scheme(RecycleSpec(p_f=p_f, loss=loss, n_input=n))
        # geometric series against a 200-round explicit sum
        total = sum(p_f * n * ((1 - p_f) * (1 - loss)) ** j for j in range(200))
        assert res.total_detected == pytest.approx(total, rel=1e-12)

    def test_cavity_formula(self):
        g = cavity_gain(0.7, 0.4)
        expected = 0.3 / (1 + 0.6 * 0.7 - 2 * math.sqrt(0.7 * 0.6))
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(2.42, abs=0.01)  # the reported ~2.4 factor
        res = recycle_scheme(RecycleSpec(p_f=0.03, mode="cavity", mirror_r=0.7, loss=0.4))
        assert res.snr_gain == pytest.approx(math.sqrt(g), rel=1e-12)


class TestPhaseSpace:
    def test_selection_probability_closed_form(self):
        nbar, eps, g = 100.0, 0.1, 1e-4
        spec = PhaseSpaceSpec(g=g, epsilon=eps, meter=FockMeter.coherent(math.sqrt(nbar)))
        res = phase_space_scheme(spec)
        expected = 0.5 * (
            1 - math.cos(g * nbar + eps) * math.exp(-nbar * g**2 / 2)
        )
        assert res.report.p_f == pytest.approx(expected, rel=1e-4)

    def test_f_p_heisenberg_scaling(self):
        eps, g = 0.1, 1e-7
        fps = []
        for nbar in (100.0, 1000.0):
            spec = PhaseSpaceSpec(
                g=g, epsilon=eps, meter=FockMeter.coherent(math.sqrt(nbar))
            )
            fps.append(phase_space_scheme(spec).f_p)
        assert fps[0] == pytest.approx(100.0**2, rel=1e-2)
        assert fps[1] == pytest.approx(1000.0**2, rel=1e-2)

    @pytest.mark.parametrize("eps", [math.pi - 1e-4, math.pi - 1e-3, 0.1])
    def test_f_p_is_the_budget_f_p(self, eps):
        # near eps = pi, p_f -> 1 and 1 - p_f loses the digits that p_r keeps;
        # the reported F_p is the budget's, off the rarer arm. Reference: the
        # 40-digit F_p = f'^2 / (1 - f^2) of p_f = (1 - f) / 2, f(g) =
        # Re[e^{-i eps} exp(nbar (e^{-i g} - 1))] for a coherent meter
        mp = pytest.importorskip("mpmath")
        g, nbar = 1e-6, 100.0
        res = phase_space_scheme(
            PhaseSpaceSpec(g=g, epsilon=eps, meter=FockMeter.coherent(math.sqrt(nbar)))
        )
        assert res.report.extras["f_p"] == res.report.fisher == res.f_p == res.budget.f_p
        with mp.workdps(40):
            def f(x):
                return mp.re(mp.exp(-1j * mp.mpf(eps)) * mp.exp(nbar * (mp.exp(-1j * x) - 1)))

            exact = float(mp.diff(f, mp.mpf(g)) ** 2 / (1 - f(mp.mpf(g)) ** 2))
        assert res.f_p == pytest.approx(exact, rel=1e-12)

    def test_zero_coupling_trivial(self):
        spec = PhaseSpaceSpec(g=0.0, epsilon=0.1, meter=FockMeter.coherent(3.0))
        res = phase_space_scheme(spec)
        initial = spec.meter.number_probabilities()
        assert np.max(np.abs(res.photon_distribution - initial)) < 1e-12
        assert res.mean_shift == pytest.approx(0.0, abs=1e-9)

    def test_mean_shift_prediction(self):
        spec = PhaseSpaceSpec(g=1e-5, epsilon=0.1, meter=FockMeter.coherent(10.0))
        res = phase_space_scheme(spec)
        assert res.mean_shift == pytest.approx(res.predicted_mean_shift, rel=0.02)

    @pytest.mark.parametrize("nbar", [25.0, 200.0])
    def test_budget_identity_pure_coherent(self, nbar):
        spec = PhaseSpaceSpec(
            g=1e-3, epsilon=0.1, meter=FockMeter.coherent(math.sqrt(nbar))
        )
        res = phase_space_scheme(spec)
        assert res.budget is not None and res.budget.residual < 1e-4

    def test_budget_components(self):
        # exact arm QFIs both contribute Var(n) = N (closing the identity
        # 2N + N^2), while the photon-number READOUT of the success arm
        # carries the (1 - eps^2/4) N classical share and F_p ~ N^2
        nbar, eps = 100.0, 0.1
        spec = PhaseSpaceSpec(
            g=1e-7, epsilon=eps, meter=FockMeter.coherent(math.sqrt(nbar))
        )
        res = phase_space_scheme(spec)
        b = res.budget
        assert b.p_f_q_f == pytest.approx(nbar, rel=0.01)
        assert b.p_r_q_r == pytest.approx(nbar, rel=0.01)
        assert b.f_p == pytest.approx(nbar**2, rel=0.01)
        assert res.report.p_f * res.f_photon == pytest.approx(
            (1 - eps**2 / 4) * nbar, rel=0.01
        )
        p_r = 1 - res.report.p_f
        assert p_r * res.report.extras["f_photon_failure"] == pytest.approx(
            eps**2 * nbar / 4, rel=0.02
        )

    def test_mixed_meter_keeps_heisenberg_variance(self):
        # balanced vacuum + |alpha|^2 = 2 nbar: Var(n) = nbar^2 + nbar >= N^2/4
        nbar = 25.0
        meter = FockMeter.mixture([(0.5, 0.0), (0.5, math.sqrt(2 * nbar))])
        spec = PhaseSpaceSpec(g=1e-7, epsilon=0.1, meter=meter)
        res = phase_space_scheme(spec)
        var_n = res.report.extras["meter_var_n"]
        assert var_n == pytest.approx(nbar**2 + nbar, rel=1e-6)
        # detected photon statistics track the closed form
        # F^(ps) = 4 N_p Im(w)^2 Var(n) with N_p the success probability
        assert res.report.p_f * res.f_photon == pytest.approx(
            res.report.extras["f_wva_ps_closed"], rel=0.01
        )

    def test_mixture_probability_is_component_average(self):
        meter = FockMeter.mixture([(0.4, 2.0), (0.6, 5.0)])
        spec = PhaseSpaceSpec(g=1e-4, epsilon=0.1, meter=meter)
        res = phase_space_scheme(spec)
        p_f = [
            PhaseSpaceSpec(g=1e-4, epsilon=0.1, meter=FockMeter.coherent(alpha))
            .selection().kernels(spec.g).p_f()
            for alpha in (2.0, 5.0)
        ]
        assert res.report.p_f == pytest.approx(0.4 * p_f[0] + 0.6 * p_f[1], rel=1e-12)


class TestEntangled:
    def test_single_probe_reduces_to_qubit_scheme(self):
        res = entangled_scheme(EntangledSpec(phi=1e-5, epsilon=0.01, n=1))
        assert res.q_jt == 4.0
        assert res.report.fisher == pytest.approx(4.0, rel=1e-3)

    def test_heisenberg_qfi_exact(self):
        for n in (1, 50, 10**3, 10**6):
            res = entangled_scheme(EntangledSpec(phi=0.0, epsilon=1e-9, n=n))
            assert res.q_jt == 4.0 * n**2  # exact arithmetic identity

    def test_max_prob_variant(self):
        n, eps = 50, 1e-3
        res = entangled_scheme(EntangledSpec(phi=0.0, epsilon=eps, n=n))
        assert res.report.p_f == pytest.approx(math.sin(n * eps) ** 2, rel=1e-12)
        assert res.report.p_f == pytest.approx((n * eps) ** 2, rel=1e-2)
        assert res.report.extras["weak_value_modulus"] == pytest.approx(
            1 / eps, rel=1e-2
        )

    def test_max_weak_value_variant(self):
        n, eps = 50, 1e-3
        res = entangled_scheme(
            EntangledSpec(phi=0.0, epsilon=eps, n=n, variant="max_weak_value")
        )
        assert res.report.p_f == pytest.approx(n * eps**2, rel=1e-2)
        assert res.report.extras["weak_value_modulus"] == pytest.approx(
            math.sqrt(n) / eps, rel=1e-2
        )

    @given(
        st.floats(-0.05, 0.05),
        st.floats(1e-3, 0.1),
        st.integers(1, 10),
        st.sampled_from(["max_prob", "max_weak_value"]),
    )
    def test_p_f_closed_form_is_the_kernel_p_f(self, phi, epsilon, n, variant):
        # sin^2(d) alone, the phi = 0 value, read 8.1 % low at phi = 0.003,
        # N = 10; d and N phi stay within (-pi/2, pi/2), where p_f >= 5e-7
        res = entangled_scheme(EntangledSpec(phi=phi, epsilon=epsilon, n=n, variant=variant))
        assert res.report.extras["p_f_closed_form"] == pytest.approx(res.report.p_f, rel=1e-12)

    def test_sql_baseline(self):
        res = entangled_scheme(EntangledSpec(phi=0.0, epsilon=0.01, n=25))
        assert res.report.extras["sql_baseline"] == 100.0

    def test_iterative_flag_carries(self):
        res = entangled_scheme(EntangledSpec(phi=0.0, epsilon=0.01, n=10))
        assert res.q_jt == 400.0


class TestCatalogInvariants:
    def test_reported_fisher_bounded_by_joint_qfi(self):
        # data processing across the catalog: no scheme reports more
        # information per input trial than the joint-state QFI
        tol = 1 + 1e-4
        std = standard_scheme(StandardSpec(g=0.02, sigma=1.0, epsilon=0.1))
        assert std.report.fisher <= std.report.extras["q_jt"] * tol

        ab = abwva_scheme(ABWVASpec(g=1e-3, epsilon=0.2, sigma=1.0))
        assert ab.report.fisher <= 1.0 * tol  # q_jt = 1/sigma^2

        ps = phase_space_scheme(
            PhaseSpaceSpec(g=1e-5, epsilon=0.1, meter=FockMeter.coherent(5.0))
        )
        assert ps.report.fisher <= ps.report.extras["q_jt"] * tol

        ent = entangled_scheme(EntangledSpec(phi=1e-4, epsilon=0.01, n=20))
        assert ent.report.fisher <= ent.q_jt * tol

        # inverse WVA estimates a selection angle; its joint QFI about that
        # angle is 4 Var(n1) = 1
        inv = inverse_scheme(InverseSpec(g=1e-2, sigma=1.0, phi_angle=5e-4))
        assert inv.report.fisher <= 1.0 * tol
