import math

import numpy as np
import pytest

from oracles import (
    aav_shifts,
    exact_shifts,
    orthogonal_shifts,
    orthogonal_weak_value,
    trapped_ion_extremal_theta,
)
from wvlab.coupling import (
    CouplingConfig,
    RegimeKind,
    aav_condition_margin,
    classify_regime,
    evolve_joint,
    postselect,
    trapped_ion_shift,
)
from wvlab.errors import DegenerateDenominator, IncompatibleMeter
from wvlab.meter import FockMeter, GaussianMeter, SampledDistribution, to_grid
from wvlab.qsys import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    SystemState,
    bloch_state,
    weak_value,
)

SQ2_HALF = math.sqrt(2) / 2


class TestEvolveJoint:
    def test_zero_coupling_is_product(self):
        pre = bloch_state(0.8, 0.2)
        joint = evolve_joint(pre, GaussianMeter(1.0), CouplingConfig(0.0, SIGMA_Z))
        for b in joint.branches:
            assert b.meter.mean_q == 0.0

    def test_eigenstate_single_displacement(self):
        joint = evolve_joint(
            SystemState(np.array([1.0, 0.0])), GaussianMeter(1.0), CouplingConfig(0.3, SIGMA_Z)
        )
        weights = {b.eigenvalue: abs(b.amplitude) ** 2 for b in joint.branches}
        assert weights[1.0] == pytest.approx(1.0)
        assert weights[-1.0] == pytest.approx(0.0)
        meter = {b.eigenvalue: b.meter for b in joint.branches}[1.0]
        assert meter.mean_q == pytest.approx(0.3)

    def test_unitarity_on_grid(self):
        rng = np.random.default_rng(2)
        base = to_grid(GaussianMeter(1.0), 16.0, 2048)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            pre = SystemState(v / np.linalg.norm(v))
            joint = evolve_joint(pre, base, CouplingConfig(0.4, SIGMA_Z))
            total = sum(
                abs(b.amplitude) ** 2 * b.meter.norm() for b in joint.branches
            )
            assert abs(total - 1.0) < 1e-12

    def test_incompatible_meter(self):
        # a meter type with no coupling generator, and a Fock mixture, which
        # is not one pure meter state per branch
        pre, cfg = bloch_state(1.0, 0.0), CouplingConfig(0.1, SIGMA_Z)
        with pytest.raises(IncompatibleMeter, match="no coupling generator"):
            evolve_joint(pre, SampledDistribution(np.linspace(-1.0, 1.0, 8), np.ones(8)), cfg)
        with pytest.raises(IncompatibleMeter, match="pure meters"):
            evolve_joint(pre, FockMeter.mixture([(0.5, 1.0), (0.5, 2.0)]), cfg)

    def test_meter_fixes_the_generator(self):
        # one coupling: a Gaussian or grid meter is kicked by a_k g in
        # position, a Fock meter's level n takes the phase exp(-i a_k g n)
        pre, g = bloch_state(1.0, 0.0), 0.3
        cfg = CouplingConfig(g, SIGMA_Z)
        for b in evolve_joint(pre, GaussianMeter(1.0), cfg).branches:
            assert b.meter.mean_q == b.eigenvalue * g
        for b in evolve_joint(pre, to_grid(GaussianMeter(1.0), 16.0, 2048), cfg).branches:
            assert b.meter.mean_q() == pytest.approx(b.eigenvalue * g, abs=1e-12)
        coherent = FockMeter.coherent(1.5)
        (_, state), = coherent.component_states()
        n = np.arange(state.coeffs.size)
        for b in evolve_joint(pre, coherent, cfg).branches:
            assert np.array_equal(b.meter.coeffs, state.coeffs * np.exp(-1j * (b.eigenvalue * g) * n))


class TestPostselect:
    def test_probabilities_sum_exactly(self):
        pre, post = bloch_state(0.9, 0.1), bloch_state(2.0, 1.3)
        joint = evolve_joint(pre, GaussianMeter(1.0), CouplingConfig(0.2, SIGMA_Z))
        ps = postselect(joint, post)
        assert ps.p_f + ps.p_r == 1.0
        assert abs(ps.success_meter.norm() - 1.0) < 1e-10
        assert abs(ps.failure_meter.norm() - 1.0) < 1e-10

    def test_orthogonal_zero_coupling_empty(self):
        pre = bloch_state(0.0, 0.0)
        joint = evolve_joint(pre, GaussianMeter(1.0), CouplingConfig(0.0, SIGMA_Z))
        ps = postselect(joint, SystemState(np.array([0.0, 1.0])))
        assert ps.empty and ps.p_f <= 1e-14 and ps.success_meter is None

    def test_fig1_shift_matches_closed_form(self):
        # epsilon = 0.01, g = sigma/400: mean shift follows the second-order
        # form (the first-order g Re<A>_w overshoots by ~6% here)
        sigma = SQ2_HALF
        g = sigma / 400
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 0.01, 0.0)
        w = weak_value(pre, post, SIGMA_Z)
        joint = evolve_joint(pre, GaussianMeter(sigma), CouplingConfig(g, SIGMA_Z))
        ps = postselect(joint, post)
        expected_q, _ = exact_shifts(w, g, sigma)
        assert ps.success_meter.mean_q() == pytest.approx(expected_q, rel=1e-4)

    def test_fock_postselection(self):
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(np.pi / 2 + 0.4, 0.0)
        cfg = CouplingConfig(0.01, SIGMA_Z)
        joint = evolve_joint(pre, FockMeter.coherent(2.0), cfg)
        ps = postselect(joint, post)
        assert ps.p_f + ps.p_r == 1.0
        assert abs(ps.success_meter.norm() - 1.0) < 1e-10


class TestShiftFormulas:
    def test_aav_shift_values(self):
        sigma = SQ2_HALF
        q, p = aav_shifts(200.0, sigma / 400, sigma)
        assert q == pytest.approx(sigma / 2)
        assert p == 0.0

    def test_aav_imaginary(self):
        # w = -2i/phi at phi = 0.01: <P>_f = g Im(w)/(2 sigma^2)
        g, sigma = 1e-4, 1.0
        w = -2j / 0.01
        q, p = aav_shifts(w, g, sigma)
        assert q == 0.0
        assert p == pytest.approx(g * (-200.0) / (2 * sigma**2))

    def test_exact_shift_maxima(self):
        # max over real (imaginary) weak values at weak coupling
        g, sigma = 1e-4, 1.0
        ws = np.linspace(1.0, 1e6, 200001)
        q_max = max(exact_shifts(w, g, sigma)[0] for w in ws)
        assert q_max == pytest.approx(sigma, abs=1e-6)
        p_max = max(exact_shifts(1j * w, g, sigma)[1] for w in ws)
        assert p_max == pytest.approx(1 / (2 * sigma), abs=1e-6)

    def test_exact_shift_odd_in_g(self):
        q1, p1 = exact_shifts(3 + 2j, 0.07, 1.2)
        q2, p2 = exact_shifts(3 + 2j, -0.07, 1.2)
        assert (q1, p1) == (-q2, -p2)

    def test_consistency_ladder(self):
        # grid-exact -> second-order within O((g/sigma)^3);
        # second-order -> first-order within O((g|w|/sigma)^2)
        sigma = 1.0
        pre = bloch_state(np.pi / 2, 0.0)
        for g_rel in (1e-2, 1e-3):
            for target_w in (1.0, 10.0):
                eps = 2 * math.atan(1.0 / target_w)
                post = bloch_state(-np.pi / 2 + eps, 0.0)
                w = weak_value(pre, post, SIGMA_Z)
                g = g_rel * sigma
                base = to_grid(GaussianMeter(sigma), 16.0 + 8 * g, 4096)
                joint = evolve_joint(pre, base, CouplingConfig(g, SIGMA_Z))
                mean_grid = postselect(joint, post).success_meter.mean_q()
                q2, _ = exact_shifts(w, g, sigma)
                q1, _ = aav_shifts(w, g, sigma)
                scale = abs(w.real) * g
                assert abs(mean_grid - q2) <= 5 * scale * (g * abs(w) / sigma) ** 2 + 1e-12
                assert abs(q2 - q1) <= 1.0 * scale * (g * abs(w) / sigma) ** 2 + 1e-14


class TestRegimes:
    def test_labels(self):
        assert classify_regime(10.0, 1.0, 1.0).kind is RegimeKind.STRONG
        assert classify_regime(0.01, 1.0, 2.0).kind is RegimeKind.STANDARD_WVA
        assert classify_regime(0.01, 1.0, 1000.0).kind is RegimeKind.INVERSE_WVA

    def test_margins_reported(self):
        label = classify_regime(0.01, 1.0, 50.0)
        assert label.g_over_sigma == pytest.approx(0.01)
        assert label.gw_over_sigma == pytest.approx(0.5)


class TestTrappedIon:
    def test_strong_limit(self):
        theta = 0.6
        got = trapped_ion_shift(10.0, theta, 1.0)
        assert got == pytest.approx(-math.sin(2 * theta), abs=1e-6)

    def test_weak_limit_is_weak_value(self):
        theta = np.pi / 4
        got = trapped_ion_shift(1e-3, theta, 1.0)
        assert got == pytest.approx(-1 / math.tan(theta), abs=1e-6)

    def test_extremal_angle(self):
        gamma = 0.8
        theta_star = trapped_ion_extremal_theta(gamma)
        thetas = np.linspace(1e-3, np.pi / 2 - 1e-3, 20001)
        shifts = [abs(trapped_ion_shift(gamma, t, 1.0)) for t in thetas]
        assert thetas[int(np.argmax(shifts))] == pytest.approx(theta_star, abs=1e-3)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            trapped_ion_shift(1e-9, 1e-9, 1.0)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    def test_grid_simulation_matches(self, gamma):
        # pre |1>, A = sigma_x, post cos(t)|0> - sin(t)|1>, g = Gamma sigma
        sigma, theta = 1.0, 0.5
        g = gamma * sigma
        pre = SystemState(np.array([0.0, 1.0]))
        post = SystemState(np.array([math.cos(theta), -math.sin(theta)]))
        base = to_grid(GaussianMeter(sigma), 16 * sigma + 8 * g, 4096)
        joint = evolve_joint(pre, base, CouplingConfig(g, SIGMA_X))
        mean = postselect(joint, post).success_meter.mean_q()
        assert mean == pytest.approx(trapped_ion_shift(gamma, theta, g), rel=0.01)


class TestOrthogonalShifts:
    def test_real_value_no_momentum_shift(self):
        q, p = orthogonal_shifts(0.37, 0.01, 1.0)
        assert p == 0.0 and q == pytest.approx(0.0037)

    def test_grid_oracle_qutrit(self):
        # strictly orthogonal pre/post on a qutrit; tiny g
        rng = np.random.default_rng(8)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = Observable((m + m.conj().T) / 2)
        pre = SystemState(np.array([1.0, 0.0, 0.0], dtype=complex))
        post = SystemState(np.array([0.0, 1.0, 0.0], dtype=complex))
        a_ow = orthogonal_weak_value(pre.density(), Observable(post.density().matrix), a, 1, 0)
        g, sigma = 1e-4, 1.0
        eig_span = np.max(np.abs(np.linalg.eigvalsh(a.matrix)))
        base = to_grid(GaussianMeter(sigma), 16.0 + 8 * g * eig_span, 4096)
        joint = evolve_joint(pre, base, CouplingConfig(g, a))
        cm = postselect(joint, post).success_meter
        q_pred, p_pred = orthogonal_shifts(a_ow, g, sigma)
        assert cm.mean_q() == pytest.approx(q_pred, rel=1e-4, abs=1e-10)
        assert cm.momentum().mean_q() == pytest.approx(p_pred, rel=1e-4, abs=1e-10)

    def test_bimodal_figure_values(self):
        # A_ow = 0.2 + 0.1i gives means (0.2 g, 0.3 g / (2 sigma^2))
        q, p = orthogonal_shifts(0.2 + 0.1j, 0.05, 1.0)
        assert q == pytest.approx(0.01)
        assert p == pytest.approx(3 * 0.05 * 0.1 / 2)


class TestAavMargin:
    def test_zero_coupling(self):
        pre, post = bloch_state(0.4, 0.0), bloch_state(1.4, 0.0)
        assert aav_condition_margin(pre, post, SIGMA_Z, 0.0, 1.0) == 0.0

    def test_figure_one_parameters_valid(self):
        sigma = SQ2_HALF
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 0.01, 0.0)
        assert aav_condition_margin(pre, post, SIGMA_Z, sigma / 400, sigma) < 1.0

    def test_huge_weak_value_violates(self):
        sigma = 1.0
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 1e-6, 0.0)  # |w| ~ 2e6
        assert aav_condition_margin(pre, post, SIGMA_Z, 0.01, sigma) > 1.0
