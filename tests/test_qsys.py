import numpy as np
import pytest

from oracles import NotOrthogonal, expectation, high_order_weak_value, orthogonal_weak_value
from wvlab.errors import DegenerateDenominator, NullVector, OrthogonalSelection
from wvlab.qsys import (
    PROJ_ONE,
    SIGMA_X,
    SIGMA_Z,
    DensityState,
    Observable,
    SystemState,
    bloch_state,
    optimal_postselection,
    weak_value,
)


def random_state(rng, d=2):
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return SystemState(vec / np.linalg.norm(vec))


def random_hermitian(rng, d=2):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Observable((m + m.conj().T) / 2)


class TestStates:
    def test_bloch_poles_and_equator(self):
        assert np.allclose(bloch_state(0, 0).amplitudes, [1, 0])
        assert np.allclose(bloch_state(np.pi / 2, 0).amplitudes, [1, 1] / np.sqrt(2))
        assert np.allclose(
            bloch_state(np.pi / 2, np.pi / 2).amplitudes, [1, 1j] / np.sqrt(2)
        )

    def test_norm_validated(self):
        with pytest.raises(ValueError):
            SystemState(np.array([1.0, 1.0]))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityState(np.array([[0.5, 0.3j], [0.3j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityState(np.array([[0.9, 0.0], [0.0, 0.2]]))  # trace != 1
        with pytest.raises(ValueError):
            DensityState(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue

    def test_observable_hermitian(self):
        with pytest.raises(ValueError):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestWeakValue:
    def test_large_real_weak_value(self):
        # theta_f detuned by 0.01 from orthogonality gives <A>_w ~ 200
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2 + 0.01, 0.0)
        w = weak_value(pre, post, SIGMA_Z)
        assert abs(w.imag) < 1e-9
        assert w.real == pytest.approx(1 / np.tan(0.005), rel=1e-12)
        assert w.real == pytest.approx(200.0, abs=0.01)

    def test_large_imaginary_weak_value(self):
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2, 0.01)
        w = weak_value(pre, post, SIGMA_Z)
        assert abs(w.real) < 1e-9
        assert w.imag == pytest.approx(-200.0, abs=0.01)

    def test_identity_postselection_is_expectation(self):
        rng = np.random.default_rng(42)
        for d in (2, 3):
            for _ in range(500):
                st = random_state(rng, d)
                a = random_hermitian(rng, d)
                w = weak_value(st, st, a)
                assert abs(w - expectation(st, a)) < 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pre, post = random_state(rng), random_state(rng)
            a = random_hermitian(rng)
            w0 = weak_value(pre, post, a)
            pre2 = SystemState(pre.amplitudes * np.exp(0.7j))
            post2 = SystemState(post.amplitudes * np.exp(-1.3j))
            assert abs(weak_value(pre2, post2, a) - w0) < 1e-12

    def test_orthogonal_raises(self):
        with pytest.raises(OrthogonalSelection):
            weak_value(bloch_state(0, 0), bloch_state(np.pi, 0), SIGMA_Z)


class TestHighOrderWeakValue:
    def test_reduces_to_standard(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pre, post = random_state(rng), random_state(rng)
            a = random_hermitian(rng)
            rho = pre.density()
            pi_f = post.density()
            try:
                w = weak_value(pre, post, a)
            except OrthogonalSelection:
                continue
            hw = high_order_weak_value(rho, Observable(pi_f.matrix), a, 1, 0)
            # Tr(Pi A rho)/Tr(Pi rho) = <f|A|i><i|f> / |<f|i>|^2 = w
            assert abs(hw - w) < 1e-10 * max(1.0, abs(w))

    def test_zeroth_order_is_one(self):
        rng = np.random.default_rng(11)
        pre, post = random_state(rng), random_state(rng)
        hw = high_order_weak_value(
            pre.density(), Observable(post.density().matrix), random_hermitian(rng), 0, 0
        )
        assert hw == pytest.approx(1.0, abs=1e-12)

    def test_involutory_observable_orders(self):
        # A^2 = I: the one-sided second order is exactly 1, and the symmetric
        # (1,1) order equals |<A>_w|^2 for pure states (as the second-order
        # shift formulas require)
        rng = np.random.default_rng(5)
        for _ in range(50):
            pre, post = random_state(rng), random_state(rng)
            pi_f = Observable(post.density().matrix)
            try:
                one_sided = high_order_weak_value(pre.density(), pi_f, SIGMA_Z, 2, 0)
                symmetric = high_order_weak_value(pre.density(), pi_f, SIGMA_Z, 1, 1)
                w = weak_value(pre, post, SIGMA_Z)
            except OrthogonalSelection:
                continue
            assert one_sided == pytest.approx(1.0, abs=1e-10)
            assert abs(symmetric.imag) <= 1e-12 * max(1.0, abs(symmetric))
            assert symmetric.real == pytest.approx(abs(w) ** 2, rel=1e-9)

    def test_symmetric_order_real_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pre, post = random_state(rng), random_state(rng)
            a = random_hermitian(rng)
            try:
                hw = high_order_weak_value(
                    pre.density(), Observable(post.density().matrix), a, 1, 1
                )
            except OrthogonalSelection:
                continue
            assert abs(hw.imag) < 1e-10
            assert hw.real >= -1e-10


class TestOrthogonalWeakValue:
    def test_zeroth_order_is_one(self):
        rho = SystemState(np.array([1.0, 0.0])).density()
        pi_f = Observable(SystemState(np.array([0.0, 1.0])).density().matrix)
        ow = orthogonal_weak_value(rho, pi_f, SIGMA_X, 0, 0)
        assert ow == pytest.approx(1.0, abs=1e-12)

    def test_matrix_product_oracle(self):
        # direct evaluation of the defining trace ratio on a qutrit
        rng = np.random.default_rng(23)
        pre = SystemState(np.array([1.0, 0.0, 0.0], dtype=complex))
        post = SystemState(np.array([0.0, 1.0, 0.0], dtype=complex))
        a = random_hermitian(rng, 3)
        rho, pi_f = pre.density().matrix, post.density().matrix
        m, l = 1, 0
        expected = np.trace(
            pi_f @ np.linalg.matrix_power(a.matrix, 2) @ rho @ a.matrix
        ) / (2 * np.trace(pi_f @ a.matrix @ rho @ a.matrix))
        got = orthogonal_weak_value(pre.density(), Observable(pi_f), a, m, l)
        assert abs(got - expected) < 1e-12

    def test_rejects_nonorthogonal(self):
        st = bloch_state(0.3, 0.0)
        with pytest.raises(NotOrthogonal):
            orthogonal_weak_value(
                st.density(), Observable(st.density().matrix), SIGMA_Z, 0, 0
            )

    def test_degenerate_denominator(self):
        pre = SystemState(np.array([1.0, 0.0]))
        pi_f = Observable(SystemState(np.array([0.0, 1.0])).density().matrix)
        with pytest.raises(DegenerateDenominator):
            orthogonal_weak_value(pre.density(), pi_f, SIGMA_Z, 0, 0)


class TestOptimalPostselection:
    def test_basis_flip(self):
        out = optimal_postselection(SystemState(np.array([1.0, 0.0])), SIGMA_X)
        assert np.allclose(np.abs(out.amplitudes), [0.0, 1.0])

    def test_equator(self):
        pre = bloch_state(np.pi / 2, 0.0)
        out = optimal_postselection(pre, SIGMA_Z)
        assert np.allclose(out.amplitudes, np.array([1.0, -1.0]) / np.sqrt(2))

    def test_unit_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            st, a = random_state(rng, 3), random_hermitian(rng, 3)
            out = optimal_postselection(st, a)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_annihilation_raises(self):
        with pytest.raises(NullVector):
            optimal_postselection(SystemState(np.array([1.0, 0.0])), PROJ_ONE)
