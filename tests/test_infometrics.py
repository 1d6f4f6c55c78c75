import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import FisherMethod, numeric_family, qfi_mixed, qfi_pure
from wvlab import infometrics
from wvlab.coupling import CouplingConfig, evolve_joint, postselect
from wvlab.errors import EmptyPostselection, IncompatibleMeter
from wvlab.infometrics import (
    PROBABILITY_FLOOR,
    Conditioning,
    InfoBudget,
    ParamDistribution,
    _arms,
    _generator_weights,
    classical_fisher,
    generator_moments,
    info_budget,
    qfi_joint,
    quadrature_family,
    scaling_bounds,
)
from wvlab.meter import FockMeter, GaussianMeter, SampledDistribution, to_grid
from wvlab.qsys import (
    PROJ_ONE,
    SIGMA_Z,
    Observable,
    SystemState,
    bloch_state,
    optimal_postselection,
)
from wvlab.schemes import StandardSpec


def gaussian_location_family(sigma=1.0, span=10.0, points=4001):
    grid = np.linspace(-span, span, points)

    def density(g):
        return np.exp(-((grid - g) ** 2) / (2 * sigma**2)) / math.sqrt(
            2 * np.pi * sigma**2
        )

    return numeric_family(density, grid=grid)


class TestClassicalFisher:
    def test_gaussian_location(self):
        rep = oracles.classical_fisher(gaussian_location_family(), 0.1)
        assert rep.fi == pytest.approx(1.0, rel=1e-8)
        assert rep.method is FisherMethod.CENTRAL_DIFFERENCE

    def test_parameter_independent_binary_is_zero(self):
        dist = numeric_family(lambda g: np.array([0.3, 0.7]))
        assert oracles.classical_fisher(dist, 0.5).fi == 0.0

    def test_binary_selection_statistics(self):
        # a selection probability [1 - cos(kg + eps)]/2 carries F_p -> k^2 at
        # g -> 0 for any small eps. The photon-number coupling produces
        # k = N (see the phase-space scheme tests for the exact pipeline,
        # where F_p ~ N^2); the doubled-phase variant k = 2N would give 4N^2.
        n, eps = 300.0, 0.05
        for k in (n, 2 * n):
            dist = oracles.binary_selection_distribution(
                lambda g, kk=k: (1 - math.cos(kk * g + eps)) / 2
            )
            fi = oracles.classical_fisher(dist, 0.0, h=1e-9).fi
            assert fi == pytest.approx(k**2, rel=1e-3)

    def test_analytic_derivative_path(self):
        grid = np.linspace(-10, 10, 2001)

        def density(g):
            return np.exp(-((grid - g) ** 2) / 2) / math.sqrt(2 * np.pi)

        def deriv(g):
            return (grid - g) * density(g)

        dist = ParamDistribution(density, grid=grid, derivative=deriv)
        assert classical_fisher(dist, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_step_too_large(self):
        def evaluator(g):
            if g < 0:
                raise ValueError("domain")
            return np.array([g, 1 - g])

        dist = numeric_family(evaluator)
        with pytest.raises(oracles.StepTooLarge):
            oracles.classical_fisher(dist, 0.3, h=0.5)

    def test_additivity_on_product(self):
        # FI of a two-fold product distribution doubles the single-copy FI
        def single(g):
            return np.array([0.2 + g, 0.8 - g])

        def product(g):
            p = single(g)
            return np.outer(p, p).ravel()

        f1 = oracles.classical_fisher(numeric_family(single), 0.1).fi
        f2 = oracles.classical_fisher(numeric_family(product), 0.1).fi
        assert f2 == pytest.approx(2 * f1, abs=1e-9)


@pytest.mark.parametrize("kind", ["continuous", "discrete", "selection"])
def test_kernel_family_memo_is_bitwise_neutral(kind, monkeypatch):
    # the family builds the kernels only when g differs from the last g built,
    # whatever it is asked for; the oracle builds them again for every call
    pre = bloch_state(1.2, 0.0)
    post = optimal_postselection(pre, SIGMA_Z)
    if kind == "continuous":
        q = np.linspace(-16.0, 16.0, 256, endpoint=False)
        cond = Conditioning.of(pre, post, SIGMA_Z, q, np.full(q.size, q[1] - q[0]), GaussianMeter(1.0))
        grid, scale = q, 1.0 / float(q[1] - q[0])
    else:
        cfg = CouplingConfig(0.0, SIGMA_Z)
        cond = Conditioning.of_meter(pre, post, cfg, FockMeter.coherent(3.0))
        grid, scale = None, 1.0
    build, built = Conditioning.kernels, []

    def kernels(self, g):
        built.append(g)
        return build(self, g)

    monkeypatch.setattr(Conditioning, "kernels", kernels)
    family = cond.selection_family() if kind == "selection" else cond.family(grid)

    def oracle(name, g):
        kern = build(cond, g)
        if kind == "selection":
            p, dp = kern.p_f(), kern.dp_dg()
            return np.array([p, 1.0 - p] if name == "probabilities" else [dp, -dp]).tobytes()
        return (scale * (kern.density() if name == "probabilities" else kern.density_dg())).tobytes()

    # (call, g, whether it builds the kernels)
    calls = [("probabilities", 0.01, True), ("derivative", 0.01, False),
             ("derivative", 0.01, False), ("probabilities", 0.01, False),
             ("probabilities", 0.02, True), ("derivative", 0.01, True),
             ("derivative", 0.02, True), ("probabilities", 0.02, False)]
    for name, g, builds in calls:
        before = len(built)
        assert getattr(family, name)(g).tobytes() == oracle(name, g)
        assert len(built) - before == builds, (name, g)
    # the mean and spread read the same probabilities, so they build nothing
    family.mean_std(0.02)
    assert built == [0.01, 0.02, 0.01, 0.02]


@st.composite
def _conditionings(draw):
    """(Conditioning, g) over random complex u, real a and g, on a Fock
    or momentum spectrum or on the position axis of a Gaussian meter,
    with and without a mean momentum."""
    d = draw(st.integers(2, 4))
    unit = st.floats(-1.0, 1.0)
    u = np.array([complex(draw(unit), draw(unit)) for _ in range(d)])
    a = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(d)])
    g = draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["fock", "momentum", "position", "position_mean_p"]))
    position = None
    if kind == "fock":
        values = np.arange(draw(st.integers(1, 20000)), dtype=float)
    elif kind == "momentum":
        s, mean = draw(st.floats(0.1, 5.0)), draw(st.floats(-2.0, 2.0))
        values = np.linspace(mean - 8 * s, mean + 8 * s, 4096, endpoint=False)
    else:
        sigma = draw(st.floats(0.1, 5.0))
        mean_p = draw(st.floats(-2.0, 2.0)) if kind == "position_mean_p" else 0.0
        position = GaussianMeter(sigma, draw(st.floats(-1.0, 1.0)), mean_p)
        span = 16 * sigma + 8 * abs(g)
        values = np.linspace(-span, span, 1024, endpoint=False)
    return Conditioning(u, a, values, np.ones(values.size), position), g


class TestKernelSums:
    """K and J are sums over A's eigenvalues, with no matrix product on a
    readout-length axis; each reading of one build shares its arrays."""

    MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "outer"}

    @staticmethod
    def _kernel_code():
        """The AST of `Conditioning.kernels` and of every method of
        `_Kernels`."""
        tree = ast.parse(Path(infometrics.__file__).read_text(encoding="utf-8"))
        classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        methods = [m for m in classes["Conditioning"].body
                   if isinstance(m, ast.FunctionDef) and m.name == "kernels"]
        methods += [m for m in classes["_Kernels"].body if isinstance(m, ast.FunctionDef)]
        return methods

    def test_no_matrix_product_in_the_engine(self):
        methods = self._kernel_code()
        assert {"kernels", "_kj", "_kjw", "density", "density_dg",
                "qfi_conditioned"} <= {m.name for m in methods}
        for method in methods:
            for node in ast.walk(method):
                assert not isinstance(node, (ast.BinOp, ast.AugAssign)) or not isinstance(
                    node.op, ast.MatMult), f"`@` in {method.name}"
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    assert name not in self.MATRIX_PRODUCTS, f"{name} in {method.name}"

    @settings(max_examples=200)
    @given(case=_conditionings())
    def test_sums_match_the_matrix_products(self, case):
        # |dK| <= 4 eps sum_k |u_k| |b_k| element by element, and the same for
        # J with its terms u_k a_k m b_k (spectrum) or i u_k a_k dpsi_k. The
        # floor `tiny` covers terms that round in the subnormal range, where
        # the relative bound underflows to 0
        cond, g = case
        kern = cond.kernels(g)
        k_ref, j_ref = oracles.kernels_by_matmul(cond, g)
        if cond.position is None:
            b, db = np.ones((cond.a.size, cond.values.size)), np.abs(cond.values)[None, :]
        else:
            meter = cond.position
            x = cond.values[None, :] - g * cond.a[:, None]
            b = np.abs(meter.amplitudes(x))
            db = np.abs((x - meter.mean_q) / (2 * meter.sigma**2) - 1j * meter.mean_p)
        eps = np.finfo(float).eps
        tiny = np.finfo(float).tiny
        bound_k = 4 * eps * np.sum(np.abs(cond.u)[:, None] * b, axis=0) + tiny
        bound_j = 4 * eps * np.sum(np.abs(cond.u * cond.a)[:, None] * b * db, axis=0) + tiny
        assert kern.k.dtype == kern.j.dtype == complex
        assert np.all(np.abs(kern.k - k_ref) <= bound_k)
        assert np.all(np.abs(kern.j - j_ref) <= bound_j)

    @pytest.mark.parametrize("readout", ["position", "spectrum"])
    def test_readings_are_each_formed_once_bitwise(self, readout):
        # each reading equals its own formula over K, J and w, formed anew
        pre = bloch_state(1.2, 0.4)
        post = optimal_postselection(pre, SIGMA_Z)
        if readout == "position":
            span = 16.0 + 8 * 0.3  # a coarse readout axis of sigma = 1 kicked by g = 0.3
            q = np.linspace(-span, span, 512, endpoint=False)
            cond = Conditioning.of(pre, post, SIGMA_Z, q, np.full(q.size, q[1] - q[0]),
                                   GaussianMeter(1.0, 0.1, 0.2))
        else:
            cond = Conditioning.of_meter(pre, post, CouplingConfig(0.0, SIGMA_Z),
                                         FockMeter.coherent(3.0))
        kern = cond.kernels(0.3)
        k, j, w = kern.k, kern.j, kern.weights
        p = float(np.sum(np.abs(k) ** 2 * w))
        dp = 2.0 * float(np.imag(np.sum(np.conj(k) * j * w)))
        jk = complex(np.sum(np.conj(j) * k * w))
        qfi = 4.0 * (float(np.sum(np.abs(j) ** 2 * w)) / p - abs(jk) ** 2 / p**2)
        assert (kern.p_f(), kern.dp_dg()) == (p, dp)
        assert kern.phase() == -float(np.real(np.sum(np.conj(k) * j * w))) / p
        assert kern.qfi_conditioned() == qfi
        assert kern.selection_fisher() == dp**2 / (p * (1.0 - p))
        assert kern.density().tobytes() == (np.abs(k) ** 2 * w / p).tobytes()
        dg = (2.0 * np.imag(np.conj(k) * j) - np.abs(k) ** 2 * dp / p) * w / p
        assert kern.density_dg().tobytes() == dg.tobytes()

    @pytest.mark.parametrize("a", [(0.0, 1.0), (1.0, 0.0), (0.0, -2.0), (-0.0, 0.0)])
    def test_zero_eigenvalue_takes_no_exp(self, a, monkeypatch):
        # b_k = exp(-i 0 m g) = 1 at every m: the term is u_k in K and 0 in
        # J, bitwise the exp formula's, with one exp per nonzero eigenvalue
        u, values = np.array([0.6 - 0.3j, -0.2 + 0.7j]), np.arange(50.0) - 10.0
        cond = Conditioning(u, np.array(a), values, np.ones(values.size))
        for g in (0.3, -0.1):
            b = [np.exp(-1j * (ak * values) * g) for ak in a]
            k_ref, j_ref = u[0] * b[0], (u[0] * a[0]) * b[0]
            k_ref += u[1] * b[1]
            j_ref += (u[1] * a[1]) * b[1]
            exp, calls = np.exp, []
            monkeypatch.setattr(np, "exp", lambda x: calls.append(x) or exp(x))
            kern = cond.kernels(g)
            monkeypatch.undo()
            assert len(calls) == sum(ak != 0 for ak in a)
            assert kern.k.tobytes() == k_ref.tobytes()
            assert kern.j.tobytes() == (values * j_ref).tobytes()

    def test_observable_is_decomposed_once(self, monkeypatch):
        # on first use, not at construction, and never again
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        a = Observable(np.array([[0.3, 1 - 2j], [1 + 2j, -0.7]]))
        assert calls == []
        pre = bloch_state(1.2, 0.4)
        cfg = CouplingConfig(0.0, a)
        for g in (0.01, 0.02):
            Conditioning.of_meter(pre, optimal_postselection(pre, a), cfg,
                                  FockMeter.coherent(2.0)).family().probabilities(g)
        assert len(calls) == 1
        values, vectors = a.eig()
        assert not values.flags.writeable and not vectors.flags.writeable
        assert np.array_equal(values, eigh(a.matrix)[0])


class TestGenerator:
    def test_meter_fixes_the_generator(self):
        # one coupling: a Gaussian meter's momentum, a Fock meter's photon
        # number, whose spectrum is the readout of `Conditioning.of_meter`
        assert generator_moments(GaussianMeter(2.0, 0.0, 0.3)) == (0.3, 1 / 16)
        mean, var = generator_moments(FockMeter.coherent(1.5))
        assert mean == pytest.approx(2.25, rel=1e-12) and var == pytest.approx(2.25, rel=1e-10)
        pre, post, cfg = bloch_state(1.0, 0.0), bloch_state(2.0, 0.0), CouplingConfig(0.01, SIGMA_Z)
        meter = FockMeter.coherent(1.5)
        fock = Conditioning.of_meter(pre, post, cfg, meter)
        assert np.array_equal(fock.values, np.arange(fock.values.size))
        assert np.array_equal(fock.weights, meter.number_probabilities() / meter.number_probabilities().sum())
        # a Gaussian meter's momentum on the 4096 midpoints of +-8 sd about
        # mean_p (sd 1/4 here): no node on the mean, and a centred spectrum is
        # its own mirror image bitwise, so -P reads the nodes +P reads
        gauss = Conditioning.of_meter(pre, post, cfg, GaussianMeter(2.0, 0.0, 0.3))
        assert np.array_equal(gauss.values, 0.3 + (np.arange(4096) - 2047.5) / 1024)
        p, w = _generator_weights(GaussianMeter(2.0))
        assert p[0] == -2 + 1 / 2048 and p[2048] == 1 / 2048
        assert np.array_equal(p, -p[::-1]) and np.array_equal(w, w[::-1])
        assert w.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.array_equal(gauss.weights, w)

    @pytest.mark.parametrize("call", ["of_meter", "info_budget"])
    @pytest.mark.parametrize("meter", [SampledDistribution(np.linspace(-1.0, 1.0, 8), np.ones(8)),
                                       to_grid(GaussianMeter(1.0), 16.0, 256)],
                             ids=["no_generator", "grid"])
    def test_meter_without_a_generator_spectrum(self, call, meter):
        # only a Gaussian or a Fock meter has a generator spectrum to read out
        pre, post, cfg = bloch_state(1.0, 0.0), bloch_state(2.0, 0.0), CouplingConfig(0.01, SIGMA_Z)
        run = Conditioning.of_meter if call == "of_meter" else info_budget
        with pytest.raises(IncompatibleMeter):
            run(pre, post, cfg, meter)


class TestQfiPure:
    def test_displaced_gaussian(self):
        base = to_grid(GaussianMeter(1.0), 16.0, 2048)
        cfg = CouplingConfig(0.0, SIGMA_Z)

        def family(g):
            joint = evolve_joint(SystemState(np.array([1.0, 0.0])), base,
                                 CouplingConfig(g, SIGMA_Z))
            return joint.branches[-1].meter if joint.branches[-1].eigenvalue > 0 else joint.branches[0].meter

        assert qfi_pure(family, 0.05) == pytest.approx(1.0, rel=1e-6)

    def test_two_level_generator_spread(self):
        # generator eigenvalues +-1 on the balanced superposition: QFI = 4
        def family(g):
            return np.array([np.exp(-1j * g), np.exp(1j * g)]) / math.sqrt(2)

        assert qfi_pure(family, 0.3) == pytest.approx(4.0, rel=1e-8)

    def test_qubit_meter_phase_scheme(self):
        # joint state of the qubit-meter scheme: QFI about phi equals 4
        plus = np.array([1.0, 1.0]) / math.sqrt(2)

        def family(phi):
            branches = [
                np.kron([1.0, 0.0], np.exp(-1j * phi * np.array([1, -1])) * plus),
                np.kron([0.0, 1.0], np.exp(+1j * phi * np.array([1, -1])) * plus),
            ]
            return (branches[0] + branches[1]) / math.sqrt(2)

        assert qfi_pure(family, 0.1) == pytest.approx(4.0, rel=1e-7)


class TestQfiMixed:
    @staticmethod
    def _rho(state_fn):
        def rho(g):
            v = state_fn(g)
            return np.outer(v, v.conj())

        return rho

    def test_pure_state_consistency(self):
        fam = lambda g: bloch_state(0.8 + g, 0.5).amplitudes
        qm = qfi_mixed(self._rho(fam), 0.2)
        qp = qfi_pure(lambda g: bloch_state(0.8 + g, 0.5), 0.2)
        assert qm == pytest.approx(qp, abs=1e-8)

    def test_convexity(self):
        fam_a = lambda g: bloch_state(0.9 + g, 0.4).amplitudes
        fam_b = lambda g: bloch_state(2.0 + 0.5 * g, 1.0).amplitudes

        def mix(g):
            a, b = fam_a(g), fam_b(g)
            return 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())

        q_mix = qfi_mixed(mix, 0.0)
        bound = 0.6 * qfi_pure(lambda g: SystemState(fam_a(g)), 0.0) + 0.4 * qfi_pure(
            lambda g: SystemState(fam_b(g)), 0.0
        )
        assert q_mix <= bound + 1e-9

    def test_additivity(self):
        fam = self._rho(lambda g: bloch_state(0.9 + g, 0.4).amplitudes)

        def prod(g):
            r = fam(g)
            return np.kron(r, r)

        assert qfi_mixed(prod, 0.0) == pytest.approx(2 * qfi_mixed(fam, 0.0), rel=1e-6)


class TestQfiJoint:
    def test_gaussian_balanced(self):
        pre = bloch_state(np.pi / 2, 0.0)
        cfg = CouplingConfig(0.1, SIGMA_Z)
        for sigma in (0.5, 1.0, 2.0):
            assert qfi_joint(pre, GaussianMeter(sigma), cfg) == pytest.approx(
                1 / sigma**2, rel=1e-12
            )

    def test_phase_space_coherent(self):
        pre = bloch_state(np.pi / 2, 0.0)
        cfg = CouplingConfig(0.01, PROJ_ONE)
        nbar = 9.0
        q = qfi_joint(pre, FockMeter.coherent(3.0), cfg)
        assert q == pytest.approx(2 * nbar + nbar**2, rel=1e-7)

    def test_eigenstate_drops_variance_term(self):
        pre = SystemState(np.array([1.0, 0.0]))
        cfg = CouplingConfig(0.1, SIGMA_Z)
        meter = GaussianMeter(1.0)  # <P> = 0
        assert qfi_joint(pre, meter, cfg) == pytest.approx(4 * meter.var_p(), rel=1e-12)


class TestQfiPostselected:
    def test_matches_conditioned_family_oracle(self):
        pre, post = bloch_state(0.7, 0.3), bloch_state(2.2, -0.5)
        sigma, g = 1.0, 0.08
        cfg = CouplingConfig(g, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        p_f, q_f = kern.p_f(), kern.qfi_conditioned()
        base = to_grid(GaussianMeter(sigma), 18.0, 4096)

        def family(gp):
            joint = evolve_joint(pre, base, CouplingConfig(gp, cfg.a))
            return postselect(joint, post).success_meter

        assert q_f == pytest.approx(qfi_pure(family, g), rel=1e-8)

    def test_optimal_selection_concentrates(self):
        # AAV regime: p_f Q_f catches ~ all of Q_jt at g/(2 sigma) = 0.05
        sigma = 1.0
        g = 0.1 * sigma
        pre = bloch_state(0.9, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        cfg = CouplingConfig(g, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        p_f, q_f = kern.p_f(), kern.qfi_conditioned()
        assert p_f * q_f / qfi_joint(pre, GaussianMeter(sigma), cfg) > 0.99

    def test_deep_regime_selection_share_vs_coupling(self):
        # the selection-statistics share at the orthogonal optimal selection
        # is exactly 2u/(e^{2u} - 1) with u = g^2/(2 sigma^2): it clears 0.99
        # for g/(2 sigma) <= 0.0707 but only reaches 0.9801 at g/(2 sigma)=0.1
        sigma = 1.0
        pre = bloch_state(np.pi / 2, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        meter = GaussianMeter(sigma)
        for g_over_2s, expect_pass in ((0.05, True), (0.1, False)):
            g = 2 * sigma * g_over_2s
            cfg = CouplingConfig(g, SIGMA_Z)
            budget = info_budget(pre, post, cfg, meter)
            ratio = budget.f_p / budget.q_jt
            u = g**2 / (2 * sigma**2)
            assert ratio == pytest.approx(2 * u / (math.expm1(2 * u)), rel=1e-6)
            assert (ratio >= 0.99) is expect_pass

    def test_deep_inverse_regime_moves_info_to_selection(self):
        sigma, g = 1.0, 0.2
        pre = bloch_state(np.pi / 2, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)  # orthogonal here
        cfg = CouplingConfig(g, SIGMA_Z)
        meter = GaussianMeter(sigma)
        kern = Conditioning.of_meter(pre, post, cfg, meter).kernels(cfg.g)
        p_f, q_f = kern.p_f(), kern.qfi_conditioned()
        f_p = kern.selection_fisher()
        q_jt = qfi_joint(pre, meter, cfg)
        assert p_f * q_f / q_jt < 0.01
        assert f_p / q_jt > 0.95

    def test_zero_coupling_weak_value_form(self):
        # at g = 0 the conditioned-family QFI is 4 Var(P) |<f|A|i>/<f|i>|^2
        pre, post = bloch_state(0.6, 0.0), bloch_state(1.9, 0.0)
        sigma = 1.3
        cfg = CouplingConfig(0.0, SIGMA_Z)
        from wvlab.qsys import weak_value

        w = weak_value(pre, post, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        q_f = kern.qfi_conditioned()
        assert q_f == pytest.approx(4 * (1 / (4 * sigma**2)) * abs(w) ** 2, rel=1e-10)


# a qubit state from its Bloch angles
QUBITS = st.builds(bloch_state, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))


def assert_budget_closes(pre, post, cfg, meter):
    """The two arms' probabilities sum to 1 and the budget closes to 1e-12,
    wherever the success arm is not empty; an empty one is refused."""
    success, failure = _arms(pre, post, cfg, *_generator_weights(meter))
    assert abs(success.p_f() + failure.p_f() - 1.0) <= 1e-14
    if success.p_f() <= PROBABILITY_FLOOR:
        with pytest.raises(EmptyPostselection):
            info_budget(pre, post, cfg, meter)
    else:
        assert info_budget(pre, post, cfg, meter).residual <= 1e-12


class TestBudgetProperty:
    # post = pre leaves a failure arm with p_r ~ (g/sigma)^2 sin^2(theta).
    # F_p must come from that arm's own p and p', since 1 - p_f loses the
    # digits of p_r (residual 3.6e-12 at the first example), and keep its
    # finite limit below p_r = 1e-14 (the identity check fails at the second)
    @settings(max_examples=200)
    @example(bloch_state(1.0, 0.0), bloch_state(1.0, 0.0), 0.0, -2.0)
    @example(bloch_state(1.5e-3, 0.0), bloch_state(1.5e-3, 0.0), 0.0, -4.0)
    @example(bloch_state(0.0, 0.0), bloch_state(math.pi, 0.0), 0.0, -1.0)  # empty success arm
    @given(QUBITS, QUBITS, st.floats(-0.7, 0.7), st.floats(-4.0, 0.0))
    def test_gaussian_momentum_kick(self, pre, post, log_sigma, log_g_over_sigma):
        sigma = 10.0**log_sigma
        cfg = CouplingConfig(sigma * 10.0**log_g_over_sigma, SIGMA_Z)
        assert_budget_closes(pre, post, cfg, GaussianMeter(sigma))

    @settings(max_examples=200)
    @example(bloch_state(1.0, 0.0), bloch_state(1.0, 0.0), 0.0, -3.0)
    @given(QUBITS, QUBITS, st.floats(-1.0, 2.0), st.floats(-4.0, 0.0))
    def test_coherent_fock_meter(self, pre, post, log_nbar, log_g):
        cfg = CouplingConfig(10.0**log_g, SIGMA_Z)
        assert_budget_closes(pre, post, cfg, FockMeter.coherent(10.0 ** (log_nbar / 2)))


class TestQuarterTurns:
    def test_p_readout_resolves_the_momentum_density(self):
        # the P readout reads the meter's momentum spectrum, as the arms do.
        # On the FFT dual of the position axis (spacing 0.196 against an sd
        # of 0.5) 36 of its 4096 nodes held more than 1e-12 of the mass
        g = 0.0025
        family = StandardSpec(g=g, sigma=1.0, phi=0.05).readout()[0]
        assert np.count_nonzero(family.probabilities(g) * family.spacing > 1e-12) >= 3000
        # -P and +P read one grid
        assert np.array_equal(StandardSpec(g=g, sigma=1.0, phi=-0.05).readout()[0].grid, family.grid)
        # the budget sweep's imaginary pair at delta = 0.1: on the +-8 sd grid
        # with a node on the mean, a node fell on a zero of the density, which
        # the probability floor leaves out, and F read 15.99569
        g, meter = 0.2, GaussianMeter(1.0)
        pre, post = bloch_state(math.pi / 2, 0.0), bloch_state(-math.pi / 2, 0.1)
        family = quadrature_family(pre, post, SIGMA_Z, meter, math.pi / 2, g)
        assert classical_fisher(family, g) == pytest.approx(16.0235, abs=5e-5)

    @settings(max_examples=100)
    @given(QUBITS, QUBITS, st.floats(-0.7, 0.7), st.floats(-4.0, 0.0), st.integers(0, 3))
    def test_p_f_on_both_quarter_turns(self, pre, post, log_sigma, log_g_over_sigma, turns):
        # sigma in [0.2, 5]; Q on `readout_axis`, P on the momentum spectrum.
        # For sigma_z, u_+- = <f|+-><+-|i>, and the kicked branches overlap
        # by exp(-g^2 / (2 sigma^2)) in either representation
        sigma = 10.0**log_sigma
        g = sigma * 10.0**log_g_over_sigma
        u = np.conj(post.amplitudes) * pre.amplitudes
        overlap = math.exp(-(g**2) / (2 * sigma**2))
        closed = float(np.sum(np.abs(u) ** 2) + 2 * (u[0] * np.conj(u[1])).real * overlap)
        family = quadrature_family(pre, post, SIGMA_Z, GaussianMeter(sigma), turns * math.pi / 2, g)
        assert abs(family.kernels(g).p_f() - closed) <= 1e-12


class TestInfoBudget:
    def test_identity_random_qubits(self):
        rng = np.random.default_rng(100)
        sigma = 1.0
        for _ in range(100):
            pre = bloch_state(rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi))
            post = bloch_state(rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi))
            g = rng.uniform(0.01, 0.4)
            cfg = CouplingConfig(g, SIGMA_Z)
            budget = info_budget(pre, post, cfg, GaussianMeter(sigma))
            assert budget.residual < 1e-9

    @pytest.mark.parametrize("nbar", [1.0, 10.0, 100.0])
    def test_identity_phase_space(self, nbar):
        pre = bloch_state(np.pi / 2, 0.0)
        post = SystemState(np.array([-np.exp(-0.1j), 1.0]) / math.sqrt(2))
        cfg = CouplingConfig(1e-3, PROJ_ONE)
        budget = info_budget(pre, post, cfg, FockMeter.coherent(math.sqrt(nbar)))
        assert budget.residual < 1e-6
        assert budget.q_jt == pytest.approx(2 * nbar + nbar**2, rel=1e-7)

    def test_optimal_readouts_saturate_conditioned_qfi(self):
        # minimum-uncertainty meter: the real scheme's q readout and the
        # imaginary scheme's p readout each capture the full conditioned QFI,
        # and both maximal values equal Q_WVA ~ Q_jt = 1/sigma^2
        sigma, g = 1.0, 1e-3
        cfg = CouplingConfig(g, SIGMA_Z)
        base = to_grid(GaussianMeter(sigma), 16.0, 4096)

        def readout_fisher(pre, post, momentum):
            def density(gp):
                joint = evolve_joint(
                    pre, base, CouplingConfig(gp, cfg.a)
                )
                cm = postselect(joint, post).success_meter
                cm = cm.momentum() if momentum else cm
                return cm.density().density

            grid = base.momentum().q_grid if momentum else base.q_grid
            return oracles.classical_fisher(
                numeric_family(density, grid=grid), g
            ).fi

        pre = bloch_state(0.8, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        kern = Conditioning.of_meter(pre, post, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        p_f, q_f = kern.p_f(), kern.qfi_conditioned()
        f_q = readout_fisher(pre, post, momentum=False)
        assert p_f * f_q == pytest.approx(p_f * q_f, rel=1e-4)

        pre_i = bloch_state(np.pi / 2, 0.0)
        post_i = bloch_state(-np.pi / 2, 0.05)  # imaginary weak value -2i/phi
        kern = Conditioning.of_meter(pre_i, post_i, cfg, GaussianMeter(sigma)).kernels(cfg.g)
        p_fi, q_fi = kern.p_f(), kern.qfi_conditioned()
        f_p = readout_fisher(pre_i, post_i, momentum=True)
        assert p_fi * f_p == pytest.approx(p_fi * q_fi, rel=1e-4)
        # the two maximal-FI values coincide through Var(Q) Var(P) = 1/4
        assert p_f * f_q == pytest.approx(1 / sigma**2, rel=2e-3)
        assert p_fi * f_p == pytest.approx(1 / sigma**2, rel=2e-3)

    def test_budget_type_validates_identity(self):
        with pytest.raises(ValueError):
            InfoBudget(q_jt=1.0, p_f_q_f=0.5, p_r_q_r=0.1, f_p=0.1, arm_phase=0.0)

    def test_data_processing_bound(self):
        # measured-distribution FI never exceeds the joint QFI
        sigma, g = 1.0, 0.05
        pre = bloch_state(1.1, 0.4)
        post = bloch_state(2.3, -0.2)
        cfg = CouplingConfig(g, SIGMA_Z)
        q_jt = qfi_joint(pre, GaussianMeter(sigma), cfg)
        base = to_grid(GaussianMeter(sigma), 16.0, 4096)

        def density(gp):
            joint = evolve_joint(pre, base, CouplingConfig(gp, cfg.a))
            ps = postselect(joint, post)
            return ps.p_f * ps.success_meter.density().density + (
                1 - ps.p_f
            ) * ps.failure_meter.density().density

        fam = numeric_family(density, grid=base.q_grid)
        assert oracles.classical_fisher(fam, g).fi <= q_jt * (1 + 1e-4)


def snr(dist, g: float, nu: int) -> float:
    """sqrt(nu) |<x>| / std(x) of the outcomes at g, from `mean_std`, the
    moments the `amr` estimator is calibrated with."""
    mean, std = dist.mean_std(g)
    return math.sqrt(nu) * abs(mean) / std


class TestSnr:
    def test_gaussian_matches_sqrt_fisher(self):
        fam = gaussian_location_family(sigma=0.8)
        g, nu = 0.3, 50
        val = snr(fam, g, nu)
        fi = oracles.classical_fisher(fam, g).fi
        assert val == pytest.approx(math.sqrt(nu) * g / 0.8, rel=1e-9)
        assert val == pytest.approx(g * math.sqrt(nu * fi), rel=1e-6)

    def test_zero_parameter(self):
        fam = gaussian_location_family()
        assert snr(fam, 0.0, 10) == pytest.approx(0.0, abs=1e-12)

    def test_bimodal_amr_suboptimal(self):
        # orthogonal-WVA-like bimodal distribution: SNR <= g sqrt(nu F)
        grid = np.linspace(-12, 12, 4001)

        def density(g):
            d = (grid - g) * np.exp(-((grid - g) ** 2) / 2)
            d = d**2
            return d / (np.sum(d) * (grid[1] - grid[0]))

        fam = numeric_family(density, grid=grid)
        g, nu = 0.2, 30
        fi = oracles.classical_fisher(fam, g).fi
        assert snr(fam, g, nu) <= g * math.sqrt(nu * fi) * (1 + 1e-6)


class TestSerialization:
    def test_fisher_report_json_keys(self):
        rep = oracles.classical_fisher(gaussian_location_family(), 0.1)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert set(payload) == {"fi", "method", "step"}

    def test_info_budget_json_keys(self):
        budget = InfoBudget(q_jt=1.0, p_f_q_f=0.6, p_r_q_r=0.3, f_p=0.1, arm_phase=0.0)
        payload = json.loads(json.dumps(budget.to_dict()))
        assert set(payload) == {"q_jt", "pf_qf", "pr_qr", "f_p", "arm_phase"}
        assert payload["q_jt"] == 1.0


class TestScalingBounds:
    def test_single_probe(self):
        assert scaling_bounds(1, -1.0, 1.0) == (4.0, 4.0)

    def test_hundred_probes_spread_two(self):
        assert scaling_bounds(100, -1.0, 1.0) == (400.0, 40000.0)
