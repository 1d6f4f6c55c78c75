"""The conditioning-kernel outcome families against the grid oracle.

Every post-selected readout family in `schemes` comes from
`infometrics.Conditioning`, with an analytic derivative: in g, or for
inverse WVA in the post-selection angle. Here each one is pinned to an
independent path: the FFT grid chain evolve_joint -> postselect ->
quadrature_marginal for the Gaussian meter (for inverse WVA, postselect on
the varied post-selection, with .momentum() for the phi variant), the
per-component Fock post-selection for (mixed) photon-number meters, and a
matrix exponential of the 4x4 coupling for the entangled scheme. Densities
agree to 1e-10 and derivatives to 1e-6 of their maxima (above the roundoff
floor of the central difference). The grid chain itself is bound by neither
`schemes`, `infometrics` nor `cli`, and no module of the package binds a
finite-difference helper: those live in `tests/oracles.py`.
"""

import dataclasses
import inspect
import math
import pkgutil
import re
import warnings
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st
from scipy.linalg import expm

import wvlab
from wvlab import cli, estimate, infometrics, schemes
from wvlab.coupling import CouplingConfig, evolve_joint, postselect
from wvlab.infometrics import (
    Conditioning,
    ParamDistribution,
    classical_fisher,
    info_budget,
    quadrature_family,
    readout_axis,
)
from wvlab.meter import FockMeter, GaussianMeter, quadrature_marginal, to_grid
from wvlab.qsys import PROJ_ONE, SIGMA_Z, bloch_state
from wvlab.schemes import (
    EntangledSpec,
    InverseSpec,
    PhaseSpaceSpec,
    StandardSpec,
    phase_space_scheme,
    standard_scheme,
)

DENSITY_TOL = 1e-10
DERIVATIVE_TOL = 1e-6


def max_rel(x, ref) -> float:
    return float(np.max(np.abs(np.asarray(x) - ref)) / np.max(np.abs(ref)))


def central(f, g, h):
    """Central difference at steps h and h/2 with one Richardson step."""
    d1 = (f(g + h) - f(g - h)) / (2 * h)
    d2 = (f(g + h / 2) - f(g - h / 2)) / h
    return (4 * d2 - d1) / 3


def assert_matches_oracle(family, oracle, g, h):
    p = family.probabilities(g)
    assert max_rel(p, oracle(g)) <= DENSITY_TOL
    # the central difference carries ~1e-13 max(p) / h of the oracle's
    # roundoff, which sets the floor where the derivative itself vanishes
    ref = central(oracle, g, h)
    err = np.max(np.abs(family.derivative(g) - ref))
    assert err <= DERIVATIVE_TOL * np.max(np.abs(ref)) + 1e-13 * np.max(p) / h


# ---------------------------------------------------------------------------
# standard scheme: +-Q and +-P readouts of the Gaussian meter


@st.composite
def standard_specs(draw):
    sigma = draw(st.floats(0.5, 10.0))
    g = sigma * 10 ** draw(st.floats(-4, -0.7))
    angle = 10 ** draw(st.floats(-5, 0)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        return StandardSpec(g=g, sigma=sigma, epsilon=angle)
    return StandardSpec(g=g, sigma=sigma, phi=angle)


@given(standard_specs())
def test_standard_family_matches_grid_chain(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        theta = standard_scheme(spec).extras["theta_opt"]
        family = spec.readout()[0]
    pre, post = spec.states()
    base = to_grid(GaussianMeter(spec.sigma), 16 * spec.sigma + 8 * abs(spec.g), 4096)

    def marginal(g):
        joint = evolve_joint(pre, base, CouplingConfig(g, SIGMA_Z))
        return quadrature_marginal(postselect(joint, post).success_meter, theta)

    assert np.array_equal(family.grid, marginal(spec.g).grid)
    assert_matches_oracle(family, lambda g: marginal(g).density, spec.g, 1e-6 * spec.sigma)


@pytest.mark.parametrize(
    "spec",
    [
        StandardSpec(g=1e-5, sigma=1.0, phi=1e-4),
        StandardSpec(g=1e-3, sigma=5.0, phi=0.01),
        StandardSpec(g=1e-3, sigma=10.0, phi=-1e-5),
    ],
)
def test_standard_readout_is_an_exact_quarter_turn(spec):
    # roundoff in w tilts the computed optimal angle by ~1e-15 sigma^2 / phi,
    # which here exceeds 1e-12; the readout is still exactly -+P
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = standard_scheme(spec)
    assert res.extras["theta_opt"] == -math.copysign(math.pi / 2, spec.phi)


def test_standard_readouts_cover_all_four_quadratures():
    # +-epsilon and +-phi give the readouts +Q, -Q, -P and +P
    axes = set()
    for key in ("epsilon", "phi"):
        for sign in (1.0, -1.0):
            spec = StandardSpec(g=1e-3, sigma=1.0, **{key: sign * 0.1})
            theta = standard_scheme(spec).extras["theta_opt"]
            axes.add((round(math.cos(theta)), round(math.sin(theta))))
    assert axes == {(1, 0), (-1, 0), (0, 1), (0, -1)}


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_budget_sweep_readouts_match_grid_chain(theta):
    # the (theta_i, -theta_i) and azimuth-detuned pairs of the budget p_f sweep
    sigma, g = 1.0, 0.2
    pre, post = (
        (bloch_state(0.7, 0.0), bloch_state(-0.7, 0.0))
        if theta == 0.0
        else (bloch_state(np.pi / 2, 0.0), bloch_state(-np.pi / 2, 0.7))
    )
    meter = GaussianMeter(sigma)
    base = to_grid(meter, 16 * sigma + 8 * g, 4096)
    family = quadrature_family(pre, post, SIGMA_Z, meter, theta, base.q_grid)

    def density(gp):
        joint = evolve_joint(pre, base, CouplingConfig(gp, SIGMA_Z))
        cm = postselect(joint, post).success_meter
        return (cm.momentum() if theta else cm).density().density

    assert_matches_oracle(family, density, g, 1e-6)


def test_general_readout_angle_rejected():
    meter = GaussianMeter(1.0)
    q = to_grid(meter, 16.0, 256).q_grid
    pre, post = bloch_state(np.pi / 2, 0.0), bloch_state(-np.pi / 2 + 0.1, 0.0)
    with pytest.raises(ValueError):
        quadrature_family(pre, post, SIGMA_Z, meter, math.pi / 4, q)


def test_readout_axis_is_the_grid_chain_axis():
    for sigma, g in [(1.0, 0.2), (0.7, -0.05), (3.0, 1e-4)]:
        base = to_grid(GaussianMeter(sigma), 16 * sigma + 8 * abs(g), 4096)
        assert np.array_equal(readout_axis(sigma, g), base.q_grid)


GRID_CHAIN = ("evolve_joint", "postselect", "JointState", "PostSelectedMeter", "GridMeter",
              "to_grid", "fourier_pair", "quadrature_marginal")
# test references that live in tests/oracles.py, and helpers deleted with no caller
MOVED = ("aav_shifts", "exact_shifts", "orthogonal_shifts", "trapped_ion_extremal_theta",
         "wigner", "WignerMap", "_upsample_bandlimited", "quadrature_variance",
         "high_order_weak_value", "orthogonal_weak_value", "NotOrthogonal", "pixelate",
         "ResolutionTooCoarse", "mle_correlated", "expectation")
DELETED = ("snr", "tmsv_phase_variance", "ZeroVariance", "covariance_to_csv",
           "load_response_csv", "_write_csv", "fock_moments", "variance")
STEP_ORACLES = ("CENTRAL_DIFFERENCE", "default_step", "StepTooLarge", "FisherMethod",
                "FisherReport", "qfi_pure", "qfi_mixed", "_family_vector",
                "SLD_EIGENVALUE_CUTOFF", "binary_selection_distribution")
# pass-throughs to `Conditioning.of_meter(...).kernels(g)` and the hand-rolled
# biased-WVA and joint-WM spectra; `_Kernels.selection_fisher` stays as a method
WRAPPERS = ("selection_probability", "qfi_postselected", "phase_space_selection_probability",
            "biased_centroid_shift", "_biased_spectrum", "_jwm_probs")
# the second sampling path: every outcome family is sampled as counts over its
# nodes, and `mle_grid` is the counts score, with no interpolation between them
SAMPLING = ("Bracket", "mle_counts")


def test_engine_modules_bind_no_grid_chain_name():
    # the shipped commands read the kernels: the sampled-density type stays
    # with the grid chain too
    for module in (schemes, infometrics, cli):
        assert not set(GRID_CHAIN) & set(vars(module)), module.__name__
    for module in (schemes, cli):
        assert not hasattr(module, "SampledDistribution"), module.__name__
    # the chain stays public: fourier_pair from wvlab.meter, the rest from wvlab
    assert all(hasattr(wvlab, name) for name in GRID_CHAIN if name != "fourier_pair")
    assert hasattr(wvlab.meter, "fourier_pair")
    # every Fisher number is analytic: the step references stay in the tests
    names = [m.name for m in pkgutil.iter_modules(wvlab.__path__)]
    modules = [wvlab] + [import_module(f"wvlab.{name}") for name in names]
    assert len(modules) == 10
    for module in modules:
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert not [name for name in STEP_ORACLES if name in source], module.__name__
        assert not [name for name in WRAPPERS if re.search(rf"\b{name}\b", source)], module.__name__
        assert not [name for name in SAMPLING if re.search(rf"\b{name}\b", source)], module.__name__
        assert not hasattr(module, "selection_fisher"), module.__name__
        assert not set(MOVED + DELETED) & set(vars(module)), module.__name__
    assert not hasattr(wvlab.meter.GridMeter, "to_csv")
    assert "np.interp" not in Path(estimate.__file__).read_text(encoding="utf-8")
    with pytest.raises(TypeError):
        ParamDistribution(lambda g: np.array([1.0]))
    assert list(inspect.signature(wvlab.noise.saturated_fisher).parameters) == [
        "nbar", "dnbar", "det", "response"
    ]


def test_every_input_enters_once():
    # no argument that another input fixes: the meter fixes the coupling
    # generator, a grid makes a family a density, the window holds its
    # family, the sampler its g, and a mirror reflectivity makes the cavity
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(wvlab.CouplingConfig) == ["g", "a"]
    assert fields(ParamDistribution) == ["evaluator", "grid", "labels", "derivative", "kernels"]
    assert fields(schemes.RecycleSpec) == ["p_f", "loss", "mirror_r"]
    assert params(estimate.mle_grid) == ["counts", "window"]
    assert params(estimate.sample) == ["sampler", "nu", "seed", "trial"]
    # p_f fixes the optimal real weak value; its absence means no WVA
    assert params(wvlab.noise.amr_information) == ["model", "p_f"]
    # a family with a grid is a density, one without is discrete
    def zero(g):
        return np.zeros(4)

    density = ParamDistribution(lambda g: np.ones(4), grid=np.arange(4.0) / 4, derivative=zero)
    assert density.spacing == 0.25 and density.outcome_values() is density.grid
    discrete = ParamDistribution(lambda g: np.full(4, 0.25), labels=np.arange(4.0), derivative=zero)
    assert discrete.spacing == 1.0 and discrete.outcome_values() is discrete.labels
    # and either is sampled on its nodes, with probabilities p dx over the grid
    for family in (density, discrete):
        sampler = estimate.OutcomeSampler(family, 0.0)
        assert sampler.values is family.outcome_values()
        assert np.array_equal(sampler.probs, np.full(4, 0.25))
    with pytest.raises(ValueError, match="not both"):
        ParamDistribution(np.ones, grid=np.arange(4.0), labels=np.arange(4.0), derivative=zero)


# ---------------------------------------------------------------------------
# inverse WVA: Q and P readouts over the post-selection angle


@st.composite
def inverse_specs(draw):
    # inside the validity window |<f|i>| = |sin(angle/2)| < g/sigma < 1
    sigma = draw(st.floats(0.5, 10.0))
    g = sigma * draw(st.floats(1e-3, 0.5))
    overlap = draw(st.floats(1e-3, 0.9)) * draw(st.sampled_from([1.0, -1.0])) * g / sigma
    angle = 2 * math.asin(overlap)
    if draw(st.booleans()):
        return InverseSpec(g=g, sigma=sigma, theta_angle=angle)
    return InverseSpec(g=g, sigma=sigma, phi_angle=angle)


@given(inverse_specs())
def test_inverse_family_matches_grid_chain(spec):
    families = spec.readouts()
    imaginary = spec.phi_angle != 0.0
    pre = bloch_state(np.pi / 2, 0.0)
    base = to_grid(GaussianMeter(spec.sigma), 16 * spec.sigma + 8 * spec.g, 4096)
    joint = evolve_joint(pre, base, CouplingConfig(spec.g, SIGMA_Z))

    def meters(angle):
        post = spec.post_state(0.0, angle) if imaginary else spec.post_state(angle, 0.0)
        cm = postselect(joint, post).success_meter
        return cm, cm.momentum()

    angle = spec.phi_angle if imaginary else spec.theta_angle
    for family, meter in zip(families, meters(angle)):
        assert np.array_equal(family.grid, meter.q_grid)
        assert max_rel(family.probabilities(angle), meter.density().density) <= DENSITY_TOL
    assert_matches_oracle(
        families[imaginary], lambda a: meters(a)[imaginary].density().density, angle,
        1e-2 * spec.g / spec.sigma,
    )


# ---------------------------------------------------------------------------
# phase-space scheme: photon, failure and selection families


@st.composite
def phase_space_specs(draw):
    g = 10 ** draw(st.floats(-6, -1))
    epsilon = draw(st.floats(0.02, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    alpha = draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        meter = FockMeter.coherent(alpha)
    else:
        w = draw(st.floats(0.1, 0.9))
        meter = FockMeter.mixture([(w, alpha), (1 - w, draw(st.floats(0.0, 3.0)))])
    return PhaseSpaceSpec(g=g, epsilon=epsilon, meter=meter)


def test_phase_space_scheme_at_finite_coupling():
    # the arm phases beta_a = Im<phi_a|d_g phi_a> differ at finite g, and
    # 4 Var(beta) closes the budget: without it the split read 2.99989 of
    # Q_jt = 3 at g = 0.01 and 2.98765 at g = 0.1 (coherent nbar = 1)
    for g in (1e-4, 1e-2, 0.1):
        for nbar in (1.0, 100.0):
            spec = PhaseSpaceSpec(g=g, epsilon=0.1, meter=FockMeter.coherent(math.sqrt(nbar)))
            # the report's budget, as an InfoBudget off the same two arms
            pre, post = spec.states()
            cfg = CouplingConfig(g, PROJ_ONE)
            budget = info_budget(pre, post, cfg, spec.meter)
            assert phase_space_scheme(spec).extras["budget"] == budget.to_dict()
            assert budget.residual <= 5e-15
            assert budget.q_jt == pytest.approx(2 * nbar + nbar**2, rel=1e-7)
    assert budget.arm_phase > 1.0


def fock_arms(spec, g):
    """Per-component Fock post-selection: (p_f, unnormalized success and
    failure photon distributions) summed over the coherent components."""
    pre, post = spec.states()
    cfg = CouplingConfig(g, PROJ_ONE)
    p_f, success, failure = 0.0, 0.0, 0.0
    for weight, alpha in spec.meter.components:
        ps = postselect(evolve_joint(pre, FockMeter.coherent(alpha, spec.meter.n_max), cfg), post)
        p_f += weight * ps.p_f
        success = success + weight * ps.p_f * np.abs(ps.success_meter.coeffs) ** 2
        failure = failure + weight * ps.p_r * np.abs(ps.failure_meter.coeffs) ** 2
    return p_f, success / success.sum(), failure / failure.sum()


@given(phase_space_specs())
def test_phase_space_families_match_fock_postselection(spec):
    res = phase_space_scheme(spec)
    pre, post = spec.states()
    cfg = CouplingConfig(spec.g, PROJ_ONE)
    failure = Conditioning.of_meter(pre, post.orthogonal_qubit(), cfg, spec.meter).family()
    assert res.extras["f_photon_failure"] == classical_fisher(failure, spec.g)

    def selection(g):
        p_f = fock_arms(spec, g)[0]
        return np.array([p_f, 1 - p_f])

    h = 1e-5
    success = spec.selection()
    assert_matches_oracle(success.family(), lambda g: fock_arms(spec, g)[1], spec.g, h)
    assert_matches_oracle(failure, lambda g: fock_arms(spec, g)[2], spec.g, h)
    assert_matches_oracle(success.selection_family(), selection, spec.g, h)
    assert spec.selection().kernels(spec.g).p_f() == pytest.approx(
        selection(spec.g)[0], rel=DENSITY_TOL
    )


# ---------------------------------------------------------------------------
# entangled scheme: two-point meter spectrum


@given(
    st.floats(1e-4, 0.05),
    st.floats(0.01, 0.3),
    st.integers(1, 6),
    st.sampled_from(["max_prob", "max_weak_value"]),
)
def test_entangled_family_matches_matrix_exponential(phi, epsilon, n, variant):
    spec = EntangledSpec(phi=phi, epsilon=epsilon, n=n, variant=variant)
    family = spec.selection().family()
    d = spec.detuning
    pre = np.kron(np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, 1.0]) / math.sqrt(2))
    post = np.array([np.exp(-1j * d), -np.exp(1j * d)]) / math.sqrt(2)
    generator = np.kron(np.diag([n, -n]), np.diag([1.0, -1.0]))

    def probs(p):
        out = expm(-1j * p * generator) @ pre
        amp = np.array([np.vdot(np.kron(post, e), out) for e in np.eye(2)])
        return np.abs(amp) ** 2 / np.sum(np.abs(amp) ** 2)

    assert np.array_equal(family.labels, [1.0, -1.0])
    assert_matches_oracle(family, probs, phi, 1e-5)
