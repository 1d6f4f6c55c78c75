import errno
import math
import mmap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import fresh_interpreter
from oracles import ResolutionTooCoarse, pixelate
from wvlab.errors import LadderTooLong, UnsupportedCombination
from wvlab.infometrics import classical_fisher
from wvlab.meter import SampledDistribution
from wvlab.noise import (
    MAX_LADDER_LEVELS,
    AmrRegime,
    BeamGeometry,
    CorrelatedNoiseModel,
    JitterCase,
    PixelatedDetector,
    SaturatingDetector,
    amr_information,
    amr_variance_exact,
    cm_fisher_correlated,
    covariance,
    jitter_fisher,
    pixelated_fisher_ratio,
    _gaussian_pixels,
    pixelation_info_ratio,
    readout_distribution,
    saturated_fisher,
    saturating_response,
)
from wvlab.qsys import SIGMA_Z, bloch_state, optimal_postselection


class TestCovariance:
    def test_white_limit_diagonal(self):
        m = CorrelatedNoiseModel(a=0.7, c=0.3, dt=1.0, tau_c=1e-3, n=50)
        mat = covariance(m)
        assert np.allclose(mat, np.diag(np.full(50, 1.0)))

    def test_slow_limit_constant_plus_floor(self):
        m = CorrelatedNoiseModel(a=0.5, c=0.4, dt=1.0, tau_c=1e9, n=30)
        mat = covariance(m)
        expected = 0.4 * np.ones((30, 30)) + 0.5 * np.eye(30)
        assert np.max(np.abs(mat - expected)) < 1e-7

    def test_no_correlation(self):
        m = CorrelatedNoiseModel(a=0.8, c=0.0, dt=1.0, tau_c=1.0, n=20)
        assert np.allclose(covariance(m), 0.8 * np.eye(20))

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = CorrelatedNoiseModel(
                a=rng.uniform(0.1, 2),
                c=rng.uniform(0, 2),
                dt=1.0,
                tau_c=rng.uniform(0.01, 100),
                n=rng.integers(2, 200),
            )
            mat = covariance(m)
            assert np.max(np.abs(mat - mat.T)) < 1e-12
            assert np.linalg.eigvalsh(mat).min() > 0

    @given(
        a=st.floats(-6, 6).map(lambda e: 10.0**e),
        c=st.one_of(st.just(0.0), st.floats(-6, 6).map(lambda e: 10.0**e)),
        dt=st.floats(-3, 3).map(lambda e: 10.0**e),
        memory=st.floats(-3, 9).map(lambda e: 10.0**e),
        n=st.integers(1, 600),
    )
    @example(a=1.0, c=1.0, dt=1.0, memory=10.0, n=1)
    @example(a=0.5, c=0.0, dt=1.0, memory=1e9, n=600)
    def test_bitwise_the_toeplitz_build(self, a, c, dt, memory, n):
        m = CorrelatedNoiseModel(a=a, c=c, dt=dt, tau_c=memory * dt, n=n)
        mat = covariance(m)
        # mle_weights factors C in place: a read-only or non-C-ordered C
        # would be copied first, 8 N^2 bytes more
        assert mat.dtype == np.float64 and mat.shape == (n, n)
        assert mat.flags.writeable and mat.flags.c_contiguous
        ref = oracles.toeplitz_covariance(m)
        assert np.array_equal(mat.view(np.uint64), ref.view(np.uint64))

    def test_numpy_integer_n(self):
        for n in (np.int32(40), np.int64(40)):
            m = CorrelatedNoiseModel(a=0.5, c=1.0, dt=1.0, tau_c=10.0, n=n)
            ref = CorrelatedNoiseModel(a=0.5, c=1.0, dt=1.0, tau_c=10.0, n=40)
            assert np.array_equal(covariance(m), covariance(ref))
            assert cm_fisher_correlated(m) == cm_fisher_correlated(ref)

    def test_a_failed_mapping_is_a_memory_error(self, monkeypatch):
        asked = []

        def refuse(fileno, length, **kwargs):
            asked.append(length)
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        # 8 N^2 bytes at N = 2^14, which an int32 product would wrap to 0
        with pytest.raises(MemoryError):
            covariance(CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=10.0, n=np.int32(2**14)))
        assert asked == [2**31]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS")
    def test_a_freed_matrix_goes_back_to_the_os(self):
        # from the heap, glibc would keep every 32 MB matrix after the
        # first resident once freed: 30 MB over these three
        printed, _ = fresh_interpreter(
            "from wvlab.noise import CorrelatedNoiseModel, covariance\n"
            "def rss_mb():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(s.split()[1]) for s in f if s.startswith('VmRSS:')) / 1024\n"
            "m = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=10.0, n=2000)\n"
            "before = rss_mb()\n"
            "for _ in range(3):\n"
            "    covariance(m)\n"
            "print(rss_mb() - before)"
        )
        assert float(printed[-1]) < 8.0


class TestModelValidation:
    BASE = {"a": 1.0, "c": 1.0, "dt": 1.0, "tau_c": 10.0, "n": 100}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "c", "dt", "tau_c"])
    def test_non_finite_parameter_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CorrelatedNoiseModel(**{**self.BASE, name: value})

    @pytest.mark.parametrize("n", [2.5, 100.0, True, "100", None])
    def test_non_integer_n_is_refused(self, n):
        with pytest.raises(ValueError, match="N must be an integer"):
            CorrelatedNoiseModel(**{**self.BASE, "n": n})

    @pytest.mark.parametrize("p_f", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_thinning_outside_the_unit_interval_is_refused(self, p_f):
        with pytest.raises(ValueError, match="p_f"):
            CorrelatedNoiseModel(**self.BASE).thinned(p_f)

    def test_thinning(self):
        m = CorrelatedNoiseModel(**self.BASE)
        assert m.thinned(1.0) == m
        assert m.thinned(0.25) == CorrelatedNoiseModel(1.0, 1.0, 4.0, 10.0, 25)


class TestCmFisher:
    def test_white_limit(self):
        m = CorrelatedNoiseModel(a=0.7, c=0.3, dt=1.0, tau_c=1e-3, n=1000)
        assert cm_fisher_correlated(m) == pytest.approx(1000 / 1.0, rel=1e-12)

    def test_single_measurement(self):
        m = CorrelatedNoiseModel(a=0.4, c=0.6, dt=1.0, tau_c=5.0, n=1)
        assert cm_fisher_correlated(m) == pytest.approx(1.0, rel=1e-12)

    def test_slow_limit_reaches_white_floor(self):
        # the Table's slow-limit value N/a requires the correlated power
        # (~ 2 c tau/dt) to stay below the white floor; c = 2e-5 does it
        m = CorrelatedNoiseModel(a=1.0, c=2e-5, dt=1.0, tau_c=1e3, n=1000)
        assert cm_fisher_correlated(m) == pytest.approx(1000.0, rel=0.02)

    def test_diagonal_case_exact(self):
        m = CorrelatedNoiseModel(a=0.5, c=0.0, dt=1.0, tau_c=1.0, n=64)
        assert cm_fisher_correlated(m) == pytest.approx(64 / 0.5, rel=1e-12)


class TestAmrInformation:
    def test_cm_white(self):
        m = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=0.5, n=100)
        info = amr_information(m)
        assert info.regime is AmrRegime.WHITE
        assert info.value == pytest.approx(100 / 2.0)

    def test_cm_slow_saturates(self):
        for n in (10**3, 10**4, 10**5):
            m = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=1e9, n=n)
            info = amr_information(m)
            assert info.regime is AmrRegime.SLOW_CM
            assert info.value == pytest.approx(n / (1 + n), rel=1e-12)
        assert info.value == pytest.approx(1.0, rel=1e-4)  # saturation at 1/c

    def test_wva_regimes(self):
        # p_f fixes the optimal weak value w = 1/sqrt(p_f), so w^2 = 100 here
        p_f = 0.01
        slow = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=1e4, n=1000)
        info2 = amr_information(slow, p_f)
        assert info2.regime is AmrRegime.SLOW_WVA_CORRELATED
        kept = p_f * 1000
        assert info2.value == pytest.approx(100.0 * kept / (1 + kept))
        thin = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=200.0, n=1000)
        info1 = amr_information(thin, 0.001)
        assert info1.regime is AmrRegime.SLOW_WVA_UNCORRELATED
        assert info1.value == pytest.approx(1000 / 2.0)

    @pytest.mark.parametrize("p_f", [0.0, -0.1, 1.5, math.nan])
    def test_p_f_outside_the_unit_interval_is_refused(self, p_f):
        m = CorrelatedNoiseModel(a=1.0, c=1.0, dt=1.0, tau_c=10.0, n=100)
        with pytest.raises(ValueError, match="p_f"):
            amr_information(m, p_f)

    def test_amr_never_beats_mle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = CorrelatedNoiseModel(
                a=rng.uniform(0.2, 2),
                c=rng.uniform(0.0, 2),
                dt=1.0,
                tau_c=rng.uniform(1e-3, 1e5),
                n=int(rng.integers(2, 300)),
            )
            info = amr_information(m)
            assert info.value <= cm_fisher_correlated(m) + 1e-9

    def test_amr_crb_ratio_bounded(self):
        # V*F = (1'C1)(1'C^-1 1)/N^2 >= 1 by Cauchy-Schwarz; for the
        # exponential kernel the plain average is asymptotically efficient, and
        # V*F tops out at the continuum limit max_x (2+x)(x-1+e^-x)/x^2 ~ 1.139
        # (x = N dt/tau_c, a/c -> 0), so no parameters reach a ratio of 2
        rng = np.random.default_rng(11)
        cases = [(1e-9, 500.0, 1500), (1e-6, 500.0, 1000), (1e-6, 100.0, 300)]
        for _ in range(20):
            cases.append(
                (
                    10 ** rng.uniform(-9, 1),
                    10 ** rng.uniform(-2, math.log10(500)),
                    int(rng.integers(1, 1501)),
                )
            )
        worst = 0.0
        for a_over_c, tau_over_dt, n in cases:
            c, dt = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            m = CorrelatedNoiseModel(
                a=a_over_c * c, c=c, dt=dt, tau_c=tau_over_dt * dt, n=n
            )
            vf = amr_variance_exact(m) * cm_fisher_correlated(m)
            assert 1 - 1e-12 <= vf < 1.15
            worst = max(worst, vf)
        assert worst > 1.13  # the sweep reaches the near-continuum corner

    def test_exact_variance_matches_white(self):
        m = CorrelatedNoiseModel(a=1.0, c=0.5, dt=1.0, tau_c=1e-4, n=256)
        assert 1 / amr_variance_exact(m) == pytest.approx(256 / 1.5, rel=1e-10)


GEOM = BeamGeometry(k0=8e6, l1=0.2, l2=0.1, f=0.25, sigma=4e-4, n=1000)
# wide-beam variant: diffraction factor ~ 2e-4, negligible at zero noise
GEOM_WIDE = BeamGeometry(k0=8e6, l1=0.2, l2=0.1, f=0.25, sigma=1e-2, n=1000)


class TestJitterFisher:
    def test_noiseless_baseline(self):
        base = 4 * GEOM_WIDE.n * GEOM_WIDE.sigma**2
        for case, scheme in [
            (JitterCase.ANGULAR, "cm"),
            (JitterCase.ANGULAR, "imaginary_wva"),
            (JitterCase.DISPLACEMENT, "imaginary_wva"),
            (JitterCase.DETECTOR, "cm"),
            (JitterCase.DETECTOR, "imaginary_wva"),
        ]:
            assert jitter_fisher(case, GEOM_WIDE, 0.0, scheme) == pytest.approx(
                base, rel=1e-6
            )

    def test_angular_wva_beats_cm(self):
        b0 = 2e4  # strong angular jitter (1/length units)
        f_cm = jitter_fisher(JitterCase.ANGULAR, GEOM, b0, "cm")
        f_wva = jitter_fisher(JitterCase.ANGULAR, GEOM, b0, "imaginary_wva")
        assert f_wva > 10 * f_cm
        assert GEOM.diffraction_factor < 1.0

    def test_displacement_noise_helps_wva(self):
        f0 = jitter_fisher(JitterCase.DISPLACEMENT, GEOM, 0.0, "imaginary_wva")
        f1 = jitter_fisher(JitterCase.DISPLACEMENT, GEOM, 5e-4, "imaginary_wva")
        assert f1 > f0

    def test_detector_formulas(self):
        d0 = 3e-4
        f_cm = jitter_fisher(JitterCase.DETECTOR, GEOM, d0, "cm")
        expected = 4 * GEOM.n * GEOM.sigma**2 / (
            1 + (2 * GEOM.k0 * GEOM.sigma * d0 / GEOM.f) ** 2
        )
        assert f_cm == pytest.approx(expected, rel=1e-12)
        f_wva = jitter_fisher(JitterCase.DETECTOR, GEOM, d0, "imaginary_wva")
        assert f_wva == pytest.approx(
            4 * GEOM.n * GEOM.sigma**2 / (1 + d0**2 / GEOM.sigma**2), rel=1e-12
        )

    def test_unsupported_combination(self):
        with pytest.raises(UnsupportedCombination):
            jitter_fisher(JitterCase.DISPLACEMENT, GEOM, 1.0, "cm")


def gaussian_sampled(sigma=1.0, center=0.0, span=12.0, points=9601):
    grid = np.linspace(center - span, center + span, points)
    dens = np.exp(-((grid - center) ** 2) / (2 * sigma**2)) / math.sqrt(
        2 * math.pi * sigma**2
    )
    return SampledDistribution(grid, dens)


class TestPixelate:
    def test_mass_preserved(self):
        dist = gaussian_sampled()
        out = pixelate(dist, PixelatedDetector(r=0.3, h=0.1))
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_uniform_stays_uniform(self):
        grid = np.linspace(0.0, 1.0, 4001)
        dist = SampledDistribution(grid, np.ones_like(grid))
        out = pixelate(dist, PixelatedDetector(r=0.1, h=0.05))
        inner = out.probs[(out.probs > 1e-6)]
        inner = inner[1:-1]  # edge pixels only partially covered
        assert np.allclose(inner, inner[0], rtol=1e-9)

    def test_resolution_guard(self):
        dist = gaussian_sampled(points=101)
        with pytest.raises(ResolutionTooCoarse):
            pixelate(dist, PixelatedDetector(r=0.3))

    def test_fine_pixel_information_ratio(self):
        # R = r / sigma = 0.05: pixelation costs less than 1e-3 of the FI
        alpha = pixelation_info_ratio(1.0, PixelatedDetector(r=0.05, h=0.02))
        assert abs(alpha - 1.0) < 1e-3

    def test_split_detector_limit(self):
        # two bins with the boundary on the beam center: F = (2/pi)/sigma^2
        det = PixelatedDetector(r=1000.0, h=500.0)
        alpha = pixelation_info_ratio(1.0, det)
        assert alpha == pytest.approx(2 / math.pi, rel=1e-4)
        # about a third of the information is lost
        assert 1 - alpha == pytest.approx(1 / 3, rel=0.1)

    def test_data_processing(self):
        det = PixelatedDetector(r=0.8, h=0.3)
        alpha = pixelation_info_ratio(1.0, det)
        assert alpha <= 1.0 + 1e-6


# (r, h) from fine pixels to a split detector with its boundary on the centre
PIXELS = [(0.05, 0.02), (0.2, 0.1), (0.8, 0.3), (4.0, 1.3), (1000.0, 500.0)]


def precise_pixels(det, rate, width, g, floor=1e-14):
    """(masses, derivatives, F) of the Gaussian pixel family at 40 digits on
    the edges `_gaussian_pixels` freezes, F summed over masses above `floor`
    as `classical_fisher` does."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    edges = [mp.mpf(float(e)) for e in det.edges(-10 * width, 10 * width)]
    z = [-mp.inf] + [(e - mp.mpf(rate) * g) / width for e in edges[1:-1]] + [mp.inf]
    density = [mp.npdf(x) if mp.isfinite(x) else mp.mpf(0) for x in z]
    masses = [mp.ncdf(b) - mp.ncdf(a) for a, b in zip(z[:-1], z[1:])]
    dp = [(pa - pb) * rate / width for pa, pb in zip(density[:-1], density[1:])]
    fisher = sum(d**2 / m for d, m in zip(dp, masses) if m > floor)
    return np.array(masses, dtype=float), np.array(dp, dtype=float), float(fisher)


class TestGaussianPixels:
    @pytest.mark.parametrize("r, h", PIXELS)
    @pytest.mark.parametrize("rate, width, g", [(1.0, 1.0, 0.0), (3.0, 0.5, 0.1)])
    def test_matches_40_digit_evaluation(self, r, h, rate, width, g):
        det = PixelatedDetector(r=r, h=h)
        family = _gaussian_pixels(det, rate, width)
        masses, dp, fisher = precise_pixels(det, rate, width, g)
        # every pixel, the far tails included, to 1e-12 relative
        np.testing.assert_allclose(family.probabilities(g), masses, rtol=1e-12, atol=0)
        # phi(a) - phi(b) cancels on a pixel centred on the beam
        np.testing.assert_allclose(
            family.derivative(g), dp, rtol=1e-12, atol=1e-15 * np.max(np.abs(dp))
        )
        assert classical_fisher(family, g) == pytest.approx(fisher, rel=1e-12)
        if (rate, width, g) == (1.0, 1.0, 0.0):
            assert pixelation_info_ratio(1.0, det) == pytest.approx(fisher, rel=1e-12)

    @pytest.mark.parametrize("r, h", PIXELS[:4])
    def test_matches_grid_oracle(self, r, h):
        # the cumulative trapezoid of `pixelate` on a sampled density reads
        # about 2e-6 low; the closed form stays within 5e-6 of it
        det, sigma, g = PixelatedDetector(r=r, h=h), 1.0, 0.05
        grid = np.linspace(-10 * sigma, 10 * sigma, 8192)

        def binned(x):
            dens = np.exp(-((grid - x) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
            return pixelate(SampledDistribution(grid, dens), det).probs

        family = _gaussian_pixels(det, 1.0, sigma)
        assert np.max(np.abs(family.probabilities(g) - binned(g))) <= 5e-6
        oracle = oracles.classical_fisher(oracles.numeric_family(binned), g)
        assert oracle.method is oracles.FisherMethod.CENTRAL_DIFFERENCE
        assert classical_fisher(family, g) == pytest.approx(oracle.fi, rel=5e-6)


class TestPixelatedRatio:
    def test_real_wva_bounded_by_one(self):
        pre = bloch_state(0.9, 0.0)
        post = optimal_postselection(pre, SIGMA_Z)
        det = PixelatedDetector(r=0.2, h=0.1)
        ratio = pixelated_fisher_ratio(
            "real_wva", 1e-4, 1.0, det, (pre, post, SIGMA_Z)
        )
        assert ratio <= 1.0 + 1e-6
        # optimal selection: Re<f|A|i>^2 = 1 = lambda_max^2, pixel terms cancel
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_real_wva_suboptimal_selection(self):
        pre = bloch_state(0.9, 0.0)
        post = bloch_state(2.7, 0.0)
        det = PixelatedDetector(r=0.2, h=0.1)
        ratio = pixelated_fisher_ratio(
            "real_wva", 1e-4, 1.0, det, (pre, post, SIGMA_Z)
        )
        num = np.vdot(
            post.amplitudes, SIGMA_Z.matrix @ pre.amplitudes
        ).real ** 2
        assert ratio == pytest.approx(num, rel=1e-6)
        assert ratio < 1.0

    def test_imaginary_wva_fine_pixels_near_unity(self):
        pre = bloch_state(np.pi / 2, 0.0)
        post = bloch_state(-np.pi / 2, 0.1)
        det = PixelatedDetector(r=0.02, h=0.01)
        ratio = pixelated_fisher_ratio(
            "imaginary_wva", 1e-5, 1.0, det, (pre, post, SIGMA_Z)
        )
        assert ratio == pytest.approx(1.0, rel=5e-3)


class TestSaturatingDetector:
    def test_noiseless_point_mass(self):
        det = SaturatingDetector(k_s=100, readout_sigma=0.0)
        out = saturating_response(det, 42)
        assert out.probs[np.argmin(np.abs(out.labels - 42))] == 1.0

    def test_hard_clip(self):
        det = SaturatingDetector(k_s=100, readout_sigma=0.0)
        out = saturating_response(det, 250)
        assert out.probs[-1] == 1.0 and out.labels[-1] == 100.0

    def test_response_shape_mean_monotone_variance_collapse(self):
        det = SaturatingDetector(k_s=60, readout_sigma=2.0)
        means, variances = [], []
        for n_in in (10, 30, 50, 80, 120):
            out = saturating_response(det, n_in)
            mean = np.sum(out.labels * out.probs)
            var = np.sum((out.labels - mean) ** 2 * out.probs)
            means.append(mean)
            variances.append(var)
        assert np.all(np.diff(means) >= -1e-9)
        assert variances[-1] < 1e-6  # deep saturation pins the readout

    def test_readout_distribution_normalized(self):
        det = SaturatingDetector(k_s=80, eta=0.9, readout_sigma=1.5)
        pk = readout_distribution(det, 50.0)
        assert pk.sum() == pytest.approx(1.0, abs=1e-8)

    def test_ladder_too_long_is_refused_before_allocation(self):
        # k_s = 10^8 would ask for an 800 MB ladder and a far larger
        # response; the check reads k_s / Q alone
        tracemalloc.start()
        try:
            for k_s, q in ((10**8, 1.0), (10**6, 0.01), (1, 1e-300)):
                with pytest.raises(LadderTooLong):
                    SaturatingDetector(k_s=k_s, quantization=q)
            with pytest.raises(ValueError):
                SaturatingDetector(k_s=10, quantization=math.nan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # ceil(k_s / Q) + 1 levels: the longest ladder held is exactly the cap
        SaturatingDetector(k_s=MAX_LADDER_LEVELS - 1)
        with pytest.raises(LadderTooLong):
            SaturatingDetector(k_s=MAX_LADDER_LEVELS)


@st.composite
def saturating_cases(draw):
    det = SaturatingDetector(
        k_s=draw(st.integers(1, 400)),
        eta=draw(st.floats(0.1, 1.0)),
        readout_sigma=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0, 4.0])),
        quantization=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 7.0])),
    )
    nbar = 10 ** draw(st.floats(-2.0, 3.5))
    response = None
    if draw(st.booleans()):
        rows = draw(st.integers(1, 80))
        response = np.array([saturating_response(det, n).probs for n in range(rows)])
    return det, nbar, response


@given(saturating_cases())
# k_s = 10 is no multiple of Q = 3: 10 and 11 photons round to the level 9
# but read the clipped top level 10
@example((SaturatingDetector(k_s=10, quantization=3.0), 10.0, None))
def test_saturated_fisher_is_the_step_oracle_without_the_step(case):
    # three pixels at nbar/10, nbar and 10 nbar, each growing as e^g; the
    # oracle takes central differences at h = 1e-6 around g = 0. Each of its
    # P(k) carries some ulps of roundoff, so each difference is off by
    # ~ c eps / h and its F by ~ 2 c (eps / h) sqrt(F) (Cauchy-Schwarz), or by
    # (c eps / h)^2 in deep saturation, where the exact F vanishes. Both
    # floors matter only for pixels with Gamma below ~1e-3
    det, nbar, response = case
    levels = nbar * np.array([0.1, 1.0, 10.0])
    exact = saturated_fisher(levels, levels, det, response)
    oracle = oracles.saturated_fisher(lambda g: levels * np.exp(g), det, 0.0, response=response)
    floor = 32 * np.finfo(float).eps / 1e-6 * np.sqrt(oracle.per_pixel) + 1e-12 * det.eta * levels
    assert np.all(np.abs(exact.per_pixel - oracle.per_pixel) <= 1e-7 * oracle.per_pixel + floor)
    # the readout never beats shot noise
    assert np.all(exact.gammas <= 1.0 + 1e-9)
    assert exact.total == pytest.approx(float(np.sum(exact.per_pixel)), rel=1e-15)
    for n in levels:
        pk = readout_distribution(det, n, response)
        # the Poisson log-pmf at mean mu carries about eps mu ln(mu) of
        # roundoff, below 1e-10 for the mu <= 3.2e4 drawn here
        assert abs(pk.sum() - 1.0) <= 1e-9
        # the fold against the matrix of per-row nearest-level responses:
        # the same positive terms, summed in another order where several
        # photon numbers share a level
        np.testing.assert_allclose(
            pk, oracles.readout_distribution_matrix(det, n, response), rtol=1e-13, atol=0
        )


class TestSaturatedFisher:
    @staticmethod
    def beam_profile(total, shift_rate, sigma=1.0, pixels=41, width=8.0):
        """(nbar, d nbar / dg) at g = 0 of a Gaussian beam on `pixels`
        pixels, shifted by shift_rate * g."""
        centers = np.linspace(-width / 2, width / 2, pixels)
        dx = centers[1] - centers[0]
        nbar = (
            total
            * dx
            * np.exp(-(centers**2) / (2 * sigma**2))
            / math.sqrt(2 * math.pi * sigma**2)
        )
        return nbar, nbar * centers * shift_rate / sigma**2

    @pytest.mark.parametrize("sigma_r", [0.0, 1.0])
    def test_ladder_is_built_once_per_call(self, sigma_r, monkeypatch):
        levels_of, calls = SaturatingDetector.readout_levels, []

        def counted(det):
            calls.append(det)
            return levels_of(det)

        monkeypatch.setattr(SaturatingDetector, "readout_levels", counted)
        det = SaturatingDetector(k_s=1000, readout_sigma=sigma_r)
        saturated_fisher(*self.beam_profile(1e4, 1.0), det)
        assert len(calls) == 1
        readout_distribution(det, 500.0)
        assert len(calls) == 2

    def test_poisson_limit(self):
        det = SaturatingDetector(k_s=100000, readout_sigma=0.0)
        n0, dn = self.beam_profile(200.0, 1.0)
        res = saturated_fisher(n0, dn, det)
        ideal = np.sum(dn**2 / n0)
        # measured: -8.5e-13 and, per pixel, at most 1.1e-11 (the dimmest
        # edge pixels, whose last Poisson terms fall under the 1e-14 floor)
        assert res.total == pytest.approx(ideal, rel=1e-11)
        # Gamma -> 1 wherever the pixel actually responds to g (the exactly
        # centered pixel has zero derivative and reports Gamma = 0)
        responsive = np.abs(dn) > 1e-9
        assert np.all(np.abs(res.gammas[responsive] - 1.0) < 1e-10)
        assert res.gammas[~responsive].tolist() == [0.0]

    def test_saturated_pixels_contribute_nothing(self):
        det = SaturatingDetector(k_s=5, readout_sigma=0.0)
        n0, dn = self.beam_profile(2000.0, 1.0)
        res = saturated_fisher(n0, dn, det)
        hot = n0 > 50
        assert np.all(res.gammas[hot] < 1e-3)

    def test_monotone_in_readout_noise_and_threshold(self):
        profile = self.beam_profile(300.0, 1.0)
        totals_sigma = [
            saturated_fisher(*profile, SaturatingDetector(k_s=40, readout_sigma=s)).total
            for s in (0.0, 2.0, 6.0)
        ]
        assert totals_sigma[0] >= totals_sigma[1] >= totals_sigma[2]
        totals_ks = [
            saturated_fisher(*profile, SaturatingDetector(k_s=k, readout_sigma=1.0)).total
            for k in (10, 40, 160)
        ]
        assert totals_ks[0] <= totals_ks[1] <= totals_ks[2]

    def test_wva_advantage_under_saturation(self):
        # same input power; WVA keeps p_f N photons with an amplified shift
        det = SaturatingDetector(k_s=30, readout_sigma=0.0)
        n_total = 3000.0
        p_f, w = 0.01, 10.0  # trade-off p_f w^2 = 1
        f_cm = saturated_fisher(*self.beam_profile(n_total, 1.0), det).total
        f_wva = saturated_fisher(*self.beam_profile(p_f * n_total, w), det).total
        assert f_wva > 1.2 * f_cm

    def test_measured_response_matrix_reproduces_parametric(self):
        # feeding the tabulated parametric response back in changes nothing
        det = SaturatingDetector(k_s=15, readout_sigma=1.0)
        matrix = np.array([saturating_response(det, n).probs for n in range(60)])
        profile = self.beam_profile(120.0, 1.0, pixels=15, width=6.0)
        direct = saturated_fisher(*profile, det)
        loaded = saturated_fisher(*profile, det, response=matrix)
        assert loaded.total == pytest.approx(direct.total, rel=1e-10)
