"""Standard-form density, distribution function, mgf, moments, and modes.

Every closed form is checked against adaptive quadrature of the density,
which is the one object simple enough to trust by construction.  Frozen
scalar oracles were computed independently with 50-digit arithmetic.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import logistic

from baslg import StandardBaslg, SymmetricComponent, normalizing_constant
from baslg.core import _log_b, blg4_cdf, blg4_mgf, blg4_pdf

from conftest import quad_cdf, quad_expect

ALPHA_SWEEP = [-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0]
PI = math.pi


class TestNormalization:
    @pytest.mark.parametrize("alpha", ALPHA_SWEEP)
    def test_density_integrates_to_one(self, alpha):
        d = StandardBaslg(alpha)
        total = quad(d.pdf, -200.0, 200.0, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", ALPHA_SWEEP)
    def test_symmetric_component_integrates_to_one(self, alpha):
        s = SymmetricComponent(alpha)
        total = quad(s.pdf, -200.0, 200.0, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_constant_closed_form(self):
        assert normalizing_constant(0.0) == 4.0
        want = 4.0 + 8.0 * PI**2 / 3.0 + 7.0 * PI**4 / 15.0
        assert normalizing_constant(1.0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_constant_against_quadrature(self, alpha):
        def weight(z):
            kern = math.exp(-z) / (1.0 + math.exp(-z)) ** 2 if z > -500 else 0.0
            return ((1.0 - alpha * z) ** 2 + 1.0) ** 2 * kern

        got = quad(weight, -200.0, 200.0, limit=400)[0]
        assert normalizing_constant(alpha) == pytest.approx(got, rel=1e-10)

    def test_blg4_integrates_to_one(self):
        total = quad(blg4_pdf, -200.0, 200.0, limit=400)[0]
        assert total == pytest.approx(1.0, abs=1e-10)


class TestLogisticReduction:
    def test_alpha_zero_matches_scipy(self):
        d = StandardBaslg(0.0)
        z = np.linspace(-30.0, 30.0, 121)
        np.testing.assert_allclose(d.pdf(z), logistic.pdf(z), rtol=1e-12)
        np.testing.assert_allclose(d.cdf(z), logistic.cdf(z), rtol=1e-10, atol=1e-300)

    def test_alpha_zero_mgf(self):
        # Logistic mgf is Gamma(1+t) Gamma(1-t) = pi t / sin(pi t).
        d = StandardBaslg(0.0)
        for t in (-0.9, -0.4, 0.2, 0.8):
            want = PI * t / math.sin(PI * t)
            assert d.mgf(t) == pytest.approx(want, rel=1e-12)


class TestCdf:
    Z_GRID = [-30.0, -5.0, -0.8, 0.0, 0.7, 2.5, 10.0, 40.0]

    def test_frozen_oracle(self):
        # 50-digit reference for alpha = 1, z = 0.7.
        assert StandardBaslg(1.0).cdf(0.7) == pytest.approx(
            0.8636813443908389, rel=1e-13
        )

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 0.7, 1.0, 3.0])
    @pytest.mark.parametrize("z", Z_GRID)
    def test_against_quadrature(self, alpha, z):
        d = StandardBaslg(alpha)
        assert d.cdf(z) == pytest.approx(quad_cdf(d.pdf, z), abs=1e-10)

    @pytest.mark.parametrize("alpha", [-2.0, 0.7, 3.0])
    @pytest.mark.parametrize("z", [-5.0, 0.0, 2.5])
    def test_symmetric_component_against_quadrature(self, alpha, z):
        s = SymmetricComponent(alpha)
        assert s.cdf(z) == pytest.approx(quad_cdf(s.pdf, z), abs=1e-10)

    @pytest.mark.parametrize("z", [-5.0, -0.5, 1.0, 8.0])
    def test_blg4_against_quadrature(self, z):
        assert blg4_cdf(z) == pytest.approx(quad_cdf(blg4_pdf, z), abs=1e-10)

    @pytest.mark.parametrize("alpha", ALPHA_SWEEP)
    def test_derivative_is_density(self, alpha):
        d = StandardBaslg(alpha)
        z = np.linspace(-20.0, 20.0, 200)
        h = 1e-5
        fd = (d.cdf(z + h) - d.cdf(z - h)) / (2.0 * h)
        assert np.max(np.abs(fd - d.pdf(z))) <= 1e-6

    def test_deep_lower_tail(self):
        # below z = -709.8, e^-z overflows; sigma(z) must not drop to 0 there
        d = StandardBaslg(1.5)
        z = [-700.0, -709.7, -709.8, -712.0]
        want = np.array([mp_tail(1.5, v, upper=False) for v in z])
        np.testing.assert_allclose(d.cdf(np.array(z)), want, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 3.0])
    def test_tail_limits(self, alpha):
        d = StandardBaslg(alpha)
        got = d.cdf(np.array([-np.inf, -1e6, -1e300, 1e300, 1e6, np.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_monotone_and_bounded(self):
        for alpha in (-3.0, 0.49, 2.0):
            d = StandardBaslg(alpha)
            vals = d.cdf(np.linspace(-40.0, 40.0, 400))
            assert np.all(np.diff(vals) >= 0.0)
            assert vals[0] >= 0.0 and vals[-1] <= 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            StandardBaslg(1.0).cdf(np.nan)


def mp_tail(alpha: float, z: float, sym: bool = False, upper: bool = True) -> float:
    """40-digit quadrature of the upper (or lower) tail, with e^-|z| factored out."""
    with mp.workdps(40):
        a, z = mp.mpf(alpha), mp.mpf(z)
        side = 1 if upper else -1

        def poly(u):
            if sym:
                return 4 + 8 * (a * u) ** 2 + (a * u) ** 4
            return ((1 - a * u) ** 2 + 1) ** 2

        def integrand(t):
            return poly(z + side * t) * mp.exp(-t) / (1 + mp.exp(-side * z - t)) ** 2

        const = 4 + 8 * mp.pi**2 * a**2 / 3 + 7 * mp.pi**4 * a**4 / 15
        tail = mp.quad(integrand, [0, 2, 10, 40, 120, mp.inf])
        return float(mp.exp(-side * z) * tail / const)


class TestSurvival:
    # 1 - cdf loses its relative digits from z ~ 10 on (3.4e-8 at z = 30,
    # all of them by z = 40); the survival function must keep them.
    Z_UPPER = [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 100.0, 300.0, 700.0]

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -3.0, 20.0])
    def test_upper_tail_against_mpmath(self, alpha):
        d = StandardBaslg(alpha)
        got = d.sf(np.array(self.Z_UPPER))
        want = np.array([mp_tail(alpha, z) for z in self.Z_UPPER])
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_symmetric_component_upper_tail(self):
        s = SymmetricComponent(1.5)
        for z in (5.0, 40.0, 300.0):
            want = mp_tail(1.5, z, sym=True)
            assert abs(s.sf(z) - want) <= 1e-14 * want

    @pytest.mark.parametrize("alpha", [-3.0, 0.0, 1.5])
    def test_lower_half_is_one_minus_cdf(self, alpha):
        d = StandardBaslg(alpha)
        z = np.linspace(-40.0, -0.5, 80)
        np.testing.assert_array_equal(d.sf(z), 1.0 - d.cdf(z))

    def test_limits_and_shapes(self):
        d = StandardBaslg(0.7)
        got = d.sf(np.array([-np.inf, -1e300, 0.0, 1e300, np.inf]))
        np.testing.assert_array_equal(got[[0, 1, 3, 4]], [1.0, 1.0, 0.0, 0.0])
        assert 0.0 < got[2] < 1.0
        assert isinstance(d.sf(1.0), float)
        assert d.sf(np.zeros((2, 3))).shape == (2, 3)
        with pytest.raises(ValueError):
            d.sf(np.nan)


def ulps(got, want):
    """|got - want| in units of 2^-52 |want|, or of the subnormal step 2^-1074 below that."""
    return np.abs(got - want) / np.maximum(2.0**-52 * np.abs(want), 2.0**-1074)


class TestSubnormalBand:
    # Beyond |z| = 708.4 the kernel e^-|z| is subnormal; the cdf, the sf and
    # the pdf must still come out within two units of the last place there.
    Z = [-720.0, -740.0, -745.0, -745.1, -750.0, -770.0]
    ALPHAS = [0.0, 1.5, -3.0, -30.0, 1e3]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cdf_and_sf_against_mpmath(self, alpha):
        d = StandardBaslg(alpha)
        z = np.array(self.Z)
        lower = np.array([mp_tail(alpha, v, upper=False) for v in self.Z])
        upper = np.array([mp_tail(alpha, -v) for v in self.Z])
        assert np.max(ulps(d.cdf(z), lower)) <= 2.0
        assert np.max(ulps(d.sf(-z), upper)) <= 2.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_pdf_against_mpmath(self, alpha):
        z = np.array(self.Z + [-v for v in self.Z])
        with mp.workdps(40):
            a = mp.mpf(alpha)
            const = 4 + 8 * mp.pi**2 * a**2 / 3 + 7 * mp.pi**4 * a**4 / 15
            kernel = [mp.exp(-abs(v)) / (1 + mp.exp(-abs(v))) ** 2 for v in map(mp.mpf, z)]
            want = np.array([float(((1 - a * v) ** 2 + 1) ** 2 * g / const)
                             for v, g in zip(map(mp.mpf, z), kernel)])
        assert np.max(ulps(StandardBaslg(alpha).pdf(z), want)) <= 2.0

    def test_monotone(self):
        z = np.linspace(-800.0, -700.0, 100_001)
        for alpha in self.ALPHAS:
            d = StandardBaslg(alpha)
            assert np.all(np.diff(d.cdf(z)) >= 0.0)
            assert np.all(np.diff(d.sf(-z)) >= 0.0)


# t for the mpmath referee: the origin, both sides of the series/cotangent
# seam at |t| = 1/2, the poles at |t| -> 1 and a spread in between (49 values)
MP_T = sorted({
    0.0, 1e-8, -1e-8,
    *(sign * v for sign in (1.0, -1.0) for v in (0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.999, 1.0 - 1e-9)),
    *np.linspace(-0.99, 0.99, 37).tolist(),
})
MP_MGF_TOL = 2e-15


@functools.lru_cache(maxsize=None)
def mp_b_derivatives(t: float) -> tuple:
    """B^(m)(t), m = 0..4, of the logistic mgf B(t) = Gamma(1+t) Gamma(1-t), at 40 digits."""
    with mp.workdps(40):
        coeffs = mp.taylor(lambda u: mp.gamma(1 + u) * mp.gamma(1 - u), mp.mpf(t), 4)
        return tuple(cf * mp.factorial(m) for m, cf in enumerate(coeffs))


def mp_mgf(coeffs, t: float) -> float:
    """E[p(Z) e^(tZ)] / E[p(Z)] under the logistic law for p = sum_j coeffs[j] z^j."""
    with mp.workdps(40):
        moments = (1, 0, mp.pi**2 / 3, 0, 7 * mp.pi**4 / 15)
        const = sum(c * m for c, m in zip(coeffs, moments))
        return float(sum(c * b for c, b in zip(coeffs, mp_b_derivatives(t))) / const)


def mp_coeffs(law):
    """Coefficients of the law's polynomial, lowest first, exact in the shape."""
    if law == "blg4":
        return (0, 0, 0, 0, 1)
    a = mp.mpf(law.alpha)
    if isinstance(law, SymmetricComponent):
        return (4, 0, 8 * a**2, 0, a**4)
    return (4, -8 * a, 8 * a**2, -4 * a**3, a**4)  # ((1 - a z)^2 + 1)^2


class TestMgf:
    T_GRID = [-0.9, -0.5, -0.2, -1e-3, 1e-3, 0.2, 0.5, 0.9]

    def test_log_derivatives_against_mpmath(self):
        b, dlog = _log_b(np.array(MP_T), 4)
        for i, t in enumerate(MP_T):
            with mp.workdps(40):
                u = mp.mpf(t)
                assert b[i] == pytest.approx(float(mp.gamma(1 + u) * mp.gamma(1 - u)),
                                             rel=MP_MGF_TOL)
                for j in range(1, 5):
                    want = mp.psi(j - 1, 1 + u) + (-1) ** j * mp.psi(j - 1, 1 - u)
                    # abs only absorbs mpmath's noise where odd orders vanish at t = 0
                    assert dlog[j - 1, i] == pytest.approx(float(want), rel=MP_MGF_TOL, abs=1e-30)

    @pytest.mark.parametrize(
        "law",
        [StandardBaslg(a) for a in (-2.5, 0.0, 0.3, 1.5, 20.0)] + [SymmetricComponent(1.5), "blg4"],
        ids=lambda law: law if law == "blg4" else f"{type(law).__name__}({law.alpha!r})",
    )
    def test_against_mpmath(self, law):
        mgf = blg4_mgf if law == "blg4" else law.mgf
        got = mgf(np.array(MP_T))
        want = np.array([mp_mgf(mp_coeffs(law), t) for t in MP_T])
        assert np.max(np.abs(got - want) / want) <= MP_MGF_TOL

    def test_array_shapes(self):
        d = StandardBaslg(1.5)
        assert d.mgf(np.zeros((2, 3))).shape == (2, 3)
        # both branches of the log-derivatives in one 2-D argument
        t = np.array([[0.0, 0.3, -0.7], [0.55, -0.99, 1e-8]])
        for mgf in (d.mgf, blg4_mgf):
            np.testing.assert_array_equal(mgf(t), mgf(t.ravel()).reshape(t.shape))

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7, 3.0])
    @pytest.mark.parametrize("t", T_GRID)
    def test_against_quadrature(self, alpha, t):
        d = StandardBaslg(alpha)
        want = quad_expect(d.pdf, lambda z: np.exp(t * z))
        assert d.mgf(t) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.7, 3.0])
    def test_unit_at_zero(self, alpha):
        assert StandardBaslg(alpha).mgf(0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [-0.5, 1.0])
    @pytest.mark.parametrize("t", [-0.5, 0.3])
    def test_symmetric_component(self, alpha, t):
        s = SymmetricComponent(alpha)
        want = quad_expect(s.pdf, lambda z: np.exp(t * z))
        assert s.mgf(t) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("t", [-0.6, 0.0, 0.3])
    def test_blg4(self, t):
        want = quad_expect(blg4_pdf, lambda z: np.exp(t * z))
        assert blg4_mgf(t) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_finite_difference_moments(self, alpha, k):
        # Richardson-extrapolated central differences of the mgf recover
        # the raw moments.
        d = StandardBaslg(alpha)

        def fd(h):
            if k == 1:
                return (d.mgf(h) - d.mgf(-h)) / (2.0 * h)
            return (d.mgf(h) - 2.0 * d.mgf(0.0) + d.mgf(-h)) / h**2

        coarse, fine = fd(1e-3), fd(1e-4)
        richardson = fine + (fine - coarse) / 99.0
        want = d.raw_moment(k)
        assert richardson == pytest.approx(want, rel=1e-4)

    def test_domain(self):
        d = StandardBaslg(1.0)
        for t in (1.0, -1.0, 1.7, np.nan):
            with pytest.raises(ValueError):
                d.mgf(t)
        with pytest.raises(ValueError):
            SymmetricComponent(1.0).mgf(1.0)
        with pytest.raises(ValueError):
            blg4_mgf(-1.2)


class TestMoments:
    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.7, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_against_quadrature(self, alpha, k):
        d = StandardBaslg(alpha)
        want = quad_expect(d.pdf, lambda z: z**k)
        assert d.raw_moment(k) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_frozen_oracles(self):
        d = StandardBaslg(1.0)
        assert d.raw_moment(1) == pytest.approx(-2.7468831493032946, rel=1e-12)
        assert d.raw_moment(3) == pytest.approx(-79.7138060947959, rel=1e-12)

    def test_odd_moments_negative_for_positive_alpha(self):
        for alpha in (0.3, 1.0, 4.0):
            d = StandardBaslg(alpha)
            assert d.raw_moment(1) < 0.0
            assert d.raw_moment(3) < 0.0
            assert StandardBaslg(-alpha).raw_moment(1) == pytest.approx(
                -d.raw_moment(1), rel=1e-13
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_variance_rational_form(self, alpha):
        a2, a4 = alpha**2, alpha**4
        num = PI**2 * (
            8400.0
            + 17920.0 * PI**2 * a2
            + 10280.0 * PI**4 * a4
            + 3456.0 * PI**6 * alpha**6
            + 1085.0 * PI**8 * alpha**8
        )
        den = 7.0 * (60.0 + 40.0 * PI**2 * a2 + 7.0 * PI**4 * a4) ** 2
        assert StandardBaslg(alpha).moment_set().variance == pytest.approx(
            num / den, rel=1e-12
        )

    def test_moment_set_consistency(self):
        d = StandardBaslg(1.5)
        ms = d.moment_set()
        assert ms.variance == pytest.approx(ms.raw2 - ms.raw1**2, rel=1e-12)
        mean = ms.raw1
        c3 = quad_expect(d.pdf, lambda z: (z - mean) ** 3)
        c4 = quad_expect(d.pdf, lambda z: (z - mean) ** 4)
        assert ms.beta1 == pytest.approx(c3**2 / ms.variance**3, rel=1e-8)
        assert ms.beta2 == pytest.approx(c4 / ms.variance**2, rel=1e-8)

    def test_logistic_special_values(self):
        ms = StandardBaslg(0.0).moment_set()
        assert ms.raw1 == pytest.approx(0.0, abs=1e-14)
        assert ms.variance == pytest.approx(PI**2 / 3.0, rel=1e-14)
        assert ms.beta1 == pytest.approx(0.0, abs=1e-14)
        assert ms.beta2 == pytest.approx(4.2, rel=1e-12)

    def test_bad_order(self):
        d = StandardBaslg(1.0)
        for k in (0, 9, -1, 2.5, True):
            with pytest.raises(ValueError):
                d.raw_moment(k)


class TestModes:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, -0.1, 0.3, -0.3, 0.47, -0.47])
    def test_unimodal_region(self, alpha):
        report = StandardBaslg(alpha).mode_report()
        assert report.mode_count == 1
        assert report.antimode is None

    @pytest.mark.parametrize("alpha", [0.49, -0.49, 1.0, -1.0, 5.0, -5.0, 100.0, -100.0])
    def test_bimodal_region(self, alpha):
        report = StandardBaslg(alpha).mode_report()
        assert report.mode_count == 2
        assert report.antimode is not None

    def test_frozen_locations(self):
        report = StandardBaslg(0.49).mode_report()
        assert report.modes[0] == pytest.approx(-2.0851589260072503, abs=1e-8)
        assert report.modes[1] == pytest.approx(4.324116985219769, abs=1e-8)
        assert report.antimode == pytest.approx(3.612070558258849, abs=1e-8)

    def test_symmetric_case_peaks_at_origin(self):
        report = StandardBaslg(0.0).mode_report()
        assert report.modes[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.49, 2.0])
    def test_modes_are_local_maxima(self, alpha):
        d = StandardBaslg(alpha)
        report = d.mode_report()
        h = 1e-4
        for m in report.modes:
            peak = d.pdf(m)
            assert peak >= d.pdf(m - h) and peak >= d.pdf(m + h)
        if report.antimode is not None:
            dip = d.pdf(report.antimode)
            assert dip <= d.pdf(report.antimode - h)
            assert dip <= d.pdf(report.antimode + h)
            assert report.modes[0] < report.antimode < report.modes[1]

    @pytest.mark.parametrize("alpha", [0.49, 1.7])
    def test_reflection(self, alpha):
        plus = StandardBaslg(alpha).mode_report()
        minus = StandardBaslg(-alpha).mode_report()
        np.testing.assert_allclose(
            sorted(-m for m in plus.modes), sorted(minus.modes), atol=1e-8
        )
        assert minus.antimode == pytest.approx(-plus.antimode, abs=1e-8)


class TestLimitLaw:
    def test_large_alpha_approaches_blg4(self):
        d = StandardBaslg(1e4)
        z = np.linspace(-10.0, 10.0, 2001)
        assert np.max(np.abs(d.pdf(z) - blg4_pdf(z))) <= 1e-3
        assert np.max(np.abs(d.cdf(z) - blg4_cdf(z))) <= 1e-3

    def test_pointwise_relative_agreement(self):
        d = StandardBaslg(1e4)
        for z in (-5.0, -1.0, 1.0, 5.0):
            assert d.pdf(z) == pytest.approx(blg4_pdf(z), rel=1e-3)


class TestValidationAndEdges:
    def test_alpha_must_be_finite(self):
        for bad in (np.nan, np.inf, -np.inf, 1e75, -1e80):
            with pytest.raises(ValueError):
                StandardBaslg(bad)
            with pytest.raises(ValueError):
                SymmetricComponent(bad)

    def test_density_vanishes_at_huge_arguments(self):
        d = StandardBaslg(-1.3)
        np.testing.assert_array_equal(d.pdf(np.array([-1e300, 1e300])), [0.0, 0.0])
        s = SymmetricComponent(2.0)
        np.testing.assert_array_equal(s.pdf(np.array([-1e300, 1e300])), [0.0, 0.0])

    def test_scalar_and_array_shapes(self):
        d = StandardBaslg(0.7)
        assert isinstance(d.pdf(0.3), float)
        assert isinstance(d.cdf(0.3), float)
        out = d.pdf(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        out = d.cdf(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        # a 2-D argument that mixes the subnormal band with ordinary points
        # gives the 1-D result entry by entry
        z = np.array([[0.0, -745.1, 3.0], [740.0, -0.5, -801.0]])
        for f in (d.pdf, d.cdf, d.sf):
            np.testing.assert_array_equal(f(z), f(z.ravel()).reshape(z.shape))


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    z=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)
def test_property_reflection_and_decomposition(alpha, z):
    d_plus = StandardBaslg(alpha)
    d_minus = StandardBaslg(-alpha)
    s = SymmetricComponent(alpha)
    # Negating the shape mirrors the density and flips the cdf.
    assert d_minus.pdf(-z) == pytest.approx(d_plus.pdf(z), rel=1e-10, abs=1e-300)
    assert d_minus.cdf(-z) == pytest.approx(1.0 - d_plus.cdf(z), abs=1e-10)
    # The even part of the density is the symmetric component.
    even = 0.5 * (d_plus.pdf(z) + d_plus.pdf(-z))
    assert even == pytest.approx(s.pdf(z), rel=1e-12, abs=1e-300)
    assert d_plus.pdf(z) >= 0.0
