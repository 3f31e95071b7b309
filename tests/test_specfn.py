"""Polylogarithm, zeta, and factorial-gamma kernels.

The independent oracle for Li_n(-e^z) is the Fermi-Dirac integral

    Li_n(-e^z) = -(1/Gamma(n)) * int_0^inf t^(n-1) / (1 + e^(t-z)) dt,

evaluated by adaptive quadrature.  It shares no code with the three-branch
series implementation under test.
"""

from __future__ import annotations

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from baslg.specfn import _eta_negative, gamma_int, polylog, polylog_neg_exp, zeta

# Apery's constant, zeta(3), correct to the last double bit.
ZETA3 = 1.2020569031595943

ANCHORS = {
    2: -math.pi**2 / 12,
    3: -0.75 * ZETA3,
    4: -7 * math.pi**4 / 720,
}


def fermi_dirac(n: int, z: float) -> float:
    if z <= -1.0:
        # Factor out e^z so the quadrature sees an O(1) integrand even when
        # the value itself is vanishingly small.
        def integrand(t):
            return t ** (n - 1) * math.exp(-t) / (1.0 + math.exp(z - t))

        val, _ = quad(integrand, 0.0, 60.0, limit=400)
        return -math.exp(z) * val / math.gamma(n)

    def integrand(t):
        # 1/(1+e^(t-z)) written stably for both signs of t - z.
        return t ** (n - 1) * 0.5 * (1.0 - math.tanh(0.5 * (t - z)))

    upper = max(60.0, z + 60.0)
    val, _ = quad(integrand, 0.0, upper, limit=400)
    return -val / math.gamma(n)


class TestAnchors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_value_at_minus_one(self, n):
        start = time.perf_counter()
        got = polylog(n, -1.0)
        elapsed = time.perf_counter() - start
        assert abs(got - ANCHORS[n]) <= 1e-12 * abs(ANCHORS[n])
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_argument(self, n):
        assert polylog(n, 0.0) == 0.0
        assert polylog_neg_exp(n, -np.inf) == 0.0


class TestAgainstQuadrature:
    Z_GRID = [-700.0, -30.0, -5.0, -1.0 - 1e-9, -1.0, -0.999, -0.3, 0.0,
              0.3, 0.999, 1.0, 1.0 + 1e-9, 5.0, 30.0, 700.0]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("z", Z_GRID)
    def test_neg_exp_form(self, n, z):
        got = polylog_neg_exp(n, z)
        want = fermi_dirac(n, z)
        assert got == pytest.approx(want, rel=5e-11, abs=1e-280)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_series_region(self, n):
        # Direct partial sums converge fast enough here to act as a second,
        # dumber oracle for the x-form entry point.
        for x in np.linspace(-0.9, -0.05, 18):
            want = sum(x**k / k**n for k in range(1, 200))
            assert polylog(n, x) == pytest.approx(want, rel=1e-13)


class TestAgainstMpmath:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eta_branch(self, n):
        # |mu| < 1 is the branch whose coefficients hold eta(n - k) at
        # negative arguments, that is, the Bernoulli numbers.
        mu = np.linspace(-0.999, 0.999, 201)
        got = polylog_neg_exp(n, mu)
        with mp.workdps(40):
            want = np.array([float(mp.polylog(n, -mp.exp(mp.mpf(m)))) for m in mu])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_eta_at_negative_integers_is_correctly_rounded(self):
        with mp.workdps(40):
            want = [float(mp.altzeta(-m)) for m in range(1, 80)]
        assert _eta_negative(79) == want


class TestStructure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monotone_decreasing_in_z(self, n):
        z = np.linspace(-40.0, 40.0, 100)
        vals = polylog_neg_exp(n, z)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals < 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derivative_recurrence(self, n):
        # d/dz Li_n(-e^z) = Li_(n-1)(-e^z); Li_1(-e^z) = -log(1+e^z).
        h = 1e-5
        for z in [-3.0, -0.5, 0.0, 0.4, 2.0, 8.0]:
            fd = (polylog_neg_exp(n, z + h) - polylog_neg_exp(n, z - h)) / (2 * h)
            if n == 2:
                lower = -np.logaddexp(0.0, z)
            else:
                lower = polylog_neg_exp(n - 1, z)
            assert fd == pytest.approx(lower, rel=2e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seam", [-1.0, 1.0])
    def test_branch_seams_are_continuous(self, n, seam):
        eps = 1e-12
        below = polylog_neg_exp(n, seam - eps)
        at = polylog_neg_exp(n, seam)
        above = polylog_neg_exp(n, seam + eps)
        assert abs(at - below) <= 1e-12 * abs(at)
        assert abs(at - above) <= 1e-12 * abs(at)

    def test_vector_shapes(self):
        z = np.array([[-2.0, 0.0], [1.5, 4.0]])
        out = polylog_neg_exp(3, z.ravel())
        assert out.shape == (4,)
        assert isinstance(polylog_neg_exp(3, -0.5), float)
        assert isinstance(polylog(2, -0.5), float)
        arr = polylog(2, np.array([-0.5, -3.0]))
        assert arr.shape == (2,)


class TestZetaGamma:
    def test_closed_forms(self):
        assert zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)
        assert zeta(6) == pytest.approx(math.pi**6 / 945, rel=1e-15)
        assert zeta(8) == pytest.approx(math.pi**8 / 9450, rel=1e-15)
        assert zeta(3) == pytest.approx(ZETA3, rel=1e-14)

    def test_euler_maclaurin_matches_closed_form(self):
        # zeta(12) has an exact pi-power form, independent of the code.
        want = 691 * math.pi**12 / 638512875
        assert zeta(12) == pytest.approx(want, rel=1e-14)

    def test_zeta_is_correctly_rounded(self):
        with mp.workdps(40):
            # s = 2..53 is the table, s >= 54 the tail where zeta rounds to 1.0
            for s in range(2, 61):
                assert zeta(s) == float(mp.zeta(s)), s

    def test_gamma_int(self):
        assert gamma_int(1) == 1.0
        assert gamma_int(5) == 24.0
        assert gamma_int(8) == 5040.0
        assert gamma_int(20) == float(math.factorial(19))


class TestDomainErrors:
    def test_bad_orders(self):
        for n in (1, 5, 0, -2, 2.0, "2", True):
            with pytest.raises(ValueError):
                polylog(n, -0.5)
            with pytest.raises(ValueError):
                polylog_neg_exp(n, 0.0)

    def test_bad_polylog_arguments(self):
        with pytest.raises(ValueError):
            polylog(2, 0.5)
        with pytest.raises(ValueError):
            polylog(2, np.array([-1.0, 1e-9]))
        with pytest.raises(ValueError):
            polylog(2, -np.inf)
        with pytest.raises(ValueError):
            polylog(2, np.nan)

    def test_bad_neg_exp_arguments(self):
        with pytest.raises(ValueError):
            polylog_neg_exp(3, np.inf)
        with pytest.raises(ValueError):
            polylog_neg_exp(3, np.nan)

    def test_bad_zeta_and_gamma(self):
        for bad in (1, 0, -3, 2.5, "4", True):
            with pytest.raises(ValueError):
                zeta(bad)
        for bad in (0, 21, -1, 3.5, True):
            with pytest.raises(ValueError):
                gamma_int(bad)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    z=st.floats(min_value=-600.0, max_value=600.0, allow_nan=False),
)
def test_property_negative_finite(n, z):
    val = polylog_neg_exp(n, z)
    assert np.isfinite(val)
    assert val < 0.0
    # Strictly decreasing: a step to the right decreases the value.
    assert polylog_neg_exp(n, z + 0.5) < val
