"""Polylogarithm, zeta, and factorial-gamma kernels.

The independent oracle for Li_n(-e^z) is the Fermi-Dirac integral

    Li_n(-e^z) = -(1/Gamma(n)) * int_0^inf t^(n-1) / (1 + e^(t-z)) dt,

evaluated by adaptive quadrature.  It shares no code with the three-branch
series implementation under test.
"""

from __future__ import annotations

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from baslg import specfn
from baslg.specfn import _eta, _eta_negative, polylog, polylog_neg_exp, zeta

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


def _band_points() -> np.ndarray:
    """Each band edge of the fused kernel, one ulp either side, and band interiors."""
    z = [-700.0, -60.0, -0.5, 0.0, 0.5, 60.0, 700.0]
    for b, inner in ((1.0, 1.5), (2.0, 3.0), (4.0, 6.0), (8.0, 12.0), (16.0, 25.0), (37.0, 45.0)):
        for sign in (-1.0, 1.0):
            edge = sign * b
            z += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf), sign * inner]
    return np.array(sorted(z))


class TestFusedKernel:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bands_against_mpmath(self, n):
        z = _band_points()
        got = polylog_neg_exp(n, z)
        with mp.workdps(40):
            want = np.array([float(mp.polylog(n, -mp.exp(mp.mpf(v)))) for v in z])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_tuple_rows_equal_single_orders(self):
        rng = np.random.default_rng(8)
        z = np.concatenate([_band_points(), rng.uniform(-50.0, 50.0, 2000), [-np.inf]])
        rows = polylog_neg_exp((2, 3, 4), z)
        assert rows.shape == (3, z.size)
        for row, n in zip(rows, (2, 3, 4)):
            np.testing.assert_array_equal(row, polylog_neg_exp(n, z))
        np.testing.assert_array_equal(polylog_neg_exp((4, 2), z), rows[[2, 0]])

    def test_huge_z_overflows_quietly(self):
        # the inversion forms z^n; where that overflows, Li_n(-e^z) ~ -z^n / n!
        # does too, and -inf is the answer, not a floating-point fault.  The
        # underflow of e^-z to 0 is left to numpy's default.
        z = np.array([1e80, 1e100, 1e300, 3.0, -1e300, 40.0])
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            rows = polylog_neg_exp((2, 3, 4), z)
            singles = [[polylog_neg_exp(n, v) for v in z] for n in (2, 3, 4)]
            points = [polylog_neg_exp((2, 3, 4), [v]) for v in z]
        for n, row, single in zip((2, 3, 4), rows, singles):
            overflows = (z > 0.0) & (n * np.log10(np.abs(z)) > 308.3)
            np.testing.assert_array_equal(np.isneginf(row), overflows)
            assert np.isfinite(row[~overflows]).all()
            np.testing.assert_array_equal(row, single)
        np.testing.assert_array_equal(rows, np.hstack(points))

    def test_tuple_shapes(self):
        assert polylog_neg_exp((2, 3), -0.5).shape == (2,)
        assert polylog_neg_exp((2, 3, 4), np.zeros((2, 5))).shape == (3, 2, 5)
        assert polylog_neg_exp((3,), np.array([])).shape == (1, 0)
        np.testing.assert_array_equal(polylog((2, 4), -1.0), [polylog(2, -1.0), polylog(4, -1.0)])


def _horner_rows(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty((c.shape[0], x.size))
    out[:] = c[:, -1:]
    for j in range(c.shape[1] - 2, -1, -1):
        out *= x
        out += c[:, j, None]
    return out


def _per_band(orders: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """Li_n(-e^z) band by band, one Horner per band: the kernel's steps before the single sweep."""
    series, eta = specfn._coeff_rows(orders)
    out = np.full((len(orders), z.size), np.nan)
    a = np.abs(z)
    near = a < 1.0
    out[:, near] = _horner_rows(eta, z[near])
    edges = [b for b, _ in specfn._BANDS]
    for (b, terms), above in zip(specfn._BANDS, edges[1:] + [None]):
        band = (a >= b) if above is None else (a >= b) & (a < above)
        for pick in (band & (z < 0.0), band & (z > 0.0)):
            mu, x = z[pick], -np.exp(-a[pick])
            rows = _horner_rows(series[:, :terms], x) * x
            if (mu > 0.0).all():
                for i, n in enumerate(orders):
                    poly = np.zeros_like(mu)
                    for k in range(n // 2 + 1):
                        poly += _eta(2 * k) * mu ** (n - 2 * k) / math.factorial(n - 2 * k)
                    rows[i] = -((-1.0) ** n) * rows[i] - 2.0 * poly
            out[:, pick] = rows
    return out


def _edge_neighbours() -> np.ndarray:
    z = [-np.inf, 1e300]
    for e in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 37.0):
        for v in (e, -e):
            z += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return np.array(z)


class TestSingleSweep:
    """polylog_neg_exp bit for bit against the per-band Horner it replaced."""

    ORDERS = [(2, 3, 4), (2,), (3,), (4,), (2, 4)]

    @staticmethod
    def check(orders, z):
        with np.errstate(over="ignore"):  # mu^n overflows at z = 1e300, in both
            got, want = polylog_neg_exp(orders, z), _per_band(orders, z)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("orders", ORDERS)
    def test_edge_neighbours_one_two_and_all_points(self, orders):
        z = _edge_neighbours()
        for v in z:
            self.check(orders, np.array([v]))
        for pair in zip(z, z[::-1]):
            self.check(orders, np.array(pair))
        self.check(orders, z)

    @pytest.mark.parametrize("orders", ORDERS)
    @pytest.mark.parametrize("arrange", ["sorted", "reversed", "shuffled"])
    def test_5000_points(self, orders, arrange):
        rng = np.random.default_rng(17)
        z = np.concatenate([_edge_neighbours(), rng.uniform(-45.0, 45.0, 5000 - 44)])
        z = {"sorted": np.sort(z), "reversed": np.sort(z)[::-1],
             "shuffled": rng.permutation(z)}[arrange]
        self.check(orders, z)

    @pytest.mark.parametrize("orders", ORDERS)
    def test_single_band_inputs(self, orders):
        rng = np.random.default_rng(23)
        edges = [b for b, _ in specfn._BANDS] + [1e3]
        self.check(orders, rng.uniform(-0.999, 0.999, 300))
        for b, above in zip(edges, edges[1:]):
            self.check(orders, rng.uniform(b, above, 300))
            self.check(orders, -rng.uniform(b, above, 300))


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


class TestDomainErrors:
    def test_bad_orders(self):
        for n in (1, 5, 0, -2, 2.0, "2", True, (), (2, 5), (2, True), [2, 3]):
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

    def test_bad_zeta(self):
        for bad in (1, 0, -3, 2.5, "4", True):
            with pytest.raises(ValueError):
                zeta(bad)


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
