"""Extension densities: two-shape, cubic-polynomial, log-scale, bivariate.

The normalizing-constant guard is the interesting surface here: quoted
closed forms are accepted only when quadrature confirms them, and the
cubic model's quoted form is known-bad whenever alpha * beta != 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import logistic

from baslg import (
    AlphaBetaModel,
    BivariateModel,
    LogBaslgModel,
    StandardBaslg,
    TwoParamModel,
)
from baslg.core import _tanh_moment

from conftest import quad_expect


def integrates_to_one(pdf, tol=1e-6):
    total = quad(pdf, -300.0, 0.0, limit=600)[0] + quad(pdf, 0.0, 300.0, limit=600)[0]
    assert total == pytest.approx(1.0, abs=tol)


class TestTwoParamModel:
    def test_reduces_to_base(self):
        z = np.linspace(-8.0, 8.0, 33)
        np.testing.assert_allclose(
            TwoParamModel(1.3, 0.0).pdf(z), StandardBaslg(1.3).pdf(z), rtol=1e-12
        )
        np.testing.assert_allclose(
            TwoParamModel(0.0, -0.6).pdf(z), StandardBaslg(-0.6).pdf(z), rtol=1e-12
        )

    def test_center_value(self):
        assert TwoParamModel(0.0, 0.0).pdf(0.0) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("a1,a2", [(0.5, -1.0), (1.0, 0.0), (2.0, 0.3)])
    def test_quoted_constant_is_confirmed(self, a1, a2):
        m = TwoParamModel(a1, a2)
        assert not m.constant_erratum
        assert m.constant == m.printed_constant

    @pytest.mark.parametrize("a1,a2", [(0.5, -1.0), (2.0, 0.3)])
    def test_normalization(self, a1, a2):
        integrates_to_one(TwoParamModel(a1, a2).pdf)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TwoParamModel(np.nan, 0.0)
        with pytest.raises(ValueError):
            TwoParamModel(0.0, np.inf)

    def test_shape_bound(self):
        # the polynomial and the constant stay finite at the bound, |z| = 800
        m = TwoParamModel(1e35, -1e35)
        assert math.isfinite(m.constant)
        assert np.all(np.isfinite(m.pdf(np.array([-800.0, -745.0, 0.0, 745.0, 800.0]))))
        with pytest.raises(ValueError, match="must not exceed"):
            TwoParamModel(1e40, 1e40)


class TestAlphaBetaModel:
    def test_reduces_to_base(self):
        z = np.linspace(-8.0, 8.0, 33)
        np.testing.assert_allclose(
            AlphaBetaModel(0.9, 0.0).pdf(z), StandardBaslg(0.9).pdf(z), rtol=1e-12
        )

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (-2.0, 0.0)])
    def test_quoted_constant_holds_when_product_vanishes(self, a, b):
        m = AlphaBetaModel(a, b)
        assert not m.constant_erratum
        assert m.constant == m.printed_constant

    @pytest.mark.parametrize("a,b", [(1.0, 0.3), (0.5, -0.2)])
    def test_quoted_constant_fails_otherwise(self, a, b):
        # The quoted alpha*beta^3 coefficient is off by a factor of ten,
        # so the guard must fall back to the quadrature value.
        m = AlphaBetaModel(a, b)
        assert m.constant_erratum
        assert m.constant != m.printed_constant

        def weight(z):
            w = (1.0 - a * z - b * z**3) ** 2 + 1.0
            return w**2 * math.exp(-abs(z)) / (1.0 + math.exp(-abs(z))) ** 2

        ref = quad(weight, -300.0, 0.0, limit=600)[0] + quad(weight, 0.0, 300.0, limit=600)[0]
        assert m.constant == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("a,b", [(0.0, 0.3), (1.0, 0.3)])
    def test_normalization(self, a, b):
        integrates_to_one(AlphaBetaModel(a, b).pdf)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AlphaBetaModel(np.inf, 0.0)

    def test_shape_bound(self):
        m = AlphaBetaModel(-1e68, 1e68)
        assert math.isfinite(m.constant)
        assert np.all(np.isfinite(m.pdf(np.array([-800.0, -745.0, 0.0, 745.0, 800.0]))))
        with pytest.raises(ValueError, match="must not exceed"):
            AlphaBetaModel(0.5, 1e75)


class TestLogBaslgModel:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_normalization_on_positive_axis(self, alpha):
        m = LogBaslgModel(alpha)
        total = (
            quad(lambda x: float(m.pdf(x)), 0.0, 1.0, limit=600)[0]
            + quad(lambda x: float(m.pdf(x)), 1.0, np.inf, limit=600)[0]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_is_base_cdf_of_log(self):
        m = LogBaslgModel(0.7)
        base = StandardBaslg(0.7)
        for z in (-3.0, -0.5, 0.0, 1.2, 6.0):
            assert m.cdf(math.exp(z)) == pytest.approx(base.cdf(z), rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        m = LogBaslgModel(-1.1)
        h = 1e-6
        for x in (0.05, 0.8, 3.0, 20.0):
            fd = (m.cdf(x + h) - m.cdf(x - h)) / (2.0 * h)
            assert m.pdf(x) == pytest.approx(fd, rel=1e-6)

    def test_rejects_nonpositive_support(self):
        m = LogBaslgModel(1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                m.pdf(bad)
            with pytest.raises(ValueError):
                m.cdf(bad)
        with pytest.raises(ValueError):
            m.pdf(np.array([1.0, -2.0]))


class TestBivariateModel:
    def test_independent_case_is_a_product(self):
        m = BivariateModel(alpha=0.0, alpha1=1.2, alpha2=0.0)
        d1 = StandardBaslg(1.2)
        for z1 in (-2.0, 0.3, 1.5):
            for z2 in (-1.0, 0.0, 2.5):
                want = d1.pdf(z1) * logistic.pdf(z2)
                assert m.pdf(z1, z2) == pytest.approx(want, rel=1e-8)

    def test_quoted_constant_is_confirmed(self):
        for params in ((0.5, 1.0, -0.7), (-1.0, 0.3, 0.2)):
            m = BivariateModel(*params)
            assert not m.constant_erratum
            assert m.printed_constant == pytest.approx(m.constant, rel=1e-6)

    def test_normalization(self):
        m = BivariateModel(0.5, 1.0, -0.7)
        total, _ = dblquad(
            lambda z2, z1: float(m.pdf(z1, z2)),
            -40.0,
            40.0,
            -40.0,
            40.0,
            epsabs=1e-8,
            epsrel=1e-8,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative_on_grid(self):
        m = BivariateModel(-1.0, 2.0, 0.5)
        g = np.linspace(-20.0, 20.0, 100)
        z1, z2 = np.meshgrid(g, g)
        assert np.all(m.pdf(z1.ravel(), z2.ravel()) >= 0.0)

    def test_dependence_parameter_domain(self):
        with pytest.raises(ValueError):
            BivariateModel(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            BivariateModel(-1.01, 0.0, 0.0)
        with pytest.raises(ValueError):
            BivariateModel(np.nan, 0.0, 0.0)
        BivariateModel(1.0, 0.0, 0.0)
        BivariateModel(-1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# exact constants against 40-digit mpmath quadrature
# ---------------------------------------------------------------------------

_MP_BREAKS = [-mp.inf, -10, -1, 0, 1, 10, mp.inf]


def _mp_logistic_expect(fn):
    """E[fn(Z)] under the standard logistic law, at 40 digits."""
    with mp.workdps(40):
        return mp.quad(lambda u: fn(u) / (4 * mp.cosh(u / 2) ** 2), _MP_BREAKS)


@lru_cache(maxsize=None)
def _mp_moments(i):
    """(E[Z^i], E[Z^i tanh(Z/2)]), both by quadrature."""
    return (_mp_logistic_expect(lambda u: u**i),
            _mp_logistic_expect(lambda u: u**i * mp.tanh(u / 2)))


def _mp_two_param(m):
    a1, a2 = mp.mpf(m.alpha1), mp.mpf(m.alpha2)
    return _mp_logistic_expect(
        lambda u: ((1 - a1 * u) ** 2 + 1) ** 2 * ((1 - a2 * u) ** 2 + 1) ** 2)


def _mp_alpha_beta(m):
    a, b = mp.mpf(m.alpha), mp.mpf(m.beta)
    return _mp_logistic_expect(lambda u: ((1 - a * u - b * u**3) ** 2 + 1) ** 2)


def _mp_bivariate(m):
    # Expand ((1 - a1 z1 - a2 z2)^2 + 1)^2 into monomials z1^i z2^k; the
    # product kernel with its 1 + alpha tanh tanh factor then integrates
    # each monomial to m_i m_k + alpha t_i t_k.
    def mul(p, q):
        out = {}
        for (i, k), c in p.items():
            for (j, l), d in q.items():
                out[(i + j, k + l)] = out.get((i + j, k + l), 0) + c * d
        return out

    with mp.workdps(40):
        line = {(0, 0): mp.mpf(1), (1, 0): -mp.mpf(m.alpha1), (0, 1): -mp.mpf(m.alpha2)}
        square = mul(line, line)
        square[(0, 0)] += 1
        total = 0
        for (i, k), c in mul(square, square).items():
            (mi, ti), (mk, tk) = _mp_moments(i), _mp_moments(k)
            total += c * (mi * mk + m.alpha * ti * tk)
        return total


_MP_REFEREES = {
    TwoParamModel: _mp_two_param,
    AlphaBetaModel: _mp_alpha_beta,
    BivariateModel: _mp_bivariate,
}


@pytest.mark.parametrize(
    "model",
    [TwoParamModel(*p) for p in [(0.5, -1.0), (1.0, 0.0), (2.0, 0.3)]]
    + [AlphaBetaModel(*p)
       for p in [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (-2.0, 0.0), (1.0, 0.3), (0.5, -0.2)]]
    + [BivariateModel(*p)
       for p in [(0.5, 1.0, -0.7), (-1.0, 0.3, 0.2), (0.0, 1.2, 0.0), (-1.0, 2.0, 0.5)]],
    ids=repr,
)
def test_constant_against_mpmath(model):
    # Where the quoted form is wrong, constant must be the exact value.
    want = float(_MP_REFEREES[type(model)](model))
    assert model.constant == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "model,poly",
    [(TwoParamModel(0.5, -1.0), lambda u: ((1 - u / 2) ** 2 + 1) ** 2 * ((1 + u) ** 2 + 1) ** 2),
     (AlphaBetaModel(1.0, 0.3), lambda u: ((1 - u - 0.3 * u**3) ** 2 + 1) ** 2)],
    ids=["two_param", "alpha_beta"],
)
def test_pdf_against_mpmath(model, poly):
    # past |z| = 708.4 the kernel is subnormal; the density keeps its digits
    z = [-745.1, -720.0, -30.0, 0.5, 30.0, 720.0, 745.1]
    with mp.workdps(40):
        const = _mp_logistic_expect(poly)
        want = [float(poly(v) / (4 * mp.cosh(v / 2) ** 2) / const) for v in map(mp.mpf, z)]
    np.testing.assert_allclose(model.pdf(np.array(z)), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
def test_tanh_moment_identity(j):
    # tanh(z/2) g(z) = -g'(z), the identity behind the bivariate constant
    want = quad_expect(logistic.pdf, lambda z: z**j * np.tanh(z / 2.0))
    assert _tanh_moment(j) == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "pdf",
    [
        TwoParamModel(1.0, 0.5).pdf,
        AlphaBetaModel(1.0, 0.3).pdf,
        lambda z: BivariateModel(0.5, 1.0, 0.3).pdf(z, 0.0),
        lambda z: BivariateModel(0.5, 1.0, 0.3).pdf(0.0, z),
    ],
    ids=["two_param", "alpha_beta", "bivariate_z1", "bivariate_z2"],
)
def test_density_vanishes_at_huge_arguments(pdf):
    np.testing.assert_array_equal(pdf(np.array([-1e300, -1e100, 1e100])), [0.0, 0.0, 0.0])
