"""Location-scale layer and the reference families.

The galaxies checks pin the log-likelihood surface at externally published
parameter values, so they guard the density formulas rather than the
optimizer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import laplace, logistic, norm, skewnorm

from baslg import (
    FAMILIES,
    CompetitorModel,
    LocScaleModel,
    StandardBaslg,
    param_space,
    validate_data,
)


class TestLocScaleModel:
    def test_reduces_to_standard_form(self):
        m = LocScaleModel(alpha=0.7, mu=0.0, beta=1.0)
        d = StandardBaslg(0.7)
        y = np.linspace(-8.0, 8.0, 33)
        np.testing.assert_allclose(m.pdf(y), d.pdf(y), rtol=1e-13)
        np.testing.assert_allclose(m.cdf(y), d.cdf(y), rtol=1e-12, atol=1e-300)

    def test_symmetric_center_value(self):
        assert LocScaleModel(0.0, 0.0, 1.0).pdf(0.0) == pytest.approx(0.25, rel=1e-14)

    def test_density_integrates_to_one(self):
        m = LocScaleModel(alpha=0.907, mu=52.494, beta=2.638)
        lo = m.mu - 80.0 * m.beta
        hi = m.mu + 80.0 * m.beta
        total = quad(lambda y: float(m.pdf(y)), lo, hi, limit=600)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_reflection(self):
        y = np.linspace(-10.0, 30.0, 41)
        a = LocScaleModel(1.3, 4.0, 2.5)
        b = LocScaleModel(-1.3, -4.0, 2.5)
        np.testing.assert_allclose(b.pdf(-y), a.pdf(y), rtol=1e-12, atol=1e-300)

    def test_log_likelihood_matches_naive_sum(self):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 2.0, size=100)
        m = LocScaleModel(-0.8, 2.5, 1.7)
        naive = float(np.sum(np.log(m.pdf(data))))
        assert m.log_likelihood(data) == pytest.approx(naive, abs=1e-9)
        np.testing.assert_allclose(m.logpdf(data), np.log(m.pdf(data)), atol=1e-9)

    def test_single_point_likelihood(self):
        m = LocScaleModel(0.0, 5.0, 2.0)
        assert m.log_likelihood([5.0]) == pytest.approx(math.log(0.25 / 2.0), rel=1e-13)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        data = rng.normal(0.0, 3.0, size=60)
        base = LocScaleModel(1.1, 0.4, 1.9).log_likelihood(data)
        for c in (0.1, 2.0, 37.5):
            scaled = LocScaleModel(1.1, 0.4 * c, 1.9 * c).log_likelihood(c * data)
            assert scaled == pytest.approx(base - data.size * math.log(c), abs=1e-10)

    def test_location_invariance(self):
        rng = np.random.default_rng(10)
        data = rng.normal(0.0, 3.0, size=60)
        base = LocScaleModel(-0.6, 1.0, 2.2).log_likelihood(data)
        for s in (-12.0, 0.5, 400.0):
            shifted = LocScaleModel(-0.6, 1.0 + s, 2.2).log_likelihood(data + s)
            assert shifted == pytest.approx(base, abs=1e-10)

    def test_invalid_parameters(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                LocScaleModel(1.0, 0.0, bad)
        with pytest.raises(ValueError):
            LocScaleModel(np.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            LocScaleModel(1.0, np.inf, 1.0)

    def test_sampling_respects_location_scale(self):
        m = LocScaleModel(1.2, 100.0, 0.5)
        x = m.sample(4000)
        assert abs(np.mean(x) - (100.0 + 0.5 * StandardBaslg(1.2).raw_moment(1))) < 0.1


class TestPublishedFits:
    """Log-likelihoods at published parameter estimates for the galaxy data."""

    def test_baslg2(self, galaxies_data):
        ll = LocScaleModel(-0.799, 17.117, 1.263).log_likelihood(galaxies_data)
        assert ll == pytest.approx(-219.86, abs=0.01)

    def test_logistic(self, galaxies_data):
        ll = CompetitorModel("lg", (21.075, 2.204)).log_likelihood(galaxies_data)
        assert ll == pytest.approx(-233.65, abs=0.01)

    def test_laplace(self, galaxies_data):
        ll = CompetitorModel("la", (20.838, 2.997)).log_likelihood(galaxies_data)
        assert ll == pytest.approx(-228.83, abs=0.01)


class TestCompetitors:
    def test_normal_single_point(self):
        ll = CompetitorModel("n", (0.0, 1.0)).log_likelihood([0.0])
        assert ll == pytest.approx(-0.5 * math.log(2.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("family", ["n", "lg", "la", "sn", "aslg"])
    def test_density_integrates_to_one(self, family):
        rng = np.random.default_rng(hash(family) % 2**32)
        info = FAMILIES[family]
        for _ in range(3):
            shape = float(rng.uniform(-3.0, 3.0))
            mu = float(rng.uniform(-5.0, 5.0))
            scale = float(rng.uniform(0.3, 4.0))
            params = (shape, mu, scale) if info.n_params == 3 else (mu, scale)
            m = CompetitorModel(family, params)
            lo, hi = mu - 120.0 * scale, mu + 120.0 * scale
            total = (
                quad(lambda y: float(m.pdf(y)), lo, mu, limit=600)[0]
                + quad(lambda y: float(m.pdf(y)), mu, hi, limit=600)[0]
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_against_scipy(self):
        y = np.linspace(-6.0, 9.0, 31)
        np.testing.assert_allclose(
            CompetitorModel("n", (1.0, 2.0)).logpdf(y),
            norm.logpdf(y, 1.0, 2.0),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            CompetitorModel("lg", (1.0, 2.0)).logpdf(y),
            logistic.logpdf(y, 1.0, 2.0),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            CompetitorModel("la", (1.0, 2.0)).logpdf(y),
            laplace.logpdf(y, 1.0, 2.0),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            CompetitorModel("sn", (1.7, 1.0, 2.0)).logpdf(y),
            skewnorm.logpdf(y, 1.7, 1.0, 2.0),
            atol=1e-10,
        )

    def test_skew_normal_is_bitwise_scipy(self):
        # The closed-form normal log-density plus log_ndtr must equal the
        # scipy.stats form exactly, so fits take the same path either way.
        y = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-1e3, -25.0, 25.0, 1e3]])
        for lam, mu, sigma in [(0.0, 0.0, 1.0), (1.7, 1.0, 2.0), (25.0, 0.0, 1.0),
                               (-50.0, 3.5, 0.25), (1e-3, -7.0, 11.0)]:
            x = (y - mu) / sigma
            expected = (
                math.log(2.0) + norm.logpdf(x) + norm.logcdf(lam * x) - math.log(sigma)
            )
            got = FAMILIES["sn"].logpdf((lam, mu, sigma), y)
            assert np.array_equal(got, expected), (lam, mu, sigma)
        # the grid reaches lam * x = -1e3, deep in the log_ndtr asymptotic branch
        assert np.min(25.0 * y) <= -1e3

    def test_rejects_bad_families(self):
        with pytest.raises(ValueError):
            CompetitorModel("baslg2", (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            CompetitorModel("weibull", (1.0, 1.0))
        with pytest.raises(ValueError):
            CompetitorModel("lg", (0.0, -1.0))
        with pytest.raises(ValueError):
            CompetitorModel("lg", (0.0, 1.0, 2.0))


class TestFamilyRegistry:
    def test_shapes_and_orders(self):
        assert set(FAMILIES) == {"n", "lg", "la", "sn", "aslg", "baslg2"}
        assert FAMILIES["n"].n_params == 2
        assert FAMILIES["baslg2"].param_names == ("alpha", "mu", "beta")
        assert FAMILIES["sn"].param_names == ("lambda", "mu", "sigma")

    def test_starting_points_are_valid(self, galaxies_data):
        for key, info in FAMILIES.items():
            start = info.start(galaxies_data)
            vals = info.validate_params(start)
            assert all(math.isfinite(v) for v in vals)
            if key in ("aslg", "baslg2"):
                assert start[0] == 0.0

    def test_log_likelihood_validates(self, galaxies_data):
        with pytest.raises(ValueError):
            FAMILIES["lg"].log_likelihood((0.0, 1.0), [])
        with pytest.raises(ValueError):
            FAMILIES["lg"].log_likelihood((0.0, 1.0), [1.0, np.nan])


class TestParamSpace:
    def test_unknown_family(self, galaxies_data):
        with pytest.raises(ValueError):
            param_space("weibull", galaxies_data)

    def test_boxes_cover_data(self, galaxies_data):
        space = param_space("baslg2", galaxies_data)
        lo, hi = galaxies_data.min(), galaxies_data.max()
        names = list(space.names)
        i_mu = names.index("mu")
        assert space.lower[i_mu] < lo and space.upper[i_mu] > hi
        i_beta = names.index("beta")
        assert space.log_scale[i_beta]
        assert not space.log_scale[i_mu]

    def test_roundtrip(self, galaxies_data):
        space = param_space("baslg2", galaxies_data)
        params = (-0.8, 17.1, 1.26)
        again = space.to_natural(space.to_internal(params))
        np.testing.assert_allclose(again, params, rtol=1e-12)


class TestValidateData:
    def test_flattens_and_casts(self):
        out = validate_data([[1, 2], [3, 4]])
        assert out.shape == (4,)
        assert out.dtype == float

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            validate_data([])
        with pytest.raises(ValueError):
            validate_data([1.0, np.inf])
