"""Location-scale layer and the reference families.

The galaxies checks pin the log-likelihood surface at externally published
parameter values, so they guard the density formulas rather than the
optimizer.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import laplace, logistic, norm, skewnorm

import baslg.core
import baslg.models
from baslg import (
    FAMILIES,
    CompetitorModel,
    LocScaleModel,
    ParamSpace,
    StandardBaslg,
    normalizing_constant,
    param_space,
    validate_data,
)
from baslg.sampler import SamplerConfig, sample

from erfcx_table import erfcx_table


def mp_log_kernel(x):
    """log g(x) = -|x| - 2 log(1 + e^-|x|), exactly, for an mpf ``x``."""
    return -abs(x) - 2 * mp.log1p(mp.exp(-abs(x)))


def mp_log_constant(family, a):
    """log of the normalizing constant of ``family`` at the mpf shape ``a``."""
    if family == "aslg":
        return mp.log(2 + mp.pi**2 * a**2 / 3)
    return mp.log(4 + 8 * mp.pi**2 * a**2 / 3 + 7 * mp.pi**4 * a**4 / 15)


def public_model(family, params):
    """The public model object of ``family`` at ``params``."""
    return LocScaleModel(*params) if family == "baslg2" else CompetitorModel(family, params)


def worst_ulps(got, want) -> float:
    """Largest |got - want| over the mpf values ``want``, in ulps of each."""
    with mp.workdps(40):
        return max(float(abs(mp.mpf(g) - w)) / math.ulp(float(w)) for g, w in zip(got, want))


class TestLocScaleModel:
    def test_reduces_to_standard_form(self):
        m = LocScaleModel(alpha=0.7, mu=0.0, beta=1.0)
        d = StandardBaslg(0.7)
        y = np.linspace(-8.0, 8.0, 33)
        np.testing.assert_allclose(m.pdf(y), d.pdf(y), rtol=1e-13)
        np.testing.assert_allclose(m.cdf(y), d.cdf(y), rtol=1e-12, atol=1e-300)

    def test_survival_is_standardized(self):
        m = LocScaleModel(alpha=-1.2, mu=3.0, beta=2.5)
        y = np.array([-50.0, 0.0, 3.0, 40.0, 90.0, 1e3])
        np.testing.assert_array_equal(m.sf(y), StandardBaslg(-1.2).sf((y - 3.0) / 2.5))
        np.testing.assert_allclose(m.sf(y[:3]) + m.cdf(y[:3]), 1.0, rtol=1e-15)

    def test_symmetric_center_value(self):
        assert LocScaleModel(0.0, 0.0, 1.0).pdf(0.0) == pytest.approx(0.25, rel=1e-14)

    def test_overflowing_residuals_raise_no_warning(self):
        # (y - mu) / beta overflows at +-1.7e308 with beta = 0.5: the residual
        # is +-inf there, as at y = +-inf, and the values are the tails'
        m = LocScaleModel(-2.5, 4.0, 0.5)
        y = np.array([1.7e308, -1.7e308, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf, sf = m.pdf(y), m.cdf(y), m.sf(y)
            one = m.cdf(1.7e308)
        assert pdf.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert cdf.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert sf.tolist() == [0.0, 1.0, 0.0, 1.0]
        assert one == 1.0

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

    @pytest.mark.parametrize("mu, beta", [
        (1.7e308, 1e308), (-1.7e308, 1e308), (0.0, 1e308), (1e308, 1.5e308), (1.0, 2.0),
    ])
    def test_sample_overflows_only_where_the_sum_does(self, mu, beta):
        model = LocScaleModel(1.0, mu, beta)
        z = sample(model.standard(), 64, SamplerConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.sample(64)
        for zi, gi in zip(z.tolist(), got.tolist()):
            # mu + 2 ((beta/2) z), the product rounded, then the sum rounded once
            try:
                product = 2 * Fraction(float(Fraction(beta / 2) * Fraction(zi)))
                want = float(Fraction(mu) + product)
            except OverflowError:
                want = math.copysign(math.inf, zi)
            assert gi == want, (zi, gi, want)
        if mu == 1.7e308:  # the first draw's product overflows, but not its sum
            assert math.isfinite(got[0]) and math.isinf(beta * float(z[0]))


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
        rng = np.random.default_rng(list(FAMILIES).index(family))
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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_logpdf_result_holds_only_itself(self, family):
        # the result is an array of its own: it keeps no scratch rows alive,
        # such as _log_ndtr's, and no operand's
        info = FAMILIES[family]
        params = (0.5, 1.0, 2.0)[-info.n_params:]
        y = np.linspace(-5.0, 5.0, 1000)
        for p in (params, tuple(np.full((3, 1), v) for v in params)):
            out = info.logpdf(p, y)
            owner = out if out.base is None else out.base
            assert owner.nbytes == out.nbytes == 8 * np.size(out)

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

    def test_log_ndtr_against_mpmath(self):
        # log Phi on [-1e5, 37]: no worse than scipy's log_ndtr on the same
        # grid, the worst of which is near x = 36, where rounding |x|/sqrt 2
        # before squaring it costs about 1.5e-13 relative
        x = np.unique(np.concatenate([
            -np.geomspace(1e-8, 1e5, 1201), np.geomspace(1e-8, 37.0, 801),
            np.linspace(-40.0, 37.0, 3081), [0.0],
        ]))
        with mp.workdps(40):
            want = np.array([
                float(mp.log1p(-mp.ncdf(-v)) if v > 0 else mp.log(mp.ncdf(v)))
                for v in map(mp.mpf, x.tolist())
            ])

        def worst(got):
            return float(np.max(np.abs(got - want) / np.abs(want)))

        ours, theirs = worst(baslg.models._log_ndtr(x)), worst(log_ndtr(x))
        assert ours <= theirs, (ours, theirs)
        # beyond x = 37 the result is held within 1e-300 of log Phi
        far = np.array([37.0001, 37.4, 37.5, 38.0, 40.0, 1e3, 1e10, 1e100])
        with mp.workdps(40):
            far_want = [mp.log1p(-mp.ncdf(-v)) for v in map(mp.mpf, far.tolist())]
        got = baslg.models._log_ndtr(far).tolist()
        assert all(abs(mp.mpf(g) - w) <= 1e-300 for g, w in zip(got, far_want))
        ends = baslg.models._log_ndtr(np.array([-np.inf, np.inf, np.nan]))
        assert ends[0] == -np.inf and ends[1] == 0.0 and np.isnan(ends[2])
        assert abs(baslg.models._log_ndtr(0.0) - math.log(0.5)) <= math.ulp(math.log(0.5))

    def test_log_ndtr_one_point_calls_give_the_vector_bits(self):
        edge = [0.0, 1.0, 8.3, 37.4, 38.0, 1e300, np.inf, 5e-324]
        x = np.array(edge + [-v for v in edge] + [np.nan])
        want = baslg.models._log_ndtr(x).view(np.uint64)
        for v, bits in zip(x.tolist(), want.tolist()):
            one = baslg.models._log_ndtr(v)
            assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
            assert np.float64(one).view(np.uint64) == bits, v

    def test_erfcx_table_is_reproducible(self):
        # the committed doubles are the generator's 40-digit values, rounded
        assert [v.hex() for v in baslg.models._ERFCX.tolist()] == [v.hex() for v in erfcx_table()]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_public_logpdf_at_infinity(self, family):
        # every public model's density is 0 at +-inf, with no warning: the
        # aslg and baslg2 kernels meet inf - inf there, and a zero shape 0 * inf
        # (and so is it at a finite y whose residual (y - mu) / scale overflows)
        info = FAMILIES[family]
        y = np.array([np.inf, -3.0, -np.inf, 0.5, np.nan])
        for shape in (0.0, 1.0, -2.5)[:1 if info.n_params == 2 else 3]:
            params = (shape, 0.5, 2.0)[-info.n_params:]
            model = public_model(family, params)
            narrow = public_model(family, params[:-1] + (1e-10,))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = model.logpdf(y)
                dens = model.pdf(y[:4])
                one = model.logpdf(-np.inf)
                far = narrow.logpdf([1e300, -1e300])
            assert out[[0, 2]].tolist() == [-np.inf, -np.inf] and np.isnan(out[4])
            assert out[[1, 3]].tobytes() == info.logpdf(params, y[[1, 3]]).tobytes()
            assert dens[[0, 2]].tolist() == [0.0, 0.0] and np.all(dens[[1, 3]] > 0.0)
            assert type(one) is np.float64 and one == -np.inf
            assert far.tolist() == [-np.inf, -np.inf]

    @pytest.mark.parametrize("family", ["aslg", "baslg2"])
    def test_public_logpdf_where_the_square_overflows(self, family):
        # where |1 - alpha x| passes 1.3e154 the kernel's w * w overflows and
        # log1p reads +inf; the public paths read the finite log-density
        info = FAMILIES[family]
        power = 1 if family == "aslg" else 2
        y = np.array([1e155, -1e155, 1e200, -1e300, 8e307, 3.0, -0.25])
        for params in ((1.0, 0.0, 1.0), (-2.5, 4.0, 0.5), (1e70, -1.0, 3.0), (1e-3, 0.0, 2.0)):
            model = public_model(family, params)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = model.logpdf(y)
                one = model.logpdf(y[0])
                dens = model.pdf(y)
                log_l = info.log_likelihood(params, y)
            alpha, mu, beta = map(mp.mpf, params)
            with mp.workdps(40):
                want = []
                for v in y.tolist():
                    x = (mp.mpf(v) - mu) / beta
                    want.append(power * mp.log1p((1 - alpha * x) ** 2) + mp_log_kernel(x)
                                - mp.log(beta) - mp_log_constant(family, alpha))
            with np.errstate(over="ignore"):
                wide = np.isinf(info.logpdf(params, y))
            assert wide.any() and not wide[-2:].any()
            assert worst_ulps(out[wide], np.array(want)[wide]) <= 1
            assert out[~wide].tobytes() == info.logpdf(params, y[~wide]).tobytes()
            assert type(one) is np.float64 and one == out[0]
            assert np.all(dens[:-2] == 0.0) and np.all(dens[-2:] > 0.0)
            assert log_l == float(np.sum(out)) and math.isfinite(log_l)

    @pytest.mark.parametrize("family", ["aslg", "baslg2"])
    def test_wrapped_log_density_where_the_square_overflows(self, family):
        # a caller may wrap a family's log-density, as a tracer does; the
        # overflowing-square mend finds the family's constants by its name
        info = FAMILIES[family]

        def wrapper(params, y):
            return info.logpdf(params, y)

        wrapped = dataclasses.replace(info, logpdf=wrapper)
        data = [1e155, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_l = wrapped.log_likelihood((1.0, 0.0, 1.0), data)
        assert log_l == info.log_likelihood((1.0, 0.0, 1.0), data)
        assert math.isfinite(log_l)

    def test_rejects_bad_families(self):
        with pytest.raises(ValueError):
            CompetitorModel("baslg2", (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            CompetitorModel("weibull", (1.0, 1.0))
        with pytest.raises(ValueError):
            CompetitorModel("lg", (0.0, -1.0))
        with pytest.raises(ValueError):
            CompetitorModel("lg", (0.0, 1.0, 2.0))


class TestShapeRange:
    """|alpha| > 1e70 is refused when a model is built, with the core's message."""

    def _core_message(self, alpha):
        with pytest.raises(ValueError) as exc:
            StandardBaslg(alpha)
        return str(exc.value)

    def test_loc_scale_model(self):
        with pytest.raises(ValueError) as exc:
            LocScaleModel(1e80, 0.0, 1.0)
        assert str(exc.value) == self._core_message(1e80)
        assert LocScaleModel(-1e70, 0.0, 1.0).alpha == -1e70

    def test_aslg_competitor(self):
        with pytest.raises(ValueError) as exc:
            CompetitorModel("aslg", (1e200, 0.0, 1.0))
        assert str(exc.value) == self._core_message(1e200)
        assert np.all(np.isfinite(CompetitorModel("aslg", (1e70, 0.0, 1.0)).logpdf([0.0, 1.0])))

    def test_registry_log_likelihood(self):
        for family in ("aslg", "baslg2"):
            with pytest.raises(ValueError, match="must not exceed 1e70"):
                FAMILIES[family].log_likelihood((-1e71, 0.0, 1.0), [0.0, 1.0])

    def test_skew_normal_lambda_is_unbounded(self):
        vals = CompetitorModel("sn", (1e200, 0.0, 1.0)).logpdf([0.0, 1.0])
        assert np.all(np.isfinite(vals))


class TestFamilyRegistry:
    def test_logistic_kernel_against_mpmath(self):
        # within 1 ulp out to |x| = 800, with a denser grid where log1p's
        # argument is not tiny; the infinities give -inf exactly
        x = np.concatenate([np.linspace(-800.0, 800.0, 8001), np.linspace(-40.0, 40.0, 8001),
                            [-0.0, 0.0]])
        with mp.workdps(40):
            want = [mp_log_kernel(v) for v in map(mp.mpf, x.tolist())]
        assert worst_ulps(baslg.models._std_logistic_logpdf(x).tolist(), want) <= 1.0
        ends = baslg.models._std_logistic_logpdf(np.array([-np.inf, np.inf]))
        assert np.array_equal(ends, [-np.inf, -np.inf])

    @pytest.mark.parametrize("family", ["aslg", "baslg2"])
    def test_skew_logistic_logpdf_against_mpmath(self, family):
        # y near the root of w = 1 - alpha x as well as across the bulk: the
        # log1p(w^2) term, the kernel and both per-row logs together
        power = 1 if family == "aslg" else 2
        for alpha, mu, beta in [(0.3, 0.0, 1.0), (-1.7, 2.5, 0.8), (5.0, -1.0, 3.0),
                                (40.0, 17.0, 1.26), (-0.02, 0.0, 2.0)]:
            root = 1.0 / alpha
            x = np.concatenate([root * (1.0 + np.array([-1e-6, -1e-9, -1e-13, 0.0, 1e-13, 3e-7])),
                                np.linspace(-30.0, 30.0, 61)])
            y = mu + beta * x
            assert np.min(np.abs(1.0 - alpha * (y - mu) / beta)) < 1e-6
            got = FAMILIES[family].logpdf((alpha, mu, beta), y)
            with mp.workdps(40):
                a, m, b = mp.mpf(alpha), mp.mpf(mu), mp.mpf(beta)
                terms = [(power * mp.log1p((1 - a * t) ** 2), mp_log_kernel(t), -mp.log(b),
                          -mp_log_constant(family, a))
                         for t in ((mp.mpf(v) - m) / b for v in y.tolist())]
                want = np.array([float(sum(ts)) for ts in terms])
                # each term is rounded a few times by at most half an ulp of
                # itself, so the bound is 2^-52 of the terms' summed magnitudes
                size = np.array([float(sum(abs(v) for v in ts)) for ts in terms])
            assert np.max(np.abs(got - want) / size) <= 2.0**-52

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

    @pytest.mark.parametrize("data", [
        pytest.param([3.0, -1.0, 2.0, 7.0, 0.5], id="odd"),
        pytest.param([3.0, -1.0, 2.0, 7.0, 0.5, 4.0], id="even"),
        pytest.param([2.0, 1.0, 2.0, 2.0, 5.0, 1.0, 1.0, 2.0], id="ties"),
        pytest.param([1e300, -1e300, 1.7e300, 0.9e300, -3e299, 1.1e300], id="near-1e300"),
        pytest.param([1e308, 1.7e308, 1.6e308, 1.5e308], id="middle-sum-overflows"),
        pytest.param([5e-324, 1e-323, 0.0, 2.5e-322, -5e-324, 1e-320], id="subnormal"),
        pytest.param([-0.0, -0.0, 1.0, -1.0], id="negative-zeros"),
        pytest.param([-0.0, -0.0, 3.0], id="negative-zero-middle"),
    ])
    def test_laplace_start_is_the_median_bit_for_bit(self, data):
        # _start_la takes the median from np.partition; np.median's value,
        # +0.0 included where the middle values are -0.0
        data = np.asarray(data)
        for values in (data, data[::-1], np.random.default_rng(1).permutation(data)):
            with np.errstate(over="ignore"):
                med = float(np.median(values))
                mad = baslg.models._mean(np.abs(values - med))
            want = (med, mad if mad > 0.0 else 1e-6)
            got = baslg.models._start_la(values)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)

    def test_log_likelihood_validates(self, galaxies_data):
        with pytest.raises(ValueError):
            FAMILIES["lg"].log_likelihood((0.0, 1.0), [])
        with pytest.raises(ValueError):
            FAMILIES["lg"].log_likelihood((0.0, 1.0), [1.0, np.nan])


class TestParamSpace:
    def test_columns_match_rows_bitwise(self, galaxies_data):
        # the tan and delta columns as well as exp and the identity
        for family in ("sn", "aslg", "baslg2"):
            space = param_space(family, galaxies_data)
            rng = np.random.default_rng(7)
            xs = np.vstack([rng.uniform(space.lower, space.upper, (2000, 3)),
                            space.lower, space.upper])
            rows = np.array([space.to_natural(x) for x in xs])
            assert rows.tobytes() == np.hstack(space.to_natural_columns(xs)).tobytes(), family

    def test_column_log_constant(self):
        # no worse against 40-digit mpmath than the core's scalar constant,
        # and each row is the float call bit for bit
        alpha = np.concatenate([np.linspace(-50.0, 50.0, 4001), [1e-8, -1e-8, 0.47, -0.47]])
        with mp.workdps(40):
            want = [mp_log_constant("baslg2", a) for a in map(mp.mpf, alpha.tolist())]
        col = baslg.models._log_skew_constant(alpha.reshape(-1, 1)).ravel().tolist()
        scalar = [math.log(normalizing_constant(a)) for a in alpha.tolist()]
        assert worst_ulps(col, want) <= worst_ulps(scalar, want)
        assert col == [float(baslg.models._log_skew_constant(a)) for a in alpha.tolist()]

    def test_log_constant_drops_only_zero_terms(self):
        # the odd terms of the core's sum add signed zeros, so leaving them
        # out keeps every bit for any alpha the public entry points accept
        rng = np.random.default_rng(11)
        alpha = np.concatenate([rng.uniform(-50.0, 50.0, 20000),
                                rng.standard_normal(20000) * 10.0 ** rng.uniform(-320, 70, 20000),
                                [0.0, -0.0, 5e-324, -5e-324, 1e70, -1e70]])[:, None]
        full = np.log(baslg.core._constant(baslg.core._skew_coeffs(alpha)))
        assert full.tobytes() == baslg.models._log_skew_constant(alpha).tobytes()

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

    @pytest.mark.parametrize("family, transform", [
        ("sn", "delta"), ("aslg", "tan"), ("baslg2", "tan")])
    def test_shape_roundtrip(self, family, transform, galaxies_data):
        space = param_space(family, galaxies_data)
        assert space.transforms == (transform, "identity", "exp")
        for shape in (0.0, 1e-8, -1e-8, 0.47, -0.47, 1.5, -1.5, 50.0, -50.0):
            x = space.to_internal((shape, 20.0, 1.5))
            again = space.to_natural(x)
            assert again[0] == pytest.approx(shape, rel=1e-12, abs=0.0), shape
            assert again[1:] == pytest.approx((20.0, 1.5), rel=1e-15)
        assert space.to_internal((0.0, 20.0, 1.5))[0] == 0.0
        assert space.to_natural((0.0, 20.0, 0.0))[0] == 0.0
        # the box is the image of [-50, 50]
        assert space.to_internal((50.0, 20.0, 1.5))[0] == space.upper[0]
        assert space.to_internal((-50.0, 20.0, 1.5))[0] == space.lower[0]
        assert space.lower[0] == -space.upper[0]

    def test_log_scale_follows_the_transforms(self):
        space = ParamSpace(("mu", "beta"), (-1.0, -2.0), (1.0, 2.0), ("identity", "exp"))
        assert space.log_scale == (False, True)
        assert space.to_natural((0.5, 0.0)) == (0.5, 1.0)
        with pytest.raises(AttributeError):
            space.log_scale = (True, True)
        # one description: the transforms are required, and log_scale is not a field
        with pytest.raises(TypeError):
            ParamSpace(("mu", "beta"), (-1.0, -2.0), (1.0, 2.0))
        with pytest.raises(TypeError):
            ParamSpace(("mu", "beta"), (-1.0, -2.0), (1.0, 2.0), ("identity", "exp"),
                       log_scale=(False, True))

    def test_unknown_transform_is_refused(self):
        with pytest.raises(ValueError, match=r"unknown transforms \['log'\]"):
            ParamSpace(("mu", "beta"), (-1.0, -2.0), (1.0, 2.0), ("identity", "log"))

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
