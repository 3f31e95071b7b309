"""Quantile inversion and the two samplers.

The rejection sampler leans on two analytic facts: the skew polynomial
never exceeds (3 + 2*sqrt(2))/3 times the even polynomial, and the
logistic kernel never exceeds e^-|z|.  The tests probe the first bound on
a dense grid, check the +-Gamma mixture proposals against their own cdf,
then check both samplers against the closed-form cdf with
Kolmogorov-Smirnov distances.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import gamma, ks_1samp, ks_2samp

import baslg.core
import baslg.sampler
from baslg import (
    LocScaleModel,
    LogBaslgModel,
    SamplerConfig,
    StandardBaslg,
    SymmetricComponent,
    density_ratio,
    normalizing_constant,
    quantile,
    rejection_bound,
    sample,
)

BOUND = (3.0 + 2.0 * math.sqrt(2.0)) / 3.0


class TestBound:
    def test_exact_value(self):
        assert rejection_bound() == pytest.approx(BOUND, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, -0.5, 2.0, -2.0, 10.0, -10.0])
    def test_ratio_never_exceeds_bound(self, alpha):
        z = np.linspace(-60.0, 60.0, 100_000)
        r = density_ratio(alpha, z)
        assert np.all(r <= BOUND + 1e-12)
        assert np.all(r >= 0.0)
        # The bound is tight: refine around the grid argmax (the peak
        # narrows like 1/alpha, so one extra zoom level is needed).
        peak = z[np.argmax(r)]
        width = z[1] - z[0]
        local = np.linspace(peak - width, peak + width, 20_001)
        assert np.max(density_ratio(alpha, local)) >= BOUND - 1e-6

    @pytest.mark.parametrize("alpha", [-3.0, 0.0, 1.7])
    def test_ratio_at_origin_is_one(self, alpha):
        assert density_ratio(alpha, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 1e80])
    def test_ratio_checks_alpha(self, alpha):
        # a NaN ratio, or one that overflows to NaN, is never returned
        with pytest.raises(ValueError, match="alpha"):
            density_ratio(alpha, np.linspace(-8.0, 8.0, 5))

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -20.0, 1e70, -1e70])
    def test_ratio_at_infinity_is_one(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert density_ratio(alpha, np.array([np.inf, -np.inf])).tolist() == [1.0, 1.0]
            assert density_ratio(alpha, np.inf) == 1.0

    @pytest.mark.parametrize("alpha", [1.5, -20.0, 1e70, -1e70])
    def test_ratio_where_its_polynomials_overflow(self, alpha):
        # |alpha z| in [1e77, 1e300], where x^4 overflows, against 40 digits
        x = np.concatenate([np.geomspace(1e77, 1e300, 60), -np.geomspace(1e77, 1e300, 60)])
        z = x / alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = density_ratio(alpha, z)
        with mp.workdps(40):
            xs = [mp.mpf(alpha) * mp.mpf(v) for v in z]
            want = [float(((1 - v) ** 2 + 1) ** 2 / (4 + 8 * v**2 + v**4)) for v in xs]
        np.testing.assert_array_equal(r, want)
        assert np.all((r >= 0.0) & (r <= rejection_bound()))

    def test_ratio_is_pdf_quotient(self):
        alpha = 1.3
        d = StandardBaslg(alpha)
        s = SymmetricComponent(alpha)
        z = np.linspace(-8.0, 8.0, 41)
        np.testing.assert_allclose(
            density_ratio(alpha, z), d.pdf(z) / s.pdf(z), rtol=1e-12
        )


class TestQuantile:
    def test_logistic_closed_form(self):
        d = StandardBaslg(0.0)
        for p in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            assert quantile(d, p) == pytest.approx(
                math.log(p / (1.0 - p)), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [-3.0, -0.49, 0.0, 0.7, 2.0])
    def test_roundtrip(self, alpha):
        d = StandardBaslg(alpha)
        p = np.concatenate(
            [
                np.array([1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-9]),
                np.linspace(0.01, 0.99, 25),
            ]
        )
        q = quantile(d, p)
        assert np.max(np.abs(d.cdf(q) - p)) <= 1e-12

    def test_symmetric_component_roundtrip(self):
        s = SymmetricComponent(1.5)
        p = np.linspace(0.02, 0.98, 20)
        q = quantile(s, p)
        assert np.max(np.abs(s.cdf(q) - p)) <= 1e-12

    def test_monotone(self):
        d = StandardBaslg(0.49)
        q = quantile(d, np.linspace(0.001, 0.999, 200))
        assert np.all(np.diff(q) > 0.0)

    def test_domain(self):
        d = StandardBaslg(1.0)
        for p in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                quantile(d, p)
        with pytest.raises(ValueError):
            quantile(d, np.array([0.5, 1.0]))

    def test_shapes(self):
        d = StandardBaslg(0.7)
        assert isinstance(quantile(d, 0.5), float)
        assert quantile(d, np.full((3, 2), 0.5)).shape == (3, 2)


class CountingDist:
    """Forwards cdf and pdf to a law and counts the cdf calls."""

    def __init__(self, dist):
        self.dist = dist
        self.cdf_calls = 0

    def cdf(self, z):
        self.cdf_calls += 1
        return self.dist.cdf(z)

    def pdf(self, z):
        return self.dist.pdf(z)


class TestNewtonQuantile:
    P = np.concatenate([
        [1e-16, 1e-12, 1e-9, 1e-6, 1e-3],
        np.linspace(0.01, 0.99, 99),
        [1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1.1e-16],
    ])

    @pytest.mark.parametrize(
        "dist",
        [StandardBaslg(a) for a in (0.0, 0.48, -4.5, 20.0, 1e3, -1e3)] + [SymmetricComponent(1.5)],
        ids=lambda d: f"{type(d).__name__}({d.alpha!r})",
    )
    def test_few_cdf_calls_and_exact_round_trip(self, dist):
        rng = np.random.default_rng(17)
        for p in (self.P, rng.random(4000) * (1.0 - 2e-16) + 1e-16):
            counted = CountingDist(dist)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q = quantile(counted, p)
            assert counted.cdf_calls <= 8
            assert np.max(np.abs(dist.cdf(q) - p)) <= 1e-12
            assert np.all(np.diff(q[np.argsort(p)]) >= 0.0)
        assert np.all(np.diff(quantile(dist, self.P)) > 0.0)

    def test_subnormal_p(self):
        # below the smallest normal double the cdf moves in subnormal steps;
        # a root within four of them is as close as the cdf can place it
        tiny = 2.0**-1022
        for alpha in [*np.linspace(-30.0, 30.0, 33), 1e3, -1e3]:
            d = StandardBaslg(alpha)
            for p in (5e-324, 1e-322, 1e-320, 1e-315, 1e-310, tiny):
                counted = CountingDist(d)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    q = quantile(counted, p)
                assert counted.cdf_calls <= 10, (alpha, p)
                if p < tiny:
                    assert abs(d.cdf(q) - p) <= 4.0 * 2.0**-1074, (alpha, p)

    def test_far_tails_beyond_the_grid(self):
        d = StandardBaslg(2.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = quantile(d, np.array([1e-300, 1e-100, 0.5]))
        assert q[0] < q[1] < -64.0 < q[2]
        np.testing.assert_allclose(d.cdf(q[:2]), [1e-300, 1e-100], rtol=1e-12)

    def test_wide_scale_doubles_both_brackets(self):
        # at beta = 1e3 the grid's +-64 holds only the middle of the law, so
        # p on either side sends the bracket doubling downward and upward
        d = LocScaleModel(0.5, 0.0, 1e3)
        p = np.array([1e-6, 0.01, 0.3, 0.5, 0.99, 1.0 - 1e-9])
        grid_cdf = d.cdf(np.array([-64.0, 64.0]))
        assert p[0] < grid_cdf[0] and p[-1] > grid_cdf[1]
        q = quantile(d, p)
        assert np.all(np.diff(q) > 0.0)
        np.testing.assert_allclose(d.cdf(q), p, rtol=1e-13)


class TestSampling:
    @pytest.mark.parametrize("method", ["inverse_cdf", "rejection"])
    def test_determinism(self, method):
        cfg = SamplerConfig(method=method, seed=7)
        a = sample(StandardBaslg(1.2), 500, cfg)
        b = sample(StandardBaslg(1.2), 500, cfg)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        x = sample(StandardBaslg(1.2), 500, SamplerConfig(seed=1))
        y = sample(StandardBaslg(1.2), 500, SamplerConfig(seed=2))
        assert not np.array_equal(x, y)

    @pytest.mark.parametrize("method", ["inverse_cdf", "rejection"])
    def test_sizes(self, method):
        cfg = SamplerConfig(method=method, seed=0)
        assert sample(StandardBaslg(0.5), 0, cfg).shape == (0,)
        assert sample(StandardBaslg(0.5), 7, cfg).shape == (7,)
        assert sample(StandardBaslg(0.5), np.int64(7), cfg).shape == (7,)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -3.0])
    @pytest.mark.parametrize("method", ["inverse_cdf", "rejection"])
    def test_kolmogorov_smirnov(self, alpha, method):
        d = StandardBaslg(alpha)
        cfg = SamplerConfig(method=method, seed=42)
        x = sample(d, 10_000, cfg)
        assert np.all(np.isfinite(x))
        res = ks_1samp(x, lambda q: d.cdf(q))
        assert res.pvalue > 0.01

    def test_inversion_draws_the_even_part(self):
        # the inversion sampler draws any law on the real line with a cdf and a pdf
        dist = SymmetricComponent(1.5)
        x = sample(dist, 2_000, SamplerConfig(seed=2))
        assert ks_1samp(x, dist.cdf).pvalue > 0.01

    def test_two_sample_agreement(self):
        d = StandardBaslg(1.5)
        x = sample(d, 10_000, SamplerConfig(method="inverse_cdf", seed=11))
        y = sample(d, 10_000, SamplerConfig(method="rejection", seed=12))
        assert ks_2samp(x, y).pvalue > 0.01

    def test_acceptance_rate(self):
        # Replay the accept/reject decision on raw envelope proposals; the
        # long-run rate must match 1/S where S is the envelope constant.
        alpha = 1.5
        envelope = SymmetricComponent(alpha)
        rng = np.random.default_rng(314)
        n = 100_000
        y = quantile(envelope, rng.random(n) * (1.0 - 2e-16) + 1e-16)
        u = rng.random(n)
        rate = np.mean(u * BOUND <= density_ratio(alpha, y))
        assert rate == pytest.approx(1.0 / BOUND, abs=0.02)

    def test_accepted_draws_satisfy_bound(self):
        alpha = -2.0
        x = sample(StandardBaslg(alpha), 5_000, SamplerConfig(method="rejection", seed=3))
        assert np.all(density_ratio(alpha, x) <= BOUND + 1e-12)

    def test_sample_moments(self):
        d = StandardBaslg(1.5)
        ms = d.moment_set()
        n = 100_000
        x = sample(d, n, SamplerConfig(method="inverse_cdf", seed=2024))
        mean_se = math.sqrt(ms.variance / n)
        assert abs(x.mean() - ms.raw1) <= 4.0 * mean_se
        c4 = ms.beta2 * ms.variance**2
        var_se = math.sqrt((c4 - ms.variance**2) / n)
        assert abs(x.var() - ms.variance) <= 4.0 * var_se


class TestMixtureProposals:
    """Proposals for rejection: (4 + 8 a^2 z^2 + a^4 z^4) e^-|z|, normalised."""

    @staticmethod
    def mixture_cdf(alpha, z):
        w = np.array([4.0, 16.0 * alpha**2, 24.0 * alpha**4])
        w /= w.sum()
        z = np.asarray(z)
        half = sum(wk * gamma(shape).cdf(np.abs(z)) for wk, shape in zip(w, (1, 3, 5)))
        return 0.5 + 0.5 * np.sign(z) * half

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.5, -20.0])
    def test_kolmogorov_smirnov(self, alpha):
        z = baslg.sampler._proposals(alpha, 20_000, np.random.default_rng(5))
        assert ks_1samp(z, lambda q: self.mixture_cdf(alpha, q)).pvalue > 0.01

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -20.0])
    def test_acceptance_rate(self, alpha):
        # Replay the accept/reject decision on raw mixture proposals; the
        # long-run rate is the ratio of the target and envelope masses.
        rng = np.random.default_rng(271)
        n = 100_000
        z = baslg.sampler._proposals(alpha, n, rng)
        u = rng.random(n)
        rate = np.mean(u * BOUND * (1.0 + np.exp(-np.abs(z))) ** 2 <= density_ratio(alpha, z))
        want = normalizing_constant(alpha) / (2.0 * BOUND * (4 + 16 * alpha**2 + 24 * alpha**4))
        assert rate == pytest.approx(want, abs=0.01)

    def test_rejection_needs_no_cdf(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the rejection sampler must not invert or integrate")

        monkeypatch.setattr(baslg.sampler, "quantile", refuse)
        monkeypatch.setattr(baslg.core, "polylog_neg_exp", refuse)
        monkeypatch.setattr(StandardBaslg, "cdf", refuse)
        x = sample(StandardBaslg(1.5), 2_000, SamplerConfig(method="rejection", seed=4))
        assert x.shape == (2_000,) and np.all(np.isfinite(x))

    @pytest.mark.parametrize("dist", [SymmetricComponent(1.5), LogBaslgModel(1.5)],
                             ids=["SymmetricComponent", "LogBaslgModel"])
    def test_rejection_refuses_other_laws(self, dist):
        # its envelope is BASLG2's: from SymmetricComponent(1.5) it drew the
        # skewed law (20,000 draws, KS p = 0.0 against the even law's cdf)
        for n in (0, 100):
            with pytest.raises(ValueError, match=f"StandardBaslg only, got {type(dist).__name__}"):
                sample(dist, n, SamplerConfig(method="rejection", seed=2))

    def test_exhausted_rounds_raise(self, monkeypatch):
        # one round of proposals fills 100 draws at alpha = 0 for seed 0,
        # but falls short for seed 5
        monkeypatch.setattr(baslg.sampler, "_MAX_REJECTION_ROUNDS", 1)

        def one_round(seed):
            return sample(StandardBaslg(0.0), 100, SamplerConfig(method="rejection", seed=seed))

        assert one_round(0).shape == (100,)
        with pytest.raises(RuntimeError, match="exhausted 1 rounds"):
            one_round(5)


class TestConfig:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            SamplerConfig(method="metropolis")

    def test_bad_seed_and_rounds(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1)
        for bad in (1.5, 1.0, True, np.True_, "1", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                SamplerConfig(seed=bad)
        assert SamplerConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        # the cap on rejection rounds is a constant
        with pytest.raises(TypeError):
            SamplerConfig(max_rejection_rounds=1)

    def test_bad_sample_size(self):
        # a float, a bool or a string is refused, not truncated or parsed
        for bad in (-1, np.int64(-1), 2.7, 1.0, True, "3"):
            with pytest.raises(ValueError, match="nonnegative integer"):
                sample(StandardBaslg(0.0), bad, SamplerConfig())
