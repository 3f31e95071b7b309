"""Multistart MLE, information criteria, and the likelihood-ratio test.

Optimizer checks target reproducibility and agreement with closed-form or
published optima, not internal trajectory details.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import baslg.fit
import baslg.models
from baslg import (
    FAMILIES,
    DegenerateDataError,
    OptimizerConfig,
    compare_models,
    fit_mle,
    information_criteria,
    lr_test,
    param_space,
)

from conftest import galaxies


@pytest.fixture(scope="module")
def galaxy_values():
    return galaxies().values


@pytest.fixture(scope="module")
def galaxy_baslg2(galaxy_values):
    return fit_mle("baslg2", galaxy_values)


@pytest.fixture(scope="module")
def galaxy_lg(galaxy_values):
    return fit_mle("lg", galaxy_values)


class TestInformationCriteria:
    def test_published_rows(self):
        aic, bic = information_criteria(-230.75, 3, 69)
        assert aic == pytest.approx(467.50, abs=0.01)
        assert bic == pytest.approx(474.20, abs=0.01)
        aic, _ = information_criteria(-300.583, 3, 204)
        assert aic == pytest.approx(607.166, abs=0.01)

    def test_degenerate_corner(self):
        assert information_criteria(0.0, 1, 1) == (2.0, 0.0)


class TestFitMle:
    def test_determinism(self, galaxy_values):
        cfg = OptimizerConfig(restarts=10, seed=4)
        a = fit_mle("baslg2", galaxy_values, cfg)
        b = fit_mle("baslg2", galaxy_values, cfg)
        assert a.params == b.params
        assert a.log_l == b.log_l
        assert a.converged == b.converged

    def test_galaxies_baslg2(self, galaxy_baslg2):
        r = galaxy_baslg2
        assert r.ok and r.converged
        assert r.log_l == pytest.approx(-219.86, abs=0.5)
        assert r.params["alpha"] == pytest.approx(-0.799, rel=0.05)
        assert r.params["mu"] == pytest.approx(17.117, rel=0.05)
        assert r.params["beta"] == pytest.approx(1.263, rel=0.05)
        assert r.n_obs == 82
        assert r.aic == pytest.approx(2 * 3 - 2 * r.log_l, rel=1e-12)

    def test_galaxies_logistic(self, galaxy_lg):
        r = galaxy_lg
        assert r.log_l == pytest.approx(-233.65, abs=0.1)
        assert r.params["mu"] == pytest.approx(21.075, rel=0.02)
        assert r.params["beta"] == pytest.approx(2.204, rel=0.02)

    def test_nesting(self, galaxy_baslg2, galaxy_lg):
        # The logistic is baslg2 with alpha pinned at zero, so the richer
        # family can never fit worse.
        assert galaxy_baslg2.log_l >= galaxy_lg.log_l - 1e-6

    def test_translation_equivariance(self, galaxy_values, galaxy_baslg2):
        shifted = fit_mle("baslg2", galaxy_values + 100.0)
        assert shifted.params["mu"] == pytest.approx(
            galaxy_baslg2.params["mu"] + 100.0, abs=1e-3
        )
        assert shifted.log_l == pytest.approx(galaxy_baslg2.log_l, abs=1e-5)

    def test_normal_closed_form(self):
        rng = np.random.default_rng(77)
        data = rng.normal(3.0, 2.0, size=300)
        r = fit_mle("n", data, OptimizerConfig(restarts=12, seed=1))
        assert r.params["mu"] == pytest.approx(float(np.mean(data)), abs=1e-3)
        assert r.params["sigma"] == pytest.approx(float(np.std(data)), abs=1e-3)

    def test_param_tuple_order(self, galaxy_baslg2):
        t = galaxy_baslg2.param_tuple()
        assert t == (
            galaxy_baslg2.params["alpha"],
            galaxy_baslg2.params["mu"],
            galaxy_baslg2.params["beta"],
        )

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_mle("lg", np.full(25, 3.2))

    def test_unknown_family(self, galaxy_values):
        with pytest.raises(ValueError):
            fit_mle("weibull", galaxy_values)

    def test_bad_data(self):
        with pytest.raises(ValueError):
            fit_mle("lg", [])
        with pytest.raises(ValueError):
            fit_mle("lg", [1.0, np.nan, 2.0])


def _box_points(space, rng, count):
    """``count`` random box points plus the lower corner (smallest scale)."""
    lower, upper = np.asarray(space.lower), np.asarray(space.upper)
    xs = lower + rng.random((count, lower.size)) * (upper - lower)
    return np.vstack([xs, lower])


def _solo_walk(nll, x0, space, rng):
    """Reference anneal of one restart, one scalar nll call per step."""
    lower, upper = np.asarray(space.lower), np.asarray(space.upper)
    width = upper - lower
    decay = (baslg.fit._SA_TEND / baslg.fit._SA_T0) ** (1.0 / baslg.fit._SA_STEPS)
    x = np.clip(x0, lower, upper)
    fx = nll(x)
    best_x, best_f = x, fx
    temp = baslg.fit._SA_T0
    for _ in range(baslg.fit._SA_STEPS):
        scale = (0.35 * temp / baslg.fit._SA_T0 + 0.02) * width
        cand = np.clip(x + rng.standard_normal(x.size) * scale, lower, upper)
        fc = nll(cand)
        if fc < fx or rng.random() < math.exp(min((fx - fc) / temp, 0.0)):
            x, fx = cand, fc
            if fx < best_f:
                best_x, best_f = x, fx
        temp *= decay
    return best_x, best_f


def _two_clusters():
    rng = np.random.default_rng(13)
    return np.concatenate([rng.normal(0.0, 1.0, 30), rng.normal(6.0, 0.5, 15)])


class TestLockstep:
    """Restarts anneal in blocks; each row must follow its solo path bit for bit."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_block_rows_equal_scalar_calls(self, family, galaxy_values):
        rng = np.random.default_rng(7)
        # the huge copy of the data overflows (y - mu) / scale at the lower
        # corner, so its last row has an infinite nll
        for data in (galaxy_values, galaxy_values * 1e300):
            space = param_space(family, data)
            xs = _box_points(space, rng, 9)
            logpdf = FAMILIES[family].logpdf
            with np.errstate(all="ignore"):
                block = logpdf(space.to_natural_columns(xs), data)
                assert block.shape == (len(xs), data.size)
                for i, x in enumerate(xs):
                    assert np.array_equal(block[i], logpdf(space.to_natural(x), data),
                                          equal_nan=True), (family, i)
                nll = baslg.fit._nll_factory(family, space, data)
                block_nll = baslg.fit._block_nll_factory(family, space, data)
                totals = block_nll(xs)
                assert totals == [nll(x) for x in xs]
        assert totals[-1] == math.inf

    @pytest.mark.parametrize("family", ["lg", "baslg2"])
    def test_block_anneal_equals_solo_walks(self, family, galaxy_values):
        space = param_space(family, galaxy_values)
        starts = _box_points(space, np.random.default_rng(2), 7)
        seeds = np.random.SeedSequence(11).spawn(len(starts))
        block_nll = baslg.fit._block_nll_factory(family, space, galaxy_values)
        nll = baslg.fit._nll_factory(family, space, galaxy_values)
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        best_x, best_f, used = baslg.fit._anneal(block_nll, starts, space, rngs, 20000)
        assert used == baslg.fit._SA_STEPS + 1
        for i, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            solo_x, solo_f = _solo_walk(nll, starts[i], space, rng)
            assert np.array_equal(best_x[i], solo_x)
            assert best_f[i] == solo_f

    def test_two_blocks_equal_one_by_one_annealing(self, galaxy_values, monkeypatch):
        # never agree, so all 10 restarts run: a block of 8, then one of 2
        monkeypatch.setattr(baslg.fit, "_AGREE_TOL", 0.0)
        original = baslg.fit._anneal
        blocks = []

        def recording(block_nll, x0, space, rngs, budget):
            blocks.append(len(rngs))
            return original(block_nll, x0, space, rngs, budget)

        def one_by_one(block_nll, x0, space, rngs, budget):
            solo = [original(block_nll, x0[i:i + 1], space, rngs[i:i + 1], budget)
                    for i in range(len(rngs))]
            return np.vstack([s[0] for s in solo]), [s[1][0] for s in solo], solo[0][2]

        cfg = OptimizerConfig(restarts=10, seed=4)
        monkeypatch.setattr(baslg.fit, "_anneal", recording)
        a = fit_mle("baslg2", galaxy_values, cfg)
        b = fit_mle("baslg2", galaxy_values, cfg)
        assert blocks == [8, 2, 8, 2]
        assert a == b and a.restarts_used == 10
        monkeypatch.setattr(baslg.fit, "_anneal", one_by_one)
        assert fit_mle("baslg2", galaxy_values, cfg) == a

    @pytest.mark.parametrize("family, cfg, used", [
        ("lg", OptimizerConfig(), 8),
        # stops after restart 10, so 6 rows of the second block are
        # annealed but never polished; they count all the same
        ("sn", OptimizerConfig(restarts=16, seed=2), 10),
    ])
    def test_nfev_counts_every_row(self, family, cfg, used, monkeypatch):
        info = FAMILIES[family]
        rows = []

        def counting(params, y):
            vals = info.logpdf(params, y)
            rows.append(1 if vals.ndim == 1 else vals.shape[0])
            return vals

        monkeypatch.setitem(baslg.models.FAMILIES, family,
                            dataclasses.replace(info, logpdf=counting))
        res = fit_mle(family, _two_clusters(), cfg)
        assert res.restarts_used == used
        assert res.nfev == sum(rows)
        annealed = sum(r for r in rows if r > 1)
        assert annealed == min(-(-used // 8) * 8, cfg.restarts) * (baslg.fit._SA_STEPS + 1)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_evals_per_restart=100)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=1.5)


class TestCompareModels:
    def test_galaxies_ranking(self, galaxy_values):
        rows = compare_models(galaxy_values)
        assert [r.family for r in rows][0] == "baslg2"
        assert all(r.ok for r in rows)
        aics = [r.aic for r in rows]
        assert aics == sorted(aics)
        assert {r.family for r in rows} == {"n", "lg", "la", "sn", "aslg", "baslg2"}

    def test_singleton(self, galaxy_values):
        rows = compare_models(galaxy_values, families=["lg"])
        assert len(rows) == 1 and rows[0].family == "lg"

    def test_degenerate_data_yields_error_rows(self):
        rows = compare_models(np.full(20, 1.0), families=["lg", "baslg2"])
        assert len(rows) == 2
        for r in rows:
            assert not r.ok
            assert r.aic == math.inf
            assert r.nfev == 0
            assert "identical" in r.error


class TestLrTest:
    def test_galaxies(self, galaxy_values):
        res = lr_test(galaxy_values)
        assert res.statistic == pytest.approx(27.5838, abs=1.0)
        assert res.df == 1
        assert res.critical_value == pytest.approx(6.635)
        assert res.reject_null
        assert res.full_fit.family == "baslg2"
        assert res.null_fit.family == "lg"

    def test_null_data_does_not_reject(self):
        # Data truly drawn from the logistic null should rarely clear the
        # 1% critical value; seed chosen once, never tuned.
        rng = np.random.default_rng(123)
        data = rng.logistic(0.0, 1.0, size=300)
        res = lr_test(data, OptimizerConfig(restarts=12, seed=5))
        assert res.statistic < 6.635

    def test_reuses_fits_passed_in(self, galaxy_values, galaxy_lg, galaxy_baslg2, monkeypatch):
        fresh = lr_test(galaxy_values)

        def no_fitting(*args, **kwargs):
            raise AssertionError("lr_test refitted a fit it was given")

        monkeypatch.setattr(baslg.fit, "fit_mle", no_fitting)
        reused = lr_test(galaxy_values, null_fit=galaxy_lg, full_fit=galaxy_baslg2)
        assert reused.statistic == fresh.statistic
        assert reused.null_fit is galaxy_lg
        assert reused.full_fit is galaxy_baslg2

    def test_fits_only_what_is_missing(self, galaxy_values, galaxy_lg, monkeypatch):
        fitted = []
        original = baslg.fit.fit_mle

        def counting(family, *args, **kwargs):
            fitted.append(family)
            return original(family, *args, **kwargs)

        monkeypatch.setattr(baslg.fit, "fit_mle", counting)
        res = lr_test(galaxy_values, null_fit=galaxy_lg)
        assert fitted == ["baslg2"]
        assert res.null_fit is galaxy_lg

    def test_rejects_mismatched_fits(self, galaxy_values, galaxy_lg, galaxy_baslg2):
        with pytest.raises(ValueError, match="expected a 'lg' fit"):
            lr_test(galaxy_values, null_fit=galaxy_baslg2, full_fit=galaxy_baslg2)
        with pytest.raises(ValueError, match="expected a 'baslg2' fit"):
            lr_test(galaxy_values, null_fit=galaxy_lg, full_fit=galaxy_lg)
        with pytest.raises(ValueError, match="n_obs"):
            lr_test(galaxy_values[:-1], null_fit=galaxy_lg, full_fit=galaxy_baslg2)
        with pytest.raises(TypeError):
            lr_test(galaxy_values, OptimizerConfig(), galaxy_lg)

    def test_rejects_failed_fits(self, galaxy_values, galaxy_lg):
        failed = compare_models([1.0, 1.0, 1.0], families=("baslg2",))[0]
        failed = dataclasses.replace(failed, n_obs=galaxy_values.size)
        with pytest.raises(ValueError, match="failed"):
            lr_test(galaxy_values, null_fit=galaxy_lg, full_fit=failed)
