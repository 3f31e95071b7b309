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
from baslg import (
    DegenerateDataError,
    OptimizerConfig,
    compare_models,
    fit_mle,
    information_criteria,
    lr_test,
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
