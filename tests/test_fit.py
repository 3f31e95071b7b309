"""Multistart MLE, information criteria, and the likelihood-ratio test.

Optimizer checks target reproducibility and agreement with closed-form or
published optima, not internal trajectory details.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

import baslg.core
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
        assert information_criteria(-1.0, 0, 5) == (2.0, 2.0)

    @pytest.mark.parametrize("n_params, n_obs, name", [
        (2, 0, "n_obs"), (2, -3, "n_obs"), (2, 2.0, "n_obs"), (2, True, "n_obs"),
        (-1, 5, "n_params"), (1.5, 5, "n_params"), (None, 5, "n_params"),
    ])
    def test_rejects_bad_counts(self, n_params, n_obs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            information_criteria(-1.0, n_params, n_obs)


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

    def test_galaxies_baslg2_every_seed_in_the_band(self, galaxy_values):
        # criterion 08a's band at seeds 0-39; a second mode near -228.6 lies
        # outside it, and a search that reaches fewer modes could stop there
        for seed in range(40):
            r = fit_mle("baslg2", galaxy_values, OptimizerConfig(seed=seed))
            assert r.converged and abs(r.log_l + 219.86) <= 0.5, (seed, r.log_l)

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
        assert r.params["mu"] == float(np.mean(data))
        assert r.params["sigma"] == float(np.std(data))

    def test_laplace_closed_form(self):
        # with n even the likelihood is flat in mu between the two middle
        # order statistics; the fit takes the median, their midpoint, at any seed
        data = np.random.default_rng(78).laplace(-1.0, 0.7, size=200)
        med = float(np.median(data))
        want = {"mu": med, "beta": float(np.mean(np.abs(data - med)))}
        for seed in range(4):
            assert fit_mle("la", data, OptimizerConfig(seed=seed)).params == want

    @pytest.mark.parametrize("family", ["n", "la"])
    def test_closed_form_report(self, family, galaxy_values):
        r = fit_mle(family, galaxy_values)
        assert (r.restarts_used, r.converged, r.nfev) == (0, True, 1)
        assert r.log_l == FAMILIES[family].log_likelihood(r.param_tuple(), galaxy_values)

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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_range_wider_than_a_double(self, family):
        # max - min overflows: refused before any likelihood runs, with no warning
        data = [-1e308, 0.0, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"data range \[-1e\+308, 1e\+308\]"):
                fit_mle(family, data)
            with pytest.raises(ValueError, match="data range"):
                param_space(family, data)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spreads_a_double_cannot_square(self, family):
        # the range fits a double, but the search box around [0, 1e308]
        # overflows, the squares of [+-1e154, ...] overflow and those of
        # [0, 1e-200, 2e-200] underflow to 0: no warning, and either the box
        # refusal or a finite fit (the normal fit at the data's exact std)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = [0.0, 1e308, 5.0]
            if FAMILIES[family].exact:
                assert math.isfinite(fit_mle(family, wide).log_l)
            else:
                too_wide = r"data range \[0\.0, 1e\+308\] is too wide"
                for call in (fit_mle, param_space):
                    with pytest.raises(ValueError, match=too_wide):
                        call(family, wide)
            for data in ([1e154, -1e154, 0.0, 1.0], [0.0, 1e-200, 2e-200]):
                r = fit_mle(family, data)
                assert math.isfinite(r.log_l)
                assert all(map(math.isfinite, r.param_tuple()))
                if family == "n":
                    assert r.params["sigma"] == pytest.approx(statistics.pstdev(data), rel=4e-16)
            # r is the tiny data's fit: its MLE reaches logL ~ 1378, while a
            # scale held at the std's floor of 1e-6 gives 38.7
            assert r.log_l > 1370.0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("data", [
        [1e308, 1e308, 9.9e307],
        [1e308, 1e308, 0.0],
        [0.0, 0.0, 1.7e308, 1.7e308, 1.7e308],  # the deviations from the median overflow too
    ])
    def test_sums_a_double_cannot_hold(self, family, data):
        # the sum overflows, so the moment starts take the mean of the data
        # scaled by a power of two: no warning, and either a finite fit or,
        # where the data's range is 1e308 or more, the box refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not (FAMILIES[family].exact or max(data) - min(data) < 1e307):
                with pytest.raises(ValueError, match="is too wide: the search box"):
                    fit_mle(family, data)
                return
            r = fit_mle(family, data)
        assert math.isfinite(r.log_l)
        assert all(map(math.isfinite, r.param_tuple()))
        if family == "n":
            assert r.params["mu"] == pytest.approx(statistics.mean(data), rel=4e-16)


def _box_points(space, rng, count):
    """``count`` random box points plus the lower corner (smallest scale)."""
    lower, upper = np.asarray(space.lower), np.asarray(space.upper)
    xs = lower + rng.random((count, lower.size)) * (upper - lower)
    return np.vstack([xs, lower])


def _scalar_nll(family, space, data):
    """Reference nll of one box point, one scalar log-density call."""
    logpdf = FAMILIES[family].logpdf

    def nll(x) -> float:
        total = float(np.sum(logpdf(space.to_natural(x), data)))
        return -total if math.isfinite(total) else math.inf

    return nll


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
        wide = np.random.default_rng(3).logistic(1.0, 2.0, 2500)
        # the huge copies of the data overflow (y - mu) / scale at the lower
        # corner, so their last row has an infinite nll; at n = 2500 a call
        # of 96 or 61 rows runs in several row chunks, the last one ragged
        for data, sizes in [(galaxy_values, (32, 3, 8, 1)), (galaxy_values * 1e300, (32, 3, 8, 1)),
                            (wide, (96, 61)), (wide * 1e300, (96, 61))]:
            huge = np.abs(data).max() > 1e299
            space = param_space(family, data)
            xs = _box_points(space, rng, 9)
            logpdf = FAMILIES[family].logpdf
            with np.errstate(all="ignore"):
                block = logpdf(space.to_natural_columns(xs), data)
                assert block.shape == (len(xs), data.size)
                for i, x in enumerate(xs):
                    assert np.array_equal(block[i], logpdf(space.to_natural(x), data),
                                          equal_nan=True), (family, i)
                nll = _scalar_nll(family, space, data)
                block_nll = baslg.fit._block_nll_factory(family, space, data)
                totals = block_nll(xs).tolist()
                assert totals == [nll(x) for x in xs]
                # one factory, hence one scratch block, across calls of every
                # size: no row a larger call wrote may leak into a smaller one
                for rows in sizes:
                    more = _box_points(space, rng, rows - 1)
                    got = block_nll(more).tolist()
                    assert got == [nll(x) for x in more], (family, rows)
                    assert (got[-1] == math.inf) == huge, (family, rows)
        assert totals[-1] == math.inf

    @pytest.mark.parametrize("family", ["lg", "sn", "aslg", "baslg2"])
    def test_warm_block_call_allocates_no_block(self, family):
        # a warm 96-row call at n = 20,000 writes its passes into the
        # search's scratch, a few rows at a time, so, run as a search runs
        # it, the call peaks below one (8, n) array of doubles plus whatever
        # numpy's ufunc iterator allocates for one op between such an array
        # and a parameter column
        data = np.random.default_rng(3).logistic(1.0, 2.0, 20000)
        space = param_space(family, data)
        xs = _box_points(space, np.random.default_rng(4), 95)
        block_nll = baslg.fit._block_nll_factory(family, space, data)
        block, column = np.empty((8, data.size)), np.ones((8, 1))

        def peak_of(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with baslg.fit._row_buffers(data.size), np.errstate(over="ignore", invalid="ignore"):
            want = block_nll(xs)
            _, buffers = peak_of(lambda: np.subtract(data, column, out=block))
            got, peak = peak_of(lambda: block_nll(xs))
        assert np.array_equal(got, want)
        assert peak < block.nbytes + buffers, f"peak {peak} B, numpy buffers {buffers} B"

    def test_row_buffers_are_restored(self, galaxy_values):
        default = np.getbufsize()
        with baslg.fit._row_buffers(2500):
            assert np.getbufsize() == 2496
        with pytest.raises(KeyError), baslg.fit._row_buffers(82):
            assert np.getbufsize() == 80
            raise KeyError
        fit_mle("lg", galaxy_values, OptimizerConfig(restarts=1))
        assert np.getbufsize() == default

    @pytest.mark.parametrize("family", ["lg", "baslg2"])
    def test_block_anneal_equals_solo_walks(self, family, galaxy_values):
        space = param_space(family, galaxy_values)
        starts = _box_points(space, np.random.default_rng(2), 7)
        seeds = np.random.SeedSequence(11).spawn(len(starts))
        block_nll = baslg.fit._block_nll_factory(family, space, galaxy_values)
        nll = _scalar_nll(family, space, galaxy_values)
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        best_x, best_f = baslg.fit._anneal(block_nll, starts, space, rngs)
        for i, seed in enumerate(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            solo_x, solo_f = _solo_walk(nll, starts[i], space, rng)
            assert np.array_equal(best_x[i], solo_x)
            assert best_f[i] == solo_f

    def test_two_blocks_equal_one_by_one_annealing(self, galaxy_values, monkeypatch):
        # never agree, so all 10 restarts run: a block of 8, then one of 2;
        # with one worker every block runs whole, in this process
        monkeypatch.setattr(baslg.core, "_WORKERS", 1)
        monkeypatch.setattr(baslg.fit, "_AGREE_TOL", 0.0)
        original = baslg.fit._anneal
        blocks = []

        def recording(block_nll, x0, space, rngs):
            blocks.append(len(rngs))
            return original(block_nll, x0, space, rngs)

        def one_by_one(block_nll, x0, space, rngs):
            solo = [original(block_nll, x0[i:i + 1], space, rngs[i:i + 1])
                    for i in range(len(rngs))]
            return np.vstack([s[0] for s in solo]), [s[1][0] for s in solo]

        cfg = OptimizerConfig(restarts=10, seed=4)
        monkeypatch.setattr(baslg.fit, "_anneal", recording)
        a = fit_mle("baslg2", galaxy_values, cfg)
        b = fit_mle("baslg2", galaxy_values, cfg)
        assert blocks == [8, 2, 8, 2]
        assert a == b and a.restarts_used == 10
        monkeypatch.setattr(baslg.fit, "_anneal", one_by_one)
        assert fit_mle("baslg2", galaxy_values, cfg) == a

    def test_one_set_up_per_search(self, galaxy_values, monkeypatch):
        # the box and the starts are built once, however many blocks run
        monkeypatch.setattr(baslg.core, "_WORKERS", 1)
        monkeypatch.setattr(baslg.fit, "_AGREE_TOL", 0.0)
        calls = []
        for name in ("param_space", "_lhs_starts"):
            def counting(*args, _name=name, _original=getattr(baslg.fit, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(baslg.fit, name, counting)
        r = fit_mle("baslg2", galaxy_values, OptimizerConfig(restarts=20, seed=4))
        assert r.restarts_used == 20
        assert sorted(calls) == ["_lhs_starts", "param_space"]

    @pytest.mark.parametrize("family, cfg, used", [
        ("lg", OptimizerConfig(), 8),
        # stops after restart 10, mid-block, so 6 rows of the second block
        # are annealed and polished but never returned; they count all the same
        ("sn", OptimizerConfig(restarts=16, seed=2), 10),
    ])
    def test_nfev_counts_every_row(self, family, cfg, used, monkeypatch):
        # with one worker every block runs whole, in this process, so every
        # row it evaluates is counted here
        monkeypatch.setattr(baslg.core, "_WORKERS", 1)
        info = FAMILIES[family]
        rows = []
        annealed_rows = []
        anneal = baslg.fit._anneal

        def counting_anneal(*args):
            start = len(rows)
            out = anneal(*args)
            annealed_rows.append(sum(rows[start:]))
            return out

        def counting(params, y, **kwargs):
            vals = info.logpdf(params, y, **kwargs)
            rows.append(1 if vals.ndim == 1 else vals.shape[0])
            return vals

        monkeypatch.setitem(baslg.models.FAMILIES, family,
                            dataclasses.replace(info, logpdf=counting))
        monkeypatch.setattr(baslg.fit, "_anneal", counting_anneal)
        res = fit_mle(family, _two_clusters(), cfg)
        assert res.restarts_used == used
        assert res.nfev == sum(rows)
        annealed = sum(annealed_rows)
        assert annealed == min(-(-used // 8) * 8, cfg.restarts) * (baslg.fit._SA_STEPS + 1)


def _polish_starts(family, data, seed):
    """Seven annealed rows, a random box point and the two box corners,
    clipped to the box, and their nll."""
    space = param_space(family, data)
    block_nll = baslg.fit._block_nll_factory(family, space, data)
    rng = np.random.default_rng(seed)
    starts = _box_points(space, rng, 7)
    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(len(starts))]
    with np.errstate(over="ignore", invalid="ignore"):
        annealed, _ = baslg.fit._anneal(block_nll, starts, space, rngs)
        xs = np.vstack([annealed, _box_points(space, rng, 1), space.upper])
        xs = xs.clip(space.lower, space.upper)
        return space, block_nll, xs, np.array(block_nll(xs))


class TestPolish:
    """The Newton polish's contract, whatever path each row takes."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_rows_stay_in_the_box_and_never_end_worse(self, family, scale, galaxy_values):
        # at scale 1e300 the lower corner's nll is infinite
        data = galaxy_values * scale
        space, block_nll, xs, f0 = _polish_starts(family, data, 21)
        nll = _scalar_nll(family, space, data)
        budget = baslg.fit._MAX_EVALS - baslg.fit._SA_STEPS - 1
        with np.errstate(all="ignore"):
            x, f, nfev = baslg.fit._polish_block(block_nll, xs, f0, space, budget)
            starts = [nll(x0) for x0 in xs]
            ends = [nll(row) for row in x]
        assert x.shape == xs.shape and f.shape == nfev.shape == (len(xs),)
        assert np.all((x >= space.lower) & (x <= space.upper))
        assert f.tolist() == ends
        assert all(end <= start for end, start in zip(ends, starts))
        assert np.all(nfev <= budget)
        # a row with no finite nll to start from is left as it is
        lost = ~np.isfinite(f0)
        assert lost.any() == (scale > 1.0)
        assert np.array_equal(x[lost], xs[lost]) and np.all(nfev[lost] == 0)

    def test_nfev_counts_each_rows_points_within_budget(self, galaxy_values):
        space, block_nll, xs, f0 = _polish_starts("baslg2", galaxy_values, 22)
        assert np.isfinite(f0).all()
        # every round costs the same: a stencil, then the trials
        per_round = len(baslg.fit._stencil(xs.shape[1])) + len(baslg.fit._NEWTON_T)
        for budget in (0, per_round - 1, per_round, 2 * per_round - 1,
                       2 * per_round, 2 * per_round + 5, 100, 20000):
            calls = []

            def counting(points):
                calls.append(len(points))
                return block_nll(points)

            with np.errstate(all="ignore"):
                x, f, nfev = baslg.fit._polish_block(counting, xs, f0, space, budget)
            assert np.all(nfev <= budget) and nfev.sum() == sum(calls), budget
            if budget < per_round:
                # too small for one round: nothing is evaluated
                assert calls == [] and np.array_equal(f, f0)
                assert np.array_equal(x, xs)
            else:
                assert np.all(nfev >= per_round), budget
                assert np.all(nfev % per_round == 0), budget

    def test_one_round_solves_an_exact_quadratic(self, galaxy_values):
        # on an exact quadratic the stencil's gradient and Hessian are exact
        # up to rounding, so every row's t = 1 trial of the first round is
        # the minimiser; a wrong sign or factor in the mixed differences, here
        # of both signs, leaves each row well short of it
        space = param_space("baslg2", galaxy_values)  # alpha, mu, log beta
        a = np.array([[2.0, 0.6, -0.4], [0.6, 1.5, 0.3], [-0.4, 0.3, 1.0]])
        m = np.array([1.5, 20.0, 0.8])
        xs = m + np.random.default_rng(24).uniform(-1e-3, 1e-3, (8, 3))

        def quadratic(points):
            d = points - m
            return 0.5 * np.einsum("ri,ij,rj->r", d, a, d)

        per_round = len(baslg.fit._stencil(3)) + len(baslg.fit._NEWTON_T)
        x, f, nfev = baslg.fit._polish_block(quadratic, xs, quadratic(xs), space, per_round)
        assert np.all(nfev == per_round)
        assert np.abs(x - m).max() <= 1e-12
        assert f.tolist() == quadratic(x).tolist()

    def test_later_rounds_do_not_evaluate_a_rows_point_again(self, galaxy_values):
        space, block_nll, xs, f0 = _polish_starts("baslg2", galaxy_values, 25)
        stencil = len(baslg.fit._stencil(xs.shape[1]))
        calls = []

        def recording(points):
            calls.append(points.copy())
            return block_nll(points)

        with np.errstate(all="ignore"):
            baslg.fit._polish_block(recording, xs, f0, space, 20000)
        # the calls alternate: a round's stencils, then its trials
        stencils, trials = calls[::2], calls[1::2]
        assert len(stencils) > 2 and len(stencils[0]) == stencil * len(xs)
        for held, points in zip([xs] + trials, stencils):
            # every live row's point is its start or one of the trials just
            # evaluated, and its nll is the one it holds, not evaluated again
            assert len(points) % stencil == 0
            assert not (points[:, None, :] == held[None, :, :]).all(axis=2).any()

    @pytest.mark.parametrize("family", ["lg", "sn", "baslg2"])
    def test_rows_do_not_depend_on_each_other(self, family, galaxy_values):
        space, block_nll, xs, f0 = _polish_starts(family, galaxy_values, 23)
        with np.errstate(all="ignore"):
            x, f, nfev = baslg.fit._polish_block(block_nll, xs, f0, space, 20000)
            for i, x0 in enumerate(xs):
                xi, fi, ni = baslg.fit._polish_block(block_nll, x0[None], f0[i:i + 1], space,
                                                     20000)
                assert np.array_equal(xi[0], x[i]) and (fi[0], ni[0]) == (f[i], nfev[i]), i

    @pytest.mark.parametrize("family", ["lg", "sn", "aslg", "baslg2"])
    def test_lbfgsb_referee_finds_nothing_better(self, family, galaxy_values):
        # scipy's L-BFGS-B, started at the returned optimum in the search's
        # own coordinates and box, must not lower the nll by more than 1e-9
        fit = fit_mle(family, galaxy_values)
        space = param_space(family, galaxy_values)
        nll = _scalar_nll(family, space, galaxy_values)
        x0 = space.to_internal(fit.param_tuple())
        assert nll(x0) == pytest.approx(-fit.log_l, abs=1e-12)
        with np.errstate(all="ignore"):
            res = minimize(nll, x0, method="L-BFGS-B", bounds=list(zip(space.lower, space.upper)))
        assert res.fun >= -fit.log_l - 1e-9

    @pytest.mark.parametrize("idx, log_l", [(12, -399.42279966612), (42, -350.60184862633)],
                             ids=["null12", "null42"])
    def test_aslg_modes_nelder_mead_missed(self, idx, log_l):
        # the earlier Nelder-Mead polish stopped these fits at worse modes,
        # -400.8607 and -353.2986, and still reported converged
        data = _null_pool_member(idx)
        fit = fit_mle("aslg", data)
        assert fit.converged
        assert fit.log_l == pytest.approx(log_l, abs=1e-6)
        assert FAMILIES["aslg"].log_likelihood(fit.param_tuple(), data) == pytest.approx(
            fit.log_l, abs=1e-9)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)
        for bad in (2.5, 1.0, True, "3", None):
            for name in ("restarts", "seed"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    OptimizerConfig(**{name: bad})
        # the evaluation budget and the early-stop tolerance are constants
        for name in ("max_evals_per_restart", "tolerance"):
            with pytest.raises(TypeError):
                OptimizerConfig(**{name: 1})


    def test_numpy_integers_fit_as_ints(self, galaxy_values):
        numpy_ints = OptimizerConfig(restarts=np.int64(2), seed=np.int32(3))
        ints = OptimizerConfig(restarts=2, seed=3)
        assert fit_mle("lg", galaxy_values, numpy_ints) == fit_mle("lg", galaxy_values, ints)


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


def _null_pool_member(idx: int) -> np.ndarray:
    """A 200-point logistic sample, as the benchmark's null pool draws them."""
    return np.random.default_rng([1906_04125, 3, idx]).logistic(0.0, 1.0, 200)


class _TwoPartError(Exception):
    """Pickles, but does not unpickle: its one arg is not what __init__ takes."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def _raise_local():
    class Local(Exception):
        pass

    raise Local("boom")


def _raise_two_part():
    raise _TwoPartError("this", "that")


def _worker_pid():
    return baslg.fit._worker[0] if baslg.fit._worker else None


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stop_and_assert_no_child():
    # the kept worker reads the closed task pipe as its end and exits 0
    assert baslg.fit._stop_worker() == 0
    _assert_no_child()


def _ended(pid: int) -> bool:
    """Whether ``pid``, not a child of this process, has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


class TestWorker:
    """``_in_worker`` and its kept worker against the sequential path, which
    runs both calls here."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked here; the gate is held open even on one CPU."""
        pids = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(baslg.core, "_WORKERS", 2)
        monkeypatch.setattr(os, "fork", counting)
        return pids

    @staticmethod
    def sequential(monkeypatch, call):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            return call()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: lr_test(_null_pool_member(7)), id="lr_test"),
        pytest.param(lambda: compare_models(galaxies().values), id="compare_models"),
        # n = 2500: the one block, of 3 restarts, runs 2 here and 1 in the worker
        pytest.param(lambda: fit_mle("sn", np.random.default_rng(5).logistic(2.0, 1.5, 2500),
                                     OptimizerConfig(restarts=3, seed=3)), id="fit_mle"),
    ])
    def test_forked_equals_sequential(self, call, forks, monkeypatch):
        reference = self.sequential(monkeypatch, call)
        assert forks == []
        assert call() == reference
        assert forks == [_worker_pid()]
        _stop_and_assert_no_child()

    def test_one_fork_serves_many_calls(self, forks, monkeypatch):
        # lr_test's lg fits and the split blocks of small-n searches, one after
        # another, all go to the worker forked for the first of them
        calls = [lambda idx=idx: lr_test(_null_pool_member(idx)) for idx in (3, 7, 11)]
        calls += [lambda family=family: fit_mle(family, _null_pool_member(5))
                  for family in ("lg", "sn", "aslg", "baslg2")]
        reference = [self.sequential(monkeypatch, call) for call in calls]
        assert [call() for call in calls] == reference
        assert forks == [_worker_pid()]
        _stop_and_assert_no_child()

    @pytest.mark.parametrize("family", ["lg", "sn", "aslg", "baslg2"])
    @pytest.mark.parametrize("n", [82, 200])
    def test_split_blocks_equal_whole_blocks(self, family, n, forks, monkeypatch):
        # a block's rows do not depend on each other, so half a block run in
        # the worker, with a scratch of its own, gives the caller's bits
        data = galaxies().values if n == 82 else _null_pool_member(9)
        assert data.size == n
        cfg = OptimizerConfig(restarts=20, seed=6)
        with monkeypatch.context() as m:
            m.setattr(baslg.core, "_WORKERS", 1)
            whole = fit_mle(family, data, cfg)
        assert forks == []
        assert fit_mle(family, data, cfg) == whole
        assert forks == [_worker_pid()]

    def test_forked_fits_raise_no_warning(self, forks):
        # the set-up and the search run under fit_mle's errstate, and the
        # worker's half-blocks and lr_test's lg fit set it for themselves
        cases = [
            # the lower scale corner overflows the squares of this data
            (np.linspace(-1e150, 1e150, 1200), ("sn", "baslg2")),
            # the box is finite but its width is not, so the Latin hypercube
            # and the anneal's steps overflow
            (np.linspace(-2e307, 2e307, 50), ("lg", "baslg2")),
        ]
        for data, families in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fits = [fit_mle(family, data) for family in families]
                res = lr_test(data)
            for r in fits + [res.null_fit, res.full_fit]:
                assert math.isfinite(r.log_l) and all(map(math.isfinite, r.param_tuple()))
            assert math.isfinite(res.statistic)
        assert len(forks) == 1
        _stop_and_assert_no_child()

    def test_worker_exception_reaches_caller(self, forks, monkeypatch):
        original = baslg.fit.fit_mle

        def failing(family, *args):
            if family == "lg":  # lr_test fits lg in the worker
                raise DegenerateDataError(f"no {family} today")
            return original(family, *args)

        # patched before the worker is forked, so the worker runs it too
        monkeypatch.setattr(baslg.fit, "fit_mle", failing)
        for _ in range(2):
            with pytest.raises(DegenerateDataError, match="^no lg today$"):
                lr_test(galaxies().values, OptimizerConfig(restarts=2))
        assert forks == [_worker_pid()]
        _stop_and_assert_no_child()

    def test_unpicklable_exception_and_silent_exit(self, forks):
        with pytest.raises(RuntimeError, match=r"Local\('boom'\)"):
            baslg.fit._in_worker(os.getpid, _raise_local)
        with pytest.raises(RuntimeError, match=r"_TwoPartError\('this and that'\)"):
            baslg.fit._in_worker(os.getpid, _raise_two_part)
        # a task that raises leaves the worker alive; one that ends it is
        # reported with its wait status, and its worker reaped
        assert forks == [_worker_pid()]
        with pytest.raises(RuntimeError, match="wait status 768"):
            baslg.fit._in_worker(os.getpid, partial(os._exit, 3))
        assert baslg.fit._worker is None
        _assert_no_child()
        # so is a worker that died between tasks, and the next task forks anew
        baslg.fit._in_worker(os.getpid, os.getpid)
        os.kill(_worker_pid(), signal.SIGKILL)
        os.waitid(os.P_PID, _worker_pid(), os.WEXITED | os.WNOWAIT)  # dead, not reaped
        with pytest.raises(RuntimeError, match=f"wait status {signal.SIGKILL}"):
            baslg.fit._in_worker(os.getpid, os.getpid)
        _assert_no_child()
        mine, theirs = baslg.fit._in_worker(os.getpid, os.getpid)
        assert theirs == _worker_pid() != mine
        assert len(forks) == 3
        _stop_and_assert_no_child()

    def test_interrupted_caller_leaves_no_child(self, forks):
        def interrupted():
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            baslg.fit._in_worker(interrupted, partial(time.sleep, 60))
        assert time.monotonic() - start < 30  # killed, not waited for
        assert baslg.fit._worker is None
        _assert_no_child()
        # the next call forks a new worker
        mine, theirs = baslg.fit._in_worker(os.getpid, os.getpid)
        assert theirs == _worker_pid() == forks[1] != mine
        assert len(forks) == 2
        _stop_and_assert_no_child()

    def test_idle_worker_outlives_an_interrupt(self, forks):
        # a ^C at a terminal reaches the worker too; an idle one keeps
        # serving, and a busy one is killed by its interrupted caller
        worker = baslg.fit._in_worker(os.getpid, os.getpid)[1]
        os.kill(worker, signal.SIGINT)
        time.sleep(0.05)
        assert baslg.fit._in_worker(os.getpid, os.getpid)[1] == worker
        assert forks == [worker]
        _stop_and_assert_no_child()

    def test_no_half_blocks_while_the_worker_is_busy(self, forks, monkeypatch):
        # lr_test's lg fit holds the worker, so its baslg2 search here runs
        # every block whole rather than its two halves one after the other
        rows = []
        search_rows = baslg.fit._search_rows

        def recording(family, data, space, starts, seed, block):
            rows.append(len(block))
            return search_rows(family, data, space, starts, seed, block)

        monkeypatch.setattr(baslg.fit, "_search_rows", recording)
        res = lr_test(_null_pool_member(7))
        assert rows and set(rows) == {8}
        assert res.full_fit.restarts_used <= 8 * len(rows)
        assert len(forks) == 1

    def test_one_worker_never_nested(self, forks):
        pids = partial(baslg.fit._in_worker, os.getpid, os.getpid)
        mine, theirs = baslg.fit._in_worker(pids, pids)
        assert mine == (os.getpid(), os.getpid())
        assert theirs == (forks[0], forks[0])
        assert len(forks) == 1
        _stop_and_assert_no_child()

    def test_no_fork_while_another_thread_runs(self, forks):
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(60,))
        helper.start()
        try:
            assert baslg.fit._in_worker(os.getpid, os.getpid) == (os.getpid(), os.getpid())
            lr_test(_null_pool_member(7), OptimizerConfig(restarts=2))
        finally:
            release.set()
            helper.join(timeout=60)
        assert not helper.is_alive()
        assert forks == []
        # nor is a worker forked earlier handed a task
        baslg.fit._in_worker(os.getpid, os.getpid)
        helper = threading.Thread(target=release.wait, args=(60,))
        release.clear()
        helper.start()
        try:
            assert baslg.fit._in_worker(os.getpid, os.getpid) == (os.getpid(), os.getpid())
        finally:
            release.set()
            helper.join(timeout=60)
        assert len(forks) == 1
        _stop_and_assert_no_child()

    def test_searches_in_threads_stay_independent(self, forks):
        # each search keeps its own scratch block, so fits running at once
        # in more threads than a 2-CPU host has cores, switching often, give
        # what each gives alone; while another thread lives, _in_worker hands
        # the worker nothing, so all of them run in this process
        data = np.random.default_rng(5).logistic(2.0, 1.5, 2500)
        alone = {family: fit_mle(family, data) for family in ("sn", "baslg2", "lg")}
        forked = len(forks)
        together = {}
        all_started = threading.Barrier(len(alone))

        def run(family):
            all_started.wait(timeout=60)
            together[family] = fit_mle(family, data)

        threads = [threading.Thread(target=run, args=(family,)) for family in alone]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone
        assert len(forks) == forked

    def test_other_forks_cannot_reach_the_worker(self, forks):
        worker = baslg.fit._in_worker(os.getpid, os.getpid)[1]
        tasks, replies = baslg.fit._worker[1], baslg.fit._worker[2].fileno()
        pid = os.fork()
        if pid == 0:
            # this child forgot the worker and holds no end of its pipes
            code = 1
            try:
                closed = 0
                for fd in (tasks, replies):
                    try:
                        os.fstat(fd)
                    except OSError:
                        closed += 1
                if baslg.fit._worker is None and closed == 2:
                    code = 0
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        # the caller still owns its worker, which still serves it
        assert baslg.fit._in_worker(os.getpid, os.getpid)[1] == worker == _worker_pid()
        _stop_and_assert_no_child()

    @staticmethod
    def run_python(code: str) -> subprocess.CompletedProcess:
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr
        return res

    def test_worker_leaves_the_callers_stdio_unflushed(self):
        # stdout to a pipe is block-buffered: a worker that flushed its copy
        # of the buffer when it ends would print "pending" a second time
        res = self.run_python(
            "import functools, sys, baslg.core, baslg.fit\n"
            "baslg.core._WORKERS = 2\n"
            "sys.stdout.write('pending ')\n"
            "print(baslg.fit._in_worker(functools.partial(int, 1), functools.partial(int, 2)))"
        )
        assert res.stdout == "pending (1, 2)\n"

    def test_exit_leaves_no_child(self):
        # atexit handlers run last registered first, so this check runs
        # after baslg's own handler has stopped and reaped the worker
        res = self.run_python(
            "import atexit, os\n"
            "def check():\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child')\n"
            "atexit.register(check)\n"
            "import baslg.core, baslg.fit\n"
            "baslg.core._WORKERS = 2\n"
            "baslg.fit.lr_test([0.1, 0.5, 1.3, 2.0, 2.2, 2.9], baslg.fit.OptimizerConfig(restarts=2))\n"
            "print(baslg.fit._worker is not None)"
        )
        assert res.stdout == "True\nno child\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_worker_ends_with_a_caller_that_skips_atexit(self):
        # the caller's end of the task pipe closes when it dies, however it
        # dies, and the worker reads that as the end of its tasks
        res = self.run_python(
            "import os, baslg.core, baslg.fit\n"
            "baslg.core._WORKERS = 2\n"
            "baslg.fit.lr_test([0.1, 0.5, 1.3, 2.0, 2.2, 2.9], baslg.fit.OptimizerConfig(restarts=2))\n"
            "print(baslg.fit._worker[0], flush=True)\n"
            "os._exit(0)"
        )
        worker = int(res.stdout)
        deadline = time.monotonic() + 30
        while not _ended(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _ended(worker)
