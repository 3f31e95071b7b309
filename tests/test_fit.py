"""Multistart MLE, information criteria, and the likelihood-ratio test.

Optimizer checks target reproducibility and agreement with closed-form or
published optima, not internal trajectory details.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import warnings

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
                nll = _scalar_nll(family, space, data)
                block_nll = baslg.fit._block_nll_factory(family, space, data)
                totals = block_nll(xs)
                assert totals == [nll(x) for x in xs]
                # one factory across calls of every size, from one row to
                # more rows than a restart block holds
                for rows in (32, 3, 8, 1):
                    more = _box_points(space, rng, rows - 1)
                    assert block_nll(more) == [nll(x) for x in more], (family, rows)
        assert totals[-1] == math.inf

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
        # never agree, so all 10 restarts run: a block of 8, then one of 2
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

    @pytest.mark.parametrize("family, cfg, used", [
        ("lg", OptimizerConfig(), 8),
        # stops after restart 10, so 6 rows of the second block are
        # annealed and polished but never returned; they count all the same
        ("sn", OptimizerConfig(restarts=16, seed=2), 10),
    ])
    def test_nfev_counts_every_row(self, family, cfg, used, monkeypatch):
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


def _scipy_polish(nll, x0, space, budget):
    """The referee: scipy's bounded Nelder-Mead from one point."""
    return minimize(nll, x0, method="Nelder-Mead", bounds=list(zip(space.lower, space.upper)),
                    options={"maxfev": budget, "fatol": 1e-10, "xatol": 1e-10})


def _assert_rows_equal_scipy(block_nll, nll, xs, space, budget):
    with np.errstate(all="ignore"):
        sim, fsim, nfev = baslg.fit._polish_block(block_nll, xs, space, budget)
        for i, x0 in enumerate(xs):
            res = _scipy_polish(nll, x0, space, budget)
            assert np.array_equal(sim[i, 0], res.x), (i, budget)
            assert (np.min(fsim[i]), nfev[i]) == (res.fun, res.nfev), (i, budget)
            assert np.array_equal(sim[i], res.final_simplex[0]), (i, budget)
            assert np.array_equal(fsim[i], res.final_simplex[1]), (i, budget)


class TestNelderMead:
    """Each row of the lockstep polish is scipy's bounded Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_annealed_rows_on_galaxies(self, family, galaxy_values):
        space = param_space(family, galaxy_values)
        starts = _box_points(space, np.random.default_rng(21), 7)
        rngs = [np.random.Generator(np.random.PCG64(s))
                for s in np.random.SeedSequence(3).spawn(len(starts))]
        block_nll = baslg.fit._block_nll_factory(family, space, galaxy_values)
        annealed, _ = baslg.fit._anneal(block_nll, starts, space, rngs)
        _assert_rows_equal_scipy(block_nll, _scalar_nll(family, space, galaxy_values),
                                 annealed, space, baslg.fit._MAX_EVALS - baslg.fit._SA_STEPS - 1)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zero_coordinates_and_box_corners(self, family, galaxy_values):
        space = param_space(family, galaxy_values)
        lower, upper = np.asarray(space.lower), np.asarray(space.upper)
        xs = np.repeat(_box_points(space, np.random.default_rng(8), 1)[:1], 5, axis=0)
        xs[1, 0] = 0.0  # a zero coordinate steps by zdelt, not by 5%
        xs[2] = -0.0  # numpy's centroid sum starts from +0.0
        xs[3] = upper  # a 5% step past an upper bound reflects into the box
        xs[4] = lower  # a 5% step below a negative lower bound clips back
        _assert_rows_equal_scipy(baslg.fit._block_nll_factory(family, space, galaxy_values),
                                 _scalar_nll(family, space, galaxy_values), xs, space, 20000)

    @pytest.mark.parametrize("family", ["lg", "sn"])
    def test_infinite_vertices(self, family, galaxy_values):
        data = galaxy_values * 1e300
        space = param_space(family, data)
        xs = _box_points(space, np.random.default_rng(9), 3)
        nll = _scalar_nll(family, space, data)
        with np.errstate(all="ignore"):
            assert nll(xs[-1]) == math.inf  # the lower corner, smallest scale
        _assert_rows_equal_scipy(baslg.fit._block_nll_factory(family, space, data),
                                 nll, xs, space, 20000)

    def test_small_budgets(self, galaxy_values):
        space = param_space("baslg2", galaxy_values)
        xs = _box_points(space, np.random.default_rng(10), 5)
        block_nll = baslg.fit._block_nll_factory("baslg2", space, galaxy_values)
        nll = _scalar_nll("baslg2", space, galaxy_values)
        for budget in range(1, 41):
            _assert_rows_equal_scipy(block_nll, nll, xs, space, budget)

    def test_budget_spent_after_reflection_and_mid_shrink(self, galaxy_values):
        # On a flat nll every iteration reflects, contracts inside, then
        # shrinks both other vertices: 3 + 4k evaluations end iteration k.
        # Budgets 4, 5 and 6 run out after the reflection, after the
        # contraction and after the first shrink point.
        space = param_space("lg", galaxy_values)
        xs = _box_points(space, np.random.default_rng(11), 3)

        def flat_block(points):
            return [1.0] * len(points)

        for budget in range(1, 16):
            _assert_rows_equal_scipy(flat_block, lambda x: 1.0, xs, space, budget)


def test_tied_vertices_keep_numpy_argsort_order(galaxy_values):
    # the start vertices of a 3-parameter simplex get nll (1, 1, 0, 0); numpy
    # orders them 3, 2, 1, 0, where a stable sort gives 2, 3, 0, 1
    space = param_space("baslg2", galaxy_values)
    x0 = _box_points(space, np.random.default_rng(12), 1)[:1]

    def nll(x):
        return 0.0 if (x[1], x[2]) != (x0[0, 1], x0[0, 2]) else 1.0

    for budget in range(4, 30):
        _assert_rows_equal_scipy(lambda points: [nll(x) for x in points], nll, x0, space, budget)


@pytest.mark.parametrize("fsim", [
    [1.0, 1.0, 0.0, 0.0],
    [2.0, 2.0, 2.0, 2.0],
    [math.inf, 0.5, math.inf, 0.5],
    [math.inf, math.inf, math.inf, -1.0],
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, 1.0, -0.0],
    [3.0, math.inf, 3.0, -0.0, 0.0, 3.0],
])
def test_by_nll_is_numpy_argsort(fsim):
    sim = [[float(i), -float(i)] for i in range(len(fsim))]
    order = np.argsort(fsim).tolist()
    got_sim, got_f = baslg.fit._by_nll(sim, fsim)
    assert got_sim == [sim[i] for i in order]
    # the values keep their identity, so a -0.0 stays where numpy puts it
    assert all(g is fsim[i] for g, i in zip(got_f, order))


def _stub_run(tag, sizes):
    """Asks for ``sizes[k]`` points in round k, then returns (tag, the replies)."""
    replies = []
    for k, size in enumerate(sizes):
        replies.append((yield [[tag, k, j] for j in range(size)]))
    return tag, replies


def _stub_nll(point) -> float:
    tag, k, j = point
    return 100.0 * tag + 10.0 * k + j


class TestLockstepRounds:
    """``_lockstep`` batches each round's requests of the unfinished runs."""

    def test_rounds_replies_and_results(self):
        # runs that finish after 3, 1, 4 and 1 rounds; runs 0 and 2 ask for
        # no points in round 1, as a shrink cut at the budget does, and
        # run 3 for none in round 0
        sizes = [[2, 0, 1], [1], [3, 0, 2, 1], [0]]
        calls = []

        def block_nll(xs):
            calls.append(xs.tolist())
            return [_stub_nll(x) for x in xs.tolist()]

        results = baslg.fit._lockstep(block_nll, [_stub_run(t, s) for t, s in enumerate(sizes)])
        # each call holds every unfinished run's request once, in run order,
        # and round 1, with no points, makes no call
        want_calls = [
            [[t, k, j] for t, s in enumerate(sizes) if k < len(s) for j in range(s[k])]
            for k in range(max(map(len, sizes)))
        ]
        assert calls == [c for c in want_calls if c]
        assert results == [
            (t, [[_stub_nll((t, k, j)) for j in range(size)] for k, size in enumerate(s)])
            for t, s in enumerate(sizes)
        ]


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


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorker:
    """``_in_worker`` against its sequential path, which runs both calls here."""

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

    @pytest.mark.parametrize("call, workers", [
        pytest.param(lambda: lr_test(_null_pool_member(7)), 1, id="lr_test"),
        pytest.param(lambda: compare_models(galaxies().values), 1, id="compare_models"),
        # n = 2500: the one block, of 3 restarts, runs 2 here and 1 in the worker
        pytest.param(lambda: fit_mle("sn", np.random.default_rng(5).logistic(2.0, 1.5, 2500),
                                     OptimizerConfig(restarts=3, seed=3)), 1, id="fit_mle"),
    ])
    def test_forked_equals_sequential(self, call, workers, forks, monkeypatch):
        reference = self.sequential(monkeypatch, call)
        assert forks == []
        assert call() == reference
        assert len(forks) == workers
        _assert_no_child()

    def test_forked_fits_raise_no_warning(self, forks):
        # the lower scale corner overflows the squares of this data: the
        # search runs under fit_mle's errstate, and the block split's worker
        # and lr_test's forked lg fit inherit it
        data = np.linspace(-1e150, 1e150, baslg.fit._SPLIT_MIN_N + 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = [fit_mle(family, data) for family in ("sn", "baslg2")]
            assert len(forks) >= 2
            res = lr_test(data)
        for r in fits + [res.null_fit, res.full_fit]:
            assert math.isfinite(r.log_l) and all(map(math.isfinite, r.param_tuple()))
        assert math.isfinite(res.statistic)
        _assert_no_child()

    def test_worker_exception_reaches_caller(self, forks, monkeypatch):
        original = baslg.fit.fit_mle

        def failing(family, *args):
            if family == "lg":  # lr_test fits lg in the worker
                raise DegenerateDataError(f"no {family} today")
            return original(family, *args)

        monkeypatch.setattr(baslg.fit, "fit_mle", failing)
        with pytest.raises(DegenerateDataError, match="^no lg today$"):
            lr_test(galaxies().values, OptimizerConfig(restarts=2))
        assert len(forks) == 1
        _assert_no_child()

    def test_unpicklable_exception_and_silent_exit(self, forks):
        class Local(Exception):
            pass

        def raise_local():
            raise Local("boom")

        def raise_two_part():
            raise _TwoPartError("this", "that")

        with pytest.raises(RuntimeError, match=r"Local\('boom'\)"):
            baslg.fit._in_worker(lambda: 1, raise_local)
        with pytest.raises(RuntimeError, match=r"_TwoPartError\('this and that'\)"):
            baslg.fit._in_worker(lambda: 1, raise_two_part)
        with pytest.raises(RuntimeError, match="wait status 768"):
            baslg.fit._in_worker(lambda: 1, lambda: os._exit(3))
        assert len(forks) == 3
        _assert_no_child()

    def test_interrupted_caller_leaves_no_child(self, forks):
        def interrupted():
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            baslg.fit._in_worker(interrupted, lambda: time.sleep(60))
        assert time.monotonic() - start < 30  # killed, not waited for
        assert len(forks) == 1
        _assert_no_child()

    def test_one_worker_never_nested(self, forks):
        def pids():
            return baslg.fit._in_worker(os.getpid, os.getpid)

        mine, theirs = baslg.fit._in_worker(pids, pids)
        assert mine == (os.getpid(), os.getpid())
        assert theirs[0] == theirs[1] != os.getpid()
        assert len(forks) == 1
        _assert_no_child()

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

    def test_worker_leaves_the_callers_stdio_unflushed(self):
        # stdout to a pipe is block-buffered: a worker that flushed its copy
        # of the buffer at exit would print "pending" a second time
        code = (
            "import sys, baslg.core, baslg.fit\n"
            "baslg.core._WORKERS = 2\n"
            "sys.stdout.write('pending ')\n"
            "print(baslg.fit._in_worker(lambda: 1, lambda: 2))"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr
        assert res.stdout == "pending (1, 2)\n"
