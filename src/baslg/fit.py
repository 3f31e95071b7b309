"""Maximum-likelihood fitting and model comparison.

The normal and Laplace MLEs have closed forms, (mean, population sd) and
(median, mean absolute deviation from the median), and ``fit_mle`` returns
them after one likelihood evaluation.  The other likelihood surfaces here
are cheap but multimodal in the shape parameter, so each restart runs a
short simulated-annealing walk over the parameter box and hands its best
point to a bounded Nelder-Mead polish.  A restart may evaluate the nll
20,000 times: 241 times in the anneal, the rest in the polish.
Restarts are seeded from a Latin-hypercube design plus one moment-matched
start; the fit is flagged converged when the two best restarts agree.

Restarts run in lockstep, in blocks of ``_MIN_RESTARTS_BEFORE_STOP``, since
a scalar log-density call at small n is mostly Python and ufunc overhead:
each annealing step evaluates the points of the whole block in one (R, n)
call, and so does each round of the polish for the points its unfinished
restarts ask for next.  Row i of a block call equals the scalar nll bit for
bit.  Each restart draws from its own generator in the same order as it
would alone, and its polish is scipy's bounded Nelder-Mead loop, written
once as a generator that yields the points it needs, so the fit is the one
that running the restarts one by one gives.  The early-stop rule walks the
polished rows in order; restarts a block ran past the stopping point are
never returned or counted in ``restarts_used``, though their evaluations
count in ``nfev``.

Searches that do not depend on each other run on both CPUs: ``_in_worker``
runs one call in the caller and the other in a child made with ``os.fork``,
which sends its result back pickled over a pipe.  ``lr_test`` fits baslg2
in the caller and lg in the worker when it is given neither fit;
``compare_models`` fits every other searched family in the worker; and
``_search``, at ``_SPLIT_MIN_N`` or more observations, runs the second half
of each restart block there.  Every search is a deterministic function of
the family, the data and the config, and a block's rows do not depend on
each other, so each fit is the one the caller alone would make, ``nfev``
and ``restarts_used`` included.  Both calls run in the caller, one after
the other, when ``core._WORKERS`` is below 2, when there is no ``os.fork``,
when another thread is alive (a fork copies only the calling thread), and
in a worker or a caller that already has one: there is at most one worker,
and it never forks its own.  A fork, the pipe and ``waitpid`` cost 2.5 to
5.6 ms on a 2-CPU host, and the block split pays only at large n, where a
round of a block is mostly numpy work rather than fixed call overhead: in
12 alternating pairs per family there, splitting won 3 to 8 at n = 82 and
200, where medians moved by -1 to +27 ms (sn 108 -> 135 ms at n = 200),
and 8 to 11 at n = 1000 (sn 241 -> 194 ms) and 10 to 12 at n = 2500 (sn
480 -> 327 ms, aslg 190 -> 113 ms).

A fit at n <= 200 spends most of its time on the fixed cost of thousands
of rounds, so the rounds avoid numpy calls that cost more than they need:
``fit_mle`` sets numpy's error state once for the whole search, not
``block_nll`` once per call, and ``_by_nll`` sorts each simplex as a fresh
array, not through ``np.argsort``'s list dispatch (see their docstrings).

Scales are optimized on a log grid, which keeps the box symmetric-ish and
makes the positivity constraint unconditional.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import islice
from operator import add
from typing import Optional, Sequence

import numpy as np

from . import core
from .models import FAMILIES, _data_range, param_space, validate_data
from .specfn import _is_integer

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "LrTestResult",
    "DegenerateDataError",
    "information_criteria",
    "fit_mle",
    "lr_test",
    "compare_models",
]

_SA_STEPS = 240
_SA_T0 = 4.0
_SA_TEND = 0.02
_MAX_EVALS = 20000  # nll evaluations per restart, the anneal's included
_AGREE_TOL = 1e-4
_STOP_TOL = 1e-9  # how near the best the last five restarts' best must be to stop
_MIN_RESTARTS_BEFORE_STOP = 8
_LR_CRITICAL_1PCT = 6.635
# a search on this many observations or more splits each restart block
# between the caller and a worker (see the module docstring)
_SPLIT_MIN_N = 1000
# os.kill's signal for a worker whose caller raised; os.fork, and so a
# worker, exists only on POSIX systems, where SIGKILL is 9
_SIGKILL = 9
# Nelder-Mead as scipy.optimize runs it by default: reflection, expansion,
# contraction and shrink coefficients, the initial simplex steps, and the
# termination tolerances the polish asks for
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL = _NM_FATOL = 1e-10


class DegenerateDataError(ValueError):
    """Raised when every observation is identical; scale MLEs collapse to 0."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 40
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.restarts) and self.restarts >= 1):
            raise ValueError("restarts must be an integer >= 1.")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0.")


@dataclass(frozen=True)
class FitResult:
    """One maximum-likelihood fit.

    For a search, ``restarts_used`` counts the restarts run up to the early
    stop, ``converged`` says the two best of them agree, and ``nfev`` counts
    every nll point evaluated, in the rows a block ran past the stop too.
    A closed-form fit (normal, Laplace) runs no restarts: ``restarts_used``
    is 0, ``converged`` is True, since the estimate is the maximum itself,
    and ``nfev`` is 1, the one likelihood evaluated at it.  A family whose
    fit raised inside ``compare_models`` has ``error`` set, ``nfev`` 0 and
    no estimates.
    """

    family: str
    params: dict[str, float]
    log_l: float
    aic: float
    bic: float
    n_obs: int
    converged: bool
    restarts_used: int
    error: Optional[str] = None
    nfev: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def param_tuple(self) -> tuple[float, ...]:
        return tuple(self.params[name] for name in FAMILIES[self.family].param_names)


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    critical_value: float
    df: int
    reject_null: bool
    null_fit: FitResult = field(repr=False)
    full_fit: FitResult = field(repr=False)


def information_criteria(log_l: float, n_params: int, n_obs: int) -> tuple[float, float]:
    """AIC and BIC of a fit with ``n_params`` free parameters on ``n_obs`` points."""
    if not (_is_integer(n_params) and n_params >= 0):
        raise ValueError(f"n_params must be an integer >= 0, got {n_params!r}.")
    if not (_is_integer(n_obs) and n_obs >= 1):
        raise ValueError(f"n_obs must be an integer >= 1, got {n_obs!r}.")
    aic = 2.0 * n_params - 2.0 * log_l
    bic = n_params * math.log(n_obs) - 2.0 * log_l
    return aic, bic


def _block_nll_factory(family: str, space, data):
    """nll of each row of an (R, d) block of box points, as a list of floats.

    All rows go through one ``FAMILIES[family].logpdf`` call as (R, 1)
    parameter columns; entry i is ``-sum(logpdf(to_natural(xs[i]), data))``
    bit for bit, or inf where that sum is not finite.

    ``block_nll`` leaves numpy's error state to its caller.  A scale far
    below the data's spread overflows the squares, and the row's nll is inf
    all the same, so ``fit_mle`` runs the whole search, its worker included,
    under ``np.errstate(over="ignore", invalid="ignore")``: entering that
    context costs about 1.5 us, and a search makes 380 to 2,200 block calls.
    """
    logpdf = FAMILIES[family].logpdf

    def block_nll(xs) -> list[float]:
        totals = logpdf(space.to_natural_columns(xs), data).sum(axis=1).tolist()
        return [-t if math.isfinite(t) else math.inf for t in totals]

    return block_nll


def _anneal(block_nll, x0, space, rngs):
    """Anneal the rows of ``x0`` (R, d) in lockstep; row i draws from ``rngs[i]``.

    Row i draws ``standard_normal(d)`` each step, then ``random()`` only when
    the candidate is no better, exactly as a walk of its own would, so its
    path does not depend on the other rows.  Each row evaluates its start
    and ``_SA_STEPS`` candidates.  Returns each row's best point and nll.
    """
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    width = upper - lower
    decay = (_SA_TEND / _SA_T0) ** (1.0 / _SA_STEPS)

    x = np.clip(np.asarray(x0, float), lower, upper)
    fx = block_nll(x)
    best_x, best_f = x.copy(), list(fx)
    # filled in place each step: standard_normal(out=row) draws what
    # standard_normal(d) would
    noise = np.empty_like(x)
    temp = _SA_T0
    for _ in range(_SA_STEPS):
        scale = (0.35 * temp / _SA_T0 + 0.02) * width
        for rng, row in zip(rngs, noise):
            rng.standard_normal(out=row)
        cand = np.clip(x + noise * scale, lower, upper)
        fc = block_nll(cand)
        for i, rng in enumerate(rngs):
            if fc[i] < fx[i] or rng.random() < math.exp(min((fx[i] - fc[i]) / temp, 0.0)):
                x[i], fx[i] = cand[i], fc[i]
                if fx[i] < best_f[i]:
                    best_x[i], best_f[i] = x[i], fx[i]
        temp *= decay
    return best_x, best_f


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``; no fit calls it.

    ``perfbench/tracer.py`` wraps this name when it builds its patch list,
    so it stays until the tracer times ``_polish_block`` instead.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _clip(point, lower, upper) -> list[float]:
    """``np.clip`` of one point: ``lo`` unless ``v > lo``, then ``hi`` unless
    ``v < hi``.  That is numpy's tie rule, which matters only for the sign of
    a zero; written as tests, not ``min(hi, max(lo, v))``, it takes a third
    of the time, and the polish clips every trial point."""
    out = []
    for v, lo, hi in zip(point, lower, upper):
        if not v > lo:
            v = lo
        out.append(v if v < hi else hi)
    return out


def _by_nll(sim, fsim):
    """The vertices of a simplex and their nll, in ``np.argsort(fsim)`` order.

    ``np.argsort`` is not stable on short arrays, and the order it gives
    tied vertices is the order scipy keeps.  The list goes in as a fresh
    array: ``np.argsort`` of a list wraps it through numpy's dispatch, which
    costs about 4.6 us more than the method call on the same array, and a
    ``fit`` benchmark pass sorts about 43,000 simplexes.
    """
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _nelder_mead(x0, lower, upper, budget):
    """Bounded Nelder-Mead from ``x0``, as a generator that asks for its nll.

    This is scipy 1.17.1's ``_minimize_neldermead`` loop with ``bounds``,
    ``maxfev=budget`` and ``fatol = xatol = 1e-10``, in the same float
    operations but on Python floats: numpy calls on d <= 3 coordinates cost
    more than the nll calls they feed.  Where scipy calls the function, it
    yields the list of points it needs (the d + 1 start vertices, one trial
    point or the shrink points) and is sent their nll.  It stops where
    scipy's ``maxfev`` cut stops: a budget spent on a reflection stores
    nothing more, and one spent in a shrink leaves the next vertex moved but
    not evaluated.  Returns scipy's ``final_simplex`` as lists, best first,
    and the number of evaluations.
    """
    dim = len(x0)
    x = _clip(x0, lower, upper)
    sim = [x]
    for k in range(dim):
        y = list(x)
        y[k] = (1 + _NM_NONZDELT) * y[k] if y[k] != 0 else _NM_ZDELT
        sim.append(y)
    # a vertex stepped past an upper bound is reflected into the box
    sim = [_clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)], lower, upper)
           for y in sim]
    nfev = min(dim + 1, budget)
    fsim = (yield sim[:nfev]) + [math.inf] * (dim + 1 - nfev)
    sim, fsim = _by_nll(sim, fsim)  # scipy sorts the start vertices twice
    while True:
        sim, fsim = _by_nll(sim, fsim)
        best, f0 = sim[0], fsim[0]
        if nfev >= budget or (
            all(abs(v - b) <= _NM_XATOL for y in sim[1:] for v, b in zip(y, best))
            and all(abs(f0 - f) <= _NM_FATOL for f in fsim[1:])
        ):
            return sim, fsim, nfev
        # np.add.reduce(sim[:-1], 0) / N: from 0.0, vertex by vertex
        # (Python's sum may compensate, numpy's does not)
        xbar = [reduce(add, col, 0.0) / dim for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = _clip([(1 + _NM_RHO) * c - _NM_RHO * w for c, w in zip(xbar, worst)], lower, upper)
        [fxr] = yield [xr]
        nfev += 1
        expand, outside = fxr < fsim[0], fxr < fsim[-1]
        if expand:
            t = _NM_RHO * _NM_CHI
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
            continue
        else:
            # an inside contraction with t = -psi is scipy's
            # (1 - psi) xbar + psi worst, bit for bit
            t = _NM_PSI * _NM_RHO if outside else -_NM_PSI
        if nfev == budget:  # scipy's maxfev cut: the trial point is not evaluated
            continue
        trial = _clip([(1 + t) * c - t * w for c, w in zip(xbar, worst)], lower, upper)
        [ft] = yield [trial]
        nfev += 1
        if expand:
            sim[-1], fsim[-1] = (trial, ft) if ft < fxr else (xr, fxr)
        elif (ft <= fxr) if outside else (ft < fsim[-1]):
            sim[-1], fsim[-1] = trial, ft
        else:
            # shrink toward the best vertex: scipy moves vertex j before it
            # evaluates it, so a budget spent after m of the shrink points
            # leaves vertex m + 1 moved but not evaluated
            m = min(dim, budget - nfev)
            for j in range(1, min(dim, m + 1) + 1):
                sim[j] = _clip([b + _NM_SIGMA * (v - b) for b, v in zip(best, sim[j])],
                               lower, upper)
            fsim[1:m + 1] = yield sim[1:m + 1]
            nfev += m


def _lockstep(block_nll, runs) -> list:
    """Run the generators ``runs`` together, one ``block_nll`` call per round.

    Each run asks for a list of points at least once.  A round evaluates the
    points of every unfinished run's request in one call (none when no run
    asks for any) and sends each run the nll of its own points.  Returns
    each run's return value, in the order of ``runs``.
    """
    results = [None] * len(runs)
    live = [(i, run, next(run)) for i, run in enumerate(runs)]
    while live:
        points = [x for _, _, ask in live for x in ask]
        vals = iter(block_nll(np.array(points)) if points else ())
        going = []
        for i, run, ask in live:
            try:
                going.append((i, run, run.send(list(islice(vals, len(ask))))))
            except StopIteration as stop:
                results[i] = stop.value
        live = going
    return results


def _polish_block(block_nll, x0, space, budget):
    """Bounded Nelder-Mead from each row of ``x0`` (R, d), the rows in lockstep.

    Row i is ``scipy.optimize.minimize(nll, x0[i], method="Nelder-Mead",
    bounds=..., options={"maxfev": budget, "fatol": 1e-10, "xatol": 1e-10})``
    of scipy 1.17.1 bit for bit: ``_nelder_mead`` runs it, and ``_lockstep``
    evaluates the next points of every unfinished row in one ``block_nll``
    call.  Returns each row's final simplex, as scipy's ``final_simplex``:
    the vertices (R, d + 1, d) and their nll (R, d + 1), best first, plus
    the number of evaluations each row made.
    """
    runs = [_nelder_mead(x, space.lower, space.upper, budget)
            for x in np.asarray(x0, float).tolist()]
    sims, fsims, nfev = zip(*_lockstep(block_nll, runs))
    return np.array(sims), np.array(fsims), list(nfev)


def _lhs_starts(space, n, rng) -> np.ndarray:
    """Latin-hypercube points over the internal box, one row per start."""
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    dim = lower.size
    if n <= 0:
        return np.empty((0, dim))
    pts = np.empty((n, dim))
    for d in range(dim):
        strata = (np.arange(n) + rng.random(n)) / n
        pts[:, d] = lower[d] + rng.permutation(strata) * (upper[d] - lower[d])
    return pts


# True in a worker, and in a caller while its worker runs
_forked = False


def _in_worker(first, second):
    """``(first(), second())``, with ``second()`` run in a forked worker.

    The worker sends back its result, or the exception it raised, pickled
    over a pipe, and the exception is raised here with its type and
    message.  Both calls run here, one after the other, in the cases the
    module docstring lists and when the fork itself fails.  If ``first()``
    raises, the worker is killed; it is always reaped before this returns
    or raises.
    """
    global _forked
    if _forked or core._WORKERS < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return first(), second()
    if pid == 0:
        # the worker: whatever happens, it leaves here, never returning into
        # the caller's code or flushing the stdio buffers it copied
        code = 1
        try:
            _forked = True
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_outcome(second))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    _forked = True
    try:
        with open(read_fd, "rb") as pipe:
            mine = first()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, _SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
        _forked = False
    if status != 0:
        raise RuntimeError(f"the fit worker ended without a result (wait status {status}).")
    ok, theirs = pickle.loads(payload)
    if not ok:
        raise theirs
    return mine, theirs


def _outcome(call) -> bytes:
    """``(True, call())`` pickled, or ``(False, exc)`` for the exception it raised.

    An exception that does not survive a pickle round trip is sent as a
    RuntimeError carrying its repr.
    """
    try:
        return pickle.dumps((True, call()))
    except BaseException as exc:
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps((False, RuntimeError(repr(exc))))
        return payload


def fit_mle(family: str, data, config: OptimizerConfig = OptimizerConfig()) -> FitResult:
    """Fit one family by maximum likelihood.

    A family flagged ``exact`` (normal, Laplace) returns its closed-form
    estimate, whatever the config.  The others run the multistart annealing
    search, which ``config`` sets up.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    if _data_range(data) == 0.0:
        raise DegenerateDataError(
            "all observations are identical; location-scale likelihoods are unbounded."
        )

    info = FAMILIES[family]
    if info.exact:
        params = info.start(data)
        log_l = info.log_likelihood(params, data)
        if not math.isfinite(log_l):
            raise RuntimeError(f"the closed-form {family!r} fit has no finite likelihood.")
        converged, restarts_used, nfev = True, 0, 1
    else:
        with _row_buffers(data.size), np.errstate(over="ignore", invalid="ignore"):
            params, log_l, converged, restarts_used, nfev = _search(family, data, config)

    aic, bic = information_criteria(log_l, info.n_params, data.size)
    return FitResult(
        family=family,
        params=dict(zip(info.param_names, params)),
        log_l=log_l,
        aic=aic,
        bic=bic,
        n_obs=int(data.size),
        converged=converged,
        restarts_used=restarts_used,
        nfev=nfev,
    )


@contextmanager
def _row_buffers(n: int):
    """Run the ``with`` block with numpy's ufunc buffer no longer than a row of n.

    An op between an (R, n) pass and an (R, 1) parameter column, such as
    (y - mu) / beta, gets its column copied into the iterator's buffer
    whenever a row is shorter than that buffer (8192 elements by default),
    which at n = 2500 makes the op three times as slow as one between two
    (R, n) arrays.  With a buffer of at most n elements each row runs in
    place.  Chunking never changes an element's value, or a sum of a
    contiguous row, so the fit keeps its bits.
    """
    old = np.getbufsize()
    np.setbufsize(max(16, min(n, old) // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(old)


def _search(family: str, data: np.ndarray, config: OptimizerConfig):
    """Multistart annealing and polish: the natural parameters of the best
    restart, its log-likelihood, ``converged``, ``restarts_used`` and ``nfev``."""
    info = FAMILIES[family]
    space = param_space(family, data)
    block_nll = _block_nll_factory(family, space, data)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts + 1)
    lhs_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    random_starts = _lhs_starts(space, config.restarts - 1, lhs_rng)
    starts = np.vstack([space.to_internal(info.start(data)), random_starts])

    def run(block):
        rngs = [np.random.Generator(np.random.PCG64(seeds[k + 1])) for k in block]
        annealed, _ = _anneal(block_nll, starts[block.start:block.stop], space, rngs)
        return _polish_block(block_nll, annealed, space, _MAX_EVALS - _SA_STEPS - 1)

    results: list[tuple[float, np.ndarray]] = []
    restarts_used = 0
    nfev = 0
    for i in range(config.restarts):
        row = i % _MIN_RESTARTS_BEFORE_STOP
        if row == 0:
            block = range(i, min(i + _MIN_RESTARTS_BEFORE_STOP, config.restarts))
            if data.size >= _SPLIT_MIN_N and len(block) > 1:
                mid = (len(block) + 1) // 2
                head, tail = _in_worker(partial(run, block[:mid]), partial(run, block[mid:]))
                simplex, fsimplex = (np.concatenate(pair) for pair in zip(head[:2], tail[:2]))
                polish_nfev = head[2] + tail[2]
            else:
                simplex, fsimplex, polish_nfev = run(block)
            nfev += len(block) * (_SA_STEPS + 1) + sum(polish_nfev)
        x_best, f_best = simplex[row, 0], float(fsimplex[row, 0])
        restarts_used = i + 1
        if math.isfinite(f_best):
            results.append((f_best, x_best))
        if len(results) >= 2 and restarts_used >= _MIN_RESTARTS_BEFORE_STOP:
            vals = sorted(f for f, _ in results)
            recent = [f for f, _ in results[-5:]]
            if vals[1] - vals[0] < _AGREE_TOL and min(recent) - vals[0] <= _STOP_TOL:
                break

    if not results:
        raise RuntimeError(f"no restart produced a finite likelihood for family {family!r}.")

    results.sort(key=lambda item: item[0])
    best_f, best_x = results[0]
    if len(results) >= 2:
        converged = results[1][0] - best_f < _AGREE_TOL
    else:
        converged = config.restarts == 1

    return space.to_natural(best_x), -best_f, converged, restarts_used, nfev


def _reused_fit(fit: Optional[FitResult], family: str, data, config) -> FitResult:
    if fit is None:
        return fit_mle(family, data, config)
    if fit.family != family:
        raise ValueError(f"expected a {family!r} fit, got {fit.family!r}.")
    if not fit.ok:
        raise ValueError(f"the {family!r} fit passed in failed: {fit.error}")
    if fit.n_obs != data.size:
        raise ValueError(f"{family!r} fit has n_obs {fit.n_obs}, but the data has {data.size}.")
    return fit


def lr_test(
    data,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    null_fit: Optional[FitResult] = None,
    full_fit: Optional[FitResult] = None,
) -> LrTestResult:
    """Likelihood-ratio test of logistic (alpha = 0) against BASLG2 at the 1% level.

    ``null_fit`` (lg) and ``full_fit`` (baslg2) may pass in fits already made
    on the same data, e.g. rows of :func:`compare_models`; only missing ones
    are fitted here.  Fits are deterministic for a given data and config, so
    reusing them changes nothing.
    """
    data = validate_data(data)
    if null_fit is None and full_fit is None:
        full_fit, null_fit = _in_worker(partial(fit_mle, "baslg2", data, config),
                                        partial(fit_mle, "lg", data, config))
    null_fit = _reused_fit(null_fit, "lg", data, config)
    full_fit = _reused_fit(full_fit, "baslg2", data, config)
    statistic = max(0.0, 2.0 * (full_fit.log_l - null_fit.log_l))
    return LrTestResult(
        statistic=statistic,
        critical_value=_LR_CRITICAL_1PCT,
        df=1,
        reject_null=statistic > _LR_CRITICAL_1PCT,
        null_fit=null_fit,
        full_fit=full_fit,
    )


def compare_models(
    data,
    families: Sequence[str] = ("n", "lg", "la", "sn", "aslg", "baslg2"),
    config: OptimizerConfig = OptimizerConfig(),
) -> list[FitResult]:
    """Fit several families on the same data and sort by AIC.

    Families whose fit raises are kept in the table with an error message
    and infinite criteria so a single bad family cannot sink the run.
    Every other searched family is fitted in a worker (see ``_in_worker``).
    """
    data = validate_data(data)
    families = list(families)
    searched = [i for i, f in enumerate(families) if f in FAMILIES and not FAMILIES[f].exact]
    theirs = searched[1::2]
    if theirs:
        mine = [f for i, f in enumerate(families) if i not in theirs]
        rows, more = _in_worker(partial(_fit_rows, mine, data, config),
                                partial(_fit_rows, [families[i] for i in theirs], data, config))
        rows += more
    else:
        rows = _fit_rows(families, data, config)
    rows.sort(key=lambda r: (r.aic, r.bic, r.family))
    return rows


def _fit_rows(families, data: np.ndarray, config: OptimizerConfig) -> list[FitResult]:
    """``fit_mle`` of each family; one whose fit raises gets a row that reports it."""
    rows: list[FitResult] = []
    for family in families:
        try:
            rows.append(fit_mle(family, data, config))
        except Exception as exc:  # noqa: BLE001 - reported in-row by design
            rows.append(
                FitResult(
                    family=family,
                    params={},
                    log_l=-math.inf,
                    aic=math.inf,
                    bic=math.inf,
                    n_obs=int(data.size),
                    converged=False,
                    restarts_used=0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
