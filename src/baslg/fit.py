"""Maximum-likelihood fitting and model comparison.

The normal and Laplace MLEs have closed forms, (mean, population sd) and
(median, mean absolute deviation from the median), and ``fit_mle`` returns
them after one likelihood evaluation.  The other likelihood surfaces here
are cheap but multimodal in the shape parameter, so each restart runs a
short simulated-annealing walk over the parameter box and hands its best
point to a bounded Nelder-Mead polish.
Restarts are seeded from a Latin-hypercube design plus one moment-matched
start; the fit is flagged converged when the two best restarts agree.

Restarts run in lockstep, in blocks of ``_MIN_RESTARTS_BEFORE_STOP``: each
annealing step, and each step of the polish, evaluates the points of the
whole block in one (R, n) log-density call, since a scalar call at small n
is mostly Python and ufunc overhead.  Row i of a block call equals the
scalar nll bit for bit.  Each restart draws from its own generator in the
same order as it would alone, and the polish is scipy's bounded
Nelder-Mead row for row, so the fit is the one that running the restarts
one by one gives.  The early-stop rule walks the polished rows in order;
restarts a block ran past the stopping point are never returned or counted
in ``restarts_used``, though their evaluations count in ``nfev``.

Scales are optimized on a log grid, which keeps the box symmetric-ish and
makes the positivity constraint unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import FAMILIES, param_space, validate_data

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
_AGREE_TOL = 1e-4
_MIN_RESTARTS_BEFORE_STOP = 8
_LR_CRITICAL_1PCT = 6.635
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
    max_evals_per_restart: int = 20000
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1.")
        if self.max_evals_per_restart < 10 * _SA_STEPS:
            raise ValueError("max_evals_per_restart is too small to be useful.")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1).")
        if self.seed < 0:
            raise ValueError("seed must be >= 0.")


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
    aic = 2.0 * n_params - 2.0 * log_l
    bic = n_params * math.log(n_obs) - 2.0 * log_l
    return aic, bic


def _block_nll_factory(family: str, space, data):
    """nll of each row of an (R, d) block of box points, as a list of floats.

    All rows go through one ``FAMILIES[family].logpdf`` call as (R, 1)
    parameter columns; entry i is ``-sum(logpdf(to_natural(xs[i]), data))``
    bit for bit, or inf where that sum is not finite.
    """
    logpdf = FAMILIES[family].logpdf

    def block_nll(xs) -> list[float]:
        totals = np.sum(logpdf(space.to_natural_columns(xs), data), axis=1).tolist()
        return [-t if math.isfinite(t) else math.inf for t in totals]

    return block_nll


def _anneal(block_nll, x0, space, rngs, budget):
    """Anneal the rows of ``x0`` (R, d) in lockstep; row i draws from ``rngs[i]``.

    Row i draws ``standard_normal(d)`` each step, then ``random()`` only when
    the candidate is no better, exactly as a walk of its own would, so its
    path does not depend on the other rows.
    """
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    width = upper - lower
    decay = (_SA_TEND / _SA_T0) ** (1.0 / _SA_STEPS)
    steps = min(_SA_STEPS, max(budget - 1, 0))

    x = np.clip(np.asarray(x0, float), lower, upper)
    fx = block_nll(x)
    best_x, best_f = x.copy(), list(fx)
    temp = _SA_T0
    for _ in range(steps):
        scale = (0.35 * temp / _SA_T0 + 0.02) * width
        noise = np.array([rng.standard_normal(width.size) for rng in rngs])
        cand = np.clip(x + noise * scale, lower, upper)
        fc = block_nll(cand)
        for i, rng in enumerate(rngs):
            if fc[i] < fx[i] or rng.random() < math.exp(min((fx[i] - fc[i]) / temp, 0.0)):
                x[i], fx[i] = cand[i], fc[i]
                if fx[i] < best_f[i]:
                    best_x[i], best_f[i] = x[i], fx[i]
        temp *= decay
    return best_x, best_f, steps + 1


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``; no fit calls it.

    ``perfbench/tracer.py`` wraps this name when it builds its patch list,
    so it stays until the tracer times ``_polish_block`` instead.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _clip(point, lower, upper) -> list[float]:
    """``np.clip`` of one point.  ``max(lo, v)`` keeps ``lo`` unless ``v > lo``
    and ``min(hi, v)`` keeps ``hi`` unless ``v < hi``: numpy's tie rule, which
    matters only for the sign of a zero."""
    return [min(hi, max(lo, v)) for v, lo, hi in zip(point, lower, upper)]


def _sort_simplices(sims, fsims, rows) -> None:
    """Order the vertices of each of ``rows`` as ``np.argsort`` of their nll.

    ``np.argsort`` is not stable on short arrays, and the order it gives
    tied vertices is the order scipy keeps, so Python's sort cannot stand in.
    """
    order = np.argsort(np.array([fsims[r] for r in rows]), axis=1).tolist()
    for r, ind in zip(rows, order):
        sims[r] = [sims[r][i] for i in ind]
        fsims[r] = [fsims[r][i] for i in ind]


def _polish_block(block_nll, x0, space, budget):
    """Bounded Nelder-Mead from each row of ``x0`` (R, d), all rows in lockstep.

    Row i is ``scipy.optimize.minimize(nll, x0[i], method="Nelder-Mead",
    bounds=..., options={"maxfev": budget, "fatol": 1e-10, "xatol": 1e-10})``
    of scipy 1.17.1, bit for bit: the same initial simplex, vertex order,
    centroid sums, clipped trial points and evaluation budget, in the same
    float operations.  A row whose budget runs out mid-step stores what
    scipy stores, down to a shrink that moved a vertex it could not
    evaluate.  Each iteration makes at most three ``block_nll`` calls: the
    reflections of all active rows, then the expansions and contractions,
    then the shrink points.  The per-row arithmetic is on Python floats:
    d <= 3 here, and numpy calls on such small arrays cost more than the
    nll calls they would feed.

    Returns each row's final simplex, as scipy's ``final_simplex``: the
    vertices (R, d + 1, d) and their nll (R, d + 1), best first, plus the
    number of evaluations each row made.
    """
    lower, upper = space.lower, space.upper
    dim = len(lower)
    sims, fsims = [], []
    for x in np.asarray(x0, float).tolist():
        x = _clip(x, lower, upper)
        sim = [x]
        for k in range(dim):
            y = list(x)
            y[k] = (1 + _NM_NONZDELT) * y[k] if y[k] != 0 else _NM_ZDELT
            sim.append(y)
        # a vertex stepped past an upper bound is reflected into the box
        sims.append([
            _clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)], lower, upper)
            for y in sim
        ])
    rows = range(len(sims))
    first = min(dim + 1, budget)
    vals = iter(block_nll(np.array([y for sim in sims for y in sim[:first]])))
    fsims = [[next(vals) for _ in range(first)] + [math.inf] * (dim + 1 - first) for _ in rows]
    nfev = [first] * len(sims)
    _sort_simplices(sims, fsims, rows)
    _sort_simplices(sims, fsims, rows)

    def converged(sim, fsim):
        best, f0 = sim[0], fsim[0]
        return all(abs(v - b) <= _NM_XATOL for y in sim[1:] for v, b in zip(y, best)) and all(
            abs(f0 - f) <= _NM_FATOL for f in fsim[1:]
        )

    active = [r for r in rows if nfev[r] < budget]
    while True:
        active = [r for r in active if nfev[r] < budget and not converged(sims[r], fsims[r])]
        if not active:
            break
        xbars, xrs = [], []
        for r in active:
            sim = sims[r]
            # np.add.reduce(sim[:-1], 0) / N: from 0.0, vertex by vertex
            # (Python's sum may compensate, numpy's does not)
            xbar = [0.0] * dim
            for y in sim[:-1]:
                xbar = [a + v for a, v in zip(xbar, y)]
            xbar = [a / dim for a in xbar]
            xbars.append(xbar)
            xrs.append(_clip([(1 + _NM_RHO) * c - _NM_RHO * w for c, w in zip(xbar, sim[-1])],
                             lower, upper))
        fxrs = block_nll(np.array(xrs))

        second = []  # (row, step, trial point, reflection, its nll)
        for r, xbar, xr, fxr in zip(active, xbars, xrs, fxrs):
            nfev[r] += 1
            sim, fsim = sims[r], fsims[r]
            worst = sim[-1]
            if fxr < fsim[0]:
                step = "expand"
                trial = [(1 + _NM_RHO * _NM_CHI) * c - _NM_RHO * _NM_CHI * w
                         for c, w in zip(xbar, worst)]
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
                continue
            elif fxr < fsim[-1]:
                step = "outside"
                trial = [(1 + _NM_PSI * _NM_RHO) * c - _NM_PSI * _NM_RHO * w
                         for c, w in zip(xbar, worst)]
            else:
                step = "inside"
                trial = [(1 - _NM_PSI) * c + _NM_PSI * w for c, w in zip(xbar, worst)]
            # a row that spent its budget on the reflection stores nothing
            if nfev[r] < budget:
                second.append((r, step, _clip(trial, lower, upper), xr, fxr))

        shrinking = []
        if second:
            for (r, step, trial, xr, fxr), ft in zip(
                second, block_nll(np.array([item[2] for item in second]))
            ):
                nfev[r] += 1
                sim, fsim = sims[r], fsims[r]
                if step == "expand":
                    sim[-1], fsim[-1] = (trial, ft) if ft < fxr else (xr, fxr)
                elif (ft <= fxr) if step == "outside" else (ft < fsim[-1]):
                    sim[-1], fsim[-1] = trial, ft
                else:
                    shrinking.append(r)

        # vertex j moves before it is evaluated, so a budget spent after m
        # of the shrink points leaves vertex m + 1 moved but not evaluated
        points, slots = [], []
        for r in shrinking:
            sim, left = sims[r], budget - nfev[r]
            best = sim[0]
            for j in range(1, min(dim, left + 1) + 1):
                sim[j] = _clip([b + _NM_SIGMA * (v - b) for b, v in zip(best, sim[j])],
                               lower, upper)
                if j <= left:
                    points.append(sim[j])
                    slots.append((r, j))
        if points:
            for (r, j), f in zip(slots, block_nll(np.array(points))):
                fsims[r][j] = f
                nfev[r] += 1

        _sort_simplices(sims, fsims, active)

    return np.array(sims), np.array(fsims), nfev


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


def fit_mle(family: str, data, config: OptimizerConfig = OptimizerConfig()) -> FitResult:
    """Fit one family by maximum likelihood.

    A family flagged ``exact`` (normal, Laplace) returns its closed-form
    estimate, whatever the config.  The others run the multistart annealing
    search, which ``config`` sets up.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    if float(np.ptp(data)) == 0.0:
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

    results: list[tuple[float, np.ndarray]] = []
    restarts_used = 0
    nfev = 0
    for i in range(config.restarts):
        row = i % _MIN_RESTARTS_BEFORE_STOP
        if row == 0:
            block = range(i, min(i + _MIN_RESTARTS_BEFORE_STOP, config.restarts))
            rngs = [np.random.Generator(np.random.PCG64(seeds[k + 1])) for k in block]
            annealed, _, used = _anneal(
                block_nll, starts[block.start:block.stop], space, rngs,
                config.max_evals_per_restart,
            )
            simplex, fsimplex, polish_nfev = _polish_block(
                block_nll, annealed, space, config.max_evals_per_restart - used
            )
            nfev += len(block) * used + sum(polish_nfev)
        x_best, f_best = simplex[row, 0], float(fsimplex[row, 0])
        restarts_used = i + 1
        if math.isfinite(f_best):
            results.append((f_best, x_best))
        if len(results) >= 2 and restarts_used >= _MIN_RESTARTS_BEFORE_STOP:
            vals = sorted(f for f, _ in results)
            recent = [f for f, _ in results[-5:]]
            if vals[1] - vals[0] < _AGREE_TOL and min(recent) - vals[0] <= config.tolerance:
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
    """
    data = validate_data(data)
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
    rows.sort(key=lambda r: (r.aic, r.bic, r.family))
    return rows
