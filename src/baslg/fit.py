"""Maximum-likelihood fitting and model comparison.

The likelihood surfaces here are cheap but multimodal in the shape
parameter, so each restart runs a short simulated-annealing walk over the
parameter box and hands its best point to a bounded Nelder-Mead polish.
Restarts are seeded from a Latin-hypercube design plus one moment-matched
start; the fit is flagged converged when the two best restarts agree.

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


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict[str, float]
    log_l: float
    aic: float
    bic: float
    n_obs: int
    converged: bool
    restarts_used: int
    error: Optional[str] = None

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


def _nll_factory(family: str, space, data):
    logpdf = FAMILIES[family].logpdf

    def nll(x) -> float:
        params = space.to_natural(np.clip(x, space.lower, space.upper))
        vals = logpdf(params, data)
        total = float(np.sum(vals))
        if not math.isfinite(total):
            return math.inf
        return -total

    return nll


def _anneal(nll, x0, space, rng, budget):
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    width = upper - lower
    decay = (_SA_TEND / _SA_T0) ** (1.0 / _SA_STEPS)
    steps = min(_SA_STEPS, max(budget - 1, 0))

    x = np.clip(np.asarray(x0, float), lower, upper)
    fx = nll(x)
    best_x, best_f = x.copy(), fx
    temp = _SA_T0
    for _ in range(steps):
        scale = (0.35 * temp / _SA_T0 + 0.02) * width
        cand = np.clip(x + rng.standard_normal(x.size) * scale, lower, upper)
        fc = nll(cand)
        if fc < fx or rng.random() < math.exp(min((fx - fc) / temp, 0.0)):
            x, fx = cand, fc
            if fx < best_f:
                best_x, best_f = x.copy(), fx
        temp *= decay
    return best_x, best_f, steps + 1


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first polish.

    Commands that never fit skip the scipy.optimize import.  ``_polish``
    looks this name up at call time, so patching ``baslg.fit.minimize``
    sees every polish.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _polish(nll, x0, space, budget):
    if budget < 2:
        return np.asarray(x0, float), nll(x0)
    bounds = list(zip(space.lower, space.upper))
    res = minimize(
        nll,
        np.asarray(x0, float),
        method="Nelder-Mead",
        bounds=bounds,
        options={"maxfev": budget, "fatol": 1e-10, "xatol": 1e-10},
    )
    return np.asarray(res.x, float), float(res.fun)


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
    """Fit one family by maximum likelihood with multistart annealing."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    if float(np.ptp(data)) == 0.0:
        raise DegenerateDataError(
            "all observations are identical; location-scale likelihoods are unbounded."
        )

    info = FAMILIES[family]
    space = param_space(family, data)
    nll = _nll_factory(family, space, data)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts + 1)
    lhs_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    random_starts = _lhs_starts(space, config.restarts - 1, lhs_rng)

    mom_start = space.to_internal(info.start(data))
    results: list[tuple[float, np.ndarray]] = []
    restarts_used = 0
    for i in range(config.restarts):
        rng = np.random.Generator(np.random.PCG64(seeds[i + 1]))
        x0 = mom_start if i == 0 else random_starts[i - 1]
        x_sa, _, used = _anneal(nll, x0, space, rng, config.max_evals_per_restart)
        x_best, f_best = _polish(nll, x_sa, space, config.max_evals_per_restart - used)
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

    params = space.to_natural(best_x)
    log_l = -best_f
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
    )


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
