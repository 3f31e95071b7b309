"""Location-scale likelihood layer: BASLG2 plus the five reference families.

Family codes follow the CLI vocabulary:

    n       normal(mu, sigma)
    lg      logistic(mu, beta)
    la      Laplace(mu, beta)
    sn      Azzalini skew-normal(lambda, mu, sigma)
    aslg    alpha-skew-logistic(alpha, mu, beta), linear skewing polynomial
    baslg2  squared-polynomial skew-logistic(alpha, mu, beta)

Shape parameter first, then location, then scale, so the two-parameter
families are just (mu, scale).  All log-densities are written directly in
log space.  The three logistic families share one log-kernel,
log g(x) = -|x| - 2 log1p(e^-|x|), which stays finite for any standardised
residual and within 1 ulp of the exact value.

Each log-density takes every parameter either as a float or as an (R, 1)
column, so one call can evaluate R parameter points at once (an (R, n)
result for n data).  Every term, per-row ones included, goes through the
same numpy ufuncs in both cases, and a ufunc gives an element the same bits
whatever array it sits in, so row i of such a call equals the call at the
floats of row i bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import StandardBaslg, _check_alpha, _constant, _skew_coeffs
from .sampler import SamplerConfig, sample

__all__ = [
    "LocScaleModel",
    "CompetitorModel",
    "ParamSpace",
    "FAMILIES",
    "FamilyInfo",
    "validate_data",
]

_PI = math.pi
# log sqrt(2 pi), rounded as scipy.stats.norm rounds it, so the skew-normal
# log-density matches norm.logpdf + norm.logcdf bit for bit.
_NORM_LOGC = np.log(np.sqrt(2 * np.pi))


def validate_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("data must be nonempty.")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must contain only finite values.")
    return arr


def _std_logistic_logpdf(x: np.ndarray) -> np.ndarray:
    neg_abs = -np.abs(x)
    return neg_abs - 2.0 * np.log1p(np.exp(neg_abs))


def _log_skew_constant(alpha):
    """log C(alpha) of BASLG2 from the core's coefficients, for a float or a column.

    A float alpha goes in as a 0-d array, so that its powers are numpy's, as
    a column's are: Python's float power can differ from them by an ulp.
    """
    return np.log(_constant(_skew_coeffs(np.asarray(alpha, float))))


# ---------------------------------------------------------------------------
# per-family log densities, params ordered (shape..., mu, scale)
# ---------------------------------------------------------------------------

def _logpdf_n(params, y):
    mu, sigma = params
    x = (y - mu) / sigma
    return -0.5 * x * x - np.log(sigma) - 0.5 * math.log(2.0 * _PI)


def _logpdf_lg(params, y):
    mu, beta = params
    x = (y - mu) / beta
    return _std_logistic_logpdf(x) - np.log(beta)


def _logpdf_la(params, y):
    mu, beta = params
    return -np.abs(y - mu) / beta - np.log(2.0 * beta)


# scipy.special.log_ndtr, bound on the first skew-normal call: scipy.special is
# most of a cold import, and only this family needs it.
log_ndtr = None


def _logpdf_sn(params, y):
    global log_ndtr
    if log_ndtr is None:
        from scipy.special import log_ndtr
    lam, mu, sigma = params
    x = (y - mu) / sigma
    return math.log(2.0) + (-x**2 / 2.0 - _NORM_LOGC) + log_ndtr(lam * x) - np.log(sigma)


def _logpdf_aslg(params, y):
    alpha, mu, beta = params
    x = (y - mu) / beta
    w = 1.0 - alpha * x
    const = 2.0 + _PI**2 * alpha * alpha / 3.0
    return np.log1p(w * w) + _std_logistic_logpdf(x) - np.log(beta) - np.log(const)


def _logpdf_baslg2(params, y):
    alpha, mu, beta = params
    x = (y - mu) / beta
    w = 1.0 - alpha * x
    return (
        2.0 * np.log1p(w * w)
        + _std_logistic_logpdf(x)
        - np.log(beta)
        - _log_skew_constant(alpha)
    )


# ---------------------------------------------------------------------------
# moment-matched starting points
# ---------------------------------------------------------------------------

def _spread(data: np.ndarray) -> float:
    s = float(np.std(data))
    return s if s > 0.0 else 1e-6


def _start_n(data):
    return (float(np.mean(data)), _spread(data))


def _start_lg(data):
    return (float(np.mean(data)), _spread(data) * math.sqrt(3.0) / _PI)


def _start_la(data):
    med = float(np.median(data))
    mad = float(np.mean(np.abs(data - med)))
    return (med, mad if mad > 0.0 else 1e-6)


def _start_sn(data):
    mean = float(np.mean(data))
    sd = _spread(data)
    x = (data - mean) / sd
    g1 = float(np.mean(x**3))
    g1 = float(np.clip(g1, -0.98, 0.98))
    t = abs(g1) ** (2.0 / 3.0)
    delta2 = 0.5 * _PI * t / (t + ((4.0 - _PI) / 2.0) ** (2.0 / 3.0))
    delta2 = min(delta2, 0.98)
    delta = math.copysign(math.sqrt(delta2), g1)
    lam = delta / math.sqrt(1.0 - delta * delta)
    sigma = sd / math.sqrt(max(1.0 - 2.0 * delta * delta / _PI, 0.05))
    mu = mean - sigma * delta * math.sqrt(2.0 / _PI)
    return (float(np.clip(lam, -20.0, 20.0)), mu, sigma)


def _start_shape_logistic(data):
    mu, beta = _start_lg(data)
    return (0.0, mu, beta)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInfo:
    name: str
    label: str
    param_names: tuple[str, ...]
    logpdf: Callable[[tuple, np.ndarray], np.ndarray]
    start: Callable[[np.ndarray], tuple]

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def log_likelihood(self, params, data) -> float:
        data = validate_data(data)
        self.validate_params(params)
        return float(np.sum(self.logpdf(tuple(map(float, params)), data)))

    def validate_params(self, params):
        if len(params) != self.n_params:
            raise ValueError(
                f"family {self.name!r} takes {self.n_params} parameters "
                f"{self.param_names}, got {len(params)}."
            )
        vals = [float(v) for v in params]
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite.")
        if vals[-1] <= 0.0:
            raise ValueError("scale parameter must be > 0.")
        if self.param_names[0] == "alpha":
            _check_alpha(vals[0])
        return vals


FAMILIES: dict[str, FamilyInfo] = {
    "n": FamilyInfo("n", "normal", ("mu", "sigma"), _logpdf_n, _start_n),
    "lg": FamilyInfo("lg", "logistic", ("mu", "beta"), _logpdf_lg, _start_lg),
    "la": FamilyInfo("la", "laplace", ("mu", "beta"), _logpdf_la, _start_la),
    "sn": FamilyInfo("sn", "skew-normal", ("lambda", "mu", "sigma"), _logpdf_sn, _start_sn),
    "aslg": FamilyInfo(
        "aslg", "alpha-skew-logistic", ("alpha", "mu", "beta"), _logpdf_aslg, _start_shape_logistic
    ),
    "baslg2": FamilyInfo(
        "baslg2",
        "balakrishnan-alpha-skew-logistic",
        ("alpha", "mu", "beta"),
        _logpdf_baslg2,
        _start_shape_logistic,
    ),
}


# ---------------------------------------------------------------------------
# parameter boxes for the optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpace:
    """Box constraints in internal coordinates (scales are log-transformed)."""

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    log_scale: tuple[bool, ...]

    def to_natural(self, x) -> tuple[float, ...]:
        return tuple(
            float(np.exp(v)) if is_log else float(v) for v, is_log in zip(x, self.log_scale)
        )

    def to_natural_columns(self, xs) -> tuple[np.ndarray, ...]:
        """Natural parameters of the rows of ``xs`` (R, d), one (R, 1) column each.

        Row i holds ``to_natural(xs[i])`` exactly: log-scales go through
        ``np.exp``, which ``to_natural`` also calls.
        """
        cols = np.asarray(xs, float).T[:, :, None]
        return tuple(np.exp(col) if is_log else col for col, is_log in zip(cols, self.log_scale))

    def to_internal(self, params) -> np.ndarray:
        vals = [
            math.log(v) if is_log else float(v)
            for v, is_log in zip(params, self.log_scale)
        ]
        return np.clip(np.asarray(vals), self.lower, self.upper)


def param_space(family: str, data) -> ParamSpace:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    spread = float(np.max(data) - np.min(data))
    spread = spread if spread > 0.0 else 1.0
    lo_mu = float(np.min(data)) - 3.0 * spread
    hi_mu = float(np.max(data)) + 3.0 * spread
    lo_scale = math.log(1e-8)
    hi_scale = math.log(3.0 * spread)
    names = FAMILIES[family].param_names
    lower, upper, log_scale = [], [], []
    for name in names:
        if name in ("alpha", "lambda"):
            lower.append(-50.0)
            upper.append(50.0)
            log_scale.append(False)
        elif name == "mu":
            lower.append(lo_mu)
            upper.append(hi_mu)
            log_scale.append(False)
        else:
            lower.append(lo_scale)
            upper.append(hi_scale)
            log_scale.append(True)
    return ParamSpace(names, tuple(lower), tuple(upper), tuple(log_scale))


# ---------------------------------------------------------------------------
# user-facing model objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocScaleModel:
    """BASLG2(alpha) shifted by mu and scaled by beta > 0."""

    alpha: float
    mu: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        vals = FAMILIES["baslg2"].validate_params((self.alpha, self.mu, self.beta))
        object.__setattr__(self, "alpha", vals[0])
        object.__setattr__(self, "mu", vals[1])
        object.__setattr__(self, "beta", vals[2])

    def standard(self) -> StandardBaslg:
        return StandardBaslg(self.alpha)

    def params(self) -> tuple[float, float, float]:
        return (self.alpha, self.mu, self.beta)

    def pdf(self, y):
        return self.standard().pdf((np.asarray(y, float) - self.mu) / self.beta) / self.beta

    def cdf(self, y):
        return self.standard().cdf((np.asarray(y, float) - self.mu) / self.beta)

    def sf(self, y):
        return self.standard().sf((np.asarray(y, float) - self.mu) / self.beta)

    def logpdf(self, y):
        return _logpdf_baslg2(self.params(), np.asarray(y, float))

    def log_likelihood(self, data) -> float:
        return FAMILIES["baslg2"].log_likelihood(self.params(), data)

    def sample(self, n, cfg: SamplerConfig = SamplerConfig()) -> np.ndarray:
        return self.mu + self.beta * sample(self.standard(), n, cfg)


@dataclass(frozen=True)
class CompetitorModel:
    """One of the reference families at fixed parameters."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES or self.family == "baslg2":
            raise ValueError(
                f"competitor family must be one of "
                f"{sorted(set(FAMILIES) - {'baslg2'})}, got {self.family!r}."
            )
        vals = FAMILIES[self.family].validate_params(self.params)
        object.__setattr__(self, "params", tuple(vals))

    def logpdf(self, y):
        return FAMILIES[self.family].logpdf(self.params, np.asarray(y, float))

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def log_likelihood(self, data) -> float:
        return FAMILIES[self.family].log_likelihood(self.params, data)
