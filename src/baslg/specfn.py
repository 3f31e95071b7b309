"""Special-function kernels used by the closed-form distribution formulas.

Only three pieces are needed: polylogarithms of orders 2..4 restricted to the
nonpositive real axis, the Riemann zeta function at integer arguments, and
exact factorial values of the gamma function.  Zeta comes from scipy.special;
the other two are small enough to implement directly, which keeps the
polylogarithm vectorised.

The polylogarithm is split into three regions by the magnitude of
mu = log(-x):

* ``x in (-1/e, 0]``: the defining power series in x.
* ``x in (-e, -1/e)``: the expansion of Li_n(-e^mu) in powers of mu whose
  coefficients are Dirichlet eta values, valid for |mu| < pi.  This covers
  the neighbourhood of x = -1 where the power series stalls.
* ``x <= -e``: the inversion formula relating Li_n(-e^mu) to Li_n(-e^-mu)
  plus a polynomial in mu, which never has to form e^mu and therefore works
  for arguments as large as -1e300.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import bernoulli, zeta as scipy_zeta

__all__ = ["polylog", "polylog_neg_exp", "zeta", "gamma_int"]

_ORDERS = (2, 3, 4)
_SERIES_TERMS = 48
_ETA_TERMS = 72
_BERNOULLI = bernoulli(_ETA_TERMS + 8)


def _check_order(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("polylog order must be an integer.")
    if n not in _ORDERS:
        raise ValueError(f"polylog order must be one of {_ORDERS}, got {n}.")
    return int(n)


def zeta(s) -> float:
    """Riemann zeta at an integer argument s >= 2 (``scipy.special.zeta``)."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError("zeta argument must be an integer.")
    s = int(s)
    if s < 2:
        raise ValueError(f"zeta argument must be >= 2, got {s}.")
    return float(scipy_zeta(s))


def gamma_int(k) -> float:
    """Gamma(k) = (k-1)! exactly, for integer 1 <= k <= 20."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("gamma_int argument must be an integer.")
    k = int(k)
    if not 1 <= k <= 20:
        raise ValueError(f"gamma_int argument must be in [1, 20], got {k}.")
    return float(math.factorial(k - 1))


def _eta(s: int) -> float:
    """Dirichlet eta at any integer argument (entire function)."""
    if s > 1:
        return (1.0 - 2.0 ** (1 - s)) * zeta(s)
    if s == 1:
        return math.log(2.0)
    if s == 0:
        return 0.5
    m = -s
    if m % 2 == 0:
        return 0.0
    return (2.0 ** (m + 1) - 1.0) * float(_BERNOULLI[m + 1]) / (m + 1)


@lru_cache(maxsize=None)
def _series_coeffs(n: int) -> np.ndarray:
    # Li_n(x) = sum_k x^k / k^n, stored highest order first for Horner.
    k = np.arange(_SERIES_TERMS, 0, -1, dtype=float)
    return k ** (-float(n))


@lru_cache(maxsize=None)
def _eta_coeffs(n: int) -> np.ndarray:
    # Li_n(-e^mu) = -sum_k eta(n - k) mu^k / k!, |mu| < pi.
    c = np.array([-_eta(n - k) / math.factorial(k) for k in range(_ETA_TERMS)])
    return c[::-1]


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _li_series(n: int, x: np.ndarray) -> np.ndarray:
    return _horner(_series_coeffs(n), x) * x


def _li_eta(n: int, mu: np.ndarray) -> np.ndarray:
    return _horner(_eta_coeffs(n), mu)


def _li_inversion(n: int, mu: np.ndarray) -> np.ndarray:
    poly = np.zeros_like(mu)
    for k in range(n // 2 + 1):
        poly += _eta(2 * k) * mu ** (n - 2 * k) / math.factorial(n - 2 * k)
    reflected = _li_series(n, -np.exp(-mu))
    return -((-1.0) ** n) * reflected - 2.0 * poly


def polylog_neg_exp(n, z):
    """Li_n(-e^z) for real z, evaluated without ever forming e^z.

    This is the shape in which the polylogarithm enters every distribution
    function here, so exposing it directly avoids overflow for large z.
    Accepts scalars or arrays; z = -inf maps to Li_n(0) = 0.
    """
    n = _check_order(n)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(float)
    if np.any(np.isnan(z)) or np.any(z == np.inf):
        raise ValueError("polylog_neg_exp requires z < +inf and not NaN.")
    out = np.empty_like(z)
    low = z <= -1.0
    mid = (z > -1.0) & (z < 1.0)
    high = z >= 1.0
    if low.any():
        out[low] = _li_series(n, -np.exp(z[low]))
    if mid.any():
        out[mid] = _li_eta(n, z[mid])
    if high.any():
        out[high] = _li_inversion(n, z[high])
    return float(out[0]) if scalar else out


def polylog(n, x):
    """Real polylogarithm Li_n(x) of order n in {2, 3, 4} for x <= 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if np.any(np.isnan(x)) or np.any(x > 0.0) or np.any(x == -np.inf):
        raise ValueError("polylog argument must be a finite real <= 0.")
    with np.errstate(divide="ignore"):
        z = np.where(x < 0.0, np.log(-x), -np.inf)
    out = polylog_neg_exp(n, z)
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out
