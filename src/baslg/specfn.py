"""Special-function kernels used by the closed-form distribution formulas.

Only three pieces are needed: polylogarithms of orders 2..4 restricted to the
nonpositive real axis, the Riemann zeta function at integer arguments, and
exact factorial values of the gamma function.  All three are implemented
here on numpy alone: zeta is a table of correctly rounded doubles, and the
Dirichlet eta values at negative integers come from exact integer
arithmetic, so importing this module loads no scipy.

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

__all__ = ["polylog", "polylog_neg_exp", "zeta", "gamma_int"]

_ORDERS = (2, 3, 4)
_SERIES_TERMS = 48
_ETA_TERMS = 72

# zeta(2), zeta(3), ..., zeta(53), each the double nearest the exact value
# (generated with mpmath at 40 digits).  From s = 54 on, zeta(s) - 1 is below
# 2^-53, half an ulp of 1.0, so zeta(s) rounds to 1.0.
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
    1.0000000000002274, 1.0000000000001137, 1.0000000000000568, 1.0000000000000284,
    1.0000000000000142, 1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002, 1.0000000000000002,
)


def _check_order(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("polylog order must be an integer.")
    if n not in _ORDERS:
        raise ValueError(f"polylog order must be one of {_ORDERS}, got {n}.")
    return int(n)


def zeta(s) -> float:
    """Riemann zeta at an integer argument s >= 2, correctly rounded."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError("zeta argument must be an integer.")
    s = int(s)
    if s < 2:
        raise ValueError(f"zeta argument must be >= 2, got {s}.")
    return _ZETA[s - 2] if s - 2 < len(_ZETA) else 1.0


def gamma_int(k) -> float:
    """Gamma(k) = (k-1)! exactly, for integer 1 <= k <= 20."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("gamma_int argument must be an integer.")
    k = int(k)
    if not 1 <= k <= 20:
        raise ValueError(f"gamma_int argument must be in [1, 20], got {k}.")
    return float(math.factorial(k - 1))


def _eta(s: int) -> float:
    """Dirichlet eta at an integer argument s >= 0."""
    if s > 1:
        return (1.0 - 2.0 ** (1 - s)) * zeta(s)
    return math.log(2.0) if s == 1 else 0.5


def _eta_negative(count: int) -> list[float]:
    """eta(-1), eta(-2), ..., eta(-count), each correctly rounded.

    eta(-m) = (2^(m+1) - 1) B_(m+1) / (m+1) vanishes for even m > 0.  For
    m = 2k - 1 the Bernoulli number is a tangent number in disguise,
    eta(1 - 2k) = (-1)^(k-1) T_(2k-1) / 4^k, and the tangent numbers are
    integers that the Knuth-Buckholtz recurrence gives exactly; the one
    rounding is the final int-to-float conversion.
    """
    half = (count + 1) // 2
    t = [0, 1] + [0] * (half - 1)  # t[k] = T_(2k-1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = []
    for m in range(1, count + 1):
        k = (m + 1) // 2
        out.append(math.ldexp((-1) ** (k - 1) * t[k], -2 * k) if m % 2 else 0.0)
    return out


@lru_cache(maxsize=None)
def _series_coeffs(n: int) -> np.ndarray:
    # Li_n(x) = sum_k x^k / k^n, stored highest order first for Horner.
    k = np.arange(_SERIES_TERMS, 0, -1, dtype=float)
    return k ** (-float(n))


@lru_cache(maxsize=None)
def _eta_coeffs(n: int) -> np.ndarray:
    # Li_n(-e^mu) = -sum_k eta(n - k) mu^k / k!, |mu| < pi.
    eta = [_eta(n - k) for k in range(n + 1)] + _eta_negative(_ETA_TERMS - 1 - n)
    c = np.array([-e / math.factorial(k) for k, e in enumerate(eta)])
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
