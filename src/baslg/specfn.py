"""Special-function kernels used by the closed-form distribution formulas.

Only two pieces are needed: polylogarithms of orders 2..4 restricted to the
nonpositive real axis, and the Riemann zeta function at integer arguments.
Both are implemented here on numpy alone: zeta is a table of correctly
rounded doubles, and the Dirichlet eta values at negative integers come from
exact integer arithmetic, so importing this module loads no scipy.

``polylog_neg_exp(n, z)`` gives Li_n(-e^z).  One kernel serves every order:
given a tuple of orders it returns one row per order from a single pass that
shares the region split, the one ``exp`` and the partition of the points.
The kernel takes points z < 1:

* ``-1 < z < 1``: the expansion of Li_n(-e^z) in powers of z whose
  coefficients are Dirichlet eta values, valid for |z| < pi.  It covers the
  neighbourhood of x = -1 where the power series stalls.  For |z| <= 1 the
  terms from z^30 on (z^27 for n = 3, z^26 for n = 4) sum to less than
  2^-54 |Li_n|, and 32 terms are kept.
* ``z <= -1``: the power series sum_k x^k / k^n at x = -e^z, cut by bands.
  The band z <= -b keeps K terms with e^(-b K) < 2^-53, which bounds the
  first term left out relative to the sum: (b, K) = (1, 38), (2, 19),
  (4, 10), (8, 5), (16, 3), (37, 1).  Against 40-digit mpmath the cut costs
  at most 2.2e-17 relative at a band's lower edge.

A stable sort on the band key puts the series bands in order of falling
term count, with the eta region last.  The six bands share one coefficient
table, so one Horner sweep of 38 steps serves them all: the points that keep
the term x^j are a prefix of the sorted block, and each point joins the sum
at 0 x + c_(K-1), exactly c_(K-1), so it gets the bits of a Horner over its
band alone.  One scatter per order puts the rows back in the caller's order.
``_li_point`` runs the same steps for one point on Python floats, with
numpy's exponential, and skips the partition.

At z >= 1, ``polylog_neg_exp`` runs the kernel at -z and applies the
inversion formula relating Li_n(-e^z) to Li_n(-e^-z) plus a polynomial in z
(D. C. Wood, The Computation of Polylogarithms, 1992), which never forms e^z
and so works for z as large as 1e300.  The distribution functions call the
polylog at -|z| only, so they never reach the inversion.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["polylog", "polylog_neg_exp", "zeta"]

_ORDERS = (2, 3, 4)

# (b, K): the power series keeps K terms where z <= -b, most terms first.
_BANDS = ((1.0, 38), (2.0, 19), (4.0, 10), (8.0, 5), (16.0, 3), (37.0, 1))
_FLOOR = int(_BANDS[-1][0])  # every z <= -37 takes the last band, so z is raised to -37
_ETA_CUT = 32  # terms of the eta expansion, used where -1 < z < 1
# The key of a series band is its index in _BANDS, so the term count falls as
# the key rises, and the eta region takes the last key.  In key order, the
# points that keep the term x^j are then a prefix of the sorted block.
_ETA_KEY = len(_BANDS)
_KEY_ENDS = np.arange(1, _ETA_KEY + 2, dtype=np.int8)  # k + 1 for every key k
# (j, last key of the prefix that keeps x^j), for j from the most terms down
_SWEEP = tuple((j, max(key for key, (_, k) in enumerate(_BANDS) if k > j))
               for j in reversed(range(_BANDS[0][1])))

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


def _is_integer(value) -> bool:  # a Python or numpy integer, but not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_order(n) -> int:
    if not _is_integer(n):
        raise ValueError("polylog order must be an integer.")
    if n not in _ORDERS:
        raise ValueError(f"polylog order must be one of {_ORDERS}, got {n}.")
    return int(n)


def _check_orders(n) -> tuple[int, ...]:
    if isinstance(n, tuple):
        if not n:
            raise ValueError("polylog order tuple must not be empty.")
        return tuple(_check_order(k) for k in n)
    return (_check_order(n),)


def zeta(s) -> float:
    """Riemann zeta at an integer argument s >= 2, correctly rounded."""
    if not _is_integer(s):
        raise ValueError("zeta argument must be an integer.")
    s = int(s)
    if s < 2:
        raise ValueError(f"zeta argument must be >= 2, got {s}.")
    return _ZETA[s - 2] if s - 2 < len(_ZETA) else 1.0


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


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: a cached table is shared by the concurrent slices of a vector call."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _band_keys() -> np.ndarray:
    """Band key of every z < 1, indexed by trunc(z) + 37 for z raised to at least -37.

    The band edges are integers, so truncation toward zero never moves a
    point across one.
    """
    return _frozen(np.array(
        [max(key for key, (b, _) in enumerate(_BANDS) if -t >= b) if t else _ETA_KEY
         for t in range(-_FLOOR, 1)], dtype=np.int8))


@lru_cache(maxsize=None)
def _coeff_rows(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Power-series and eta-expansion coefficients, one row per order, lowest power first.

    Li_n(x) = x sum_k x^k / (k+1)^n, and Li_n(-e^mu) = -sum_k eta(n - k) mu^k / k!
    for |mu| < pi.
    """
    index = np.arange(1, _BANDS[0][1] + 1, dtype=float)
    series = np.array([index ** (-float(n)) for n in orders])
    eta = []
    for n in orders:
        values = [_eta(n - k) for k in range(n + 1)] + _eta_negative(_ETA_CUT - 1 - n)
        eta.append([-e / math.factorial(k) for k, e in enumerate(values)])
    return _frozen(series), _frozen(np.array(eta))


@lru_cache(maxsize=None)
def _coeff_lists(orders: tuple[int, ...]) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """``_coeff_rows(orders)`` as tuples of Python floats, for one point."""
    return tuple(tuple(map(tuple, table.tolist())) for table in _coeff_rows(orders))


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c[:, j] x^j for every row of c at the points x, shape (rows, points)."""
    out = np.empty((c.shape[0], x.size))
    out[:] = c[:, -1:]
    for j in range(c.shape[1] - 2, -1, -1):
        out *= x
        out += c[:, j, None]
    return out


def _horner_point(c, x: float) -> float:
    """sum_j c[j] x^j at one Python float, by the same steps as ``_horner``."""
    out = c[-1]
    for cj in reversed(c[:-1]):
        out = out * x + cj
    return out


def _invert(rows: np.ndarray, orders: tuple[int, ...], mu: np.ndarray) -> np.ndarray:
    """Turn rows of Li_n(-e^-mu) into Li_n(-e^mu) in place, for mu >= 1, and return them.

    rows has one column per point of mu.  A power that overflows is inf, and
    the row then -inf, the overflowed value; it raises no warning.
    """
    with np.errstate(over="ignore"):
        for i, n in enumerate(orders):
            poly = sum(_eta(2 * k) * mu ** (n - 2 * k) / math.factorial(n - 2 * k)
                       for k in range(n // 2 + 1))
            rows[i] = -((-1.0) ** n) * rows[i] - 2.0 * poly
    return rows


def _partition(z: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The stable sort of the points z < 1 by band key, and where each key's run ends."""
    key = np.take(_band_keys(), np.maximum(z, -_FLOOR).astype(np.int8) + _FLOOR)
    perm = np.argsort(key, kind="stable")
    # the run of key k ends before the first sorted key above k; bincount
    # would first cast every key to intp
    return perm, np.searchsorted(key[perm], _KEY_ENDS).tolist()


def _li_point(orders: tuple[int, ...], z: float) -> list[float]:
    """Li_n(-e^z) for each order at one Python float z < 1, not NaN.

    The same steps as ``_li_rows`` on Python floats, so the same bits; the
    exponential stays numpy's.
    """
    key = int(_band_keys()[int(max(z, -_FLOOR)) + _FLOOR])
    series, eta = _coeff_lists(orders)
    if key == _ETA_KEY:
        return [_horner_point(c, z) for c in eta]
    x = -float(np.exp(z))
    terms = _BANDS[key][1]
    return [_horner_point(c[:terms], x) * x for c in series]


def _li_rows(orders: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """Li_n(-e^z) for each order (rows) at the 1-d points z < 1, none NaN: no inversion."""
    series, eta = _coeff_rows(orders)
    perm, ends = _partition(z)
    zs = z[perm]
    rows = np.zeros((len(orders), z.size))
    top = ends[_ETA_KEY - 1]
    xs = -np.exp(zs[:top])
    # One Horner sweep over the power-series block [0, top).  The points that
    # take term j are its prefix [0, hi); each joins at 0 x + c_j = c_j.
    acc = rows[:, :top]
    for j, key in _SWEEP:
        hi = ends[key]
        if hi:
            run = acc[:, :hi]
            run *= xs[:hi]
            run += series[:, j, None]
    acc *= xs
    if z.size > top:
        rows[:, top:] = _horner(eta, zs[top:])
    out = np.empty_like(rows)
    for row, sorted_row in zip(out, rows):
        row[perm] = sorted_row
    return out


def polylog_neg_exp(n, z):
    """Li_n(-e^z) for real z, evaluated without ever forming e^z.

    This is the shape in which the polylogarithm enters every distribution
    function here, so exposing it directly avoids overflow for large z.
    Accepts scalars or arrays; z = -inf maps to Li_n(0) = 0.  The kernel runs
    once, at -z where z >= 1, and the inversion then turns just those columns
    into Li_n(-e^z).  For a tuple of orders n the result has one row per
    order, shape ``(len(n),) + z.shape``, each row bitwise equal to the
    single-order call.
    """
    orders = _check_orders(n)
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    if not (flat < np.inf).all():
        raise ValueError("polylog_neg_exp requires z < +inf and not NaN.")
    up = flat >= 1.0
    reflect = up.any()
    rows = _li_rows(orders, np.where(up, -flat, flat) if reflect else flat)
    if reflect:
        rows[:, up] = _invert(rows[:, up], orders, flat[up])
    if isinstance(n, tuple):
        return rows.reshape((len(orders),) + z.shape)
    return float(rows[0, 0]) if z.ndim == 0 else rows[0].reshape(z.shape)


def polylog(n, x):
    """Real polylogarithm Li_n(x) of order n in {2, 3, 4} for x <= 0.

    Like ``polylog_neg_exp``, n may be a tuple of orders.
    """
    _check_orders(n)
    x = np.asarray(x, dtype=float)
    if not ((x <= 0.0) & (x > -np.inf)).all():
        raise ValueError("polylog argument must be a finite real <= 0.")
    with np.errstate(divide="ignore"):  # x = 0 maps to z = -inf
        return polylog_neg_exp(n, np.log(-x))
