"""Standard Balakrishnan alpha-skew-logistic distribution BASLG2(alpha).

The density applies the squared Balakrishnan skewing polynomial to the
standard logistic kernel g(z) = e^-z / (1 + e^-z)^2:

    f(z) = [(1 - alpha z)^2 + 1]^2 / C(alpha) * g(z),
    C(alpha) = 4 + 8 pi^2 alpha^2 / 3 + 7 pi^4 alpha^4 / 15.

Every law here is a nonnegative polynomial p(z) = sum_j c_j z^j times g(z),
and one engine driven by the coefficients c gives all of its integrals.
With mu_n = E[Z^n] of the logistic law (2 (1 - 2^(1-n)) n! zeta(n) for even
n, mu_0 = 1, zero for odd n):

* constant C = sum_j c_j mu_j, raw moments E[Z^k] = sum_j c_j mu_(j+k) / C;
* cdf, for z <= 0: C F(z) = sigma(z) p(z) - sum_(j>=1) (-1)^j p^(j)(z) Li_j(-e^z)
  with Li_1(-e^z) = -log(1 + e^z); positive z use the mirror law p(-z),
  and the survival function 1 - F(z) is the mirror law's F at -z, so the
  upper tail gets the lower tail's relative accuracy.  Where e^z is
  subnormal every Li_j(-e^z) is -e^z, and C F(z) = e^z sum_j (-1)^j p^(j)(z)
  is formed from e^(z + 64) so that it keeps its digits;
* mgf: C M(t) = sum_j c_j B^(j)(t) for the logistic mgf
  B(t) = Gamma(1+t) Gamma(1-t) = pi t / sin(pi t) (reflection formula).
  The log-derivatives of B come from its Taylor series in t^2, whose
  coefficients are zeta(2k) / k, for |t| <= 1/2 and from cot(pi t) beyond,
  so the mgf needs numpy alone.

The density itself uses the factored polynomial, which has no cancellation.

A note on published closed forms for this family: the explicit odd-order raw
moment expressions circulate with an inverted overall sign and a Gamma(k+5)
factor where the derivation yields Gamma(k+4).  The values exported here are
the ones the numerical-integration oracle confirms: odd moments are negative
for alpha > 0 (mass moves to the left of the origin because the skewing
polynomial is largest at negative z when alpha > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from operator import add, mul

import numpy as np

from .specfn import _horner, gamma_int, polylog_neg_exp, zeta

__all__ = [
    "StandardBaslg",
    "SymmetricComponent",
    "MomentSet",
    "ModeReport",
    "normalizing_constant",
    "blg4_pdf",
    "blg4_cdf",
    "blg4_mgf",
]


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _restore(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be a finite real.")
    if abs(alpha) > 1e70:  # alpha**4 overflows near 1e77, the pdf at |z| = 700 near 1e75
        raise ValueError(f"|alpha| must not exceed 1e70, got {alpha!r}.")
    return alpha


# ---------------------------------------------------------------------------
# the engine: integrals of p(z) g(z) from the coefficients of p, lowest first
# ---------------------------------------------------------------------------

def _logistic_moment(n: int) -> float:
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    return 2.0 * (1.0 - 2.0 ** (1 - n)) * gamma_int(n + 1) * zeta(n)


# mu_0..mu_12 covers the eighth moment of a quartic p and the constant of a
# degree-12 p (the cubic extension); the sums below rely on that length.
_MU = tuple(_logistic_moment(n) for n in range(13))


def _tanh_moment(j: int) -> float:
    """E[Z^j tanh(Z/2)] under the logistic law.

    tanh(z/2) g(z) = -g'(z), so one integration by parts gives j mu_(j-1).
    """
    return j * _MU[j - 1] if j else 0.0


def _constant(c) -> float:
    return sum(map(mul, c, _MU))


def _moment_sums(c, orders) -> list:
    """S_k = sum_j c_j mu_(j+k), the unnormalised moments; S_0 is the constant."""
    return [sum(map(mul, c, _MU[k:])) for k in orders]


def _raw_moments(c, orders) -> list[float]:
    const = _constant(c)
    return [s / const for s in _moment_sums(c, orders)]


def _shape_ratios(c) -> dict:
    """(numerator, denominator) of raw1 (the mean), variance, beta1 and beta2.

    Formed from S_0..S_4 with no division, so the c_j may be polynomials in a
    shape parameter: each functional then comes out as a ratio of polynomials.
    The central moments times S_0^k are m_2 = S_0 S_2 - S_1^2,
    m_3 = S_0^2 S_3 - 3 S_0 S_1 S_2 + 2 S_1^3 and
    m_4 = S_0^3 S_4 - 4 S_0^2 S_1 S_3 + 6 S_0 S_1^2 S_2 - 3 S_1^4.
    """
    s0, s1, s2, s3, s4 = _moment_sums(c, range(5))
    m2 = s0 * s2 - s1 * s1
    m3 = s0 * s0 * s3 - 3.0 * s0 * s1 * s2 + 2.0 * s1**3
    m4 = s0**3 * s4 - 4.0 * s0 * s0 * s1 * s3 + 6.0 * s0 * s1 * s1 * s2 - 3.0 * s1**4
    return {"raw1": (s1, s0), "variance": (m2, s0 * s0), "beta1": (m3 * m3, m2**3),
            "beta2": (m4, m2 * m2)}


def _polyval(c, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, c[-1])
    for cj in reversed(c[:-1]):
        out *= z
        out += cj
    return out


# Below the smallest normal double, _TINY, e^z keeps fewer digits, so the
# tails past |z| = 708.4 are formed as e^(z + 64) e^-64; adding 64 to z is
# exact there (for 512 <= |z| < 1024).
_TINY = 2.0**-1022
_EXP_M64 = math.exp(-64.0)


def _lower(c, z: np.ndarray, const: float) -> np.ndarray:
    """F(z) = integral of p(u) g(u) / C over u < z, for -800 <= z <= 0."""
    # For z <= 0, e^z never overflows, so sigma(z) = e^z / (1 + e^z) stays
    # nonzero down to z = -745; 1 / (1 + e^-z) is 0 from z = -709.8 on.
    e = np.exp(z)
    out = e / (1.0 + e) * _polyval(c, z)
    li = polylog_neg_exp(tuple(range(2, len(c))), z) if len(c) > 2 else None
    d = c
    q = list(c)  # sum_j (-1)^j p^(j), for the subnormal band below
    for j in range(1, len(c)):
        d = [-k * dk for k, dk in enumerate(d)][1:]  # (-1)^j p^(j)
        q[: len(d)] = map(add, q, d)
        lj = -np.log1p(e) if j == 1 else li[j - 2]
        term = _polyval(d, z)
        term *= lj
        out -= term
    out /= const
    # Where e^z is subnormal every Li_j(-e^z) is -e^z in double precision,
    # so C F(z) = e^z q(z).
    deep = e < _TINY
    if deep.any():
        u = z[deep]
        out[deep] = _polyval(q, u) / const * np.exp(u + 64.0) * _EXP_M64
    return out


def _mirror(c):
    """Coefficients of p(-z), the law of -Z."""
    return [(-1) ** j * cj for j, cj in enumerate(c)]


def _distribution(c, z):
    """F(z), with positive z routed through the mirror law: F(z) = 1 - F_mirror(-z).

    The Li terms are thus always evaluated at z <= 0, where no cancellation
    of large z powers can occur.  Beyond |z| = 800 the tail mass is below
    1e-337 for every alpha, under half the smallest subnormal, so such
    arguments, infinities included, map straight to the cdf limits.
    """
    z, scalar = _as_array(z)
    if np.any(np.isnan(z)):
        raise ValueError("z must not be NaN.")
    const = _constant(c)
    out = np.empty_like(z)
    out[z < -800.0] = 0.0
    out[z > 800.0] = 1.0
    mid = np.abs(z) <= 800.0
    neg = mid & (z <= 0.0)
    if neg.any():
        out[neg] = _lower(c, z[neg], const)
    pos = mid & (z > 0.0)
    if pos.any():
        out[pos] = 1.0 - _lower(_mirror(c), -z[pos], const)
    return _restore(np.clip(out, 0.0, 1.0), scalar)


def _survival(c, z):
    """1 - F(z) as the mirror law's F_mirror(-z).

    For z >= 0 that is the mirror's lower form, which keeps the upper tail's
    relative digits where 1 - F(z) would cancel; for z < 0 it is 1 - F(z).
    """
    return _distribution(_mirror(c), -np.asarray(z, dtype=float))


@lru_cache(maxsize=None)
def _log_b_rows(orders: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient rows, lowest power first, for L^(j), j = 1..orders, of L = log B.

    ``series[j-1]`` is P_j with L^(j)(t) = t^(j mod 2) P_j(t^2), from the
    series L(t) = sum_(k>=1) zeta(2k) / k t^(2k) differentiated term by term.
    Its terms are all positive, so the relative error of the cut grows with
    |t|; it is cut where the terms left out at |t| = 1/2 sum to at most
    2^-56 of L^(j)(1/2) (28 / 31 / 33 / 35 terms for j = 1..4).

    ``cot[j-1]`` is -pi^j Q_j(K) with Q_1 = K and Q_(j+1) = -(1 + K^2) Q_j',
    and ``pole[j-1]`` is (j-1)!, so that
    L^(j)(t) = -(j-1)! (-1/t)^j - pi^j Q_j(cot pi t).
    """
    rows = []
    cot = np.zeros((orders, orders + 1))
    q = [0, 1]  # Q_1(K) = K, integer coefficients lowest first
    for j in range(1, orders + 1):
        k0 = (j + 1) // 2  # the first k whose term survives j derivatives
        # the terms at |t| = 1/2 fall about fourfold each; 120 reach far past 2^-56
        coef = [zeta(2 * k) * float(math.perm(2 * k, j) // k) for k in range(k0, k0 + 120)]
        tails = list(accumulate(reversed([cf * 0.25**i for i, cf in enumerate(coef)])))[::-1]
        rows.append(coef[: next(i for i, tail in enumerate(tails) if tail <= 2.0**-56 * tails[0])])
        cot[j - 1, : j + 1] = [-math.pi**j * qi for qi in q]
        dq = [i * qi for i, qi in enumerate(q)][1:]  # Q_j'
        q = [-(a + b) for a, b in zip(dq + [0, 0], [0, 0] + dq)]  # -(1 + K^2) Q_j'
    width = max(map(len, rows))
    series = np.array([row + [0.0] * (width - len(row)) for row in rows])
    pole = np.array([[math.factorial(j)] for j in range(orders)], dtype=float)
    return series, cot, pole


def _log_b(t: np.ndarray, orders: int) -> tuple[np.ndarray, np.ndarray]:
    """B(t) and L^(j)(t) = psi_(j-1)(1+t) + (-1)^j psi_(j-1)(1-t), j = 1..orders (rows).

    Up to |t| = 1/2 the L^(j) come from the Taylor series in t^2; beyond,
    from the cotangent form, with cot(pi t) = -sign(t) cos(pi s) / sin(pi s)
    on the reflected s = 1 - |t|, which is exact.  B = pi |t| / sin(pi s)
    takes s = |t| on the first branch, so no digits cancel as |t| -> 1.
    """
    series, cot, pole = _log_b_rows(orders)
    a = np.abs(t)
    near = a <= 0.5
    s = np.where(near, a, 1.0 - a)
    sin = np.sin(np.pi * s)
    b = np.divide(np.pi * a, sin, out=np.ones_like(t), where=a > 0.0)
    out = np.empty((orders,) + t.shape)
    if near.any():
        u = t[near]
        rows = _horner(series, u * u)
        rows[::2] *= u  # odd orders
        out[:, near] = rows
    far = ~near
    if far.any():
        u = t[far]
        k = np.cos(np.pi * s[far]) / sin[far]
        k *= -np.sign(u)
        w = np.cumprod(np.broadcast_to(-1.0 / u, (orders, u.size)), axis=0)
        out[:, far] = _horner(cot, k) - pole * w
    return b, out


def _mgf(c, t):
    """sum_j c_j B^(j)(t) / C for the logistic mgf B(t) = pi t / sin(pi t).

    B = Gamma(1+t) Gamma(1-t) by the reflection formula, so L = log B has
    the log-derivatives L^(j) of ``_log_b``, and B' = B L' gives
    B^(m) = sum_(k<m) binom(m-1, k) B^(k) L^(m-k).
    """
    t, scalar = _as_array(t)
    if np.any(~np.isfinite(t)) or np.any(np.abs(t) >= 1.0):
        raise ValueError("mgf argument must satisfy -1 < t < 1.")
    b0, dlog = _log_b(t, len(c) - 1)
    b = [b0]
    for m in range(1, len(c)):
        b.append(sum(math.comb(m - 1, k) * b[k] * dlog[m - k - 1] for k in range(m)))
    return _restore(sum(cj * bj for cj, bj in zip(c, b)) / _constant(c), scalar)


def _logistic_kernel(z: np.ndarray) -> np.ndarray:
    # e^-z / (1 + e^-z)^2 through the even form that never overflows
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def _density(poly, const, z):
    """poly(z) g(z) / const.

    Where the kernel is subnormal, |z| > 708.4, it has lost its digits, so
    the density is formed there as poly(z) / const e^(64 - |z|) e^-64,
    which rounds once into the subnormal range.  Each law bounds its shape
    parameters so that the polynomial stays finite at |z| = 800, so z is
    clipped to +-800 and the density is 0 beyond: below 1e-337 there for
    every alpha, and below 3e-322 for the degree-12 extension.
    """
    arr, scalar = _as_array(z)
    zc = np.clip(arr, -800.0, 800.0)
    kern = _logistic_kernel(zc)
    out = poly(zc)
    out *= kern
    out /= const
    deep = kern < _TINY
    if deep.any():
        u = zc[deep]
        out[deep] = poly(u) / const * np.exp(64.0 - np.abs(u)) * _EXP_M64
    out[np.abs(arr) > 800.0] = 0.0
    return _restore(out, scalar)


# ---------------------------------------------------------------------------
# the laws: factored polynomial for the density, coefficients for the engine
# ---------------------------------------------------------------------------

def _skew_poly(alpha: float, z: np.ndarray) -> np.ndarray:
    w = 1.0 - alpha * z
    return (w * w + 1.0) ** 2


def _skew_coeffs(a: float) -> tuple[float, ...]:
    return (4.0, -8.0 * a, 8.0 * a * a, -4.0 * a**3, a**4)


def _sym_poly(alpha: float, z: np.ndarray) -> np.ndarray:
    az2 = (alpha * z) ** 2
    return 4.0 + 8.0 * az2 + az2 * az2


def _sym_coeffs(a: float) -> tuple[float, ...]:
    a2 = a * a
    return (4.0, 0.0, 8.0 * a2, 0.0, a2 * a2)


# limiting law for |alpha| -> inf: density z^4 g(z) / mu_4
_BLG4 = (0.0, 0.0, 0.0, 0.0, 1.0)


def normalizing_constant(alpha) -> float:
    """C(alpha) = integral of [(1 - alpha z)^2 + 1]^2 over the logistic law."""
    return _constant(_skew_coeffs(_check_alpha(alpha)))


def blg4_pdf(z):
    """Density of the symmetric bimodal limit shared by alpha -> +-inf."""
    return _density(lambda u: u**4, _constant(_BLG4), z)


def blg4_cdf(z):
    """Distribution function of the bimodal limit law."""
    return _distribution(_BLG4, z)


def blg4_mgf(t):
    """Mgf of the bimodal limit law, finite for -1 < t < 1."""
    return _mgf(_BLG4, t)


# ---------------------------------------------------------------------------
# moments and modes
# ---------------------------------------------------------------------------

def _check_order(k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("moment order must be an integer.")
    k = int(k)
    if not 1 <= k <= 8:
        raise ValueError(f"moment order must be in [1, 8], got {k}.")
    return k


@dataclass(frozen=True)
class MomentSet:
    """First four raw moments plus variance and Pearson shape numbers."""

    raw1: float
    raw2: float
    raw3: float
    raw4: float
    variance: float
    beta1: float
    beta2: float


@dataclass(frozen=True)
class ModeReport:
    """Stationary-point structure of the density.

    ``modes`` holds the local maxima in increasing order; ``antimode`` is the
    local minimum separating them when the density is bimodal, else None.
    """

    mode_count: int
    modes: tuple[float, ...]
    antimode: float | None


def _stationarity(alpha: float, z: np.ndarray) -> np.ndarray:
    """Sign-carrying factor of the density derivative.

    f'(z) is a positive function times
    h(z) = -4 alpha (1 - alpha z) - [(1 - alpha z)^2 + 1] tanh(z / 2),
    so modes and antimodes are exactly the sign changes of h.
    """
    w = 1.0 - alpha * z
    return -4.0 * alpha * w - (w * w + 1.0) * np.tanh(0.5 * z)


def _refine_root(alpha: float, lo: float, hi: float) -> float:
    flo = _stationarity(alpha, np.array([lo]))[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _stationarity(alpha, np.array([mid]))[0]
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def _mode_report(alpha: float) -> ModeReport:
    # even point count so z = 0 is never a grid node (h vanishes there for
    # alpha = 0 and exact zeros would confuse the sign-change scan)
    grid = np.linspace(-60.0, 60.0, 48000)
    h = _stationarity(alpha, grid)
    idx = np.where(h[:-1] * h[1:] < 0.0)[0]
    roots = [_refine_root(alpha, grid[i], grid[i + 1]) for i in idx]
    rising = [h[i] < 0.0 for i in idx]  # h rising through 0 marks a minimum
    modes = tuple(r for r, up in zip(roots, rising) if not up)
    anti = [r for r, up in zip(roots, rising) if up]
    return ModeReport(
        mode_count=len(modes),
        modes=modes,
        antimode=anti[0] if anti else None,
    )


def _moment_set(c) -> MomentSet:
    r1, r2, r3, r4 = _raw_moments(c, (1, 2, 3, 4))
    var = r2 - r1 * r1
    c3 = r3 - 3.0 * r1 * r2 + 2.0 * r1**3
    c4 = r4 - 4.0 * r1 * r3 + 6.0 * r1 * r1 * r2 - 3.0 * r1**4
    return MomentSet(
        raw1=r1,
        raw2=r2,
        raw3=r3,
        raw4=r4,
        variance=var,
        beta1=c3 * c3 / var**3,
        beta2=c4 / (var * var),
    )


# ---------------------------------------------------------------------------
# public distribution objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardBaslg:
    """BASLG2(alpha) on the z scale (location 0, scale 1)."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    @property
    def norm_const(self) -> float:
        return normalizing_constant(self.alpha)

    def pdf(self, z):
        return _density(partial(_skew_poly, self.alpha), _constant(_skew_coeffs(self.alpha)), z)

    def cdf(self, z):
        return _distribution(_skew_coeffs(self.alpha), z)

    def sf(self, z):
        """Survival function 1 - F(z), accurate in the upper tail."""
        return _survival(_skew_coeffs(self.alpha), z)

    def mgf(self, t):
        return _mgf(_skew_coeffs(self.alpha), t)

    def raw_moment(self, k) -> float:
        return _raw_moments(_skew_coeffs(self.alpha), (_check_order(k),))[0]

    def moment_set(self) -> MomentSet:
        return _moment_set(_skew_coeffs(self.alpha))

    def mode_report(self) -> ModeReport:
        return _mode_report(self.alpha)


@dataclass(frozen=True)
class SymmetricComponent:
    """Even part of BASLG2(alpha): density (4 + 8 a^2 z^2 + a^4 z^4) g(z) / C(a).

    Shares the normalizing constant with the skewed law, so pdf / sym_pdf is
    the polynomial ratio that the rejection sampler bounds by S.
    """

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    @property
    def norm_const(self) -> float:
        return normalizing_constant(self.alpha)

    def pdf(self, z):
        return _density(partial(_sym_poly, self.alpha), _constant(_sym_coeffs(self.alpha)), z)

    def cdf(self, z):
        return _distribution(_sym_coeffs(self.alpha), z)

    def sf(self, z):
        """Survival function 1 - F(z), accurate in the upper tail."""
        return _survival(_sym_coeffs(self.alpha), z)

    def mgf(self, t):
        return _mgf(_sym_coeffs(self.alpha), t)
