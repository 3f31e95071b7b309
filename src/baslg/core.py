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
  upper tail gets the lower tail's relative accuracy;
* mgf: C M(t) = sum_j c_j B^(j)(t) for the logistic mgf B(t) = Gamma(1-t)
  Gamma(1+t), whose log-derivatives are polygamma values at 1 +- t.

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
from functools import partial
from operator import mul

import numpy as np

from .specfn import gamma_int, polylog_neg_exp, zeta

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


def _raw_moments(c, orders) -> list[float]:
    const = _constant(c)
    return [sum(map(mul, c, _MU[k:])) / const for k in orders]


def _polyval(c, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, c[-1])
    for cj in reversed(c[:-1]):
        out *= z
        out += cj
    return out


def _lower_num(c, z: np.ndarray) -> np.ndarray:
    """Integral of p(u) g(u) over u < z, for z <= 0."""
    # For z <= 0, e^z never overflows, so sigma(z) = e^z / (1 + e^z) stays
    # nonzero down to z = -745; 1 / (1 + e^-z) is 0 from z = -709.8 on.
    e = np.exp(z)
    out = e / (1.0 + e) * _polyval(c, z)
    li = polylog_neg_exp(tuple(range(2, len(c))), z) if len(c) > 2 else None
    for j in range(1, len(c)):
        c = [-k * ck for k, ck in enumerate(c)][1:]  # (-1)^j p^(j)
        lj = -np.log1p(e) if j == 1 else li[j - 2]
        term = _polyval(c, z)
        term *= lj
        out -= term
    return out


def _mirror(c):
    """Coefficients of p(-z), the law of -Z."""
    return [(-1) ** j * cj for j, cj in enumerate(c)]


def _distribution(c, z):
    """F(z), with positive z routed through the mirror law: F(z) = 1 - F_mirror(-z).

    The Li terms are thus always evaluated at z <= 0, where no cancellation
    of large z powers can occur.  Beyond |z| = 745 every kernel
    antiderivative has underflowed to zero (the tail mass is below 1e-323),
    so such arguments, infinities included, map straight to the cdf limits.
    """
    z, scalar = _as_array(z)
    if np.any(np.isnan(z)):
        raise ValueError("z must not be NaN.")
    const = _constant(c)
    out = np.empty_like(z)
    out[z < -745.0] = 0.0
    out[z > 745.0] = 1.0
    mid = np.abs(z) <= 745.0
    neg = mid & (z <= 0.0)
    if neg.any():
        out[neg] = _lower_num(c, z[neg]) / const
    pos = mid & (z > 0.0)
    if pos.any():
        out[pos] = 1.0 - _lower_num(_mirror(c), -z[pos]) / const
    return _restore(np.clip(out, 0.0, 1.0), scalar)


def _survival(c, z):
    """1 - F(z) as the mirror law's F_mirror(-z).

    For z >= 0 that is the mirror's lower form, which keeps the upper tail's
    relative digits where 1 - F(z) would cancel; for z < 0 it is 1 - F(z).
    """
    return _distribution(_mirror(c), -np.asarray(z, dtype=float))


# scipy.special.polygamma, bound on the first mgf call: scipy.special is most
# of a cold import, and only the mgf needs it.
polygamma = None


def _mgf(c, t):
    """sum_j c_j B^(j)(t) / C for the logistic mgf B(t) = pi t / sin(pi t).

    With L = log B, L^(j)(t) = psi_(j-1)(1+t) + (-1)^j psi_(j-1)(1-t), and
    B' = B L' gives B^(m) = sum_(k<m) binom(m-1, k) B^(k) L^(m-k).
    """
    global polygamma
    t, scalar = _as_array(t)
    if np.any(~np.isfinite(t)) or np.any(np.abs(t) >= 1.0):
        raise ValueError("mgf argument must satisfy -1 < t < 1.")
    if polygamma is None:
        from scipy.special import polygamma
    dlog = [None] + [polygamma(j - 1, 1.0 + t) + (-1) ** j * polygamma(j - 1, 1.0 - t)
                     for j in range(1, len(c))]
    b = [1.0 / np.sinc(t)]
    for m in range(1, len(c)):
        b.append(sum(math.comb(m - 1, k) * b[k] * dlog[m - k] for k in range(m)))
    return _restore(sum(cj * bj for cj, bj in zip(c, b)) / _constant(c), scalar)


def _logistic_kernel(z: np.ndarray) -> np.ndarray:
    # e^-z / (1 + e^-z)^2 through the even form that never overflows
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def _poly_times_kernel(poly, *z: np.ndarray) -> np.ndarray:
    """poly(*z) times the logistic kernel of each argument (broadcast).

    Where the kernel underflows to exact 0 the density is 0 no matter how
    large the polynomial factor is; skipping those points keeps huge |z|
    from turning inf * 0 into NaN.
    """
    kern = _logistic_kernel(z[0])
    for u in z[1:]:
        kern = kern * _logistic_kernel(u)
    out = np.zeros_like(kern)
    live = kern > 0.0
    if live.any():
        out[live] = poly(*(np.broadcast_to(u, kern.shape)[live] for u in z)) * kern[live]
    return out


def _density(poly, c, z):
    arr, scalar = _as_array(z)
    return _restore(_poly_times_kernel(poly, arr) / _constant(c), scalar)


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
    return _density(lambda u: u**4, _BLG4, z)


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
        return _density(partial(_skew_poly, self.alpha), _skew_coeffs(self.alpha), z)

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
        return _density(partial(_sym_poly, self.alpha), _sym_coeffs(self.alpha), z)

    def cdf(self, z):
        return _distribution(_sym_coeffs(self.alpha), z)

    def sf(self, z):
        """Survival function 1 - F(z), accurate in the upper tail."""
        return _survival(_sym_coeffs(self.alpha), z)

    def mgf(self, t):
        return _mgf(_sym_coeffs(self.alpha), t)
