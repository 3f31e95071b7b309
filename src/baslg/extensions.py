"""Extension densities built on the squared-polynomial skewing mechanism.

Four variants of the base construction:

* :class:`TwoParamModel`   two independent linear skew factors
* :class:`AlphaBetaModel`  cubic skewing polynomial 1 - alpha z - beta z^3
* :class:`LogBaslgModel`   exponentiated support, the log-scale analogue
* :class:`BivariateModel`  squared-polynomial skewing on a Gumbel bivariate
  logistic base

Each normalizing constant is exact: the skewing polynomial is expanded
into coefficients and integrated against the logistic moments by the
engine in :mod:`baslg.core`.  The bivariate constant also needs
E[Z^j tanh(Z/2)], which one integration by parts turns into j mu_(j-1).
Closed forms for the constants are commonly quoted alongside these
densities, but they are easy to mistranscribe (the cubic model's
alpha*beta^3 coefficient in particular drops a digit in circulation).
Each model therefore compares its quoted form with the exact value.  When
the two agree to 1e-6 relative the quoted form is used; otherwise the
exact value wins and ``constant_erratum`` is set so callers can see the
discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import (
    _MU,
    _as_array,
    _blocked,
    _cdf_block,
    _cdf_point,
    _check_alpha,
    _constant,
    _density,
    _density_block,
    _logistic_kernel,
    _restore,
    _skew_coeffs,
    _skew_poly,
    _tanh_moment,
)

__all__ = [
    "TwoParamModel",
    "AlphaBetaModel",
    "LogBaslgModel",
    "BivariateModel",
]

_PI = math.pi
_REL_TOL = 1e-6


# perfbench/tracer.py reads these names from the module dict, wraps them
# and restores them afterwards; nothing calls them
quad = dblquad = None


def _check_shape(model, limit: float, *names):
    """Each named shape parameter of ``model`` must be finite, with
    |value| <= limit; it is stored back as the Python float checked, so that
    a numpy float32 or an integer argument gives the float64 model."""
    for name in names:
        value = float(getattr(model, name))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}.")
        if abs(value) > limit:
            raise ValueError(f"|{name}| must not exceed {limit:g}, got {value!r}.")
        object.__setattr__(model, name, value)


class _GuardedConstant:
    """``constant`` is the quoted ``printed_constant`` where it agrees with
    ``_exact_constant()`` to 1e-6 relative; otherwise it is the exact value
    and ``constant_erratum`` is True."""

    @cached_property
    def _resolved(self) -> tuple[float, bool]:
        printed, exact = self.printed_constant, self._exact_constant()
        if abs(printed - exact) <= _REL_TOL * abs(exact):
            return printed, False
        return exact, True

    @property
    def constant(self) -> float:
        return self._resolved[0]

    @property
    def constant_erratum(self) -> bool:
        return self._resolved[1]


@dataclass(frozen=True)
class TwoParamModel(_GuardedConstant):
    """Density with two linear skew factors applied to the logistic kernel.

    f(z) = ((1 - a1 z)^2 + 1)^2 ((1 - a2 z)^2 + 1)^2 k(z) / C(a1, a2)
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        # the polynomial at |z| = 800 is at most (800 * 1e35)^8 ~ 2e303
        _check_shape(self, 1e35, "alpha1", "alpha2")

    @property
    def printed_constant(self) -> float:
        a1, a2 = self.alpha1, self.alpha2
        return (
            1680.0
            + _PI**2
            * (
                224.0 * a1 * a2 * (10.0 + 7.0 * _PI**2 * a2**2)
                + 28.0 * a2**2 * (40.0 + 7.0 * _PI**2 * a2**2)
                + 16.0 * _PI**2 * a1**3 * a2 * (98.0 + 155.0 * _PI**2 * a2**2)
                + 8.0 * a1**2 * (140.0 + 392.0 * _PI**2 * a2**2 + 155.0 * _PI**4 * a2**4)
                + _PI**2 * a1**4 * (196.0 + 1240.0 * _PI**2 * a2**2 + 889.0 * _PI**4 * a2**4)
            )
        ) / 105.0

    def _poly(self, z):
        return _skew_poly(self.alpha1, z) * _skew_poly(self.alpha2, z)

    def _exact_constant(self) -> float:
        coeffs = np.convolve(_skew_coeffs(self.alpha1), _skew_coeffs(self.alpha2))
        return _constant(coeffs.tolist())

    def pdf(self, z):
        return _density(self._poly, self.constant, z)


@dataclass(frozen=True)
class AlphaBetaModel(_GuardedConstant):
    """Density whose skewing polynomial is the cubic 1 - alpha z - beta z^3.

    f(z) = ((1 - alpha z - beta z^3)^2 + 1)^2 k(z) / C(alpha, beta)

    The quoted closed form for C is wrong whenever alpha * beta != 0 (its
    alpha*beta^3 coefficient reads 465010 where the derivation gives
    4650100), so for such parameters ``constant_erratum`` comes back True
    and the exact value is used.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        # the polynomial at |z| = 800 is at most (800^3 * 1e68)^4 ~ 7e306
        _check_shape(self, 1e68, "alpha", "beta")

    @property
    def printed_constant(self) -> float:
        a, b = self.alpha, self.beta
        return (
            60060.0
            + 40040.0 * _PI**2 * a**2
            + 7007.0 * _PI**4 * a**4
            + 112112.0 * _PI**4 * a * b
            + 88660.0 * _PI**6 * a**3 * b
            + 177320.0 * _PI**6 * b**2
            + 762762.0 * _PI**8 * a**2 * b**2
            + 465010.0 * _PI**10 * a * b**3
            + 15559247.0 * _PI**12 * b**4
        ) / 15015.0

    def _poly(self, z):
        w = (1.0 - self.alpha * z - self.beta * z**3) ** 2 + 1.0
        return w**2

    def _exact_constant(self) -> float:
        cubic = (1.0, -self.alpha, 0.0, -self.beta)
        square = np.convolve(cubic, cubic)
        square[0] += 1.0
        return _constant(np.convolve(square, square).tolist())

    def pdf(self, z):
        return _density(self._poly, self.constant, z)


@dataclass(frozen=True)
class LogBaslgModel:
    """Distribution of exp(Z) for Z with the base density; support is z > 0."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    def _positive(self, z) -> tuple[np.ndarray, bool]:
        arr, scalar = _as_array(z)
        if np.any(arr <= 0.0):
            raise ValueError("log-scale density is defined only for z > 0.")
        return arr, scalar

    # Each slice runs the base law's kernel on log(x) itself: through the
    # base law's pdf or cdf it would be sliced again.
    def pdf(self, z):
        arr, scalar = self._positive(z)
        const = _constant(_skew_coeffs(self.alpha))
        kernel = partial(_density_block, partial(_skew_poly, self.alpha), const)
        return _restore(_blocked(lambda x: kernel(np.log(x)) / x, arr), scalar)

    def cdf(self, z):
        arr, scalar = self._positive(z)
        if np.isnan(arr).any():
            raise ValueError("z must not be NaN.")
        c = _skew_coeffs(self.alpha)
        const = _constant(c)
        if arr.size == 1:  # the base law's one-point cdf, on Python floats
            value = _cdf_point(c, const, np.log(arr).item())
            return value if scalar else np.full(arr.shape, value)
        return _restore(_blocked(lambda x: _cdf_block(c, const, np.log(x)), arr), scalar)


@dataclass(frozen=True)
class BivariateModel(_GuardedConstant):
    """Squared-polynomial skewing of the Gumbel bivariate logistic density.

    Psi(z1, z2) = ((1 - a1 z1 - a2 z2)^2 + 1)^2 k(z1) k(z2)
                  (1 + alpha tanh(z1/2) tanh(z2/2)) / C

    ``alpha`` is the Gumbel dependence parameter and must satisfy
    |alpha| <= 1; a1, a2 control the skewing plane.
    """

    alpha: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        _check_shape(self, math.inf, "alpha")
        if abs(self.alpha) > 1.0:
            raise ValueError(f"dependence parameter needs |alpha| <= 1, got {self.alpha!r}.")
        # The kernel product is nonzero only where |z1| + |z2| < 745, so there
        # the polynomial is at most 2 ((745 * 1e70)^2 + 1)^2 ~ 6e291, and the
        # constant at most 2.4e282.
        _check_shape(self, 1e70, "alpha1", "alpha2")

    def _poly(self, z1, z2):
        w = (1.0 - self.alpha1 * z1 - self.alpha2 * z2) ** 2 + 1.0
        return w**2 * (1.0 + self.alpha * np.tanh(z1 / 2.0) * np.tanh(z2 / 2.0))

    @property
    def printed_constant(self) -> float:
        a, a1, a2 = self.alpha, self.alpha1, self.alpha2
        return (
            60.0
            + 7.0 * _PI**4 * a1**4
            + 60.0 * _PI**2 * a * a1**3 * a2
            + 40.0 * _PI**2 * a2**2
            + 7.0 * _PI**4 * a2**4
            + 10.0 * _PI**2 * a1**2 * (4.0 + _PI**2 * a2**2)
            + 60.0 * a * a1 * a2 * (4.0 + _PI**2 * a2**2)
        ) / 15.0

    def _exact_constant(self) -> float:
        # ((1 - w)^2 + 1)^2 with w = a1 z1 + a2 z2 has coefficients s_n in w;
        # each monomial z1^i z2^k integrates to mu_i mu_k plus the dependence
        # term alpha E[Z1^i tanh(Z1/2)] E[Z2^k tanh(Z2/2)].
        a, a1, a2 = self.alpha, self.alpha1, self.alpha2
        return sum(
            sn * math.comb(n, i) * a1**i * a2 ** (n - i)
            * (_MU[i] * _MU[n - i] + a * _tanh_moment(i) * _tanh_moment(n - i))
            for n, sn in enumerate(_skew_coeffs(1.0))
            for i in range(n + 1)
        )

    def pdf(self, z1, z2):
        a1, s1 = _as_array(z1)
        a2, s2 = _as_array(z2)
        return _restore(_blocked(self._pdf_block, *np.broadcast_arrays(a1, a2)), s1 and s2)

    def _pdf_block(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        # Where the kernel product underflows to exact 0 the density is 0 no
        # matter how large the polynomial factor is; skipping those points
        # keeps huge |z| from turning inf * 0 into NaN.  A NaN argument gives
        # a NaN kernel, which is kept, so the density is NaN there.
        kern = _logistic_kernel(z1) * _logistic_kernel(z2)
        out = np.zeros_like(kern)
        live = kern != 0.0
        if live.any():
            out[live] = self._poly(z1[live], z2[live]) * kern[live]
        out /= self.constant
        return out
