"""Random variate generation for BASLG2(alpha).

Two exact methods are provided.

* ``inverse_cdf``: numeric inversion of the closed-form cdf.  One cdf call
  on a fixed grid brackets every uniform and gives a logit-interpolated
  start; safeguarded Newton steps on the logit of the cdf, with the pdf as
  its derivative, then converge in a handful of cdf calls.
* ``rejection``: composition-rejection with no root-finding.  Two bounds
  give the envelope.  The skew polynomial is at most S = (3 + 2 sqrt(2)) / 3
  times its even part 4 + 8 a^2 z^2 + a^4 z^4 (the density ratio
  1 - (8 a z + 4 a^3 z^3) / (4 + 8 a^2 z^2 + a^4 z^4) peaks at a z = -sqrt(2),
  where it equals S), and the logistic kernel is at most e^-|z|.  The
  envelope (4 + 8 a^2 z^2 + a^4 z^4) e^-|z| is exactly a mixture of
  +-Gamma(1), +-Gamma(3) and +-Gamma(5) with weights proportional to
  4, 16 a^2 and 24 a^4, so proposals need only gamma draws.  The long-run
  acceptance rate is C(a) / (2 S (4 + 16 a^2 + 24 a^4)), from 0.257 at
  a = 0 up to 0.487 as |a| grows.

Streams come from numpy's default PCG64 generator; a fixed seed makes both
methods bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StandardBaslg,
    _as_array,
    _check_alpha,
    _restore,
    _skew_poly,
    _sym_poly,
    normalizing_constant,
)
from .specfn import _is_integer

__all__ = ["SamplerConfig", "rejection_bound", "density_ratio", "quantile", "sample"]

_METHODS = ("inverse_cdf", "rejection")
_MAX_REJECTION_ROUNDS = 10_000  # real draws need one round or two


@dataclass(frozen=True)
class SamplerConfig:
    """The method and seed of sample(); defaults give the inversion sampler, seed 0."""

    method: str = "inverse_cdf"
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}.")
        if not (_is_integer(self.seed) and 0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64).")


def rejection_bound() -> float:
    """Supremum of pdf / sym_pdf over z and alpha: (3 + 2 sqrt(2)) / 3."""
    return (3.0 + 2.0 * math.sqrt(2.0)) / 3.0


def density_ratio(alpha, z):
    """pdf(z; alpha) / sym_pdf(z; alpha); the shared constant cancels.

    That is ((1 - x)^2 + 1)^2 / (4 + 8 x^2 + x^4) with x = alpha z.  Where
    this form is not finite (|x| past about 1e77, where x^4 overflows, or
    alpha = 0 at z = +-inf) the ratio is formed in w = 1 / x as
    ((w - 1)^2 + w^2)^2 / (4 w^4 + 8 w^2 + 1), with w = 0 at z = +-inf: the
    limit 1 for every alpha.  A NaN z gives NaN.
    """
    alpha = _check_alpha(alpha)
    arr, scalar = _as_array(z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _skew_poly(alpha, arr) / _sym_poly(alpha, arr)
        far = ~np.isfinite(out)
        if far.any():
            far &= ~np.isnan(arr)
            zf = arr[far]
            w = np.where(np.isinf(zf), 0.0, 1.0 / (alpha * zf))
            w2 = w * w
            out[far] = ((w - 1.0) ** 2 + w2) ** 2 / ((4.0 * w2 + 8.0) * w2 + 1.0)
    return _restore(out, scalar)


# Bisection alone narrows a bracket of up to 2048 to an ulp in fewer steps.
_MAX_STEPS = 100


def _logit(f: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(f) - np.log1p(-f)


def quantile(dist, p):
    """Inverse cdf of any object exposing vectorised cdf(z) and pdf(z).

    One cdf call on a fixed grid brackets each p between two nodes (the
    bracket is doubled outward for p beyond the grid's cdf values), and
    interpolating the cdf in logit space between them gives the start.
    Safeguarded Newton steps on logit F(z) = logit p follow, with the pdf
    giving the derivative.  Every evaluation narrows the bracket, and a step
    that would leave it, meets pdf = 0, or fails to halve the step before
    last becomes a bisection.  Only points that have not converged are
    evaluated again.
    """
    arr, scalar = _as_array(p)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile requires 0 < p < 1.")
    p = arr.ravel()
    # one cdf call on this grid brackets every p; its spacing of 0.5 puts
    # each logit-interpolated start within a few hundredths of the root
    grid = np.linspace(-64.0, 64.0, 257)
    grid_cdf = dist.cdf(grid)
    i = np.clip(np.searchsorted(grid_cdf, p), 1, grid.size - 1)
    lo, hi = grid[i - 1], grid[i]
    f_lo, f_hi = grid_cdf[i - 1], grid_cdf[i]
    need = np.flatnonzero(f_lo >= p)
    while need.size:
        hi[need], f_hi[need] = lo[need], f_lo[need]
        lo[need] *= 2.0
        f_lo[need] = dist.cdf(lo[need])
        need = need[f_lo[need] >= p[need]]
    need = np.flatnonzero(f_hi < p)
    while need.size:
        lo[need], f_lo[need] = hi[need], f_hi[need]
        hi[need] *= 2.0
        f_hi[need] = dist.cdf(hi[need])
        need = need[f_hi[need] < p[need]]

    # F(lo) < p <= F(hi); start from the logit-linear interpolant
    l_lo, l_hi = _logit(f_lo), _logit(f_hi)
    t = np.full_like(p, 0.5)
    ok = np.flatnonzero(np.isfinite(l_lo) & np.isfinite(l_hi))
    t[ok] = (_logit(p[ok]) - l_lo[ok]) / (l_hi[ok] - l_lo[ok])
    q = lo + t * (hi - lo)

    lp = _logit(p)
    step = hi - lo
    before = step.copy()
    act = np.arange(p.size)
    for _ in range(_MAX_STEPS):
        if not act.size:
            break
        x = q[act]
        fx = dist.cdf(x)
        r = fx - p[act]
        dens = dist.pdf(x)
        a_lo = lo[act] = np.where(r < 0.0, x, lo[act])
        a_hi = hi[act] = np.where(r > 0.0, x, hi[act])
        # Newton on logit F(z) = logit p, which is near linear in both tails:
        # dx = num / dens with num = (logit F - logit p) F (1 - F).  Testing
        # |dx| <= hi - lo as a product keeps the division from overflowing.
        inner = (fx > 0.0) & (fx < 1.0)
        fi = np.where(inner, fx, 0.5)
        num = (_logit(fi) - lp[act]) * fi * (1.0 - fi)
        usable = inner & (dens > 0.0) & (np.abs(num) <= (a_hi - a_lo) * dens)
        dx = np.zeros_like(x)
        np.divide(num, dens, out=dx, where=usable)
        cand = x - dx
        # after a step this short the error is of the order of its square
        small = usable & (np.abs(dx) <= 1e-9 * (1.0 + np.abs(x)))
        newton = usable & (cand > a_lo) & (cand < a_hi) & (2.0 * np.abs(dx) <= before[act])
        before[act] = step[act]
        step[act] = np.where(newton, np.abs(dx), 0.5 * (a_hi - a_lo))
        q[act] = np.where(small, np.clip(cand, a_lo, a_hi),
                          np.where(newton, cand, 0.5 * (a_lo + a_hi)))
        # F(x) within one to two ulps of p, or four steps of the subnormal
        # grid below the smallest normal double: the cdf cannot place the
        # root better
        hit = np.abs(r) <= np.maximum(2.0**-52 * p[act], 4.0 * 2.0**-1074)
        q[act[hit]] = x[hit]
        done = small | hit | (a_hi - a_lo <= 4e-16 * (1.0 + np.abs(x)))
        act = act[~done]
    return _restore(q.reshape(arr.shape), scalar)


def _open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n)
    # rng.random lives on [0, 1); nudge an exact 0 into the open interval
    return np.where(u == 0.0, 2.0**-54, u)


def _envelope_weights(alpha: float) -> np.ndarray:
    """Half the integrals of 4, 8 a^2 z^2 and a^4 z^4 against e^-|z|."""
    a2 = alpha * alpha
    return np.array([4.0, 16.0 * a2, 24.0 * a2 * a2])


def _proposals(alpha: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m draws from the density proportional to (4 + 8 a^2 z^2 + a^4 z^4) e^-|z|."""
    w = _envelope_weights(alpha)
    k = rng.choice(3, m, p=w / w.sum())
    return rng.standard_gamma(2.0 * k + 1.0) * (2 * rng.integers(0, 2, m) - 1)


def sample(dist: StandardBaslg, n, cfg: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Draw n variates from dist under the configured method and seed.

    ``inverse_cdf`` draws from any law with a vectorised cdf and pdf (see
    ``quantile``); ``rejection`` is built on BASLG2's envelope, so any
    other ``dist`` than a ``StandardBaslg`` is a ValueError there.
    """
    if not (_is_integer(n) and n >= 0):
        raise ValueError(f"sample size must be a nonnegative integer, got {n!r}.")
    if cfg.method == "rejection" and not isinstance(dist, StandardBaslg):
        raise ValueError(f"the rejection sampler draws a StandardBaslg only, "
                         f"got {type(dist).__name__}.")
    rng = np.random.default_rng(int(cfg.seed))
    if cfg.method == "inverse_cdf":
        return np.asarray(quantile(dist, _open_uniform(rng, n)))

    alpha = dist.alpha
    bound = rejection_bound()
    rate = normalizing_constant(alpha) / (2.0 * bound * _envelope_weights(alpha).sum())
    out = np.empty(n)
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if filled >= n:
            break
        want = n - filled
        m = max(64, int(math.ceil(want / rate * 1.1)))
        z = _proposals(alpha, m, rng)
        u = rng.random(m)
        accepted = z[u * bound * (1.0 + np.exp(-np.abs(z))) ** 2 <= density_ratio(alpha, z)]
        take = accepted[:want]
        out[filled : filled + take.size] = take
        filled += take.size
    if filled < n:
        raise RuntimeError(f"rejection sampler exhausted {_MAX_REJECTION_ROUNDS} rounds.")
    return out
