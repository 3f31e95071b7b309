"""Random variate generation for BASLG2(alpha).

Two exact methods are provided.

* ``inverse_cdf``: numeric inversion of the closed-form cdf by bisection.
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

from .core import StandardBaslg, _as_array, _restore, _sym_poly, _skew_poly, normalizing_constant

__all__ = ["SamplerConfig", "rejection_bound", "density_ratio", "quantile", "sample"]

_METHODS = ("inverse_cdf", "rejection")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for sample(); defaults give the inversion sampler with seed 0."""

    method: str = "inverse_cdf"
    seed: int = 0
    max_rejection_rounds: int = 10_000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}.")
        if int(self.max_rejection_rounds) < 1:
            raise ValueError("max_rejection_rounds must be >= 1.")
        if int(self.seed) < 0 or int(self.seed) > 2**64 - 1:
            raise ValueError("seed must fit in an unsigned 64-bit integer.")


def rejection_bound() -> float:
    """Supremum of pdf / sym_pdf over z and alpha: (3 + 2 sqrt(2)) / 3."""
    return (3.0 + 2.0 * math.sqrt(2.0)) / 3.0


def density_ratio(alpha, z):
    """pdf(z; alpha) / sym_pdf(z; alpha); the shared constant cancels."""
    arr, scalar = _as_array(z)
    out = _skew_poly(float(alpha), arr) / _sym_poly(float(alpha), arr)
    return _restore(out, scalar)


def quantile(dist, p):
    """Inverse cdf of any object exposing vectorised cdf(z) and pdf(z).

    Bisection on a geometrically grown bracket narrows the root to ~1e-11,
    then a few Newton steps (pdf as the cdf derivative) polish the residual
    |cdf(q) - p| below 1e-12.
    """
    arr, scalar = _as_array(p)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile requires 0 < p < 1.")
    lo = np.full_like(arr, -1.0)
    hi = np.ones_like(arr)
    need = dist.cdf(lo) > arr
    while need.any():
        lo[need] *= 2.0
        need[need] = dist.cdf(lo[need]) > arr[need]
    need = dist.cdf(hi) < arr
    while need.any():
        hi[need] *= 2.0
        need[need] = dist.cdf(hi[need]) < arr[need]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        below = dist.cdf(mid) < arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    q = 0.5 * (lo + hi)
    for _ in range(3):
        step = (dist.cdf(q) - arr) / np.maximum(dist.pdf(q), 1e-300)
        q = np.clip(q - step, lo, hi)
    return _restore(q, scalar)


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
    """Draw n variates from dist under the configured method and seed."""
    n = int(n)
    if n < 0:
        raise ValueError("sample size must be nonnegative.")
    rng = np.random.default_rng(int(cfg.seed))
    if cfg.method == "inverse_cdf":
        return np.asarray(quantile(dist, _open_uniform(rng, n)))

    alpha = dist.alpha
    bound = rejection_bound()
    rate = normalizing_constant(alpha) / (2.0 * bound * _envelope_weights(alpha).sum())
    out = np.empty(n)
    filled = 0
    for _ in range(int(cfg.max_rejection_rounds)):
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
        raise RuntimeError("rejection sampler exhausted max_rejection_rounds.")
    return out
