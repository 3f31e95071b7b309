"""Bound the mean, variance, skewness beta1 and kurtosis beta2 of BASLG2(alpha)
over the shape parameter, by exact algebra in alpha.

Method.  Each coefficient c_j(alpha) of the density's polynomial is a
polynomial in alpha, and so is each moment sum S_k = sum_j c_j mu_(j+k);
``core._shape_ratios`` run on a polynomial alpha therefore gives each
functional as a ratio N / D of polynomials.  deg N <= deg D, so N = q D + r
with q constant: q is the limit as |alpha| -> inf (the blg4 law's value, or
0 where N has the lower degree), and the stationary points are the real
roots of P = r'D - r D', which is N'D - N D' without its cancelling top
term.  They all lie within P's Cauchy bound R = 1 + max_i |p_i / p_n|
(1.2 to 2.4 here), so sign changes of P on ``--grid`` nodes over [-R, R]
bracket them and bisection refines them; ``np.roots`` is ill-conditioned
at beta1's degree 45.  The grid must separate the roots, which lie at least
0.19 apart.  Each value comes from ``StandardBaslg(alpha).moment_set()`` at
a stationary point or at +-A.

Bounds over all alpha (the variance and beta1 are even in alpha, the mean
odd, so each extreme away from 0 is attained at both signs):

    mean      inf -2.9077000 at alpha = 0.728029, sup 2.9077000 at -0.728029
    variance  inf pi^2/3 = 3.289868133696453 at 0,
              sup mu6/mu4 = 31.220177187119404 approached as |alpha| -> inf
    beta1     inf 0 at 0 (and at +-0.389317), sup 1.394497 at +-0.850218
    beta2     inf mu8 mu4/mu6^2 = 1.8131529656607697 approached as |alpha| -> inf,
              sup 6.875713 at +-0.560610

Output: tab-separated, floats by repr, '#' lines as headers.  The bounds
over [-A, A], then the line of |alpha| -> inf limits, then the bounds over
all alpha; a bound row reads ``functional  inf|sup  value  how  alpha``,
with how ``attained`` at that alpha, or ``approached`` and alpha ``inf``
for a limit as |alpha| -> inf.

Usage:
    python3 scripts/moment_bounds.py [--alpha-max 60] [--grid 4001]
"""

from __future__ import annotations

import argparse
import gc
import math

import numpy as np
from numpy.polynomial import Polynomial

from baslg import StandardBaslg
from baslg.core import _shape_ratios, _skew_coeffs

LABELS = {"raw1": "mean"}  # MomentSet field -> printed name
HEADER = "# functional\tbound\tvalue\thow\talpha"


def stationary_points(p: Polynomial, grid: int) -> np.ndarray:
    """The real roots of p, bracketed on ``grid`` nodes over its Cauchy bound."""
    r = 1.0 + np.max(np.abs(p.coef[:-1] / p.coef[-1]))
    x = np.linspace(-r, r, grid)
    x = 0.5 * (x - x[::-1])  # exactly symmetric, so 0 is a node or a midpoint
    y = p(x)
    i = np.flatnonzero(y[:-1] * y[1:] < 0.0)
    a, b, pa = x[i], x[i + 1], y[i]
    for _ in range(64):  # b keeps the root's side, an exact zero included
        m = 0.5 * (a + b)
        pm = p(m)
        left = pa * pm <= 0.0
        a, b, pa = np.where(left, a, m), np.where(left, m, b), np.where(left, pa, pm)
    return np.sort(np.concatenate([x[y == 0.0], b]))


def bound_rows(name: str, points) -> list[str]:
    """inf and sup of (alpha, value) points; alpha inf marks a limit."""
    rows = []
    for bound, pick in (("inf", min), ("sup", max)):
        at, value = pick(points, key=lambda point: point[1])
        how = "approached" if math.isinf(at) else "attained"
        rows.append(f"{LABELS.get(name, name)}\t{bound}\t{value!r}\t{how}\t{at!r}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha-max", type=float, default=60.0)
    parser.add_argument("--grid", type=int, default=4001)
    args = parser.parse_args()
    a_max = args.alpha_max
    if not 0.0 < a_max <= 1e70:  # also rejects nan; StandardBaslg takes |alpha| <= 1e70
        parser.error(f"--alpha-max must be in (0, 1e70], got {a_max!r}")
    if args.grid < 2:
        parser.error(f"--grid must be at least 2, got {args.grid}")

    ranged, labels, limits, overall = [], [], [], []
    for name, (num, den) in _shape_ratios(_skew_coeffs(Polynomial([0.0, 1.0]))).items():
        limit, rem = divmod(num, den)
        roots = stationary_points(rem.deriv() * den - rem * den.deriv(), args.grid)
        points = [(float(a), getattr(StandardBaslg(a).moment_set(), name)) for a in roots]
        edges = [(a, getattr(StandardBaslg(a).moment_set(), name)) for a in (-a_max, a_max)]
        ranged += bound_rows(name, [p for p in points if abs(p[0]) <= a_max] + edges)
        labels.append(LABELS.get(name, name))
        limits.append(float(limit.coef[0]))
        overall += bound_rows(name, points + [(math.inf, limits[-1])])

    print(f"# bounds over alpha in [{-a_max!r}, {a_max!r}]", HEADER, *ranged, sep="\n")
    print("# limits as |alpha| -> inf\n# limit\t" + "\t".join(labels))
    print("limit\t" + "\t".join(map(repr, limits)))
    print("# bounds over all alpha", HEADER, *overall, sep="\n")
    return 0


if __name__ == "__main__":
    # the import-time heap lives until exit; as baslg.cli.run does, keep the
    # collector, the interpreter's own at exit included, off it
    gc.freeze()
    raise SystemExit(main())
