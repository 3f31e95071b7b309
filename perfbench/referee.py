"""mpmath referees: quadrature of the densities, never the library's closed forms.

mpmath's ``quad`` stops on an absolute error test, so tail integrals are
taken relative to exp(-|z|) to keep the integrand of order one; without
that, a tail of size 1e-131 comes back with a relative error near 3e-4.
"""

from __future__ import annotations

import mpmath as mp

# cdf referee grid: every shape regime of both signs, both tails, the three
# polylog regions (z <= -1, |z| < 1, z >= 1) and the +-745 cut-off.
CDF_ALPHAS = (-1e3, -20.0, -3.0, -0.48, -0.2, 0.0, 0.3, 0.47, 1.5, 20.0, 1e3)
CDF_ZS = (-800.0, -745.5, -700.0, -300.0, -40.0, -5.0, -1.5, -1.0, -0.6, 0.0,
          0.6, 1.0, 1.5, 5.0, 40.0, 300.0, 700.0, 745.5, 800.0)


def _logistic(u):
    return 1 / (4 * mp.cosh(u / 2) ** 2)


def baslg_cdf(alpha: float, z: float, dps: int = 40):
    """F(z; alpha) of BASLG2 by quadrature of its unnormalised density."""
    with mp.workdps(dps):
        a, z = mp.mpf(alpha), mp.mpf(z)

        def weight(u):
            w = 1 - a * u
            return (w * w + 1) ** 2 * _logistic(u)

        kinks = [mp.mpf(0)] + ([1 / a] if alpha else [])

        def tail(sign):
            scale = mp.exp(-abs(z))
            breaks = sorted({sign * (p - z) for p in kinks if sign * (p - z) > 0})
            return mp.quad(lambda t: weight(z + sign * t) / scale, [0, *breaks, mp.inf]) * scale

        total = mp.quad(weight, [-mp.inf, *sorted(set(kinks)), mp.inf])
        return +(tail(-1) / total if z <= 0 else 1 - tail(+1) / total)


_BREAKS = [-mp.inf, -10, -1, 0, 1, 10, mp.inf]


def two_param_constant(a1: float, a2: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        a1, a2 = mp.mpf(a1), mp.mpf(a2)
        return float(mp.quad(
            lambda u: ((1 - a1 * u) ** 2 + 1) ** 2 * ((1 - a2 * u) ** 2 + 1) ** 2 * _logistic(u),
            _BREAKS,
        ))


def alpha_beta_constant(alpha: float, beta: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        return float(mp.quad(
            lambda u: ((1 - a * u - b * u**3) ** 2 + 1) ** 2 * _logistic(u), _BREAKS
        ))


def bivariate_constant(dep: float, a1: float, a2: float, dps: int = 30) -> float:
    """Integral of the Gumbel-based density via 1-D moment quadratures.

    ((1 - a1 z1 - a2 z2)^2 + 1)^2 expands into monomials z1^i z2^j, and the
    logistic product kernel with its 1 + dep tanh tanh factor splits each
    monomial's integral into m_i m_j + dep t_i t_j, where m_i = E[Z^i] and
    t_i = E[Z^i tanh(Z/2)] under the standard logistic law.
    """
    with mp.workdps(dps):
        line ={(0, 0): mp.mpf(1), (1, 0): -mp.mpf(a1), (0, 1): -mp.mpf(a2)}

        def mul(p, q):
            out = {}
            for (i, j), c in p.items():
                for (k, l), d in q.items():
                    out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
            return out

        sq = mul(line, line)
        sq[(0, 0)] += 1
        poly = mul(sq, sq)
        m = [mp.quad(lambda u, i=i: u**i * _logistic(u), _BREAKS) for i in range(5)]
        t = [mp.quad(lambda u, i=i: u**i * mp.tanh(u / 2) * _logistic(u), _BREAKS)
             for i in range(5)]
        dep = mp.mpf(dep)
        return float(sum(c * (m[i] * m[j] + dep * t[i] * t[j]) for (i, j), c in poly.items()))
