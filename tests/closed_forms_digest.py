"""Digest of the closed-form vector calls, one sha256 line per call, for comparing two checkouts.

Not collected by pytest.  It evaluates the pdf, cdf, sf and mgf of
``StandardBaslg`` and ``SymmetricComponent`` at nine alphas on 1e6 points
(the pdf, cdf and sf on z out to +-900 with the infinities, zeros and the
subnormal band; the mgf on t out to +-(1 - 1e-6)), then ``blg4_pdf``,
``blg4_cdf`` and ``blg4_mgf``, ``TwoParamModel.pdf`` and
``AlphaBetaModel.pdf`` (their own polynomials through the subnormal band),
``LogBaslgModel.pdf`` and ``.cdf``, ``BivariateModel.pdf``, a 2e5-point
``quantile``, ``polylog_neg_exp`` on the finite z for the orders (2, 3, 4)
and for 2, 3 and 4 alone, and ``polylog((2, 3, 4), x)`` at
x = -e^clip(z, -700, 700), whose z >= 1 points take the inversion, and
``density_ratio`` at alpha = 0, 1.5, -20 and 1e70 on the z with
|z| <= 900, where its quotient of polynomials is finite.  Then
come cdf and sf calls of ``StandardBaslg`` on 1e4 and 1e5 points (one and
two slices), then one-point calls on Python floats at the polylog band
edges, the subnormal band and the +-800 cut, each edge of both signs with
its neighbouring doubles: cdf and sf of both laws, ``blg4_cdf``, and
``polylog_neg_exp`` for the orders (2, 3, 4) and for 2, 3 and 4 alone.
Then come 1e4 draws of ``sample`` by both methods at three alphas and two
seeds.  Last come the log-densities ``FAMILIES[f].logpdf`` of all six
families, with float parameters at scales 2.5, 1e-300 and 1e300 and with
(3, 1) parameter columns at scales 0.4, 1e-300 and 1e300, each on a 0-d
y and on a 1000-point grid, and ``models._log_ndtr`` on its edge points,
as one vector call and as one-point calls.  It prints the sha256 of each
result's shape and float64 bytes.
A change that should leave every value alone leaves this output byte for
byte the same:

    PYTHONPATH=src python tests/closed_forms_digest.py > after.txt
    (cd <other checkout> && PYTHONPATH=src python <this script>) > before.txt
    diff before.txt after.txt

It imports ``baslg`` from ``sys.path`` as usual, so set ``PYTHONPATH`` to
the ``src`` of the checkout under test.  The run takes about ten seconds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from baslg.core import StandardBaslg, SymmetricComponent, blg4_cdf, blg4_mgf, blg4_pdf
from baslg import models
from baslg.extensions import AlphaBetaModel, BivariateModel, LogBaslgModel, TwoParamModel
from baslg.sampler import SamplerConfig, density_ratio, quantile, sample
from baslg.specfn import polylog, polylog_neg_exp

ALPHAS = (0.0, 0.3, -0.47, 0.48, 1.5, -3.0, 20.0, -1e3, 1e70)
N = 10**6
Z_SPECIAL = (-np.inf, np.inf, -0.0, 0.0, -745.0, 745.0, -708.4, 708.4, -800.0, 800.0,
             np.nextafter(800.0, np.inf), -800.5, 1e300, -1e300, 5e-324)
T_SPECIAL = (-0.0, 0.0, 0.5, -0.5, 0.5000001, -0.4999999, 1e-300, 1.0 - 1e-6, -(1.0 - 1e-6))


def points(special, low, high, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(low, high, N)
    x[: len(special)] = special
    return x


Z = points(Z_SPECIAL, -40.0, 40.0, 1)
Z[100:100_100] = np.linspace(-900.0, 900.0, 100_000)
Z2 = points(Z_SPECIAL[::-1], -40.0, 40.0, 2)
T = points(T_SPECIAL, -0.999999, 0.999999, 3)
X = np.exp(np.clip(Z, -700.0, 700.0))
P = points((1e-300, 1e-12, 0.5, 1.0 - 1e-12), 0.0, 1.0, 4)[: 2 * 10**5]
P[P == 0.0] = 0.5
EDGES = np.array([np.nextafter(s * b, to)
                  for b in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 37.0, 708.4, 745.0, 800.0)
                  for s in (1.0, -1.0) for to in (-np.inf, s * b, np.inf)])

# the log-densities' data: a 0-d y and a grid with the zeros, the subnormal and
# the largest magnitudes; their float scales, and the rows of their columns
LOGPDF_Y0 = np.asarray(0.7)
LOGPDF_Y = np.linspace(-60.0, 60.0, 1000)
LOGPDF_Y[:6] = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)
LOGPDF_SCALES = (2.5, 1e-300, 1e300)
LOGPDF_COLUMNS = (np.array([[-3.0], [1.5], [-20.0]]),
                  np.array([[0.25], [-1.0], [3.0]]),
                  np.array([[0.4], [1e-300], [1e300]]))
NDTR_EDGES = tuple(s * v for v in (0.0, 1.0, 8.3, 37.4, 38.0, 1e300, np.inf, 5e-324)
                   for s in (1.0, -1.0)) + (np.nan,)


def logpdf_calls():
    """(name, call) of each family's log-density, then of ``_log_ndtr``."""
    for family, info in models.FAMILIES.items():
        shape = (1.5,) if info.n_params == 3 else ()
        params = [shape + (0.25, scale) for scale in LOGPDF_SCALES]
        params.append(LOGPDF_COLUMNS[3 - info.n_params:])
        for p in params:
            label = p if isinstance(p[-1], float) else "columns"
            for y in (LOGPDF_Y0, LOGPDF_Y):
                yield (f"FAMILIES[{family!r}].logpdf({label}, y{y.shape})",
                       lambda f=info.logpdf, p=p, y=y: f(p, y))
    yield "_log_ndtr(edge)", lambda: models._log_ndtr(np.array(NDTR_EDGES))
    yield "_log_ndtr(one-point edge)", lambda: [models._log_ndtr(v) for v in NDTR_EDGES]


def calls():
    """(name, zero-argument call) of every digested call."""
    for law in (StandardBaslg, SymmetricComponent):
        for a in ALPHAS:
            d = law(a)
            for name in ("pdf", "cdf", "sf"):
                yield f"{law.__name__}({a!r}).{name}", lambda f=getattr(d, name): f(Z)
            yield f"{law.__name__}({a!r}).mgf", lambda f=d.mgf: f(T)
    yield "blg4_pdf", lambda: blg4_pdf(Z)
    yield "blg4_cdf", lambda: blg4_cdf(Z)
    yield "blg4_mgf", lambda: blg4_mgf(T)
    yield "TwoParamModel(0.5, -1.0).pdf", lambda: TwoParamModel(0.5, -1.0).pdf(Z)
    yield "AlphaBetaModel(1.0, 0.3).pdf", lambda: AlphaBetaModel(1.0, 0.3).pdf(Z)
    yield "LogBaslgModel(-1.5).pdf", lambda: LogBaslgModel(-1.5).pdf(X)
    yield "LogBaslgModel(-1.5).cdf", lambda: LogBaslgModel(-1.5).cdf(X)
    yield "BivariateModel(0.5, 1.0, 0.3).pdf", lambda: BivariateModel(0.5, 1.0, 0.3).pdf(Z, Z2)
    yield "quantile(StandardBaslg(1.5))", lambda: quantile(StandardBaslg(1.5), P)
    yield "polylog_neg_exp((2, 3, 4))", lambda: polylog_neg_exp((2, 3, 4), Z[Z < np.inf])
    for n in (2, 3, 4):
        yield f"polylog_neg_exp({n})", lambda n=n: polylog_neg_exp(n, Z[Z < np.inf])
    yield "polylog((2, 3, 4))", lambda: polylog((2, 3, 4), -X)
    for a in (0.0, 1.5, -20.0, 1e70):
        yield f"density_ratio({a!r})", lambda a=a: density_ratio(a, Z[np.abs(Z) <= 900.0])
    for n in (10**4, 10**5):
        for a in ALPHAS:
            d = StandardBaslg(a)
            for name in ("cdf", "sf"):
                yield (f"StandardBaslg({a!r}).{name}[:{n}]",
                       lambda f=getattr(d, name), n=n: f(Z2[:n]))
    for law in (StandardBaslg, SymmetricComponent):
        for a in ALPHAS:
            for name in ("cdf", "sf"):
                yield (f"{law.__name__}({a!r}).{name}(edge)",
                       lambda f=getattr(law(a), name): [f(float(v)) for v in EDGES])
    yield "blg4_cdf(edge)", lambda: [blg4_cdf(float(v)) for v in EDGES]
    yield ("polylog_neg_exp((2, 3, 4), edge)",
           lambda: [polylog_neg_exp((2, 3, 4), float(v)) for v in EDGES])
    for n in (2, 3, 4):
        yield (f"polylog_neg_exp({n}, edge)",
               lambda n=n: [polylog_neg_exp(n, float(v)) for v in EDGES])
    for method in ("inverse_cdf", "rejection"):
        for a in (0.0, 1.5, -20.0):
            for seed in (0, 1):
                cfg = SamplerConfig(method=method, seed=seed)
                yield (f"sample(StandardBaslg({a!r}), {method}, seed={seed})",
                       lambda d=StandardBaslg(a), cfg=cfg: sample(d, 10**4, cfg))
    yield from logpdf_calls()


def main() -> None:
    for name, call in calls():
        # a scale of 1e-300 overflows the residuals' squares, as it should
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.ascontiguousarray(call(), dtype=np.float64)
        digest = hashlib.sha256(repr(out.shape).encode() + out.tobytes()).hexdigest()
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
