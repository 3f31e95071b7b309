"""Workload ``closed_forms``: evaluate and draw across a seeded set of alphas.

The alpha set covers the unimodal regime, the 0.47-0.49 switch, moderate
and extreme shapes of both signs.  Vector calls on 1e5-1e6 points sit
beside scalar calls on Python floats, so a kernel change that trades
per-call overhead for array throughput shows on one side or the other.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.stats import ks_1samp

import harness
import referee
from harness import Op

import baslg.core
import baslg.extensions
import baslg.sampler

VECTOR_POINTS = 100_000
BIG_VECTOR_POINTS = 1_000_000
MGF_POINTS = 100_000
SCALAR_CALLS = 300
QUANTILE_POINTS = 10_000
INVERSE_DRAWS = 10_000
REJECTION_DRAWS = 5_000
# The bivariate dblquad costs 0.45-0.70 s depending on its parameters, a
# tenth of a pass, so its parameters are fixed rather than seeded.
BIVARIATE = (0.5, 1.0, 0.3)
ROUND_TRIP_TOL = 1e-12
CDF_RTOL, CDF_ATOL = 1e-10, 1e-300
CONSTANT_RTOL = {"two_param": 1e-9, "alpha_beta": 1e-9, "bivariate": 1e-6}
# Every run draws fresh batches, so the criterion-07 level (p > 0.01) would
# fail a correct sampler once per hundred batches; 1e-6 still rejects any
# batch whose law is visibly wrong at these sizes (KS distance > 0.03-0.04).
KS_MIN_P = 1e-6


def alphas(rng) -> dict[str, float]:
    def jitter(x):
        return float(x * rng.uniform(0.9, 1.1))

    sign = float(rng.choice([-1.0, 1.0]))
    return {
        "unimodal_a": float(rng.uniform(-0.46, 0.46)),
        "unimodal_b": float(rng.uniform(-0.46, 0.46)),
        "switch": sign * float(rng.uniform(0.47, 0.49)),
        "moderate_pos": float(rng.uniform(1.0, 5.0)),
        "moderate_neg": -float(rng.uniform(1.0, 5.0)),
        "extreme_pos": jitter(20.0),
        "extreme_neg": jitter(-20.0),
        "huge_pos": jitter(1e3),
        "huge_neg": jitter(-1e3),
    }


def z_points(rng, n: int) -> np.ndarray:
    """Mostly |z| < 40, with 2% in each far tail out past the +-745 cut-off."""
    tail = n // 50
    z = np.concatenate([
        rng.uniform(-40.0, 40.0, n - 2 * tail - 5),
        rng.uniform(-800.0, -40.0, tail),
        rng.uniform(40.0, 800.0, tail),
        [-745.0, -1.0, 0.0, 1.0, 745.0],
    ])
    return rng.permutation(z)


def _in_unit(out):
    out = np.asarray(out)
    return None if np.all((out >= 0.0) & (out <= 1.0)) else "cdf outside [0, 1] or NaN"


def _finite_nonneg(out):
    out = np.asarray(out)
    return None if np.all(np.isfinite(out) & (out >= 0.0)) else "non-finite or negative value"


def _finite_pos(out):
    out = np.asarray(out)
    return None if np.all(np.isfinite(out) & (out > 0.0)) else "non-finite or nonpositive value"


def _ks(dist):
    def check(draws):
        p = ks_1samp(draws, dist.cdf).pvalue
        return None if p > KS_MIN_P else f"KS p {p:.3g} <= {KS_MIN_P} against the closed-form cdf"

    return check


def _round_trip(dist, p):
    def check(q):
        worst = float(np.max(np.abs(dist.cdf(q) - p)))
        return None if worst <= ROUND_TRIP_TOL else f"|cdf(q) - p| reaches {worst:.3g}"

    return check


def _moments_ok(ms):
    vals = (ms.raw1, ms.raw2, ms.raw3, ms.raw4, ms.variance, ms.beta1, ms.beta2)
    return None if all(np.isfinite(vals)) and ms.variance > 0 else f"bad moment set {ms}"


def _modes(alpha):
    want = 1 if abs(alpha) < 0.47 else (2 if abs(alpha) > 0.49 else None)

    def check(report):
        if report.mode_count not in (1, 2):
            return f"{report.mode_count} modes"
        if want is not None and report.mode_count != want:
            return f"alpha {alpha!r} gives {report.mode_count} modes, expected {want}"
        return None

    return check


def _constant(want, rtol, erratum):
    def check(model):
        if abs(model.constant - want) > rtol * abs(want):
            return f"constant {model.constant!r} vs mpmath {want!r}"
        if erratum is not None and model.constant_erratum != erratum:
            return f"constant_erratum is {model.constant_erratum}, expected {erratum}"
        return None

    return check


def _fresh_constant(make):
    # a fresh model per call: the constant is a cached_property
    def call():
        model = make()
        model.constant
        return model

    return call


def _referee_ops() -> list[Op]:
    rows = json.loads((harness.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["cdf"]
    ops = []
    for alpha in referee.CDF_ALPHAS:
        pts = [(z, float(f)) for a, z, f in rows if a == alpha]
        z = np.array([p[0] for p in pts])
        want = np.array([p[1] for p in pts])
        dist = baslg.core.StandardBaslg(alpha)

        def check(got, want=want, z=z):
            bad = np.abs(got - want) > CDF_RTOL * np.abs(want) + CDF_ATOL
            return None if not bad.any() else (
                f"cdf off the mpmath referee at z = {z[bad].tolist()}")

        ops.append(Op(f"cdf.referee.{alpha!r}", "core", "referee",
                      lambda dist=dist, z=z: dist.cdf(z), check, size=z.size))
    return ops


def build(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    shapes = alphas(rng)
    dists = {label: baslg.core.StandardBaslg(a) for label, a in shapes.items()}
    z_small = z_points(rng, VECTOR_POINTS)
    z_big = z_points(rng, BIG_VECTOR_POINTS)
    t = rng.uniform(-0.99, 0.99, MGF_POINTS)
    labels = list(shapes)
    scalar = [(labels[i % len(labels)], float(z))
              for i, z in enumerate(z_points(rng, SCALAR_CALLS))]
    p = rng.random(QUANTILE_POINTS) * (1.0 - 2e-16) + 1e-16
    seeds = [int(s) for s in rng.integers(0, 2**32, 4)]

    ops = []
    for label, z in (("moderate_pos", z_big), ("unimodal_a", z_small), ("switch", z_small),
                     ("extreme_neg", z_small), ("huge_neg", z_small)):
        ops.append(Op(f"cdf.vector.{label}", "core", "cdf_vector",
                      lambda dist=dists[label], z=z: dist.cdf(z), _in_unit, size=z.size))
    for label, dist in dists.items():
        ops.append(Op(f"pdf.vector.{label}", "core", "pdf",
                      lambda dist=dist: dist.pdf(z_big), _finite_nonneg, size=z_big.size))
    for label in ("moderate_neg",):
        ops.append(Op(f"mgf.vector.{label}", "core", "mgf",
                      lambda dist=dists[label]: dist.mgf(t), _finite_pos, size=t.size))
    for label, z in scalar:
        ops.append(Op(f"cdf.scalar.{label}", "core", "cdf_scalar",
                      lambda dist=dists[label], z=z: dist.cdf(z), _in_unit))
    ops += _referee_ops()
    for label in ("switch",):
        dist = dists[label]
        ops.append(Op(f"quantile.{label}", "sampler", "quantile",
                      lambda dist=dist: baslg.sampler.quantile(dist, p),
                      _round_trip(dist, p), size=p.size))
    for (method, n), label, seed_ in zip(
            [("inverse_cdf", INVERSE_DRAWS)] * 2 + [("rejection", REJECTION_DRAWS)] * 2,
            ("unimodal_b", "huge_pos", "moderate_pos", "extreme_pos"), seeds):
        dist = dists[label]
        cfg = baslg.sampler.SamplerConfig(method=method, seed=seed_)
        ops.append(Op(f"sample.{method}.{label}", "sampler", f"sample_{method}",
                      lambda dist=dist, n=n, cfg=cfg: baslg.sampler.sample(dist, n, cfg),
                      _ks(dist), size=n))
    for label, dist in dists.items():
        ops.append(Op(f"moment_set.{label}", "core", "moments",
                      lambda dist=dist: dist.moment_set(), _moments_ok))
        ops.append(Op(f"mode_report.{label}", "core", "modes",
                      lambda dist=dist: dist.mode_report(), _modes(dist.alpha)))
    ops += [
        Op("blg4.pdf", "core", "pdf", lambda: baslg.core.blg4_pdf(z_small), _finite_nonneg,
           size=z_small.size),
        Op("blg4.cdf", "core", "cdf_vector", lambda: baslg.core.blg4_cdf(z_small), _in_unit,
           size=z_small.size),
        Op("blg4.mgf", "core", "mgf", lambda: baslg.core.blg4_mgf(t[:10_000]), _finite_pos,
           size=10_000),
    ]
    ops += _extension_ops(rng)
    return ops


def _extension_ops(rng) -> list[Op]:
    a1, a2 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
    alpha = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
    beta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5))
    specs = [
        ("two_param", lambda: baslg.extensions.TwoParamModel(a1, a2),
         referee.two_param_constant(a1, a2), None),
        ("alpha_beta", lambda: baslg.extensions.AlphaBetaModel(alpha, beta),
         referee.alpha_beta_constant(alpha, beta), True),
        ("bivariate", lambda: baslg.extensions.BivariateModel(*BIVARIATE),
         referee.bivariate_constant(*BIVARIATE), None),
    ]
    return [Op(f"constant.{name}", "extensions", "constant", _fresh_constant(make),
               _constant(want, CONSTANT_RTOL[name], erratum))
            for name, make, want, erratum in specs]
