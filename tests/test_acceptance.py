"""Acceptance gate: one test per stated criterion with a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist;
each test prints ``[acceptance] criterion NN slug: PASS|FAIL (detail)``
and then asserts.  Time budgets are checked alongside the numerical
tolerances.  The two datasets that are not redistributable skip with
fetch instructions instead of failing.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import dblquad, quad
from scipy.optimize import minimize_scalar
from scipy.stats import ks_1samp

import baslg.core
from baslg import (
    AlphaBetaModel,
    BivariateModel,
    LocScaleModel,
    LogBaslgModel,
    OptimizerConfig,
    SamplerConfig,
    StandardBaslg,
    SymmetricComponent,
    TwoParamModel,
    compare_models,
    density_ratio,
    fit_mle,
    lr_test,
    polylog,
    quantile,
    rejection_bound,
    sample,
)
from baslg.core import blg4_cdf, blg4_pdf

from conftest import dataset_or_skip, galaxies, quad_cdf, quad_expect

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(number: str, slug: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {slug}: {status} ({detail})")
    assert ok, f"criterion {number} {slug}: {detail}"


def test_criterion_01_polylog_anchors():
    t0 = time.perf_counter()
    zeta3 = 1.2020569031595943
    targets = {
        2: -math.pi**2 / 12,
        3: -0.75 * zeta3,
        4: -7 * math.pi**4 / 720,
    }
    worst = max(
        abs(polylog(n, -1.0) - want) / abs(want) for n, want in targets.items()
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("01", "polylog-anchors", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s < 1s")


def test_criterion_02_normalization():
    t0 = time.perf_counter()
    base_err = 0.0
    for alpha in (-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0):
        total = quad(StandardBaslg(alpha).pdf, -200.0, 200.0, limit=400)[0]
        base_err = max(base_err, abs(total - 1.0))

    ext_err = 0.0
    for pdf in (TwoParamModel(0.5, -1.0).pdf, AlphaBetaModel(1.0, 0.3).pdf):
        total = (
            quad(pdf, -300.0, 0.0, limit=600)[0] + quad(pdf, 0.0, 300.0, limit=600)[0]
        )
        ext_err = max(ext_err, abs(total - 1.0))
    log_model = LogBaslgModel(1.0)
    total = (
        quad(lambda x: float(log_model.pdf(x)), 0.0, 1.0, limit=600)[0]
        + quad(lambda x: float(log_model.pdf(x)), 1.0, np.inf, limit=600)[0]
    )
    ext_err = max(ext_err, abs(total - 1.0))
    biv = BivariateModel(0.5, 1.0, -0.7)
    total = dblquad(
        lambda z2, z1: float(biv.pdf(z1, z2)),
        -40.0, 40.0, -40.0, 40.0, epsabs=1e-8, epsrel=1e-8,
    )[0]
    ext_err = max(ext_err, abs(total - 1.0))

    elapsed = time.perf_counter() - t0
    ok = base_err <= 1e-8 and ext_err <= 1e-6 and elapsed < 30.0
    _report(
        "02", "normalization", ok,
        f"base err {base_err:.2e} <= 1e-8, extension err {ext_err:.2e} <= 1e-6, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_03_closed_forms_vs_quadrature():
    t0 = time.perf_counter()
    cdf_err = 0.0
    for alpha in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0):
        d = StandardBaslg(alpha)
        for z in (-30.0, -5.0, -0.8, 0.0, 0.7, 2.5, 10.0, 40.0):
            cdf_err = max(cdf_err, abs(d.cdf(z) - quad_cdf(d.pdf, z)))

    mgf_err = 0.0
    for alpha in (-2.0, 0.0, 0.7, 3.0):
        d = StandardBaslg(alpha)
        for t in (-0.9, -0.5, -0.2, -1e-3, 1e-3, 0.2, 0.5, 0.9):
            want = quad_expect(d.pdf, lambda z: np.exp(t * z))
            mgf_err = max(mgf_err, abs(d.mgf(t) - want) / abs(want))

    mom_err = 0.0
    for alpha in (-2.0, -0.5, 0.7, 3.0):
        d = StandardBaslg(alpha)
        for k in range(1, 7):
            want = quad_expect(d.pdf, lambda z: z**k)
            mom_err = max(mom_err, abs(d.raw_moment(k) - want) / max(abs(want), 1e-2))

    elapsed = time.perf_counter() - t0
    ok = cdf_err <= 1e-10 and mgf_err <= 1e-6 and mom_err <= 1e-8 and elapsed < 120.0
    _report(
        "03", "closed-forms-vs-quadrature", ok,
        f"cdf {cdf_err:.2e} <= 1e-10, mgf rel {mgf_err:.2e} <= 1e-6, "
        f"moments rel {mom_err:.2e} <= 1e-8, {elapsed:.1f}s < 2min",
    )


def test_criterion_04_moment_ranges():
    t0 = time.perf_counter()

    def stats(alpha):
        return StandardBaslg(alpha).moment_set()

    opts = {"xatol": 1e-8}
    mean_min = minimize_scalar(
        lambda a: stats(a).raw1, bounds=(0.1, 3.0), method="bounded", options=opts
    ).fun
    beta1_max = -minimize_scalar(
        lambda a: -stats(a).beta1, bounds=(0.1, 3.0), method="bounded", options=opts
    ).fun
    beta2_max = -minimize_scalar(
        lambda a: -stats(a).beta2, bounds=(0.1, 3.0), method="bounded", options=opts
    ).fun
    var_min = stats(0.0).variance
    tail = stats(1e4)

    checks = {
        "mean extreme -2.9077": abs(mean_min - (-2.9077)),
        "variance min 3.28987": abs(var_min - 3.28987),
        "variance sup 31.2202": abs(tail.variance - 31.2202),
        "beta1 max 1.3945": abs(beta1_max - 1.3945),
        "beta2 max 6.87571": abs(beta2_max - 6.87571),
        "beta2 inf 1.81315": abs(tail.beta2 - 1.81315),
    }
    worst_name, worst = max(checks.items(), key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(
        "04", "moment-ranges", ok,
        f"worst |err| {worst:.2e} at '{worst_name}', {elapsed:.1f}s < 1min",
    )


def test_criterion_05_mode_dichotomy():
    t0 = time.perf_counter()
    failures = []
    for alpha in (0.0, 0.1, -0.1, 0.3, -0.3, 0.47, -0.47):
        if StandardBaslg(alpha).mode_report().mode_count != 1:
            failures.append(f"alpha={alpha} not unimodal")
    for alpha in (0.49, -0.49, 1.0, -1.0, 5.0, -5.0, 100.0, -100.0):
        if StandardBaslg(alpha).mode_report().mode_count != 2:
            failures.append(f"alpha={alpha} not bimodal")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(
        "05", "mode-dichotomy", ok,
        (f"{len(failures)} misclassified: {failures}" if failures else "15 shapes classified")
        + f", {elapsed:.1f}s < 10s",
    )


def test_criterion_06_limit_law():
    t0 = time.perf_counter()
    d = StandardBaslg(1e4)
    z = np.linspace(-10.0, 10.0, 2001)
    sup_pdf = float(np.max(np.abs(d.pdf(z) - blg4_pdf(z))))
    sup_cdf = float(np.max(np.abs(d.cdf(z) - blg4_cdf(z))))
    elapsed = time.perf_counter() - t0
    ok = sup_pdf <= 1e-3 and sup_cdf <= 1e-3 and elapsed < 10.0
    _report(
        "06", "limit-law", ok,
        f"sup pdf {sup_pdf:.2e}, sup cdf {sup_cdf:.2e} <= 1e-3, {elapsed:.1f}s < 10s",
    )


def test_criterion_07_samplers():
    t0 = time.perf_counter()
    bound = rejection_bound()

    violations = 0
    for alpha in (0.5, -0.5, 2.0, -2.0, 10.0, -10.0):
        r = density_ratio(alpha, np.linspace(-60.0, 60.0, 100_000))
        violations += int(np.sum(r > bound + 1e-12))

    min_p = 1.0
    for alpha in (0.0, 1.5, -3.0):
        d = StandardBaslg(alpha)
        for method in ("inverse_cdf", "rejection"):
            x = sample(d, 10_000, SamplerConfig(method=method, seed=42))
            min_p = min(min_p, ks_1samp(x, lambda q: d.cdf(q)).pvalue)

    envelope = SymmetricComponent(1.5)
    rng = np.random.default_rng(314)
    y = quantile(envelope, rng.random(100_000) * (1.0 - 2e-16) + 1e-16)
    rate = float(np.mean(rng.random(100_000) * bound <= density_ratio(1.5, y)))
    rate_err = abs(rate - 1.0 / bound)

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and min_p > 0.01 and rate_err <= 0.02 and elapsed < 60.0
    _report(
        "07", "samplers", ok,
        f"{violations} bound violations, min KS p {min_p:.3f} > 0.01, "
        f"acceptance rate err {rate_err:.4f} <= 0.02, {elapsed:.1f}s < 1min",
    )


def _dataset_checks(values, lr_target, lr_tol):
    rows = compare_models(values)
    ranking_ok = rows[0].family == "baslg2" and all(r.ok for r in rows)
    by_family = {r.family: r for r in rows}
    stat = lr_test(values, null_fit=by_family["lg"], full_fit=by_family["baslg2"]).statistic
    lr_ok = abs(stat - lr_target) <= lr_tol
    return rows, ranking_ok, stat, lr_ok


def test_criterion_08a_galaxies():
    t0 = time.perf_counter()
    values = galaxies().values
    rows, ranking_ok, stat, lr_ok = _dataset_checks(values, 27.5838, 1.0)
    by_family = {r.family: r for r in rows}
    full = by_family["baslg2"]
    ll_ok = abs(full.log_l - (-219.86)) <= 0.5
    aic_ok = abs(full.aic - 445.716) <= 1.0
    lg_ok = abs(by_family["lg"].log_l - (-233.65)) <= 0.1
    elapsed = time.perf_counter() - t0
    ok = ranking_ok and ll_ok and aic_ok and lg_ok and lr_ok and elapsed < 300.0
    _report(
        "08a", "galaxies-reproduction", ok,
        f"baslg2 logL {full.log_l:.3f} (target -219.86 +/- 0.5), "
        f"AIC {full.aic:.3f} (445.716 +/- 1.0), "
        f"lg logL {by_family['lg'].log_l:.3f} (-233.65 +/- 0.1), "
        f"LR {stat:.3f} (27.5838 +/- 1.0), baslg2 first: {ranking_ok}, "
        f"{elapsed:.1f}s < 5min",
    )


def test_criterion_08b_lakes():
    values = dataset_or_skip("lakes.txt").values
    t0 = time.perf_counter()
    _, ranking_ok, stat, lr_ok = _dataset_checks(values, 31.7894, 1.0)
    elapsed = time.perf_counter() - t0
    ok = ranking_ok and lr_ok and elapsed < 300.0
    _report(
        "08b", "lakes-reproduction", ok,
        f"LR {stat:.3f} (31.7894 +/- 1.0), baslg2 first: {ranking_ok}, "
        f"{elapsed:.1f}s < 5min",
    )


def test_criterion_08c_exchange():
    values = dataset_or_skip("exchange.txt").values
    t0 = time.perf_counter()
    _, ranking_ok, stat, lr_ok = _dataset_checks(values, 101.2184, 1.5)
    elapsed = time.perf_counter() - t0
    ok = ranking_ok and lr_ok and elapsed < 300.0
    _report(
        "08c", "exchange-reproduction", ok,
        f"LR {stat:.3f} (101.2184 +/- 1.5), baslg2 first: {ranking_ok}, "
        f"{elapsed:.1f}s < 5min",
    )


def test_criterion_09_simulation_consistency():
    t0 = time.perf_counter()
    truth = LocScaleModel(1.2, 5.0, 2.0)
    draws = truth.sample(2000, SamplerConfig(seed=17))
    fitted = fit_mle("baslg2", draws)
    rel = {
        "alpha": abs(fitted.params["alpha"] - 1.2) / 1.2,
        "mu": abs(fitted.params["mu"] - 5.0) / 5.0,
        "beta": abs(fitted.params["beta"] - 2.0) / 2.0,
    }
    recover_ok = max(rel.values()) <= 0.10

    rejections = 0
    for ss in np.random.SeedSequence(2024).spawn(20):
        rng = np.random.Generator(np.random.PCG64(ss))
        data = rng.logistic(0.0, 1.0, size=200)
        rejections += int(lr_test(data).reject_null)
    null_ok = rejections <= 2

    elapsed = time.perf_counter() - t0
    ok = recover_ok and null_ok and elapsed < 300.0
    _report(
        "09", "simulation-consistency", ok,
        f"max param rel err {max(rel.values()):.3f} <= 0.10, "
        f"null rejections {rejections}/20 <= 2, {elapsed:.1f}s < 5min",
    )


def test_criterion_10_erratum_documented():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    doc = baslg.core.__doc__ or ""
    readme_ok = "Errata" in readme or "ERRATA" in readme
    sign_ok = "Gamma(k+4)" in readme and "sign" in readme
    module_ok = "Gamma(k+4)" in doc and "odd" in doc
    ok = readme_ok and sign_ok and module_ok
    _report(
        "10", "erratum-documented", ok,
        f"README errata section: {readme_ok}, odd-moment sign note: {sign_ok}, "
        f"module docstring note: {module_ok}",
    )
