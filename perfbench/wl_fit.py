"""Workload ``fit``: fit_mle for all six families, plus lr_test on null data.

Datasets come from fixed numpy pools (``rng.logistic`` for the null and
the large set, ``rng.gumbel`` for the skewed alternative); the run's seed
and the pass index only pick which pool members a pass fits.  No data comes
from ``baslg.sample``, so a sampler change cannot move this workload.  The pools
are fixed because each fit's log-likelihood is checked against its value
recorded in ``reference.json``; ``record.py`` rebuilds that file.
"""

from __future__ import annotations

import json
import math

import numpy as np

import harness
from harness import Op

import baslg.data
import baslg.fit

FAMILIES = ("n", "lg", "la", "sn", "aslg", "baslg2")
POOL_SIZES = {"alt": 32, "large": 16, "null": 64}
NULL_PER_RUN = 10
# large fits are numpy-bound, so their time scales with n: one fixed n keeps
# wall_s from following whichever pool member a seed picks
LARGE_N = 2500
LOGLIK_SLACK = 1e-6
_KIND_CODE = {"alt": 1, "large": 2, "null": 3}
_POOL_ENTROPY = 1906_04125

# criterion 08a bands on the bundled galaxies data
GALAXIES_BANDS = {"baslg2": (-219.86, 0.5), "lg": (-233.65, 0.1)}
GALAXIES_AIC = (445.716, 1.0)
GALAXIES_LR = (27.5838, 1.0)


def pool_data(kind: str, idx: int) -> np.ndarray:
    rng = np.random.default_rng([_POOL_ENTROPY, _KIND_CODE[kind], idx])
    if kind == "null":
        return rng.logistic(0.0, 1.0, 200)
    loc, scale = rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0)
    if kind == "alt":
        return rng.gumbel(loc, scale, int(rng.integers(82, 201)))
    return rng.logistic(loc, scale, LARGE_N)


def fingerprint(data: np.ndarray) -> list:
    return [int(data.size), repr(float(np.sum(data)))]


def load_reference() -> dict:
    return json.loads((harness.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["fits"]


def _loglik_check(recorded: dict, data: np.ndarray, family: str):
    def check(result):
        if not result.ok:
            return f"fit failed: {result.error}"
        if recorded["data"] != fingerprint(data):
            return "pool dataset differs from the recorded one"
        floor = recorded["loglik"][family] - LOGLIK_SLACK
        if not result.log_l >= floor:
            return f"{family} loglik {result.log_l!r} below recorded {floor!r}"
        return None

    return check


def _galaxies_ops(galaxies: np.ndarray) -> list[Op]:
    seen: dict[str, object] = {}

    def check(family):
        def inner(result):
            seen[family] = result
            if not result.ok:
                return f"fit failed: {result.error}"
            if family in GALAXIES_BANDS:
                want, tol = GALAXIES_BANDS[family]
                if abs(result.log_l - want) > tol:
                    return f"galaxies {family} loglik {result.log_l!r} outside {want} +/- {tol}"
            if family == "baslg2":
                want, tol = GALAXIES_AIC
                if abs(result.aic - want) > tol:
                    return f"galaxies baslg2 AIC {result.aic!r} outside {want} +/- {tol}"
                lr = 2.0 * (result.log_l - seen["lg"].log_l)
                want, tol = GALAXIES_LR
                if abs(lr - want) > tol:
                    return f"galaxies LR {lr!r} outside {want} +/- {tol}"
            if len(seen) == len(FAMILIES):
                best = min(seen.values(), key=lambda r: (r.aic, r.bic, r.family))
                seen.clear()
                if best.family != "baslg2":
                    return f"galaxies AIC ranking puts {best.family} first"
            return None

        return inner

    return [
        Op(f"fit_mle.{fam}.galaxies", "fit", "fit",
           lambda fam=fam: baslg.fit.fit_mle(fam, galaxies), check(fam))
        for fam in FAMILIES
    ]


def _picks(rng, kind: str, count: int) -> list[int]:
    return [int(i) for i in rng.choice(POOL_SIZES[kind], count, replace=False)]


def build(seed: int, pass_index: int) -> list[Op]:
    """The op list of one pass: pool members drawn from ``[seed, pass_index]``.

    Each family is fitted on its own small and its own large member, so the
    costs of six picks, not one, add up in a pass.
    """
    rng = np.random.default_rng([seed, pass_index])
    ref = load_reference()
    alts = _picks(rng, "alt", len(FAMILIES))
    larges = _picks(rng, "large", len(FAMILIES))
    nulls = _picks(rng, "null", NULL_PER_RUN)
    galaxies_path = harness.ROOT / "data" / "galaxies.txt"

    ops = [Op("load_dataset.galaxies", "data", "load",
              lambda: baslg.data.load_dataset(galaxies_path),
              lambda ds: None if ds.n == 82 else f"galaxies has {ds.n} rows, expected 82")]
    ops += _galaxies_ops(baslg.data.load_dataset(galaxies_path).values)
    for kind, picks in (("alt", alts), ("large", larges)):
        for fam, idx in zip(FAMILIES, picks):
            data = pool_data(kind, idx)
            ops.append(Op(f"fit_mle.{fam}.{kind}{idx}", "fit", "fit",
                          lambda fam=fam, data=data: baslg.fit.fit_mle(fam, data),
                          _loglik_check(ref[kind][idx], data, fam)))
    for idx in nulls:
        data = pool_data("null", idx)
        null_check = _loglik_check(ref["null"][idx], data, "lg")
        full_check = _loglik_check(ref["null"][idx], data, "baslg2")

        def check(res, null_check=null_check, full_check=full_check):
            if not math.isfinite(res.statistic) or res.statistic < 0.0:
                return f"LR statistic {res.statistic!r} is not a finite nonnegative number"
            return null_check(res.null_fit) or full_check(res.full_fit)

        ops.append(Op(f"lr_test.null{idx}", "fit", "lrtest",
                      lambda data=data: baslg.fit.lr_test(data), check))
    return ops
