"""Rebuild ``reference.json``: mpmath cdf values and the recorded pool fits.

The cdf values are 40-digit quadratures at the fixed referee grid; the fit
section holds, for every pool dataset, its fingerprint and the
log-likelihood each family reaches with the default optimizer settings.
The ``fit`` workload fails a fit that ends more than 1e-6 below its
recorded value, so re-record only on purpose.

Usage (from the repository root, takes a few minutes):
    python3 perfbench/record.py
"""

from __future__ import annotations

import json

import harness
import referee
import wl_fit

from baslg import fit_mle


def cdf_section() -> list:
    return [
        [alpha, z, mpmath_str]
        for alpha in referee.CDF_ALPHAS
        for z in referee.CDF_ZS
        for mpmath_str in [str(referee.baslg_cdf(alpha, z))]
    ]


def fit_section() -> dict:
    out = {}
    for kind, size in wl_fit.POOL_SIZES.items():
        families = ("lg", "baslg2") if kind == "null" else wl_fit.FAMILIES
        rows = []
        for idx in range(size):
            data = wl_fit.pool_data(kind, idx)
            loglik = {fam: fit_mle(fam, data).log_l for fam in families}
            rows.append({"data": wl_fit.fingerprint(data), "loglik": loglik})
        out[kind] = rows
    return out


def main() -> int:
    reference = {"cdf": cdf_section(), "fits": fit_section()}
    path = harness.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
