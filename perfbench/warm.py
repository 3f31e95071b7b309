"""Set-up of one workload: import what it calls and warm each op once.

``setup_s`` is the spawn-to-exit time of ``python3 perfbench/warm.py
<workload>`` in a fresh interpreter; the benchmark process runs the same
``warm`` in-process before it times anything.  Inputs are tiny: the point
is first-call costs (imports, lru caches, lazy scipy loads), not work.
"""

from __future__ import annotations

import sys

import harness


def _closed_forms():
    import numpy as np

    import baslg

    z = np.linspace(-50.0, 50.0, 64)
    d = baslg.StandardBaslg(0.3)
    d.pdf(z), d.cdf(z), d.cdf(0.5), d.mgf(np.linspace(-0.5, 0.5, 8))
    baslg.quantile(d, np.linspace(0.1, 0.9, 8))
    for method in ("inverse_cdf", "rejection"):
        baslg.sample(d, 64, baslg.SamplerConfig(method=method))
    d.moment_set(), d.mode_report()
    baslg.blg4_pdf(z), baslg.blg4_cdf(z), baslg.blg4_mgf(0.1)
    baslg.TwoParamModel(0.5, -1.0).constant
    baslg.AlphaBetaModel(1.0, 0.3).constant
    baslg.BivariateModel(0.5, 1.0, 0.3).constant


def _fit():
    import baslg

    data = baslg.load_dataset(harness.ROOT / "data" / "galaxies.txt").values
    cfg = baslg.OptimizerConfig(restarts=1)
    for family in baslg.FAMILIES:
        baslg.fit_mle(family, data, cfg)
    baslg.lr_test(data, cfg)


def _cli():
    import baslg.cli  # noqa: F401 - the import is the set-up


WARM = {"closed_forms": _closed_forms, "fit": _fit, "cli": _cli}


def warm(workload: str) -> None:
    WARM[workload]()


if __name__ == "__main__":
    warm(sys.argv[1])
