"""Digest of every benchmark fit, one line per fit, for comparing two checkouts.

Not collected by pytest.  It fits every family on the bundled galaxies
data and on every member of the ``fit`` benchmark's dataset pools
(``perfbench/wl_fit.pool_data``: 32 alt, 16 large and 64 null members),
678 fits in all, with the default ``OptimizerConfig``, and prints for each
the ``repr`` of logL and of every parameter, ``nfev``, ``restarts_used``
and ``converged``.  A change that should leave the fits alone leaves this
output byte for byte the same:

    PYTHONPATH=src python tests/fit_digest.py > after.txt
    (cd <other checkout> && PYTHONPATH=src python <this script>) > before.txt
    diff before.txt after.txt

It imports ``baslg`` from ``sys.path`` as usual, so set ``PYTHONPATH`` to
the ``src`` of the checkout under test; the pools come from the
``perfbench`` directory next to this file, whose data do not depend on
``baslg``.  The whole run takes a few minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from baslg.data import load_dataset  # noqa: E402
from baslg.fit import fit_mle  # noqa: E402
from wl_fit import FAMILIES, POOL_SIZES, pool_data  # noqa: E402


def datasets():
    """(name, values) of every dataset the fit benchmark draws from."""
    yield "galaxies", load_dataset(ROOT / "data" / "galaxies.txt").values
    for kind, size in POOL_SIZES.items():
        for idx in range(size):
            yield f"{kind}{idx}", pool_data(kind, idx)


def digest(name, family, values) -> str:
    res = fit_mle(family, values)
    params = " ".join(f"{key}={val!r}" for key, val in res.params.items())
    return (f"{name} {family} logL={res.log_l!r} {params} nfev={res.nfev} "
            f"restarts_used={res.restarts_used} converged={res.converged}")


def main() -> None:
    for name, values in datasets():
        for family in FAMILIES:
            print(digest(name, family, values), flush=True)


if __name__ == "__main__":
    main()
