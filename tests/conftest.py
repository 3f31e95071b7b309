"""Shared oracles and dataset plumbing for the suite.

Quadrature here is the independent referee for every closed form: tests
never compare an implementation against itself when an adaptive integral
of the density can arbitrate instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import baslg.fit
from baslg import Dataset, load_dataset

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# datasets that must be fetched by hand: name -> (n, value band)
EXTERNAL_DATASETS = {
    "lakes.txt": (69, (0.0, 80.0)),
    "exchange.txt": (204, (0.5, 13.0)),
}


def quad_cdf(pdf, z: float, lower: float = -300.0) -> float:
    return quad(pdf, lower, z, limit=600)[0]


def quad_expect(pdf, fn=None, lo: float = -300.0, hi: float = 300.0) -> float:
    """Integral of fn(z) * pdf(z), split at 0 where these densities kink."""
    if fn is None:
        integrand = pdf
    else:
        def integrand(z):
            return fn(z) * pdf(z)
    left = quad(integrand, lo, 0.0, limit=600)[0]
    right = quad(integrand, 0.0, hi, limit=600)[0]
    return left + right


def galaxies() -> Dataset:
    return load_dataset(DATA_DIR / "galaxies.txt")


def dataset_or_skip(name: str) -> Dataset:
    """Load a hand-fetched dataset, skipping with instructions when absent.

    Files that exist but do not match the documented shape also skip: a
    wrong file would make the reproduction targets meaningless.
    """
    path = DATA_DIR / name
    if not path.is_file():
        pytest.skip(f"{path} not present; see data/README.md for fetch instructions")
    ds = load_dataset(path)
    n, (lo, hi) = EXTERNAL_DATASETS[name]
    if ds.n != n:
        pytest.skip(f"{path} has {ds.n} rows, expected {n}; see data/README.md")
    if ds.values.min() < lo or ds.values.max() > hi:
        pytest.skip(f"{path} values outside the documented band [{lo}, {hi}]")
    return ds


@pytest.fixture(autouse=True)
def _stop_fit_worker():
    """Stop the kept fit worker after each test.  The worker runs the code it
    was forked with, so each test that patches baslg meets no worker forked
    before its patch."""
    yield
    baslg.fit._stop_worker()


@pytest.fixture
def galaxies_data() -> np.ndarray:
    return galaxies().values


def command(target: str, *args: str) -> str:
    """Code that runs ``python -m target args`` (or the script ``target``) to exit 0."""
    if target.endswith(".py"):
        run = f"runpy.run_path({target!r}, run_name='__main__')"
    else:
        run = f"runpy.run_module({target!r}, run_name='__main__', alter_sys=True)"
    return (
        "import runpy, sys\n"
        f"sys.argv = {[target, *args]!r}\n"
        "try:\n"
        f"    {run}\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code"
    )
