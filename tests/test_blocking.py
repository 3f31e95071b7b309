"""Blocked evaluation of the vector pdf, cdf, sf and mgf, and of the extension laws.

``core._blocked`` runs each elementwise kernel over n // ``core._BLOCK``
slices of an n-point input.  Results must not depend on where the slices
are cut: a call on a multi-block array equals, bit for bit, the same call
made on slices of at most 1000 points and concatenated.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from baslg import core
from baslg.core import _BLOCK, StandardBaslg, SymmetricComponent, blg4_cdf, blg4_mgf, blg4_pdf
from baslg.extensions import AlphaBetaModel, BivariateModel, LogBaslgModel, TwoParamModel

# one slice up to 2 _BLOCK - 1 points, then two and three
SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 7,
         3 * _BLOCK + 7)
# both sides of every slice edge (near multiples of _BLOCK), and each size's last point
MARKS = sorted({i for k in (1, 2, 3) for i in range(k * _BLOCK - 4, k * _BLOCK + 6)}
               | {n - 1 for n in SIZES} | {0, 1})
Z_SPECIAL = (-745.0, 745.0, -800.0, 800.0, -np.inf, np.inf, -0.0, 0.0, -745.1, 800.5)
T_SPECIAL = (-0.0, 0.0, 0.5, -0.5, 0.999999, -0.999999, 1e-300, -0.25, 0.75, 0.5000001)
SLICE = 1000


def _points(special, low, high, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(low, high, SIZES[-1])
    x[: len(special)] = special
    x[-len(special):] = special
    for i, mark in enumerate(MARKS):
        x[mark] = special[i % len(special)]
    return x


Z = _points(Z_SPECIAL, -40.0, 40.0, 13)
Z[100:200] = np.linspace(-900.0, 900.0, 100)  # the far tails and the subnormal band
T = _points(T_SPECIAL, -0.999, 0.999, 14)
# positive points for the log-scale law, e^z over |z| <= 700 and its edges
X = np.exp(np.clip(Z, -700.0, 700.0))
X[:3] = (5e-324, 1.0, 1e300)
Z2 = _points(Z_SPECIAL[::-1], -40.0, 40.0, 15)
BIVARIATE = BivariateModel(0.5, 1.0, 0.3)

ALPHAS = (0.0, 0.3, -1.5, 1e3)
CALLS = {
    f"{law.__name__}({a!r}).{name}": (getattr(law(a), name), T if name == "mgf" else Z)
    for law in (StandardBaslg, SymmetricComponent)
    for a in ALPHAS
    for name in ("pdf", "cdf", "sf", "mgf")
}
CALLS.update({
    "blg4_pdf": (blg4_pdf, Z),
    "blg4_cdf": (blg4_cdf, Z),
    "blg4_mgf": (blg4_mgf, T),
    "TwoParamModel.pdf": (TwoParamModel(0.5, -1.3).pdf, Z),
    "AlphaBetaModel.pdf": (AlphaBetaModel(1.0, 0.3).pdf, Z),
    "LogBaslgModel.pdf": (LogBaslgModel(-1.5).pdf, X),
    "LogBaslgModel.cdf": (LogBaslgModel(-1.5).cdf, X),
})


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", CALLS)
def test_blocks_are_bitwise_the_small_slices(name):
    fn, x = CALLS[name]
    want = np.concatenate([fn(x[i: i + SLICE]) for i in range(0, x.size, SLICE)])
    for n in SIZES:
        got = fn(x[:n])
        assert got.shape == (n,)
        np.testing.assert_array_equal(_bits(got), _bits(want[:n]), err_msg=f"{n} points")


def test_bivariate_blocks_are_bitwise_the_small_slices():
    want = np.concatenate([BIVARIATE.pdf(Z[i: i + SLICE], Z2[i: i + SLICE])
                           for i in range(0, Z.size, SLICE)])
    for n in SIZES:
        got = BIVARIATE.pdf(Z[:n], Z2[:n])
        assert got.shape == (n,)
        np.testing.assert_array_equal(_bits(got), _bits(want[:n]), err_msg=f"{n} points")
    # the two arguments are broadcast before they are sliced
    n = SIZES[-1]
    np.testing.assert_array_equal(_bits(BIVARIATE.pdf(Z[:n], 0.7)),
                                  _bits(BIVARIATE.pdf(Z[:n], np.full(n, 0.7))))
    grid = BIVARIATE.pdf(Z[: 2 * _BLOCK + 6].reshape(-1, 1), Z2[:3])
    assert grid.shape == (2 * _BLOCK + 6, 3)
    np.testing.assert_array_equal(_bits(grid[:, 1]), _bits(BIVARIATE.pdf(Z[: 2 * _BLOCK + 6], Z2[1])))


@pytest.mark.parametrize("name", ["pdf", "cdf", "sf", "mgf"])
def test_shape_and_scalar_kept(name):
    fn = getattr(StandardBaslg(1.5), name)
    x = (T if name == "mgf" else Z)[: 2 * _BLOCK + 6]
    grid = fn(x.reshape(2, _BLOCK + 3))
    assert grid.shape == (2, _BLOCK + 3)
    np.testing.assert_array_equal(_bits(grid.ravel()), _bits(fn(x)))
    assert fn(np.zeros((0, 3))).shape == (0, 3)
    out = fn(0.25)
    assert type(out) is float and out == fn(np.array([0.25]))[0]


@pytest.mark.parametrize("name,kernel", [("cdf", "_cdf_block"), ("sf", "_cdf_block"),
                                         ("mgf", "_mgf_block")])
def test_bad_argument_raises_before_any_block(monkeypatch, name, kernel):
    calls = []
    monkeypatch.setattr(core, kernel, lambda *args: calls.append(args))
    x = (T if name == "mgf" else Z).copy()
    x[-1] = np.nan
    match = "-1 < t < 1" if name == "mgf" else "must not be NaN"
    with pytest.raises(ValueError, match=match):
        getattr(StandardBaslg(0.3), name)(x)
    assert calls == []


PEAK_CALLS = {
    **{name: (getattr(StandardBaslg(1.5), name), "z") for name in ("pdf", "cdf", "sf")},
    "mgf": (StandardBaslg(1.5).mgf, "t"),
    "LogBaslgModel.pdf": (LogBaslgModel(1.5).pdf, "x"),
    "LogBaslgModel.cdf": (LogBaslgModel(1.5).cdf, "x"),
    "BivariateModel.pdf": (BIVARIATE.pdf, "z z"),
}


@pytest.mark.parametrize("name", PEAK_CALLS)
def test_peak_memory_stays_near_the_output(name):
    # Without blocking every array pass made a full-size temporary: 1e6-point
    # calls peaked at 34 / 60 / 68 / 138 MB (pdf, cdf, sf, mgf), 18-20 MB
    # (LogBaslgModel) and 73 MB (BivariateModel) against an 8 MB result.
    fn, kind = PEAK_CALLS[name]
    rng = np.random.default_rng(5)
    draw = {"z": lambda: rng.uniform(-40.0, 40.0, 10**6),
            "t": lambda: rng.uniform(-0.99, 0.99, 10**6),
            "x": lambda: np.exp(rng.uniform(-40.0, 40.0, 10**6))}
    args = [draw[k]() for k in kind.split()]
    fn(*(a[:10] for a in args))  # fill the coefficient caches outside the trace
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.nbytes, f"peak {peak / 1e6:.1f} MB"
