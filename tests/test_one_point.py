"""One-point cdf and sf calls against the same points inside vector calls.

A Python float, a 0-d array or a one-point array of shape (1,) or (1, 1)
takes the one-point path (Python floats throughout, with
``specfn._li_point`` for the polylogs, so no band sort and no
``polylog_neg_exp`` call) and keeps its shape; longer inputs take the
sliced vector path.  Both must give the same bits at every point.
"""

from __future__ import annotations

import numpy as np
import pytest

from baslg import core, specfn
from baslg.core import _SLICE, StandardBaslg, SymmetricComponent, blg4_cdf

# a point inside every band of the polylog scheme, of both signs, the region
# edges, the subnormal band, the +-800 cut and what lies beyond it
EDGES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 25.0, 37.0, 40.0,
         708.4, 720.0, 745.0, 800.0, np.nextafter(800.0, np.inf), 800.5, 1e300, np.inf)
POINTS = np.array([s * v for v in EDGES for s in (1.0, -1.0)])
ALPHAS = (0.0, 0.47, -0.47, 1.5, -1.5, 1e3, -1e3, 1e70, -1e70)

CALLS = {
    f"{law.__name__}({a!r}).{name}": getattr(law(a), name)
    for law in (StandardBaslg, SymmetricComponent)
    for a in ALPHAS
    for name in ("cdf", "sf")
}
CALLS["blg4_cdf"] = blg4_cdf


def _embedded(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n points, mostly |z| < 40, holding POINTS at spread-out positions."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-40.0, 40.0, n)
    at = np.linspace(0, n - 1, POINTS.size).astype(int)
    z[at] = POINTS
    return z, at


SHORT = _embedded(1000, 1)
LONG = _embedded(4 * _SLICE + 11, 2)  # four slices on two workers, or on one


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", CALLS)
def test_one_point_is_bitwise_the_vector_point(name):
    fn = CALLS[name]
    for z, at in (SHORT, LONG):
        want = fn(z)[at]
        got_float = [fn(float(v)) for v in POINTS]
        got_0d = [fn(np.array(v)) for v in POINTS]
        got_1 = [fn(np.array([v])) for v in POINTS]
        got_11 = [fn(np.array([[v]])) for v in POINTS]
        assert all(type(g) is float for g in got_float + got_0d)
        assert all(g.shape == (1,) for g in got_1)
        assert all(g.shape == (1, 1) for g in got_11)
        np.testing.assert_array_equal(_bits(got_float), _bits(want))
        np.testing.assert_array_equal(_bits(got_0d), _bits(want))
        np.testing.assert_array_equal(_bits(np.concatenate(got_1)), _bits(want))
        np.testing.assert_array_equal(_bits(np.concatenate(got_11).ravel()), _bits(want))


# z in the upper subnormal band, (708.4, 800]: the tail there is below 1e-290,
# so the cdf at z and the sf at -z are exactly 1.0 whatever sum the band takes
DEEP_UPPER = np.array([np.nextafter(708.4, np.inf), 720.0, 745.0, 745.2, 780.0,
                       np.nextafter(800.0, 0.0), 800.0])


@pytest.mark.parametrize("name", CALLS)
def test_upper_subnormal_band_is_one(name):
    fn = CALLS[name]
    z = DEEP_UPPER if name.endswith("cdf") else -DEEP_UPPER
    assert np.all(fn(z) == 1.0)
    assert all(fn(float(v)) == 1.0 for v in z)
    assert all(fn(np.array([v]))[0] == 1.0 for v in z)


def test_one_point_skips_the_band_sort(monkeypatch):
    def refuse(what):
        def fail(*args):
            raise AssertionError(f"{what} ran")
        return fail

    monkeypatch.setattr(specfn, "_partition", refuse("the band partition"))
    monkeypatch.setattr(core, "polylog_neg_exp", refuse("polylog_neg_exp"))
    d = StandardBaslg(1.5)
    for v in (-30.0, -0.5, 0.0, 2.5, 700.0, 720.0):
        d.cdf(v)
        d.sf(np.array([v]))
    with pytest.raises(AssertionError, match="polylog_neg_exp"):
        d.cdf(np.array([-1.0, 1.0]))


def test_only_the_public_polylog_inverts(monkeypatch):
    # the laws call the polylog at -|z| <= 0, so no cdf or sf reaches the
    # inversion, whatever the sign of z; a public call at z >= 1 does
    def refuse(*args):
        raise AssertionError("the inversion ran")

    monkeypatch.setattr(specfn, "_invert", refuse)
    z = np.array([s * v for v in (1.0, 37.0, 800.0, np.inf) for s in (1.0, -1.0)])
    for name, fn in CALLS.items():
        fn(z)
        for v in z:
            fn(float(v))
            fn(np.array([v]))
    specfn.polylog_neg_exp((2, 3, 4), np.array([0.5, -1.0, -37.0, -np.inf]))
    for call in (lambda: specfn.polylog_neg_exp(2, 1.5),
                 lambda: specfn.polylog_neg_exp((2, 3, 4), np.array([-3.0, 1.0])),
                 lambda: specfn.polylog(4, -np.e)):
        with pytest.raises(AssertionError, match="the inversion ran"):
            call()

