"""Blocked evaluation of the vector pdf, cdf, sf and mgf, and of the extension laws.

``core._blocked`` runs each elementwise kernel over the slices that
``core._edges`` plans for an n-point input, on ``core._WORKERS`` threads.
Results must not depend on where the slices are cut or on which thread
runs them: a call on a multi-slice array equals, bit for bit, the same call
made on slices of at most 1000 points and concatenated.
"""

from __future__ import annotations

import contextvars
import threading
import tracemalloc

import numpy as np
import pytest

from baslg import core, specfn
from baslg.core import (_INLINE, _SLICE, StandardBaslg, SymmetricComponent, blg4_cdf, blg4_mgf,
                        blg4_pdf)
from baslg.extensions import AlphaBetaModel, BivariateModel, LogBaslgModel, TwoParamModel

# the inline threshold, then the first sizes at which one or two workers
# take more slices
STEPS = (_INLINE, 2 * _SLICE, 3 * _SLICE, 4 * _SLICE)
# both sides of each: one slice up to _INLINE - 1 points, then two to four
SIZES = tuple(sorted({n for s in STEPS for n in (s - 1, s, s + 1)}))
# both sides of every slice edge of every size, for one and two workers,
# which includes each size's last point
MARKS = sorted({i for n in SIZES for workers in (1, 2) for edge in core._edges(n, workers)
                for i in range(edge - 4, edge + 4) if 0 <= i < SIZES[-1]} | {0, 1})
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
    grid = BIVARIATE.pdf(Z[: 2 * _SLICE + 6].reshape(-1, 1), Z2[:3])
    assert grid.shape == (2 * _SLICE + 6, 3)
    np.testing.assert_array_equal(_bits(grid[:, 1]), _bits(BIVARIATE.pdf(Z[: 2 * _SLICE + 6], Z2[1])))


@pytest.mark.parametrize("workers", [1, 2])
def test_slice_plan(workers):
    sizes = ({0, 1, 2**15, 10**5, 150_000, 10**6, 10**7} | set(SIZES)
             | {k * _SLICE + d for k in range(1, 13) for d in (-1, 0, 1)})
    for n in sorted(sizes):
        edges = core._edges(n, workers)
        lengths = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n, n  # contiguous and covering
        assert lengths.max() - lengths.min() <= 1, n
        if n < _INLINE:
            assert edges == [0, n]
            continue
        assert len(lengths) % workers == 0, n
        assert lengths.min() >= 2**15, n
    assert core._edges(10**6, 2) == list(range(0, 10**6 + 1, 50_000))
    assert core._edges(10**5, 2) == [0, 50_000, 10**5]


def _count_starts(monkeypatch, fail=False):
    """Record each ``Thread.start`` call; with ``fail``, raise as when out of threads."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        if fail:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


@pytest.mark.parametrize("n", [10**5, 150_000, 10**6])
def test_log_scale_law_starts_one_set_of_helpers(monkeypatch, n):
    # A slice may hold up to 2 _SLICE - 1 points, so a base-law call inside
    # a slice would be sliced again and start its own helpers.
    monkeypatch.setattr(core, "_WORKERS", 2)
    x = np.exp(np.random.default_rng(9).uniform(-40.0, 40.0, n))
    x[:3] = (5e-324, 1.0, 1e300)
    base, law = StandardBaslg(-1.5), LogBaslgModel(-1.5)
    want = (base.pdf(np.log(x)) / x, base.cdf(np.log(x)))
    starts = _count_starts(monkeypatch)
    for fn, expected in zip((law.pdf, law.cdf), want):
        starts.clear()
        got = fn(x)
        assert len(starts) == core._WORKERS - 1
        np.testing.assert_array_equal(_bits(got), _bits(expected))


def test_log_scale_law_one_point_is_the_vector_point():
    law = LogBaslgModel(-1.5)
    x = X[:200]
    for fn in (law.pdf, law.cdf):
        want = fn(x)
        got = [fn(float(v)) for v in x]
        assert all(type(g) is float for g in got)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert fn(x[:1].reshape(1, 1)).shape == (1, 1)


def test_log_scale_law_nan():
    law = LogBaslgModel(-1.5)
    x = X.copy()
    x[7] = np.nan
    assert np.isnan(law.pdf(x)[7])
    with pytest.raises(ValueError, match="must not be NaN"):
        law.cdf(x)


@pytest.mark.parametrize("name", ["pdf", "cdf", "mgf"])
def test_helper_that_cannot_start_leaves_the_slices_to_the_caller(monkeypatch, name):
    monkeypatch.setattr(core, "_WORKERS", 2)
    fn, x = getattr(StandardBaslg(1.5), name), (T if name == "mgf" else Z)
    want = _bits(fn(x))
    threads = threading.active_count()
    starts = _count_starts(monkeypatch, fail=True)
    np.testing.assert_array_equal(_bits(fn(x)), want)
    assert len(starts) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["pdf", "cdf", "sf", "mgf"])
def test_shape_and_scalar_kept(name):
    fn = getattr(StandardBaslg(1.5), name)
    x = (T if name == "mgf" else Z)[: _INLINE + 6]
    grid = fn(x.reshape(2, _INLINE // 2 + 3))
    assert grid.shape == (2, _INLINE // 2 + 3)
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


WORKER_CALLS = {**CALLS, "BivariateModel.pdf": (lambda z: BIVARIATE.pdf(z, Z2), Z)}


@pytest.mark.parametrize("name", WORKER_CALLS)
def test_one_and_two_workers_give_the_same_bits(monkeypatch, name):
    fn, x = WORKER_CALLS[name]
    got = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        got.append(_bits(fn(x)))
    np.testing.assert_array_equal(got[0], got[1])


def _meeting_pdf_slices(monkeypatch, before_slice):
    """Patch the pdf kernel so that each thread's first slice waits for another thread's.

    ``before_slice(helper)`` runs ahead of every slice, with ``helper`` true
    off the calling thread.  Returns the list of thread ids that ran slices.
    """
    caller, seen = threading.get_ident(), []
    meet = threading.Barrier(2, timeout=10.0)
    kernel = core._density_block

    def slice_kernel(*args):
        me = threading.get_ident()
        if me not in seen:
            seen.append(me)
            meet.wait()
        before_slice(me != caller)
        return kernel(*args)

    monkeypatch.setattr(core, "_density_block", slice_kernel)
    return seen


def test_slices_run_on_two_threads(monkeypatch):
    if core._WORKERS < 2:
        pytest.skip("one CPU usable")
    d = StandardBaslg(1.5)
    want = d.pdf(Z)
    seen = _meeting_pdf_slices(monkeypatch, lambda helper: None)
    np.testing.assert_array_equal(_bits(d.pdf(Z)), _bits(want))
    assert len(set(seen)) == 2


class HelperFailed(Exception):
    pass


def test_helper_exception_reaches_the_caller(monkeypatch):
    def before_slice(helper):
        if helper:
            raise HelperFailed("raised in a helper's slice")

    monkeypatch.setattr(core, "_WORKERS", 2)
    seen = _meeting_pdf_slices(monkeypatch, before_slice)
    threads = threading.active_count()
    with pytest.raises(HelperFailed, match="helper's slice"):
        StandardBaslg(1.5).pdf(Z)
    assert len(seen) == 2
    assert threading.active_count() == threads


def test_helper_keeps_the_callers_errstate_and_buffer_size(monkeypatch):
    helper_state = []

    def before_slice(helper):
        if helper:
            helper_state.append((np.getbufsize(), np.geterr()))
            np.divide(np.ones(3), 0.0)

    monkeypatch.setattr(core, "_WORKERS", 2)
    _meeting_pdf_slices(monkeypatch, before_slice)

    def call():
        np.setbufsize(4096)  # in this context only
        with np.errstate(all="raise"):
            StandardBaslg(1.5).pdf(Z)

    # the caller's own slice of Z underflows under "raise" too, so the error
    # re-raised is whichever thread's comes first
    with pytest.raises(FloatingPointError):
        contextvars.copy_context().run(call)
    raise_all = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    assert helper_state == [(4096, raise_all)]


def test_concurrent_callers_get_the_sequential_bits():
    d = StandardBaslg(1.5)
    z = np.random.default_rng(7).uniform(-40.0, 40.0, 10**6)
    want = _bits(d.cdf(z))
    start = threading.Barrier(2, timeout=10.0)
    got = [None, None]

    def caller(i):
        start.wait()
        got[i] = _bits(d.cdf(z))

    users = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for user in users:
        user.start()
    for user in users:
        user.join()
    for g in got:
        np.testing.assert_array_equal(g, want)


def test_cached_tables_are_read_only():
    tables = [specfn._band_keys(), *specfn._coeff_rows((2, 3, 4)), *specfn._coeff_rows((2,)),
              *core._log_b_rows(4), *core._log_b_rows(2)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]
