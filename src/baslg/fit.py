"""Maximum-likelihood fitting and model comparison.

The normal and Laplace MLEs have closed forms, (mean, population sd) and
(median, mean absolute deviation from the median), and ``fit_mle`` returns
them after one likelihood evaluation.  The other likelihood surfaces here
are cheap but multimodal in the shape parameter, so each restart runs a
short simulated-annealing walk over the parameter box and hands its best
point to a projected Newton polish on a central-difference stencil (see
``_polish_block``).  A restart may evaluate the nll 20,000 times: 241
times in the anneal, the rest in the polish.  Restarts are seeded from a
Latin-hypercube design plus one moment-matched start; the fit is flagged
converged when the two best restarts agree.

Restarts run in lockstep, in blocks of ``_MIN_RESTARTS_BEFORE_STOP``, since
a scalar log-density call at small n is mostly Python and ufunc overhead:
each annealing step evaluates the points of the whole block in one (R, n)
call, and each polish round makes two such calls, one for the stencils of
its unfinished restarts and one for their trial points.  At large n a
block call runs in row chunks through one scratch block per block task
(see ``_block_nll_factory``).  A stencil leaves out its centre, whose
nll the restart already holds: the anneal's best score in the first round,
the trial it moved to after.  Row i of a block call equals the scalar nll
bit for bit, each restart draws from its own generator in the same order
as it would alone, and the polish treats each row on its own, so the fit
is the one that running the restarts one by one gives.  The early-stop
rule walks the polished rows in order; restarts a block ran past the
stopping point are never returned or counted in ``restarts_used``, though
their evaluations count in ``nfev``.

Searches that do not depend on each other run on both CPUs: ``_in_worker``
runs one call in the caller and hands the other, pickled, to one worker,
forked for the first task and kept until the interpreter exits.
``lr_test`` fits lg there when it is given no fit, ``compare_models``
every other searched family, and ``_search`` the second half of each
restart block of two or more rows whenever the worker is free, else the
whole block here.  A block's rows do not depend on each other, so every
fit, ``nfev`` included, is the one the caller alone makes.  Both calls run
in the caller when ``core._WORKERS`` is below 2, without ``os.fork``,
while another thread lives, in the worker, and while a task is in flight.
The worker runs baslg as it was when forked: a task names a private
function nothing wraps (``_fit_one``, ``_fit_rows``, ``_search_rows``),
and code that patches baslg once it exists calls ``_stop_worker``, which
also runs at exit.  In a warmed ``fit`` benchmark process (2-CPU host) a
round trip of two trivial calls took 2.2 ms with a fork per call and
0.03-0.04 ms with the kept worker.

Scales are optimized on a log grid, which keeps the box symmetric-ish and
makes the positivity constraint unconditional.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import core
from .models import _WORK_ROWS, FAMILIES, _data_range, param_space, validate_data
from .specfn import _is_integer

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "LrTestResult",
    "DegenerateDataError",
    "information_criteria",
    "fit_mle",
    "lr_test",
    "compare_models",
]

_SA_STEPS = 240
_SA_T0 = 4.0
_SA_TEND = 0.02
_MAX_EVALS = 20000  # nll evaluations per restart, the anneal's included
_AGREE_TOL = 1e-4
_STOP_TOL = 1e-9  # how near the best the last five restarts' best must be to stop
_MIN_RESTARTS_BEFORE_STOP = 8
_LR_CRITICAL_1PCT = 6.635
# os.kill's signal for a worker whose caller raised; os.fork, and so a
# worker, exists only on POSIX systems, where SIGKILL is 9
_SIGKILL = 9
# the polish's finite-difference step (times the scale in mu), the
# multiples of its Newton step that it tries, 16 down to 4^-5, and the floor
# on the magnitudes of its Hessian's eigenvalues, relative to the largest
_NEWTON_STEP = 1e-4
_NEWTON_T = 4.0 ** np.arange(2, -6, -1)[:, None]
_EIG_FLOOR = 1e-8
# the most elements (rows times n) in one chunk of a block call, 26 rows at
# n = 2500; chunks of 16K and 32K elements ran the fit benchmark's passes no
# faster, and the largest makes the fewest calls
_CHUNK = 65536


class DegenerateDataError(ValueError):
    """Raised when every observation is identical; scale MLEs collapse to 0."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 40
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.restarts) and self.restarts >= 1):
            raise ValueError("restarts must be an integer >= 1.")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0.")


@dataclass(frozen=True)
class FitResult:
    """One maximum-likelihood fit.

    For a search, ``restarts_used`` counts the restarts run up to the early
    stop, ``converged`` says the two best of them agree, and ``nfev`` counts
    every nll point evaluated, in the rows a block ran past the stop too.
    A closed-form fit (normal, Laplace) runs no restarts: ``restarts_used``
    is 0, ``converged`` is True, since the estimate is the maximum itself,
    and ``nfev`` is 1, the one likelihood evaluated at it.  A family whose
    fit raised inside ``compare_models`` has ``error`` set, ``nfev`` 0 and
    no estimates.
    """

    family: str
    params: dict[str, float]
    log_l: float
    aic: float
    bic: float
    n_obs: int
    converged: bool
    restarts_used: int
    error: Optional[str] = None
    nfev: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def param_tuple(self) -> tuple[float, ...]:
        return tuple(self.params[name] for name in FAMILIES[self.family].param_names)


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    critical_value: float
    df: int
    reject_null: bool
    null_fit: FitResult = field(repr=False)
    full_fit: FitResult = field(repr=False)


def information_criteria(log_l: float, n_params: int, n_obs: int) -> tuple[float, float]:
    """AIC and BIC of a fit with ``n_params`` free parameters on ``n_obs`` points."""
    if not (_is_integer(n_params) and n_params >= 0):
        raise ValueError(f"n_params must be an integer >= 0, got {n_params!r}.")
    if not (_is_integer(n_obs) and n_obs >= 1):
        raise ValueError(f"n_obs must be an integer >= 1, got {n_obs!r}.")
    aic = 2.0 * n_params - 2.0 * log_l
    bic = n_params * math.log(n_obs) - 2.0 * log_l
    return aic, bic


def _block_nll_factory(family: str, space, data):
    """nll of each row of an (R, d) block of box points, as an (R,) array.

    The rows go through ``FAMILIES[family].logpdf`` as (R, 1) parameter
    columns, in chunks of at most ``_CHUNK`` elements, max(1, _CHUNK // n)
    rows; entry i is ``-sum(logpdf(to_natural(xs[i]), data))`` bit for bit,
    or inf where that sum is not finite.  Each chunk writes its passes into
    one scratch block of (``models._WORK_ROWS``, rows, n), allocated here
    once per task and grown to the largest call's rows up to that cap, and
    its row sums into one totals array.  A polish call holds up to 96 rows:
    at n = 2500 each of its passes was a fresh 1.9 MB temporary, handed back
    to the operating system when freed and paged in again by the next call.
    Through the scratch a chunk's passes stay in the cache, and a warm
    96-row sn call at n = 2500 takes half the time it took (2-CPU host,
    2 MB of L2 cache a core).  The scratch belongs to one ``_search_rows``
    task, so searches in different threads never share one.

    ``block_nll`` leaves numpy's error state to its caller.  A scale far
    below the data's spread overflows the squares, and the row's nll is inf
    all the same, so ``fit_mle`` and each block task, in the worker too, run
    under ``np.errstate(over="ignore", invalid="ignore")``: entering that
    context costs about 1.5 us, and a search of the ``fit`` benchmark's data
    makes 249 to 1,353 block calls.
    """
    logpdf = FAMILIES[family].logpdf
    cap = max(1, _CHUNK // data.size)
    work = np.empty((_WORK_ROWS, 0, data.size))

    def block_nll(xs) -> np.ndarray:
        nonlocal work
        rows = min(len(xs), cap)
        if rows > work.shape[1]:
            work = np.empty((_WORK_ROWS, rows, data.size))
        totals = np.empty(len(xs))
        for start in range(0, len(xs), cap):
            chunk = xs[start:start + cap]
            block = logpdf(space.to_natural_columns(chunk), data, work=work[:, :len(chunk)])
            block.sum(axis=1, out=totals[start:start + cap])
        totals[~np.isfinite(np.negative(totals, out=totals))] = math.inf
        return totals

    return block_nll


def _anneal(block_nll, x0, space, rngs):
    """Anneal the rows of ``x0`` (R, d) in lockstep; row i draws from ``rngs[i]``.

    Row i draws ``standard_normal(d)`` each step, then ``random()`` only when
    the candidate is no better, exactly as a walk of its own would, so its
    path does not depend on the other rows.  Each row evaluates its start
    and ``_SA_STEPS`` candidates.  Returns each row's best point and nll.
    """
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    width = upper - lower
    decay = (_SA_TEND / _SA_T0) ** (1.0 / _SA_STEPS)

    x = np.asarray(x0, float).clip(lower, upper)
    fx = block_nll(x).tolist()
    best_x, best_f = x.copy(), list(fx)
    # filled in place each step: standard_normal(out=row) draws what
    # standard_normal(d) would
    noise = np.empty_like(x)
    temp = _SA_T0
    for _ in range(_SA_STEPS):
        scale = (0.35 * temp / _SA_T0 + 0.02) * width
        for rng, row in zip(rngs, noise):
            rng.standard_normal(out=row)
        cand = (x + noise * scale).clip(lower, upper)
        fc = block_nll(cand).tolist()
        for i, rng in enumerate(rngs):
            if fc[i] < fx[i] or rng.random() < math.exp(min((fx[i] - fc[i]) / temp, 0.0)):
                x[i], fx[i] = cand[i], fc[i]
                if fx[i] < best_f[i]:
                    best_x[i], best_f[i] = x[i], fx[i]
        temp *= decay
    return best_x, best_f


# perfbench/tracer.py reads this name from the module dict, wraps it and
# restores it afterwards; nothing calls it
minimize = None


def _stencil(dim: int) -> np.ndarray:
    """The central-difference stencil of a ``dim``-parameter nll, in steps:
    +e_k, -e_k, then +(e_i + e_j) and -(e_i + e_j) for each pair i < j in
    ``np.triu_indices`` order.  6 points for two parameters, 12 for three.
    It leaves out the centre, whose nll the polished row already holds."""
    eye = np.eye(dim)
    first, second = np.triu_indices(dim, 1)
    pairs = eye[first] + eye[second]
    return np.vstack([eye, -eye, pairs, -pairs])


def _polish_block(block_nll, x0, f0, space, budget):
    """Projected Newton from each row of ``x0`` (R, d), box points whose nll
    is ``f0`` (R,), the rows in lockstep.

    Each round makes two block calls for the live rows.  The first takes
    each row's stencil (``_stencil``), with steps h of ``_NEWTON_STEP`` in
    the shape and log-scale and ``_NEWTON_STEP`` times the row's scale in
    mu, to the gradient g and Hessian H of the nll in units of h: with f_0
    the row's own nll and f_{+i}, f_{-i}, f_{++}, f_{--} those at +-e_i and
    +-(e_i + e_j), g_i = (f_{+i} - f_{-i}) / 2, H_ii = f_{+i} - 2 f_0 +
    f_{-i}, and H_ij = (f_{++} + f_{--} - f_{+i} - f_{-i} - f_{+j} - f_{-j}
    + 2 f_0) / 2, the seven-point mixed difference, whose error is O(h^2)
    like the four-point one's (Abramowitz and Stegun, 1964, section 25.3).
    These are sums of nll values, never divided by h, which could underflow
    or overflow.  The step s solves H s = -g with each eigenvalue of H
    replaced by its magnitude, floored at ``_EIG_FLOOR`` of the largest, so
    it goes downhill where H is indefinite too, and it holds at its bound a
    coordinate that the gradient pushes out of the box.  The second call
    takes the trials x + t h s, t in ``_NEWTON_T``, clipped to the box: far
    from an optimum, where the quadratic model is poor, the trials past
    t = 1 carry a row over shallow modes.  A round costs ``len(_stencil(d)) + len(_NEWTON_T)``
    evaluations a row, 20 for three parameters and 14 for two.  A row moves
    to its best trial if that lowers its nll; it stops where none does,
    where its stencil or step is not finite, or where another round would
    take it past ``budget`` evaluations (Nocedal and Wright, Numerical
    Optimization, 2nd ed., 2006, sections 3.4 and 16.7).  A row whose
    ``f0`` is not finite is never polished.

    Returns each row's point (R, d), its nll (R,) and its number of
    evaluations (R,).  No row leaves the box or ends above its ``f0``.  A
    budget below one round's cost returns ``x0`` and ``f0`` with no
    evaluations.
    """
    lower, upper = np.asarray(space.lower), np.asarray(space.upper)
    x = np.array(x0, float)
    f = np.array(f0, float)
    rows, dim = x.shape
    offsets = _stencil(dim)
    first, second = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    mu, scale = space.names.index("mu"), space.log_scale.index(True)
    per_round = len(offsets) + len(_NEWTON_T)
    nfev = np.zeros(rows, dtype=int)
    live = np.flatnonzero(np.isfinite(f) & (budget >= per_round))
    while live.size:
        h = np.full((live.size, dim), _NEWTON_STEP)
        h[:, mu] *= np.exp(x[live, scale])
        points = x[live, None, :] + offsets * h[:, None, :]
        vals = block_nll(points.reshape(-1, dim)).reshape(live.size, -1)
        nfev[live] += len(offsets)
        centre = f[live, None]
        plus, minus = vals[:, :dim], vals[:, dim:2 * dim]
        pp, mm = vals[:, 2 * dim:2 * dim + first.size], vals[:, 2 * dim + first.size:]
        grad = (plus - minus) / 2.0
        hess = np.empty((live.size, dim, dim))
        hess[:, diag, diag] = plus - 2.0 * centre + minus
        hess[:, first, second] = hess[:, second, first] = (
            pp + mm - plus[:, first] - minus[:, first] - plus[:, second] - minus[:, second]
            + 2.0 * centre) / 2.0
        ok = np.isfinite(vals).all(axis=1)
        held = ((x[live] <= lower) & (grad > 0.0)) | ((x[live] >= upper) & (grad < 0.0))
        free = ok[:, None] & ~held
        eig, vec = np.linalg.eigh(np.where(free[:, :, None] & free[:, None, :], hess, 0.0))
        mag = np.abs(eig)
        mag = np.maximum(mag, _EIG_FLOOR * mag.max(axis=1, keepdims=True))
        coef = np.einsum("rij,ri->rj", vec, np.where(free, grad, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -np.einsum("rij,rj->ri", vec, coef / mag) * h
        ok &= np.isfinite(step).all(axis=1)
        live = live[ok]
        if not live.size:
            break
        trials = (x[live, None, :] + _NEWTON_T * step[ok, None, :]).clip(lower, upper)
        tvals = block_nll(trials.reshape(-1, dim)).reshape(live.size, -1)
        nfev[live] += len(_NEWTON_T)
        best = tvals.argmin(axis=1)
        ft = tvals[np.arange(live.size), best]
        better = ft < f[live]
        moved = live[better]
        x[moved] = trials[better, best[better]]
        f[moved] = ft[better]
        live = moved[nfev[moved] + per_round <= budget]
    return x, f, nfev


def _lhs_starts(space, n, rng) -> np.ndarray:
    """Latin-hypercube points over the internal box, one row per start."""
    lower = np.asarray(space.lower)
    upper = np.asarray(space.upper)
    dim = lower.size
    if n <= 0:
        return np.empty((0, dim))
    pts = np.empty((n, dim))
    for d in range(dim):
        strata = (np.arange(n) + rng.random(n)) / n
        pts[:, d] = lower[d] + rng.permutation(strata) * (upper[d] - lower[d])
    return pts


# the kept worker's (pid, task pipe fd, reply pipe file), or None
_worker = None
# True in the worker, and in its caller while a task is in flight
_busy = False


def _worker_free() -> bool:  # the gate the module docstring describes
    return not _busy and core._WORKERS > 1 and hasattr(os, "fork") and threading.active_count() < 2


def _in_worker(first, second):
    """``(first(), second())``, with ``second()``, pickled, run in the kept
    worker; an exception it raises is raised here with its type and message.
    Both run here, in turn, when ``_worker_free()`` is False or the fork
    fails.  If ``first()`` raises, the worker is killed; if the worker dies,
    a RuntimeError names its wait status; either way it is reaped."""
    global _busy
    if not _worker_free() or (_worker is None and not _start_worker()):
        return first(), second()
    task = pickle.dumps(second)
    _busy = True
    try:
        with suppress(BrokenPipeError):  # a dead worker is reported below
            _send(_worker[1], task)
        mine = first()
        payload = _receive(_worker[2])
    except BaseException:
        _stop_worker(kill=True)
        raise
    finally:
        _busy = False
    if not payload:
        status = _stop_worker()
        raise RuntimeError(f"the fit worker ended without a result (wait status {status}).")
    ok, theirs = pickle.loads(payload)
    if not ok:
        raise theirs
    return mine, theirs


def _start_worker() -> bool:
    """Fork the kept worker; False if the fork fails."""
    global _worker, _busy
    import numpy.random  # every task needs it: import it once, before the fork
    (task_r, task_w), (reply_r, reply_w) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, reply_r, reply_w):
            os.close(fd)
        return False
    if pid == 0:
        # the worker: whatever happens, it leaves through os._exit, never
        # returning into the caller's code or flushing the stdio it copied
        code = 1
        try:
            import signal
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # a busy one is killed on ^C
            _busy = True
            os.close(task_w)
            os.close(reply_r)
            with open(task_r, "rb") as tasks:
                while task := _receive(tasks):
                    _send(reply_w, _outcome(lambda: pickle.loads(task)()))
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(reply_w)
    _worker = (pid, task_w, open(reply_r, "rb"))
    return True


def _stop_worker(kill: bool = False):
    """Close the pipes to the kept worker, which then exits, or kill it;
    reap it and return its wait status.  Call it after patching baslg."""
    global _worker
    if _worker is None:
        return None
    pid = _worker[0]
    if kill:
        os.kill(pid, _SIGKILL)
    _forget_worker()
    return os.waitpid(pid, 0)[1]


def _forget_worker():
    """Drop the worker and close the pipes to it, in any other fork's child."""
    global _worker
    if _worker is not None:
        os.close(_worker[1])
        _worker[2].close()
        _worker = None


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _send(fd: int, payload: bytes) -> None:
    view = memoryview(len(payload).to_bytes(8, "little") + payload)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe) -> bytes:  # empty at end of file
    return pipe.read(int.from_bytes(pipe.read(8), "little"))


def _outcome(call) -> bytes:
    """``(True, call())`` pickled, or ``(False, exc)`` for the exception it raised.

    An exception that does not survive a pickle round trip is sent as a
    RuntimeError carrying its repr.
    """
    try:
        return pickle.dumps((True, call()))
    except BaseException as exc:
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps((False, RuntimeError(repr(exc))))
        return payload


def fit_mle(family: str, data, config: OptimizerConfig = OptimizerConfig()) -> FitResult:
    """Fit one family by maximum likelihood.

    A family flagged ``exact`` (normal, Laplace) returns its closed-form
    estimate, whatever the config.  The others run the multistart annealing
    search, which ``config`` sets up.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}.")
    data = validate_data(data)
    if _data_range(data) == 0.0:
        raise DegenerateDataError(
            "all observations are identical; location-scale likelihoods are unbounded."
        )

    info = FAMILIES[family]
    if info.exact:
        params = info.start(data)
        log_l = info.log_likelihood(params, data)
        if not math.isfinite(log_l):
            raise RuntimeError(f"the closed-form {family!r} fit has no finite likelihood.")
        converged, restarts_used, nfev = True, 0, 1
    else:
        with _row_buffers(data.size), np.errstate(over="ignore", invalid="ignore"):
            params, log_l, converged, restarts_used, nfev = _search(family, data, config)

    aic, bic = information_criteria(log_l, info.n_params, data.size)
    return FitResult(
        family=family,
        params=dict(zip(info.param_names, params)),
        log_l=log_l,
        aic=aic,
        bic=bic,
        n_obs=int(data.size),
        converged=converged,
        restarts_used=restarts_used,
        nfev=nfev,
    )


@contextmanager
def _row_buffers(n: int):
    """Run the ``with`` block with numpy's ufunc buffer no longer than a row of n.

    An op between an (R, n) pass and an (R, 1) parameter column, such as
    (y - mu) / beta, gets its column copied into the iterator's buffer
    whenever a row is shorter than that buffer (8192 elements by default),
    which at n = 2500 makes the op three times as slow as one between two
    (R, n) arrays.  With a buffer of at most n elements each row runs in
    place.  Chunking never changes an element's value, or a sum of a
    contiguous row, so the fit keeps its bits.
    """
    old = np.getbufsize()
    np.setbufsize(max(16, min(n, old) // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(old)


def _search(family: str, data: np.ndarray, config: OptimizerConfig):
    """Multistart annealing and polish: the natural parameters of the best
    restart, its log-likelihood, ``converged``, ``restarts_used`` and ``nfev``.
    Each restart's result is the point and nll that its polish returns.  The
    box and the starts (the Latin hypercube from child 0 of the config's
    seed) are built once; each block, whole or half, is one ``task`` call."""
    space = param_space(family, data)
    lhs = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0,))))
    starts = np.vstack([space.to_internal(FAMILIES[family].start(data)),
                        _lhs_starts(space, config.restarts - 1, lhs)])
    task = partial(_search_rows, family, data, space, starts, config.seed)
    results: list[tuple[float, np.ndarray]] = []
    restarts_used = 0
    nfev = 0
    for i in range(config.restarts):
        row = i % _MIN_RESTARTS_BEFORE_STOP
        if row == 0:
            block = range(i, min(i + _MIN_RESTARTS_BEFORE_STOP, config.restarts))
            if len(block) > 1 and _worker_free():
                mid = (len(block) + 1) // 2
                head, tail = _in_worker(partial(task, block[:mid]), partial(task, block[mid:]))
                points, fvals, polish_nfev = (np.concatenate(pair) for pair in zip(head, tail))
            else:
                points, fvals, polish_nfev = task(block)
            nfev += len(block) * (_SA_STEPS + 1) + int(polish_nfev.sum())
        x_best, f_best = points[row], float(fvals[row])
        restarts_used = i + 1
        if math.isfinite(f_best):
            results.append((f_best, x_best))
        if len(results) >= 2 and restarts_used >= _MIN_RESTARTS_BEFORE_STOP:
            vals = sorted(f for f, _ in results)
            recent = [f for f, _ in results[-5:]]
            if vals[1] - vals[0] < _AGREE_TOL and min(recent) - vals[0] <= _STOP_TOL:
                break

    if not results:
        raise RuntimeError(f"no restart produced a finite likelihood for family {family!r}.")

    results.sort(key=lambda item: item[0])
    best_f, best_x = results[0]
    if len(results) >= 2:
        converged = results[1][0] - best_f < _AGREE_TOL
    else:
        converged = config.restarts == 1

    return space.to_natural(best_x), -best_f, converged, restarts_used, nfev


def _search_rows(family: str, data: np.ndarray, space, starts: np.ndarray, seed: int, rows):
    """Anneal and polish restarts ``rows`` of a search from their starts: each
    one's point, nll and polish nfev.  Restart k draws from child k + 1 of
    ``SeedSequence(seed)``.  Each call sets the row buffers and error state,
    for the worker, and builds a scratch block of its own."""
    with _row_buffers(data.size), np.errstate(over="ignore", invalid="ignore"):
        block_nll = _block_nll_factory(family, space, data)
        seeds = [np.random.SeedSequence(seed, spawn_key=(k + 1,)) for k in rows]
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        annealed, scores = _anneal(block_nll, starts[rows.start:rows.stop], space, rngs)
        return _polish_block(block_nll, annealed, scores, space, _MAX_EVALS - _SA_STEPS - 1)


def _fit_one(family: str, data: np.ndarray, config: OptimizerConfig) -> FitResult:
    """``fit_mle`` under a name that nothing wraps, for a worker task."""
    return fit_mle(family, data, config)


def _reused_fit(fit: Optional[FitResult], family: str, data, config) -> FitResult:
    if fit is None:
        return fit_mle(family, data, config)
    if fit.family != family:
        raise ValueError(f"expected a {family!r} fit, got {fit.family!r}.")
    if not fit.ok:
        raise ValueError(f"the {family!r} fit passed in failed: {fit.error}")
    if fit.n_obs != data.size:
        raise ValueError(f"{family!r} fit has n_obs {fit.n_obs}, but the data has {data.size}.")
    return fit


def lr_test(
    data,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    null_fit: Optional[FitResult] = None,
    full_fit: Optional[FitResult] = None,
) -> LrTestResult:
    """Likelihood-ratio test of logistic (alpha = 0) against BASLG2 at the 1% level.

    ``null_fit`` (lg) and ``full_fit`` (baslg2) may pass in fits already made
    on the same data, e.g. rows of :func:`compare_models`; only missing ones
    are fitted here.  Fits are deterministic for a given data and config, so
    reusing them changes nothing.
    """
    data = validate_data(data)
    if null_fit is None and full_fit is None:
        full_fit, null_fit = _in_worker(partial(fit_mle, "baslg2", data, config),
                                        partial(_fit_one, "lg", data, config))
    null_fit = _reused_fit(null_fit, "lg", data, config)
    full_fit = _reused_fit(full_fit, "baslg2", data, config)
    statistic = max(0.0, 2.0 * (full_fit.log_l - null_fit.log_l))
    return LrTestResult(
        statistic=statistic,
        critical_value=_LR_CRITICAL_1PCT,
        df=1,
        reject_null=statistic > _LR_CRITICAL_1PCT,
        null_fit=null_fit,
        full_fit=full_fit,
    )


def compare_models(
    data,
    families: Sequence[str] = ("n", "lg", "la", "sn", "aslg", "baslg2"),
    config: OptimizerConfig = OptimizerConfig(),
) -> list[FitResult]:
    """Fit several families on the same data and sort by AIC.

    Families whose fit raises are kept in the table with an error message
    and infinite criteria so a single bad family cannot sink the run.
    Every other searched family is fitted in a worker (see ``_in_worker``).
    """
    data = validate_data(data)
    families = list(families)
    searched = [i for i, f in enumerate(families) if f in FAMILIES and not FAMILIES[f].exact]
    theirs = searched[1::2]
    if theirs:
        mine = [f for i, f in enumerate(families) if i not in theirs]
        rows, more = _in_worker(partial(_fit_rows, mine, data, config),
                                partial(_fit_rows, [families[i] for i in theirs], data, config))
        rows += more
    else:
        rows = _fit_rows(families, data, config)
    rows.sort(key=lambda r: (r.aic, r.bic, r.family))
    return rows


def _fit_rows(families, data: np.ndarray, config: OptimizerConfig) -> list[FitResult]:
    """``fit_mle`` of each family; one whose fit raises gets a row that reports it."""
    rows: list[FitResult] = []
    for family in families:
        try:
            rows.append(fit_mle(family, data, config))
        except Exception as exc:  # noqa: BLE001 - reported in-row by design
            rows.append(
                FitResult(
                    family=family,
                    params={},
                    log_l=-math.inf,
                    aic=math.inf,
                    bic=math.inf,
                    n_obs=int(data.size),
                    converged=False,
                    restarts_used=0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
