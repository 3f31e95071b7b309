"""In-memory spans around the library's public functions, and their analysis.

``installed(tracer)`` wraps each public function where its calling layer
looks it up (a module global, a class attribute or a ``FAMILIES`` entry)
and restores the originals on exit; the library's files are never edited.
A span records name, layer, start, end, parent span, op and a size; its
``info`` slot carries a per-span count or outcome.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

import numpy as np

import baslg
import baslg.cli
import baslg.core
import baslg.data
import baslg.extensions
import baslg.fit
import baslg.models
import baslg.sampler

LAYERS = ("specfn", "core", "sampler", "extensions", "models", "fit", "data", "cli", "scripts")

NAME, LAYER, START, END, PARENT, OP, SIZE, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, name: str, layer: str) -> None:
        self._op = len(self.ops)
        self.ops.append(name)
        self._open(f"op.{name}", layer, 0)

    def end_op(self) -> None:
        self._close()
        self._op = -1

    def _open(self, name, layer, size):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, size, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self):
        end = time.perf_counter()
        self.spans[self._stack.pop()][END] = end

    def current(self) -> list:
        return self.spans[self._stack[-1]]

    def wrap(self, fn, name, layer, size=None, info=None):
        def traced(*args, **kwargs):
            if self._op < 0:  # outside a timed op, e.g. in an output check
                return fn(*args, **kwargs)
            rec = self._open(name, layer, size(args) if size else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return traced

    def counting_integrator(self, fn, name):
        """Wrap quad/dblquad so the span's info counts integrand evaluations."""
        def integrate(func, *args, **kwargs):
            rec = self.current()

            def integrand(*x):
                rec[INFO] += 1
                return func(*x)

            return fn(integrand, *args, **kwargs)

        return self.wrap(integrate, name, "extensions")


def _size(args):
    return int(np.size(args[1]))


def _sample_info(args, out):
    cfg = args[2] if len(args) > 2 else baslg.sampler.SamplerConfig()
    return cfg.method


def _quantile_info(args, out):
    return "envelope" if isinstance(args[0], baslg.core.SymmetricComponent) else "target"


def _patch_targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced boundary."""
    w = tracer.wrap
    fit_mle = w(baslg.fit.fit_mle, "fit.fit_mle", "fit",
                info=lambda a, out: (a[0], out.restarts_used))
    lr_test = w(baslg.fit.lr_test, "fit.lr_test", "fit")
    compare = w(baslg.fit.compare_models, "fit.compare_models", "fit")
    load = w(baslg.data.load_dataset, "data.load_dataset", "data")
    sample = w(baslg.sampler.sample, "sampler.sample", "sampler",
               size=lambda a: int(a[1]), info=_sample_info)
    targets = [
        (baslg.core, "polylog_neg_exp",
         w(baslg.core.polylog_neg_exp, "specfn.polylog_neg_exp", "specfn", size=_size)),
        (baslg.sampler, "quantile",
         w(baslg.sampler.quantile, "sampler.quantile", "sampler", size=_size, info=_quantile_info)),
        (baslg.sampler, "density_ratio",
         w(baslg.sampler.density_ratio, "sampler.density_ratio", "sampler", size=_size)),
        (baslg.sampler, "sample", sample),
        (baslg.models, "sample", sample),
        (baslg.fit, "minimize",
         w(baslg.fit.minimize, "fit.minimize", "fit", info=lambda a, res: float(res.fun))),
        (baslg.fit, "fit_mle", fit_mle),
        (baslg.fit, "lr_test", lr_test),
        (baslg.fit, "compare_models", compare),
        (baslg.cli, "fit_mle", fit_mle),
        (baslg.cli, "lr_test", lr_test),
        (baslg.cli, "compare_models", compare),
        (baslg.cli, "load_dataset", load),
        (baslg, "compare_models", compare),
        (baslg, "lr_test", lr_test),
        (baslg, "load_dataset", load),
        (baslg.data, "load_dataset", load),
        (baslg.extensions, "quad",
         tracer.counting_integrator(baslg.extensions.quad, "extensions.quad")),
        (baslg.extensions, "dblquad",
         tracer.counting_integrator(baslg.extensions.dblquad, "extensions.dblquad")),
    ]
    for cls in (baslg.core.StandardBaslg, baslg.core.SymmetricComponent):
        for meth in ("pdf", "cdf", "mgf"):
            targets.append((cls, meth, w(getattr(cls, meth), f"core.{meth}", "core", size=_size)))
    for meth in ("mode_report", "moment_set"):
        targets.append((baslg.core.StandardBaslg, meth,
                        w(getattr(baslg.core.StandardBaslg, meth), f"core.{meth}", "core")))
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    targets = _patch_targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    families = dict(baslg.models.FAMILIES)
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        for fam, info in families.items():
            logpdf = tracer.wrap(info.logpdf, f"models.logpdf.{fam}", "models",
                                 size=lambda a: int(np.size(a[1])))
            baslg.models.FAMILIES[fam] = dataclasses.replace(info, logpdf=logpdf)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        baslg.models.FAMILIES.update(families)


# ---------------------------------------------------------------------------
# analysis of one traced pass
# ---------------------------------------------------------------------------

def _nearest(spans, wanted) -> list[int]:
    """Index of each span's nearest ancestor-or-self whose name is ``wanted``."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        out[i] = i if s[NAME] == wanted else (out[s[PARENT]] if s[PARENT] >= 0 else -1)
    return out


def analyse(tracer: Tracer, wall: float, families, commands) -> dict:
    """Per-layer metrics of one traced pass (times in seconds unless named)."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    excl = [d - c for d, c in zip(dur, child)]

    calls, busy, selfs, size = (defaultdict(int), defaultdict(float), defaultdict(float),
                                defaultdict(int))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        busy[s[NAME]] += dur[i]
        selfs[s[NAME]] += excl[i]
        size[s[NAME]] += s[SIZE]
        layer_self[s[LAYER]] += excl[i]

    m = {}
    sp = "specfn.polylog_neg_exp"
    m["specfn.calls"] = calls[sp]
    m["specfn.points"] = size[sp]
    m["specfn.busy_s"] = busy[sp]
    m["specfn.ns_per_point"] = 1e9 * busy[sp] / size[sp] if size[sp] else 0.0
    m["core.cdf.calls"] = calls["core.cdf"]
    m["core.cdf.points"] = size["core.cdf"]
    m["core.cdf.self_s"] = selfs["core.cdf"]
    for name in ("pdf", "mgf", "mode_report"):
        m[f"core.{name}.busy_s"] = busy[f"core.{name}"]

    q = "sampler.quantile"
    cdf_in_q = sum(1 for s in spans if s[NAME] == "core.cdf" and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == q)
    m["sampler.quantile.calls"] = calls[q]
    m["sampler.quantile.cdf_passes"] = cdf_in_q / calls[q] if calls[q] else 0.0
    m["sampler.quantile.self_s"] = selfs[q]
    envelope = [i for i, s in enumerate(spans) if s[NAME] == q and s[INFO] == "envelope"]
    proposals = sum(spans[i][SIZE] for i in envelope)
    drawn = sum(s[SIZE] for s in spans if s[NAME] == "sampler.sample" and s[INFO] == "rejection")
    m["sampler.rejection.proposals"] = proposals
    m["sampler.rejection.acceptance"] = drawn / proposals if proposals else 0.0
    m["sampler.rejection.envelope_s"] = sum(dur[i] for i in envelope)

    for model in ("two_param", "alpha_beta", "bivariate"):
        ops = {k for k, name in enumerate(tracer.ops) if name.startswith(f"constant.{model}")}
        m[f"extensions.constant_s.{model}"] = sum(
            dur[i] for i, s in enumerate(spans) if s[OP] in ops and s[NAME].startswith("op."))
        m[f"extensions.integrand_evals.{model}"] = sum(
            s[INFO] for s in spans if s[OP] in ops and s[NAME].startswith("extensions."))

    fit_of = _nearest(spans, "fit.fit_mle")
    polish_of = _nearest(spans, "fit.minimize")
    for fam in families:
        name = f"models.logpdf.{fam}"
        idx = [i for i, s in enumerate(spans) if s[NAME] == name]
        m[f"models.logpdf.calls.{fam}"] = len(idx)
        for label, keep in (("small", lambda n: n < 1000), ("large", lambda n: n >= 1000)):
            picked = [dur[i] for i in idx if keep(spans[i][SIZE])]
            mean = sum(picked) / len(picked) if picked else 0.0
            m[f"models.logpdf_us.{fam}.{label}"] = 1e6 * mean
        m[f"fit.nfev.{fam}"] = sum(1 for i in idx if fit_of[i] >= 0)
        m[f"fit.restarts_used.{fam}"] = sum(
            s[INFO][1] for s in spans
            if s[NAME] == "fit.fit_mle" and isinstance(s[INFO], tuple) and s[INFO][0] == fam)
    logpdf = [i for i, s in enumerate(spans) if s[NAME].startswith("models.logpdf.")]
    m["fit.polish_s"] = busy["fit.minimize"]
    m["fit.polish_nfev"] = sum(1 for i in logpdf if polish_of[i] >= 0)
    m["fit.self_s"] = layer_self["fit"]
    polished = defaultdict(list)
    for i, s in enumerate(spans):
        if s[NAME] == "fit.minimize" and fit_of[i] >= 0:
            polished[fit_of[i]].append(s[INFO])
    useful = sum(sum(1 for f in fs if f - min(fs) <= 1e-4) for fs in polished.values())
    restarts = sum(len(fs) for fs in polished.values())
    m["fit.useful_restart_frac"] = useful / restarts if restarts else 0.0

    m["data.load_s"] = busy["data.load_dataset"]
    for command in commands:
        m[f"cli.main_s.{command}"] = sum(
            dur[i] for i, s in enumerate(spans) if s[NAME].startswith(f"op.cli.{command}"))
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self[layer]
    attributed = sum(layer_self.values())
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed
    m["trace.coverage"] = attributed / wall if wall else 0.0
    return m
