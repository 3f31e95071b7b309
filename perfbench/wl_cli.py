"""Workload ``cli``: a fixed script of fresh ``python -m baslg`` processes.

The script runs all six subcommands (``sample`` with both methods,
``plotdata`` in both modes) and the two ``scripts/`` programs.  Interpreter
start and import dominate a small command, and every process starts with
empty lru caches, so the layers run cold here.  Each process's stdout must
equal the in-process library result for the same call, rendered the way
the CLI renders it (floats by ``repr``).

The traced run replays the same calls in-process (``baslg.cli.main`` and
``runpy`` for the scripts) after a warm import.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import shutil
import sys

import numpy as np

import harness
from harness import Op

import baslg.cli
from baslg import (
    FAMILIES,
    LocScaleModel,
    OptimizerConfig,
    SamplerConfig,
    StandardBaslg,
    SymmetricComponent,
    compare_models,
    fit_mle,
    load_dataset,
    lr_test,
)

COMMANDS = ("eval", "sample", "fit", "compare", "lrtest", "plotdata")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _rows(*cols) -> list[str]:
    return ["\t".join(_fmt(col[i]) for col in cols) for i in range(len(cols[0]))]


def _expect_eval(alpha):
    grid = np.linspace(-30.0, 30.0, 400)
    model, sym = LocScaleModel(alpha, 0.0, 1.0), SymmetricComponent(alpha)
    return _text(_rows(grid, model.pdf(grid), model.cdf(grid), sym.pdf(grid) / 1.0, sym.cdf(grid)))


def _expect_sample(alpha, n, seed, method):
    draws = LocScaleModel(alpha, 0.0, 1.0).sample(n, SamplerConfig(method=method, seed=seed))
    return _text(_fmt(v) for v in draws)


def _expect_fit(path, seed):
    ds = load_dataset(path)
    res = fit_mle("baslg2", ds.values, OptimizerConfig(seed=seed))
    lines = ["command\tfit", "family\tbaslg2", f"label\t{ds.label}", f"n_obs\t{ds.n}",
             f"converged\t{_fmt(res.converged)}", f"restarts_used\t{res.restarts_used}",
             f"loglik\t{_fmt(res.log_l)}", f"aic\t{_fmt(res.aic)}", f"bic\t{_fmt(res.bic)}"]
    lines += [f"param.{k}\t{_fmt(res.params[k])}" for k in FAMILIES["baslg2"].param_names]
    return _text(lines)


def _expect_compare(path, families, seed):
    rows = compare_models(load_dataset(path).values, families, OptimizerConfig(seed=seed))
    lines = ["# family\tshape\tmu\tscale\tloglik\taic\tbic\terror"]
    for row in rows:
        names = FAMILIES[row.family].param_names
        shape = _fmt(row.params[names[0]]) if len(names) == 3 else "-"
        lines.append("\t".join([row.family, shape, _fmt(row.params["mu"]),
                                _fmt(row.params[names[-1]]), _fmt(row.log_l), _fmt(row.aic),
                                _fmt(row.bic), "-"]))
    return _text(lines)


def _expect_lrtest(path, seed):
    ds = load_dataset(path)
    res = lr_test(ds.values, OptimizerConfig(seed=seed))
    decision = ("reject logistic null in favor of baslg2" if res.reject_null
                else "fail to reject logistic null")
    return _text([
        "command\tlrtest", f"label\t{ds.label}", f"n_obs\t{ds.n}",
        f"statistic\t{_fmt(res.statistic)}", f"critical_value\t{_fmt(res.critical_value)}",
        f"df\t{res.df}", f"reject_null\t{_fmt(res.reject_null)}", f"decision\t{decision}",
        f"loglik_null\t{_fmt(res.null_fit.log_l)}", f"loglik_full\t{_fmt(res.full_fit.log_l)}",
    ])


def _expect_curves(alphas):
    grid = np.linspace(-15.0, 15.0, 300)
    cols = [StandardBaslg(a).cdf(grid) for a in alphas]
    header = "z\t" + "\t".join(f"alpha={_fmt(a)}" for a in alphas)
    return _text([header, *_rows(grid, *cols)])


def _expect_overlay(path, families, seed):
    values = load_dataset(path).values
    density, edges = np.histogram(values, bins=25, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    fitted = []
    for fam in families:
        res = fit_mle(fam, values, OptimizerConfig(seed=seed))
        fitted.append(np.exp(FAMILIES[fam].logpdf(res.param_tuple(), centers)))
    header = "center\twidth\tdensity\t" + "\t".join(families)
    return _text([header, *_rows(centers, np.diff(edges), density, *fitted)])


def run_script(argv: list[str]) -> tuple[int, str]:
    """Run a ``scripts/`` program in this process; return (status, stdout)."""
    out = io.StringIO()
    saved = sys.argv
    sys.argv = [str(harness.ROOT / argv[0]), *argv[1:]]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            runpy.run_path(sys.argv[0], run_name="__main__")
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return status, out.getvalue()


def run_main(argv: list[str]) -> tuple[int, str]:
    """``baslg.cli.main`` in this process; return (status, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = baslg.cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue()


class Script:
    """The seeded command script, its input files and expected outputs."""

    def __init__(self, seed: int, variant: int = 0):
        rng = np.random.default_rng([seed, variant])
        self.workdir = harness.WORK / f"cli-seed{seed}-{variant}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rel = self.workdir.relative_to(harness.ROOT)
        fit_path, null_path = rel / "fit.txt", rel / "null.txt"
        loc, scale = rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0)
        self._write(fit_path, rng.gumbel(loc, scale, int(rng.integers(120, 201))))
        self._write(null_path, rng.logistic(0.0, 1.0, 200))

        def shape(lo, hi):
            return round(float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)), 6)

        a_eval, a_inv, a_rej = shape(0.1, 3.0), shape(0.1, 3.0), shape(0.1, 3.0)
        curves = [shape(0.05, 0.45), shape(0.5, 2.0), shape(2.0, 6.0)]
        s = [int(v) for v in rng.integers(0, 10_000, 7)]
        fit_f, null_f = str(fit_path), str(null_path)
        trio, pair = ["lg", "aslg", "baslg2"], ["lg", "baslg2"]
        self.calls = [
            ("eval", ["eval", "--alpha", repr(a_eval), "--range", "-30:30", "--points", "400",
                      "--sym"], lambda: _expect_eval(a_eval)),
            ("sample.inverse", ["sample", "--alpha", repr(a_inv), "--n", "3000", "--seed",
                                str(s[0]), "--method", "inverse"],
             lambda: _expect_sample(a_inv, 3000, s[0], "inverse_cdf")),
            ("sample.rejection", ["sample", "--alpha", repr(a_rej), "--n", "3000", "--seed",
                                  str(s[1]), "--method", "rejection"],
             lambda: _expect_sample(a_rej, 3000, s[1], "rejection")),
            ("fit", ["fit", "--dist", "baslg2", "--data", fit_f, "--seed", str(s[2])],
             lambda: _expect_fit(fit_f, s[2])),
            ("compare", ["compare", "--data", fit_f, "--dists", ",".join(trio), "--seed",
                         str(s[3])], lambda: _expect_compare(fit_f, trio, s[3])),
            ("lrtest", ["lrtest", "--data", null_f, "--seed", str(s[4])],
             lambda: _expect_lrtest(null_f, s[4])),
            ("plotdata.curves", ["plotdata", "--curves", "--alphas", ",".join(map(repr, curves)),
                                 "--range", "-15:15", "--points", "300", "--what", "cdf"],
             lambda: _expect_curves(curves)),
            ("plotdata.overlay", ["plotdata", "--overlay", "--data", fit_f, "--dists",
                                  ",".join(pair), "--bins", "25", "--seed", str(s[5])],
             lambda: _expect_overlay(fit_f, pair, s[5])),
        ]
        self.scripts = [
            ("moment_bounds", ["scripts/moment_bounds.py", "--alpha-max",
                               repr(round(float(rng.uniform(6.0, 12.0)), 3)), "--grid", "201"]),
            ("reproduce_tables", ["scripts/reproduce_tables.py", "--data-dir", "data", "--seed",
                                  str(s[6])]),
        ]
        self.expected = {label: expect() for label, _, expect in self.calls}
        for label, argv in self.scripts:
            status, text = run_script(argv)
            if status != 0:
                raise RuntimeError(f"in-process {label} exited {status}")
            self.expected[label] = text

    @staticmethod
    def _write(path, values) -> None:
        (harness.ROOT / path).write_text(_text(repr(float(v)) for v in values), encoding="utf-8")

    def _check(self, label):
        want = self.expected[label]

        def check(result):
            status, text = result
            if status != 0:
                return f"exit status {status}"
            return None if text == want else "stdout differs from the in-process library result"

        return check

    def process_ops(self) -> list[Op]:
        """One fresh interpreter per call, timed from spawn to exit."""
        def spawn(argv):
            _, proc = harness.run_process(argv)
            return proc.returncode, proc.stdout

        ops = [Op(f"process.{label}", "process", "cli",
                  lambda argv=argv: spawn(["-m", "baslg", *argv]), self._check(label))
               for label, argv, _ in self.calls]
        ops += [Op(f"process.{label}", "process", "cli", lambda argv=argv: spawn(argv),
                   self._check(label)) for label, argv in self.scripts]
        return ops

    def replay_ops(self) -> list[Op]:
        """The same calls in this process, for the traced per-layer run."""
        ops = [Op(f"cli.{label}", "cli", "cli_main", lambda argv=argv: run_main(argv),
                  self._check(label)) for label, argv, _ in self.calls]
        ops += [Op(f"script.{label}", "scripts", "script", lambda argv=argv: run_script(argv),
                   self._check(label)) for label, argv in self.scripts]
        return ops

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
