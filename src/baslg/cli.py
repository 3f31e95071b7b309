"""Command-line interface.

Subcommands:

    eval      tabulate pdf/cdf (optionally the symmetric component too)
    sample    draw random variates, one per line
    fit       maximum-likelihood fit of one family, key-value report
    compare   fit several families, tab-separated table sorted by AIC
    lrtest    likelihood-ratio test of logistic against baslg2
    plotdata  grid curves or histogram-plus-fitted-density overlays

Output conventions: UTF-8, LF line endings, tab-separated columns or
``key<TAB>value`` lines.  Floats are rendered with ``repr`` so re-parsing
the output recovers the exact binary value.  Exit status is 0 on success,
1 on domain or runtime errors, 2 on flag errors.  ``fit`` is the one
deliberate exception to "report or error, never both": on non-convergence
or degenerate data it still writes a report, then exits 1.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .core import SymmetricComponent
from .data import Dataset, DatasetError, load_dataset
from .fit import DegenerateDataError, OptimizerConfig, compare_models, fit_mle, lr_test
from .models import FAMILIES, LocScaleModel
from .sampler import SamplerConfig

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad or inconsistent flags; maps to exit status 2 like argparse errors."""

_FAMILY_CHOICES = tuple(FAMILIES)

# argparse normally refuses option-like tokens such as "-4,-1,0,1,4",
# "-15:15" or "-inf" as flag values; widen its negative-number detector so
# that a minus followed by a digit, by "." and a digit, or by inf or nan in
# any case starts a value.  No flag here has such a name.
_NUMBER_LIKE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _rows(columns) -> list[str]:
    """One tab-separated line per index of the equal-length columns."""
    return ["\t".join(_fmt(col[i]) for col in columns) for i in range(len(columns[0]))]


def _write(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated number list, got {text!r}.") from exc
    if not values:
        raise UsageError(f"{flag} expects at least one value.")
    return values


def _range_grid(text: str, points: int) -> np.ndarray:
    """The evenly spaced grid of --range lo:hi with --points nodes."""
    if points < 2:
        raise UsageError("--points must be >= 2 for a range grid.")
    lo_hi = text.rsplit(":", 1)
    if len(lo_hi) != 2:
        raise UsageError(f"--range expects lo:hi, got {text!r}.")
    try:
        lo, hi = float(lo_hi[0]), float(lo_hi[1])
    except ValueError as exc:
        raise UsageError(f"--range expects lo:hi numbers, got {text!r}.") from exc
    if not np.isfinite([lo, hi]).all():
        raise UsageError(f"--range needs finite lo and hi, got {text!r}.")
    if not lo < hi:
        raise UsageError(f"--range needs lo < hi, got {text!r}.")
    return np.linspace(lo, hi, points)


def _families(text: str) -> list[str]:
    if not text:
        raise UsageError("--dists expects at least one family.")
    families = text.split(",")
    for family in families:
        if family not in FAMILIES:
            raise UsageError(f"unknown family {family!r} in --dists.")
        if families.count(family) > 1:
            raise UsageError(f"family {family!r} appears more than once in --dists.")
    return families


def _grid(args) -> np.ndarray:
    if args.at is not None:
        return np.asarray(_parse_float_list(args.at, "--at"))
    if args.range is not None:
        return _range_grid(args.range, args.points)
    raise UsageError("provide either --at or --range.")


def _load(args) -> Dataset:
    if args.data is None:
        raise UsageError("--data is required here.")
    if args.column < 1:
        raise UsageError(f"--column must be >= 1, got {args.column}.")
    return load_dataset(args.data, column=args.column, delimiter=args.delimiter)


def _config(cls, **kwargs):
    """Build a config dataclass; the values it refuses came from flags."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _optimizer_config(args) -> OptimizerConfig:
    kwargs = {"seed": args.seed}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return _config(OptimizerConfig, **kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    grid = _grid(args)
    model = LocScaleModel(args.alpha, args.mu, args.beta)
    cols = [grid, model.pdf(grid), model.cdf(grid)]
    if args.sym:
        sym = SymmetricComponent(args.alpha)
        x = model._residual(grid)
        cols.append(sym.pdf(x) / args.beta)
        cols.append(sym.cdf(x))
    _write(_rows(cols), args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1.")
    method = "inverse_cdf" if args.method == "inverse" else "rejection"
    cfg = _config(SamplerConfig, method=method, seed=args.seed)
    draws = LocScaleModel(args.alpha, args.mu, args.beta).sample(args.n, cfg)
    _write([_fmt(v) for v in draws], args.out)
    return 0


def _fit_report(family: str, dataset: Dataset, result, error=None) -> list[str]:
    lines = [
        "command\tfit",
        f"family\t{family}",
        f"label\t{dataset.label}",
        f"n_obs\t{dataset.n}",
    ]
    if result is None:
        lines.append("converged\tfalse")
        lines.append("restarts_used\t0")
    else:
        lines.append(f"converged\t{_fmt(result.converged)}")
        lines.append(f"restarts_used\t{result.restarts_used}")
        lines.append(f"loglik\t{_fmt(result.log_l)}")
        lines.append(f"aic\t{_fmt(result.aic)}")
        lines.append(f"bic\t{_fmt(result.bic)}")
        for name in FAMILIES[family].param_names:
            lines.append(f"param.{name}\t{_fmt(result.params[name])}")
    if error is not None:
        lines.append(f"error\t{error}")
    return lines


def _cmd_fit(args) -> int:
    dataset = _load(args)
    try:
        result = fit_mle(args.dist, dataset.values, _optimizer_config(args))
    except DegenerateDataError as exc:
        _write(_fit_report(args.dist, dataset, None, error=str(exc)), args.out)
        return 1
    _write(_fit_report(args.dist, dataset, result), args.out)
    return 0 if result.converged else 1


def _cmd_compare(args) -> int:
    dataset = _load(args)
    families = list(_FAMILY_CHOICES) if args.dists is None else _families(args.dists)
    rows = compare_models(dataset.values, families, _optimizer_config(args))
    lines = ["# family\tshape\tmu\tscale\tloglik\taic\tbic\terror"]
    for row in rows:
        if row.ok:
            names = FAMILIES[row.family].param_names
            shape = _fmt(row.params[names[0]]) if len(names) == 3 else "-"
            cells = [
                row.family,
                shape,
                _fmt(row.params["mu"]),
                _fmt(row.params[names[-1]]),
                _fmt(row.log_l),
                _fmt(row.aic),
                _fmt(row.bic),
                "-",
            ]
        else:
            message = row.error.replace("\t", " ").replace("\n", " ")
            cells = [row.family, "-", "-", "-", "-", "-", "-", message]
        lines.append("\t".join(cells))
    _write(lines, args.out)
    return 0 if any(row.ok for row in rows) else 1


def _cmd_lrtest(args) -> int:
    dataset = _load(args)
    res = lr_test(dataset.values, _optimizer_config(args))
    decision = (
        "reject logistic null in favor of baslg2"
        if res.reject_null
        else "fail to reject logistic null"
    )
    lines = [
        "command\tlrtest",
        f"label\t{dataset.label}",
        f"n_obs\t{dataset.n}",
        f"statistic\t{_fmt(res.statistic)}",
        f"critical_value\t{_fmt(res.critical_value)}",
        f"df\t{res.df}",
        f"reject_null\t{_fmt(res.reject_null)}",
        f"decision\t{decision}",
        f"loglik_null\t{_fmt(res.null_fit.log_l)}",
        f"loglik_full\t{_fmt(res.full_fit.log_l)}",
    ]
    _write(lines, args.out)
    return 0


def _curves(args) -> list[str]:
    if args.alphas is None:
        raise UsageError("--curves needs --alphas.")
    if args.range is None:
        raise UsageError("--curves needs --range.")
    grid = _range_grid(args.range, args.points)
    alphas = _parse_float_list(args.alphas, "--alphas")
    columns = [grid]
    for alpha in alphas:
        columns.append(getattr(LocScaleModel(alpha, args.mu, args.beta), args.what)(grid))
    header = "z\t" + "\t".join(f"alpha={_fmt(a)}" for a in alphas)
    return [header, *_rows(columns)]


def _overlay(args) -> list[str]:
    if args.data is None:
        raise UsageError("--overlay needs --data.")
    if args.dists is None:
        raise UsageError("--overlay needs --dists.")
    dataset = _load(args)
    families = _families(args.dists)
    if args.bins < 1:
        raise UsageError("--bins must be >= 1.")
    density, edges = np.histogram(dataset.values, bins=args.bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    config = _optimizer_config(args)
    columns = [centers, widths, density]
    for family in families:
        result = fit_mle(family, dataset.values, config)
        columns.append(np.exp(FAMILIES[family].logpdf(result.param_tuple(), centers)))
    return ["center\twidth\tdensity\t" + "\t".join(families), *_rows(columns)]


def _cmd_plotdata(args) -> int:
    if args.curves == args.overlay:
        raise UsageError("choose exactly one of --curves or --overlay.")
    lines = _curves(args) if args.curves else _overlay(args)
    _write(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    parser._negative_number_matcher = _NUMBER_LIKE  # noqa: SLF001


def _add_data_flags(sub, required=True):
    sub.add_argument("--data", required=required, help="path to a text data file")
    sub.add_argument("--column", type=int, default=1, help="1-based column selector")
    sub.add_argument("--delimiter", default=None, help="field delimiter (default: whitespace)")


def _add_fit_flags(sub):
    sub.add_argument("--seed", type=int, default=0, help="optimizer seed")
    sub.add_argument("--restarts", type=int, default=None, help="optimizer restarts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baslg",
        description="Evaluate, sample, fit, and compare the BASLG2 distribution family.",
    )
    _allow_negative_values(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_eval = subparsers.add_parser("eval", help="tabulate pdf and cdf values")
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--mu", type=float, default=0.0)
    p_eval.add_argument("--beta", type=float, default=1.0)
    p_eval.add_argument("--at", default=None, help="comma list of evaluation points")
    p_eval.add_argument("--range", default=None, help="lo:hi for an even grid")
    p_eval.add_argument("--points", type=int, default=200)
    p_eval.add_argument("--sym", action="store_true", help="append symmetric-component columns")
    p_eval.set_defaults(func=_cmd_eval)

    p_sample = subparsers.add_parser("sample", help="draw random variates")
    p_sample.add_argument("--alpha", type=float, required=True)
    p_sample.add_argument("--mu", type=float, default=0.0)
    p_sample.add_argument("--beta", type=float, default=1.0)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--method", choices=("inverse", "rejection"), default="inverse")
    p_sample.set_defaults(func=_cmd_sample)

    p_fit = subparsers.add_parser("fit", help="maximum-likelihood fit of one family")
    p_fit.add_argument("--dist", choices=_FAMILY_CHOICES, required=True)
    _add_data_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = subparsers.add_parser("compare", help="fit several families, rank by AIC")
    _add_data_flags(p_cmp)
    p_cmp.add_argument("--dists", default=None, help="comma list of families (default: all)")
    _add_fit_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_lr = subparsers.add_parser("lrtest", help="likelihood-ratio test: lg vs baslg2")
    _add_data_flags(p_lr)
    _add_fit_flags(p_lr)
    p_lr.set_defaults(func=_cmd_lrtest)

    p_plot = subparsers.add_parser("plotdata", help="emit plot-ready tables")
    p_plot.add_argument("--curves", action="store_true", help="density/cdf curves on a grid")
    p_plot.add_argument("--overlay", action="store_true", help="histogram plus fitted densities")
    p_plot.add_argument("--alphas", default=None, help="comma list of shape values (curves)")
    p_plot.add_argument("--dists", default=None, help="comma list of families (overlay)")
    p_plot.add_argument("--what", choices=("pdf", "cdf"), default="pdf")
    p_plot.add_argument("--mu", type=float, default=0.0)
    p_plot.add_argument("--beta", type=float, default=1.0)
    p_plot.add_argument("--range", default=None)
    p_plot.add_argument("--points", type=int, default=200)
    p_plot.add_argument("--bins", type=int, default=20)
    _add_data_flags(p_plot, required=False)
    _add_fit_flags(p_plot)
    p_plot.set_defaults(func=_cmd_plotdata)

    for sub in subparsers.choices.values():
        sub.add_argument("--out", default=None)
        _allow_negative_values(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, DegenerateDataError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """``main()`` as a process entry point: ``python -m baslg``,
    ``python -m baslg.cli`` and the ``baslg`` console script.

    First ``gc.freeze()`` moves every object the imports made into the
    collector's permanent generation, so no later collection, the one at
    interpreter exit included, traverses numpy's and baslg's module graph
    again.  That is a process-wide effect, so it stays out of ``main()``,
    which tests and benchmarks call in-process.  The status is returned for
    the caller's ``sys.exit``, which flushes the streams and runs the atexit
    handlers as before.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
