"""End-to-end command-line checks through a real subprocess.

Every test shells out to ``python -m baslg.cli`` so argument parsing, exit
codes, and byte-level output conventions are exercised exactly as a user
would hit them.
"""

from __future__ import annotations

import gc
import importlib.util
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

import baslg.cli
import baslg.fit
from baslg import StandardBaslg

from conftest import DATA_DIR, command

GALAXIES = str(DATA_DIR / "galaxies.txt")
SCRIPTS = DATA_DIR.parent / "scripts"


def run_cli(*args, module="baslg.cli"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def report_dict(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


class TestEval:
    def test_symmetric_point(self):
        res = run_cli("eval", "--alpha", "0", "--at", "0")
        assert res.returncode == 0
        z, pdf, cdf = res.stdout.strip().split("\t")
        assert float(z) == 0.0
        assert float(pdf) == 0.25
        assert float(cdf) == 0.5

    def test_grid_monotone_cdf(self):
        res = run_cli("eval", "--alpha", "1.5", "--range", "-15:15", "--points", "400")
        assert res.returncode == 0
        rows = [line.split("\t") for line in res.stdout.splitlines()]
        assert len(rows) == 400
        cdf = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(cdf) >= 0.0)

    def test_output_reparses_to_exact_binary_values(self):
        res = run_cli("eval", "--alpha", "0.7", "--range", "-5:5", "--points", "50")
        rows = [line.split("\t") for line in res.stdout.splitlines()]
        grid = np.linspace(-5.0, 5.0, 50)
        d = StandardBaslg(0.7)
        want_pdf = d.pdf(grid)
        want_cdf = d.cdf(grid)
        for i, row in enumerate(rows):
            assert float(row[0]) == grid[i]
            assert float(row[1]) == want_pdf[i]
            assert float(row[2]) == want_cdf[i]

    def test_sym_columns(self):
        res = run_cli("eval", "--alpha", "2", "--at", "-1.5,0,1.5", "--sym")
        assert res.returncode == 0
        rows = [line.split("\t") for line in res.stdout.splitlines()]
        assert len(rows) == 3 and all(len(r) == 5 for r in rows)
        # Symmetric-component pdf column must be even in z.
        assert float(rows[0][3]) == pytest.approx(float(rows[2][3]), rel=1e-12)

    def test_sym_residual_overflow_is_silent(self):
        res = run_cli("eval", "--alpha", "1", "--beta", "1e-300", "--at", "1e300,-1e300,0",
                      "--sym")
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == (
            "1e+300\t0.0\t1.0\t0.0\t1.0\n"
            "-1e+300\t0.0\t0.0\t0.0\t0.0\n"
            "0.0\t1.3196699826214265e+298\t0.8587153564683564\t1.3196699826214265e+298\t0.5\n"
        )

    def test_location_scale(self):
        res = run_cli("eval", "--alpha", "0", "--mu", "10", "--beta", "2", "--at", "10")
        row = res.stdout.strip().split("\t")
        assert float(row[1]) == pytest.approx(0.125, rel=1e-14)
        assert float(row[2]) == pytest.approx(0.5, rel=1e-14)

    def test_negative_flag_values_parse(self):
        res = run_cli("eval", "--alpha", "-2", "--at", "-4,-1,0,1,4")
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 5

    def test_dot_and_infinite_negative_values_parse(self):
        # a separate value token must read as the same value joined by "="
        for flag, value, joined in (("--alpha", "-.5", "-0.5"), ("--at", "-.5", "-0.5"),
                                    ("--at", "-inf", "-inf"), ("--at", "-Infinity", "-inf")):
            other = ("--at", "0") if flag == "--alpha" else ("--alpha", "1")
            res = run_cli("eval", *other, flag, value)
            want = run_cli("eval", *other, f"{flag}={joined}")
            assert (res.returncode, res.stderr) == (0, ""), (flag, value, res.stderr)
            assert res.stdout == want.stdout, (flag, value)
        res = run_cli("plotdata", "--curves", "--alphas", "-.5,1", "--range", "-1:1",
                      "--points", "3")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "z\talpha=-0.5\talpha=1.0"
        res = run_cli("eval", "--alpha", "1", "--range", "-inf:0")
        assert res.returncode == 2
        assert res.stderr == "error: --range needs finite lo and hi, got '-inf:0'.\n"
        res = run_cli("eval", "-h")
        assert res.returncode == 0 and res.stdout.startswith("usage: baslg eval")


class TestSample:
    def test_count_and_finiteness(self):
        res = run_cli("sample", "--alpha", "1.2", "--n", "200", "--seed", "9")
        assert res.returncode == 0
        vals = np.array([float(v) for v in res.stdout.split()])
        assert vals.size == 200
        assert np.all(np.isfinite(vals))

    def test_determinism_bytes(self):
        a = run_cli("sample", "--alpha", "1.2", "--n", "50", "--seed", "3")
        b = run_cli("sample", "--alpha", "1.2", "--n", "50", "--seed", "3")
        assert a.stdout == b.stdout
        c = run_cli("sample", "--alpha", "1.2", "--n", "50", "--seed", "4")
        assert c.stdout != a.stdout

    def test_rejection_method(self):
        res = run_cli(
            "sample", "--alpha", "-3", "--n", "100", "--method", "rejection"
        )
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 100


class TestFit:
    def test_logistic_report(self):
        res = run_cli("fit", "--dist", "lg", "--data", GALAXIES)
        assert res.returncode == 0
        rep = report_dict(res.stdout)
        assert rep["command"] == "fit"
        assert rep["family"] == "lg"
        assert rep["label"] == "galaxies"
        assert rep["n_obs"] == "82"
        assert rep["converged"] == "true"
        assert int(rep["restarts_used"]) >= 1
        assert float(rep["loglik"]) == pytest.approx(-233.65, abs=0.1)
        assert float(rep["param.mu"]) == pytest.approx(21.075, rel=0.02)
        assert float(rep["param.beta"]) == pytest.approx(2.204, rel=0.02)
        assert "error" not in rep

    def test_degenerate_data_still_reports(self, tmp_path):
        p = tmp_path / "flat.txt"
        p.write_text("5.0\n" * 30)
        res = run_cli("fit", "--dist", "baslg2", "--data", str(p))
        assert res.returncode == 1
        rep = report_dict(res.stdout)
        assert rep["converged"] == "false"
        assert "identical" in rep["error"]

    def test_range_wider_than_a_double_is_refused(self, tmp_path):
        p = tmp_path / "wide.txt"
        p.write_text("-1e308\n0\n1e308\n")
        res = run_cli("fit", "--dist", "lg", "--data", str(p))
        assert res.returncode == 1
        assert res.stdout == ""
        want = "error: the data range [-1e+308, 1e+308] is wider than the largest double.\n"
        assert res.stderr == want


class TestCompare:
    def test_galaxies_table(self):
        res = run_cli("compare", "--data", GALAXIES)
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "# family\tshape\tmu\tscale\tloglik\taic\tbic\terror"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 6
        assert rows[0][0] == "baslg2"
        aics = [float(r[5]) for r in rows]
        assert aics == sorted(aics)
        # Two-parameter families use "-" in the shape cell.
        shapes = {r[0]: r[1] for r in rows}
        assert shapes["lg"] == "-" and shapes["n"] == "-"
        assert shapes["baslg2"] != "-"

    def test_subset(self):
        res = run_cli("compare", "--data", GALAXIES, "--dists", "lg,la")
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 3


class TestLrTest:
    def test_galaxies(self):
        res = run_cli("lrtest", "--data", GALAXIES)
        assert res.returncode == 0
        rep = report_dict(res.stdout)
        assert float(rep["statistic"]) == pytest.approx(27.5838, abs=1.0)
        assert rep["reject_null"] == "true"
        assert rep["decision"] == "reject logistic null in favor of baslg2"
        assert rep["df"] == "1"
        assert float(rep["critical_value"]) == pytest.approx(6.635)


class TestPlotdata:
    def test_curves(self):
        res = run_cli(
            "plotdata", "--curves", "--alphas", "-4,-1,0,1,4",
            "--range", "-15:15", "--points", "600",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        header = lines[0].split("\t")
        assert header[0] == "z"
        assert header[1:] == [
            "alpha=-4.0", "alpha=-1.0", "alpha=0.0", "alpha=1.0", "alpha=4.0",
        ]
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 600 and all(len(r) == 6 for r in rows)
        z = np.array([float(r[0]) for r in rows])
        col0 = np.array([float(r[3]) for r in rows])
        np.testing.assert_array_equal(col0, StandardBaslg(0.0).pdf(z))

    def test_cdf_curves(self):
        res = run_cli(
            "plotdata", "--curves", "--alphas", "2", "--range", "-10:10",
            "--points", "50", "--what", "cdf",
        )
        vals = [float(line.split("\t")[1]) for line in res.stdout.splitlines()[1:]]
        assert vals == sorted(vals)
        assert 0.0 <= vals[0] and vals[-1] <= 1.0

    def test_overlay(self):
        res = run_cli(
            "plotdata", "--overlay", "--data", GALAXIES,
            "--dists", "lg,baslg2", "--bins", "15", "--restarts", "10",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "center\twidth\tdensity\tlg\tbaslg2"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 15
        mass = sum(float(r[1]) * float(r[2]) for r in rows)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert all(float(r[3]) >= 0.0 and float(r[4]) >= 0.0 for r in rows)


class TestExitCodes:
    def test_flag_errors_exit_two(self, tmp_path):
        cases = [
            [],
            ["eval"],
            ["eval", "--alpha", "1", "--range", "5:1"],
            ["eval", "--alpha", "1", "--at", "1,zebra"],
            ["eval", "--alpha", "1"],
            ["fit", "--dist", "weibull", "--data", GALAXIES],
            ["sample", "--alpha", "1", "--n", "0"],
            ["plotdata", "--curves", "--range", "-5:5"],
            ["plotdata", "--curves", "--overlay"],
            ["compare", "--data", GALAXIES, "--dists", "lg,bogus"],
            ["fit", "--dist", "lg", "--data", GALAXIES, "--seed", "-1"],
            ["fit", "--dist", "lg", "--data", GALAXIES, "--restarts", "0"],
            ["sample", "--alpha", "1", "--n", "2", "--seed", "-1"],
        ]
        for argv in cases:
            res = run_cli(*argv)
            assert res.returncode == 2, f"{argv} -> {res.returncode}: {res.stderr}"

    def test_repeated_families_exit_two(self):
        for argv in (["compare", "--data", GALAXIES, "--dists", "lg,lg"],
                     ["plotdata", "--overlay", "--data", GALAXIES, "--dists", "lg,baslg2,lg"]):
            res = run_cli(*argv)
            assert res.returncode == 2, f"{argv} -> {res.returncode}: {res.stderr}"
            assert res.stdout == ""
            assert "family 'lg' appears more than once in --dists." in res.stderr

    def test_empty_dists_exit_two(self):
        for argv in (["compare", "--data", GALAXIES, "--dists", ""],
                     ["plotdata", "--overlay", "--data", GALAXIES, "--dists", ""]):
            res = run_cli(*argv)
            assert res.returncode == 2, f"{argv} -> {res.returncode}: {res.stderr}"
            assert res.stdout == ""
            assert "--dists expects at least one family." in res.stderr

    def test_column_below_one_exits_two(self):
        for command in (["fit", "--dist", "la"], ["compare", "--dists", "n,la"],
                        ["plotdata", "--overlay", "--dists", "la"]):
            for column in ("0", "-1"):
                res = run_cli(*command, "--data", GALAXIES, "--column", column)
                assert res.returncode == 2, f"{command} {column} -> {res.returncode}"
                assert res.stdout == ""
                assert res.stderr == f"error: --column must be >= 1, got {column}.\n"

    def test_curves_need_two_points(self):
        for points in ("0", "-1"):
            res = run_cli(
                "plotdata", "--curves", "--alphas", "1", "--range", "-5:5", "--points", points
            )
            assert res.returncode == 2, f"--points {points} -> {res.returncode}: {res.stderr}"
            assert res.stdout == ""
            assert "--points must be >= 2 for a range grid." in res.stderr

    def test_non_finite_range_exits_two(self):
        for command in (["eval", "--alpha", "1"], ["plotdata", "--curves", "--alphas", "1"]):
            for bounds in ("0:inf", "-inf:0", "nan:1"):
                res = run_cli(*command, f"--range={bounds}", "--points", "3")
                assert res.returncode == 2, f"{command} {bounds} -> {res.returncode}"
                assert res.stdout == ""
                assert res.stderr == f"error: --range needs finite lo and hi, got {bounds!r}.\n"
        res = run_cli("eval", "--alpha", "1", "--at", "inf")
        assert (res.returncode, res.stdout) == (0, "inf\t0.0\t1.0\n")

    def test_curves_refuse_what_eval_refuses(self):
        for flags in (["--beta", "-1"], ["--beta", "0"], ["--mu", "nan"]):
            curves = run_cli("plotdata", "--curves", "--alphas", "1", "--range", "-1:1",
                             "--points", "3", *flags)
            evals = run_cli("eval", "--alpha", "1", "--range", "-1:1", "--points", "3", *flags)
            assert curves.returncode == evals.returncode == 1, (flags, curves.stderr)
            assert curves.stdout == ""
            assert curves.stderr == evals.stderr and curves.stderr.startswith("error:")

    def test_huge_alpha_exits_one(self):
        # alpha**4 overflows near |alpha| = 1e77; the limit is checked first
        for argv in (["eval", "--alpha", "1e80", "--at", "0"],
                     ["sample", "--alpha", "1e80", "--n", "2"]):
            res = run_cli(*argv)
            assert res.returncode == 1, f"{argv} -> {res.returncode}: {res.stderr}"
            assert res.stdout == ""
            assert res.stderr.startswith("error:")
            assert "Traceback" not in res.stderr

    def test_domain_errors_exit_one(self, tmp_path):
        res = run_cli("fit", "--dist", "lg", "--data", str(tmp_path / "ghost.txt"))
        assert res.returncode == 1
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        res = run_cli("compare", "--data", str(bad))
        assert res.returncode == 1


class TestEntryPoints:
    """``python -m baslg``, ``python -m baslg.cli`` and the ``baslg`` console
    script are one entry, ``baslg.cli.run``: it freezes the import-time heap
    and runs ``main()``, which has no process-wide effect of its own."""

    @pytest.mark.parametrize("argv, status", [
        pytest.param(["eval", "--alpha", "1.5", "--at", "-2,0,0.5"], 0, id="success"),
        pytest.param(["eval", "--alpha", "1"], 2, id="flag-error"),
        pytest.param(["eval"], 2, id="argparse-error"),
        pytest.param(["eval", "--alpha", "1e80", "--at", "0"], 1, id="domain-error"),
    ])
    def test_package_and_cli_modules_agree(self, argv, status):
        package, cli = run_cli(*argv, module="baslg"), run_cli(*argv)
        assert cli.returncode == status, cli.stderr
        assert (package.returncode, package.stdout, package.stderr) == (
            cli.returncode, cli.stdout, cli.stderr)

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert baslg.cli.main(["eval", "--alpha", "1.5", "--at", "0"]) == 0
        assert baslg.cli.main(["eval", "--alpha", "1e80", "--at", "0"]) == 1
        assert baslg.cli.main(["eval", "--alpha", "1"]) == 2
        with pytest.raises(SystemExit):
            baslg.cli.main(["eval"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("target, args", [
        pytest.param("baslg", ["eval", "--alpha", "1", "--at", "0"], id="baslg"),
        pytest.param("baslg.cli", ["eval", "--alpha", "1", "--at", "0"], id="baslg.cli"),
        pytest.param(str(SCRIPTS / "moment_bounds.py"), ["--grid", "41", "--alpha-max", "5"],
                     id="moment_bounds"),
        pytest.param(str(SCRIPTS / "reproduce_tables.py"),
                     ["--data-dir", str(DATA_DIR), "--restarts", "1"], id="reproduce_tables"),
    ])
    def test_entry_point_freezes_the_import_heap(self, target, args):
        code = command(target, *args) + "\nimport gc\nprint(gc.get_freeze_count())"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=300)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout.splitlines()[-1]) > 0

    def test_console_script_is_the_same_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SCRIPTS.parent / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["baslg"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is baslg.cli.run
        assert importlib.import_module("baslg.__main__").run is baslg.cli.run


class TestScripts:
    def test_moment_bounds(self):
        res = subprocess.run(
            [sys.executable, str(DATA_DIR.parent / "scripts" / "moment_bounds.py"),
             "--grid", "201", "--alpha-max", "20"],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert "mean" in res.stdout and "variance" in res.stdout

    def test_reproduce_tables(self):
        res = subprocess.run(
            [sys.executable, str(DATA_DIR.parent / "scripts" / "reproduce_tables.py"),
             "--data-dir", str(DATA_DIR), "--restarts", "12"],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert "galaxies" in res.stdout
        assert "baslg2" in res.stdout


MOMENT_BOUNDS = str(DATA_DIR.parent / "scripts" / "moment_bounds.py")


def run_moment_bounds(*args, python=()):
    return subprocess.run([sys.executable, *python, MOMENT_BOUNDS, *args],
                          capture_output=True, text=True, timeout=300)


def bound_sections(stdout: str) -> list[list[list[str]]]:
    """The script's output as its three sections of tab-separated rows."""
    sections = []
    for line in stdout.splitlines():
        if line.startswith("# bounds") or line.startswith("# limits"):
            sections.append([])
        elif not line.startswith("#"):
            sections[-1].append(line.split("\t"))
    return sections


_MP_BREAKS = [-mp.inf, -10, -1, 0, 1, 10, mp.inf]


@lru_cache(maxsize=None)
def mp_functionals(alpha: float) -> dict[str, float]:
    """Mean, variance, beta1 and beta2 at alpha from 40-digit quadrature moments.

    alpha inf stands for the blg4 limit law, density z^4 g(z) / mu_4.
    """
    with mp.workdps(40):
        a = mp.mpf(alpha)

        def poly(u):
            return u**4 if mp.isinf(a) else ((1 - a * u) ** 2 + 1) ** 2

        s = [mp.quad(lambda u: poly(u) * u**k / (4 * mp.cosh(u / 2) ** 2), _MP_BREAKS)
             for k in range(5)]
        r1, r2, r3, r4 = (sk / s[0] for sk in s[1:])
        var = r2 - r1**2
        m3 = r3 - 3 * r1 * r2 + 2 * r1**3
        m4 = r4 - 4 * r1 * r3 + 6 * r1**2 * r2 - 3 * r1**4
        return {"mean": float(r1), "variance": float(var), "beta1": float(m3**2 / var**3),
                "beta2": float(m4 / var**2)}


class TestMomentBounds:
    """scripts/moment_bounds.py against an mpmath referee."""

    @pytest.fixture(scope="class")
    def sections(self):
        res = run_moment_bounds("--alpha-max", "60")
        assert res.returncode == 0, res.stderr
        return bound_sections(res.stdout)

    def test_bounds_against_mpmath(self, sections):
        ranged, (limit,), overall = sections
        assert len(ranged) == len(overall) == 8
        for name, _, value, how, alpha in ranged + overall:
            assert how == ("approached" if alpha == "inf" else "attained")
            want = mp_functionals(float(alpha))[name]
            assert float(value) == pytest.approx(want, rel=1e-12, abs=1e-12), (name, alpha)
        names = [row[0] for row in ranged[::2]]
        for name, value in zip(names, limit[1:]):
            want = mp_functionals(float("inf"))[name]
            assert float(value) == pytest.approx(want, rel=1e-12, abs=1e-12), name
        assert [row[:2] for row in overall if row[3] == "approached"] == [
            ["variance", "sup"], ["beta2", "inf"]]

    def test_all_alpha_bounds_do_not_depend_on_the_grid(self, sections):
        coarse = run_moment_bounds("--grid", "41", "--alpha-max", "60")
        assert coarse.returncode == 0, coarse.stderr
        assert bound_sections(coarse.stdout)[2] == sections[2]

    def test_largest_alpha_max_runs_clean(self):
        res = run_moment_bounds("--alpha-max", "1e70", python=("-W", "error"))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    @pytest.mark.parametrize("argv", [["--grid", "0"], ["--grid", "1"],
                                      ["--alpha-max", "nan"], ["--alpha-max", "1e80"]])
    def test_bad_flags_exit_two(self, argv):
        res = run_moment_bounds(*argv)
        assert res.returncode == 2, f"{argv} -> {res.returncode}: {res.stderr}"
        assert res.stdout == ""
        assert "error: " in res.stderr and "Traceback" not in res.stderr


class TestReproduceTablesReuse:
    """The script hands compare_models' lg and baslg2 rows to lr_test."""

    @staticmethod
    def run_script(monkeypatch, capsys, tmp_path, refit: bool):
        path = DATA_DIR.parent / "scripts" / "reproduce_tables.py"
        spec = importlib.util.spec_from_file_location("reproduce_tables", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        if refit:
            # the script as it was before reuse: lr_test fits both models itself
            monkeypatch.setattr(
                script, "lr_test", lambda data, config, **_: baslg.fit.lr_test(data, config)
            )
        # fits made in a forked worker count too: each appends its line to
        # a file that both processes share
        fitted = tmp_path / ("refitted" if refit else "reused")
        original = baslg.fit.fit_mle

        def counting(family, *args, **kwargs):
            with open(fitted, "a", encoding="utf-8") as log:
                log.write(family + "\n")
            return original(family, *args, **kwargs)

        monkeypatch.setattr(baslg.fit, "fit_mle", counting)
        # a worker runs the code it was forked with: fork the next one patched
        baslg.fit._stop_worker()
        monkeypatch.setattr(
            sys, "argv", [str(path), "--data-dir", str(DATA_DIR), "--restarts", "12"]
        )
        assert script.main() == 0
        monkeypatch.undo()
        return capsys.readouterr().out, fitted.read_text(encoding="utf-8").split()

    def test_stdout_unchanged_and_fits_not_repeated(self, monkeypatch, capsys, tmp_path):
        reused, reused_fits = self.run_script(monkeypatch, capsys, tmp_path, refit=False)
        refitted, refitted_fits = self.run_script(monkeypatch, capsys, tmp_path, refit=True)
        assert "LR test lg vs baslg2" in reused
        assert reused == refitted
        found = reused.count("LR test lg vs baslg2")
        families = ("n", "lg", "la", "sn", "aslg", "baslg2")
        assert Counter(reused_fits) == {family: found for family in families}
        assert Counter(refitted_fits) == Counter(reused_fits + ["lg", "baslg2"] * found)


class TestOutFile:
    def test_writes_utf8_lf(self, tmp_path):
        target = tmp_path / "table.tsv"
        res = run_cli(
            "eval", "--alpha", "0.5", "--range", "-3:3", "--points", "7",
            "--out", str(target),
        )
        assert res.returncode == 0
        assert res.stdout == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert len(raw.decode("utf-8").splitlines()) == 7
