"""Whitespace/delimited numeric file loading with line-accurate diagnostics."""

from __future__ import annotations

import math
import statistics
import warnings

import numpy as np
import pytest

from baslg import Dataset, DatasetError, load_dataset

from conftest import DATA_DIR


class TestBundledData:
    def test_galaxies_loads(self):
        ds = load_dataset(DATA_DIR / "galaxies.txt")
        assert ds.n == 82
        assert ds.values.min() == pytest.approx(9.172)
        assert ds.values.max() == pytest.approx(34.279)
        assert np.all(np.diff(ds.values) >= 0.0)
        # The 78th ordered value distinguishes the bundled variant.
        assert ds.values[77] == pytest.approx(26.96)


class TestLoadDataset:
    def test_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "vals.txt"
        p.write_text("# header\n1.5\n\n  # more\n2.5\n3.5\n")
        ds = load_dataset(p)
        np.testing.assert_allclose(ds.values, [1.5, 2.5, 3.5])
        assert ds.n == 3

    def test_column_selection(self, tmp_path):
        p = tmp_path / "cols.txt"
        p.write_text("a 1.0 10.0\nb 2.0 20.0\n")
        ds = load_dataset(p, column=3)
        np.testing.assert_allclose(ds.values, [10.0, 20.0])

    def test_custom_delimiter(self, tmp_path):
        p = tmp_path / "csv.txt"
        p.write_text("1.5,7.0\n2.5,8.0\n")
        ds = load_dataset(p, column=2, delimiter=",")
        np.testing.assert_allclose(ds.values, [7.0, 8.0])

    def test_parse_error_names_line_and_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(DatasetError, match=r":3:") as exc:
            load_dataset(p)
        assert "oops" in str(exc.value)

    def test_missing_column_names_line(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(DatasetError, match=r":2:"):
            load_dataset(p, column=2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing but comments\n")
        with pytest.raises(DatasetError):
            load_dataset(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "inf.txt"
        p.write_text("1.0\ninf\n")
        with pytest.raises(DatasetError):
            load_dataset(p)

    def test_bad_column_number(self, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("1.0\n")
        with pytest.raises(DatasetError):
            load_dataset(p, column=0)

    def test_label_defaults_to_stem(self, tmp_path):
        p = tmp_path / "mystery.txt"
        p.write_text("4.0\n5.0\n")
        assert load_dataset(p).label == "mystery"
        assert load_dataset(p, label="renamed").label == "renamed"


class TestDataset:
    def test_values_are_read_only(self):
        ds = Dataset(values=np.array([1.0, 2.0]), source_path=None, label="x")
        with pytest.raises(ValueError):
            ds.values[0] = 9.0

    def test_validation(self):
        with pytest.raises(DatasetError):
            Dataset(values=np.array([]), source_path=None, label="x")
        with pytest.raises(DatasetError):
            Dataset(values=np.array([1.0, np.nan]), source_path=None, label="x")

    def test_summary_statistics(self):
        ds = Dataset(values=np.array([1.0, 2.0, 3.0]), source_path=None, label="tiny")
        s = ds.summary()
        assert s["n"] == 3.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_summary_keeps_huge_and_tiny_data(self):
        # the sum of the first overflows and the squares of the second
        # underflow; the mean and std are those of the exactly rescaled data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = Dataset(values=np.array([1e308, 1e308, 1.0]), source_path=None,
                           label="huge").summary()
            tiny = Dataset(values=np.array([0.0, 1e-200, 2e-200]), source_path=None,
                           label="tiny").summary()
        assert huge["mean"] == pytest.approx(1e308 / 3.0 * 2.0, rel=1e-15)
        assert huge["std"] == pytest.approx(math.sqrt(2.0) / 3.0 * 1e308, rel=1e-15)
        assert tiny["mean"] == pytest.approx(1e-200, rel=1e-15)
        assert tiny["std"] == pytest.approx(statistics.pstdev([0.0, 1e-200, 2e-200]), rel=1e-15)
