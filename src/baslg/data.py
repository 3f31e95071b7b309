"""Plain-text dataset loading for the fitting tools.

Files are one record per line.  Blank lines and lines starting with ``#``
are skipped; everything else must parse as numbers.  Multi-column files
are supported through a 1-based ``column`` selector so a velocity column
can be pulled out of a wider table without preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .models import _mean, _std

__all__ = ["Dataset", "DatasetError", "load_dataset"]


class DatasetError(ValueError):
    """Raised when a data file is missing, empty, or malformed."""


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    source_path: str
    label: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise DatasetError(f"dataset {self.label!r} is empty.")
        if not np.all(np.isfinite(arr)):
            raise DatasetError(f"dataset {self.label!r} contains non-finite values.")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def summary(self) -> dict[str, float]:
        """n, min, max, mean and population std; the mean and std keep their
        digits where the data's sum or squares would overflow or underflow."""
        v = self.values
        return {
            "n": float(v.size),
            "min": float(v.min()),
            "max": float(v.max()),
            "mean": _mean(v),
            "std": _std(v),
        }


def load_dataset(
    path,
    column: int = 1,
    delimiter: Optional[str] = None,
    label: Optional[str] = None,
) -> Dataset:
    """Read one numeric column from a text file.

    ``column`` is 1-based.  ``delimiter=None`` splits on any whitespace.
    Parse failures report the offending line number and content.
    """
    path = Path(path)
    if column < 1:
        raise DatasetError(f"column must be >= 1, got {column}.")
    if not path.is_file():
        raise DatasetError(f"no such data file: {path}")

    values: list[float] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(delimiter) if delimiter else line.split()
            if column > len(fields):
                raise DatasetError(
                    f"{path}:{lineno}: wanted column {column} but line has "
                    f"{len(fields)} field(s): {line!r}"
                )
            token = fields[column - 1]
            try:
                values.append(float(token))
            except ValueError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: cannot parse {token!r} as a number."
                ) from exc

    if not values:
        raise DatasetError(f"{path}: no data lines found.")
    return Dataset(
        values=np.asarray(values, dtype=float),
        source_path=str(path),
        label=label if label is not None else path.stem,
    )
