"""Reference feature-file reader: one ``float()`` per CSV field.

This is the reader that ``seqembed.data._read_csv_features`` replaced with
one ``np.loadtxt`` call per file, kept as the oracle the equivalence tests
compare against.  Rows are checked in file order, a row's fields before its
width; blank lines are skipped.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from seqembed.data import read_input, validate_frames
from seqembed.errors import DataError, DimensionError


def read_csv_features(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(read_input(path, "feature file", "row", 0)):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: non-numeric value") from exc
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DimensionError(
                f"{path}: row {lineno} has width {len(vals)}, expected {width}"
            )
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: empty feature file")
    return validate_frames(np.array(rows, dtype=np.float64), str(path))
