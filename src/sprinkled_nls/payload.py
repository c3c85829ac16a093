"""The two payload writers: every CSV and JSON file the package writes.

Both write UTF-8 text with LF line ends, so rerunning with the same seed
reproduces a file byte for byte on any platform.  CSV floats carry 17
significant digits, which parse back to the same double.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

__all__ = ["write_csv", "write_json"]


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """A header of the column names, then one row per index.

    Bools are written as 1/0, integers as integers and floats with 17
    significant digits.  Columns of unequal length raise ValueError before
    the file is opened.
    """
    lines = [",".join(columns)]
    lines += [",".join(map(_cell, row))
              for row in zip(*columns.values(), strict=True)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def write_json(path, doc) -> None:
    """The document with sorted keys, two-space indent and a final newline;
    numpy arrays and scalars are written as plain lists and numbers."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")
