"""Dataset emission: deterministic CSV plus a JSON metadata sidecar.

Floats are written with 17 significant digits (round-trip exact), complex
values as paired Re/Im columns, rows in fixed row-major order, and files
are written atomically (temp then rename) so interrupted runs leave no
partial output.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = ["write_csv", "write_csv_atomic", "write_json_sidecar"]


def _write_atomic(path, write):
    """Run write(fh) on a temp file next to path, then rename it into place."""
    path = os.fspath(path)
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(fh, header, rows):
    """Header line, then one line of 17-significant-digit values per row."""
    fh.write(",".join(header) + "\n")
    np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def write_csv_atomic(path, header, rows):
    """Write rows (iterable of numeric sequences) under a header line."""
    _write_atomic(path, lambda fh: write_csv(fh, header, rows))


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def write_json_sidecar(path, metadata: dict):
    def write(fh):
        json.dump({k: _jsonable(v) for k, v in metadata.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomic(path, write)
