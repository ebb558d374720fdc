"""Dataset emission: deterministic CSV plus a JSON metadata sidecar.

Floats are written with 17 significant digits (round-trip exact), complex
values as paired Re/Im columns, rows in fixed row-major order, and files
are written atomically (temp then rename) so interrupted runs leave no
partial output.  The CSV body comes from a 2-D table or from a 3-D block
(outer, inner, columns) written in reshape(-1, columns) order; a value
that repeats along either axis of a block, as a sweep's point and time
columns do, is formatted once and its text reused.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["write_csv", "write_csv_atomic", "write_json_sidecar"]

CHUNK = 512  # records formatted per write: bounds the writer's memory

_PER_OUTER, _PER_INNER, _PER_RECORD = 0, 1, 2


def _write_atomic(path, write):
    """Run write(fh) on a temp file next to path, then rename it into place.

    The temp file is created as open() would create it, mode 0o666 less the
    umask.
    """
    path = os.fspath(path)
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _runs(classes):
    """(class, start, stop) of each run of equal consecutive column classes."""
    runs = []
    start = 0
    for stop in range(1, len(classes) + 1):
        if stop == len(classes) or classes[stop] != classes[start]:
            runs.append((classes[start], start, stop))
            start = stop
    return runs


def _write_chunk(fh, sub):
    """Write an (m, k, C) sub-block, formatting each repeated value once.

    A column bitwise constant along the inner axis is formatted once per
    outer item, one constant along the outer axis once per inner item, and
    any other once per record.  The same double always gives the same
    %.17g text, so the bytes are those of formatting every value.
    """
    m, k, _ = sub.shape
    bits = sub.view(np.int64)  # -0.0 vs +0.0 and NaN payloads stay distinct
    per_outer = (bits == bits[:, :1]).all(axis=(0, 1))
    per_inner = (bits == bits[:1]).all(axis=(0, 1))
    classes = np.where(per_outer, _PER_OUTER, np.where(per_inner, _PER_INNER, _PER_RECORD))
    runs = _runs(classes.tolist())
    pieces = np.empty((m, k, len(runs)), dtype=object)
    for r, (cls, start, stop) in enumerate(runs):
        part = sub[:, :1] if cls == _PER_OUTER else sub[:1] if cls == _PER_INNER else sub
        part = part[..., start:stop]
        fmt = ",".join(["%.17g"] * (stop - start))
        text = [fmt % values for values in map(tuple, part.reshape(-1, stop - start).tolist())]
        pieces[:, :, r] = np.array(text, dtype=object).reshape(part.shape[:2])
    row = ",".join(["%s"] * len(runs)) + "\n"
    fh.write((row * (m * k)) % tuple(pieces.ravel().tolist()))


def write_csv(fh, header, rows):
    """Header line, then one line of 17-significant-digit values per record.

    rows is a 2-D table (records, columns) or a 3-D block (outer, inner,
    columns) whose records are written in reshape(-1, columns) order.  The
    bytes are those of formatting every value with "%.17g", comma-joined;
    values that repeat along an axis are formatted once per chunk of at
    most CHUNK records.
    """
    fh.write(",".join(header) + "\n")
    block = np.asarray(rows, dtype=np.float64)
    if block.ndim == 2:
        block = block[None]  # one outer item whose inner axis is the records
    if block.ndim != 3:
        raise ValueError(f"expected a 2-D table or a 3-D block, got {block.ndim} dimensions")
    n_outer, n_inner, _ = block.shape
    if n_outer * n_inner == 0:
        return
    per = max(1, CHUNK // n_inner)
    step = min(n_inner, CHUNK)
    for o in range(0, n_outer, per):
        for i in range(0, n_inner, step):
            _write_chunk(fh, block[o : o + per, i : i + step])


def write_csv_atomic(path, header, rows):
    """Write rows (a 2-D table or 3-D block, as write_csv) under a header line."""
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
