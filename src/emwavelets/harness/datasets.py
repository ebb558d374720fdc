"""Dataset emission: deterministic CSV plus a JSON metadata sidecar.

Floats are written with 17 significant digits (round-trip exact), complex
values as paired Re/Im columns, rows in fixed row-major order, and files
are written atomically (temp then rename) so interrupted runs leave no
partial output.  The CSV body is a stream of 3-D blocks (outer, inner,
columns), each written in reshape(-1, columns) order as it arrives, so a
sweep is never held whole; a table is the one block rows[:, None].  The
header declares what each column varies with, as its producer built it:
the outer item (a field sweep's point, a surface sweep's ring), the inner
item (its time slice, its azimuth) or the record; a value declared per
item is formatted once and its text reused.
Values are formatted VALUE_BUDGET at a time by whole-array numpy kernels (harness._format),
and the bytes, those of np.savetxt(fmt="%.17g", delimiter=","), go to a binary file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._format import WIDTH, format17

__all__ = ["OUTER", "INNER", "RECORD", "write_csv", "write_csv_atomic", "write_json_sidecar"]

VALUE_BUDGET = 8192  # values per format17 call: bounds the writer's memory
OUTER, INNER, RECORD = "outer", "inner", "record"  # what a column's values vary with


def _write_atomic(path, write):
    """Run write(fh) on a binary temp file next to path, then rename it into place; returns what write returns.

    A write that raises leaves no file behind.  The temp file is created as
    open() would create it, mode 0o666 less the umask.
    """
    path = os.fspath(path)
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            result = write(fh)
        os.replace(tmp, path)
        return result
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_chunk(fh, sub, classes, buf):
    """Write an (m, k, C) sub-block, formatting each repeated value once.

    classes are the OUTER, INNER and RECORD column masks: each column is
    formatted once per what it varies with.  buf, a bytearray reused from
    call to call, is resized to the sub-block's m k C fields, and each
    record's text goes into its next C fields as NUL-padded fields each
    followed by its separator, so the text is buf without its NULs.  The
    same double always gives the same %.17g text, so the bytes are those of
    formatting every value.
    """
    m, k, n_cols = sub.shape
    per_outer, per_inner, per_record = classes
    parts = [
        (sub[:, :1][..., per_outer], per_outer),
        (sub[:1][..., per_inner], per_inner),
        (sub[..., per_record], per_record),
    ]
    text = format17(np.concatenate([values.ravel() for values, _ in parts]))
    size = m * k * n_cols * (WIDTH + 1)
    del buf[size:]
    buf.extend(bytes(size - len(buf)))
    out = np.frombuffer(buf, dtype=np.uint8).reshape(m, k, n_cols, WIDTH + 1)
    out[..., WIDTH] = ord(",")
    out[..., -1, WIDTH] = ord("\n")
    start = 0
    for values, cols in parts:
        out[:, :, cols, :WIDTH] = text[start : start + values.size].reshape(values.shape + (WIDTH,))
        start += values.size
    fh.write(buf.translate(None, b"\0"))


def write_csv(fh, header, blocks) -> int:
    """Header line, then one line of 17-significant-digit values per record, to binary fh; returns the record count.

    header maps each column's name, in order, to OUTER, INNER or RECORD.
    blocks is an iterable of 3-D (outer, inner, columns) arrays, each
    written in reshape(-1, columns) order as it arrives.  An OUTER value is
    read from an outer item's first record and an INNER one from a block's
    first outer item, so where the blocks hold what header declares, the
    bytes are those of np.savetxt(fmt="%.17g", delimiter=",") on the
    records.  A block is written in sub-blocks of one format17 call each.
    """
    varies = list(header.values())
    if not set(varies) <= {OUTER, INNER, RECORD}:
        raise ValueError(f"a column varies with {OUTER}, {INNER} or {RECORD}, got {varies}")
    classes = [np.array([v == kind for v in varies]) for kind in (OUTER, INNER, RECORD)]
    # an (m, k) sub-block formats m n_o + k n_i + m k n_r values; a record counting as one at least bounds buf
    n_o, n_i, n_r = (int(c.sum()) for c in classes)
    n_r = max(n_r, 1)
    fh.write((",".join(header) + "\n").encode())
    buf = bytearray()
    records = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        n_outer, n_inner, n_cols = block.shape
        if n_cols != len(varies):
            raise ValueError(f"a block of {n_cols} columns under a header of {len(varies)}")
        if n_outer * n_inner == 0:
            continue
        step = min(n_inner, max(1, (VALUE_BUDGET - n_o) // (n_i + n_r)))  # whole inner rows while one fits
        per = 1 if step < n_inner else max(1, (VALUE_BUDGET - step * n_i) // (n_o + step * n_r))
        size = min(per, n_outer) * step * n_cols * (WIDTH + 1)
        if len(buf) < size:
            buf = bytearray(size)
        for o in range(0, n_outer, per):
            for i in range(0, n_inner, step):
                _write_chunk(fh, block[o : o + per, i : i + step], classes, buf)
        records += n_outer * n_inner
    return records


def write_csv_atomic(path, header, blocks) -> int:
    """write_csv to path, atomically; returns the record count."""
    return _write_atomic(path, lambda fh: write_csv(fh, header, blocks))


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def write_json_sidecar(path, metadata: dict):
    text = json.dumps({k: _jsonable(v) for k, v in metadata.items()}, indent=2, sort_keys=True)
    _write_atomic(path, lambda fh: fh.write((text + "\n").encode()))
