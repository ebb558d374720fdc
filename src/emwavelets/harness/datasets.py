"""Dataset emission: deterministic CSV plus a JSON metadata sidecar.

Floats are written with 17 significant digits (round-trip exact), complex
values as paired Re/Im columns, rows in fixed row-major order, and files
are written atomically (temp then rename) so interrupted runs leave no
partial output.  The CSV body is a stream of blocks, each written as it
arrives, so a sweep is never held whole.  A block is a list of 2-D
columns that broadcast to one (outer, inner) shape, and a column's shape
says what it repeats over: (outer, 1) repeats over the inner items (a
field sweep's x at every time slice), (1, inner) over the outer ones (its
t at every point), (outer, inner) varies per record and (1, 1) is one
value for the block.  A column is formatted at its own shape and its text
broadcast into the records; a table is one block of (rows, 1) columns.
Values are formatted VALUE_BUDGET at a time by whole-array numpy kernels (harness._format),
and the bytes, those of np.savetxt(fmt="%.17g", delimiter=","), go to a binary file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._format import WIDTH, format17

__all__ = ["write_csv", "write_csv_atomic", "write_json_sidecar"]

VALUE_BUDGET = 8192  # values per format17 call: bounds the writer's memory


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


def _write_chunk(fh, columns, shape, buf):
    """Write the (m, k) records of 2-D columns that broadcast to shape, formatting each column once.

    buf, a bytearray reused from call to call, is resized to the m k C
    fields, and each record's text goes into its next C fields as NUL-padded
    fields each followed by its separator, so the text is buf without its
    NULs.  A column's text is broadcast into its fields: the same double
    always gives the same %.17g text, so the bytes are those of formatting
    every value.
    """
    m, k = shape
    text = format17(np.concatenate([c.ravel() for c in columns]))
    size = m * k * len(columns) * (WIDTH + 1)
    del buf[size:]
    buf.extend(bytes(size - len(buf)))
    out = np.frombuffer(buf, dtype=np.uint8).reshape(m, k, len(columns), WIDTH + 1)
    out[..., WIDTH] = ord(",")
    out[..., -1, WIDTH] = ord("\n")
    start = 0
    for j, c in enumerate(columns):
        out[:, :, j, :WIDTH] = text[start : start + c.size].reshape(c.shape + (WIDTH,))
        start += c.size
    fh.write(buf.translate(None, b"\0"))


def write_csv(fh, header, blocks) -> int:
    """Header line, then one line of 17-significant-digit values per record, to binary fh; returns the record count.

    header is the list of column names.  blocks is an iterable of lists of
    2-D column arrays, one per name, that broadcast to one (outer, inner)
    shape; the block's records are its broadcast columns in row-major
    order, and the bytes are those of np.savetxt(fmt="%.17g", delimiter=",")
    on them.  A column of shape (outer, 1), (1, inner) or (1, 1) is
    formatted at that shape and its text reused; any other block raises
    ValueError.  A block is written in sub-blocks of one format17 call each.
    """
    fh.write((",".join(header) + "\n").encode())
    buf = bytearray()
    records = 0
    for block in blocks:
        if not isinstance(block, (list, tuple)):
            raise ValueError(f"a block is a list of 2-D columns, got {type(block).__name__}")
        columns = [np.asarray(c, dtype=np.float64) for c in block]
        if len(columns) != len(header):
            raise ValueError(f"a block of {len(columns)} columns under a header of {len(header)}")
        if any(c.ndim != 2 for c in columns):
            raise ValueError(f"a column is a 2-D array, got shapes {[c.shape for c in columns]}")
        n_outer, n_inner = np.broadcast_shapes(*(c.shape for c in columns))
        if n_outer * n_inner == 0:
            continue
        # an (m, k) sub-block formats n_1 + m n_o + k n_i + m k n_r values, by what each column's shape repeats over
        kinds = [(len(c) > 1, c.shape[1] > 1) for c in columns]
        n_1, n_o, n_i, n_r = map(kinds.count, [(False, False), (True, False), (False, True), (True, True)])
        step = min(n_inner, max(1, (VALUE_BUDGET - n_1 - n_o) // max(n_i + n_r, 1)))  # whole inner rows while one fits
        per = 1 if step < n_inner else max(1, (VALUE_BUDGET - n_1 - step * n_i) // max(n_o + step * n_r, 1))
        size = min(per, n_outer) * step * len(columns) * (WIDTH + 1)
        if len(buf) < size:
            buf = bytearray(size)
        for o in range(0, n_outer, per):
            for i in range(0, n_inner, step):
                at = (slice(o, o + per), slice(i, i + step))
                sub = [c[tuple(s if n > 1 else slice(None) for s, n in zip(at, c.shape))] for c in columns]
                _write_chunk(fh, sub, (min(per, n_outer - o), min(step, n_inner - i)), buf)
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
