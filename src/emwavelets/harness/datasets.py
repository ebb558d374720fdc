"""Dataset emission: deterministic CSV plus a JSON metadata sidecar.

Floats are written with 17 significant digits (round-trip exact), complex
values as paired Re/Im columns, rows in fixed row-major order, and files
are written atomically (temp then rename) so interrupted runs leave no
partial output.  The CSV body is a stream of 3-D blocks (outer, inner,
columns), each written in reshape(-1, columns) order as it arrives, so a
sweep is never held whole; a table is the one block rows[:, None].  A
value that repeats along either axis of a block, as a sweep's point and
time columns do, is formatted once and its text reused.  Values are
formatted a chunk at a time by whole-array numpy kernels (harness._format),
and the bytes are still those of np.savetxt(fmt="%.17g", delimiter=",").
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._format import WIDTH, format17

__all__ = ["write_csv", "write_csv_atomic", "write_json_sidecar"]

CHUNK = 512  # records formatted per write: bounds the writer's memory
BLOCK_CHUNKS = 4  # writer chunks per computed field block: fewer compute up to 2x slower


def _write_atomic(path, write):
    """Run write(fh) on a temp file next to path, then rename it into place; returns what write returns.

    A write that raises leaves no file behind.  The temp file is created as
    open() would create it, mode 0o666 less the umask.
    """
    path = os.fspath(path)
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            result = write(fh)
        os.replace(tmp, path)
        return result
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_chunk(fh, sub, buf):
    """Write an (m, k, C) sub-block, formatting each repeated value once.

    A column bitwise constant along the inner axis is formatted once per
    outer item, one constant along the outer axis once per inner item, and
    any other once per record.  Each record's text goes into the next C
    fields of buf, a bytearray of NUL-padded fields whose last bytes hold
    the separators; the text is buf without its NULs.  The same double
    always gives the same %.17g text, so the bytes are those of formatting
    every value.
    """
    m, k, n_cols = sub.shape
    bits = sub.view(np.int64)  # -0.0 vs +0.0 and NaN payloads stay distinct
    per_outer = (bits == bits[:, :1]).all(axis=(0, 1))
    per_inner = (bits == bits[:1]).all(axis=(0, 1)) & ~per_outer
    per_record = ~(per_outer | per_inner)
    parts = [
        (sub[:, :1][..., per_outer], per_outer),
        (sub[:1][..., per_inner], per_inner),
        (sub[..., per_record], per_record),
    ]
    text = format17(np.concatenate([values.ravel() for values, _ in parts]))
    size = m * k * n_cols * (WIDTH + 1)
    out = np.frombuffer(buf, dtype=np.uint8, count=size).reshape(m, k, n_cols, WIDTH + 1)
    start = 0
    for values, cols in parts:
        out[:, :, cols, :WIDTH] = text[start : start + values.size].reshape(values.shape + (WIDTH,))
        start += values.size
    used = buf if size == len(buf) else buf[:size]
    fh.write(used.translate(None, b"\0").decode("ascii"))


def write_csv(fh, header, blocks) -> int:
    """Header line, then one line of 17-significant-digit values per record; returns the record count.

    blocks is an iterable of 3-D (outer, inner, columns) arrays with the
    same columns; each is written in reshape(-1, columns) order as it
    arrives.  The bytes are those of np.savetxt(fmt="%.17g", delimiter=",")
    on the concatenated records: every value formatted with "%.17g"
    (harness._format), comma-joined.  At most CHUNK records are formatted
    at a time, and values that repeat along an axis are formatted once per
    chunk.
    """
    fh.write(",".join(header) + "\n")
    buf = bytearray()
    records = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        n_outer, n_inner, n_cols = block.shape
        if n_outer * n_inner == 0:
            continue
        per = max(1, CHUNK // n_inner)
        step = min(n_inner, CHUNK)
        size = min(per, n_outer) * step * n_cols * (WIDTH + 1)
        if len(buf) < size:
            buf = bytearray(size)
            seps = np.frombuffer(buf, dtype=np.uint8).reshape(-1, n_cols, WIDTH + 1)[..., WIDTH]
            seps[:] = ord(",")
            seps[:, -1] = ord("\n")
        for o in range(0, n_outer, per):
            for i in range(0, n_inner, step):
                _write_chunk(fh, block[o : o + per, i : i + step], buf)
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
    def write(fh):
        json.dump({k: _jsonable(v) for k, v in metadata.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomic(path, write)
