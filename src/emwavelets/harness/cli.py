"""Command line interface.

Subcommands: sample-field, sample-sources, impulse-response, beam-profile,
validate.  Flags mirror environment variables with the EMWAVELETS_ prefix
(EMWAVELETS_CONFIG, EMWAVELETS_OUT, EMWAVELETS_THREADS, EMWAVELETS_SEED,
EMWAVELETS_TOL_SCALE).  Exit codes: 0 success, 1 validation failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from ..errors import ConfigError, EmwaveletsError
from .config import RunConfig, default_config, load_config
from .datasets import write_csv_atomic, write_json_sidecar
from .runs import (
    FIELD_HEADER_F,
    FIELD_HEADER_PSI,
    SOURCE_HEADER,
    beam_profile_data,
    drive_meta,
    field_rows,
    source_sweep_rows,
)
from .validate import run_all

BEAM_HEADER = ["theta", "T_pred", "T_meas", "gap_T", "M_pred", "M_meas", "gap_M"]


def _env(name, fallback):
    return os.environ.get(f"EMWAVELETS_{name}", fallback)


def _add_common(p):
    p.add_argument("--config", default=_env("CONFIG", None), help="run configuration file")
    p.add_argument("--out", default=_env("OUT", "out"), help="output directory")
    # string defaults: argparse converts them with `type`, so a bad variable exits 2 like a bad flag
    p.add_argument("--threads", type=int, default=_env("THREADS", "1"))
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--tol-scale", type=float, default=_env("TOL_SCALE", "1.0"))


def _load(args) -> RunConfig:
    if not math.isfinite(args.tol_scale) or args.tol_scale <= 0.0:
        raise ConfigError(f"--tol-scale must be finite and positive, got {args.tol_scale!r}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.config:
        rc = load_config(args.config)
    else:
        rc = default_config()
    rc.out_dir = args.out
    rc.threads = args.threads
    rc.seed = args.seed
    rc.tol_scale = args.tol_scale
    return rc


def _config_error(msg: str) -> int:
    print(json.dumps({"error": "config", "message": str(msg)}), file=sys.stderr)
    return 2


def cmd_sample_field(args) -> int:
    rc = _load(args)
    if not rc.grid:
        raise ConfigError("sample-field needs a [grid] section")
    rows = field_rows(rc, threads=rc.threads)
    records = rows.shape[0] * rows.shape[1]
    header = FIELD_HEADER_PSI if rc.quantity == "psi" else FIELD_HEADER_F
    csv_path = os.path.join(rc.out_dir, "field.csv")
    write_csv_atomic(csv_path, header, rows)
    write_json_sidecar(
        os.path.join(rc.out_dir, "field.json"),
        {
            "a": rc.source.a,
            "b": rc.source.b,
            "c": rc.source.c,
            "cut": rc.cut_kind,
            "signal": rc.signal_kind,
            **drive_meta(rc.signal()),
            "quantity": rc.quantity,
            "records": records,
            "columns": header,
        },
    )
    print(f"wrote {records} records to {csv_path}")
    return 0


def cmd_sample_sources(args, impulse: bool = False) -> int:
    rc = _load(args)
    try:
        rows, meta = source_sweep_rows(rc, impulse=impulse)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    name = "impulse_response" if impulse else "sources"
    csv_path = os.path.join(rc.out_dir, f"{name}.csv")
    write_csv_atomic(csv_path, SOURCE_HEADER, rows)
    write_json_sidecar(os.path.join(rc.out_dir, f"{name}.json"), meta)
    print(f"wrote {len(rows)} records to {csv_path}")
    return 0


def cmd_beam_profile(args) -> int:
    rc = _load(args)
    try:
        rows, summary = beam_profile_data(rc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    csv_path = os.path.join(rc.out_dir, "beam_profile.csv")
    write_csv_atomic(csv_path, BEAM_HEADER, rows)
    write_json_sidecar(os.path.join(rc.out_dir, "beam_profile.json"), summary)
    print(f"wrote {len(rows)} angles to {csv_path}")
    return 0


def cmd_validate(args) -> int:
    rc = _load(args)
    t0 = time.perf_counter()
    results = run_all(rc, seed=rc.seed, tol_scale=rc.tol_scale)
    for res in results:
        print(res.line())
    total = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed in {total:.1f}s")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emwavelets",
        description="Complex-source pulsed beams: field sampling, antenna sources, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("sample-field", cmd_sample_field),
        ("sample-sources", cmd_sample_sources),
        ("impulse-response", lambda a: cmd_sample_sources(a, impulse=True)),
        ("beam-profile", cmd_beam_profile),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _config_error(exc)
    except EmwaveletsError as exc:
        print(json.dumps({"error": "run", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
