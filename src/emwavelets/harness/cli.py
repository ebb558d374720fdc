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
import os
import sys
import time

from ..errors import ConfigError, EmwaveletsError
from .config import FLAGS, RunConfig, default_config, load_config, parse
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
    """The run's config, after refusing a flag out of range; the config object is not modified."""
    for flag, convert in FLAGS.items():
        parse(flag, convert, getattr(args, flag[2:].replace("-", "_")))
    return load_config(args.config) if args.config else default_config()


def cmd_sample_field(args) -> int:
    rc = _load(args)
    if not rc.grid:
        raise ConfigError("grid: sample-field needs a [grid] section")
    rows = field_rows(rc, threads=args.threads)
    records = rows.shape[0] * rows.shape[1]
    header = FIELD_HEADER_PSI if rc.quantity == "psi" else FIELD_HEADER_F
    csv_path = os.path.join(args.out, "field.csv")
    write_csv_atomic(csv_path, header, rows)
    write_json_sidecar(
        os.path.join(args.out, "field.json"),
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
    csv_path = os.path.join(args.out, f"{name}.csv")
    write_csv_atomic(csv_path, SOURCE_HEADER, rows)
    write_json_sidecar(os.path.join(args.out, f"{name}.json"), meta)
    print(f"wrote {len(rows)} records to {csv_path}")
    return 0


def cmd_beam_profile(args) -> int:
    rc = _load(args)
    try:
        rows, summary = beam_profile_data(rc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    csv_path = os.path.join(args.out, "beam_profile.csv")
    write_csv_atomic(csv_path, BEAM_HEADER, rows)
    write_json_sidecar(os.path.join(args.out, "beam_profile.json"), summary)
    print(f"wrote {len(rows)} angles to {csv_path}")
    return 0


def cmd_validate(args) -> int:
    rc = _load(args)
    t0 = time.perf_counter()
    results = run_all(rc, seed=args.seed, tol_scale=args.tol_scale)
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
    except EmwaveletsError as exc:
        config = isinstance(exc, ConfigError)
        print(json.dumps({"error": "config" if config else "run", "message": str(exc)}), file=sys.stderr)
        return 2 if config else 1


if __name__ == "__main__":
    sys.exit(main())
