"""Command line interface.

Subcommands: sample-field, sample-sources, impulse-response, beam-profile,
validate.  The flags --config, --out, --threads and --seed mirror environment
variables with the EMWAVELETS_ prefix (EMWAVELETS_CONFIG, EMWAVELETS_OUT,
EMWAVELETS_THREADS, EMWAVELETS_SEED).  Exit codes: 0 success, 1 validation
failure or a refused run, 2 configuration error.  The writing commands
stream their CSV and then write its sidecar; a refusal leaves neither behind.
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
from .runs import beam_profile_data, field_dataset, source_sweep_rows
from .validate import run_all

# the writing commands: (name, header, blocks, sidecar of the count) of a run, and what the count counts;
# each producer is looked up when called, where a tracer may have wrapped it
DATASETS = {
    "sample-field": (lambda rc, threads: field_dataset(rc, threads), "records"),
    "sample-sources": (lambda rc, threads: source_sweep_rows(rc), "records"),
    "impulse-response": (lambda rc, threads: source_sweep_rows(rc, impulse=True), "records"),
    "beam-profile": (lambda rc, threads: beam_profile_data(rc), "angles"),
}


def _env(name, fallback):
    return os.environ.get(f"EMWAVELETS_{name}", fallback)


def _add_common(p):
    p.add_argument("--config", default=_env("CONFIG", None), help="run configuration file")
    p.add_argument("--out", default=_env("OUT", "out"), help="output directory")
    # string defaults: argparse converts them with `type`, so a bad variable exits 2 like a bad flag
    p.add_argument("--threads", type=int, default=_env("THREADS", "1"))
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))


def _load(args) -> RunConfig:
    """The run's config, after refusing a flag out of range; the config object is not modified."""
    for flag, convert in FLAGS.items():
        parse(flag, convert, getattr(args, flag[2:]))
    return load_config(args.config) if args.config else default_config()


def cmd_write(args) -> int:
    """Compute a writing command's dataset, streaming its CSV, then write its JSON sidecar."""
    produce, noun = DATASETS[args.command]
    found = os.path.abspath(args.out)  # --out's nearest existing path, checked before anything is computed
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"--out: {found} is not a directory")
    name, header, blocks, sidecar = produce(_load(args), args.threads)
    csv_path = os.path.join(args.out, f"{name}.csv")
    count = write_csv_atomic(csv_path, header, blocks)
    write_json_sidecar(os.path.join(args.out, f"{name}.json"), sidecar(count))
    print(f"wrote {count} {noun} to {csv_path}")
    return 0


def cmd_validate(args) -> int:
    rc = _load(args)
    t0 = time.perf_counter()
    results = run_all(rc, seed=args.seed)
    for res in results:
        print(res.line())
    total = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed in {total:.1f}s")
    return 1 if failed else 0


COMMANDS = {**dict.fromkeys(DATASETS, cmd_write), "validate": cmd_validate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emwavelets",
        description="Complex-source pulsed beams: field sampling, antenna sources, validation.",
    )
    # every command takes the same flags: one parser, the command a positional choice
    parser.add_argument("command", choices=COMMANDS)
    _add_common(parser)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except EmwaveletsError as exc:
        config = isinstance(exc, ConfigError)
        print(json.dumps({"error": "config" if config else "run", "message": str(exc)}), file=sys.stderr)
        return 2 if config else 1


if __name__ == "__main__":
    sys.exit(main())
