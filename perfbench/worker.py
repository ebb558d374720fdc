"""One benchmark process: set up, then run one CLI command repeatedly, report.

Usage (from run.py): python3 worker.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time includes interpreter start.  Set-up ends when
the command is ready to compute: imports done, INI loaded, wavelet and
signal built (pulse CSV parsed).  The built objects are handed to the CLI
so that executions do not build them again.  In "run" mode the command is
executed until the spec's budget is spent (at least once), with a host-pace
sample (pace.py) before the first execution and after each; each execution
lasts until `emwavelets.harness.cli.main` returns with every output
written, and writes into its own directory.  Only the last execution's
outputs are kept; the others are hashed and removed.  The last stdout line
is one JSON record of the timings.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import types


def _peak_rss_mb():
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries the forking parent's resident set
    over into it across exec, so a large parent would set the figure.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(out_dir):
    """Hash of every file a command wrote, so repeated executions can be compared."""
    h = hashlib.blake2b(digest_size=16)
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv):
    spec = json.loads(argv[1])
    t_spawn = float(argv[2])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from emwavelets.harness import cli
    from emwavelets.harness.config import default_config, load_config

    t_import = time.monotonic()
    # the names this script calls, held where the tracer can rebind them
    api = types.ModuleType("perfbench.worker")
    api.load_config, api.default_config = load_config, default_config
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, extra_callers=[api])

    t0 = time.monotonic()
    rc = api.load_config(spec["ini"]) if spec["ini"] else api.default_config()
    t_loaded = time.monotonic()
    if spec["ini"]:
        wavelet = rc.wavelet()
        rc.wavelet = lambda: wavelet
        cli.load_config = lambda path: rc
    t_ready = time.monotonic()
    record = {
        "setup_s": t_ready - t_spawn,
        "import_s": t_import - t_spawn,
        "load_s": t_loaded - t0,
        "build_s": t_ready - t_loaded,
    }
    if spec["mode"] == "run":
        import pace

        meter = pace.Pace(spec["pace"])
        meter.warm_up()
        before = meter.sample()
        record["runs"] = runs = []
        while True:
            out_dir = os.path.join(spec["out"], f"exec-{len(runs)}")
            captured = io.StringIO()
            t_start = time.monotonic()
            with contextlib.redirect_stdout(captured):
                code = cli.main(spec["argv"] + ["--out", out_dir, "--threads", "1"])
            t_done = time.monotonic()
            after = meter.sample()
            run = {"run_s": t_done - t_start, "pace_before": before, "pace_after": after, "exit": code,
                   "stdout": captured.getvalue(), "digest": _digest(out_dir), "out": out_dir}
            before = after
            if tracer is not None:
                run["spans"] = f"{spec['spans']}-{len(runs)}.jsonl"
                tracer.dump(run["spans"])
                tracer.clear()
            runs.append(run)
            if time.monotonic() - t_ready >= spec["budget_s"] or code != 0:
                break
            shutil.rmtree(out_dir, ignore_errors=True)
    record["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
