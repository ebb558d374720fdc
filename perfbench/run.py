"""emwavelets benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` tree.  Inputs are generated from the seed (inputs.py).  After one
untimed warm-up process, set-up-only processes give set-up samples; then a
fresh single-threaded worker process (worker.py) executes the workload's
CLI command repeatedly for S seconds.  Outputs are checked outside the
timed interval (checks.py).  Every set-up and execution time is scaled to a
nominal host pace by reference-kernel samples taken around it (pace.py),
and the reported timings are medians of the scaled samples.

--trace 0 reports the end-to-end metrics.  --trace 1 gives half the time to
an untraced worker and half to a traced one, and reports the per-layer
metrics of the traced executions (spans.py), with trace.overhead = traced
/ untraced run_s.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  Everything the run writes stays under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import pace
import spans
from inputs import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ONLY_RUNS = 4  # set-up-only processes before the workers, and again after them
WORKER_TIMEOUT_S = 150


def _metric_units(kind):
    """Names and units of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _median(values):
    return statistics.median(values) if values else 0.0


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _src_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_facts():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    caches[f"L{level}-{kind}"] = fh.read().strip()
            except OSError:
                continue
    return model, caches


def provenance(inp, seconds, trace):
    import scipy

    model, caches = _cpu_facts()
    return {
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
        "workload": inp.workload,
        "seed": inp.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "input_sizes": inp.sizes,
        "input_params": inp.params,
    }


def spawn(spec):
    """Run worker.py once; returns (record or None, stderr)."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec), repr(t_spawn)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S}s"
    if proc.returncode != 0:
        return None, proc.stderr[-2000:]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
    except (ValueError, IndexError):
        return None, f"unreadable worker output: {proc.stdout[-500:]!r}"


def run(workload, seed, seconds, trace, size):
    import checks  # imports the program

    workdir = os.path.join(ROOT, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    attempted = failed = 0
    setups, executions, traced, workers, check_errs = [], [], [], [], []

    def fail(what):
        nonlocal failed
        failed += 1
        print(what, file=sys.stderr)

    setup_pace, run_pace = pace.Pace("setup"), pace.Pace(workload)
    try:
        inp = make_inputs(workload, seed, workdir, size=size)
        base = {"root": ROOT, "ini": inp.ini, "argv": inp.command, "trace": False, "pace": workload}

        def setup_only():
            nonlocal attempted
            attempted += 1
            before = setup_pace.sample()
            rec, err = spawn({**base, "mode": "setup"})
            after = setup_pace.sample()
            if rec is None:
                fail(f"set-up process failed: {err}")
                return None
            rec["pace_before"], rec["pace_after"] = before, after
            return rec

        def worker(index, use_trace, budget):
            """One process executing the command for `budget` seconds; checks every execution."""
            nonlocal attempted
            out = os.path.join(workdir, f"out-{index}")
            rec, err = spawn({**base, "mode": "run", "out": out, "trace": use_trace, "budget_s": budget,
                              "spans": os.path.join(workdir, f"spans-{index}")})
            if rec is None:
                attempted += 1
                fail(f"worker {index} failed: {err}")
                return
            attempted += len(rec["runs"])
            last = rec["runs"][-1]
            for k, run_ in reversed(list(enumerate(rec["runs"]))):
                # executions before the last left only a digest of their outputs
                if run_ is last or inp.workload == "validate_battery":
                    res = checks.check(inp, run_["out"], run_, np.random.default_rng([seed, index, k]))
                    if math.isfinite(res.max_rel_err):  # structural failures carry no error size
                        check_errs.append(res.max_rel_err)
                    run_["records"], run_["check"] = res.records, res.detail
                    if not res.ok:
                        fail(f"worker {index} execution {k}: {res.detail}")
                else:
                    run_["records"] = last["records"]
                    if run_["exit"] != 0 or run_["digest"] != last["digest"]:
                        fail(f"worker {index} execution {k}: exit {run_['exit']} or outputs differ from the last")
                if use_trace:
                    run_["layers"] = spans.layer_metrics(spans.load_spans(run_["spans"]))
                del run_["stdout"]
            if use_trace:
                shutil.copyfile(last["spans"], os.path.join(results_dir, f"{workload}-seed{seed}.spans.jsonl"))
            shutil.rmtree(out, ignore_errors=True)
            rec["traced"] = use_trace
            workers.append(rec)
            (traced if use_trace else executions).extend(rec["runs"])

        def setup_samples():
            for _ in range(SETUP_ONLY_RUNS):
                rec = setup_only()
                if rec is not None:
                    setups.append(rec)

        setup_pace.warm_up()
        setup_only()  # warm-up: byte-compiles the package and fills the page cache
        setup_samples()
        if trace:
            worker(0, False, seconds / 2)
            worker(1, True, seconds / 2)
        else:
            worker(0, False, seconds)
        setup_samples()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not executions or (trace and not traced):
        print("no execution completed; no result", file=sys.stderr)
        return None

    untraced_workers = [w for w in workers if not w["traced"]]
    samples = {"setup_s": len(setups), "executions": len(executions), "traced_executions": len(traced),
               "peak_rss_mb": len(untraced_workers)}
    error_rate = failed / attempted
    for r in setups:
        r["norm_s"] = setup_pace.normalised(r["setup_s"], r["pace_before"], r["pace_after"])
    for r in executions + traced:
        r["norm_s"] = run_pace.normalised(r["run_s"], r["pace_before"], r["pace_after"])
    max_rel_err = max(check_errs, default=0.0)
    if trace:
        units = _metric_units("per_layer")
        layer_names = [k for k in units if k in traced[0]["layers"]]
        values = {k: _median([r["layers"][k] for r in traced]) for k in layer_names}
        values["setup.import_s"] = _median([r["import_s"] for r in setups])
        values["harness.config.load_s"] = _median([r["load_s"] for r in setups])
        values["signals.build_s"] = _median([r["build_s"] for r in setups])
        values["trace.overhead"] = _median([r["norm_s"] for r in traced]) / _median([r["norm_s"] for r in executions])
        values["check.error_rate"] = error_rate
        values["check.max_rel_err"] = max_rel_err
    else:
        units = _metric_units("end_to_end")
        values = {
            "setup_s": _median([r["norm_s"] for r in setups]),
            "run_s": _median([r["norm_s"] for r in executions]),
            "records_per_s": _median([r["records"] / r["norm_s"] for r in executions]),
            "peak_rss_mb": _median([w["peak_rss_mb"] for w in untraced_workers]),
        }
    missing = [k for k in units if k not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    prov = provenance(inp, seconds, trace)
    wall = {
        "setup_s": _median([r["setup_s"] for r in setups]),
        "run_s": _median([r["run_s"] for r in executions]),
        "setup_pace_s": _median([r["pace_before"] for r in setups]),
        "setup_pace_nominal_s": setup_pace.nominal_s,
        "run_pace_s": _median([r["pace_before"] for r in executions]),
        "run_pace_nominal_s": run_pace.nominal_s,
    }
    record = {
        "provenance": prov, "samples": samples, "metrics": metrics,
        "error_rate": error_rate, "max_rel_err": max_rel_err,
        "tolerance": checks.TOLERANCE[workload], "wall_medians": wall, "setups": setups,
        "workers": workers,
    }
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"# {workload} seed={seed} trace={int(trace)} samples={json.dumps(samples)}")
    print(f"# provenance {json.dumps(prov, default=float)}")
    print(f"# wall medians (before pace normalisation) {json.dumps(wall)}")
    for k, m in metrics.items():
        print(f"{k:<48s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':<48s} {error_rate:.6g} ratio ({failed}/{attempted})")
    print(f"{'max_rel_err':<48s} {max_rel_err:.6g} ratio (tolerance {checks.TOLERANCE[workload]:g})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the sweeps and sources for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "emwavelets", "__init__.py")):
        print(f"emwavelets sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
