"""Span recorder for the traced benchmark run, and the per-layer aggregation.

A layer is one package module.  `install` wraps the public functions and
methods of every layer where a caller binds them: the names another module
imported (`em_fields.cut_sign`, `runs.field`, `cli.write_csv_atomic`), a
layer module another module holds as an object (`em_fields.fd`), and the
methods on each class (`SampledSignal.eval`).  A call from a module into
its own globals is not a layer boundary and is not wrapped, so the tight
per-value loops inside one module stay untraced.  Calls that reach a layer
through an import made inside a function body are not seen either; their
time counts towards the calling layer.

Spans live in memory (name, layer, caller, parent, start, end, counts) and
are written out once, when the traced process ends.  A layer's self time is
the sum over its spans of the span's duration minus its children's.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import threading
import time
import types

import numpy as np

PACKAGE = "emwavelets"
LAYERS = (
    "geometry",
    "signals",
    "scalar_wavelet",
    "em_fields",
    "surface_sources",
    "harness.config",
    "harness.grids",
    "harness.runs",
    "harness.datasets",
    "harness.validate",
    "harness.beam",
    "harness.spectral",
    "harness.fd",
)
CUT_KINDS = ("FlatDisk", "UpperSpheroid", "LowerSpheroid", "SmoothSpheroid", "CustomCut")
SUITES = (
    "appendix_identities",
    "sigma_algebra",
    "wave_maxwell",
    "oracle_equivalence",
    "impulse_response",
    "coulomb",
    "beam_diagnostics",
    "interior_continuity",
    "sources_approx",
    "spectra",
    "analyticity",
    "surface_continuity",
    "determinism",
)
# parameters that carry the points a call works on: name -> items per point
_POINT_PARAMS = (("r", 3), ("q", 1), ("tau", 1))
_CONSUMERS = ("scalar_wavelet", "em_fields", "surface_sources")
# geometry entry points that resolve the cut sign of their points
SIGN_CALLS = ("geometry.cut_sign", "geometry.complex_distance")
# also wrapped where their own module calls them: CustomCut.sign reaches
# continued_sign only from inside geometry
OWN_MODULE_CALLS = ("geometry.continued_sign",)


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, caller, method=False):
        """Return fn recording one span per call."""
        point_arg = _point_arg(fn)
        hash_points = name in SIGN_CALLS
        write_target = layer == "harness.datasets" and "path" in _params(fn)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, layer, caller, stack[-1] if stack else None, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
                counts = {}
                if method:
                    counts["cls"] = type(args[0]).__name__
                if point_arg is not None:
                    value = _arg(args, kwargs, *point_arg[:2])
                    if value is not None:
                        arr = np.asarray(value)
                        counts["points"] = arr.size // point_arg[2]
                        if hash_points:
                            counts["hash"] = hashlib.blake2b(
                                np.ascontiguousarray(arr).tobytes(), digest_size=12
                            ).hexdigest()
                        if name == "signals.SampledSignal.eval":
                            counts["kernel_bytes"] = arr.size * args[0].t.size * 16
                if write_target:
                    path = _arg(args, kwargs, 0, "path")
                    if path is not None and os.path.exists(path):
                        counts["bytes"] = os.path.getsize(path)
                rec[6] = counts or None

        return traced

    def clear(self):
        """Forget recorded spans (the wrappers keep appending to the same list)."""
        del self.spans[:]

    def dump(self, path):
        """Write the spans as JSON lines: id, name, layer, caller, parent, start, end, counts."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, (name, layer, caller, parent, t0, t1, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "caller": caller,
                    "parent": ids[id(parent)] if parent is not None else None,
                    "start": t0, "end": t1, "counts": counts,
                }) + "\n")


def _params(fn):
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return []


def _point_arg(fn):
    params = _params(fn)
    for pname, per in _POINT_PARAMS:
        if pname in params:
            return params.index(pname), pname, per
    return None


def _arg(args, kwargs, index, pname):
    if index < len(args):
        return args[index]
    return kwargs.get(pname)


def _layer_of(modname):
    if not modname or not modname.startswith(PACKAGE + "."):
        return None
    layer = modname[len(PACKAGE) + 1:]
    return layer if layer in LAYERS else None


def install(tracer: Tracer, extra_callers=()):
    """Wrap every layer's public callables at their callers' bindings."""
    layer_mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    # package __init__ modules only re-export names; nothing calls through them
    callers = [
        m for n, m in sorted(sys.modules.items())
        if n.startswith(PACKAGE + ".") and m is not None and not hasattr(m, "__path__")
    ]
    callers.extend(extra_callers)

    # public functions by identity, and methods on the layers' classes
    functions = {}
    for layer, mod in layer_mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                functions[id(obj)] = (obj, f"{layer}.{name}", layer)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_methods(tracer, obj, layer)

    for fn, qual, layer in list(functions.values()):
        if qual in OWN_MODULE_CALLS:
            setattr(layer_mods[layer], qual.rsplit(".", 1)[1], tracer.wrap(fn, qual, layer, layer))

    proxies = {}
    for caller in callers:
        cname = caller.__name__.removeprefix(PACKAGE + ".")
        for name, obj in list(vars(caller).items()):
            if isinstance(obj, types.ModuleType):
                layer = _layer_of(obj.__name__)
                if layer is not None and obj is not caller:
                    key = (layer, cname)
                    if key not in proxies:
                        proxies[key] = _proxy(tracer, obj, layer, cname, functions)
                    setattr(caller, name, proxies[key])
                continue
            entry = functions.get(id(obj))
            if entry is None:
                continue
            fn, qual, layer = entry
            if cname == layer:
                continue  # a module's calls into its own globals are not a boundary
            setattr(caller, name, tracer.wrap(fn, qual, layer, cname))

    # the battery iterates its suite list; wrap the entries in place of the list
    validate = layer_mods["harness.validate"]
    validate.ALL_SUITES = [
        tracer.wrap(fn, f"harness.validate.{_suite_name(fn, validate)}", "harness.validate", "harness.validate")
        for fn in validate.ALL_SUITES
    ]

    # chunked_parallel_map calls back into the runs layer once per chunk
    for caller in callers:
        bound = getattr(caller, "chunked_parallel_map", None)
        if bound is not None and caller is not layer_mods["harness.grids"]:
            setattr(caller, "chunked_parallel_map", _chunk_hook(tracer, bound))


def _suite_name(fn, validate):
    for name, obj in vars(validate).items():
        if obj is fn:
            return name[len("suite_"):] if name.startswith("suite_") else name
    return getattr(fn, "__name__", "suite")


def _wrap_methods(tracer, cls, layer):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        qual = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(attr.__func__, qual, layer, layer)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(attr.__func__, qual, layer, layer)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, qual, layer, layer, method=True))


def _proxy(tracer, mod, layer, caller, functions):
    proxy = types.ModuleType(mod.__name__)
    proxy.__dict__.update(vars(mod))
    for name, obj in vars(mod).items():
        entry = functions.get(id(obj))
        if entry is not None and not name.startswith("_"):
            setattr(proxy, name, tracer.wrap(entry[0], entry[1], layer, caller))
    return proxy


def _chunk_hook(tracer, traced_map):
    def hooked(func, *args, **kwargs):
        layer = _layer_of(getattr(func, "__module__", None)) or "harness.grids"
        name = f"{layer}.{getattr(func, '__name__', 'chunk')}"
        return traced_map(tracer.wrap(func, name, layer, "harness.grids"), *args, **kwargs)

    return hooked


# --------------------------------------------------------------------------
# aggregation


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced process, keyed by metric name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def parent(s):
        return spans[s["parent"]] if s["parent"] is not None else None

    def count(s, key, default=0):
        return (s["counts"] or {}).get(key, default)

    def has_ancestor(s, pred):
        p = parent(s)
        while p is not None:
            if pred(p):
                return True
            p = parent(p)
        return False

    def outermost(s):
        p = parent(s)
        return p is None or p["layer"] != s["layer"]

    out = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, ct in zip(spans, child_time):
        self_s[s["layer"]] += dur(s) - ct
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]

    # geometry
    geo_points = sum(count(s, "points") for s in spans if s["layer"] == "geometry" and outermost(s))
    out["geometry.points"] = geo_points
    out["geometry.ns_per_point"] = 1e9 * self_s["geometry"] / geo_points if geo_points else 0.0
    is_clear = lambda s: s["name"].endswith(".clearance")
    clear = [s for s in spans if is_clear(s) and not has_ancestor(s, is_clear)]
    out["geometry.clearance_s"] = sum(dur(s) for s in clear)
    for kind in CUT_KINDS:
        mine = [s for s in clear if count(s, "cls", "") == kind]
        pts = sum(count(s, "points") for s in mine)
        out[f"geometry.clearance.{kind}.ns_per_point"] = 1e9 * sum(dur(s) for s in mine) / pts if pts else 0.0
    signs = [s for s in spans if s["name"] in SIGN_CALLS and outermost(s)]
    passed = sum(count(s, "points") for s in signs)
    distinct = {}
    for s in signs:
        distinct.setdefault(count(s, "hash", None), count(s, "points"))
    out["geometry.reuse_ratio"] = sum(distinct.values()) / passed if passed else 0.0
    cont = [s for s in spans if s["name"] == "geometry.continued_sign"]
    out["geometry.continued_sign_s"] = sum(dur(s) for s in cont)
    out["geometry.continued_sign.points"] = sum(count(s, "points") for s in cont)

    # signals
    is_eval = lambda s: s["layer"] == "signals" and s["name"].endswith(".eval")
    evals = [s for s in spans if is_eval(s) and not has_ancestor(s, is_eval)]
    taus = sum(count(s, "points") for s in evals)
    out["signals.eval_calls"] = len(evals)
    out["signals.taus"] = taus
    out["signals.ns_per_tau"] = 1e9 * self_s["signals"] / taus if taus else 0.0
    is_consumer = lambda s: s["layer"] in _CONSUMERS
    consumers = [s for s in spans if is_consumer(s) and not has_ancestor(s, is_consumer)]
    consumer_points = sum(count(s, "points") for s in consumers)
    consumed = sum(count(s, "points") for s in evals if has_ancestor(s, is_consumer))
    out["signals.evals_per_point"] = consumed / consumer_points if consumer_points else 0.0
    out["signals.kernel_bytes"] = max((count(s, "kernel_bytes") for s in evals), default=0)

    # field assembly and sources
    for layer in ("em_fields", "surface_sources"):
        pts = sum(count(s, "points") for s in spans if s["layer"] == layer and outermost(s))
        out[f"{layer}.points"] = pts
    pts = out["em_fields.points"]
    out["em_fields.ns_per_point"] = 1e9 * self_s["em_fields"] / pts if pts else 0.0

    # harness
    chunks = [1e3 * dur(s) for s in spans if s["caller"] == "harness.grids"]
    out["harness.grids.chunks"] = len(chunks)
    out["harness.grids.chunk_ms.p50"] = _quantile(chunks, 0.5)
    out["harness.grids.chunk_ms.p90"] = _quantile(chunks, 0.9)
    writes = [s for s in spans if s["layer"] == "harness.datasets" and outermost(s)]
    write_s = sum(dur(s) for s in writes)
    nbytes = sum(count(s, "bytes") for s in writes)
    out["harness.datasets.write_s"] = write_s
    out["harness.datasets.bytes"] = nbytes
    out["harness.datasets.mb_per_s"] = nbytes / 1e6 / write_s if write_s else 0.0
    for suite in SUITES:
        out[f"harness.validate.{suite}_s"] = sum(
            dur(s) for s in spans if s["name"] == f"harness.validate.{suite}"
        )
    out["trace.spans"] = len(spans)
    return out
