"""Seeded input generation for the benchmark workloads.

Every input the program reads is written here from the workload seed: the
INI run configuration and, for the sampled drive, the pulse CSV.  The same
seed gives byte-identical files.  Grids keep their shape under every seed;
only a sub-step offset moves, drawn from [0.1, 0.9) of a step so that no
grid point lands on the disk plane z = 0, where the flat apron and the
branch circle live.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep_flat", "sweep_spheroid", "sources_sampled", "validate_battery")

# Full-size shapes, and the shrunken ones the smoke test uses.  Axis entries
# are (lo, hi, n) before the seeded offset.
SHAPES = {
    "full": {
        "sweep_flat": {"x": (-2.0, 2.0, 41), "y": (-1.0, 1.0, 3), "z": (-2.0, 2.0, 75), "t": (1.0, 3.0, 7)},
        "sweep_spheroid": {"x": (-1.5, 1.5, 33), "y": (-0.6, 0.6, 3), "z": (-0.5, 0.6, 81), "t": (0.5, 2.5, 9)},
        "sources_sampled": {"nq": 80, "nphi": 32, "samples": 2001},
    },
    "tiny": {
        "sweep_flat": {"x": (-2.0, 2.0, 5), "y": (-1.0, 1.0, 3), "z": (-2.0, 2.0, 7), "t": (1.0, 3.0, 2)},
        "sweep_spheroid": {"x": (-1.5, 1.5, 5), "y": (-0.6, 0.6, 3), "z": (-0.5, 0.6, 9), "t": (0.5, 2.5, 3)},
        "sources_sampled": {"nq": 8, "nphi": 4, "samples": 401},
    },
}

SOURCE = {"a": (0.0, 0.0, 1.0), "b": 1.5, "c": 1.0}
POL_RE = (1.0, 0.0, 0.0)
POL_IM = (0.0, 0.5, 0.0)
SPHEROID_ALPHA = 0.1
PULSE_SPAN = 20.0  # pulse grid is [-PULSE_SPAN, PULSE_SPAN]


@dataclass
class Inputs:
    """What one workload run feeds the program, and what a checker needs to know."""

    workload: str
    seed: int
    command: list  # CLI arguments after the program name, without --out
    ini: str = ""
    axes: dict = field(default_factory=dict)  # name -> np.ndarray of values
    params: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def _num(x) -> str:
    return repr(float(x))


def _jittered_axis(rng, lo, hi, n):
    if n == 1:
        return lo, hi, n
    step = (hi - lo) / (n - 1)
    off = rng.uniform(0.1, 0.9) * step
    return lo + off, hi + off, n


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _ini(sections) -> str:
    out = []
    for name, items in sections:
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in items)
        out.append("")
    return "\n".join(out)


def _source_items():
    return [("a", ",".join(_num(v) for v in SOURCE["a"])), ("b", _num(SOURCE["b"])), ("c", _num(SOURCE["c"]))]


def _pol_items():
    return [("re", ",".join(_num(v) for v in POL_RE)), ("im", ",".join(_num(v) for v in POL_IM))]


def _sweep(workload, seed, rng, shape, workdir) -> Inputs:
    spheroid = workload == "sweep_spheroid"
    grid = {ax: _jittered_axis(rng, *shape[ax]) for ax in ("x", "y", "z", "t")}
    n = 2 if spheroid else 4
    cut = [("kind", "upper_spheroid"), ("alpha", _num(SPHEROID_ALPHA))] if spheroid else [("kind", "flat_disk")]
    quantity = "psi" if spheroid else "F"
    ini = os.path.join(workdir, f"{workload}.ini")
    _write(ini, _ini([
        ("source", _source_items()),
        ("cut", cut),
        ("signal", [("kind", "cauchy"), ("n", str(n))]),
        ("polarization", _pol_items()),
        ("grid", [(ax, f"{_num(lo)},{_num(hi)},{k}") for ax, (lo, hi, k) in grid.items()]),
        ("output", [("quantity", quantity)]),
    ]))
    axes = {ax: np.linspace(lo, hi, k) for ax, (lo, hi, k) in grid.items()}
    points = int(np.prod([len(axes[ax]) for ax in ("x", "y", "z")]))
    slices = len(axes["t"])
    return Inputs(
        workload=workload, seed=seed, command=["sample-field", "--config", ini], ini=ini, axes=axes,
        params={"n": n, "quantity": quantity, "cut": "upper_spheroid" if spheroid else "flat_disk",
                "alpha": SPHEROID_ALPHA},
        sizes={"points": points, "time_slices": slices, "records": points * slices},
    )


def gaussian_derivative(t, centre, width):
    """g0(t) = -(t - centre)/width^2 * exp(-(t - centre)^2 / (2 width^2))."""
    x = (np.asarray(t, dtype=float) - centre) / width
    return -x / width * np.exp(-0.5 * x * x)


def _sources(seed, rng, shape, workdir) -> Inputs:
    centre = rng.uniform(-0.5, 0.5)
    width = rng.uniform(0.5, 1.0)
    alpha = rng.uniform(0.02, 0.1)
    t_obs = rng.uniform(0.8, 1.6)
    samples = shape["samples"]
    ts = np.linspace(-PULSE_SPAN, PULSE_SPAN, samples)
    g0 = gaussian_derivative(ts, centre, width)
    pulse = os.path.join(workdir, "pulse.csv")
    _write(pulse, "# t,g0\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(ts, g0)))
    ini = os.path.join(workdir, "sources_sampled.ini")
    _write(ini, _ini([
        ("source", _source_items()),
        ("cut", [("kind", "flat_disk")]),
        ("signal", [("kind", "sampled"), ("csv", pulse)]),
        ("polarization", _pol_items()),
        ("surface", [("alpha", _num(alpha)), ("nq", str(shape["nq"])), ("nphi", str(shape["nphi"])),
                     ("t", _num(t_obs))]),
    ]))
    a = math.sqrt(sum(v * v for v in SOURCE["a"]))
    axes = {
        "q": np.linspace(-0.98 * a, 0.98 * a, shape["nq"]),
        "phi": np.linspace(0.0, 2 * np.pi, shape["nphi"], endpoint=False),
    }
    points = shape["nq"] * shape["nphi"]
    return Inputs(
        workload="sources_sampled", seed=seed, command=["sample-sources", "--config", ini], ini=ini, axes=axes,
        params={"centre": centre, "width": width, "alpha": alpha, "t": t_obs},
        sizes={"points": points, "records": points, "pulse_samples": samples},
    )


def make_inputs(workload: str, seed: int, workdir: str, size: str = "full") -> Inputs:
    """Write the inputs of one workload run into workdir and describe them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    shapes = SHAPES[size]
    if workload in ("sweep_flat", "sweep_spheroid"):
        return _sweep(workload, seed, rng, shapes[workload], workdir)
    if workload == "sources_sampled":
        return _sources(seed, rng, shapes[workload], workdir)
    return Inputs(workload=workload, seed=seed, command=["validate", "--seed", str(seed)],
                  sizes={"suites": 13})
