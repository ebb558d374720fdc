"""Host pace: fixed reference kernels timed next to every measured interval.

The benchmark runs on a shared host whose speed drifts by tens of percent
in phases of minutes, which moves every wall-clock time alike.  To keep
those phases out of the reported times, each measured interval (one set-up
process, one execution of the command) is bracketed by two samples of fixed
reference kernels, run in the same process or its parent, and its wall time
is divided by the mean of the two samples.  Multiplying by the sample's
nominal time, its time on an unloaded 2-core Xeon KVM guest (Python 3.11,
numpy 2.4), turns the ratio back into seconds at that pace:

    normalised = wall * nominal sample / mean(sample before, sample after)

The kernels never call the program, so a change to the program moves the
normalised time as much as its wall time.  Host load does not slow every
kind of work alike, so each workload is paced by the kernels that resemble
what dominates it (MIX): interpreted work (float-to-text formatting as in
the CSV writer, dictionary updates), complex numpy arithmetic on an array
that fits in L2, and numpy arithmetic on arrays of tens of MB.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal(32768) + 1j * _rng.standard_normal(32768)  # 512 kB
_LARGE_N = 1 << 20  # 16 MB of complex, allocated and freed within each call


def _interpreted():
    text = "".join(f"{a!r},{b!r}\n" for a, b in zip(_SMALL.real[:6000], _SMALL.imag[:6000]))
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return len(text) + counts[5]


def _small_arrays():
    z = _SMALL
    for _ in range(6):
        w = np.sqrt(z * z + 1.0)
        z = np.exp(-0.05 * w) + 0.5 * z
    return z


def _large_arrays():
    z = np.linspace(0.0, 4.0, _LARGE_N) * (1.0 + 1.0j)
    w = np.exp(-0.05 * z)
    w *= z
    return float(w[-1].real)


KERNELS = {"interpreted": _interpreted, "small_arrays": _small_arrays, "large_arrays": _large_arrays}
NOMINAL_CALL_S = {"interpreted": 0.014, "small_arrays": 0.0055, "large_arrays": 0.035}
SAMPLE_S = 0.12  # nominal length of one sample

# The kernels that pace each kind of interval, by what dominates its work.
# The large-array kernel briefly holds ~50 MB, so it paces only workloads
# whose own peak is several times that.
MIX = {
    "setup": ("interpreted",),  # interpreter start and imports
    "sweep_flat": ("interpreted",),  # CSV text formatting
    "sweep_spheroid": ("interpreted", "small_arrays"),  # chunked complex arithmetic, then CSV
    "sources_sampled": ("large_arrays",),  # quadrature kernels of hundreds of MB
    "validate_battery": ("interpreted", "small_arrays", "large_arrays"),
}


class Pace:
    """Samples of one mix of kernels, each kernel taking an equal share of SAMPLE_S."""

    def __init__(self, kind):
        kernels = MIX[kind]
        self.reps = {k: max(1, round(SAMPLE_S / len(kernels) / NOMINAL_CALL_S[k])) for k in kernels}
        self.nominal_s = sum(n * NOMINAL_CALL_S[k] for k, n in self.reps.items())

    def warm_up(self):
        for k in self.reps:
            KERNELS[k]()

    def sample(self):
        """Wall seconds of one sample."""
        t0 = time.monotonic()
        for k, n in self.reps.items():
            for _ in range(n):
                KERNELS[k]()
        return time.monotonic() - t0

    def normalised(self, wall_s, before_s, after_s):
        """wall_s in seconds at the nominal pace, from the samples around it."""
        return wall_s * self.nominal_s / (0.5 * (before_s + after_s))
