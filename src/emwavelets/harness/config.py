"""Run configuration: INI-style key = value sections, flat and diffable.

Example::

    [source]
    a = 0,0,1
    b = 1.5
    c = 1.0

    [cut]
    kind = upper_spheroid      ; flat_disk | upper_spheroid | lower_spheroid | smooth_spheroid
    alpha = 0.1
    eps = 0.005

    [signal]
    kind = cauchy              ; cauchy | sampled
    n = 4
    csv =                      ; two-column t,g0 file for kind = sampled

    [polarization]
    re = 1,0,0
    im = 0,0,0

    [grid]
    x = -2,2,41
    y = 0,0,1
    z = -2,2,41
    t = 1,3,5

    [surface]
    alpha = 0.01
    nq = 40
    nphi = 16
    t = 1.2

    [output]
    dir = out
    quantity = F               ; psi | F

    [tolerances]
    tol_cut = 1e-9
    q_min = auto               ; auto = effective-aperture band, or a number
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..geometry import FlatDisk, LowerSpheroid, SmoothSpheroid, SourceConfig, UpperSpheroid
from ..scalar_wavelet import ScalarWavelet
from ..signals import CauchySignal, SampledSignal


@dataclass
class AxisSpec:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("axis resolution must be >= 1")
        if self.n == 1 and self.lo != self.hi:
            raise ConfigError("1-point axis needs lo == hi")
        if self.n > 1 and not self.hi > self.lo:
            raise ConfigError("need hi > lo for a multi-point axis")

    def values(self):
        return np.linspace(self.lo, self.hi, self.n)


@dataclass
class RunConfig:
    source: SourceConfig
    cut_kind: str = "flat_disk"
    cut_alpha: float = 0.1
    cut_eps: float = 0.005
    signal_kind: str = "cauchy"
    signal_n: int = 1
    signal_csv: str = ""
    pol_re: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    pol_im: np.ndarray = field(default_factory=lambda: np.zeros(3))
    grid: dict = field(default_factory=dict)
    surface_alpha: float = 0.01
    surface_nq: int = 40
    surface_nphi: int = 16
    surface_t: float = 1.2
    out_dir: str = "out"
    quantity: str = "F"
    tol_cut: float = 1e-9
    q_min: str = "auto"
    threads: int = 1
    seed: int = 0
    tol_scale: float = 1.0
    _drive: tuple = field(default=(), init=False, repr=False, compare=False)

    def cut(self):
        kind = self.cut_kind
        if kind == "flat_disk":
            return FlatDisk()
        if kind == "upper_spheroid":
            return UpperSpheroid(self.cut_alpha)
        if kind == "lower_spheroid":
            return LowerSpheroid(self.cut_alpha)
        if kind == "smooth_spheroid":
            return SmoothSpheroid(self.cut_alpha, self.cut_eps)
        raise ConfigError(f"unknown cut kind {kind!r}")

    def signal(self):
        """The drive, built once per (kind, n, csv): a pulse CSV is parsed once a run."""
        key = (self.signal_kind, self.signal_n, self.signal_csv)
        if not self._drive or self._drive[0] != key:
            self._drive = (key, self._build_signal())
        return self._drive[1]

    def _build_signal(self):
        if self.signal_kind == "cauchy":
            return CauchySignal(self.signal_n)
        if self.signal_kind == "sampled":
            if not self.signal_csv:
                raise ConfigError("signal kind 'sampled' needs csv = <path>")
            return SampledSignal.from_csv(self.signal_csv)
        raise ConfigError(f"unknown signal kind {self.signal_kind!r}")

    def wavelet(self):
        return ScalarWavelet(cut=self.cut(), cfg=self.source, sig=self.signal())

    def polarization(self):
        return self.pol_re + 1j * self.pol_im

    def q_min_value(self):
        """Rim exclusion band: effective-aperture default, or the configured number."""
        a, b, c = self.source.a_mag, self.source.b, self.source.c
        if self.q_min != "auto":
            return float(self.q_min)
        if self.signal_kind == "cauchy":
            omega = self.signal_n / abs(b)
            k = omega / c
            if k * a > 1.0:
                return 1.0 / k
        return 0.1 * a


def _vec(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected a comma triple, got {text!r}")
    return np.array([float(p) for p in parts])


def _axis(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected lo,hi,n got {text!r}")
    return AxisSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _get(sec, key, convert, default):
    """sec[key] through convert, or default if the key is absent; a bad value names section.key."""
    if key not in sec:
        return default
    try:
        return convert(sec[key])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{sec.name}.{key}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a RunConfig; raises ConfigError on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "source" not in cp:
        raise ConfigError("missing [source] section")
    src = cp["source"]
    a = _get(src, "a", _vec, np.array([0.0, 0.0, 1.0]))
    b, c = _get(src, "b", float, 1.5), _get(src, "c", float, 1.0)
    try:
        source = SourceConfig(a=a, b=b, c=c)
    except ValueError as exc:
        raise ConfigError(f"invalid source: {exc}") from exc
    rc = RunConfig(source=source)
    if "cut" in cp:
        sec = cp["cut"]
        rc.cut_kind = sec.get("kind", rc.cut_kind).strip()
        rc.cut_alpha = _get(sec, "alpha", float, rc.cut_alpha)
        rc.cut_eps = _get(sec, "eps", float, rc.cut_eps)
    if "signal" in cp:
        sec = cp["signal"]
        rc.signal_kind = sec.get("kind", "").strip()
        if not rc.signal_kind:
            raise ConfigError("[signal] section present but kind is empty")
        rc.signal_n = _get(sec, "n", int, rc.signal_n)
        rc.signal_csv = sec.get("csv", "").strip()
    else:
        raise ConfigError("missing [signal] section")
    if "polarization" in cp:
        sec = cp["polarization"]
        rc.pol_re = _get(sec, "re", _vec, rc.pol_re)
        rc.pol_im = _get(sec, "im", _vec, rc.pol_im)
        if np.linalg.norm(rc.pol_re + 1j * rc.pol_im) == 0.0:
            raise ConfigError("polarization must be nonzero")
    if "grid" in cp:
        sec = cp["grid"]
        for ax in ("x", "y", "z", "t"):
            if ax in sec:
                rc.grid[ax] = _get(sec, ax, _axis, None)
    if "surface" in cp:
        sec = cp["surface"]
        rc.surface_alpha = _get(sec, "alpha", float, rc.surface_alpha)
        rc.surface_nq = _get(sec, "nq", int, rc.surface_nq)
        rc.surface_nphi = _get(sec, "nphi", int, rc.surface_nphi)
        rc.surface_t = _get(sec, "t", float, rc.surface_t)
    if "output" in cp:
        sec = cp["output"]
        rc.out_dir = sec.get("dir", rc.out_dir).strip()
        rc.quantity = sec.get("quantity", rc.quantity).strip()
        if rc.quantity not in ("psi", "F"):
            raise ConfigError("output quantity must be psi or F")
    if "tolerances" in cp:
        sec = cp["tolerances"]
        rc.tol_cut = _get(sec, "tol_cut", float, rc.tol_cut)
        rc.q_min = sec.get("q_min", rc.q_min).strip()
        if rc.q_min != "auto":
            try:
                float(rc.q_min)
            except ValueError as exc:
                raise ConfigError("q_min must be 'auto' or a number") from exc
        if rc.tol_cut <= 0:
            raise ConfigError("tol_cut must be positive")
    try:
        rc.cut()
        rc.signal() if rc.signal_kind != "sampled" or rc.signal_csv else None
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return rc


def default_config() -> RunConfig:
    """The desk-scale configuration used by `validate` when no file is given."""
    return RunConfig(source=SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=1.5))
