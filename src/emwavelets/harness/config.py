"""Run configuration: INI-style key = value sections, flat and diffable.

Every key, its range, and the default a missing key takes (the [grid]
axes have none; an axis left out is the single point 0)::

    [source]                    ; required
    a = 0,0,1                   ; finite nonzero 3-vector: imaginary displacement
    b = 1.5                     ; finite, with |b| > |a|: imaginary time
    c = 1.0                     ; 1 only: time, b and a are lengths (units with c = 1)
    [cut]
    kind = flat_disk            ; flat_disk | upper_spheroid | lower_spheroid | smooth_spheroid
    alpha = 0.1                 ; finite, > 0
    eps = 0.005                 ; finite, > 0: smoothing width of smooth_spheroid
    [signal]                    ; required
    kind = cauchy               ; cauchy | sampled
    n = 1                       ; integer, 1 <= n <= 169
    csv =                       ; two-column t,g0 file, needed when kind = sampled
    [polarization]              ; finite 3-vectors, re + i im nonzero
    re = 1,0,0
    im = 0,0,0
    [grid]                      ; lo,hi,n: finite, integer n >= 1, lo = hi iff n = 1
    x = -2,2,41
    y = 0,0,1
    z = -2,2,41
    t = 1,3,5
    [surface]
    alpha = 0.01                ; finite, > 0, <= 1e34
    nq = 40                     ; integer >= 1
    nphi = 16                   ; integer >= 1
    t = 1.2                     ; finite
    [output]
    quantity = F                ; psi | F

load_config refuses an unknown section or key, a missing required section
and a value out of range, each as one ConfigError("section.key: reason").
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, QuadratureDivergenceError, SubRadiatingError
from ..geometry import FlatDisk, LowerSpheroid, SmoothSpheroid, SourceConfig, UpperSpheroid
from ..scalar_wavelet import ScalarWavelet
from ..signals import CauchySignal, SampledSignal
from ..surface_sources import DEFAULT_Q_MIN_FRAC, effective_aperture

N_MAX = 169  # the largest Cauchy order n whose factorial(n + 1) is a finite float
# surface_sources.impulse_tilde_lmn forms i pi s^3 w^3 (s = alpha - iq, w = tau^2 - s^2), a power alpha^9:
SURFACE_ALPHA_MAX = 1e34  # below (largest float / pi)^(1/9) = 1.57e34, so the power is finite

CUTS = {
    "flat_disk": lambda rc: FlatDisk(),
    "upper_spheroid": lambda rc: UpperSpheroid(rc.cut_alpha),
    "lower_spheroid": lambda rc: LowerSpheroid(rc.cut_alpha),
    "smooth_spheroid": lambda rc: SmoothSpheroid(rc.cut_alpha, rc.cut_eps),
}


@dataclass
class AxisSpec:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (self.n == 1 and self.lo == self.hi or self.n > 1 and self.hi > self.lo):
            raise ConfigError(f"need lo = hi for n = 1, lo < hi for n > 1; got {self.lo},{self.hi},{self.n}")

    def values(self):
        return np.linspace(self.lo, self.hi, self.n)


@dataclass
class RunConfig:
    """The parameters of a run; load_config and default_config fill every field from TABLE."""

    source: SourceConfig
    cut_kind: str
    cut_alpha: float
    cut_eps: float
    signal_kind: str
    signal_n: int
    signal_csv: str
    pol_re: np.ndarray
    pol_im: np.ndarray
    grid: dict
    surface_alpha: float
    surface_nq: int
    surface_nphi: int
    surface_t: float
    quantity: str
    _drive: tuple = field(default=(), init=False, repr=False, compare=False)

    def cut(self):
        return CUTS[self.cut_kind](self)

    def signal(self):
        """The drive, built once per (kind, n, csv): a pulse CSV is parsed once a run."""
        key = (self.signal_kind, self.signal_n, self.signal_csv)
        if not self._drive or self._drive[0] != key:
            self._drive = (key, self._build_signal())
        return self._drive[1]

    def _build_signal(self):
        if self.signal_kind == "cauchy":
            return CauchySignal(self.signal_n)
        if not self.signal_csv:
            raise ConfigError("signal.csv: a pulse file is needed when kind = sampled")
        return SampledSignal.from_csv(self.signal_csv)

    def wavelet(self):
        return ScalarWavelet(cut=self.cut(), cfg=self.source, sig=self.signal())

    def polarization(self):
        return self.pol_re + 1j * self.pol_im

    def q_min_value(self):
        """Rim exclusion band: the effective aperture's q_min of a Cauchy drive that
        has one, else DEFAULT_Q_MIN_FRAC*|a|."""
        a = self.source.a_mag
        if self.signal_kind == "cauchy":
            try:
                return effective_aperture(self.signal_n / abs(self.source.b), a)[0]
            except SubRadiatingError:
                pass
        return DEFAULT_Q_MIN_FRAC * a


def _number(kind=float, lo=-math.inf, hi=math.inf, above=False):
    """Converter to a finite kind in [lo, hi], or in (lo, hi] if above."""
    bounds = [f"{'>' if above else '>='} {lo}"] * (lo > -math.inf) + [f"<= {hi}"] * (hi < math.inf)
    rule = " ".join(["a finite number" if kind is float else "an integer", " and ".join(bounds)]).strip()

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > lo if above else value >= lo) and value <= hi):
            raise ValueError(f"must be {rule}, got {text!r}")
        return value

    return convert


_REAL, _POSITIVE, _COUNT = _number(), _number(lo=0, above=True), _number(int, 1)


def _unit(text):
    """The speed of light: 1 only, since the package measures time and b in lengths."""
    if _REAL(text) != 1.0:
        raise ValueError(f"must be 1, the c = 1 convention (time and b are lengths), got {text!r}")
    return 1.0


def _choice(*names):
    def convert(text):
        if text not in names:
            raise ValueError(f"must be one of {' | '.join(names)}, got {text!r}")
        return text

    return convert


def _triple(text, converters):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return [convert(part) for convert, part in zip(converters, parts)]


def _vector(text):
    return np.array(_triple(text, [_REAL] * 3))


def _direction(text):
    a = _vector(text)
    if not a.any():
        raise ValueError(f"must be nonzero, got {text!r}")
    return a


def _axis(text):
    return AxisSpec(*_triple(text, (_REAL, _REAL, _COUNT)))


# (section, key) -> (RunConfig field, converter, default as INI text).  A dotted
# field is an entry of that field's mapping; the [grid] axes have no default.
TABLE = {
    ("source", "a"): ("source.a", _direction, "0,0,1"),
    ("source", "b"): ("source.b", _REAL, "1.5"),
    ("source", "c"): ("source.c", _unit, "1.0"),
    ("cut", "kind"): ("cut_kind", _choice(*CUTS), "flat_disk"),
    ("cut", "alpha"): ("cut_alpha", _POSITIVE, "0.1"),
    ("cut", "eps"): ("cut_eps", _POSITIVE, "0.005"),
    ("signal", "kind"): ("signal_kind", _choice("cauchy", "sampled"), "cauchy"),
    ("signal", "n"): ("signal_n", _number(int, 1, N_MAX), "1"),
    ("signal", "csv"): ("signal_csv", str, ""),
    ("polarization", "re"): ("pol_re", _vector, "1,0,0"),
    ("polarization", "im"): ("pol_im", _vector, "0,0,0"),
    **{("grid", axis): (f"grid.{axis}", _axis, None) for axis in ("x", "y", "z", "t")},
    ("surface", "alpha"): ("surface_alpha", _number(lo=0, hi=SURFACE_ALPHA_MAX, above=True), "0.01"),
    ("surface", "nq"): ("surface_nq", _COUNT, "40"),
    ("surface", "nphi"): ("surface_nphi", _COUNT, "16"),
    ("surface", "t"): ("surface_t", _REAL, "1.2"),
    ("output", "quantity"): ("quantity", _choice("psi", "F"), "F"),
}

# the CLI flags that take a ranged value, through the converters of the keys
FLAGS = {"--threads": _COUNT, "--seed": _number(int, 0)}


def parse(name, convert, text):
    """convert(text); a value it refuses raises ConfigError("name: reason")."""
    try:
        return convert(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _run_config(cp) -> RunConfig:
    """Apply TABLE to a parsed file; an empty one gives the defaults."""
    fields = {"source": {}, "grid": {}}
    for (section, key), (name, convert, default) in TABLE.items():
        text = cp.get(section, key, fallback=default)
        if text is not None:
            outer, _, inner = name.rpartition(".")
            (fields[outer] if outer else fields)[inner] = parse(f"{section}.{key}", convert, text)
    try:
        fields["source"] = SourceConfig(**fields["source"])
    except ValueError as exc:  # the keys' ranges leave only the |b| > |a| rule
        raise ConfigError(f"source.b: {exc}") from exc
    return RunConfig(**fields)


def load_config(path) -> RunConfig:
    """Parse and validate a RunConfig; raises ConfigError on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    # iterating cp visits [DEFAULT] first, whose keys configparser copies into every section
    refused = [f"{s}: unknown section" for s in cp.sections() if s not in {section for section, _ in TABLE}]
    refused += [f"{s}.{k}: unknown key" for s in cp for k in cp[s] if (s, k) not in TABLE]
    refused += [f"{s}: missing section" for s in ("source", "signal") if s not in cp]
    if refused:
        raise ConfigError(refused[0])
    rc = _run_config(cp)
    if not (rc.pol_re.any() or rc.pol_im.any()):
        raise ConfigError("polarization.re: re + i im must be nonzero")
    try:
        rc.signal()
    except (OSError, ValueError, QuadratureDivergenceError) as exc:
        raise ConfigError(f"signal.csv: {exc}") from exc
    return rc


def default_config() -> RunConfig:
    """The desk-scale configuration used by `validate` when no file is given."""
    return _run_config(configparser.ConfigParser())
