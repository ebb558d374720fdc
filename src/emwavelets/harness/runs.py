"""Dataset-producing runs shared by the CLI and the validation suites.

A writing command's producer returns (name, header, blocks, sidecar): the
header is the list of column names, and each block the list of 2-D
columns whose shapes say what each repeats over (datasets.write_csv).
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from ..em_fields import assemble, lmn
from ..errors import ConfigError, NonFiniteFieldError, NonFiniteSourceError, refuse
from ..geometry import branch
from ..scalar_wavelet import psi_of_sigma
from ..signals import SampledSignal
from ..surface_sources import ring_jump, ring_sources
from .beam import R_FACTOR, beam_profile_rows, diffraction_angles, helicity_residuals, spectral_profiles
from .config import RunConfig
from .grids import chunked_parallel_map, grid_axes, grid_points, tiles

__all__ = [
    "field_rows",
    "field_dataset",
    "FIELD_HEADER_PSI",
    "FIELD_HEADER_F",
    "source_sweep_rows",
    "SOURCE_HEADER",
    "beam_profile_data",
]

_SWEEP = ["x", "y", "z", "t", "re_sigma", "im_sigma", "cut_sign"]
FIELD_HEADER_PSI = _SWEEP + ["re_psi", "im_psi"]
FIELD_HEADER_F = _SWEEP + ["re_Fx", "im_Fx", "re_Fy", "im_Fy", "re_Fz", "im_Fz"]
N_THETA = 13  # angles of the beam profile's far-zone arc
SOURCE_HEADER = ["q", "phi", "x", "y", "z", "re_j0", "im_j0", "re_jx", "im_jx", "re_jy", "im_jy", "re_jz", "im_jz",
                 "in_rim_band"]
# Records in a field sweep block, a quarter of that on more threads (field_rows): at ~50 numpy calls a block, 2,048
# records ran the benchmark's F sweep 14% longer (0.093 against 0.081 s, 2-core Xeon), and two threads' 8,192-record
# blocks, ~1 MiB of temporaries each, peaked at 3.8-4.9 MiB traced as they coincided, against a steady 1.8 at 2,048.
RECORDS_PER_CHUNK = 8192
RECORDS_PER_BLOCK = 4096  # records in a surface sweep block: 2.17 MiB traced, where 8,192 peaked at 3.90 MiB
BEAM_HEADER = ["theta", "T_pred", "T_meas", "gap_T", "M_pred", "M_meas", "gap_M"]


def field_rows(rc: RunConfig, threads: int = 1):
    """Field sweep as blocks of grids.tiles of the (points, times) grid, computed as consumed.

    A block is the columns of FIELD_HEADER_PSI or FIELD_HEADER_F
    (datasets.write_csv): x, y, z, re/im sigma and the cut sign per point,
    (points, 1); t per time slice, (1, times); and the psi or F parts per
    record, (points, times).  Points run row-major over (x, y, z), and the
    records of the blocks, in order, are the output's, time fastest.  A block
    holds at most RECORDS_PER_CHUNK records, a quarter of that on more threads,
    and fewer where that gives every thread a block.  Each block's branch is
    resolved once (geometry.branch), refusing points within geometry.CUT_TOL
    * |a| of the cut, and its time slices are evaluated in one broadcast call
    of the closed forms psi() and field() use.  A value that is not finite (a
    high-order drive overflows) refuses the run (NonFiniteFieldError), naming
    how many points of its block and the (x, y, z) of the first.
    """
    w = rc.wavelet()
    pol = rc.polarization()
    *xyz, ts = grid_axes(rc.grid)

    def eval_tile(tile):
        rows, cols = tile
        chunk = grid_points(xyz, rows)
        tau = w.tau(ts[cols])
        b = branch(w.cut, chunk, w.cfg)
        with np.errstate(all="ignore"):  # an overflow is refused below, by the point it reached
            if rc.quantity == "psi":
                values = psi_of_sigma(w.sig, b.sigma[:, None], tau)[..., None]
            else:
                values = assemble(*lmn(w.sig, b.sigma[:, None], tau), b.u[:, None, :], pol)
        if not np.isfinite(values).all():
            refuse(NonFiniteFieldError, "field not finite at (x, y, z)", ~np.isfinite(values).all(axis=(1, 2)),
                   chunk)
        x, y, z = (v[:, None] for v in chunk.T)
        per_record = [part[..., k] for k in range(values.shape[2]) for part in (values.real, values.imag)]
        return [x, y, z, ts[None, cols], b.sigma.real[:, None], b.sigma.imag[:, None], b.sign[:, None], *per_record]

    n_points = math.prod(map(len, xyz))
    budget = RECORDS_PER_CHUNK if threads <= 1 else min(RECORDS_PER_CHUNK // 4, -(-n_points // threads) * ts.size)
    return chunked_parallel_map(eval_tile, tiles(n_points, ts.size, budget), threads=threads)


def field_dataset(rc: RunConfig, threads: int):
    """sample-field's ("field", header, field_rows blocks, sidecar of the record count)."""
    if not rc.grid:
        raise ConfigError("grid: sample-field needs a [grid] section")
    header = FIELD_HEADER_PSI if rc.quantity == "psi" else FIELD_HEADER_F
    cfg = rc.source
    meta = {"a": cfg.a, "b": cfg.b, "cut": rc.cut_kind, "signal": rc.signal_kind,
            **_drive_meta(rc.signal()), "quantity": rc.quantity, "columns": list(header)}
    return "field", header, field_rows(rc, threads), lambda records: {**meta, "records": records}


def _drive_meta(sig) -> dict:
    """The drive's sidecar entries, the same in every sidecar.

    "n" is the Cauchy order, or "sampled" for a sampled drive, which also
    records its sample count and spacing.
    """
    if isinstance(sig, SampledSignal):
        return {"n": "sampled", "samples": sig.t.size, "dt": sig.dt}
    return {"n": sig.n}


def source_sweep_rows(rc: RunConfig, impulse: bool = False):
    """sample-sources' or impulse-response's (name, header, blocks, sidecar of the record count).

    The sweep of the equivalent sources on the spheroid p = alpha, in
    grids.tiles of at most RECORDS_PER_BLOCK records, computed as consumed;
    q runs slowest and phi fastest.  A block is the columns of SOURCE_HEADER
    (datasets.write_csv): q and in_rim_band per ring, (rings, 1); phi per
    azimuth, (1, azimuths); and x, y, z and the sources per record,
    (rings, azimuths), since z varies with phi about a tilted axis.  A
    block holds whole q rings, or, when one ring has more azimuths than
    that, a slice of one ring's.  What depends on the ring alone, the
    drive's signals and the jump coefficients, is computed once per ring
    (ring_jump) and broadcast against phi (ring_sources).  Rim-band rows
    are annotated via the last column, never dropped.  A source that is not
    finite refuses the run (NonFiniteSourceError), naming how many points of
    its block and the (q, phi) of the first.
    """
    cfg = rc.source
    a = cfg.a_mag
    alpha = rc.surface_alpha
    pol = rc.polarization()
    q_min = rc.q_min_value()
    qs = np.linspace(-0.98 * a, 0.98 * a, rc.surface_nq)
    phis = np.linspace(0.0, 2 * np.pi, rc.surface_nphi, endpoint=False)
    t = rc.surface_t
    w = None if impulse else rc.wavelet()
    drive = {"n": "impulse"} if impulse else _drive_meta(w.sig)

    def eval_block(q, phi, jump):
        with np.errstate(all="ignore"):  # an overflow is refused below, by the point it reached
            s = ring_sources(jump, pol, q, phi, alpha, cfg)
        bad = ~(np.isfinite(s.position).all(axis=-1) & np.isfinite(s.j0) & np.isfinite(s.j).all(axis=-1))
        if bad.any():
            refuse(NonFiniteSourceError, "surface source not finite at (q, phi)", bad,
                   np.stack(np.broadcast_arrays(q, phi), axis=-1))
        j = [part[..., k] for k in range(3) for part in (s.j.real, s.j.imag)]
        return [q, phi[None, :], *np.moveaxis(s.position, -1, 0), s.j0.real, s.j0.imag, *j, np.abs(q) < q_min]

    def blocks():
        for rows, row_tiles in groupby(tiles(qs.size, phis.size, RECORDS_PER_BLOCK), key=lambda tile: tile[0]):
            q = qs[rows, None]
            with np.errstate(all="ignore"):
                jump = ring_jump(w, q, alpha, t, cfg)
            for _, cols in row_tiles:  # the slices of a split ring share its jump
                yield eval_block(q, phis[cols], jump)

    meta = {
        "a": cfg.a,
        "b": cfg.b,
        "alpha": alpha,
        **drive,
        "pol_re": np.real(pol),
        "pol_im": np.imag(pol),
        "t": t,
        "q_min": q_min,
        "columns": list(SOURCE_HEADER),
    }
    return "impulse_response" if impulse else "sources", SOURCE_HEADER, blocks(), lambda records: meta


def beam_profile_data(rc: RunConfig):
    """beam-profile's (name, header, blocks, sidecar of the angle count).

    The block is the predicted vs measured beam table on N_THETA angles at
    R_FACTOR*|a|, seven (N_THETA, 1) columns; the sidecar holds the summary
    diagnostics.  A table row or summary entry that is not finite (a
    high-order drive overflows) refuses the run (NonFiniteFieldError),
    naming the first.
    """
    cfg = rc.source
    a = cfg.a_mag
    if rc.signal_kind != "cauchy":
        raise ConfigError("signal.kind: the beam profile is defined for the band-pass kernels (cauchy)")
    if not cfg.b > 0.0:
        raise ConfigError(f"source.b: the beam profile follows the beam along +a, which needs b > 0, got {cfg.b!r}")
    n = rc.signal_n
    thetas = np.linspace(0.0, np.pi, N_THETA)
    with np.errstate(all="ignore"):  # an overflow is refused below, by the entry it reached
        rows = np.array(beam_profile_rows(n, cfg, thetas, R_FACTOR * a))
        th_pred, th_meas = diffraction_angles(n, cfg)
        prof, (c_meas, w_meas) = spectral_profiles(n, cfg.b)
        h10, h100 = helicity_residuals(rc.wavelet(), rc.polarization())
    refuse(NonFiniteFieldError, "beam profile not finite at theta", ~np.isfinite(rows).all(axis=1), rows[:, :1])
    summary = {
        "n": n,
        "theta_beta_predicted": th_pred,
        "theta_beta_measured": float(th_meas),
        "spectral_center_predicted": prof.center,
        "spectral_center_measured": float(c_meas),
        "spectral_width_predicted": prof.width,
        "spectral_width_measured": float(w_meas),
        "helicity_residual_10a": h10,
        "helicity_residual_100a": h100,
    }
    bad = [key for key, value in summary.items() if not np.isfinite(value)]
    if bad:
        raise NonFiniteFieldError(f"beam profile not finite: {bad[0]} = {summary[bad[0]]:g}")
    return "beam_profile", BEAM_HEADER, [[column[:, None] for column in rows.T]], lambda records: summary
