"""Dataset-producing runs shared by the CLI and the validation suites."""

from __future__ import annotations

import math

import numpy as np

from ..em_fields import assemble, helicity_residual, lmn
from ..errors import ConfigError
from ..geometry import branch
from ..scalar_wavelet import psi_of_sigma
from ..signals import CauchySignal, SampledSignal, diffraction_angle, spectral_profile
from ..surface_sources import impulse_surface_sources, surface_sources_exact
from .beam import beam_profile_rows, measure_diffraction_angle, measure_spectral_profile
from .config import RunConfig
from .datasets import BLOCK_CHUNKS, CHUNK
from .grids import chunked_parallel_map, grid_axes, grid_points

__all__ = [
    "field_rows",
    "field_dataset",
    "points_per_chunk",
    "FIELD_HEADER_PSI",
    "FIELD_HEADER_F",
    "source_sweep_rows",
    "SOURCE_HEADER",
    "beam_profile_data",
]

FIELD_HEADER_PSI = ["x", "y", "z", "t", "re_sigma", "im_sigma", "cut_sign", "re_psi", "im_psi"]
FIELD_HEADER_F = [
    "x", "y", "z", "t", "re_sigma", "im_sigma", "cut_sign",
    "re_Fx", "im_Fx", "re_Fy", "im_Fy", "re_Fz", "im_Fz",
]
N_THETA, R_FACTOR = 13, 1000.0  # the beam profile's far-zone arc: angles, radius in |a|
SOURCE_HEADER = [
    "q", "phi", "x", "y", "z",
    "re_j0", "im_j0", "re_jx", "im_jx", "re_jy", "im_jy", "re_jz", "im_jz",
    "in_rim_band",
]
BEAM_HEADER = ["theta", "T_pred", "T_meas", "gap_T", "M_pred", "M_meas", "gap_M"]


def field_rows(rc: RunConfig, threads: int = 1):
    """Field sweep as (points, times, columns) blocks of points_per_chunk points, computed as consumed.

    Points run row-major over (x, y, z); the blocks' reshape(-1, columns),
    in order, gives the records in output order, time fastest.  Each
    chunk's branch is resolved once (geometry.branch), refusing points
    within the configured tol_cut of the cut, and every time slice is
    evaluated in one broadcast call of the closed forms psi() and field() use.
    """
    w = rc.wavelet()
    pol = rc.polarization()
    *xyz, ts = grid_axes(rc.grid)
    tau = w.tau(ts)
    tol_cut = rc.tol_cut * w.cfg.a_mag

    def eval_chunk(index):
        chunk = grid_points(xyz, index)
        b = branch(w.cut, chunk, w.cfg, tol_cut)
        if rc.quantity == "psi":
            values = psi_of_sigma(w.sig, b.sigma[:, None], tau)[..., None]
        else:
            values = assemble(*lmn(w.sig, b.sigma[:, None], tau), b.u[:, None, :], pol)
        rows = np.empty(values.shape[:2] + (7 + 2 * values.shape[2],))  # (m, T, k)
        rows[..., 0:3] = chunk[:, None, :]
        rows[..., 3] = ts
        rows[..., 4] = b.sigma.real[:, None]
        rows[..., 5] = b.sigma.imag[:, None]
        rows[..., 6] = b.sign[:, None]
        rows[..., 7::2] = values.real
        rows[..., 8::2] = values.imag
        return rows

    n_points = math.prod(map(len, xyz))
    return chunked_parallel_map(eval_chunk, range(n_points), points_per_chunk(len(ts)), threads=threads)


def points_per_chunk(n_times: int) -> int:
    """Grid points per field_rows block: BLOCK_CHUNKS whole writer chunks of max(1, CHUNK // n_times) points.

    Records, not points, set the size: the broadcast temporaries (several
    complex values per record) must not grow with the number of time slices.
    """
    return BLOCK_CHUNKS * max(1, CHUNK // n_times)


def field_dataset(rc: RunConfig, threads: int):
    """sample-field's ("field", header, field_rows blocks, sidecar of the record count)."""
    if not rc.grid:
        raise ConfigError("grid: sample-field needs a [grid] section")
    header = FIELD_HEADER_PSI if rc.quantity == "psi" else FIELD_HEADER_F
    cfg = rc.source
    meta = {"a": cfg.a, "b": cfg.b, "c": cfg.c, "cut": rc.cut_kind, "signal": rc.signal_kind,
            **_drive_meta(rc.signal()), "quantity": rc.quantity, "columns": header}
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

    The block is the surface sweep of the equivalent sources on the
    spheroid p = alpha; rim-band rows are annotated via the last column,
    never dropped.
    """
    cfg = rc.source
    a = cfg.a_mag
    alpha = rc.surface_alpha
    pol = rc.polarization()
    q_min = rc.q_min_value()
    qs = np.linspace(-0.98 * a, 0.98 * a, rc.surface_nq)
    phis = np.linspace(0.0, 2 * np.pi, rc.surface_nphi, endpoint=False)
    Q, P = np.meshgrid(qs, phis, indexing="ij")
    qf, pf = Q.ravel(), P.ravel()
    t = rc.surface_t
    if impulse:
        s = impulse_surface_sources(pol, qf, pf, alpha, t, cfg, q_min=0.0)
        drive = {"n": "impulse"}
    else:
        w = rc.wavelet()
        s = surface_sources_exact(w, pol, qf, pf, alpha, t, q_min=0.0)
        drive = _drive_meta(w.sig)
    in_rim = (np.abs(qf) < q_min).astype(float)
    rows = np.column_stack(
        [
            qf, pf, s.position[:, 0], s.position[:, 1], s.position[:, 2],
            s.j0.real, s.j0.imag,
            s.j[:, 0].real, s.j[:, 0].imag,
            s.j[:, 1].real, s.j[:, 1].imag,
            s.j[:, 2].real, s.j[:, 2].imag,
            in_rim,
        ]
    )
    meta = {
        "a": cfg.a,
        "b": cfg.b,
        "c": cfg.c,
        "alpha": alpha,
        **drive,
        "pol_re": np.real(pol),
        "pol_im": np.imag(pol),
        "t": t,
        "q_min": q_min,
        "columns": SOURCE_HEADER,
    }
    return "impulse_response" if impulse else "sources", SOURCE_HEADER, [rows[:, None]], lambda records: meta


def beam_profile_data(rc: RunConfig):
    """beam-profile's (name, header, blocks, sidecar of the angle count).

    The block is the predicted vs measured beam table on N_THETA angles at
    R_FACTOR*|a|; the sidecar holds the summary diagnostics.
    """
    cfg = rc.source
    a = cfg.a_mag
    if rc.signal_kind != "cauchy":
        raise ConfigError("signal.kind: the beam profile is defined for the band-pass kernels (cauchy)")
    if not cfg.b > 0.0:
        raise ConfigError(f"source.b: the beam profile follows the beam along +a, which needs b > 0, got {cfg.b!r}")
    n = rc.signal_n
    thetas = np.linspace(0.0, np.pi, N_THETA)
    R = R_FACTOR * a
    rows = np.array(beam_profile_rows(n, cfg, thetas, R))
    th_pred = diffraction_angle(1.0, n, a, cfg.b, cfg.c)
    th_meas = measure_diffraction_angle(CauchySignal(n), cfg, 1.0, R)
    prof = spectral_profile(n, cfg.b)
    c_meas, w_meas = measure_spectral_profile(n, cfg.b)
    w = rc.wavelet()
    pol = rc.polarization()
    dirv = np.sin(0.4) * cfg.e1 + np.cos(0.4) * cfg.a_hat
    summary = {
        "n": n,
        "theta_beta_predicted": th_pred,
        "theta_beta_measured": float(th_meas),
        "spectral_center_predicted": prof.center,
        "spectral_center_measured": float(c_meas),
        "spectral_width_predicted": prof.width,
        "spectral_width_measured": float(w_meas),
        "helicity_residual_10a": float(helicity_residual(w, pol, 10 * a * dirv, 10 * a / cfg.c)),
        "helicity_residual_100a": float(helicity_residual(w, pol, 100 * a * dirv, 100 * a / cfg.c)),
    }
    return "beam_profile", BEAM_HEADER, [rows[:, None]], lambda records: summary
