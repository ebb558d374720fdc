"""Output checks, run outside the timed interval.

Each check reads what one CLI command wrote and compares a seeded
subsample with a reference that does not share the timed path:

* field sweeps (F): the curl-curl finite-difference oracle, at the
  oracle-equivalence tolerance of the validation battery;
* spheroid sweeps (psi): cut signs from analytic continuation
  (`continued_sign`) and psi from the closed-form Cauchy kernel written
  out here;
* sampled-drive sources: the same surface-source assembly driven by the
  closed-form analytic signal of the Gaussian-derivative pulse (Faddeeva
  function), in place of the sampled quadrature;
* the validation battery: every suite passes.

Record counts and CSV headers are checked exactly, and the coordinates of
every sampled row must be the grid point its row index names.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

from emwavelets import (CauchySignal, FlatDisk, ScalarWavelet, SourceConfig, UpperSpheroid,
                        field_curl_oracle, surface_sources_exact)
from emwavelets.geometry import continued_sign
from inputs import POL_IM, POL_RE, SOURCE

FIELD_HEADER = {
    "F": ["x", "y", "z", "t", "re_sigma", "im_sigma", "cut_sign",
          "re_Fx", "im_Fx", "re_Fy", "im_Fy", "re_Fz", "im_Fz"],
    "psi": ["x", "y", "z", "t", "re_sigma", "im_sigma", "cut_sign", "re_psi", "im_psi"],
}
SOURCE_HEADER = ["q", "phi", "x", "y", "z", "re_j0", "im_j0", "re_jx", "im_jx",
                 "re_jy", "im_jy", "re_jz", "im_jz", "in_rim_band"]
SUBSAMPLE = 64
SIGMA_TOL = 1e-12
TOLERANCE = {"sweep_flat": 1e-5, "sweep_spheroid": 1e-9, "sources_sampled": 1e-6, "validate_battery": 0.0}


@dataclass
class CheckResult:
    ok: bool
    records: int
    max_rel_err: float
    detail: str


def _read_csv(path):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    header = lines[0].decode().split(",") if lines else []
    return header, lines[1:]


def _rows(lines, idx):
    return np.array([[float(v) for v in lines[i].split(b",")] for i in idx])


def _principal_sigma(r, a_vec):
    """sqrt(r.r - a.a - 2i a.r) with non-negative real part (the flat-disk branch)."""
    a_vec = np.asarray(a_vec, dtype=float)
    s2 = np.sum(r * r, axis=-1) - a_vec @ a_vec - 2j * (r @ a_vec)
    return np.sqrt(s2)


def _cauchy(n, tau):
    return math.factorial(n - 1) / (2.0 * np.pi * 1j**n * tau**n)


def _fail(records, detail):
    return CheckResult(False, records, float("inf"), detail)


def check_sweep(inp, out_dir, rng) -> CheckResult:
    quantity = inp.params["quantity"]
    header, lines = _read_csv(os.path.join(out_dir, "field.csv"))
    if header != FIELD_HEADER[quantity]:
        return _fail(len(lines), f"header {header}")
    if len(lines) != inp.sizes["records"]:
        return _fail(len(lines), f"{len(lines)} records, expected {inp.sizes['records']}")
    if not os.path.exists(os.path.join(out_dir, "field.json")):
        return _fail(len(lines), "no sidecar")

    xs, ys, zs, ts = (inp.axes[k] for k in ("x", "y", "z", "t"))
    shape = (len(xs), len(ys), len(zs))
    T = len(ts)
    a_vec = np.array(SOURCE["a"])
    a = float(np.linalg.norm(a_vec))

    def coords(rows_idx):
        p, k = np.divmod(rows_idx, T)
        ix, iy, iz = np.unravel_index(p, shape)
        return np.column_stack([xs[ix], ys[iy], zs[iz]]), ts[k]

    # candidates drawn uniformly; the spheroid sweep adds rows near the membrane
    cand = rng.choice(len(lines), size=min(len(lines), 16 * SUBSAMPLE), replace=False)
    pts, _ = coords(cand)
    sigma0 = _principal_sigma(pts, a_vec)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if quantity == "F":
        clearance = np.where(rho <= a, np.abs(pts[:, 2]), np.hypot(rho - a, pts[:, 2]))
        keep = (clearance > 0.3 * a) & (np.abs(sigma0) > 0.05 * a)
        idx = cand[keep][:SUBSAMPLE]
    else:
        near = (np.abs(sigma0.real - inp.params["alpha"]) < 0.2 * a) & (pts[:, 2] > 0)
        idx = np.concatenate([cand[near][: SUBSAMPLE // 2], cand[~near][: SUBSAMPLE // 2]])
    if len(idx) < SUBSAMPLE // 2:
        return _fail(len(lines), f"only {len(idx)} checkable rows")
    idx = np.sort(idx)
    rows = _rows(lines, idx)
    pts, t = coords(idx)
    if not (np.array_equal(rows[:, :3], pts) and np.array_equal(rows[:, 3], t)):
        return _fail(len(lines), "row coordinates do not match the grid order")

    cfg = SourceConfig(a=a_vec, b=SOURCE["b"], c=SOURCE["c"])
    n = inp.params["n"]
    if quantity == "F":
        ref_sign = np.ones(len(idx))
    else:
        ref_sign = continued_sign(UpperSpheroid(inp.params["alpha"]), pts, cfg).astype(float)
    if not np.array_equal(rows[:, 6], ref_sign):
        bad = int(np.sum(rows[:, 6] != ref_sign))
        return _fail(len(lines), f"{bad} cut signs differ from analytic continuation")
    sigma_ref = ref_sign * _principal_sigma(pts, a_vec)
    sigma = rows[:, 4] + 1j * rows[:, 5]
    sig_err = float(np.max(np.abs(sigma - sigma_ref) / np.abs(sigma_ref)))
    if sig_err > SIGMA_TOL:
        return _fail(len(lines), f"sigma off by {sig_err:.2e}")

    if quantity == "F":
        pol = np.array(POL_RE) + 1j * np.array(POL_IM)
        w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(n))
        ref = field_curl_oracle(w, pol, pts, t, h=1e-4 * a)
        got = rows[:, 7::2] + 1j * rows[:, 8::2]
        rel = np.linalg.norm(got - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
    else:
        tau = t - 1j * SOURCE["b"]
        ref = _cauchy(n, tau - sigma_ref) / sigma_ref
        got = rows[:, 7] + 1j * rows[:, 8]
        rel = np.abs(got - ref) / np.abs(ref)
    worst = float(np.max(rel))
    tol = TOLERANCE[inp.workload]
    ok = worst <= tol
    return CheckResult(ok, len(lines), worst,
                       f"{len(idx)} rows, worst rel err {worst:.2e} (tol {tol:g}), sigma {sig_err:.1e}")


class GaussianDerivativeSignal:
    """Closed-form analytic signal of g0 = d/dt exp(-(t-c)^2/(2 w^2)).

    With z = (tau - c)/(sqrt(2) w) the Cauchy integral of the Gaussian is
    -i*pi*W(z) above the real axis and i*pi*W(-z) below it (W the Faddeeva
    function), and the derivative pulse's signal is its tau-derivative.
    """

    def __init__(self, centre, width):
        self.centre = centre
        self.scale = math.sqrt(2.0) * width

    def eval(self, tau, order: int = 0):
        tau = np.asarray(tau, dtype=complex)
        m = order + 1
        z = (tau - self.centre) / self.scale
        upper = z.imag > 0
        zz = np.where(upper, z, -z)
        # W^(k) by W' = -2zW + 2i/sqrt(pi), W^(k+1) = -2z W^(k) - 2k W^(k-1)
        derivs = [wofz(zz), -2.0 * zz * wofz(zz) + 2j / math.sqrt(math.pi)]
        for k in range(1, m):
            derivs.append(-2.0 * zz * derivs[k] - 2.0 * k * derivs[k - 1])
        dm = derivs[m]
        integral = np.where(upper, -1j * np.pi * dm, 1j * np.pi * (-1) ** m * dm)
        return integral / self.scale**m / (2j * np.pi)


def check_sources(inp, out_dir, rng) -> CheckResult:
    header, lines = _read_csv(os.path.join(out_dir, "sources.csv"))
    if header != SOURCE_HEADER:
        return _fail(len(lines), f"header {header}")
    if len(lines) != inp.sizes["records"]:
        return _fail(len(lines), f"{len(lines)} records, expected {inp.sizes['records']}")
    if not os.path.exists(os.path.join(out_dir, "sources.json")):
        return _fail(len(lines), "no sidecar")
    qs, phis = inp.axes["q"], inp.axes["phi"]
    idx = np.sort(rng.choice(len(lines), size=min(len(lines), SUBSAMPLE), replace=False))
    rows = _rows(lines, idx)
    iq, iphi = np.divmod(idx, len(phis))
    q, phi = qs[iq], phis[iphi]
    if not (np.array_equal(rows[:, 0], q) and np.array_equal(rows[:, 1], phi)):
        return _fail(len(lines), "row coordinates do not match the surface grid order")
    a = float(np.linalg.norm(SOURCE["a"]))
    if not np.array_equal(rows[:, 13], (np.abs(q) < 0.1 * a).astype(float)):
        return _fail(len(lines), "rim-band flags differ from |q| < 0.1a")
    cfg = SourceConfig(a=np.array(SOURCE["a"]), b=SOURCE["b"], c=SOURCE["c"])
    sig = GaussianDerivativeSignal(inp.params["centre"], inp.params["width"])
    w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=sig)
    pol = np.array(POL_RE) + 1j * np.array(POL_IM)
    ref = surface_sources_exact(w, pol, q, phi, inp.params["alpha"], inp.params["t"], q_min=0.0)
    ref_v = np.column_stack([ref.j0, ref.j])
    got = rows[:, 5:13:2] + 1j * rows[:, 6:13:2]
    rel = np.linalg.norm(got - ref_v, axis=-1) / np.linalg.norm(ref_v, axis=-1)
    worst = float(np.max(rel))
    tol = TOLERANCE[inp.workload]
    return CheckResult(worst <= tol, len(lines), worst,
                       f"{len(idx)} rows, worst rel err {worst:.2e} (tol {tol:g})")


def check_validate(stdout: str, code: int) -> CheckResult:
    lines = stdout.splitlines()
    passed = sum(1 for ln in lines if ln.startswith("PASS "))
    failed = [ln.split()[1] for ln in lines if ln.startswith("FAIL ")]
    ok = code == 0 and not failed and passed >= 13
    detail = f"{passed} suites passed" + (f", failed: {', '.join(failed)}" if failed else "")
    return CheckResult(ok, passed + len(failed), 0.0, detail)


def check(inp, out_dir, record, rng) -> CheckResult:
    """Check one finished command; a nonzero exit fails without reading outputs."""
    if inp.workload == "validate_battery":
        return check_validate(record.get("stdout", ""), record.get("exit", -1))
    if record.get("exit") != 0:
        return _fail(0, f"exit code {record.get('exit')}")
    if inp.workload == "sources_sampled":
        return check_sources(inp, out_dir, rng)
    return check_sweep(inp, out_dir, rng)
