#!/usr/bin/env python3
"""Surface charge and current densities on the oblate spheroidal radiator.

The field jump across the spheroid p = alpha determines the equivalent
sources j0 = e_p . dF and j = -i e_p x dF: complex, because a flat
radiator needs (small) magnetic sources too.  The impulse response is in
closed form; band-pass responses follow by differentiating it in b.  The
static continued-Coulomb field shows the same structure and its famous
spinning-disk picture.
"""

import numpy as np

from emwavelets import (
    CauchySignal,
    FlatDisk,
    ScalarWavelet,
    SourceConfig,
    coulomb_disk_sources,
    coulomb_spheroid_sources,
    effective_aperture,
    impulse_surface_sources,
    surface_sources_approx,
    surface_sources_exact,
)
from emwavelets.harness.fd import bandpass_via_impulse

cfg = SourceConfig(a=[0, 0, 1.0], b=1.5)
w4 = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(4))
pol = np.array([1.0, 0.0, 0.0], dtype=complex)

print("=== exact vs flat-spheroid approximation (alpha = 0.01a) ===")
qs = np.linspace(0.3, 0.9, 5)
phis = np.full_like(qs, 0.8)
ex = surface_sources_exact(w4, pol, qs, phis, 0.01, 1.2)
ap = surface_sources_approx(w4, pol, qs, phis, 0.01, 1.2)
print(f"{'q':>6s} {'Re j0 exact':>12s} {'Re j0 approx':>13s} {'|j| exact':>10s} {'|j| approx':>11s}")
for k in range(len(qs)):
    print(
        f"{qs[k]:6.2f} {ex.j0[k].real:12.6f} {ap.j0[k].real:13.6f} "
        f"{np.linalg.norm(ex.j[k]):10.6f} {np.linalg.norm(ap.j[k]):11.6f}"
    )

print("\n=== impulse response (closed rational forms) ===")
imp = impulse_surface_sources(pol, qs, phis, 0.01, 1.2, cfg)
print("j0:", np.array2string(imp.j0, precision=5))

print("\n=== band-pass response two ways: direct C_2 drive vs -d/db of the impulse ===")
w2 = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(2))
direct = surface_sources_exact(w2, pol, qs, phis, 0.01, 1.2)
via_b = bandpass_via_impulse(2, w4, pol, qs, phis, 0.01, 1.2)
gap = np.abs(direct.j0 - via_b.j0).max() / np.abs(direct.j0).max()
print(f"max relative gap: {gap:.2e}")

print("\n=== electric vs magnetic content ===")
s = surface_sources_exact(w4, pol, qs, phis, 0.05, 1.2)
frac = (np.sum(s.j0_magnetic**2) + np.sum(s.j_magnetic**2)) / (
    np.sum(np.abs(s.j0) ** 2) + np.sum(np.abs(s.j) ** 2)
)
print(f"magnetic energy fraction of the sources at alpha = 0.05a: {frac:.3f}")

print("\n=== the static Coulomb analogue ===")
j0, j = coulomb_disk_sources(0.5, 0.0, cfg)
print(f"disk charge density at rho = 0.5: {j0:+.6f}; current {np.array2string(j, precision=5)}")
print(f"charge velocity j/j0 = {np.array2string(np.real(j / j0), precision=3)}: rigid rotation at rate 1/a, "
      "so the rim moves at light speed (c = 1)")
for alpha in (0.25, 0.125, 0.0625):
    s = coulomb_spheroid_sources(alpha, np.sqrt(1 - 0.25), 0.0, cfg)
    print(f"alpha = {alpha:7.4f}: |magnetic j0| = {abs(s.j0_magnetic):.5f} (dies as alpha -> 0)")

print("\n=== effective aperture ===")
for n in (2, 8, 32):
    omega = n / cfg.b
    try:
        q_min, rho_max = effective_aperture(omega, cfg.a_mag)
        print(f"C_{n:<2d} drive (omega = {omega:5.2f}): radiating zone rho <= {rho_max:.3f}")
    except Exception as exc:
        print(f"C_{n:<2d} drive: {exc}")
print("high-order kernels light up more of the disk; DC never leaves home.")
