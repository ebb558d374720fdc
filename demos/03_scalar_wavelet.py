#!/usr/bin/env python3
"""The scalar wavelet psi = g(tau - sigma)/sigma and its source structure.

Off the branch cut psi solves the homogeneous wave equation (checked here
by stencil residuals); across the cut it jumps, and that jump is the
source.  The symmetrized combination is sourceless and single-valued:
it is the field inside the antenna.
"""

import numpy as np

from emwavelets import CauchySignal, FlatDisk, ScalarWavelet, SourceConfig, interior_psi, psi
from emwavelets.harness.fd import wave_residual

cfg = SourceConfig(a=[0, 0, 1.0], b=1.5)
w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))

print("=== wave-operator residual (should fall at second order) ===")
pt = np.array([1.4, 0.5, 0.9])
for h in (1e-2, 5e-3, 2.5e-3):
    print(f"h = {h:7.4f}: |box psi| = {abs(wave_residual(w, pt, 2.0, h=h, order=2)):.3e}")

print("\n=== the jump across the cut carries the source ===")
rho = 0.6
up = psi(w, np.array([rho, 0, 1e-7]), 1.4)
dn = psi(w, np.array([rho, 0, -1e-7]), 1.4)
print(f"psi just above the disk: {up:+.6f}")
print(f"psi just below the disk: {dn:+.6f}")
print(f"jump magnitude: {abs(up - dn):.6f}")

iu = interior_psi(w, np.array([rho, 0, 1e-7]), 1.4)
idn = interior_psi(w, np.array([rho, 0, -1e-7]), 1.4)
print(f"\nsourceless interior combination, same straddle: jump = {abs(iu - idn):.2e}")

print("\n=== a beam snapshot along the axis (t = 3) ===")
zs = np.linspace(0.5, 6.0, 12)
pts = np.column_stack([np.zeros_like(zs), np.zeros_like(zs), zs])
vals = np.abs(psi(w, pts, 3.0))
peak = zs[np.argmax(vals)]
for z, v in zip(zs, vals):
    bar = "#" * int(60 * v / vals.max())
    print(f"z = {z:5.2f}  |psi| = {v:8.5f}  {bar}")
print(f"\nthe pulse peaks near z = {peak:.2f}: it left the source region at t = 0")
print("and travels along +a at unit speed, as a causal beam should.")
