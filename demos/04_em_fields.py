#!/usr/bin/env python3
"""Electromagnetic fields from the Hertz potential Z = psi*pol.

The complex field F = D + i*B collapses to three scalar coefficients
against the frame (u, pol, u x pol).  An independent stencil oracle
re-derives F from psi alone; the far field is transverse and satisfies
the helicity condition i e_r x F = F, so one complex vector carries both
real fields with nothing wasted.
"""

import numpy as np

from emwavelets import (
    CauchySignal,
    FlatDisk,
    ScalarWavelet,
    SourceConfig,
    far_field,
    field,
    helicity_residual,
    interior_field,
    joint_field,
    poynting_energy_far,
)
from emwavelets.harness.fd import field_curl_oracle

cfg = SourceConfig(a=[0, 0, 1.0], b=1.5)
w = ScalarWavelet(cut=FlatDisk(), cfg=cfg, sig=CauchySignal(1))
pol = np.array([1.0, 0.0, 0.0], dtype=complex)

print("=== closed form vs curl-curl oracle ===")
pt = np.array([1.3, 0.4, 0.8])
F = field(w, pol, pt, 2.0)
Fo = field_curl_oracle(w, pol, pt, 2.0, h=1e-4)
print(f"F        = {np.array2string(F, precision=6)}")
print(f"oracle   = {np.array2string(Fo, precision=6)}")
print(f"relative deviation: {np.linalg.norm(F - Fo) / np.linalg.norm(F):.2e}\n")

print("=== D and B are one analytic object ===")
print(f"D = Re F = {np.array2string(F.real, precision=6)}")
print(f"B = Im F = {np.array2string(F.imag, precision=6)}\n")

print("=== far zone: transverse, helicity locked, Poynting radial ===")
for R in (10.0, 100.0, 1000.0):
    r = R * np.array([np.sin(0.4), 0.0, np.cos(0.4)])
    hel = helicity_residual(w, pol, r, R)
    Ff = far_field(w, pol, r, R)
    S, E, mismatch = poynting_energy_far(field(w, pol, r, R), r / R)
    print(f"R = {R:6.0f}: helicity residual = {hel:.3e}, Poynting mismatch = {mismatch:.3e}")
print("residuals fall like a/R: the asymptotic beam is a pure helicity state.\n")

print("=== the spheroidal antenna: joint field of two cuts ===")
inside = np.array([0.3, 0.0, 0.02])
outside = np.array([1.5, 0.0, 0.7])
Ji = joint_field(w, pol, inside, 1.2, alpha=0.1)
Jo = joint_field(w, pol, outside, 1.2, alpha=0.1)
F0 = interior_field(w, pol, inside, 1.2)
print(f"inside  V: joint = {np.array2string(Ji[:2], precision=5)}... equals interior combination:"
      f" {np.allclose(Ji, F0)}")
print(f"outside V: joint = 2 x single-branch field: "
      f"{np.allclose(Jo, 2 * field(w, pol, outside, 1.2))}")
print("the interior is sourceless; all sources sit on the spheroid surface.")
