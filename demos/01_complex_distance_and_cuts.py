#!/usr/bin/env python3
"""Tour of the complex distance sigma = p - i*q and its branch cuts.

Displacing a point source to the imaginary location i*a turns the distance
into a double-valued complex function whose branch points fill a circle of
radius |a|.  Everything downstream (beams, antennas, surface currents)
lives on the geometry shown here.
"""

import numpy as np

from emwavelets import (
    FlatDisk,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    branch,
    complex_distance_principal,
    frame,
    to_oblate,
)

cfg = SourceConfig(a=[0.0, 0.0, 1.0], b=1.5)

print("=== principal branch ===")
for r in ([0, 0, 2.0], [1.0, 0, 0], [0.5, 0, 1e-9], [3.0, 2.0, -1.0]):
    sigma, p, q = complex_distance_principal(np.array(r, dtype=float), cfg)
    print(f"r = {r!s:18s} sigma = {sigma:+.6f}   (p = {p:.6f}, q = {q:+.6f})")
print("the branch circle (|rho| = 1, z = 0) is the zero set;")
print("on the disk the value is the limit from z > 0: pure negative imaginary.\n")

print("=== oblate spheroidal coordinates ===")
r = np.array([1.2, 0.4, 0.8])
p, q, phi = to_oblate(r, cfg)
z, rho2 = r[2], r[0] ** 2 + r[1] ** 2
print(f"r = {r}:  p = {p:.6f}, q = {q:.6f}, phi = {phi:.6f}")
print(f"identity a*z = p*q:        {z:.12f} vs {p * q:.12f}")
print(f"identity a^2 rho^2 = (p^2+a^2)(a^2-q^2): {rho2:.12f} vs {(p**2 + 1) * (1 - q**2):.12f}\n")

print("=== the gradient frame ===")
fr = frame(np.array([1.2, 0.4, 0.8]), cfg)
print(f"u.u          = {np.sum(fr.u * fr.u):+.15f}   (complex unit vector)")
print(f"|grad p|^2 - |grad q|^2 = {np.sum(fr.grad_p**2) - np.sum(fr.grad_q**2):+.15f}")
print(f"grad p . grad q         = {np.sum(fr.grad_p * fr.grad_q):+.3e}\n")

print("=== branch cuts and their one sign rule: flip where p < chi(q, phi) ===")
pts = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.05], [0.0, 0.0, -0.05], [0.5, 0.0, 0.02]])
cuts = [("flat disk", FlatDisk()), ("upper spheroid a=0.1", UpperSpheroid(0.1)),
        ("smoothed (eps=0.005)", SmoothSpheroid(0.1, 0.005))]
print(f"{'point':>18s} | " + " | ".join(f"{name:>22s}" for name, _ in cuts))
for pt in pts:
    row = []
    for _, cut in cuts:
        row.append(f"{branch(cut, pt, cfg).sigma:+.4f}")
    print(f"{np.array2string(pt, precision=2):>18s} | " + " | ".join(f"{v:>22s}" for v in row))
print("\ninside the lens between the disk and the upper cut the sign flips:")
print("that flipped branch is what turns retarded fields into advanced ones,")
print("and the pair of cuts is what the spheroidal antenna is made of.")
