#!/usr/bin/env python3
"""Analytic-signal pulses and the beam-design formulas.

The band-pass kernels C_n(t - i*b) drive everything: b suppresses high
frequencies, n suppresses low ones, and the far-zone beam produced by the
complex source has pulse duration |b - a cos(theta)| - shortest, hence
strongest, straight up the source axis.
"""

import numpy as np

from emwavelets import (
    CauchySignal,
    SourceConfig,
    diffraction_angle,
    peak_strength,
    pulse_duration,
    spectrum_cauchy,
)
from emwavelets.harness.beam import measure_pulse, spectral_profiles

a, b = 1.0, 1.5
cfg = SourceConfig(a=[0, 0, a], b=b)

print("=== the band-pass family ===")
for n in (1, 2, 4, 16):
    prof, (c_meas, w_meas) = spectral_profiles(n, b)
    print(
        f"n = {n:2d}: center = {prof.center:6.3f} (measured {c_meas:6.3f}), "
        f"width = {prof.width:5.3f} (measured {w_meas:5.3f})"
    )
om = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
print("spectrum of C_1 at b=1:", np.array2string(spectrum_cauchy(1, om, 1.0), precision=4), "\n")

print("=== beam profile: prediction vs far-zone measurement ===")
print(f"{'theta':>8s} {'T pred':>9s} {'T meas':>9s} {'M pred':>10s} {'M meas':>10s}")
for theta in np.linspace(0, np.pi, 7):
    T_pred = pulse_duration(theta, a, b)
    M_pred = peak_strength(theta, 4, a, b)
    T_meas, M_meas = measure_pulse(CauchySignal(4), cfg, theta, R=1000.0)
    print(f"{theta:8.4f} {T_pred:9.5f} {T_meas:9.5f} {M_pred:10.6f} {M_meas:10.6f}")

print("\n=== collimation ===")
for n in (1, 4, 16):
    for bb in (1.01, 1.5):
        th = diffraction_angle(1.0, n, a, bb)
        print(f"n = {n:2d}, b = {bb:5.2f}: 1/e beam angle = {np.degrees(th):7.3f} deg")
print("\nsharper beams come from b close to a, or from high-order kernels.")
