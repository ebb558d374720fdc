"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line (run with -s to see them live);
the suites are the same code the `emwavelets validate` command runs, so
the CLI and this module can never drift apart.
"""

import re
import time

import numpy as np
import pytest

from emwavelets.harness.config import default_config
from emwavelets.harness.validate import (
    run_all,
    suite_appendix_identities,
    suite_beam_diagnostics,
    suite_coulomb,
    suite_determinism,
    suite_impulse_response,
    suite_interior_continuity,
    suite_oracle_equivalence,
    suite_sigma_algebra,
    suite_sources_approx,
    suite_wave_maxwell,
)

SEED = 0


def _run(suite, **kwargs):
    rc = default_config()
    res = suite(rc, np.random.default_rng(SEED), **kwargs)
    print(res.line())
    return res


class TestAcceptance:
    def test_01_appendix_identities(self):
        # sigma^2 identity <= 1e-12, u.u = 1 and the gradient-norm identities <= 1e-10,
        # at the same 1e6 points, < 10 s
        res = _run(suite_appendix_identities, n_points=1_000_000)
        assert res.passed and res.measured <= 1e-10
        assert float(re.search(r"sigma\^2 residual (\S+) ", res.detail).group(1)) <= 1e-12
        assert res.seconds < 10.0

    def test_02_sigma_algebra_and_cut_flips(self):
        # straddle flips <= 1e-3 for every cut kind, the sign rule and disk continuity
        res = _run(suite_sigma_algebra, n_straddle=1000)
        assert res.passed and res.measured <= 1e-3

    def test_03_wave_and_maxwell_convergence(self):
        # box(psi), div F, dF/dt + i curl F: order >= 1.9 over h = {1e-2,5e-3,2.5e-3}a
        res = _run(suite_wave_maxwell, n_points=100)
        assert res.passed and res.measured >= 1.9

    def test_04_oracle_equivalence(self):
        # field() vs curl-curl oracle <= 1e-5 at h = 1e-4 a; Lorenz order >= 1.9
        res = _run(suite_oracle_equivalence, n_points=100)
        assert res.passed and res.measured <= 1e-5

    def test_05_impulse_response_closed_forms(self):
        # closed-form tilde coefficients vs generic route, 1e4 samples, <= 1e-11
        res = _run(suite_impulse_response, n_points=10_000)
        assert res.passed and res.measured <= 1e-11

    def test_06_coulomb_disk(self):
        # center density -1/(2 pi); monotone magnetic decay over alpha = a/4, a/8, a/16;
        # rim charge integral diverges under refinement
        res = _run(suite_coulomb)
        assert res.passed

    def test_07_beam_diagnostics(self):
        # duration within 5%, diffraction angle within 10%, spectral moments
        # within 2% (n in {1,4,16}, b in {1.01a, 1.5a}); helicity residual at
        # 100a at most 0.15x its value at 10a
        res = _run(suite_beam_diagnostics)
        assert res.passed and res.measured <= 0.05

    def test_08_interior_continuity(self):
        # joint field and interior wavelet straddle jumps <= 1e-8 at 1e3 pairs
        res = _run(suite_interior_continuity, n_pairs=1000)
        assert res.passed and res.measured <= 1e-8

    def test_09_sources_approx_vs_exact(self):
        # approximate surface sources within 10% of the exact boundary values
        # (alpha = 0.01a, |q| >= 0.2a, band-pass n = 4 drive, 1e3 samples)
        res = _run(suite_sources_approx, n_samples=1000)
        assert res.passed and res.measured <= 0.10

    def test_10_determinism_and_runtime(self):
        # byte-identical serial vs parallel output; full battery under 60 s
        res = _run(suite_determinism)
        assert res.passed
        t0 = time.perf_counter()
        results = run_all(default_config(), seed=SEED)
        total = time.perf_counter() - t0
        print(f"full validation battery: {total:.1f}s (< 60s required)")
        assert all(r.passed for r in results)
        assert total < 60.0
