import argparse
import ast
import configparser
import dataclasses
import fractions
import importlib
import inspect
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import stat
import subprocess
import sys
import textwrap
import tracemalloc
import typing
import warnings

import numpy as np
import pytest

import emwavelets
from emwavelets import em_fields, geometry, scalar_wavelet
from emwavelets import (
    CauchySignal, FlatDisk, LowerSpheroid, SmoothSpheroid, SourceConfig, UpperSpheroid, complex_distance_principal,
    field, psi, spheroid_point,
)
from emwavelets.errors import (
    ConfigError, NoSolutionError, OnCutError, QuadratureDivergenceError, UnderResolvedSignalError,
)
from emwavelets.signals import SampledSignal, spectrum_cauchy
from emwavelets.surface_sources import (
    DEFAULT_Q_MIN_FRAC, effective_aperture, impulse_surface_sources, surface_sources_exact,
)
from emwavelets import signals
from emwavelets.harness import _format, beam, datasets, fd, runs, spectral
from emwavelets.harness import config as config_mod
from emwavelets.harness import validate as validate_mod
from emwavelets.harness.beam import far_point, measure_pulse, spectral_window
from emwavelets.harness.config import AxisSpec, RunConfig, default_config, load_config
from emwavelets.harness.datasets import VALUE_BUDGET, write_csv, write_csv_atomic, write_json_sidecar
from emwavelets.harness.grids import chunked_parallel_map, grid_axes, grid_points, tiles
from emwavelets.harness.runs import (
    FIELD_HEADER_F, FIELD_HEADER_PSI, SOURCE_HEADER, field_rows, source_sweep_rows,
)
from emwavelets.harness.spectral import DE_STEPS, _chirp_z, cauchy_series_transform, de_fourier
from emwavelets.harness.validate import (
    ALL_SUITES,
    _region_sign,
    _straddle_pairs_for_cut,
    suite_analyticity,
    suite_appendix_identities,
    suite_interior_continuity,
    suite_oracle_equivalence,
    suite_sigma_algebra,
    suite_sources_approx,
    suite_spectra,
    suite_surface_continuity,
    suite_wave_maxwell,
)
from emwavelets.harness import cli

CONFIG_TEXT = """
[source]
a = 0,0,1
b = 1.5

[cut]
kind = smooth_spheroid
alpha = 0.1
eps = 0.004

[signal]
kind = cauchy
n = 2

[polarization]
re = 1,0,0
im = 0,1,0

[grid]
x = -1,1,5
y = 0,0,1
z = 0.5,1.5,4
t = 1,2,2

[surface]
alpha = 0.02
nq = 8
nphi = 4
t = 1.1
"""


def _readme_example():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    return str(path)


class TestFiniteDifferences:
    def test_wave_operator_orders(self):
        # box of g(t - r)/r vanishes off the origin at the stencil order
        g = CauchySignal(2)
        f = lambda rr, tt: g.eval((tt - np.linalg.norm(rr, axis=-1)) - 1.5j) / np.linalg.norm(
            rr, axis=-1
        )
        pt = np.array([1.2, 0.7, -0.4])
        for order in (2, 4):
            r1 = abs(fd.dalembertian(f, pt, 1.1, 2e-2, order=order))
            r2 = abs(fd.dalembertian(f, pt, 1.1, 1e-2, order=order))
            assert r1 / r2 == pytest.approx(2.0**order, rel=0.3)

    def test_curl_of_gradient_vanishes(self):
        g = CauchySignal(1)
        f = lambda rr, tt: g.eval((tt - np.linalg.norm(rr, axis=-1)) - 1.5j) / np.linalg.norm(
            rr, axis=-1
        )
        pt = np.array([1.0, 0.5, 0.3])
        gradf = lambda rr, tt: fd.grad(f, rr, tt, 1e-3)
        c = fd.curl(gradf, pt, 1.0, 1e-3)
        assert np.abs(c).max() < 1e-10

    def test_div_of_curl_vanishes(self):
        g = CauchySignal(1)
        F = lambda rr, tt: np.stack(
            [
                g.eval((tt - np.linalg.norm(rr, axis=-1)) - 1.5j),
                g.eval((tt - 2 * np.linalg.norm(rr, axis=-1)) - 2.0j),
                np.zeros(rr.shape[:-1], dtype=complex),
            ],
            axis=-1,
        )
        curlF = lambda rr, tt: fd.curl(F, rr, tt, 1e-3)
        d = fd.divergence(curlF, np.array([0.8, -0.3, 0.6]), 1.0, 1e-3)
        assert abs(d) < 1e-9

    def test_parameter_derivatives(self):
        f = lambda x: np.exp(0.7 * x)
        for k in (1, 2, 3, 4):
            got = fd.nth_derivative_param(f, 1.3, k, 1e-2)
            assert got == pytest.approx(0.7**k * np.exp(0.7 * 1.3), rel=1e-3)

    def test_higher_time_derivatives(self):
        f = lambda rr, tt: np.sin(tt)
        r = np.zeros(3)
        assert fd.time_derivative(f, r, 0.7, 1e-2, k=3) == pytest.approx(-np.cos(0.7), rel=1e-4)
        assert fd.time_derivative(f, r, 0.7, 1e-2, k=4) == pytest.approx(np.sin(0.7), rel=1e-4)
        for k, order in ((3, 4), (5, 2), (1, 6)):
            with pytest.raises(ValueError, match="no central stencil"):
                fd.time_derivative(f, r, 0.7, 1e-2, order=order, k=k)

    def test_operators_keep_the_per_axis_per_component_bits(self):
        # each operator equals the stencil applied axis by axis and component by
        # component, with the same operand order, to the last bit
        cfg = SourceConfig(a=np.array([0.3, -0.4, 0.8]), b=1.2)
        w = emwavelets.ScalarWavelet(cut=emwavelets.FlatDisk(), cfg=cfg, sig=CauchySignal(3))
        pol = np.array([1.0, 0.5j, 0.2])
        f = lambda rr, tt: psi(w, rr, tt)
        F = lambda rr, tt: field(w, pol, rr, tt)
        r = np.vstack([np.random.default_rng(2).uniform(-2.0, 2.0, (6, 3)), [[0.0, -0.0, 1.3]]])
        r = r[emwavelets.FlatDisk().clearance(r, cfg) > 0.1]
        t, h = 1.7, 2e-3
        first = {2: ((-1, 1), (-0.5, 0.5)), 4: ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12))}
        second = {2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
                  4: ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12))}

        def along(g, k, order, ax, comp=None):
            offs, wts = (first if k == 1 else second)[order]
            e = np.zeros(3)
            e[ax] = 1.0
            at = lambda o: np.asarray(g(r + o * h * e, t)) if comp is None else np.asarray(g(r + o * h * e, t))[..., comp]
            return sum(wt * at(o) for o, wt in zip(offs, wts)) / h**k

        def same(got, want):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

        for order in (2, 4):
            same(fd.grad(f, r, t, h, order), np.stack([along(f, 1, order, ax) for ax in range(3)], axis=-1))
            same(fd.divergence(F, r, t, h, order), sum(along(F, 1, order, ax, ax) for ax in range(3)))
            d = [[along(F, 1, order, ax, c) for c in range(3)] for ax in range(3)]
            same(fd.curl(F, r, t, h, order),
                 np.stack([d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]], axis=-1))
            same(fd.laplacian(f, r, t, h, order), sum(along(f, 2, order, ax) for ax in range(3)))
            for k, table in ((1, first), (2, second)):
                offs, wts = table[order]
                same(fd.time_derivative(F, r, t, h, order, k=k),
                     sum(wt * np.asarray(F(r, t + o * h)) for o, wt in zip(offs, wts)) / h**k)
        eye = np.eye(3)
        H = [[None] * 3 for _ in range(3)]
        for i in range(3):
            H[i][i] = along(f, 2, 2, i)
            for j in range(i + 1, 3):
                ei, ej = eye[i] * h, eye[j] * h
                H[i][j] = H[j][i] = (
                    f(r + ei + ej, t) - f(r + ei - ej, t) - f(r - ei + ej, t) + f(r - ei - ej, t)
                ) / (4.0 * h**2)
        got = fd._hessian(f, r, t, h)
        for i in range(3):
            for j in range(3):
                same(got[i][j], H[i][j])

    def test_each_stencil_point_evaluated_once(self, monkeypatch):
        # points are counted over all calls; a spatial operator makes one call of f
        cfg = SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=1.5)
        w = emwavelets.ScalarWavelet(cut=emwavelets.FlatDisk(), cfg=cfg, sig=CauchySignal(1))
        pol = np.array([1.0, 0.0, 0.0])
        r = np.array([[0.4, -0.2, 0.9], [1.1, 0.3, -0.6]])
        n = len(r)
        calls = []
        points = lambda: sum(math.prod(np.shape(rr)[:-1]) for rr in calls)
        F = lambda rr, tt: calls.append(rr) or field(w, pol, rr, tt)
        for order, count in ((2, 6), (4, 12)):
            calls.clear()
            fd.curl(F, r, 1.5, 1e-3, order)
            assert points() == count * n and len(calls) == 1
        calls.clear()
        counted_psi = lambda *args: calls.append(args[1]) or psi(*args)
        monkeypatch.setattr(fd, "psi", counted_psi)
        fd.field_curl_oracle(w, pol, r, 1.5, h=1e-4)
        # 19 for the Hessian and its trace in one call, 12 for d/dt grad psi in one call per time offset
        assert points() == 31 * n and [math.prod(np.shape(rr)[:-1]) for rr in calls] == [19 * n, 6 * n, 6 * n]
        # the centre shared by the three axes of a Laplacian is evaluated once
        calls.clear()
        fd.laplacian(lambda rr, tt: calls.append(rr) or psi(w, rr, tt), r, 1.5, 1e-3)
        assert points() == 7 * n and len(calls) == 1


class TestConfig:
    def test_parse_round_trip(self, config_file):
        rc = load_config(config_file)
        assert rc.source.b == 1.5
        assert rc.cut_kind == "smooth_spheroid"
        assert rc.signal_n == 2
        assert np.allclose(rc.polarization(), [1, 1j, 0])
        assert rc.grid["x"].n == 5

    def test_auto_rim_band_uses_aperture(self, config_file):
        rc = load_config(config_file)
        # a Cauchy drive with k*a > 1 (k = n/|b|) takes the effective aperture's q_min,
        # exactly: the sidecar's q_min and the in_rim_band column keep their bits
        wide = SourceConfig(a=[0.0, 0.0, 2.0], b=-2.5)
        for source, n in [(rc.source, 2), (wide, 3)]:
            case = dataclasses.replace(rc, source=source, signal_n=n)
            assert case.q_min_value() == effective_aperture(n / abs(source.b), source.a_mag)[0]
        # k*a <= 1, and a sampled drive: the default band
        for case in [dataclasses.replace(rc, signal_n=1), dataclasses.replace(rc, source=wide, signal_n=1),
                     dataclasses.replace(rc, signal_kind="sampled")]:
            assert case.q_min_value() == DEFAULT_Q_MIN_FRAC * case.source.a_mag

    def test_missing_signal_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[source]\na = 0,0,1\nb = 1.5\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_invalid_source_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[source]\na = 0,0,1\nb = 0.5\n[signal]\nkind = cauchy\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_readme_example_loads(self, tmp_path):
        path = tmp_path / "readme.ini"
        path.write_text(_readme_example())
        rc = load_config(str(path))
        assert rc.cut_kind == "upper_spheroid" and rc.signal_n == 4 and rc.grid["z"].n == 41

    def test_documented_keys_are_the_table(self):
        # README's example and the module docstring list every key the table reads, and no other
        doc = config_mod.__doc__.split("::\n", 1)[1].split("\nload_config refuses", 1)[0]
        table = set(config_mod.TABLE)
        for text in (_readme_example(), textwrap.dedent(doc)):
            cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
            cp.read_string(text)
            assert {(section, key) for section in cp.sections() for key in cp[section]} == table

    def test_defaults_are_the_documented_ones(self):
        rc = default_config()
        assert (rc.cut_kind, rc.cut_alpha, rc.cut_eps, rc.signal_kind, rc.signal_n) == ("flat_disk", 0.1, 0.005,
                                                                                           "cauchy", 1)
        assert (rc.source.b, rc.quantity, rc.grid) == (1.5, "F", {})

    def test_huge_surface_alpha_refused_or_finite(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text(CONFIG_TEXT.replace("alpha = 0.02", "alpha = 1e308"))
        out = tmp_path / "out"
        code = cli.main(["sample-sources", "--config", str(path), "--out", str(out)])
        if code == 0:
            assert np.isfinite(np.loadtxt(out / "sources.csv", delimiter=",", skiprows=1)).all()
        else:
            assert code == 2 and json.loads(capsys.readouterr().err)["message"].startswith("surface.alpha:")

    @pytest.mark.parametrize("command, csv", [("sample-sources", "sources.csv"),
                                              ("impulse-response", "impulse_response.csv")])
    def test_surface_alpha_bound_runs_finite(self, tmp_path, command, csv):
        # the largest accepted alpha, and the impulse coefficients' alpha^9 past it
        log_alpha = math.log10(config_mod.SURFACE_ALPHA_MAX)
        assert 9 * log_alpha + math.log10(math.pi) < math.log10(sys.float_info.max) < 9 * (log_alpha + 1)
        path = tmp_path / "bound.ini"
        path.write_text(CONFIG_TEXT.replace("alpha = 0.02", f"alpha = {config_mod.SURFACE_ALPHA_MAX!r}"))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert np.isfinite(np.loadtxt(out / csv, delimiter=",", skiprows=1)).all()
        path.write_text(CONFIG_TEXT.replace("alpha = 0.02", "alpha = 1.01e34"))
        with pytest.raises(ConfigError, match=r"^surface\.alpha: must be a finite number > 0 and <= 1e\+34"):
            load_config(str(path))

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            AxisSpec(0.0, 1.0, 0)
        with pytest.raises(ConfigError):
            AxisSpec(1.0, 0.0, 5)
        assert AxisSpec(2.0, 2.0, 1).values() == pytest.approx([2.0])


class TestGrids:
    def test_row_major_order(self):
        grid = {"x": AxisSpec(0, 1, 2), "y": AxisSpec(0, 2, 2), "z": AxisSpec(5, 5, 1)}
        *xyz, ts = grid_axes(grid)
        pts = grid_points(xyz, range(4))
        assert pts.shape == (4, 3)
        assert np.allclose(pts[:, 0], [0, 0, 1, 1])  # x slowest
        assert np.allclose(pts[:, 1], [0, 2, 0, 2])
        assert np.allclose(ts, [0.0])
        assert np.array_equal(grid_points(xyz, range(1, 3)), pts[1:3])

    def test_parallel_map_order(self):
        pts = np.arange(300, dtype=float).reshape(100, 3)
        f = lambda tile: pts[tile[0]] * 2.0
        serial = list(chunked_parallel_map(f, tiles(100, 1, 7), threads=1))
        parallel = list(chunked_parallel_map(f, tiles(100, 1, 7), threads=4))
        assert [len(c) for c in serial] == [7] * 14 + [2]
        assert np.array_equal(np.concatenate(serial), np.concatenate(parallel))
        assert np.array_equal(np.concatenate(serial), pts * 2.0)
        assert list(chunked_parallel_map(f, [], threads=4)) == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_parallel_map_runs_at_most_threads_ahead(self, threads):
        # tiles are computed `threads` at a time, and none starts while the consumer holds a result
        started, ahead = [], []
        parts = (range(i, min(i + 3, 40)) for i in range(0, 40, 3))
        for taken, part in enumerate(chunked_parallel_map(lambda c: started.append(c) or c, parts, threads=threads)):
            assert part == range(3 * taken, min(3 * taken + 3, 40))
            ahead.append(len(started) - taken)
        assert len(ahead) == 14
        assert ahead == [min(14, (i // threads + 1) * threads) - i for i in range(14)]


def per_slice_rows(rc):
    """Reference sweep: the branch resolved per point, psi() or field() called per time slice."""
    w = rc.wavelet()
    *xyz, ts = grid_axes(rc.grid)
    pts = grid_points(xyz, range(math.prod(map(len, xyz))))
    sgn = w.cut.sign(pts, w.cfg)
    sigma = sgn * complex_distance_principal(pts, w.cfg)[0]
    blocks = []
    for tt in ts:
        if rc.quantity == "psi":
            v = psi(w, pts, tt)[:, None]
        else:
            v = field(w, rc.polarization(), pts, tt)
        vals = np.stack([v.real, v.imag], axis=-1).reshape(len(pts), -1)
        base = [pts, np.full(len(pts), tt), sigma.real, sigma.imag, sgn.astype(float)]
        blocks.append(np.column_stack(base + [vals]))
    return np.stack(blocks, axis=1)


def records(block):
    """A block's columns broadcast to one (outer, inner, columns) array of its records."""
    return np.stack(np.broadcast_arrays(*block), axis=-1).astype(np.float64)


def field_block(rc, threads=1):
    """The field_rows blocks of a sweep, concatenated into one (points, times, columns) array."""
    return np.concatenate([records(block) for block in field_rows(rc, threads)])


def source_table(blocks):
    """source_sweep_rows' ring blocks as one (records, columns) table, in output order."""
    return np.concatenate([records(block).reshape(-1, len(block)) for block in blocks])


def flat_source_table(rc, impulse=False):
    """The surface sweep as one evaluation of every (q, phi) point, flattened: source_sweep_rows' reference."""
    cfg = rc.source
    a = cfg.a_mag
    qs = np.linspace(-0.98 * a, 0.98 * a, rc.surface_nq)
    phis = np.linspace(0.0, 2 * np.pi, rc.surface_nphi, endpoint=False)
    Q, P = np.meshgrid(qs, phis, indexing="ij")
    q, phi = Q.ravel(), P.ravel()
    pol, alpha, t = rc.polarization(), rc.surface_alpha, rc.surface_t
    with np.errstate(all="ignore"):
        if impulse:
            s = impulse_surface_sources(pol, q, phi, alpha, t, cfg, q_min=0.0)
        else:
            s = surface_sources_exact(rc.wavelet(), pol, q, phi, alpha, t, q_min=0.0)
    j = [part for k in range(3) for part in (s.j[:, k].real, s.j[:, k].imag)]
    in_rim = (np.abs(q) < rc.q_min_value()).astype(float)
    return np.column_stack([q, phi, s.position, s.j0.real, s.j0.imag, *j, in_rim])


def upper_spheroid_config(quantity, grid):
    return dataclasses.replace(
        default_config(), cut_kind="upper_spheroid", cut_alpha=0.1, signal_n=2,
        pol_re=np.array([1.0, 0.0, 0.0]), pol_im=np.array([0.0, 0.5, 0.0]),
        quantity=quantity, grid=grid,
    )


class TestFieldRows:
    GRID = {
        "x": AxisSpec(-1.45, 1.55, 7),
        "y": AxisSpec(0.03, 0.03, 1),
        "z": AxisSpec(-0.47, 0.61, 10),
        "t": AxisSpec(0.5, 2.5, 170),  # 48 points per block: the 70 points span two blocks
    }

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_matches_per_slice_evaluation(self, quantity):
        rc = upper_spheroid_config(quantity, self.GRID)
        assert [len(block[0]) for block in field_rows(rc)] == [48, 22]
        rows = field_block(rc)
        assert set(np.unique(rows[..., 6])) == {-1.0, 1.0}  # straddles the membrane
        assert np.array_equal(rows, per_slice_rows(rc))
        assert np.array_equal(field_block(rc, threads=2), rows)

    @pytest.mark.parametrize("cut", ["flat_disk", "upper_spheroid", "lower_spheroid", "smooth_spheroid"])
    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_principal_sigma_once_per_point(self, quantity, cut, monkeypatch):
        # the cut sign and the refusal test reuse the sweep's p and q, and no cut of a config reads the azimuth
        points, azimuths = [], []
        principal, azimuth = geometry.complex_distance_principal, geometry._azimuth
        monkeypatch.setattr(geometry, "_azimuth", lambda r, cfg: azimuths.append(r) or azimuth(r, cfg))
        for mod in (geometry, scalar_wavelet, em_fields):
            monkeypatch.setattr(
                mod, "complex_distance_principal",
                lambda r, cfg: points.append(np.size(r) // 3) or principal(r, cfg), raising=False,
            )
        field_block(dataclasses.replace(upper_spheroid_config(quantity, self.GRID), cut_kind=cut))
        assert sum(points) == 7 * 10
        assert azimuths == []

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_frame_vectors_built_only_where_read(self, quantity, monkeypatch):
        # psi reads sigma only; F reads u, and neither reads the unit vector e_p
        built = []
        for name in ("_num", "e_p"):
            prop = vars(geometry.ComplexDistanceSample)[name]
            monkeypatch.setattr(
                geometry.ComplexDistanceSample, name,
                property(lambda self, prop=prop, name=name: built.append(name) or prop.func(self)),
            )
        field_block(upper_spheroid_config(quantity, self.GRID))
        assert set(built) == (set() if quantity == "psi" else {"_num"})

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_gives_every_thread_a_block(self, threads):
        # ten points of 3 time slices are fewer records than one block of 2,048: they are split into `threads`
        # blocks of whole points, in order, and two points make two one-point blocks
        def sizes(nx, threads):
            grid = {"x": AxisSpec(-1.0, 1.0, nx), "z": AxisSpec(0.5, 0.5, 1), "t": AxisSpec(1.0, 2.0, 3)}
            blocks = list(field_rows(upper_spheroid_config("psi", grid), threads))
            assert np.array_equal(np.concatenate([records(block) for block in blocks]),
                                  field_block(upper_spheroid_config("psi", grid)))
            return [records(block).shape[:2] for block in blocks]

        assert len(sizes(10, threads)) == threads
        assert {k for _, k in sizes(10, threads)} == {3}
        assert sizes(10, 1) == [(10, 3)]
        assert sizes(2, threads) == [(1, 3), (1, 3)]

    def test_maps_its_tiles_through_the_module_map(self, monkeypatch):
        # field_rows looks chunked_parallel_map up on harness.runs when called, where a tracer hooks it to count
        # the blocks; a rename or a direct import would leave the hook counting none
        mapped, seen = runs.chunked_parallel_map, []
        monkeypatch.setattr(runs, "chunked_parallel_map", lambda func, tiles, threads=1: mapped(
            lambda tile: seen.append(tile) or func(tile), tiles, threads))
        for threads, n_blocks in ((1, 2), (2, 6)):
            seen.clear()
            assert len(list(field_rows(upper_spheroid_config("psi", self.GRID), threads))) == n_blocks
            assert len(seen) == n_blocks

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_cut_tolerance_governs(self, quantity):
        # 5e-10 above the apron of the upper spheroid is refused, 2e-9 above it is not (CUT_TOL = 1e-9, |a| = 1)
        def at(z):
            return {ax: AxisSpec(v, v, 1) for ax, v in (("x", 1.002), ("y", 0.0), ("z", z), ("t", 1.0))}

        rows = field_block(upper_spheroid_config(quantity, at(2e-9)))
        assert rows.shape == (1, 1, 9 if quantity == "psi" else 13)
        assert np.isfinite(rows).all()
        with pytest.raises(OnCutError):
            field_block(upper_spheroid_config(quantity, at(5e-10)))


def gaussian_pulse_csv(path, n=801):
    """A two-column t,g0 CSV of a Gaussian derivative on [-20, 20]; returns its path as a string."""
    t = np.linspace(-20.0, 20.0, n)
    np.savetxt(path, np.column_stack([t, -t * np.exp(-(t**2) / 2)]), delimiter=",")
    return str(path)


class TestSourceSweep:
    TILTED = SourceConfig(a=np.array([0.4, -0.65, 1.05]), b=2.5)

    @pytest.mark.parametrize("impulse", [False, True], ids=["sources", "impulse"])
    @pytest.mark.parametrize("edit, blocks", [
        pytest.param({"surface_nq": 9, "surface_nphi": 4}, [9], id="odd-nq"),  # a q = 0 ring
        pytest.param({"surface_nq": 40, "surface_nphi": 1}, [40], id="nphi-1"),
        pytest.param({"surface_nq": 1, "surface_nphi": 16}, [1], id="nq-1"),
        pytest.param({"source": TILTED, "surface_nq": 17, "surface_nphi": 12}, [17], id="tilted-axis"),
        pytest.param({"signal_n": 4, "surface_nq": 33, "surface_nphi": 8}, [33], id="cauchy-n4"),
        pytest.param({"signal_kind": "sampled", "surface_nq": 33, "surface_nphi": 8}, [33], id="sampled"),
        pytest.param({"source": TILTED, "signal_kind": "sampled", "surface_nq": 17, "surface_nphi": 12}, [17],
                     id="sampled-tilted-axis"),
        pytest.param({"surface_nq": 701, "surface_nphi": 17}, [240, 240, 221], id="several-blocks"),
    ])
    def test_matches_flat_evaluation(self, edit, blocks, impulse, tmp_path):
        # whole rings per block, each bitwise equal to evaluating every point of the grid at once
        rc = dataclasses.replace(default_config(), **{"signal_n": 2, "pol_im": np.array([0.0, 0.5, 0.0]),
                                                      "surface_alpha": 0.03, **edit})
        if rc.signal_kind == "sampled":
            rc.signal_csv = gaussian_pulse_csv(tmp_path / "pulse.csv")
        name, header, got, _ = source_sweep_rows(rc, impulse=impulse)
        got = list(got)
        assert [records(block).shape for block in got] == [(n, rc.surface_nphi, 14) for n in blocks]
        want = flat_source_table(rc, impulse=impulse)
        if edit["surface_nq"] == 9:
            assert 0.0 in want[:, 0]
        assert np.array_equal(source_table(got).view(np.int64), want.view(np.int64))
        assert_same_lines(written_csv(header, got), savetxt_csv(header, want))

    def test_drive_evaluated_once_per_ring(self, tmp_path, monkeypatch):
        # the sampled drive sees the two arguments tau -+ sigma of each ring, not of each point
        rc = dataclasses.replace(default_config(), signal_kind="sampled", signal_csv=gaussian_pulse_csv(
            tmp_path / "pulse.csv"), surface_nq=24, surface_nphi=16)
        seen = []
        derivs = SampledSignal._derivs
        monkeypatch.setattr(SampledSignal, "_derivs", lambda sig, tau, kmax: seen.append(np.size(tau))
                            or derivs(sig, tau, kmax))
        source_table(source_sweep_rows(rc)[2])
        assert seen == [2 * 24]

    @pytest.mark.parametrize("impulse", [False, True], ids=["sources", "impulse"])
    @pytest.mark.parametrize("budget, edit, widths", [
        pytest.param(5, {"surface_nq": 9, "surface_nphi": 12}, [5, 5, 2], id="odd-nq"),  # a q = 0 ring
        pytest.param(5, {"source": TILTED, "signal_kind": "sampled", "surface_nq": 4, "surface_nphi": 13}, [5, 5, 3],
                     id="sampled-tilted-axis"),
        pytest.param(5, {"signal_kind": "sampled", "surface_nq": 3, "surface_nphi": 5}, [5], id="one-ring-a-block"),
        pytest.param(None, {"surface_nq": 2, "surface_nphi": 4100}, [4096, 4], id="records-per-block"),
    ])
    def test_ring_split_along_phi(self, budget, edit, widths, impulse, tmp_path, monkeypatch):
        # a ring of more azimuths than a block holds comes in azimuth slices of at most RECORDS_PER_BLOCK
        # records, bitwise equal to evaluating every point at once, and its drive is evaluated once
        if budget:
            monkeypatch.setattr(runs, "RECORDS_PER_BLOCK", budget)
        rc = dataclasses.replace(default_config(), **{"signal_n": 2, "pol_im": np.array([0.0, 0.5, 0.0]),
                                                      "surface_alpha": 0.03, **edit})
        if rc.signal_kind == "sampled":
            rc.signal_csv = gaussian_pulse_csv(tmp_path / "pulse.csv")
        seen = []
        derivs = SampledSignal._derivs
        monkeypatch.setattr(SampledSignal, "_derivs", lambda sig, tau, kmax: seen.append(np.size(tau))
                            or derivs(sig, tau, kmax))
        name, header, got, _ = source_sweep_rows(rc, impulse=impulse)
        got = list(got)
        assert [records(block).shape for block in got] == [(1, w, 14) for _ in range(rc.surface_nq) for w in widths]
        assert seen == ([] if impulse or rc.signal_kind != "sampled" else [2] * rc.surface_nq)
        want = flat_source_table(rc, impulse=impulse)
        if edit["surface_nq"] == 9:
            assert 0.0 in want[:, 0]
        assert np.array_equal(source_table(got).view(np.int64), want.view(np.int64))
        assert_same_lines(written_csv(header, got), savetxt_csv(header, want))

    def test_csv_independent_of_the_kernel_chunk(self, tmp_path, monkeypatch):
        # one kernel row per block, the cache-sized block and a 2^19-entry block write the same bytes
        path = tmp_path / "sampled.ini"
        pulse = gaussian_pulse_csv(tmp_path / "pulse.csv", n=2001)
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}")
                        .replace("nq = 8\nnphi = 4", "nq = 33\nnphi = 8"))
        texts = []
        for chunk in (1, signals.KERNEL_CHUNK, 1 << 19):
            monkeypatch.setattr(signals, "KERNEL_CHUNK", chunk)
            out = tmp_path / f"out{chunk}"
            assert cli.main(["sample-sources", "--config", str(path), "--out", str(out)]) == 0
            texts.append((out / "sources.csv").read_bytes())
        assert texts[0].count(b"\n") == 1 + 33 * 8
        assert texts[1] == texts[0] and texts[2] == texts[0]

    @pytest.mark.parametrize("command", ["sample-sources", "impulse-response"])
    def test_branch_circle_refusal_names_a_point_of_its_ring(self, tmp_path, capsys, command):
        # alpha = 1e-9 puts the q = 0 ring of nq = 9 on the branch circle: a mask taken once per ring
        # names that ring's first point, not the point at the ring's own index
        path = tmp_path / "circle.ini"
        path.write_text(CONFIG_TEXT.replace("alpha = 0.02\nnq = 8", "alpha = 1e-9\nnq = 9"))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not list(out.glob("*"))
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message == "field point on the branch circle (p = q = 0): 4 of 36 points refused, first at (1, 0, 0)"

    @pytest.mark.parametrize("command, values", [
        # a Cauchy kernel overflows at a high order
        pytest.param("sample-sources", {"n": "160"}, id="sources-n160"),
        # the impulse coefficients overflow at a huge time, or a huge imaginary time
        pytest.param("impulse-response", {"t": "1e100"}, id="impulse-t1e100"),
        pytest.param("impulse-response", {"b": "1e100"}, id="impulse-b1e100"),
    ])
    def test_non_finite_sources_refused(self, tmp_path, capsys, command, values):
        values = {"n": "1", "alpha": "1", "t": "1.2", "b": "1.5", **values}
        text = ("[source]\na = 0,0,1\nb = {b}\n[signal]\nkind = cauchy\nn = {n}\n"
                "[surface]\nalpha = {alpha}\nt = {t}\n").format(**values)
        path = tmp_path / "huge.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not list(out.glob("*"))
        error = json.loads(capsys.readouterr().err.strip())
        # the flat evaluation finds the same points: 40 rings of 16 azimuths, one block
        rows = flat_source_table(load_config(str(path)), impulse=command == "impulse-response")
        bad = ~np.isfinite(rows).all(axis=1)
        q, phi = rows[np.flatnonzero(bad)[0], :2]
        assert error == {"error": "run", "message": f"surface source not finite at (q, phi): {bad.sum()} of 640 "
                                                    f"points refused, first at ({q:g}, {phi:g})"}
        assert 0 < bad.sum() < 640 if values["n"] == "160" else bad.all()

    def test_underflowing_sources_are_written(self, tmp_path):
        # at a huge alpha inside its bound the sources underflow to 0; the power in the
        # Cauchy kernel overflows first there, and the kernel recomputes it from logarithms
        path = tmp_path / "huge.ini"
        path.write_text("[source]\na = 0,0,1\nb = 1.5\n[signal]\nkind = cauchy\nn = 20\n"
                        "[surface]\nalpha = 1e15\nt = 1.2\n")
        out = tmp_path / "out"
        assert cli.main(["sample-sources", "--config", str(path), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sources.csv", delimiter=",", skiprows=1)
        assert rows.shape == (640, 14) and np.isfinite(rows).all()


def _calls_in_scopes(tree):
    """(qualified name of the enclosing def or class, call node) for every call in tree."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            out.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def _calls_in_defs(tree):
    """(innermost enclosing function def or None, call node) for every call in tree."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((scope, child))
            visit(child, child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, None)
    return out


def _defaulted(fn):
    """{name: position in a call, or None if keyword-only} of fn's defaulted parameters.

    A method's position does not count self or cls; the methods are the defs whose
    first parameter is named self or cls.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = {p.arg: i - skip for i, p in enumerate(positional) if i >= len(positional) - len(args.defaults)}
    out.update((p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return out


def _slow_vector_product(call):
    """True for np.cross(...) and for a sum over axis -1 of a product or power."""
    f = call.func
    if not isinstance(f, ast.Attribute):
        return False
    if f.attr == "cross" and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"):
        return True
    if f.attr != "sum":
        return False
    if isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"):
        summand, axis = (call.args or [None])[0], call.args[1:2]
    else:  # the method form (u * v).sum(axis=-1)
        summand, axis = f.value, call.args[:1]
    axis = axis + [k.value for k in call.keywords if k.arg == "axis"]
    if not axis or ast.unparse(axis[0]) != "-1":
        return False
    return summand is not None and any(
        isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Pow)) for n in ast.walk(summand)
    )


def _central_difference(node):
    """True for a (a - b) / (c * x) with a numeric constant c: a hand-written central difference."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    num, den = node.left, node.right
    return (
        isinstance(num, ast.BinOp) and isinstance(num.op, ast.Sub)
        and isinstance(den, ast.BinOp) and isinstance(den.op, ast.Mult)
        and any(isinstance(x, ast.Constant) and isinstance(x.value, (int, float)) for x in (den.left, den.right))
    )


class TestLayering:
    CORE = ("errors", "geometry", "signals", "scalar_wavelet", "em_fields", "surface_sources")

    @staticmethod
    def _imports(path):
        """Per import statement of the file, the modules it names, each imported name dotted onto its module."""
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                yield [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                yield [a.name for a in node.names]

    def test_core_modules_do_not_import_harness(self):
        pkg = pathlib.Path(emwavelets.__file__).parent
        for name in self.CORE:
            for imported in self._imports(pkg / f"{name}.py"):
                assert not any("harness" in mod.split(".") for mod in imported), (name, imported)
        # nor does the package's __init__ at import time: import emwavelets loads no oracle,
        # and the one name it still resolves from harness.fd is loaded when it is read
        init = ast.parse((pkg / "__init__.py").read_text())
        for node in init.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                assert not any("harness" in mod.split(".") for mod in names), ast.unparse(node)
        code = "import sys, emwavelets; print(sorted(m for m in sys.modules if m.startswith('emwavelets.')))"
        assert "harness" not in self._fresh_interpreter(code)
        assert emwavelets.field_curl_oracle is fd.field_curl_oracle

    def test_writer_imports_no_oracle(self):
        # the CSV writer and its number formatter load none of the validation oracles
        harness = pathlib.Path(emwavelets.__file__).parent / "harness"
        oracles = {"spectral", "fd", "validate", "beam"}
        for name in ("_format", "datasets"):
            for imported in self._imports(harness / f"{name}.py"):
                assert not any(oracles & set(mod.split(".")) for mod in imported), (name, imported)

    def test_one_branch_resolution(self):
        # harness.runs uses the public API only, and the cut sign is resolved inside geometry
        pkg = pathlib.Path(emwavelets.__file__).parent
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                if rel == "harness/runs.py" and isinstance(node, ast.ImportFrom):
                    found += [f"{rel}:{node.lineno} imports {n}" for n in names if n.startswith("_")]
                if rel != "geometry.py":
                    found += [f"{rel}:{node.lineno} uses {n}" for n in names if n == "_sign"]
        assert not found, "resolve the branch with geometry.branch:\n" + "\n".join(found)

    def test_one_jump_route(self):
        # the jump coefficients are taken in ring_jump and assembled in ring_sources only;
        # suite_impulse_response compares the closed forms against the generic coefficients
        takers = {("surface_sources.py", "ring_jump"), ("harness/validate.py", "suite_impulse_response")}
        coefficients = ("tilde_lmn", "impulse_tilde_lmn")
        pkg = pathlib.Path(emwavelets.__file__).parent
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            for scope, node in _calls_in_scopes(ast.parse(path.read_text())):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                where = f"{rel}:{node.lineno} in {scope or '<module>'}: {ast.unparse(node)}"
                if name in coefficients and (rel, scope) not in takers:
                    found.append(where)
                elif name == "assemble" and scope != "ring_sources" and (rel == "surface_sources.py" or any(
                        isinstance(a, ast.Starred) and isinstance(a.value, ast.Call)
                        and getattr(a.value.func, "id", None) in (*coefficients, "ring_jump") for a in node.args)):
                    found.append(where)
        assert not found, "take the jump with ring_jump and assemble it with ring_sources:\n" + "\n".join(found)

    def test_no_propagation_speed(self):
        # units with c = 1: time and b are lengths, so no function takes a speed c and nothing reads
        # one off a SourceConfig (no object in the package has a .c, so every .c read is flagged);
        # SourceConfig.__post_init__ takes its c only to refuse any value but 1
        allowed = {("geometry.py", "SourceConfig.__post_init__")}
        pkg = pathlib.Path(emwavelets.__file__).parent
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            tree = ast.parse(path.read_text())
            methods = {id(fn): f"{cls.name}.{fn.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                       for fn in cls.body if isinstance(fn, ast.FunctionDef)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    if "c" in [p.arg for p in (*args.posonlyargs, *args.args, *args.kwonlyargs)] \
                            and (rel, methods.get(id(node))) not in allowed:
                        found.append(f"{rel}:{node.lineno}: {getattr(node, 'name', 'lambda')} takes a parameter c")
                elif isinstance(node, ast.Attribute) and node.attr == "c":
                    found.append(f"{rel}:{node.lineno}: reads {ast.unparse(node)}")
        assert not found, "time and b are lengths (c = 1); drop the speed:\n" + "\n".join(found)

    def test_battery_gates_the_sign_rule_by_closed_forms(self):
        # continued_sign reduces to the closed-form rule for any chi odd in q, so it
        # cannot catch a wrong rule; it stays in geometry only as a benchmark reference
        tree = ast.parse((pathlib.Path(emwavelets.__file__).parent / "harness" / "validate.py").read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name == "continued_sign"]
            elif isinstance(node, ast.Name) and node.id == "continued_sign":
                found.append(f"{node.lineno}: uses continued_sign")
            elif isinstance(node, ast.Attribute) and node.attr == "continued_sign":
                found.append(f"{node.lineno}: uses {ast.unparse(node)}")
        assert not found, "harness/validate.py:\n" + "\n".join(found)
        assert callable(geometry.continued_sign)

    def test_three_vector_products_use_the_geometry_kernels(self):
        # np.sum over a (..., 3) axis and np.cross are several times slower than the
        # component kernels in geometry, which return the same bits
        allowed = {("geometry.py", "SourceConfig.__post_init__")}  # the one-time transverse basis
        pkg = pathlib.Path(emwavelets.__file__).parent
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            for scope, node in _calls_in_scopes(ast.parse(path.read_text())):
                if (rel, scope) not in allowed and _slow_vector_product(node):
                    found.append(f"{rel}:{node.lineno} in {scope or '<module>'}: {ast.unparse(node)}")
        assert not found, (
            "use geometry._dot(u, v) for np.sum(u * v, axis=-1), geometry._sum3(w) for "
            "np.sum(w, axis=-1) of a product or power, and geometry._cross(u, v) for "
            "np.cross(u, v):\n" + "\n".join(found)
        )

    def test_central_differences_live_in_fd(self):
        # one stencil table: every derivative by differences goes through harness.fd
        pkg = pathlib.Path(emwavelets.__file__).parent
        found = []
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(pkg).as_posix()
            if rel == "harness/fd.py":
                continue
            found += [f"{rel}:{node.lineno}: {ast.unparse(node)}"
                      for node in ast.walk(ast.parse(path.read_text())) if _central_difference(node)]
        assert not found, "use fd.nth_derivative_param or an fd operator:\n" + "\n".join(found)

    def test_one_cli_write_path(self):
        # every writing command streams through one CSV call and one sidecar call, and
        # a refusal keeps its own error class: none is turned into a ConfigError here
        tree = ast.parse((pathlib.Path(emwavelets.__file__).parent / "harness" / "cli.py").read_text())
        calls = [getattr(n.func, "id", None) for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert calls.count("write_csv_atomic") == 1 and calls.count("write_json_sidecar") == 1
        caught = [ast.unparse(n.type) for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler) and n.type]
        assert not [c for c in caught if "ValueError" in c], caught

    def test_cli_import_loads_no_scipy(self):
        # the data commands start without SciPy, and a run on one thread without a thread
        # pool; the oracles import SciPy when they run, grids the pool when it is used
        code = ("import sys, emwavelets.harness.cli; "
                "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')])")
        assert self._fresh_interpreter(code) == "[]"

    @pytest.mark.parametrize("command", ["validate", "beam-profile"])
    def test_command_loads_no_scipy(self, tmp_path, command):
        # the diffraction angle's root finder is beam._brent_root and the spectral tails' E_1 is
        # spectral._exp1_series: a run leaves no SciPy module loaded
        path = tmp_path / "run.ini"
        path.write_text(_readme_example())
        argv = ["validate", "--seed", "1"] if command == "validate" else \
            ["beam-profile", "--config", str(path), "--out", str(tmp_path / "out")]
        code = ("import contextlib, io, sys; from emwavelets.harness import cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()): status = cli.main({argv!r})\n"
                "print(status, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert self._fresh_interpreter(code) == "0 []"

    @staticmethod
    def _absolute_imports():
        """(file:line: statement, top-level module) of every absolute import in the package."""
        pkg = pathlib.Path(emwavelets.__file__).parent
        for path in sorted(pkg.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                where = f"{path.relative_to(pkg).as_posix()}:{node.lineno}: {ast.unparse(node)}"
                yield from ((where, module.split(".")[0]) for module in modules)

    def test_src_imports_no_scipy(self):
        # SciPy is a test extra: brentq, quad and exp1 are oracles of the tests, wofz of the benchmark
        found = [where for where, top in self._absolute_imports() if top == "scipy"]
        assert not found, "\n".join(found)

    def test_src_imports_only_declared_dependencies(self):
        # every third-party module the package imports, at module level or in a function, is a
        # runtime dependency in pyproject.toml, not only a test extra
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text())
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                    for req in pyproject["project"]["dependencies"]}
        found = [where for where, top in self._absolute_imports()
                 if top not in sys.stdlib_module_names and top not in declared | {"emwavelets"}]
        assert not found, f"not declared in {sorted(declared)}:\n" + "\n".join(found)

    def test_spectra_suite_loads_no_scipy_integrate(self):
        # the spectra oracle is double-exponential quadrature in numpy, not QUADPACK callbacks
        code = ("import sys, numpy as np; from emwavelets.harness import validate; "
                "res = validate.suite_spectra(validate.default_config(), np.random.default_rng(1)); "
                "print(res.passed, 'scipy.integrate' in sys.modules)")
        assert self._fresh_interpreter(code) == "True False"

    @staticmethod
    def _fresh_interpreter(code):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(emwavelets.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_exported_names_have_callers(self):
        # code with no caller is deleted: every name in the __all__ of a core or harness
        # module, and every public method and property of a class defined there, is used
        # by the package, a demo or the benchmark, and not only by tests
        kept = {
            "far_point_series": "the far-zone series the far-field tests compare far_field against",
        }
        root = pathlib.Path(__file__).resolve().parents[1]
        pkg = root / "src" / "emwavelets"
        exported = []  # (name, where it is defined)
        for path in [*(pkg / f"{name}.py" for name in self.CORE), *sorted((pkg / "harness").glob("*.py"))]:
            rel = path.relative_to(pkg).as_posix()
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    exported += [(elt.value, f"{rel}: ") for elt in node.value.elts]
                elif isinstance(node, ast.ClassDef):
                    exported += [(item.name, f"{rel}: {node.name}.") for item in node.body
                                 if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        used = set()
        for path in [*(root / "src").rglob("*.py"), *(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        dead = sorted(f"{where}{name}" for name, where in exported if name not in used | kept.keys())
        assert not dead, "exported with no caller outside tests; delete it:\n" + "\n".join(dead)

    def test_optional_parameters_are_passed(self):
        # a defaulted parameter that no call passes is a constant in disguise.  Calls match
        # by the callee's name and count if they pass it by keyword or by position, unless
        # they only forward a defaulted parameter of their own that no call passes.
        kept = {
            **{(suite, size): "a suite's sample size; tests shrink the sizes of its sibling suites"
               for suite, size in [("suite_appendix_identities", "n_points"), ("suite_sigma_algebra", "n_straddle"),
                                   ("suite_impulse_response", "n_points"), ("suite_sources_approx", "n_samples"),
                                   ("suite_analyticity", "n_points")]},
        }
        root = pathlib.Path(__file__).resolve().parents[1]
        defs, calls = [], {}  # calls: callee name -> [(call, enclosing def)]
        for sub in ("src", "demos", "perfbench", "tests"):
            for path in sorted((root / sub).rglob("*.py")):
                tree = ast.parse(path.read_text())
                for scope, node in _calls_in_defs(tree):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append((node, scope))
                if sub == "src":
                    defs += [(path.relative_to(root).as_posix(), fn) for fn in ast.walk(tree)
                             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]

        def passed(fn, param, index, seen):
            if (fn, param) in kept:
                return True
            for call, scope in calls.get(fn, []):
                if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
                    return True  # a **mapping or *sequence may pass anything
                values = [k.value for k in call.keywords if k.arg == param]
                values += call.args[index:index + 1] if index is not None else []
                for value in values:
                    own = _defaulted(scope) if scope is not None else {}
                    if not (isinstance(value, ast.Name) and value.id in own):
                        return True
                    key = (scope.name, value.id)
                    if key not in seen and passed(*key, own[value.id], seen | {key}):
                        return True
            return False

        unpassed = [
            f"{rel}:{fn.lineno} {fn.name}({param})"
            for rel, fn in defs for param, index in _defaulted(fn).items()
            if not passed(fn.name, param, index, {(fn.name, param)})
        ]
        assert not unpassed, "no call passes these; make each a constant:\n" + "\n".join(unpassed)

    def test_annotations_resolve(self):
        # every name an annotation uses is in scope in its module
        for info in pkgutil.walk_packages(emwavelets.__path__, "emwavelets."):
            mod = importlib.import_module(info.name)
            for obj in vars(mod).values():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    members = [obj, *(m for m in vars(obj).values() if inspect.isfunction(m))]
                elif inspect.isfunction(obj):
                    members = [obj]
                else:
                    continue
                for member in members:
                    typing.get_type_hints(member)


class TestDatasets:
    def test_format_round_trip(self, tmp_path):
        vals = [1 / 3, np.pi, 1e-17, -2.5e300]
        path = tmp_path / "vals.csv"
        write_csv_atomic(path, ["v"], table([(v,) for v in vals]))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        for v, read in zip(vals, back):
            assert float(read) == v

    def test_atomic_csv(self, tmp_path):
        path = tmp_path / "sub" / "data.csv"
        assert write_csv_atomic(path, ["a", "b"], table([(1.0, 2.0), (3.0, 4.5)])) == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_json_sidecar(self, tmp_path):
        path = tmp_path / "meta.json"
        write_json_sidecar(path, {"a": np.array([0.0, 0.0, 1.0]), "n": np.int64(4)})
        data = json.loads(path.read_text())
        assert data["a"] == [0.0, 0.0, 1.0]
        assert data["n"] == 4

    def test_files_get_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_csv_atomic(tmp_path / "data.csv", ["a"], table([(1.0,)]))
            write_json_sidecar(tmp_path / "meta.json", {"n": 1})
        finally:
            os.umask(old)
        for name in ("data.csv", "meta.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-17, -2.5e300, 1 / 3]


def savetxt_csv(header, table):
    """The reference bytes: the header line, then np.savetxt at 17 significant digits."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    np.savetxt(buf, table, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def assert_same_lines(got, want):
    """Fail at the first line where two CSV texts differ, naming it and both texts' line counts.

    pytest's own diff of two texts of thousands of lines can run for minutes.
    """
    if got == want:
        return
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    line = lambda lines: lines[first] if first < len(lines) else "<no line>"
    pytest.fail(f"line {first + 1} of {len(got)} differs from line {first + 1} of {len(want)}: "
                f"{line(got)!r} != {line(want)!r}", pytrace=False)


def table(rows):
    """A 2-D table as write_csv's one block of (rows, 1) columns."""
    return [[column[:, None] for column in np.asarray(rows, dtype=np.float64).T]]


def written_csv(header, blocks):
    buf = io.BytesIO()
    count = write_csv(buf, header, blocks)
    text = buf.getvalue().decode("ascii")
    assert count == text.count("\n") - 1
    return text


def sweep_like_block(rng, n_outer, n_inner):
    """(header, block) of columns shaped as a sweep's are, drawn from SPECIAL and random values.

    per outer item, per inner item, one value (1, 1), per record, per outer
    item, per record with one -0.0 among zeros, and per record.
    """
    pool = np.concatenate([SPECIAL, rng.normal(size=6)])
    shape = (n_outer, n_inner)
    flipped = np.zeros(shape)
    if flipped.size:
        flipped[-1, -1] = -0.0
    block = [
        rng.choice(pool, (n_outer, 1)),
        rng.choice(pool, (1, n_inner)),
        np.full((1, 1), -0.0),
        rng.choice(pool, shape),
        rng.choice(pool, (n_outer, 1)),
        flipped,
        rng.choice(pool, shape),
    ]
    return named(block), block


def named(block):
    """A header of columns c0, c1, ..., one per column of block."""
    return [f"c{i}" for i in range(len(block))]


def column_mix_block(rng, n_outer, n_inner, n_per_record):
    """sweep_like_block's (header, block) with n_per_record >= 2 columns that vary per record.

    sweep_like_block has three, its columns 3, 5 and 6: column 3 goes for
    two, and columns drawn from SPECIAL and random values join for more.
    The others are two per outer item, one per inner item and one (1, 1).
    """
    _, block = sweep_like_block(rng, n_outer, n_inner)
    if n_per_record == 2:
        del block[3]
    else:
        pool = np.concatenate([SPECIAL, rng.normal(size=6)])
        block += [rng.choice(pool, (n_outer, n_inner)) for _ in range(n_per_record - 3)]
    return named(block), block


def split_outer(block, at):
    """block cut along its outer axis before each index of at, as field_rows' last block is cut short."""
    n_outer = len(records(block))
    bounds = [0, *at, n_outer]
    return [[c[lo:hi] if len(c) == n_outer else c for c in block] for lo, hi in zip(bounds, bounds[1:])]


def outer_per_call(n_per_record, n_inner=7):
    """Outer items of n_inner records that one format17 call takes, for a column_mix_block."""
    return (VALUE_BUDGET - 1 - n_inner) // (2 + n_inner * n_per_record)


def inner_per_call(n_per_record):
    """Records of one outer item that one format17 call takes, for a column_mix_block."""
    return (VALUE_BUDGET - 3) // (1 + n_per_record)


class TestCsvParity:
    def test_special_values(self):
        column = np.array(SPECIAL)[:, None]
        assert_same_lines(written_csv(["v"], table(column)), savetxt_csv(["v"], column))
        square = np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T
        assert_same_lines(written_csv(["a", "b"], table(square)), savetxt_csv(["a", "b"], square))

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1), (1, 9), (9, 1), (0, 9),
            # at, one past and well past one format17 call, along each axis
            (outer_per_call(2), 7), (outer_per_call(2) + 1, 7), (outer_per_call(6) + 1, 7),
            (2 * outer_per_call(6) + 5, 7), (3, inner_per_call(6) + 1), (2, 2 * inner_per_call(2) + 1),
        ],
    )
    def test_blocks(self, shape):
        # a psi-like and an F-like column mix: 2 and 6 columns per record
        for n_per_record in (2, 6):
            header, block = column_mix_block(np.random.default_rng(sum(shape)), *shape, n_per_record)
            rows = records(block).reshape(-1, len(block))
            expected = savetxt_csv(header, rows)
            assert_same_lines(written_csv(header, [block]), expected)
            assert_same_lines(written_csv(header, table(rows)), expected)
            # streamed in uneven pieces along the outer axis, as field_rows' last block is
            assert_same_lines(written_csv(header, iter(split_outer(block, [1, 3 + shape[0] // 2]))), expected)

    def test_nested_list_columns(self):
        # a column is anything np.asarray makes a 2-D array of, and a block a list or tuple of them
        rows = [(1.0, -0.0, 2), (1.0, 0.0, 3), (np.nan, 1 / 3, -2.5e300)]
        block = ([[1.0], [1.0], [np.nan]], [[-0.0], [0.0], [1 / 3]], [[2], [3], [-2.5e300]])
        assert_same_lines(written_csv(["a", "b", "c"], [block]), savetxt_csv(["a", "b", "c"], rows))
        assert_same_lines(written_csv(["a"], [[[[1, 2, 3]]]]), savetxt_csv(["a"], [[1.0], [2.0], [3.0]]))

    def test_rejects_other_blocks(self):
        # a 3-D array, the blocks of an older writer, would write rows of wrong values; it is refused
        old = np.arange(8.0).reshape(2, 2, 2)
        for block in [old, [np.zeros(2), np.zeros((2, 1))], [np.zeros((2, 1, 1)), np.zeros((2, 1))],
                      [np.zeros((2, 1)), np.zeros((3, 1))], [np.zeros((2, 3)), np.zeros((3, 2))]]:
            with pytest.raises(ValueError):
                write_csv(io.BytesIO(), ["a", "b"], [block])

    def test_rejects_a_header_that_does_not_fit(self):
        with pytest.raises(ValueError, match="a block of 2 columns under a header of 1"):
            write_csv(io.BytesIO(), ["v"], [[np.zeros((2, 1)), np.zeros((2, 1))]])

    def test_columns_are_formatted_at_their_shape(self, monkeypatch):
        # a column's text is formatted once at its shape and broadcast into the records
        block = [np.array([[0.0], [12.0]]), np.array([[1.0, 5.0, 9.0]]),
                 np.arange(2.0, 24.0, 4).reshape(2, 3), np.arange(3.0, 24.0, 4).reshape(2, 3)]
        calls = []
        monkeypatch.setattr(datasets, "format17", lambda x: calls.append(x.size) or _format.format17(x))
        header = ["o", "i", "r", "s"]
        assert_same_lines(written_csv(header, [block]), savetxt_csv(header, records(block).reshape(-1, 4)))
        assert calls == [2 + 3 + 12]

    def test_writer_memory_bounded(self):
        class Sink:
            def write(self, text):
                pass

        def peak(header, block):
            tracemalloc.start()
            try:
                write_csv(Sink(), header, [block])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def field_like_block(n_points, n_times, n_values):
            # x, y, z, sigma and the cut sign per point, t per time slice, the field per record
            rng = np.random.default_rng(0)
            per_point = list(rng.normal(size=(6, n_points, 1)))
            t = np.linspace(1.0, 2.0, n_times)[None, :]
            return per_point[:3] + [t] + per_point[3:] + list(rng.normal(size=(n_values, n_points, n_times)))

        def f_block(n_points, n_times=10):
            return field_like_block(n_points, n_times, 6)

        def psi_block(n_points, n_times=10):
            return field_like_block(n_points, n_times, 2)

        def source_block(n_rows, n_phi=32):
            # a sample-sources block: q and a 0/1 flag per ring, phi per azimuth, the rest per record
            rng = np.random.default_rng(0)
            n_rings = n_rows // n_phi
            q = rng.normal(size=(n_rings, 1))
            phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)[None, :]
            flag = rng.integers(0, 2, (n_rings, 1)).astype(float)
            return [q, phi, *rng.normal(size=(11, n_rings, n_phi)), flag]

        for header, make, sizes in [
            (FIELD_HEADER_F, f_block, (1_000, 10_000)),
            (FIELD_HEADER_PSI, psi_block, (1_000, 10_000)),
            (SOURCE_HEADER, source_block, (2_560, 10_240)),
        ]:
            small, large = (peak(header, make(n)) for n in sizes)
            assert large <= 1.1 * small, header
            assert large < 2 * 2**20, header

    @pytest.mark.parametrize("quantity, most", [("psi", 1), ("F", 2)])
    def test_format_calls_per_field_block(self, quantity, most, monkeypatch):
        # one 2,048-record field block, 256 points x 8 times: psi formats 5,640 values, F 13,832;
        # at 512 records a call it took 4 calls
        grid = {
            "x": AxisSpec(-1.45, 1.55, 16),
            "y": AxisSpec(0.03, 0.03, 1),
            "z": AxisSpec(-0.47, 0.61, 16),
            "t": AxisSpec(0.5, 2.5, 8),
        }
        blocks = list(field_rows(upper_spheroid_config(quantity, grid)))
        assert [records(block).shape[:2] for block in blocks] == [(256, 8)]
        calls = []
        monkeypatch.setattr(datasets, "format17", lambda x: calls.append(x.size) or _format.format17(x))
        header = FIELD_HEADER_PSI if quantity == "psi" else FIELD_HEADER_F
        assert_same_lines(written_csv(header, blocks), savetxt_csv(header, records(blocks[0]).reshape(-1, len(header))))
        assert 1 <= len(calls) <= most

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_memory_bounded(self, threads):
        # field_rows' blocks stream into the writer, so a 4x larger grid takes no more memory;
        # a sweep gathered into one block before writing peaked at 13.0 and 52.1 MiB here
        class Sink:
            def write(self, text):
                pass

        def peak(nz):
            axes = {"x": AxisSpec(-2.0, 2.0, 41), "z": AxisSpec(0.5, 2.5, nz), "t": AxisSpec(1.0, 3.0, 7)}
            rc = dataclasses.replace(default_config(), grid=axes)
            tracemalloc.start()
            try:
                write_csv(Sink(), FIELD_HEADER_F, field_rows(rc, threads))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(225), peak(900)  # 9,225 and 36,900 points
        assert large <= 1.1 * small

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_sweep_memory_flat_in_time(self, quantity):
        # one point's time axis is split like a ring's azimuths, so 4x the slices take no more memory than
        # the larger axis's own 1 MiB; one block of every slice traced 6.0 and 23.3 MiB for F
        class Sink:
            def write(self, text):
                pass

        def peak(n_times):
            axes = {"x": AxisSpec(1.0, 1.0, 1), "z": AxisSpec(1.5, 1.5, 1), "t": AxisSpec(1.0, 3.0, n_times)}
            rc = dataclasses.replace(default_config(), grid=axes, quantity=quantity)
            header = FIELD_HEADER_PSI if quantity == "psi" else FIELD_HEADER_F
            tracemalloc.start()
            try:
                write_csv(Sink(), header, field_rows(rc))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(32_768), peak(131_072)
        assert large <= 1.1 * small + 131_072 * 8

    @pytest.mark.parametrize("impulse", [False, True], ids=["sample-sources", "impulse-response"])
    @pytest.mark.parametrize("small, large", [
        # 16 azimuths: 2 and 8 blocks of whole rings; the sweep as one table before writing peaked at 3.5
        # and 13.7 MiB
        pytest.param((512, 16), (2048, 16), id="nq"),
        # one ring each, split into 2 and 8 azimuth blocks; one whole-ring block peaked at 2.8 and 10.9 MiB
        pytest.param((1, 8192), (1, 32768), id="nphi"),
    ])
    def test_source_sweep_memory_bounded(self, impulse, small, large):
        # source_sweep_rows' blocks stream into the writer, so 4x the rings, or 4x the azimuths of a ring,
        # take no more memory: 2.2 MiB traced, and 2.4 MiB at 32,768 azimuths, whose axis alone is 0.25 MiB
        class Sink:
            def write(self, text):
                pass

        def peak(nq, nphi):
            rc = dataclasses.replace(default_config(), surface_nq=nq, surface_nphi=nphi)
            tracemalloc.start()
            try:
                name, header, blocks, _ = source_sweep_rows(rc, impulse=impulse)
                write_csv(Sink(), header, blocks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(*small), peak(*large)  # 8,192 and 32,768 records
        assert large <= 1.1 * small

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_sample_field_matches_reference(self, tmp_path, quantity):
        # the TestFieldRows grid: two blocks, several writer chunks, records straddling the membrane
        path = tmp_path / "field.ini"
        path.write_text(
            "[source]\na = 0,0,1\nb = 1.5\n"
            "[cut]\nkind = upper_spheroid\nalpha = 0.1\n"
            "[signal]\nkind = cauchy\nn = 2\n"
            "[polarization]\nre = 1,0,0\nim = 0,0.5,0\n"
            "[grid]\nx = -1.45,1.55,7\ny = 0.03,0.03,1\nz = -0.47,0.61,10\nt = 0.5,2.5,170\n"
            f"[output]\nquantity = {quantity}\n"
        )
        out = tmp_path / "out"
        assert cli.main(["sample-field", "--config", str(path), "--out", str(out)]) == 0
        rows = field_block(load_config(str(path)))
        header = FIELD_HEADER_PSI if quantity == "psi" else FIELD_HEADER_F
        assert_same_lines((out / "field.csv").read_text(), savetxt_csv(header, rows.reshape(-1, rows.shape[-1])))
        assert json.loads((out / "field.json").read_text())["records"] == 70 * 170

    def test_sample_sources_matches_reference(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["sample-sources", "--config", config_file, "--out", str(out)]) == 0
        name, header, blocks, _ = source_sweep_rows(load_config(config_file))
        assert (name, header) == ("sources", SOURCE_HEADER)
        assert_same_lines((out / "sources.csv").read_text(), savetxt_csv(SOURCE_HEADER, source_table(blocks)))


def column_shapes(header, blocks, outer, inner):
    """The (outer, inner) size of each block, after checking each column's shape against what it repeats over.

    A column in outer must be (n_outer, 1), one in inner (1, n_inner) and
    every other one (n_outer, n_inner): a per-point value broadcast into
    every record would write the same bytes but format each record's copy.
    """
    sizes = []
    for block in blocks:
        assert len(block) == len(header)
        n_outer, n_inner = np.broadcast_shapes(*(np.shape(c) for c in block))
        for name, column in zip(header, block):
            want = (n_outer, 1) if name in outer else (1, n_inner) if name in inner else (n_outer, n_inner)
            assert np.shape(column) == want, name
        sizes.append((n_outer, n_inner))
    return sizes


class TestColumnShapes:
    GRID = {
        "x": AxisSpec(-1.45, 1.55, 15),
        "y": AxisSpec(0.03, 0.2, 2),
        "z": AxisSpec(-0.47, 0.61, 280),  # 8,400 points: two blocks at one time slice, ten at nine
    }

    @pytest.mark.parametrize("n_times", [1, 9])
    @pytest.mark.parametrize("quantity", ["psi", "F"])
    @pytest.mark.parametrize("cut", ["flat_disk", "upper_spheroid", "lower_spheroid", "smooth_spheroid"])
    def test_field_sweep_columns_repeat_per_point_and_per_time(self, cut, quantity, n_times):
        t = AxisSpec(1.0, 1.0, 1) if n_times == 1 else AxisSpec(0.5, 2.5, n_times)
        rc = dataclasses.replace(upper_spheroid_config(quantity, {**self.GRID, "t": t}), cut_kind=cut)
        name, header, blocks, sidecar = cli.DATASETS["sample-field"][0](rc, 1)
        assert header is (FIELD_HEADER_PSI if quantity == "psi" else FIELD_HEADER_F)
        assert header == sidecar(0)["columns"]
        sizes = column_shapes(header, blocks, {"x", "y", "z", "re_sigma", "im_sigma", "cut_sign"}, {"t"})
        assert len(sizes) == (2 if n_times == 1 else 10)
        assert sum(n for n, _ in sizes) == 8_400 and {k for _, k in sizes} == {n_times}

    @pytest.mark.parametrize("command", ["sample-sources", "impulse-response"])
    def test_source_columns_repeat_per_ring_and_per_azimuth(self, command, config_file):
        # 315 rings of 13 azimuths a block: 601 rings make two blocks
        rc = dataclasses.replace(load_config(config_file), surface_nq=601, surface_nphi=13)
        name, header, blocks, sidecar = cli.DATASETS[command][0](rc, 1)
        assert header is SOURCE_HEADER and header == sidecar(0)["columns"]
        blocks = list(blocks)
        assert column_shapes(header, blocks, {"q", "in_rim_band"}, {"phi"}) == [(315, 13), (286, 13)]
        assert set(np.unique(blocks[0][-1])) == {0.0, 1.0}  # the first block reaches the rim band

    @pytest.mark.parametrize("command", ["beam-profile"])
    def test_tables_are_columns_of_one_record_each(self, command, config_file):
        name, header, blocks, sidecar = cli.DATASETS[command][0](load_config(config_file), 1)
        assert column_shapes(header, blocks, set(header), set()) == [(13, 1)]

    def test_determinism_suite_writes_the_field_header(self, monkeypatch):
        headers = []
        write = validate_mod.write_csv
        monkeypatch.setattr(validate_mod, "write_csv", lambda fh, header, blocks: headers.append(header)
                            or write(fh, header, blocks))
        assert validate_mod.suite_determinism(default_config(), None).passed
        assert headers == [FIELD_HEADER_F, FIELD_HEADER_F] and headers[0] is FIELD_HEADER_F


def format17_text(values):
    """The text format17 gives each value, its rows without their NULs."""
    rows = _format.format17(np.asarray(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def percent_text(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def exact_ties():
    """m 2^-n whose exact decimal has 18 significant digits, the last a 5: 17-digit ties."""
    ties = []
    for n in range(1, 60):
        lo, hi = -(-10**17 // 5**n), min((10**18 - 1) // 5**n, 2**53 - 1)
        for m in (lo, (lo + hi) // 2, hi):
            m -= 1 - m % 2  # odd, so m 5^n ends in 5
            if m >= lo and len(str(m * 5**n)) == 18:
                ties.append(m * 2.0**-n)
    return ties


def near_ties():
    """n 2^s with y = n 2^s / 10^K at 2^(K-1) from a half: doubles next to 17-digit ties."""
    out = []
    for K in range(12, 41):
        s = int((K + 16.5) * np.log2(10)) - 52
        for t in (10**K // 2 - 2 ** (K - 1), 10**K // 2 + 2 ** (K - 1)):
            n = (t >> K) * pow(2 ** (s - K), -1, 5**K) % 5**K  # n 2^s = t mod 10^K
            n += max(0, -(-(2**52 - n) // 5**K)) * 5**K
            if n < 2**53 and len(str(n << s)) == K + 17:
                out.append(float(n << s))
    return out


class TestFormat17:
    def test_edge_values(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        ties = exact_ties() + near_ties()
        assert len(ties) > 60
        nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
        edges = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            ties,
            np.nextafter([1e-4, 1e16, 1e17], 0.0),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            nan_bits.view(np.float64),
        ])
        values = np.concatenate([edges, -edges])
        assert format17_text(values) == percent_text(values)

    def test_fast_path_formats_every_finite_normal_value(self, monkeypatch):
        # the per-value fallback runs for NaN, infinities and out-of-range magnitudes only
        seen = []

        def counted(v):
            seen.append(v)
            return "%.17g" % v

        monkeypatch.setattr(_format, "_fallback", counted)
        header, block = sweep_like_block(np.random.default_rng(3), 40, 13)
        assert written_csv(header, [block]) == savetxt_csv(header, records(block).reshape(-1, len(block)))
        flat = np.concatenate([c.ravel() for c in block])
        special = ~((flat == 0.0) | ((np.abs(flat) >= 1e-280) & (np.abs(flat) <= 1e280)))
        bits = lambda values: set(np.asarray(values, dtype=np.float64).view(np.int64).tolist())
        assert seen and bits(seen) == bits(flat[special])
        assert bits(seen).isdisjoint(bits(flat[~special]))

    def test_every_layout_class(self, monkeypatch):
        # a text's layout is set by its notation (E for -4 <= E <= 16, else d.ddde+XX), its
        # significant digits and its sign: 22 x 17 x 2 classes, each pinned by one value here
        def layout_class(v):
            digits, exponent = ("%.16e" % abs(v)).split("e")
            e = int(exponent)
            return (e if -4 <= e <= 16 else "exp", len(digits.replace(".", "").rstrip("0")) or 1, v < 0)

        def near_tie(v):  # its 17-digit rounding goes to the per-value fallback
            y = fractions.Fraction(abs(v)) * fractions.Fraction(10) ** (16 - int(("%.16e" % v).split("e")[1]))
            return abs(y - math.floor(y) - fractions.Fraction(1, 2)) < 1e-6

        rng = np.random.default_rng(7)
        found = {}
        for notation in [*range(-4, 17), "exp"]:
            for n in range(1, 18):
                for negative in (False, True):
                    target = (notation, n, negative)
                    for _ in range(3000):
                        mantissa = int(rng.integers(10 ** (n - 1), 10**n)) // 10 * 10 + int(rng.integers(1, 10))
                        e = notation if notation != "exp" else int(rng.choice([-1, 1]) * rng.integers(17, 280))
                        v = float(f"{'-' if negative else ''}{mantissa}e{e - n + 1}")
                        if layout_class(v) == target and not near_tie(v):
                            found[target] = v
                            break
        assert len(found) == 22 * 17 * 2
        values = list(found.values())
        monkeypatch.setattr(_format, "_fallback", lambda v: pytest.fail(f"{v!r} left the fast path"))
        assert format17_text(values) == percent_text(values)

    def test_exact_product_is_exact(self):
        # p + e = a b with no rounding, on format17's scalings and on _chirp_z's phases
        rng = np.random.default_rng(8)
        a = rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(-280, 280, 2000)
        hi = _format._powers()[0]
        b = hi[_format._SPAN + 16 - np.floor(np.log10(a)).astype(int)]
        rate = rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-7.0, 0.0, 2000)
        m = rng.integers(0, 2000, 2000).astype(float) ** 2
        for x, y in [(a, b), (rate, m), (rate * 1e6, rng.uniform(-1.0, 1.0, 2000))]:
            p, e = _format._exact_product(x, y)
            assert np.all(np.abs(e) <= np.spacing(np.abs(p)))
            for xi, yi, pi, ei in zip(x.tolist(), y.tolist(), p.tolist(), e.tolist()):
                assert fractions.Fraction(pi) + fractions.Fraction(ei) == fractions.Fraction(xi) * fractions.Fraction(yi)

    def test_uint64_shift_by_64_is_zero(self):
        # _format's tables drop a word from a row by shifting it 64 bits or more, which numpy defines as 0
        words = np.array([1, 0xFF, 2**63, 2**64 - 1], dtype=np.uint64)
        for n in (64, 65, 120, 184):
            for count in (np.uint64(n), np.full(words.size, n, dtype=np.uint64)):
                assert not np.any(words << count) and not np.any(words >> count)
        assert not np.any(np.uint64(2**64 - 1) >> np.full(3, 64, dtype=np.uint64))


def qawf_fourier(f, omegas):
    """int e^{i omega t} f(t) dt by QUADPACK: QAWF (weights cos and sin) on f(t) +- f(-t), plain quad at 0.

    The reference for de_fourier.  At epsabs = 1e-14 QAWF reports roundoff
    while still agreeing with the closed form to ~1e-13 of the peak, so its
    IntegrationWarning is ignored.
    """
    from scipy.integrate import IntegrationWarning, quad

    def part(g, w, weight):
        kw = dict(weight=weight, wvar=abs(w)) if w != 0.0 else {}
        re, im = (quad(lambda t: c(g(t)), 0.0, np.inf, epsabs=1e-14, limit=400, **kw)[0] for c in (np.real, np.imag))
        return complex(re, im)

    even = lambda t: f(np.array([t, -t])).sum()
    odd = lambda t: np.subtract(*f(np.array([t, -t])))
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for w in omegas:
            sine = part(odd, w, "sin") if w != 0.0 else 0.0
            out.append(part(even, w, "cos") + 1j * np.sign(w) * sine)
    return np.array(out)


class TestSpectralOracles:
    def test_routes_agree(self):
        om = np.linspace(0.3, 8.0, 9)
        sig = CauchySignal(3)
        slow = de_fourier(lambda t: sig.eval(np.asarray(t) - 1.2j), om)
        fast = cauchy_series_transform({3: 1.0}, 1.2j, om)
        assert np.abs(slow - fast).max() < 1e-11 * np.abs(slow).max()

    @pytest.mark.parametrize("b", [0.3, 1.2, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_de_fourier_matches_quadpack(self, n, b):
        om = np.array([-6.0, -1.5, -0.4, 0.0, 0.4, 1.0, 2.5, 6.0, 12.0]) / b
        sig = CauchySignal(n)
        f = lambda t: sig.eval(np.asarray(t) - 1j * b)
        got, ref = de_fourier(f, om), qawf_fourier(f, om)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
        exact = spectrum_cauchy(n, om, b)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    def test_de_fourier_calls_f_a_few_times_on_paired_nodes(self):
        # the spectra suite's grid for n = 1: one call per rule for omega = 0 and one for
        # the other 20 frequencies, each on an array [t, -t]
        b = 1.5
        sig = CauchySignal(1)
        om = np.linspace(0.0, 10.0 / b, 21)
        calls = []

        def f(t):
            calls.append(np.array(t))
            return sig.eval(np.asarray(t) - 1j * b)

        got = de_fourier(f, om)
        assert len(calls) == 2 * len(DE_STEPS)
        for c in calls:
            half = c.size // 2
            assert c.ndim == 1 and c.size == 2 * half and np.array_equal(c[half:], -c[:half])
        exact = spectrum_cauchy(1, om, b)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    def test_de_fourier_passes_a_vanishing_transform(self):
        # C_3(t + 1.2i) carries only negative frequencies: at omega > 0 the rules agree to rounding
        sig = CauchySignal(3)
        got = de_fourier(lambda t: sig.eval(np.asarray(t) + 1.2j), np.linspace(0.5, 8.0, 16))
        assert np.abs(got).max() < 1e-15

    def test_spectra_suite_fails_on_a_flipped_sine_part(self, monkeypatch):
        paired = spectral._paired

        def flipped(f, t):
            even, odd = paired(f, t)
            return even, -odd

        monkeypatch.setattr(spectral, "_paired", flipped)
        res = suite_spectra(default_config(), np.random.default_rng(1))
        assert not res.passed and res.measured > 0.99

    @pytest.mark.parametrize(
        "f, omegas",
        [
            (lambda t: CauchySignal(1).eval(np.asarray(t) - 1e-4j), np.linspace(0.5, 10.0, 20)),  # pole by the axis
            (lambda t: CauchySignal(1).eval(np.asarray(t) - 1e-4j), np.array([0.0])),
            (lambda t: np.ones(np.shape(t), dtype=complex), np.linspace(0.0, 10.0, 21)),  # no decay
            (lambda t: 1.0 / (1.0 + np.abs(t)) + 0j, np.array([0.0, 1.0])),  # not integrable
        ],
        ids=["pole-1e-4", "pole-1e-4-zero-frequency", "constant", "one-over-t"],
    )
    def test_de_fourier_refuses_what_does_not_converge(self, f, omegas):
        with pytest.raises(QuadratureDivergenceError, match="did not converge at omega = "):
            de_fourier(f, omegas)

    def test_zero_frequency_convention(self):
        val = cauchy_series_transform({1: 1.0}, 1.0j, np.array([0.0]))
        assert val[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "omegas, m",
        [
            (np.linspace(0.3, 8.0, 50), 301),  # ascending
            (np.linspace(8.0, 0.3, 50), 301),  # descending
            (np.array([2.5]), 55),  # a single frequency
            (np.linspace(-2.0, 2.0, 41), 77),  # through omega = 0
            (np.linspace(-9.0, -1.0, 20), 11),  # all negative
            (np.linspace(1.0, 60.0, 7), 5001),  # M > N, phases of ~1e6 rad in the chirps
            (np.linspace(0.0, 5.0, 300), 31),  # M < N
        ],
    )
    def test_chirp_z_matches_dense_sum(self, rng, omegas, m):
        fw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        t0, dt = -3.7, 0.013
        ts = t0 + dt * np.arange(m)
        dense = np.exp(1j * omegas[:, None] * ts) @ fw
        assert np.abs(_chirp_z(fw, t0, dt, omegas) - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_uneven_grid_refused(self):
        with pytest.raises(ValueError, match="evenly spaced"):
            cauchy_series_transform({2: 1.0}, 1.0j, np.geomspace(0.1, 10.0, 30))

    def test_high_order_tails_do_not_cancel(self):
        # n = 16 on the beam-diagnostics window: the exact tails keep the
        # Simpson core's accuracy up to omega ~ 60, where the spectrum is ~1e-10 of its peak
        n, b = 16, 1.01
        om = spectral_window(n, b)
        exact = spectrum_cauchy(n, om, b)
        got = cauchy_series_transform({n: 1.0}, 1j * b, om)
        assert np.abs(got - exact).max() <= 1e-10 * np.abs(exact).max()

    @staticmethod
    def _lentz_full_length(n, x):
        """e^x E_n(x) by the modified Lentz fraction over all entries until the last converges."""
        b = x + n
        c = np.full_like(b, 1e300)
        d = 1.0 / b
        h = d.copy()
        done = np.zeros(x.shape, dtype=bool)
        for i in range(1, spectral.EXPINT_TERMS + 1):
            an = -i * (n - 1 + i)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = c * d
            h = np.where(done, h, h * delta)
            done |= np.abs(delta - 1.0) <= spectral.EXPINT_TOL
            if done.all():
                return h
        raise AssertionError("the reference fraction did not converge")

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_expint_fraction_keeps_the_bits_of_the_full_length_loop(self, n):
        # entries converge at different steps, so they leave the compacted loop at different steps
        mags = np.geomspace(1.0, 1e3, 37)
        args = np.pi * np.array([-0.85, -0.5, -0.25, 0.0, 0.1, 0.5, 0.85])
        x = (mags[:, None] * np.exp(1j * args)).ravel()
        got = spectral._expint_fraction(n, x)
        want = self._lentz_full_length(n, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert spectral._expint_fraction(n, x[:0]).shape == (0,)

    def test_expint_fraction_refuses_what_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(spectral, "EXPINT_TERMS", 3)
        with pytest.raises(QuadratureDivergenceError, match=r"E_2 .* did not converge in 3 terms at x = 1\+1j"):
            spectral._expint_fraction(2, np.array([1.0 + 1.0j, 50.0 - 2.0j]))

    def test_expint_fraction_converges_on_its_documented_domain(self):
        x = (np.logspace(0, 6, 61)[:, None] * np.exp(1j * np.pi * np.linspace(-0.85, 0.85, 35))).ravel()
        for n in (1, 2, 4, 16, 64):
            assert np.isfinite(spectral._expint_fraction(n, x)).all()

    def test_exp1_series_matches_mpmath(self, rng):
        # the unit disk, the decades 1e-12..1e-3 where -gamma - log x dominates, both axes and the
        # branch cut approached from above
        mp = pytest.importorskip("mpmath")
        radius = np.concatenate([np.sqrt(rng.random(400)), np.geomspace(1e-12, 1e-3, 100), [0.999999, 0.5, 1e-8]])
        x = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, radius.size))
        x = np.concatenate([x, radius[-3:], -radius[-3:] + 0j, 1j * radius[-3:], -1j * radius[-3:]])
        got = spectral._exp1_series(x)
        with mp.workdps(40):
            rel = [abs(mp.mpc(g) - (e := mp.e1(mp.mpc(v)))) / abs(e) for g, v in zip(got, x)]
        assert float(max(rel)) <= 4e-15
        assert spectral._exp1_series(x[:0]).shape == (0,)

    def test_transform_keeps_the_bits_of_scipy_exp1(self, monkeypatch):
        # a pin: with scipy.special.exp1 (a test oracle) in place of the series, every transform
        # of the beam windows and of the spectra suite keeps its bits
        from scipy.special import exp1

        calls = [({n: 1.0}, 1j * b, spectral_window(n, b)) for n in (1, 2, 4, 8, 16) for b in (1.01, 1.5, 3.0)]
        with monkeypatch.context() as m:
            m.setattr(validate_mod, "cauchy_series_transform",
                      lambda *args: calls.append(args) or cauchy_series_transform(*args))
            assert suite_spectra(default_config(), np.random.default_rng(1)).passed
        assert len(calls) == 15 + 3
        series = [cauchy_series_transform(*args) for args in calls]
        seen = []
        monkeypatch.setattr(spectral, "_exp1_series", lambda x: seen.append(x.size) or exp1(x))
        oracle = [cauchy_series_transform(*args) for args in calls]
        assert sum(seen) >= 30  # each beam window's two tails reach |x| < 1
        assert [got.tobytes() for got in series] == [want.tobytes() for want in oracle]

    def test_expint_of_order_one_at_zero_is_refused(self):
        # E_1 diverges at 0; E_n(0) = 1/(n - 1) for n >= 2
        with pytest.raises(QuadratureDivergenceError, match=r"e\^x E_1\(x\) diverges at x = 0\+0j"):
            spectral._scaled_expint(1, np.array([0.5j, 0j, 2.0]))
        assert spectral._scaled_expint(3, np.array([0j]))[0] == 0.5

    @pytest.mark.parametrize("n", [1, 2])
    def test_expint_near_the_negative_real_axis_is_refused(self, n):
        x = np.array([3.0 + 0.0j, 2.0 * np.exp(0.99j * np.pi), 5.0 * np.exp(-0.99j * np.pi)])
        first = f"{x[1]:.17g}".replace("+", "\\+").replace("(", "").replace(")", "")
        with pytest.raises(QuadratureDivergenceError, match=rf"E_{n} .* at x = {first} \(2 of 3 arguments\)"):
            spectral._scaled_expint(n, x)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_one_expint_call_keeps_the_bits_of_one_call_per_tail(self, n, monkeypatch):
        # each order's two tails go to one call, on the concatenated -i omega z_r and +i omega z_l
        expint = spectral._scaled_expint
        seen = []
        monkeypatch.setattr(spectral, "_scaled_expint", lambda m, x: seen.append((m, x)) or expint(m, x))
        for b in (1.01, 1.5):
            cauchy_series_transform({n: 1.0}, 1j * b, spectral_window(n, b))
        assert [m for m, _ in seen] == [n, n]
        for _, x in seen:
            x_r, x_l = np.split(x, 2)
            assert np.all(x_r.imag < 0.0) and np.all(x_l.imag > 0.0)
            assert (np.abs(x) < 1.0).any() and (np.abs(x) >= 1.0).any()  # both the series and the fraction
            joint, apart = expint(n, x), np.concatenate([expint(n, x_r), expint(n, x_l)])
            assert joint.tobytes() == apart.tobytes()


class TestBeamMeasurement:
    def test_measured_duration_matches_local_scale(self, cfg):
        # FWHM inversion recovers |b - q| essentially exactly
        from emwavelets.geometry import complex_distance_principal

        theta, R = 0.7, 1000.0
        r = far_point(cfg, theta, R)
        _, _, q = complex_distance_principal(r, cfg)
        T, M = measure_pulse(CauchySignal(4), cfg, theta, R)
        assert T == pytest.approx(abs(cfg.b - q), rel=1e-4)

    def test_predicted_duration_within_tolerance(self, cfg):
        T, _ = measure_pulse(CauchySignal(1), cfg, 0.0, 1000.0)
        assert T == pytest.approx(0.5, rel=0.05)

    @staticmethod
    def _walk(vals, i, half):
        """The half crossings by a walk out from the peak, one sample at a time."""
        lo = i
        while lo > 0 and vals[lo] > half:
            lo -= 1
        hi = i
        while hi < len(vals) - 1 and vals[hi] > half:
            hi += 1
        return lo, hi

    def test_half_crossings_are_the_walks(self, monkeypatch):
        # the 24 arcs of the battery's beam_profile_rows, and series that never drop to half
        # on one side, hold a NaN or vanish
        crossings = beam._half_crossings
        seen = []
        monkeypatch.setattr(beam, "_half_crossings", lambda *args: seen.append(args) or crossings(*args))
        cfg0 = default_config().source
        a = cfg0.a_mag
        for n in (1, 4, 16):
            for b in (1.01 * a, 1.5 * a):
                cfg = SourceConfig(a=cfg0.a, b=b)
                beam.beam_profile_rows(n, cfg, [0.0, np.pi / 3, 2 * np.pi / 3, np.pi], R=beam.R_FACTOR * a)
        assert len(seen) == 24
        ramp = np.linspace(0.0, 1.0, 9)
        edge = [(ramp, 8, 0.5), (ramp[::-1].copy(), 0, 0.5), (np.ones(5), 2, 0.5), (np.zeros(5), 0, 0.0),
                (np.array([0.1, np.nan, 1.0, 0.7, 0.2]), 2, 0.5), (np.array([1.0]), 0, 0.5)]
        for vals, i, half in [*seen, *edge]:
            assert crossings(vals, i, half) == self._walk(vals, i, half)

    def test_measured_pulse_keeps_the_bits_of_the_walk(self, monkeypatch):
        cfg0 = default_config().source
        rows = beam.beam_profile_rows(4, cfg0, [0.0, 1.0, np.pi], R=beam.R_FACTOR * cfg0.a_mag)
        monkeypatch.setattr(beam, "_half_crossings", self._walk)
        walked = beam.beam_profile_rows(4, cfg0, [0.0, 1.0, np.pi], R=beam.R_FACTOR * cfg0.a_mag)
        assert [[v.hex() for v in map(float, row)] for row in rows] == [[v.hex() for v in map(float, row)]
                                                                        for row in walked]


def _bracketed_functions(seed, count):
    """Seeded smooth monotone functions with one root inside [lo, hi]: (f, lo, hi)."""
    rng = np.random.default_rng(seed)
    families = (
        lambda x, r, s, c: math.tanh(s * (x - r)) * (1.0 + c),
        lambda x, r, s, c: (x - r) * (1.0 + c * (x - r) ** 2),
        lambda x, r, s, c: math.expm1(s * (x - r)),
        lambda x, r, s, c: math.atan(s * (x - r)) + c * (x - r) ** 3,
    )
    out = []
    for i in range(count):
        lo, width = rng.uniform(-2.0, 1.0), rng.uniform(0.5, 4.0)
        r = lo + width * rng.uniform(0.01, 0.99)
        s, c, sign = rng.uniform(0.2, 5.0), rng.uniform(0.0, 3.0), rng.choice((-1.0, 1.0))
        family = families[i % len(families)]
        out.append((lambda x, family=family, r=r, s=s, c=c, sign=sign: sign * family(x, r, s, c), lo, lo + width))
    return out


class TestBrentRoot:
    # beam._brent_root ports SciPy's brentq.c; brentq is the oracle here, bit for bit

    @pytest.mark.parametrize("xtol", [1e-6, 2e-12, 1e-14])
    def test_bitwise_brentq_on_smooth_brackets(self, xtol):
        from scipy.optimize import brentq

        found = [(i, beam._brent_root(f, lo, hi, xtol).hex(), float(brentq(f, lo, hi, xtol=xtol)).hex())
                 for i, (f, lo, hi) in enumerate(_bracketed_functions(27, 400))]
        assert [case for case in found if case[1] != case[2]] == []

    def test_bitwise_brentq_on_the_beam_gaps(self):
        # the six (n, b) gaps whose roots suite_beam_diagnostics finds
        from scipy.optimize import brentq

        cfg0 = default_config().source
        a = cfg0.a_mag
        for n in (1, 4, 16):
            for b in (1.01 * a, 1.5 * a):
                cfg = SourceConfig(a=cfg0.a, b=b)
                sig, R = CauchySignal(n), beam.R_FACTOR * a
                target = math.exp(-beam.BETA) * measure_pulse(sig, cfg, 0.0, R)[1]

                def gap(theta):
                    return measure_pulse(sig, cfg, theta, R)[1] - target

                root = beam._brent_root(gap, 0.0, np.pi, 1e-6)
                assert root.hex() == float(brentq(gap, 0.0, np.pi, xtol=1e-6)).hex(), (n, b)
                assert beam.diffraction_angles(n, cfg)[1].hex() == root.hex(), (n, b)

    def test_endpoint_root_returns_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert beam._brent_root(f, 1.0, 3.0, 1e-6) == 1.0 and calls == [1.0, 3.0]
        calls.clear()
        assert beam._brent_root(f, -2.0, 1.0, 1e-6) == 1.0 and calls == [-2.0, 1.0]

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -1e-300, lambda x: math.nan],
                             ids=["positive", "negative", "nan"])
    def test_bracket_without_a_root_raises(self, f):
        with pytest.raises(NoSolutionError):
            beam._brent_root(f, -1.0, 2.0, 1e-6)


def _sign_mismatches(res):
    """The count of sign-rule mismatches that suite_sigma_algebra reports."""
    return int(re.search(r"(\d+) region/disk-continuity mismatches", res.detail).group(1))


class TestValidationSuites:
    def test_negative_control_breaks_maxwell(self, monkeypatch):
        rc = default_config()
        good = suite_wave_maxwell(rc, np.random.default_rng(3), n_points=20)
        field_of = validate_mod.field

        def broken(w, pol, r, t):
            # a sign rule inconsistent at stencil scale, the failure mode of a broken
            # branch assignment near a cut
            flip = np.where(np.sin(3000.0 * r[..., 0] / rc.source.a_mag) > 0, -1.0, 1.0)
            return flip[..., None] * field_of(w, pol, r, t)

        monkeypatch.setattr(validate_mod, "field", broken)
        bad = suite_wave_maxwell(rc, np.random.default_rng(3), n_points=20)
        assert good.passed
        assert not bad.passed

    def test_interior_continuity_suite(self):
        rc = default_config()
        res = suite_interior_continuity(rc, np.random.default_rng(5), n_pairs=100)
        assert res.passed

    def test_oracle_suite(self):
        rc = default_config()
        res = suite_oracle_equivalence(rc, np.random.default_rng(7), n_points=20)
        assert res.passed

    def test_suites_keep_names_and_docstrings(self):
        for suite in ALL_SUITES:
            assert suite.__name__.startswith("suite_")
            assert suite.__doc__

    def test_oracle_suites_golden_at_seed_1(self):
        # the values validate --seed 1 prints for the million-point suites, whose
        # component kernels and batches must keep the bits, and for the suites built
        # on de_fourier and harness.fd, pinned exactly
        appendix = suite_appendix_identities(default_config(), np.random.default_rng(1))
        assert appendix.measured == 6.355287432313019e-14
        assert appendix.detail == "1000000 points, sigma^2 residual 4.4e-16 (<=1e-12)"
        spectra = suite_spectra(default_config(), np.random.default_rng(1))
        assert spectra.measured == 1.1255171281129974e-13
        assert spectra.detail == "negative-frequency energy ratio 7.7e-18"
        sigma = suite_sigma_algebra(default_config(), np.random.default_rng(1))
        assert sigma.measured == 7.43897436413411e-05
        assert sigma.detail == "5 cut kinds, 0 region/disk-continuity mismatches (=0)"
        # and the suites built on harness.fd
        wave = suite_wave_maxwell(default_config(), np.random.default_rng(1))
        assert wave.measured == 1.998980535685136
        assert wave.detail == "n=1: orders 2.00/2.00/2.00; n=4: orders 2.00/2.00/2.00"
        oracle = suite_oracle_equivalence(default_config(), np.random.default_rng(1))
        assert oracle.measured == 3.755282442608368e-07
        analyticity = suite_analyticity(default_config(), np.random.default_rng(1))
        assert analyticity.measured == 8.000313384849691e-08
        surface = suite_surface_continuity(default_config(), np.random.default_rng(1))
        assert surface.measured == 2.000079276040583
        assert surface.detail == "residuals 5.13e-02 -> 3.21e-03, |q| >= 0.25a"

    def test_sign_gate_fails_on_a_membrane_over_both_sheets(self, monkeypatch):
        # alpha*|sign(q)| spans the q < 0 sheet too: every straddle pair still flips and
        # path continuation reduces to the same endpoint rule, but sigma_cut now jumps
        # across the reference disk
        monkeypatch.setattr(geometry.UpperSpheroid, "cut_function",
                            lambda self, q: self.alpha * np.abs(np.sign(np.asarray(q, dtype=float))))
        res = suite_sigma_algebra(default_config(), np.random.default_rng(1))
        assert not res.passed
        assert res.measured <= res.threshold and _sign_mismatches(res) > 0

    def test_sign_gate_fails_on_a_reversed_sign_rule(self, monkeypatch):
        monkeypatch.setattr(geometry.BranchCut, "_sign",
                            lambda self, p, q: np.where(p > self.cut_function(q), -1, 1))
        res = suite_sigma_algebra(default_config(), np.random.default_rng(1))
        assert not res.passed
        assert res.measured <= res.threshold and _sign_mismatches(res) > 0

    @pytest.mark.parametrize("cut", [FlatDisk(), UpperSpheroid(0.1), LowerSpheroid(0.1),
                                     UpperSpheroid(1.0), LowerSpheroid(0.03)],
                             ids=["flat", "upper-0.1", "lower-0.1", "upper-1", "lower-0.03"])
    def test_region_oracle_is_the_sign_rule(self, cut):
        cfg = SourceConfig(a=np.array([0.3, -0.2, 0.9]), b=2.0)
        a = cfg.a_mag
        alpha = getattr(cut, "alpha", 0.1 * a)
        rng = np.random.default_rng(11)
        n = 4000
        # a box, and a slab about the disk plane where the thin spheroids live
        box = rng.uniform(-1.5 * a, 1.5 * a, (n, 3))
        slab = (rng.uniform(-1.5 * a, 1.5 * a, (n, 1)) * cfg.e1 + rng.uniform(-1.5 * a, 1.5 * a, (n, 1)) * cfg.e2
                + rng.uniform(-2.0, 2.0, (n, 1)) * alpha * cfg.a_hat)
        # +-1e-4 alpha off the membrane: the confocal spheroids p = alpha (1 +- 1e-4) on
        # both sides, and the disk plane over the disk and the apron
        qs = rng.uniform(-0.99 * a, 0.99 * a, n)
        phis = rng.uniform(0.0, 2.0 * np.pi, n)
        shells = [spheroid_point(alpha * (1.0 + s * 1e-4), qs, phis, cfg) for s in (1.0, -1.0)]
        rhos = rng.uniform(0.01 * a, 0.999 * np.hypot(a, alpha), n)
        plane = rhos[:, None] * (np.cos(phis)[:, None] * cfg.e1 + np.sin(phis)[:, None] * cfg.e2)
        planes = [plane + s * 1e-4 * alpha * cfg.a_hat for s in (1.0, -1.0)]
        for pts in [box, slab, *shells, *planes]:
            assert np.array_equal(_region_sign(cut, pts, cfg), cut.sign(pts, cfg))
        if not isinstance(cut, FlatDisk):  # the region is not empty
            assert np.any(_region_sign(cut, slab, cfg) == -1)

    @pytest.mark.parametrize("cut", [UpperSpheroid(0.1), LowerSpheroid(0.1), SmoothSpheroid(0.1, 0.005),
                                     SmoothSpheroid(0.12, 0.01)],
                             ids=["upper", "lower", "smooth-0.1", "smooth-0.12"])
    def test_straddle_pairs_cross_the_cut(self, cut):
        # each pair the battery draws sits across the membrane, on a tilted axis
        cfg = SourceConfig(a=np.array([0.3, -0.2, 0.9]), b=1.5)
        plus, minus = _straddle_pairs_for_cut(cut, cfg, np.random.default_rng(0), 500)
        assert np.all(cut.sign(plus, cfg) != cut.sign(minus, cfg))

    def test_sigma_squared_gate_fails_on_a_scaled_sigma(self, monkeypatch):
        # sigma off by 1e-11 with p and q unchanged: the frame is built from p and q, so
        # only the sigma^2 identity can see it, and the suite must fail on that alone
        n = 3 * validate_mod.BATCH + 5
        good = suite_appendix_identities(default_config(), np.random.default_rng(1), n_points=n)
        resolve = validate_mod.complex_distance_principal

        def scaled(r, cfg):
            sigma, p, q = resolve(r, cfg)
            return sigma * (1.0 + 1e-11), p, q

        monkeypatch.setattr(validate_mod, "complex_distance_principal", scaled)
        bad = suite_appendix_identities(default_config(), np.random.default_rng(1), n_points=n)
        assert good.passed and not bad.passed
        assert bad.measured == good.measured
        assert float(re.search(r"sigma\^2 residual (\S+) ", bad.detail).group(1)) > 1e-12

    def test_appendix_points_are_the_uniform_stream_in_batches(self, monkeypatch):
        resolve = validate_mod.complex_distance_principal
        seen = []
        monkeypatch.setattr(validate_mod, "complex_distance_principal", lambda r, cfg: seen.append(r) or resolve(r, cfg))
        n = 2 * validate_mod.BATCH + 5
        rc = default_config()
        assert suite_appendix_identities(rc, np.random.default_rng(3), n_points=n).passed
        a = rc.source.a_mag
        want = np.random.default_rng(3).uniform(-3 * a, 3 * a, (n, 3))
        assert [len(r) for r in seen] == [validate_mod.BATCH, validate_mod.BATCH, 5]
        assert np.concatenate(seen).tobytes() == want.tobytes()

    def test_sources_approx_suite_fails_on_a_flipped_p_z_sign_in_j0(self, monkeypatch):
        # the sign of j0's p_z term, -i (Lt a^2 + Mt s^2) p_z / (s|s|), flipped: the configured
        # polarization (1, 0, 0) on a = z has p_z = 0, so only the a_hat polarization sees it
        approx = validate_mod.surface_sources_approx

        def flipped(w, pol, q, phi, alpha, t, q_min=None):
            s = approx(w, pol, q, phi, alpha, t, q_min=q_min)
            along = approx(w, np.dot(w.cfg.a_hat, pol) * w.cfg.a_hat, q, phi, alpha, t, q_min=q_min)
            return dataclasses.replace(s, j0=s.j0 - 2.0 * along.j0)

        rc = default_config()
        assert np.dot(rc.source.a_hat, rc.polarization()) == 0.0
        assert suite_sources_approx(rc, np.random.default_rng(1)).passed
        monkeypatch.setattr(validate_mod, "surface_sources_approx", flipped)
        res = suite_sources_approx(rc, np.random.default_rng(1))
        assert not res.passed and res.measured > 1.0

    def test_battery_resolves_the_million_points_once(self, monkeypatch):
        # the sigma^2 identity and the frame identities share one walk over 10^6 points;
        # a second million-point walk through the principal sigma fails here
        resolve = validate_mod.complex_distance_principal
        seen = []

        def counted(r, cfg):
            seen.append(math.prod(np.shape(r)[:-1]))
            return resolve(r, cfg)

        monkeypatch.setattr(validate_mod, "complex_distance_principal", counted)
        results = validate_mod.run_all(default_config(), seed=1)
        assert all(res.passed for res in results)
        assert 1_000_000 <= sum(seen) <= 1_050_000

    @pytest.mark.parametrize(
        "suite, limit_mb",
        [(suite_appendix_identities, 6), (suite_sigma_algebra, 4), (suite_spectra, 16)],
    )
    def test_million_point_suites_bounded_memory(self, suite, limit_mb):
        # the appendix bound sits between its traced peaks at validate.BATCH = 2^13 (3.1 MB
        # at seed 0) and at 2^16 (23.7 MB), so undoing the batching fails here; sigma-algebra
        # walks no million points now and peaks at 0.4 MB
        tracemalloc.start()
        try:
            res = suite(default_config(), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed
        assert peak < limit_mb * 2**20


class TestCli:
    def test_sample_field_writes_dataset(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        rc_exit = cli.main(["sample-field", "--config", config_file, "--out", out])
        assert rc_exit == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 4 * 2  # header + x*z*t records
        meta = json.loads((tmp_path / "out" / "field.json").read_text())
        assert meta["records"] == 40
        assert meta["n"] == 2 and "samples" not in meta
        assert meta["columns"] == lines[0].split(",") == FIELD_HEADER_F

    def test_sampled_drive_sidecars(self, tmp_path):
        pulse = gaussian_pulse_csv(tmp_path / "pulse.csv")
        path = tmp_path / "sampled.ini"
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}"))
        out = tmp_path / "out"
        for command in ("sample-field", "sample-sources"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
        assert rows.shape == (40, 13)
        rc = load_config(str(path))
        F = field(rc.wavelet(), rc.polarization(), rows[:, 0:3], rows[:, 3])
        assert np.allclose(rows[:, 7::2] + 1j * rows[:, 8::2], F, rtol=1e-12, atol=0.0)
        # one drive label in both sidecars, with the sample grid it came from
        for name in ("field", "sources"):
            meta = json.loads((out / f"{name}.json").read_text())
            assert meta["n"] == "sampled"
            assert meta["samples"] == 801
            assert meta["dt"] == pytest.approx(0.05)
            assert meta["columns"] == (out / f"{name}.csv").read_text().split("\n", 1)[0].split(",")

    def test_sampled_drive_built_once_per_run(self, tmp_path, monkeypatch):
        pulse = gaussian_pulse_csv(tmp_path / "pulse.csv")
        path = tmp_path / "sampled.ini"
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}"))
        calls = []
        from_csv = SampledSignal.from_csv.__func__

        def counted(cls, csv, **kwargs):
            calls.append(csv)
            return from_csv(cls, csv, **kwargs)

        monkeypatch.setattr(SampledSignal, "from_csv", classmethod(counted))

        def run(command, out):
            calls.clear()
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
            return len(calls), sorted((p.name, p.read_bytes()) for p in out.iterdir())

        for command in ("sample-field", "sample-sources"):
            parses, files = run(command, tmp_path / command / "once")
            # a drive rebuilt on every request writes the same bytes
            with monkeypatch.context() as m:
                m.setattr(RunConfig, "signal", RunConfig._build_signal)
                reparses, refiles = run(command, tmp_path / command / "rebuilt")
            assert parses == 1 and reparses > 1
            assert files == refiles

    def test_single_point_grid(self, tmp_path):
        text = CONFIG_TEXT.replace("x = -1,1,5", "x = 0.3,0.3,1").replace(
            "z = 0.5,1.5,4", "z = 1.2,1.2,1"
        ).replace("t = 1,2,2", "t = 1,1,1")
        path = tmp_path / "one.ini"
        path.write_text(text)
        out = str(tmp_path / "out1")
        assert cli.main(["sample-field", "--config", str(path), "--out", out]) == 0
        lines = (tmp_path / "out1" / "field.csv").read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("edit, flags, named", [
        pytest.param(("n = 2", "n = 2.5"), [], "signal.n", id="signal.n"),
        pytest.param(("re = 1,0,0", "re = 1,x,0"), [], "polarization.re", id="polarization.re"),
        pytest.param(("nq = 8", "nq = many"), [], "surface.nq", id="surface.nq"),
        pytest.param(("alpha = 0.1", "alpha = big"), [], "cut.alpha", id="cut.alpha"),
        pytest.param(None, ["--threads", "0"], "--threads", id="threads"),
        pytest.param(None, ["--seed", "-1"], "--seed", id="seed"),
        # before the config table each of these ran, to NaN or empty output or a
        # traceback, or was silently ignored
        pytest.param(("b = 1.5", "b = inf"), [], "source.b", id="probe-source.b-inf"),
        # time and b are lengths: the speed of light is 1, and no other value is taken
        pytest.param(("b = 1.5", "b = 1.5\nc = 2"), [], "source.c", id="source.c-2"),
        pytest.param(("t = 1.1", "t = nan"), [], "surface.t", id="probe-surface.t-nan"),
        pytest.param(("nq = 8", "nq = 0"), [], "surface.nq", id="probe-surface.nq-0"),
        pytest.param(("nphi = 4", "nphi = 0"), [], "surface.nphi", id="probe-surface.nphi-0"),
        pytest.param(("n = 2", "n = 200"), [], "signal.n", id="probe-signal.n-200"),
        pytest.param(("x = -1,1,5", "x = -inf,1,3"), [], "grid.x", id="probe-grid.x-inf"),
        pytest.param(("kind = smooth_spheroid\nalpha = 0.1", "kind = upper_spheroid\nalpha = inf"), [], "cut.alpha",
                     id="probe-cut.alpha-inf"),
        pytest.param(("re = 1,0,0", "re = inf,0,0"), [], "polarization.re", id="probe-polarization.re-inf"),
        pytest.param(("alpha = 0.1", "alpah = 0.2"), [], "cut.alpah", id="probe-cut.alpah"),
        pytest.param(("[surface]", "[output]\ndir = elsewhere\n\n[surface]"), [], "output.dir",
                     id="probe-output.dir"),
        # tolerances are constants: the section that once set them is unknown
        pytest.param(("[surface]", "[tolerances]\ntol_cut = 1e-9\n\n[surface]"), [], "tolerances: unknown section",
                     id="tolerances-section"),
        pytest.param(("[surface]", "[surfce]"), [], "surfce", id="probe-section-surfce"),
        pytest.param(("[source]", "[DEFAULT]\nn = 3\n\n[source]"), [], "DEFAULT.n", id="DEFAULT"),
        pytest.param(("[signal]\nkind = cauchy\nn = 2", ""), [], "signal", id="missing-signal"),
    ])
    def test_malformed_value_exits_2_naming_it(self, tmp_path, capsys, edit, flags, named):
        text = CONFIG_TEXT.replace(*edit, 1) if edit else CONFIG_TEXT
        assert edit is None or text != CONFIG_TEXT
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sample-field", "--config", str(path), "--out", str(out), *flags]) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "config" and error["message"].startswith(named)
        assert not out.exists()

    @pytest.mark.parametrize("name, flag, kind", [("THREADS", "--threads", "int"), ("SEED", "--seed", "int")])
    def test_malformed_environment_exits_2(self, monkeypatch, capsys, name, flag, kind):
        # a bad variable is refused like the bad flag it stands for
        monkeypatch.setenv(f"EMWAVELETS_{name}", "many")
        for argv in (["validate"], ["validate", flag, "many"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert f"argument {flag}: invalid {kind} value: 'many'" in capsys.readouterr().err

    def test_help_and_unknown_commands(self, capsys):
        # one parser: the five commands are the choices of its positional, and every command takes the flags
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "{sample-field,sample-sources,impulse-response,beam-profile,validate}" in capsys.readouterr().out
        for argv, says in [(["sample-feld"], "invalid choice: 'sample-feld'"), ([], "required: command"),
                           (["validate", "--bogus"], "unrecognized arguments: --bogus"),
                           (["validate", "--tol-scale", "1"], "unrecognized arguments: --tol-scale 1")]:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert says in capsys.readouterr().err

    def test_missing_signal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[source]\na = 0,0,1\nb = 1.5\n")
        code = cli.main(["sample-field", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "config"

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_refusal_names_the_point(self, tmp_path, capsys, quantity):
        # the grid passes through the branch circle at (-1, 0, 0) and (1, 0, 0)
        text = (
            CONFIG_TEXT.replace("kind = smooth_spheroid", "kind = flat_disk")
            .replace("x = -1,1,5", "x = -2,2,41")
            .replace("z = 0.5,1.5,4", "z = -2,2,41")
        )
        path = tmp_path / "circle.ini"
        path.write_text(text + f"\n[output]\nquantity = {quantity}\n")
        # serially both points fall in the one 1,681-point block; two threads split it into 841-point runs
        for threads, count in (("1", "2 of 1681"), ("2", "1 of 841")):
            out = tmp_path / f"out{threads}"
            argv = ["sample-field", "--config", str(path), "--out", str(out), "--threads", threads]
            assert cli.main(argv) == 1
            # the refusal arrives while the CSV streams: its temp file goes, and no sidecar is written
            assert not [p.name for p in out.glob("*")]
            message = json.loads(capsys.readouterr().err.strip())["message"]
            # one guard and one reason, whichever quantity the sweep evaluates
            assert message == f"field point on the branch circle (p = q = 0): {count} points refused, first at (-1, 0, 0)"

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_non_finite_field_refused(self, tmp_path, capsys, quantity):
        # C_160 overflows at some of the 50 points: the run stops, naming how many of the first refused
        # block (all 50 points serially, 25 at two threads) and the first (x, y, z)
        path = tmp_path / "huge.ini"
        path.write_text("[source]\na = 0,0,1\nb = 1.5\n[signal]\nkind = cauchy\nn = 160\n"
                        "[grid]\nx = -2,2,5\ny = -1,1,2\nz = 0.5,3,5\nt = 1,3,2\n"
                        f"[output]\nquantity = {quantity}\n")
        with np.errstate(all="ignore"):
            rows = per_slice_rows(load_config(str(path)))
        bad = ~np.isfinite(rows).all(axis=(1, 2))
        assert 0 < bad.sum() < 50
        x, y, z = rows[np.flatnonzero(bad)[0], 0, :3]
        for threads, run in ((1, 50), (2, 25)):
            start = np.flatnonzero(bad)[0] // run * run
            out = tmp_path / f"out{threads}"
            argv = ["sample-field", "--config", str(path), "--out", str(out), "--threads", str(threads)]
            assert cli.main(argv) == 1
            assert not list(out.glob("*"))
            assert json.loads(capsys.readouterr().err.strip()) == {
                "error": "run",
                "message": f"field not finite at (x, y, z): {bad[start : start + run].sum()} of {run} points refused, "
                           f"first at ({x:g}, {y:g}, {z:g})",
            }

    def test_beam_direction_follows_source_axis(self, config_file, tmp_path):
        # |F| on a transverse-plane sweep peaks on the +a axis for b > a
        rc = load_config(config_file)
        rc.grid = {
            "x": AxisSpec(-2.0, 2.0, 9),
            "y": AxisSpec(0.0, 0.0, 1),
            "z": AxisSpec(20.0, 20.0, 1),
            "t": AxisSpec(20.0, 20.0, 1),
        }
        rc.cut_kind = "flat_disk"
        rows = field_block(rc)
        mag = np.linalg.norm(rows[:, 0, 7::2] + 1j * rows[:, 0, 8::2], axis=1)
        assert np.argmax(mag) == 4  # the x = 0 record

    def test_sources_alpha_zero_refused_by_name(self, tmp_path, capsys):
        # the alpha = 0 disk has its own source routines; the config refuses it for a spheroid sweep
        path = tmp_path / "disk.ini"
        path.write_text(CONFIG_TEXT.replace("alpha = 0.02", "alpha = 0"))
        out = tmp_path / "out"
        for command in ("sample-sources", "impulse-response"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            error = json.loads(capsys.readouterr().err.strip())
            assert error["error"] == "config" and error["message"].startswith("surface.alpha: must be")
        assert not out.exists()

    def test_impulse_response_finite_and_annotated(self, config_file):
        rc = load_config(config_file)
        name, header, blocks, sidecar = source_sweep_rows(rc, impulse=True)
        rows = source_table(blocks)
        meta = sidecar(len(rows))
        assert name == "impulse_response"
        assert np.isfinite(rows).all()
        assert meta["n"] == "impulse"
        assert set(np.unique(rows[:, -1])) <= {0.0, 1.0}
        assert (np.abs(rows[:, 0]) < rc.q_min_value()).sum() == rows[:, -1].sum()

    def test_byte_identical_across_threads(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text(
            CONFIG_TEXT.replace("x = -1,1,5", "x = -1,1,41").replace("z = 0.5,1.5,4", "z = 0.5,1.5,26")
        )
        # 1,066 points: one block serially, three runs on three threads
        assert [len(block[0]) for block in field_rows(load_config(str(config_file)), 3)] == [356, 356, 354]
        outs = []
        for threads in ("1", "3"):
            out = str(tmp_path / f"t{threads}")
            assert (
                cli.main(
                    ["sample-field", "--config", str(config_file), "--out", out, "--threads", threads]
                )
                == 0
            )
            outs.append((tmp_path / f"t{threads}" / "field.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    @pytest.mark.parametrize("cut", ["flat_disk", "upper_spheroid"])
    def test_csv_independent_of_the_block_size(self, tmp_path, monkeypatch, cut, quantity):
        # every record is computed pointwise: blocks of 1 point, 7 points or the default 70, or of a point's time
        # slices cut in two (three on two threads), give the same bytes, serially and on two threads; the 70
        # points straddle the upper spheroid's membrane
        path = tmp_path / "field.ini"
        path.write_text(
            "[source]\na = 0,0,1\nb = 1.5\n"
            f"[cut]\nkind = {cut}\nalpha = 0.1\n"
            "[signal]\nkind = cauchy\nn = 2\n"
            "[polarization]\nre = 1,0,0\nim = 0,0.5,0\n"
            "[grid]\nx = -1.45,1.55,7\ny = 0.03,0.03,1\nz = -0.47,0.61,10\nt = 0.5,2.5,3\n"
            f"[output]\nquantity = {quantity}\n"
        )
        outs = set()
        for records, n_blocks in ((2, 140), (3, 70), (21, 10), (runs.RECORDS_PER_CHUNK, 1)):
            monkeypatch.setattr(runs, "RECORDS_PER_CHUNK", records)
            assert len(list(field_rows(load_config(str(path))))) == n_blocks
            for threads in ("1", "2"):
                out = tmp_path / f"{records}-{threads}"
                assert cli.main(["sample-field", "--config", str(path), "--out", str(out), "--threads", threads]) == 0
                outs.add(((out / "field.csv").read_bytes(), (out / "field.json").read_bytes()))
        assert len(outs) == 1
        assert len(next(iter(outs))[0].splitlines()) == 1 + 70 * 3

    @pytest.mark.parametrize("command, producer", [("sample-field", "field_dataset"),
                                                   ("beam-profile", "beam_profile_data")])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
    def test_out_that_is_not_a_directory_exits_2(self, config_file, tmp_path, capsys, monkeypatch, command,
                                                  producer, under):
        # an --out naming a file, or a path under one, ended in a traceback from the atomic write, and
        # beam-profile computed its whole profile first; it is refused before anything is computed
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        monkeypatch.setattr(cli, producer, lambda *args: pytest.fail("computed before --out was checked"))
        out = blocker / under if under else blocker
        assert cli.main([command, "--config", config_file, "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error == {"error": "config", "message": f"--out: {blocker} is not a directory"}
        assert blocker.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["blocker", pathlib.Path(config_file).name])

    def test_coarse_sampled_pulse_is_a_run_error(self, tmp_path, capsys):
        # dt = 0.5 cannot resolve the kernel at Im tau = -b = -1.5 (it needs >= 4 dt): both
        # sampling commands refuse the run the same way, and write nothing
        pulse = gaussian_pulse_csv(tmp_path / "coarse.csv", n=81)
        path = tmp_path / "coarse.ini"
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}"))
        errors = []
        for command in ("sample-field", "sample-sources"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
            errors.append(json.loads(capsys.readouterr().err.strip()))
            assert not [p.name for p in out.glob("*")]
        assert errors[0] == errors[1]
        assert errors[0] == {"error": "run", "message": "|Im tau| below 4*dt: the sample grid cannot resolve the kernel"}
        with pytest.raises(UnderResolvedSignalError):
            load_config(str(path)).signal().eval(0.0 - 1.5j)

    @pytest.mark.parametrize("edit, named", [
        (("b = 1.5", "b = -1.5"), "source.b"),
        (("kind = cauchy\nn = 2", "kind = sampled\ncsv = {pulse}"), "signal.kind"),
    ])
    def test_beam_profile_refusal_names_the_key(self, tmp_path, capsys, edit, named):
        pulse = gaussian_pulse_csv(tmp_path / "pulse.csv")
        path = tmp_path / "beam.ini"
        path.write_text(CONFIG_TEXT.replace(edit[0], edit[1].format(pulse=pulse)))
        out = tmp_path / "out"
        assert cli.main(["beam-profile", "--config", str(path), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "config" and error["message"].startswith(f"{named}: ")
        assert not out.exists()

    def test_beam_profile_refuses_an_overflowing_drive(self, tmp_path, capsys):
        # C_169's on-axis peak overflows: the diffraction angle's root search stopped on a bare "f is NaN at 0.0"
        path = tmp_path / "n169.ini"
        path.write_text("[source]\na = 0,0,1\nb = 1.5\n[signal]\nkind = cauchy\nn = 169\n")
        out = tmp_path / "out"
        assert cli.main(["beam-profile", "--config", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "run", "message": "beam profile not finite: theta_beta_measured at n = 169, on-axis peak = nan"}
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("n", [90, 100, 145])
    def test_beam_profile_writes_where_only_the_norms_overflow(self, tmp_path, n):
        # the far-zone field of these orders passes 1e154, whose square overflows the helicity residual's norms
        path = tmp_path / "beam.ini"
        path.write_text(f"[source]\na = 0,0,1\nb = 1.5\n[signal]\nkind = cauchy\nn = {n}\n")
        out = tmp_path / "out"
        assert cli.main(["beam-profile", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "beam_profile.json").read_text())
        assert meta["n"] == n
        assert 0.0 < meta["helicity_residual_100a"] < 0.15 * meta["helicity_residual_10a"] < 0.01

    @pytest.mark.parametrize("edit, says", [
        (lambda t, g0: (t[::-1], g0[::-1]), "sample times must increase"),
        (lambda t, g0: (t, np.where(t == t[400], np.nan, g0)), "signal samples must be finite"),
    ], ids=["descending", "nan-sample"])
    def test_bad_pulse_csv_exits_2(self, tmp_path, capsys, edit, says):
        # a descending grid wrote every source with the opposite sign; a NaN sample was refused
        # only when a source came out NaN
        t = np.linspace(-20.0, 20.0, 801)
        pulse = tmp_path / "pulse.csv"
        np.savetxt(pulse, np.column_stack(edit(t, -t * np.exp(-(t**2) / 2))), delimiter=",")
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}"))
        for command in ("sample-field", "sample-sources"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            error = json.loads(capsys.readouterr().err.strip())
            assert error["error"] == "config" and error["message"].startswith(f"signal.csv: {says}")
            assert not out.exists()

    def test_documented_flags_are_the_parser(self, monkeypatch):
        # README's command block and cli's docstring name every flag _add_common defines, and the
        # variable each reads, and no other
        parser = argparse.ArgumentParser(add_help=False)
        cli._add_common(parser)
        flags = {opt for action in parser._actions for opt in action.option_strings}
        variables = {f"EMWAVELETS_{flag[2:].upper()}" for flag in flags}
        for name in variables:
            monkeypatch.setenv(name, "7")
        parser = argparse.ArgumentParser(add_help=False)
        cli._add_common(parser)
        assert {action.default for action in parser._actions} == {"7"}
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```\n", 1)[1].split("```", 1)[0]
        for text in (block, cli.__doc__):
            assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags
        for text in (section, cli.__doc__):
            assert set(re.findall(r"EMWAVELETS_[A-Z_]+", text)) == variables

    def test_env_override(self, config_file, tmp_path, monkeypatch):
        out = str(tmp_path / "envout")
        monkeypatch.setenv("EMWAVELETS_OUT", out)
        monkeypatch.setenv("EMWAVELETS_CONFIG", config_file)
        assert cli.main(["sample-field"]) == 0
        assert (tmp_path / "envout" / "field.csv").exists()

    def test_validate_failure_exits_1(self, monkeypatch, capsys):
        from emwavelets.harness.validate import suite_oracle_equivalence

        small = lambda rc, rng: suite_oracle_equivalence(rc, rng, n_points=10)
        monkeypatch.setattr(validate_mod, "ALL_SUITES", [small])
        assert cli.main(["validate"]) == 0
        assert capsys.readouterr().out.startswith("PASS oracle-equivalence")
        # the same suite on a field 1% too large fails, and so does the command
        field_of = validate_mod.field
        monkeypatch.setattr(validate_mod, "field", lambda *args: 1.01 * field_of(*args))
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL oracle-equivalence") and "0/1 suites passed" in out
