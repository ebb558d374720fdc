import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import typing

import numpy as np
import pytest

import emwavelets
from emwavelets import CauchySignal, SourceConfig, complex_distance_principal, cut_sign, field, psi
from emwavelets.errors import ConfigError, OnCutError
from emwavelets.harness import fd
from emwavelets.harness.beam import far_point, measure_pulse
from emwavelets.harness.config import AxisSpec, RunConfig, default_config, load_config
from emwavelets.harness.datasets import write_csv_atomic, write_json_sidecar
from emwavelets.harness.grids import chunked_parallel_map, grid_points
from emwavelets.harness.runs import field_rows, points_per_chunk, source_sweep_rows
from emwavelets.harness.spectral import cauchy_series_transform, quadpack_fourier
from emwavelets.harness.validate import (
    suite_interior_continuity,
    suite_oracle_equivalence,
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

[tolerances]
h = 1e-3
tol_cut = 1e-9
q_min = 0.15
"""


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

    def test_richardson(self):
        f = lambda x: np.sin(x)
        d = lambda h: (f(1.0 + h) - f(1.0 - h)) / (2 * h)
        extr = fd.richardson(d(1e-2), d(5e-3), order=2)
        assert extr == pytest.approx(np.cos(1.0), abs=1e-10)
        assert abs(extr - np.cos(1.0)) < 1e-3 * abs(d(1e-2) - np.cos(1.0))


class TestConfig:
    def test_parse_round_trip(self, config_file):
        rc = load_config(config_file)
        assert rc.source.b == 1.5
        assert rc.cut_kind == "smooth_spheroid"
        assert rc.signal_n == 2
        assert np.allclose(rc.polarization(), [1, 1j, 0])
        assert rc.grid["x"].n == 5
        assert rc.q_min_value() == pytest.approx(0.15)

    def test_auto_rim_band_uses_aperture(self, tmp_path):
        text = CONFIG_TEXT.replace("q_min = 0.15", "q_min = auto")
        path = tmp_path / "auto.ini"
        path.write_text(text)
        rc = load_config(str(path))
        # Cauchy(2) at b = 1.5: k = n/b, q_min = b/n
        assert rc.q_min_value() == pytest.approx(1.5 / 2)

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

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            AxisSpec(0.0, 1.0, 0)
        with pytest.raises(ConfigError):
            AxisSpec(1.0, 0.0, 5)
        assert AxisSpec(2.0, 2.0, 1).values() == pytest.approx([2.0])


class TestGrids:
    def test_row_major_order(self):
        grid = {"x": AxisSpec(0, 1, 2), "y": AxisSpec(0, 2, 2), "z": AxisSpec(5, 5, 1)}
        pts, ts = grid_points(grid)
        assert pts.shape == (4, 3)
        assert np.allclose(pts[:, 0], [0, 0, 1, 1])  # x slowest
        assert np.allclose(pts[:, 1], [0, 2, 0, 2])
        assert np.allclose(ts, [0.0])

    def test_parallel_map_order(self):
        pts = np.arange(300, dtype=float).reshape(100, 3)
        f = lambda c: c * 2.0
        serial = chunked_parallel_map(f, pts, threads=1, chunk=7)
        parallel = chunked_parallel_map(f, pts, threads=4, chunk=7)
        assert np.array_equal(serial, parallel)
        assert np.array_equal(serial, pts * 2.0)


def per_slice_rows(rc):
    """Reference sweep: the branch resolved per point, psi() or field() called per time slice."""
    w = rc.wavelet()
    pts, ts = grid_points(rc.grid)
    sgn = cut_sign(w.cut, pts, w.cfg, tol_cut=rc.tol_cut * w.cfg.a_mag)
    sigma = sgn * complex_distance_principal(pts, w.cfg)[0]
    blocks = []
    for tt in ts:
        if rc.quantity == "psi":
            v = psi(w, pts, tt)[:, None]
        else:
            v = field(w, rc.polarization(), pts, tt).F
        vals = np.stack([v.real, v.imag], axis=-1).reshape(len(pts), -1)
        base = [pts, np.full(len(pts), tt), sigma.real, sigma.imag, sgn.astype(float)]
        blocks.append(np.column_stack(base + [vals]))
    return np.stack(blocks, axis=1).reshape(len(pts) * len(ts), -1)


def upper_spheroid_config(quantity, grid, tol_cut=1e-9):
    return RunConfig(
        source=SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=1.5),
        cut_kind="upper_spheroid", cut_alpha=0.1, signal_n=2,
        pol_re=np.array([1.0, 0.0, 0.0]), pol_im=np.array([0.0, 0.5, 0.0]),
        quantity=quantity, tol_cut=tol_cut, grid=grid,
    )


class TestFieldRows:
    GRID = {
        "x": AxisSpec(-1.45, 1.55, 7),
        "y": AxisSpec(0.03, 0.03, 1),
        "z": AxisSpec(-0.47, 0.61, 10),
        "t": AxisSpec(0.5, 2.5, 40),  # 51 points per chunk: the grid spans two chunks
    }

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_matches_per_slice_evaluation(self, quantity):
        rc = upper_spheroid_config(quantity, self.GRID)
        rows = field_rows(rc)
        assert set(np.unique(rows[:, 6])) == {-1.0, 1.0}  # straddles the membrane
        assert np.array_equal(rows, per_slice_rows(rc))
        assert np.array_equal(field_rows(rc, threads=2), rows)

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_configured_tol_cut_governs(self, quantity):
        # 5e-10 above the apron of the upper spheroid
        grid = {ax: AxisSpec(v, v, 1) for ax, v in (("x", 1.002), ("y", 0.0), ("z", 5e-10), ("t", 1.0))}
        rows = field_rows(upper_spheroid_config(quantity, grid, tol_cut=1e-10))
        assert rows.shape == (1, 9 if quantity == "psi" else 13)
        assert np.isfinite(rows).all()
        with pytest.raises(OnCutError):
            field_rows(upper_spheroid_config(quantity, grid))


class TestLayering:
    CORE = ("errors", "geometry", "signals", "scalar_wavelet", "em_fields", "surface_sources")

    def test_core_modules_do_not_import_harness(self):
        pkg = pathlib.Path(emwavelets.__file__).parent
        for name in self.CORE:
            tree = ast.parse((pkg / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    imported = [a.name for a in node.names]
                else:
                    continue
                assert not any("harness" in mod.split(".") for mod in imported), (name, imported)

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
        write_csv_atomic(path, ["v"], [(v,) for v in vals])
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        for v, read in zip(vals, back):
            assert float(read) == v

    def test_atomic_csv(self, tmp_path):
        path = tmp_path / "sub" / "data.csv"
        write_csv_atomic(path, ["a", "b"], [(1.0, 2.0), (3.0, 4.5)])
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


class TestSpectralOracles:
    def test_routes_agree(self):
        om = np.linspace(0.3, 8.0, 9)
        sig = CauchySignal(3)
        slow = quadpack_fourier(lambda t: sig.eval(np.asarray(t) - 1.2j), om)
        fast = cauchy_series_transform({3: 1.0}, 1.2j, om)
        assert np.abs(slow - fast).max() < 1e-8 * np.abs(slow).max()

    def test_zero_frequency_convention(self):
        val = cauchy_series_transform({1: 1.0}, 1.0j, np.array([0.0]))
        assert val[0] == pytest.approx(0.5, abs=1e-9)


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


class TestValidationSuites:
    def test_negative_control_breaks_maxwell(self, rng):
        rc = default_config()
        good = suite_wave_maxwell(rc, np.random.default_rng(3), n_points=20)
        bad = suite_wave_maxwell(rc, np.random.default_rng(3), n_points=20, break_cut_sign=True)
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


class TestCli:
    def test_sample_field_writes_dataset(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        rc_exit = cli.main(["sample-field", "--config", config_file, "--out", out])
        assert rc_exit == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 4 * 2  # header + x*z*t records
        meta = json.loads((tmp_path / "out" / "field.json").read_text())
        assert meta["records"] == 40

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
        out = tmp_path / "out"
        assert cli.main(["sample-field", "--config", str(path), "--out", str(out)]) == 1
        assert not (out / "field.csv").exists()
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert re.search(r": 1 of \d+ points refused, first at \(-1, 0, 0\)$", message)

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
        rows = field_rows(rc)
        mag = np.linalg.norm(rows[:, 7::2] + 1j * rows[:, 8::2], axis=1)
        assert np.argmax(mag) == 4  # the x = 0 record

    def test_sources_alpha_zero_redirects(self, config_file, tmp_path, capsys):
        rc = load_config(config_file)
        rc.surface_alpha = 0.0
        with pytest.raises(ValueError, match="disk"):
            source_sweep_rows(rc)

    def test_impulse_response_finite_and_annotated(self, config_file):
        rc = load_config(config_file)
        rows, meta = source_sweep_rows(rc, impulse=True)
        assert np.isfinite(rows).all()
        assert meta["n"] == "impulse"
        assert set(np.unique(rows[:, -1])) <= {0.0, 1.0}
        assert (np.abs(rows[:, 0]) < rc.q_min_value()).sum() == rows[:, -1].sum()

    def test_byte_identical_across_threads(self, tmp_path):
        config_file = tmp_path / "run.ini"
        config_file.write_text(
            CONFIG_TEXT.replace("x = -1,1,5", "x = -1,1,41").replace("z = 0.5,1.5,4", "z = 0.5,1.5,26")
        )
        # a single chunk would run serially whatever the thread count
        pts, ts = grid_points(load_config(str(config_file)).grid)
        assert len(pts) > points_per_chunk(len(ts))
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

    def test_env_override(self, config_file, tmp_path, monkeypatch):
        out = str(tmp_path / "envout")
        monkeypatch.setenv("EMWAVELETS_OUT", out)
        monkeypatch.setenv("EMWAVELETS_CONFIG", config_file)
        assert cli.main(["sample-field"]) == 0
        assert (tmp_path / "envout" / "field.csv").exists()

    def test_validate_failure_exits_1(self, monkeypatch, capsys):
        from emwavelets.harness import validate as validate_mod
        from emwavelets.harness.validate import suite_oracle_equivalence

        monkeypatch.setattr(validate_mod, "ALL_SUITES", [
            lambda rc, rng, tol_scale=1.0: suite_oracle_equivalence(
                rc, rng, tol_scale=tol_scale, n_points=10
            )
        ])
        assert cli.main(["validate"]) == 0
        assert cli.main(["validate", "--tol-scale", "1e-12"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
