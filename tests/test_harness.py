import ast
import importlib
import inspect
import io
import json
import os
import pathlib
import pkgutil
import re
import stat
import subprocess
import sys
import tracemalloc
import typing

import numpy as np
import pytest

import emwavelets
from emwavelets import em_fields, geometry, scalar_wavelet
from emwavelets import (
    CauchySignal, CustomCut, SourceConfig, complex_distance_principal, cut_sign, field, psi,
)
from emwavelets.errors import ConfigError, OnCutError
from emwavelets.signals import SampledSignal, spectrum_cauchy
from emwavelets.harness import _format, fd
from emwavelets.harness.beam import far_point, measure_pulse, spectral_window
from emwavelets.harness.config import AxisSpec, RunConfig, default_config, load_config
from emwavelets.harness.datasets import CHUNK, write_csv, write_csv_atomic, write_json_sidecar
from emwavelets.harness.grids import chunked_parallel_map, grid_points
from emwavelets.harness.runs import (
    FIELD_HEADER_F, FIELD_HEADER_PSI, SOURCE_HEADER, field_rows, points_per_chunk, source_sweep_rows,
)
from emwavelets.harness.spectral import _chirp_z, cauchy_series_transform, quadpack_fourier
from emwavelets.harness.validate import (
    ALL_SUITES,
    _straddle_pairs_for_cut,
    suite_appendix_identities,
    suite_interior_continuity,
    suite_oracle_equivalence,
    suite_sigma_algebra,
    suite_spectra,
    suite_wave_maxwell,
)
from emwavelets.harness import cli
from tests.test_geometry import wobbly_chi

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
    return np.stack(blocks, axis=1)


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
        assert set(np.unique(rows[..., 6])) == {-1.0, 1.0}  # straddles the membrane
        assert np.array_equal(rows, per_slice_rows(rc))
        assert np.array_equal(field_rows(rc, threads=2), rows)

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_principal_sigma_once_per_point(self, quantity, monkeypatch):
        # the cut sign reuses the sweep's p and q, and no cut of a config reads the azimuth
        points, azimuths = [], []
        principal, azimuth = geometry.complex_distance_principal, geometry._azimuth
        monkeypatch.setattr(geometry, "_azimuth", lambda r, cfg: azimuths.append(r) or azimuth(r, cfg))
        for mod in (geometry, scalar_wavelet, em_fields):
            monkeypatch.setattr(
                mod, "complex_distance_principal",
                lambda r, cfg: points.append(np.size(r) // 3) or principal(r, cfg),
            )
        field_rows(upper_spheroid_config(quantity, self.GRID))
        assert sum(points) == 7 * 10
        assert azimuths == []

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_configured_tol_cut_governs(self, quantity):
        # 5e-10 above the apron of the upper spheroid
        grid = {ax: AxisSpec(v, v, 1) for ax, v in (("x", 1.002), ("y", 0.0), ("z", 5e-10), ("t", 1.0))}
        rows = field_rows(upper_spheroid_config(quantity, grid, tol_cut=1e-10))
        assert rows.shape == (1, 1, 9 if quantity == "psi" else 13)
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

    def test_cli_import_loads_no_scipy(self):
        # the data commands start without SciPy; the oracles import it when they run
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(emwavelets.__file__).parents[1]))
        code = "import sys, emwavelets.harness.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

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

    def test_files_get_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_csv_atomic(tmp_path / "data.csv", ["a"], [(1.0,)])
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


def written_csv(header, rows):
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def sweep_like_block(rng, n_outer, n_inner):
    """Columns repeating as a sweep's do, drawn from SPECIAL and random values.

    per outer item, per inner item, constant everywhere, per record, and
    per outer item except for one record whose 0.0 turns into -0.0.
    """
    pool = np.concatenate([SPECIAL, rng.normal(size=6)])
    shape = (n_outer, n_inner)
    per_outer = rng.choice(pool, (n_outer, 1, 2))
    per_inner = rng.choice(pool, (1, n_inner, 1))
    flipped = np.zeros(shape)
    if flipped.size:
        flipped[-1, -1] = -0.0
    cols = [
        np.broadcast_to(per_outer[..., 0], shape),
        np.broadcast_to(per_inner[..., 0], shape),
        np.full(shape, -0.0),
        rng.choice(pool, shape),
        np.broadcast_to(per_outer[..., 1], shape),
        flipped,
        rng.choice(pool, shape),
    ]
    return np.stack(cols, axis=-1)


class TestCsvParity:
    HEADER = [f"c{i}" for i in range(7)]

    def test_special_values(self):
        table = np.array(SPECIAL)[:, None]
        assert written_csv(["v"], table) == savetxt_csv(["v"], table)
        square = np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T
        assert written_csv(["a", "b"], square) == savetxt_csv(["a", "b"], square)

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 9), (9, 1), (0, 9), (2 * CHUNK // 7 + 5, 7), (3, CHUNK + 77), (1, 2 * CHUNK + 1)],
    )
    def test_blocks(self, shape):
        block = sweep_like_block(np.random.default_rng(sum(shape)), *shape)
        expected = savetxt_csv(self.HEADER, block.reshape(-1, block.shape[-1]))
        assert written_csv(self.HEADER, block) == expected
        assert written_csv(self.HEADER, block.reshape(-1, block.shape[-1])) == expected

    def test_list_of_tuples(self):
        rows = [(1.0, -0.0, 2), (1.0, 0.0, 3), (np.nan, 1 / 3, -2.5e300)]
        assert written_csv(["a", "b", "c"], rows) == savetxt_csv(["a", "b", "c"], rows)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            write_csv(io.StringIO(), ["v"], np.zeros((2, 2, 2, 2)))

    def test_writer_memory_bounded(self):
        class Sink:
            def write(self, text):
                pass

        def peak(n_points, n_times=10):
            rng = np.random.default_rng(0)
            per_record = rng.normal(size=(n_points, n_times, 6))  # 7 + 6 columns: the F width
            block = np.concatenate([sweep_like_block(rng, n_points, n_times), per_record], axis=-1)
            tracemalloc.start()
            try:
                write_csv(Sink(), FIELD_HEADER_F, block)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1_000), peak(10_000)
        assert large <= 1.1 * small
        assert large < 2 * 2**20

    @pytest.mark.parametrize("quantity", ["psi", "F"])
    def test_sample_field_matches_reference(self, tmp_path, quantity):
        # the TestFieldRows grid: several writer chunks, records straddling the membrane
        path = tmp_path / "field.ini"
        path.write_text(
            "[source]\na = 0,0,1\nb = 1.5\n"
            "[cut]\nkind = upper_spheroid\nalpha = 0.1\n"
            "[signal]\nkind = cauchy\nn = 2\n"
            "[polarization]\nre = 1,0,0\nim = 0,0.5,0\n"
            "[grid]\nx = -1.45,1.55,7\ny = 0.03,0.03,1\nz = -0.47,0.61,10\nt = 0.5,2.5,40\n"
            f"[output]\nquantity = {quantity}\n"
        )
        out = tmp_path / "out"
        assert cli.main(["sample-field", "--config", str(path), "--out", str(out)]) == 0
        rows = field_rows(load_config(str(path)))
        header = FIELD_HEADER_PSI if quantity == "psi" else FIELD_HEADER_F
        assert (out / "field.csv").read_text() == savetxt_csv(header, rows.reshape(-1, rows.shape[-1]))
        assert json.loads((out / "field.json").read_text())["records"] == 70 * 40

    def test_sample_sources_matches_reference(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["sample-sources", "--config", config_file, "--out", str(out)]) == 0
        rows, _ = source_sweep_rows(load_config(config_file))
        assert (out / "sources.csv").read_text() == savetxt_csv(SOURCE_HEADER, rows)


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
        block = sweep_like_block(np.random.default_rng(3), 40, 13)
        header = TestCsvParity.HEADER
        assert written_csv(header, block) == savetxt_csv(header, block.reshape(-1, block.shape[-1]))
        flat = block.ravel()
        special = ~((flat == 0.0) | ((np.abs(flat) >= 1e-280) & (np.abs(flat) <= 1e280)))
        bits = lambda values: set(np.asarray(values, dtype=np.float64).view(np.int64).tolist())
        assert seen and bits(seen) == bits(flat[special])
        assert bits(seen).isdisjoint(bits(flat[~special]))


class TestSpectralOracles:
    def test_routes_agree(self):
        om = np.linspace(0.3, 8.0, 9)
        sig = CauchySignal(3)
        slow = quadpack_fourier(lambda t: sig.eval(np.asarray(t) - 1.2j), om)
        fast = cauchy_series_transform({3: 1.0}, 1.2j, om)
        assert np.abs(slow - fast).max() < 1e-8 * np.abs(slow).max()

    def test_quadpack_evaluates_each_node_once(self):
        # the spectra suite's grid for n = 1: every call is one pair [t, -t],
        # and no node of a frequency is evaluated twice
        b = 1.5
        sig = CauchySignal(1)
        om = np.linspace(0.0, 10.0 / b, 21)
        got = []
        for w in om:
            calls = []

            def f(t):
                calls.append(np.array(t))
                return sig.eval(np.asarray(t) - 1j * b)

            got.append(quadpack_fourier(f, w)[0])
            assert all(c.shape == (2,) and c[1] == -c[0] for c in calls)
            nodes = [c[0] for c in calls]
            assert len(set(nodes)) == len(nodes)
        exact = spectrum_cauchy(1, om, b)
        assert np.abs(np.array(got) - exact).max() <= 1e-6 * np.abs(exact).max()

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

    def test_suites_keep_names_and_docstrings(self):
        for suite in ALL_SUITES:
            assert suite.__name__.startswith("suite_")
            assert suite.__doc__

    def test_oracle_suites_golden_at_seed_1(self):
        # the values validate --seed 1 prints for the two suites built on
        # quadpack_fourier and continued_sign, pinned exactly
        spectra = suite_spectra(default_config(), np.random.default_rng(1))
        assert spectra.measured == 3.8368407399298336e-10
        assert spectra.detail == "negative-frequency energy ratio 7.7e-18"
        sigma = suite_sigma_algebra(default_config(), np.random.default_rng(1))
        assert sigma.measured == 4.434433238322705e-16
        assert sigma.detail == ("straddle flip residual 7.8e-05 (<=1e-3), 5 cut kinds, "
                                "0 continuation mismatches (=0)")

    def test_straddle_pairs_follow_azimuth(self):
        # the membrane height depends on phi, so each pair must sit across it at its own phi
        cfg = SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=1.5)
        cut = CustomCut(chi=wobbly_chi)
        plus, minus = _straddle_pairs_for_cut(cut, cfg, np.random.default_rng(0), 500)
        assert np.all(cut.sign(plus, cfg) != cut.sign(minus, cfg))

    @pytest.mark.parametrize(
        "suite, limit_mb",
        [(suite_appendix_identities, 100), (suite_sigma_algebra, 64), (suite_spectra, 16)],
    )
    def test_million_point_suites_bounded_memory(self, suite, limit_mb):
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

    def test_sampled_drive_sidecars(self, tmp_path):
        t = np.linspace(-20.0, 20.0, 801)
        pulse = tmp_path / "pulse.csv"
        np.savetxt(pulse, np.column_stack([t, -t * np.exp(-(t**2) / 2)]), delimiter=",")
        path = tmp_path / "sampled.ini"
        path.write_text(CONFIG_TEXT.replace("kind = cauchy\nn = 2", f"kind = sampled\ncsv = {pulse}"))
        out = tmp_path / "out"
        for command in ("sample-field", "sample-sources"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
        assert rows.shape == (40, 13)
        rc = load_config(str(path))
        F = field(rc.wavelet(), rc.polarization(), rows[:, 0:3], rows[:, 3]).F
        assert np.allclose(rows[:, 7::2] + 1j * rows[:, 8::2], F, rtol=1e-12, atol=0.0)
        # one drive label in both sidecars, with the sample grid it came from
        for name in ("field.json", "sources.json"):
            meta = json.loads((out / name).read_text())
            assert meta["n"] == "sampled"
            assert meta["samples"] == 801
            assert meta["dt"] == pytest.approx(0.05)

    def test_sampled_drive_built_once_per_run(self, tmp_path, monkeypatch):
        t = np.linspace(-20.0, 20.0, 801)
        pulse = tmp_path / "pulse.csv"
        np.savetxt(pulse, np.column_stack([t, -t * np.exp(-(t**2) / 2)]), delimiter=",")
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
        mag = np.linalg.norm(rows[:, 0, 7::2] + 1j * rows[:, 0, 8::2], axis=1)
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
