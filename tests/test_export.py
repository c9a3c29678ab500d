"""Heatmap rescaling, the CSV/PGM writers and the JSON writer."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from court_fda import export
from court_fda.export import (
    _csv_line_starts,
    export_fields,
    export_heatmap,
    json_text,
    rescale_symmetric,
    rescale_unit,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from court_fda.grids import GridSpec

from conftest import assert_no_child_left


class TestRescale:
    def test_symmetric_divides_by_peak(self):
        field = np.array([[4.0, -2.0], [1.0, 0.0]])
        out = rescale_symmetric(field)
        assert out.max() == 1.0 and out.min() == -0.5

    def test_symmetric_zero_field(self):
        out = rescale_symmetric(np.zeros((3, 3)))
        assert np.all(out == 0.0)

    def test_symmetric_preserves_argmax(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(9, 9))
        out = rescale_symmetric(field)
        assert np.argmax(out) == np.argmax(field)

    def test_unit_range(self):
        rng = np.random.default_rng(1)
        out = rescale_unit(rng.normal(size=(5, 5)))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_unit_constant_field(self):
        assert np.all(rescale_unit(np.full((4, 4), 3.3)) == 0.0)


class TestPgm:
    def test_gray_mapping(self, tmp_path):
        # rescaled field with max 1 and min -0.5 maps to 255 and 64
        field = rescale_symmetric(np.array([[4.0, -2.0], [0.0, 0.0]]))
        path = tmp_path / "f.pgm"
        write_heatmap_pgm(field, path)
        data = path.read_bytes()
        header, raster = data.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(raster) == [255, 64, 128, 128]

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        field = rescale_symmetric(rng.normal(size=(7, 7)))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_heatmap_pgm(field, p1)
        write_heatmap_pgm(field, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestExportHeatmap:
    def test_writes_csv_and_pgm(self, tmp_path):
        grid = GridSpec(3, 4)
        rng = np.random.default_rng(3)
        csv_path, pgm_path = export_heatmap(rng.normal(size=(3, 4)), grid, tmp_path / "field")
        assert csv_path.exists() and pgm_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 3 * 4

    def test_csv_row_major_and_round_trip(self, tmp_path):
        grid = GridSpec(3, 3)
        field = np.arange(9.0).reshape(3, 3) - 4.0
        csv_path, _ = export_heatmap(field, grid, tmp_path / "field", mode="symmetric")
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
        values = np.array([float(r[2]) for r in rows]).reshape(3, 3)
        np.testing.assert_array_equal(values, rescale_symmetric(field))

    def test_zero_field_exports_zeros(self, tmp_path):
        grid = GridSpec(2, 2)
        csv_path, pgm_path = export_heatmap(np.zeros((2, 2)), grid, tmp_path / "zero")
        values = [float(line.split(",")[2]) for line in csv_path.read_text().splitlines()[1:]]
        assert values == [0.0] * 4
        assert list(pgm_path.read_bytes().split(b"255\n", 1)[1]) == [128] * 4

    def test_non_finite_rejected(self, tmp_path):
        grid = GridSpec(2, 2)
        field = np.array([[1.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            export_heatmap(field, grid, tmp_path / "bad")

    def test_unwritable_path(self, tmp_path):
        grid = GridSpec(2, 2)
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        with pytest.raises(OSError):
            export_heatmap(np.zeros((2, 2)), grid, blocker / "nested" / "field")

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            export_heatmap(np.zeros((2, 2)), GridSpec(2, 2), tmp_path / "x", mode="log")


def oracle_heatmap_csv(values: np.ndarray, grid: GridSpec) -> bytes:
    """The former per-line formatter of write_heatmap_csv."""
    xs = [float(x) for x in grid.xs]
    ys = [float(y) for y in grid.ys]
    lines = ["x,y,value"]
    for i in range(grid.nx):
        for j in range(grid.ny):
            lines.append(f"{xs[i]!r},{ys[j]!r},{float(values[i, j])!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -0.0, the 1e-5 threshold where repr turns to exponent form, and the
# values rescaling pins (0 and the +-1 peaks)
EDGE_VALUES = [-0.0, 0.0, 1.0, -1.0, 1e-5, -1e-5, 9.999999999999999e-06, 1.0000000000000002e-05, 1e-4, 5e-324]


@st.composite
def grid_and_field(draw):
    nx, ny = draw(st.sampled_from([(3, 5), (5, 3), (2, 2), (4, 7), (11, 11)]))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1.0, 1.0))
    values = draw(st.lists(value, min_size=nx * ny, max_size=nx * ny))
    return GridSpec(nx, ny), np.array(values, dtype=float).reshape(nx, ny)


class TestHeatmapCsv:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid_and_field())
    @example((GridSpec(67, 67), np.random.default_rng(8).uniform(-1.0, 1.0, size=(67, 67))))  # two write blocks
    def test_bytes_match_per_line_formatter(self, tmp_path, data):
        grid, values = data
        path = tmp_path / "field.csv"
        write_heatmap_csv(values, grid, path)
        assert path.read_bytes() == oracle_heatmap_csv(values, grid)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_heatmap_csv(np.zeros((5, 3)), GridSpec(3, 5), tmp_path / "f.csv")


class TestCsvLineStarts:
    @pytest.mark.parametrize("nx, ny", [(2, 2), (21, 21), (201, 201), (7, 3)])
    def test_equal_to_the_per_node_form(self, nx, ny):
        grid = GridSpec(nx, ny)
        per_node = tuple(f"\n{x!r},{y!r}," for x in grid.xs.tolist() for y in grid.ys.tolist())
        assert _csv_line_starts(nx, ny) == per_node


class TestChartWorkers:
    """``export_fields`` over forked workers: the error does not depend on the worker count.

    The workers' lifecycle is tested on :func:`court_fda.native.run_shares`, in ``test_native.py``.
    """

    @pytest.fixture(autouse=True)
    def fork_on_tiny_grids(self, monkeypatch):
        monkeypatch.setattr(export, "_NODES_PER_WORKER", 1)

    @staticmethod
    def charts(tmp_path, grid, n):
        rng = np.random.default_rng(3)
        return [(rng.normal(size=(2, *grid.shape)), tmp_path / f"f{i}", "symmetric") for i in range(n)]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_the_first_failing_chart_in_chart_order_wins(self, tmp_path, monkeypatch, cores):
        # chart 3 (field 1, made) is non-finite and charts 4 and 5 have an unknown mode: at two workers
        # process 0 draws charts 0-2 and process 1 fails at 3; at three process 1 fails at 3 and process 2 at 4
        monkeypatch.setattr(export, "available_cores", lambda: cores)
        grid = GridSpec(5, 4)
        charts = self.charts(tmp_path, grid, 3)
        charts[1][0][1, 2, 2] = np.nan
        charts[2] = (charts[2][0], charts[2][1], "log")
        with pytest.raises(ValueError, match="^field contains non-finite values$"):
            export_fields(charts, grid)
        assert_no_child_left()
        assert {"f0_missed.csv", "f0_made.csv", "f1_missed.csv"} <= {p.name for p in tmp_path.iterdir()}


class TestJsonText:
    def test_compact_sorted_and_parse_equal(self):
        doc = {"b": [1.5, -0.0, 1e-05], "a": {"z": None, "y": "Dončić"}, "c": float("nan")}
        text = json_text(doc)
        assert text == '{"a":{"y":"Don\\u010di\\u0107","z":null},"b":[1.5,-0.0,1e-05],"c":NaN}\n'
        parsed = json.loads(text)
        assert parsed["a"] == doc["a"] and parsed["b"] == doc["b"]
