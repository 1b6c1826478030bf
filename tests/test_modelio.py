"""Model file round-trips, trace CSVs, and VTK export."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gibem.errors import ModelError, ModelFormatError
from gibem.geometry import build_quarter_cylinder
from gibem.model import (
    BoundaryModel,
    FieldSpacePair,
    build_cube_model,
    build_trimmed_cube_model,
)
from gibem.kernels import Material
from gibem.modelio import (
    TraceRequest,
    load_schema,
    model_from_dict,
    model_to_dict,
    parse_model,
    _float_rows,
    parse_trace_selector,
    trace_table,
    write_coefficients,
    write_model,
    write_trace,
    write_vtk,
)
from gibem.solve import evaluate_displacement_many, solve_model


@pytest.fixture(scope="module")
def cube_case(tmp_path_factory):
    model = build_cube_model()
    path = tmp_path_factory.mktemp("io") / "cube.json"
    write_model(model, path)
    return model, path


@pytest.fixture(scope="module")
def solved_cube(cube_case):
    model, _ = cube_case
    return model, solve_model(model)


@pytest.fixture(scope="module")
def solved_trimmed():
    model = build_trimmed_cube_model()
    return model, solve_model(model)


def with_viz_samples(model, k):
    """The model with a k-by-k VTK grid per patch."""
    return model.with_config(replace(model.config, viz_samples=k))


def reload_raw(path):
    return json.loads(path.read_text())


class TestRoundTrip:
    def test_parse_reproduces_dict(self, cube_case, tmp_path):
        model, path = cube_case
        again = parse_model(path)
        assert json.dumps(model_to_dict(model)) == json.dumps(
            model_to_dict(again)
        )

    def test_second_write_is_byte_identical(self, cube_case, tmp_path):
        _, path = cube_case
        copy = tmp_path / "copy.json"
        write_model(parse_model(path), copy)
        assert copy.read_bytes() == path.read_bytes()

    def test_trimmed_model_round_trips(self, tmp_path):
        model = build_trimmed_cube_model(split=0.375)
        path = tmp_path / "trimmed.json"
        write_model(model, path)
        again = parse_model(path)
        assert json.dumps(model_to_dict(model)) == json.dumps(
            model_to_dict(again)
        )
        # trim geometry survives: same surface points on the second patch
        params = np.array([[0.2, 0.7], [0.9, 0.1], [0.5, 0.5]])
        assert_allclose(
            again.patches[1].points_at(params),
            model.patches[1].points_at(params),
            rtol=0.0, atol=0.0,
        )

    def test_interior_field_knots_round_trip(self, cube_case, tmp_path):
        model, _ = cube_case
        pairs = [
            FieldSpacePair.from_orders(2, 2, interior_u=(0.25, 0.5))
        ] + list(model.field_pairs[1:])
        refined = model.with_field_pairs(pairs)
        path = tmp_path / "refined.json"
        write_model(refined, path)
        again = parse_model(path)
        assert again.field_pairs[0].n_u == pairs[0].n_u
        assert_allclose(
            again.field_pairs[0].space_u.knots,
            pairs[0].space_u.knots,
        )

    def test_quarter_cylinder_file_matches_fixture(self, tmp_path):
        fixture = build_quarter_cylinder(radius=2.0, length=3.0)
        model = BoundaryModel(
            patches=[fixture],
            field_pairs=[FieldSpacePair.from_orders(2)],
            material=Material(1000.0, 0.25),
            closed=False,
        )
        path = tmp_path / "quarter.json"
        write_model(model, path)
        again = parse_model(path).patches[0]
        assert_allclose(again.weights, fixture.weights, rtol=0.0, atol=0.0)
        assert_allclose(
            again.control_points, fixture.control_points, rtol=0.0, atol=0.0
        )
        assert_allclose(
            again.space_u.knots, fixture.space_u.knots
        )
        params = np.array([[0.5, 0.5], [0.0, 1.0], [0.25, 0.75]])
        assert_allclose(
            again.points_at(params), fixture.points_at(params),
            rtol=0.0, atol=0.0,
        )


class TestRoundTripProperties:
    """Serialization is lossless for arbitrary (valid) parameter choices."""

    @settings(max_examples=25, deadline=None)
    @given(
        split=st.floats(min_value=0.05, max_value=0.95),
        youngs=st.floats(min_value=1.0, max_value=1e6),
        poisson=st.floats(min_value=-0.4, max_value=0.45),
    )
    def test_trimmed_model_dict_round_trip(self, split, youngs, poisson):
        from gibem.geometry import NurbsPatch, TrimmedPatch, straight_trim_pair
        from gibem.kernels import Material
        from gibem.splines import unit_interval_space

        line = unit_interval_space(1)
        control = np.zeros((2, 2, 3))
        control[:, :, 0] = [[0.0, 0.0], [1.0, 1.0]]
        control[:, :, 1] = [[0.0, 1.0], [0.0, 1.0]]
        square = NurbsPatch(line, line, control, np.ones((2, 2)))
        patch = TrimmedPatch(square, *straight_trim_pair(0.0, split))
        model = BoundaryModel(
            patches=[patch],
            field_pairs=[FieldSpacePair.from_orders(2)],
            material=Material(youngs, poisson),
            closed=False,
        )
        raw = json.loads(json.dumps(model_to_dict(model)))
        again = model_from_dict(raw)
        assert json.dumps(model_to_dict(again)) == json.dumps(
            model_to_dict(model)
        )

    @given(
        patch_index=st.integers(min_value=0, max_value=50),
        selector=st.sampled_from(["u0", "u1", "v0", "v1", "trim_a", "trim_b"]),
        component=st.sampled_from(["ux", "uy", "uz", "mag"]),
        samples=st.integers(min_value=2, max_value=500),
    )
    def test_selector_text_round_trip(
        self, patch_index, selector, component, samples
    ):
        req = TraceRequest(patch_index, selector, component, samples)
        text = f"{patch_index}:{selector}:{component}:{samples}"
        assert parse_trace_selector(text) == req


class TestParseErrors:
    def test_missing_weights_points_at_patch(self, cube_case, tmp_path):
        _, path = cube_case
        raw = reload_raw(path)
        del raw["patches"][3]["weights"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ModelFormatError) as info:
            parse_model(bad)
        assert info.value.location == "/patches/3"
        assert "weights" in str(info.value)

    def test_single_trim_curve_rejected(self, cube_case, tmp_path):
        _, path = cube_case
        raw = reload_raw(path)
        raw["patches"][0]["trim"] = {
            "curve_a": {
                "degree": 1,
                "knots": [0.0, 0.0, 1.0, 1.0],
                "control_points": [[0.25, 0.0], [0.25, 1.0]],
            }
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ModelFormatError) as info:
            parse_model(bad)
        assert "curve_b" in str(info.value)
        assert info.value.location.startswith("/patches/0")

    def test_geometry_violation_names_patch(self, cube_case, tmp_path):
        _, path = cube_case
        raw = reload_raw(path)
        raw["patches"][2]["knots_u"] = [0.0, 1.0, 0.0, 1.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ModelFormatError, match="patch 2"):
            parse_model(bad)

    def test_bad_material_located(self, cube_case, tmp_path):
        _, path = cube_case
        raw = reload_raw(path)
        raw["material"]["youngs_modulus"] = -5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ModelFormatError) as info:
            parse_model(bad)
        assert info.value.location.startswith("/material")

    def test_unknown_top_level_key_rejected(self, cube_case, tmp_path):
        _, path = cube_case
        raw = reload_raw(path)
        raw["patchez"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ModelFormatError):
            parse_model(bad)

    def test_field_knot_repeated_above_degree(self, cube_case):
        model, _ = cube_case
        raw = model_to_dict(model)
        raw["patches"][1]["field_interior_u"] = [0.5, 0.5, 0.5]
        with pytest.raises(ModelFormatError, match="repeats knot 0.5") as info:
            model_from_dict(raw)
        assert info.value.location == "/patches/1"

    def test_nan_weight_in_decoded_dict(self):
        # json.loads with parse_constant rejects NaN text; a dict built in
        # Python reaches the patch check instead
        shipped = Path(__file__).resolve().parents[1] / "models" / "cube.json"
        raw = json.loads(shipped.read_text())
        raw["patches"][2]["weights"][0][0] = float("nan")
        with pytest.raises(ModelFormatError, match="finite") as info:
            model_from_dict(raw)
        assert info.value.location == "/patches/2"

    @pytest.mark.parametrize("path, value", [
        (("config", "merge_tol"), "NaN"),
        (("config", "quadtree_threshold"), "NaN"),
        (("patches", 0, "knots_u", 2), "Infinity"),
        (("patches", 2, "weights", 0, 0), "NaN"),
        (("patches", 4, "control_points", 1, 1, 0), "-Infinity"),
        (("patches", 1, "field_interior_u"), "[NaN]"),
    ], ids=["merge_tol", "quadtree_threshold", "knots", "weights",
            "control_points", "field_interior_u"])
    def test_non_finite_numbers_rejected(self, cube_case, tmp_path, path,
                                         value):
        _, good = cube_case
        raw = reload_raw(good)
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"@"', value))
        with pytest.raises(ModelFormatError, match="non-finite number"):
            parse_model(bad)

    def test_integral_floats_in_config_accepted(self, cube_case):
        model, _ = cube_case
        raw = model_to_dict(model)
        raw["config"].update(gauss_order=6.0, quadtree_max_depth=2.0)
        config = model_from_dict(raw).config
        assert (config.gauss_order, config.quadtree_max_depth) == (6, 2)
        assert type(config.gauss_order) is int

    def test_garbage_text_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            parse_model(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            parse_model(tmp_path / "nope.json")

    def test_schema_loads(self):
        schema = load_schema()
        assert schema["type"] == "object"
        assert "patches" in schema["required"]


class TestTraceRequest:
    def test_defaults(self):
        req = parse_trace_selector("3:v0")
        assert req == TraceRequest(3, "v0", "uz", 65)

    def test_full_form(self):
        req = parse_trace_selector("1:u1:mag:9")
        assert req == TraceRequest(1, "u1", "mag", 9)

    @pytest.mark.parametrize("text", [
        "v0", "a:v0", "1:v9", "1:u0:uq", "1:u0:uz:x", "1:u0:uz:65:extra",
    ])
    def test_bad_selector_text(self, text):
        with pytest.raises(ModelError):
            parse_trace_selector(text)

    def test_sample_floor(self):
        with pytest.raises(ModelError, match="two samples"):
            TraceRequest(0, "u0", samples=1)


class TestTrace:
    def test_constant_solution_gives_constant_column(self, solved_cube):
        model, solution = solved_cube
        # top face of the cube: uz is uniform over the whole face
        arc, positions, values = trace_table(
            model, solution, TraceRequest(1, "v1", "uz", 33)
        )
        assert values.max() - values.min() < 1e-8
        assert_allclose(values.mean(), 5e-4, atol=1e-8)

    def test_two_samples_are_the_endpoints(self, solved_cube):
        model, solution = solved_cube
        arc, positions, _ = trace_table(
            model, solution, TraceRequest(0, "v0", "uz", 2)
        )
        edge = model.patches[0].points_at(
            np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        assert_allclose(positions, edge, rtol=0.0, atol=0.0)
        assert arc[0] == 0.0
        assert_allclose(arc[1], np.linalg.norm(edge[1] - edge[0]))

    def test_arc_length_increases(self, solved_cube):
        model, solution = solved_cube
        arc, _, _ = trace_table(
            model, solution, TraceRequest(2, "u0", "mag", 17)
        )
        assert arc[0] == 0.0
        assert np.all(np.diff(arc) > 0.0)

    def test_trim_trace_matches_displacement_evaluation(self, solved_trimmed):
        model, solution = solved_trimmed
        samples = 11
        arc, positions, values = trace_table(
            model, solution, TraceRequest(1, "trim_a", "uz", samples)
        )
        ts = np.linspace(0.0, 1.0, samples)
        patch = model.patches[1]
        expected_pos = patch.points_at(
            np.column_stack([np.zeros_like(ts), ts])
        )
        assert_allclose(positions, expected_pos, rtol=0.0, atol=0.0)
        expected = np.array([
            evaluate_displacement_many(model, solution, 1, [[0.0, t]])[0][2]
            for t in ts
        ])
        assert_allclose(values, expected, rtol=0.0, atol=0.0)

    def test_trim_selector_needs_trimmed_patch(self, solved_cube):
        model, solution = solved_cube
        with pytest.raises(ModelError, match="not trimmed"):
            trace_table(model, solution, TraceRequest(0, "trim_b"))

    def test_patch_range_checked(self, solved_cube):
        model, solution = solved_cube
        with pytest.raises(ModelError, match="out of range"):
            trace_table(model, solution, TraceRequest(6, "u0"))

    def test_write_is_deterministic(self, solved_cube, tmp_path):
        model, solution = solved_cube
        req = TraceRequest(1, "v1", "uz", 9)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_trace(model, solution, req, first)
        write_trace(model, solution, req, second)
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "arc_length,x,y,z,uz"


class TestVtk:
    def test_layout_and_counts(self, solved_cube, tmp_path):
        model, solution = solved_cube
        path = tmp_path / "surface.vtk"
        write_vtk(with_viz_samples(model, 5), solution, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        n_points = 6 * 5 * 5
        n_cells = 6 * 4 * 4
        assert lines[4] == f"POINTS {n_points} double"
        cells_at = 5 + n_points
        assert lines[cells_at] == f"CELLS {n_cells} {5 * n_cells}"
        assert lines[cells_at + n_cells + 1] == f"CELL_TYPES {n_cells}"
        types = lines[cells_at + n_cells + 2:cells_at + 2 * n_cells + 2]
        assert set(types) == {"9"}
        assert f"POINT_DATA {n_points}" in lines
        assert "VECTORS displacement double" in lines

    def test_scale_zero_keeps_geometry(self, solved_cube, tmp_path):
        model, solution = solved_cube
        path = tmp_path / "flat.vtk"
        write_vtk(with_viz_samples(model, 3), solution, path, scale=0.0)
        lines = path.read_text().splitlines()
        points = np.array([
            [float(c) for c in line.split()] for line in lines[5:5 + 9]
        ])
        ts = np.linspace(0.0, 1.0, 3)
        uu, vv = np.meshgrid(ts, ts, indexing="ij")
        params = np.column_stack([uu.ravel(), vv.ravel()])
        assert_allclose(
            points, model.patches[0].points_at(params), rtol=0.0, atol=0.0
        )

    def test_scale_warps_by_displacement(self, solved_cube, tmp_path):
        model, solution = solved_cube
        flat = tmp_path / "flat.vtk"
        warped = tmp_path / "warped.vtk"
        model = with_viz_samples(model, 3)
        write_vtk(model, solution, flat, scale=0.0)
        write_vtk(model, solution, warped, scale=50.0)

        def grab(path, start, count):
            lines = path.read_text().splitlines()
            return np.array([
                [float(c) for c in line.split()]
                for line in lines[start:start + count]
            ])

        n_points = 6 * 9
        base = grab(flat, 5, n_points)
        moved = grab(warped, 5, n_points)
        # the displacement block sits after points, cells, and cell types
        data_at = 5 + n_points + 1 + 6 * 4 + 1 + 6 * 4 + 2
        disp = grab(flat, data_at, n_points)
        assert_allclose(moved, base + 50.0 * disp, rtol=0.0, atol=1e-12)

    def test_grid_floor(self, solved_cube, tmp_path):
        model, solution = solved_cube
        with pytest.raises(ModelError, match="viz_samples"):
            with_viz_samples(model, 1)
        path = tmp_path / "floor.vtk"
        write_vtk(with_viz_samples(model, 2), solution, path)
        lines = path.read_text().splitlines()
        assert lines[4] == f"POINTS {6 * 4} double"
        assert f"CELLS 6 {5 * 6}" in lines


def _reference_vtk(model, solution, k, scale=0.0):
    """The VTK writer as one repr call per float and a loop per cell."""
    ts = np.linspace(0.0, 1.0, k)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    params = np.column_stack([uu.ravel(), vv.ravel()])
    points, vectors, cells = [], [], []
    offset = 0
    for index, patch in enumerate(model.patches):
        disp = evaluate_displacement_many(model, solution, index, params)
        pos = patch.points_at(params)
        points.append(pos + scale * disp if scale else pos)
        vectors.append(disp)
        for i in range(k - 1):
            for j in range(k - 1):
                a = offset + i * k + j
                cells.append((a, a + k, a + k + 1, a + 1))
        offset += k * k
    points, vectors = np.vstack(points), np.vstack(vectors)
    lines = ["# vtk DataFile Version 3.0", "gibem boundary surface", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    lines += [" ".join(repr(float(c)) for c in row) for row in points]
    lines.append(f"CELLS {len(cells)} {5 * len(cells)}")
    lines += ["4 " + " ".join(str(c) for c in quad) for quad in cells]
    lines.append(f"CELL_TYPES {len(cells)}")
    lines += ["9"] * len(cells)
    lines.append(f"POINT_DATA {len(points)}")
    lines.append("VECTORS displacement double")
    lines += [" ".join(repr(float(c)) for c in row) for row in vectors]
    return "\n".join(lines) + "\n"


def _reference_trace(model, solution, request):
    arc, positions, values = trace_table(model, solution, request)
    lines = [f"arc_length,x,y,z,{request.component}"]
    for a, pos, val in zip(arc, positions, values):
        cells = [repr(float(a))]
        cells += [repr(float(c)) for c in pos]
        cells.append(repr(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_coefficients(solution):
    coeffs = solution.coefficients.reshape(-1, 3)
    lines = ["node,x,y,z,ux,uy,uz"]
    for index, position in enumerate(solution.colloc.positions):
        cells = [str(index)]
        cells += [repr(float(c)) for c in position]
        cells += [repr(float(c)) for c in coeffs[index]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestWrittenBytes:
    """The writers produce the bytes of plain per-float ``repr`` loops."""

    def test_vtk(self, solved_trimmed, tmp_path):
        model, solution = solved_trimmed
        path = tmp_path / "surface.vtk"
        write_vtk(with_viz_samples(model, 7), solution, path)
        expected = _reference_vtk(model, solution, 7).encode("utf-8")
        assert path.read_bytes() == expected

    def test_trace(self, solved_trimmed, tmp_path):
        model, solution = solved_trimmed
        request = TraceRequest(1, "trim_a", "mag", 33)
        path = tmp_path / "trace.csv"
        write_trace(model, solution, request, path)
        expected = _reference_trace(model, solution, request).encode("utf-8")
        assert path.read_bytes() == expected

    def test_coefficients(self, solved_trimmed, tmp_path):
        _, solution = solved_trimmed
        path = tmp_path / "coefficients.csv"
        write_coefficients(solution, path)
        expected = _reference_coefficients(solution).encode("utf-8")
        assert path.read_bytes() == expected

    def test_warped_vtk(self, solved_trimmed, tmp_path):
        model, solution = solved_trimmed
        path = tmp_path / "warped.vtk"
        write_vtk(with_viz_samples(model, 7), solution, path, scale=50.0)
        expected = _reference_vtk(model, solution, 7, scale=50.0)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_untrimmed_edge_trace(self, solved_trimmed, tmp_path):
        model, solution = solved_trimmed
        request = TraceRequest(3, "v0", "ux", 17)
        path = tmp_path / "trace.csv"
        write_trace(model, solution, request, path)
        expected = _reference_trace(model, solution, request).encode("utf-8")
        assert path.read_bytes() == expected


class TestFloatRows:
    VALUES = [-0.0, 0.0, 1e-05, 1e16, 1.5e+16, 5e-324,
              1.7976931348623157e308, float("nan"), float("inf"),
              float("-inf"), 0.1, -2.5, 1.0 / 3.0, 123456789.0, -7e-310]

    @pytest.mark.parametrize("ncols", [1, 3, 5])
    def test_matches_repr_per_float(self, ncols):
        table = np.array(self.VALUES).reshape(-1, ncols)
        expected = "\n".join(
            ",".join(repr(float(c)) for c in row) for row in table
        )
        assert _float_rows(table, ",") == expected
        assert _float_rows(table, " ") == expected.replace(",", " ")


class TestNoPartialFiles:
    """A failed evaluation leaves no file behind."""

    @pytest.fixture
    def failing_third_patch(self, monkeypatch):
        import gibem.modelio

        def evaluate(model, solution, patch_index, params):
            if patch_index == 2:
                raise ModelError("patch 2 cannot be evaluated")
            return evaluate_displacement_many(model, solution, patch_index,
                                              params)

        monkeypatch.setattr(gibem.modelio, "evaluate_displacement_many",
                            evaluate)

    def test_vtk(self, solved_trimmed, failing_third_patch, tmp_path):
        model, solution = solved_trimmed
        path = tmp_path / "surface.vtk"
        with pytest.raises(ModelError, match="cannot be evaluated"):
            write_vtk(with_viz_samples(model, 5), solution, path)
        assert not path.exists()

    def test_trace(self, solved_trimmed, failing_third_patch, tmp_path):
        model, solution = solved_trimmed
        path = tmp_path / "trace.csv"
        with pytest.raises(ModelError, match="cannot be evaluated"):
            write_trace(model, solution, TraceRequest(2, "trim_b", "mag", 9),
                        path)
        assert not path.exists()
