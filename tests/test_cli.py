"""Exit codes and artifacts of the command line driver."""

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from gibem.cli import LOG_LEVEL_ENV, _configure_logging, main
from gibem.model import build_cube_model
from gibem.modelio import write_model


@pytest.fixture(scope="module")
def cube_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cube.json"
    write_model(build_cube_model(), path)
    return path


def run_solve(cube_path, out, *extra):
    return main(["solve", str(cube_path), "--out", str(out), *extra])


def test_solve_succeeds(cube_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_solve(cube_path, out) == 0
    assert (out / "coefficients.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["dof_count"] == 78
    assert report["residual"] < 1e-10
    assert report["patches"] == 6
    assert "78 dof" in capsys.readouterr().out


def test_order_flag_grows_the_system(cube_path, tmp_path):
    small = tmp_path / "p2"
    large = tmp_path / "p4"
    assert run_solve(cube_path, small) == 0
    assert run_solve(cube_path, large, "--order", "4") == 0
    dof2 = json.loads((small / "report.json").read_text())["dof_count"]
    dof4 = json.loads((large / "report.json").read_text())["dof_count"]
    assert dof4 > dof2
    assert dof4 == 294


def test_order_below_current_keeps_model(cube_path, tmp_path):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--order", "2") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dof_count"] == 78


def test_order_below_one_fails_cleanly(cube_path, tmp_path, capsys):
    assert run_solve(cube_path, tmp_path / "run", "--order", "0") == 1
    assert "--order must be at least 1" in capsys.readouterr().err


def test_gauss_override(cube_path, tmp_path):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--gauss", "6") == 0


def test_bad_gauss_value_fails_cleanly(cube_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--gauss", "0") == 1
    assert "MODEL" in capsys.readouterr().err


def test_trace_and_vtk_artifacts(cube_path, tmp_path):
    out = tmp_path / "run"
    code = run_solve(
        cube_path, out, "--trace", "1:v1:uz:17", "--trace", "0:u0:mag:5",
        "--vtk", "--scale", "200",
    )
    assert code == 0
    assert (out / "trace_1_v1_uz.csv").exists()
    assert (out / "trace_0_u0_mag.csv").exists()
    vtk = (out / "surface.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 3.0"


def test_invalid_flag_value_exits_2(cube_path, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", str(cube_path), "--order", "two"])
    assert info.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_missing_file_reports_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "MODEL_FORMAT" in err


def test_bad_trace_selector_reports_code(cube_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--trace", "0:diagonal") == 1
    assert "MODEL" in capsys.readouterr().err
    # the failure happens before any expensive work
    assert not out.exists()


@pytest.mark.parametrize("selector", ["99:u0", "0:trim_a"])
def test_trace_selector_checked_against_model(cube_path, tmp_path, capsys,
                                              selector):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--trace", selector) == 1
    assert "gibem error MODEL:" in capsys.readouterr().err
    # the model is checked before it is solved
    assert not out.exists()


def test_traces_to_one_file_fail_cleanly(cube_path, tmp_path, capsys):
    """Selectors that differ only in their sample count name the same file."""
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--trace", "1:v1:uz:65",
                     "--trace", "1:v1:uz:9") == 1
    assert "gibem error MODEL:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_non_finite_scale_fails_cleanly(cube_path, tmp_path, capsys, scale):
    out = tmp_path / "run"
    assert run_solve(cube_path, out, "--vtk", f"--scale={scale}") == 1
    assert "gibem error MODEL:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, text", [
    ("field_interior_u", "[0.5, 0.5, 0.5]"),
    ("weights", "[[1.0, NaN], [1.0, 1.0]]"),
], ids=["repeated_field_knot", "nan_weight"])
def test_bad_numbers_fail_as_model_format(cube_path, tmp_path, capsys, key,
                                          text):
    """Rejected while parsing, before any assembly starts."""
    raw = json.loads(cube_path.read_text())
    raw["patches"][1][key] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw).replace('"@"', text))
    out = tmp_path / "run"
    assert run_solve(bad, out) == 1
    assert "gibem error MODEL_FORMAT:" in capsys.readouterr().err
    assert not out.exists()


def test_open_model_reports_unsupported(tmp_path, capsys):
    from gibem.geometry import build_quarter_cylinder
    from gibem.kernels import Material
    from gibem.model import BoundaryModel, FieldSpacePair, LoadState

    model = BoundaryModel(
        patches=[build_quarter_cylinder()],
        field_pairs=[FieldSpacePair.from_orders(2)],
        material=Material(1000.0, 0.25),
        load=LoadState([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        closed=False,
    )
    path = tmp_path / "open.json"
    write_model(model, path)
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "UNSUPPORTED_MODEL" in capsys.readouterr().err


def test_singular_solve_reports_code(cube_path, tmp_path, capsys,
                                     monkeypatch):
    def singular(model):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("gibem.cli.solve_model", singular)
    assert run_solve(cube_path, tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["gibem error SINGULAR_MATRIX: Singular matrix"]


def test_identical_runs_write_identical_csv(cube_path, tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    args = ["--trace", "1:v1:uz:21", "--trace", "2:u1:ux:9"]
    cmd = [sys.executable, "-m", "gibem", "solve", str(cube_path)]
    for out in (first, second):
        done = subprocess.run(
            cmd + ["--out", str(out)] + args,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
    for name in ("trace_1_v1_uz.csv", "trace_2_u1_ux.csv",
                 "coefficients.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def loaded_by_import(*packages):
    """Modules of ``packages`` in sys.modules after a fresh interpreter
    imports gibem.cli."""
    code = ("import sys, gibem.cli; print(sorted(name for name in sys.modules "
            f"if name.split('.')[0] in {packages!r}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert loaded_by_import("scipy") == "[]"


def test_import_loads_no_jsonschema():
    assert loaded_by_import("jsonschema", "referencing") == "[]"


def test_log_level_env(monkeypatch):
    root = logging.getLogger()
    old_handlers = root.handlers[:]
    old_level = root.level
    for handler in old_handlers:
        root.removeHandler(handler)
    try:
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        _configure_logging()
        assert root.level == logging.DEBUG
    finally:
        for handler in root.handlers[:]:
            root.removeHandler(handler)
        for handler in old_handlers:
            root.addHandler(handler)
        root.setLevel(old_level)
