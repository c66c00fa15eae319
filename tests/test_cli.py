import json
import math
from pathlib import Path

import numpy as np
import pytest

from polysmooth.cli import _report_json, main
from polysmooth.quality import mesh_mean_volumes
from polysmooth.vtkio import read_mesh

GOLDEN = Path(__file__).parent / "golden" / "cube_regression.json"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quality_regular_tet_mean_ratio(tmp_path, capsys):
    mesh_path = str(tmp_path / "rt.vtk")
    assert main(["generate", "--spec", "regular-tetra", "--out", mesh_path]) == 0
    capsys.readouterr()
    code, out, _ = _run(capsys, "quality", "--in", mesh_path, "--measure", "mean-ratio")
    assert code == 0
    doc = json.loads(out)
    assert doc["global"] == pytest.approx(1.0, abs=1e-12)
    assert doc["measure"] == "mean-ratio"


@pytest.mark.parametrize("values", [[0.25], [math.nan], [math.inf, -math.inf, -0.0, 1e-310, 0.1, 1.5e300], []])
def test_quality_report_text_is_indented_json(values):
    report = {"measure": "q1", "combiner": "mean", "global": math.nan, "log_global": -math.inf,
              "min": 0.0, "max": math.inf, "mean": 0.5, "invalid_count": 0, "per_element": values}
    assert _report_json(report) == json.dumps(report, indent=2)


def test_quality_command_prints_indented_json(tmp_path, capsys):
    mesh_path = str(tmp_path / "cube.vtk")
    assert main(["generate", "--spec", "tet-cube", "--size", "2", "--perturb", "0.1", "--out", mesh_path]) == 0
    capsys.readouterr()
    code, out, _ = _run(capsys, "quality", "--in", mesh_path, "--measure", "mean-ratio")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)["per_element"]) == 48


def test_smooth_writes_mesh_and_increasing_report(tmp_path, capsys):
    src = str(tmp_path / "in.vtk")
    dst = str(tmp_path / "out.vtk")
    rep = str(tmp_path / "report.json")
    assert main(["generate", "--spec", "inner-tet", "--inner", "0.5,0.33,0.3", "--out", src]) == 0
    code, out, _ = _run(
        capsys,
        "smooth", "--in", src, "--out", dst, "--measure", "q1",
        "--boundary", "fix", "--max-iter", "10", "--report", rep,
    )
    assert code == 0
    assert "termination=" in out
    history = json.loads(open(rep).read())
    qs = [history["initial_quality"]] + history["quality"]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    from polysmooth.vtkio import read_mesh

    out_mesh = read_mesh(dst)
    assert out_mesh.n_vertices == 5


def test_smooth_csv_report(tmp_path, capsys):
    src = str(tmp_path / "in.vtk")
    assert main(["generate", "--spec", "inner-tet", "--inner", "0.5,0.4,0.3", "--out", src]) == 0
    rep = str(tmp_path / "trace.csv")
    code, _, _ = _run(
        capsys,
        "smooth", "--in", src, "--out", str(tmp_path / "o.vtk"), "--measure", "q1",
        "--max-iter", "5", "--report", rep,
    )
    assert code == 0
    lines = open(rep).read().splitlines()
    assert lines[0] == "iteration,quality,sigma,field_norm"
    assert len(lines) == 6


def test_check_gradients_passes(capsys):
    code, out, _ = _run(capsys, "check-gradients", "--samples", "2", "--seed", "1")
    assert code == 0
    assert "FAIL" not in out
    assert "mean-volume gradient [tetra]" in out


def test_generate_deterministic_bytes(tmp_path, capsys):
    a, b = str(tmp_path / "a.vtk"), str(tmp_path / "b.vtk")
    for path in (a, b):
        assert main([
            "generate", "--spec", "tet-cube", "--size", "2",
            "--perturb", "0.05", "--seed", "9", "--out", path,
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("boundary", ["free", "project"])
def test_smooth_deterministic_bytes(tmp_path, capsys, boundary):
    src = str(tmp_path / "in.vtk")
    assert main(["generate", "--spec", "hex-cube", "--size", "2", "--perturb", "0.05", "--out", src]) == 0
    capsys.readouterr()
    runs = []
    for name in ("a", "b"):
        out, rep = tmp_path / f"{name}.vtk", tmp_path / f"{name}.json"
        code, stdout, _ = _run(
            capsys,
            "smooth", "--in", src, "--out", str(out), "--measure", "q2",
            "--boundary", boundary, "--max-iter", "10", "--report", str(rep),
        )
        runs.append((code, stdout, out.read_bytes(), rep.read_bytes()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_structured_cube_pipeline_reproduces_the_golden_file(tmp_path, capsys):
    """The structured-cube regression of acceptance criterion 10, run as the README's commands."""
    src, dst, rep = (str(tmp_path / name) for name in ("bumpy.vtk", "smooth.vtk", "history.json"))

    def min_mean_ratio(path):
        code, out, _ = _run(capsys, "quality", "--in", path, "--measure", "mean-ratio", "--combiner", "min")
        assert code == 0
        return json.loads(out)["global"]

    assert main(["generate", "--spec", "tet-cube", "--size", "4", "--perturb", "0.075", "--seed", "0",
                 "--out", src]) == 0
    before = min_mean_ratio(src)
    code, _, _ = _run(capsys, "smooth", "--in", src, "--out", dst, "--measure", "q1", "--boundary", "fix",
                      "--max-iter", "200", "--report", rep)
    assert code == 0
    after = min_mean_ratio(dst)
    history = json.loads(Path(rep).read_text())
    golden = json.loads(GOLDEN.read_text())
    assert history["iterations"] == golden["iterations"]
    assert history["termination"] == golden["termination"]
    assert before == pytest.approx(golden["initial_min_mean_ratio"], rel=1e-9)
    assert after == pytest.approx(golden["final_min_mean_ratio"], rel=1e-9)
    assert history["quality"][-1] == pytest.approx(golden["final_objective"], rel=1e-9)


@pytest.mark.parametrize("measure, code, ending", [
    ("mean-volume", 0, "iterations=0 termination=field_below_tol "),
    # stationary to rounding, yet reported as a numerical failure: ROADMAP item 6's open case
    ("q1", 4, "iterations=17 termination=backtracking_failed "),
])
def test_inner_vertex_flows(tmp_path, capsys, measure, code, ending):
    """The raw mean-volume field leaves the inner vertex where it is (its four incident face normals
    cancel), while the product measure pulls it to the centroid of the outer tetrahedron."""
    src, dst = str(tmp_path / "in.vtk"), str(tmp_path / "out.vtk")
    assert main(["generate", "--spec", "inner-tet", "--inner", "0.5,0.35,0.30", "--out", src]) == 0
    got, out, _ = _run(capsys, "smooth", "--in", src, "--out", dst, "--measure", measure)
    assert (got, out[:len(ending)]) == (code, ending)
    before, after = read_mesh(src).vertices, read_mesh(dst).vertices
    assert np.array_equal(after[:4], before[:4])
    if measure == "mean-volume":
        assert np.array_equal(after[4], [0.5, 0.35, 0.30])
    else:
        assert np.linalg.norm(after[4] - before[:4].mean(axis=0)) < 1e-7


def test_unknown_spec_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--spec", "dodecahedron", "--out", str(tmp_path / "x.vtk")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", "tet-cube", "--perturb", "0.1"], ["demo-icosahedron"], ["check-gradients"]])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.vtk"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out)] if argv[0] == "generate" else []) + ["--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("argument --seed: must be >= 0, got -1")
    assert not out.exists()


def test_bad_size_is_input_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, "generate", "--spec", "hex-cube", "--size", "0",
        "--out", str(tmp_path / "x.vtk"),
    )
    assert code == 3
    assert "error" in err


def test_missing_input_file(tmp_path, capsys):
    code, _, err = _run(capsys, "quality", "--in", str(tmp_path / "nope.vtk"), "--measure", "iq")
    assert code == 3


def test_smooth_zero_field_with_zero_tolerance(tmp_path, capsys):
    src = str(tmp_path / "tet.vtk")
    assert main(["generate", "--spec", "unit-tetra", "--out", src]) == 0
    code, out, _ = _run(capsys, "smooth", "--in", src, "--out", str(tmp_path / "out.vtk"),
                        "--measure", "q1", "--field-tol", "0")
    assert code == 0
    assert "iterations=0 termination=field_below_tol" in out


def test_mean_ratio_on_mixed_mesh_is_numerical_failure(tmp_path, capsys):
    path = str(tmp_path / "hex.vtk")
    assert main(["generate", "--spec", "unit-hexa", "--out", path]) == 0
    code, _, err = _run(capsys, "quality", "--in", path, "--measure", "mean-ratio")
    assert code == 4


def test_demo_icosahedron(tmp_path, capsys):
    rep = str(tmp_path / "iq.json")
    code, out, _ = _run(
        capsys, "demo-icosahedron", "--perturb", "0.03", "--max-iter", "30",
        "--seed", "2", "--report", rep,
    )
    assert code == 0
    assert "regular iq" in out
    assert "final iq" in out
    history = json.loads(open(rep).read())
    qs = [history["initial_quality"]] + history["quality"]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "polysmooth.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "smooth" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", "inner-tet", "--inner", "a,b,c", "--out", "{tmp}/x.vtk"],
    ["check-gradients", "--samples", "0"],
    ["check-gradients", "--samples", "-2"],
    ["check-gradients", "--tol", "nan"],
    ["check-gradients", "--tol", "-1"],
    ["generate", "--spec", "tet-cube", "--perturb", "inf", "--out", "{tmp}/x.vtk"],
    ["demo-icosahedron", "--perturb", "inf"],
    ["demo-icosahedron", "--perturb", "nan"],
    ["demo-icosahedron", "--perturb", "-0.05"],
    # more vertices than face matching can key: refused before any allocation
    ["generate", "--spec", "tet-cube", "--size", "100000", "--out", "{tmp}/x.vtk"],
    ["generate", "--spec", "tet-cube", "--size", "10000000", "--out", "{tmp}/x.vtk"],
    ["generate", "--spec", "hex-cube", "--size", "100000000000000000000", "--out", "{tmp}/x.vtk"],
    # finite, but twice it, the amplitude in edge lengths of 2, is not
    ["demo-icosahedron", "--perturb", "1e308"],
])
def test_bad_argument_values_exit_without_traceback(argv, tmp_path):
    import subprocess
    import sys

    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "polysmooth.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode in (2, 3)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_free_smooth_of_a_mesh_without_vertices_is_a_numerical_failure(tmp_path):
    import subprocess
    import sys

    src = tmp_path / "empty.vtk"
    src.write_text("# vtk DataFile Version 3.0\nempty\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                   "POINTS 0 double\nCELLS 0 0\nCELL_TYPES 0\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "polysmooth.cli", "smooth", "--in", str(src),
         "--out", str(tmp_path / "out.vtk"), "--measure", "q1", "--boundary", "free"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == ["numerical failure: no vertices; shape projection undefined"]


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", "tet-cube", "--perturb", "nan"],
    ["quality", "--measure", "q1", "--shift", "nan"],
    ["quality", "--measure", "q1", "--shift", "inf"],
    ["smooth", "--measure", "q1", "--sigma0", "inf"],
    ["smooth", "--measure", "q1", "--field-tol", "nan"],
    ["smooth", "--measure", "q1", "--quality-tol", "nan"],
])
def test_non_finite_numbers_are_input_errors(argv, tmp_path, capsys):
    src, dst = str(tmp_path / "in.vtk"), str(tmp_path / "out.vtk")
    assert main(["generate", "--spec", "unit-tetra", "--out", src]) == 0
    files = {"generate": ["--out", dst], "quality": ["--in", src], "smooth": ["--in", src, "--out", dst]}
    code, out, err = _run(capsys, *argv, *files[argv[0]])
    assert code == 3
    assert err.startswith("error: ") and out == ""
    assert not Path(dst).exists()


def _tet_cube_20_contract(tmp_path, capsys, boundary, perturb):
    """At full size: generate, then a 3-step q1 smooth, twice over. Both runs exit 0 and write the same
    bytes, the quality rises strictly, and under the project policy every boundary vertex stays on the
    surface of the unit cube. Returns the generated and the smoothed mesh."""
    runs = []
    for name in ("first", "second"):
        cube, out, report = (str(tmp_path / f"{name}-{f}") for f in ("cube.vtk", "out.vtk", "report.json"))
        code, _, _ = _run(capsys, "generate", "--spec", "tet-cube", "--size", "20", "--perturb", perturb,
                          "--out", cube)
        assert code == 0
        code, stdout, stderr = _run(capsys, "smooth", "--in", cube, "--out", out, "--measure", "q1",
                                    "--boundary", boundary, "--max-iter", "3", "--report", report)
        assert code == 0 and stderr == ""
        runs.append([Path(p).read_bytes() for p in (cube, out, report)] + [stdout])
    assert runs[0] == runs[1]  # byte-identical files and standard output
    doc = json.loads(runs[0][2])
    history = [doc["initial_quality"]] + doc["quality"]
    assert doc["iterations"] == 3
    assert all(b > a for a, b in zip(history, history[1:]))
    smoothed = read_mesh(out)
    if boundary == "project":
        x = smoothed.vertices[smoothed.boundary]
        assert np.all(np.minimum(x, 1.0 - x).min(axis=1) <= 1e-12)
        assert np.all((x >= -1e-12) & (x <= 1.0 + 1e-12))
    return read_mesh(cube), smoothed


@pytest.mark.parametrize("boundary", ["fix", "project"])
def test_tet_cube_20_cli_contract(boundary, tmp_path, capsys):
    cube, smoothed = _tet_cube_20_contract(tmp_path, capsys, boundary, "0.015")
    before, after = mesh_mean_volumes(cube), mesh_mean_volumes(smoothed)
    assert len(before) == 48_000 and before.min() > 0
    assert after.min() > 0  # no element inverted


def test_tet_cube_20_project_contract_at_the_generate_perturbation(tmp_path, capsys):
    # generate's own --perturb 0.2: trial steps move boundary vertices past the finest grid's reach.
    # Thousands of tets start inverted, so the driver runs unguarded and inversions are not checked.
    cube, _ = _tet_cube_20_contract(tmp_path, capsys, "project", "0.2")
    assert mesh_mean_volumes(cube).min() < 0
