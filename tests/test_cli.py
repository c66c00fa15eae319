import json
from pathlib import Path

import numpy as np
import pytest

from polysmooth.cli import main
from polysmooth.quality import mesh_mean_volumes
from polysmooth.vtkio import read_mesh


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


def test_unknown_spec_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--spec", "dodecahedron", "--out", str(tmp_path / "x.vtk")])
    assert exc.value.code == 2


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


def test_tet_cube_20_cli_contract(tmp_path, capsys):
    # at full size: generate, then a 3-step q1 smooth, twice over
    runs = []
    for name in ("first", "second"):
        cube, out, report = (str(tmp_path / f"{name}-{f}") for f in ("cube.vtk", "out.vtk", "report.json"))
        code, _, _ = _run(capsys, "generate", "--spec", "tet-cube", "--size", "20", "--perturb", "0.015",
                          "--out", cube)
        assert code == 0
        code, stdout, stderr = _run(capsys, "smooth", "--in", cube, "--out", out, "--measure", "q1",
                                    "--boundary", "fix", "--max-iter", "3", "--report", report)
        assert code == 0 and stderr == ""
        runs.append([Path(p).read_bytes() for p in (cube, out, report)] + [stdout])
    assert runs[0] == runs[1]  # byte-identical files and standard output
    doc = json.loads(runs[0][2])
    history = [doc["initial_quality"]] + doc["quality"]
    assert doc["iterations"] == 3
    assert all(b > a for a, b in zip(history, history[1:]))
    before = mesh_mean_volumes(read_mesh(cube))
    after = mesh_mean_volumes(read_mesh(out))
    assert len(before) == 48_000 and before.min() > 0
    assert after.min() > 0  # no element inverted
