"""The benchmark's own fast checks, on tiny meshes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import TRACED, Tracer, trial_count  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def _one_job(workload, seed=0):
    inputs = workload.inputs(seed)
    mesh = wl.meshlib.make_mesh(inputs.points, inputs.elements)
    return mesh, workload.outcome(mesh, inputs, workload.job(mesh, inputs))


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    proc = _run("--workload", name, "--seconds", "0.3", "--trace", "0", "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac 0" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("--workload", "cli-io", "--seconds", "0.3", "--trace", "1", "--tiny"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["vtkio.read_mesh.calls"]["value"] == 2
    assert result["metrics"]["cli.main.calls"]["value"] == 3


def test_corrupted_reference_fails_jobs(tmp_path):
    workload = wl.workloads(tmp_path, tiny=True)["tet20-q1-fix"]
    mesh, outcome = _one_job(workload)
    frozen = workload.reference_values(mesh, outcome, workload.reference_keys())
    corrupted = dict(frozen, final_objective=frozen["final_objective"] * (1 + 1e-7))
    assert bench.measure(workload, 0, 0.2, False, frozen)["failed"] == 0
    result = bench.measure(workload, 0, 0.2, False, corrupted)
    assert result["failed_frac"] > 0
    assert any("differs from reference" in p for p in result["problems"])


def test_missing_reference_fails_jobs(tmp_path):
    workload = wl.workloads(tmp_path, tiny=True)["mixed-iq-project"]
    assert bench.measure(workload, 0, 0.2, False, {})["failed_frac"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_results_bit_identical(tmp_path, name):
    workload = wl.workloads(tmp_path, tiny=True)[name]
    _, plain = _one_job(workload, seed=1)
    tracer = Tracer(TRACED)
    tracer.job = 0
    with tracer:
        _, traced = _one_job(workload, seed=1)
    assert traced.digest == plain.digest
    stats = tracer.job_stats()[0]
    # caught through the names smoothing and quality import, not just at home
    assert stats["quality.mesh_mean_volumes"]["in_smooth"] > 0
    assert stats["mesh.kind_groups"]["calls"] > 0
    import polysmooth.quality
    import polysmooth.smoothing

    assert polysmooth.smoothing.mesh_mean_volumes is polysmooth.quality.mesh_mean_volumes
    assert not hasattr(polysmooth.quality.mesh_mean_volumes, "__wrapped__")


def test_deleted_function_is_reported_absent():
    tracer = Tracer(["mesh.no_such_function", "smoothing.smooth"])
    with tracer:
        pass
    assert tracer.absent == ["mesh.no_such_function"]


def test_trial_count_from_the_public_report():
    from polysmooth.smoothing import SmoothingConfig, SmoothingReport, Termination

    config = SmoothingConfig(sigma0=0.1, shrink=0.5, max_halvings=3)
    report = SmoothingReport(2, [1.0, 2.0], [0.1, 0.025], [1.0, 1.0], Termination.BACKTRACKING_FAILED, 0.0)
    assert trial_count(report, config) == 1 + 3 + 4


def test_calibration_scales_by_the_neighbouring_loop_times():
    from calibration import REFERENCE_S, Calibration

    calibration = Calibration()
    calibration.samples = [(0.0, 0.1), (1.0, 1.3), (2.0, 2.2)]
    assert calibration.scale(0.1, 1.0) == pytest.approx(REFERENCE_S / 0.2)  # loops of 0.1 s and 0.3 s
    assert calibration.scale(1.3, 2.0) == pytest.approx(REFERENCE_S / 0.25)


def test_mixed_mesh_is_valid_and_conforming():
    inputs = wl.mixed_cube(6, 0.3 / 6, seed=0)
    mesh = wl.meshlib.make_mesh(inputs.points, inputs.elements)
    kinds = [e.kind.value for e in mesh.elements]
    assert (kinds.count("hexa"), kinds.count("prism"), kinds.count("pyramid")) == (72, 144, 432)
    assert wl.quality.mesh_mean_volumes(mesh).min() > 0
    assert int(mesh.boundary.sum()) == 218  # cube surface only: every inner face is shared


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "tet4-golden-backtrack", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
