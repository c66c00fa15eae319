"""The benchmark's workloads: seeded inputs, set-up, one job, and output checks.

Every workload hands the library only a generated mesh. ``job`` is the timed
part; ``outcome`` and ``check`` run outside the timing. Four workloads stress
different layers (see ``BENCHMARK.json`` for the one-line reasons):

* ``tet20-q1-fix``  -- kernels and scatter at size; every step accepted.
* ``tet4-golden-backtrack`` -- the frozen regression; many backtracking
  trials per iteration on a tiny mesh, so per-call overhead dominates.
* ``mixed-iq-project`` -- hex/prism/pyramid kernels, the iq gradient and
  boundary projection.
* ``cli-io`` -- the command-line file pipeline: VTK write and read, the
  per-element mean-ratio report and a short ``smooth``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from polysmooth import cli, generators, quality, smoothing  # noqa: E402
from polysmooth import mesh as meshlib  # noqa: E402
from polysmooth.mesh import FACES, Element, ElementKind  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "cube_regression.json"
REFERENCES = HERE / "references.json"
REL_TOL = 1e-9  # the golden regression's tolerance

_MIN_MEAN_RATIO = quality.QualityMeasureSpec(quality.Measure.MEAN_RATIO, quality.Combiner.MIN)


@dataclass
class Inputs:
    """Generated mesh arrays; ``make_mesh(points, elements)`` is the set-up."""

    seed: int
    points: np.ndarray
    elements: tuple


@dataclass
class Outcome:
    """What one job produced, reduced to what the checks read."""

    digest: str
    coords: np.ndarray
    initial_quality: float
    quality: list
    termination: str
    iterations: int
    exits: tuple = ()
    initial_points: np.ndarray | None = None


def tet_cube(k: int, amplitude: float, seed: int) -> Inputs:
    """k^3 structured tet cube, interior vertices moved by up to ``amplitude``."""
    mesh = generators.perturb_mesh(generators.tet_grid(k), amplitude, seed=seed, fix_boundary=True)
    return Inputs(seed, np.array(mesh.vertices), mesh.elements)


def mixed_cube(k: int, amplitude: float, seed: int) -> Inputs:
    """k^3 hex grid; by column, cells stay hexa, split into two prisms, or into
    six pyramids around an added centre vertex.

    Columns are split whole so that every shared face matches (the prism
    split's triangles meet only their own column). Interior vertices,
    centres included, are moved by up to ``amplitude``.
    """
    grid = generators.hex_grid(k)
    points = [grid.vertices]
    elements = []
    for i, element in enumerate(grid.elements):
        v = element.vertices
        cx, cy = i % k, (i // k) % k
        column = (cx + cy) % 3
        if column == 0:
            elements.append(element)
        elif column == 1:
            elements.append(Element(ElementKind.PRISM, (v[0], v[1], v[2], v[4], v[5], v[6])))
            elements.append(Element(ElementKind.PRISM, (v[0], v[2], v[3], v[4], v[6], v[7])))
        else:
            centre = grid.n_vertices + len(points) - 1
            points.append(grid.vertices[list(v)].mean(axis=0)[None])
            for face in FACES[ElementKind.HEXA]:
                base = tuple(v[j] for j in reversed(face))  # counterclockwise seen from the centre
                elements.append(Element(ElementKind.PYRAMID, base + (centre,)))
    mesh = meshlib.make_mesh(np.vstack(points), elements)
    mesh = generators.perturb_mesh(mesh, amplitude, seed=seed, fix_boundary=True)
    return Inputs(seed, np.array(mesh.vertices), mesh.elements)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _final_objective(outcome: Outcome) -> float:
    return outcome.quality[-1] if outcome.quality else outcome.initial_quality


class Workload:
    """Base: the checks every workload shares."""

    name: str
    tets: bool

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def job(self, mesh, inputs: Inputs, pause=None):
        """The timed work. A job of several steps calls ``pause()`` between
        them; the caller may calibrate there, outside the job's time."""
        raise NotImplementedError

    def outcome(self, mesh, inputs: Inputs, raw) -> Outcome:
        raise NotImplementedError

    def references(self, seed: int) -> dict | None:
        """Frozen values the outcome must match at this seed, or None."""
        if seed != 0:
            return None
        return json.loads(REFERENCES.read_text()).get(self.name, {})

    def reference_values(self, mesh, outcome: Outcome, keys) -> dict:
        values = {"final_objective": _final_objective(outcome)}
        if "final_min_mean_ratio" in keys:
            values["final_min_mean_ratio"] = quality.mesh_quality(
                mesh, outcome.coords, _MIN_MEAN_RATIO).global_value
        if "initial_min_mean_ratio" in keys:
            values["initial_min_mean_ratio"] = quality.mesh_quality(
                mesh, spec=_MIN_MEAN_RATIO).global_value
        return values

    def reference_keys(self) -> tuple:
        return ("final_objective", "final_min_mean_ratio") if self.tets else ("final_objective",)

    def check(self, mesh, outcome: Outcome, references: dict | None) -> list[str]:
        """Problems with one outcome; an empty list means it passed."""
        problems = []
        bad_exits = [code for code in outcome.exits if code != 0]
        if bad_exits:
            problems.append(f"command exit codes {list(outcome.exits)}")
        if outcome.initial_points is not None and not np.array_equal(outcome.initial_points, mesh.vertices):
            problems.append("generated file does not hold the set-up mesh")
        history = [outcome.initial_quality] + list(outcome.quality)
        if any(not b > a for a, b in zip(history, history[1:])):
            problems.append("quality history is not strictly increasing")
        before = quality.mesh_mean_volumes(mesh)
        after = quality.mesh_mean_volumes(mesh, outcome.coords)
        inverted = np.flatnonzero((before > 0.0) & ~(after > 0.0))
        if inverted.size:
            problems.append(f"{inverted.size} valid elements ended non-positive (first {inverted[0]})")
        if references is not None:
            keys = self.reference_keys()
            missing = [key for key in keys if key not in references]
            if missing:
                problems.append(f"no frozen reference for {missing}")
            measured = self.reference_values(mesh, outcome, keys)
            for key in keys:
                if key in references and not math.isclose(measured[key], references[key], rel_tol=REL_TOL):
                    problems.append(f"{key} {measured[key]!r} differs from reference {references[key]!r}")
        return problems


class LibraryWorkload(Workload):
    """``smoothing.smooth`` on a generated mesh."""

    def __init__(self, name, make_inputs, config, tets):
        self.name, self._make_inputs, self.config, self.tets = name, make_inputs, config, tets

    def inputs(self, seed: int) -> Inputs:
        return self._make_inputs(seed)

    def job(self, mesh, inputs: Inputs, pause=None):
        return smoothing.smooth(mesh, self.config)

    def outcome(self, mesh, inputs: Inputs, raw) -> Outcome:
        coords, report = raw
        record = json.dumps(report.to_json_dict()).encode()
        return Outcome(_digest(coords.tobytes(), record), coords, report.initial_quality,
                       report.quality, report.termination.value, report.iterations)


class GoldenWorkload(LibraryWorkload):
    """The frozen 4^3 regression, checked against ``tests/golden``."""

    def references(self, seed: int) -> dict | None:
        golden = json.loads(GOLDEN.read_text())
        return {key: golden[key] for key in self.reference_keys()}

    def reference_keys(self) -> tuple:
        return ("initial_min_mean_ratio", "final_min_mean_ratio", "final_objective")


def _vtk_points(text: str) -> np.ndarray:
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("POINTS "))
    n = int(lines[header].split()[1])
    return np.array(" ".join(lines[header + 1: header + 1 + n]).split(), dtype=float).reshape(n, 3)


class CliWorkload(Workload):
    """``generate``, ``quality`` and ``smooth`` through ``cli.main`` in-process."""

    tets = True

    def __init__(self, name, size, max_iter, workdir: Path):
        self.name, self.size, self.max_iter, self.workdir = name, size, max_iter, workdir
        self.perturb = "0.015"

    def inputs(self, seed: int) -> Inputs:
        return tet_cube(self.size, float(self.perturb), seed)

    def _paths(self):
        return (self.workdir / "cube.vtk", self.workdir / "smoothed.vtk", self.workdir / "history.json")

    def job(self, mesh, inputs: Inputs, pause=None):
        cube, smoothed, history = self._paths()
        commands = (
            ["generate", "--spec", "tet-cube", "--size", str(self.size), "--perturb", self.perturb,
             "--seed", str(inputs.seed), "--out", str(cube)],
            ["quality", "--in", str(cube), "--measure", "mean-ratio", "--combiner", "min"],
            ["smooth", "--in", str(cube), "--out", str(smoothed), "--measure", "q1",
             "--boundary", "fix", "--max-iter", str(self.max_iter), "--report", str(history)],
        )
        results = []
        for i, argv in enumerate(commands):
            if i and pause is not None:
                pause()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def outcome(self, mesh, inputs: Inputs, raw) -> Outcome:
        files = []
        for path in self._paths():
            files.append(path.read_bytes() if path.exists() else b"")
            path.unlink(missing_ok=True)
        exits = tuple(code for code, _, _ in raw)
        streams = [f"{code}\n{out}\n{err}".encode() for code, out, err in raw]
        digest = _digest(*streams, *files)
        cube, smoothed, history = (f.decode("ascii") for f in files)
        report = json.loads(history) if history else {
            "initial_quality": math.nan, "quality": [], "termination": "none", "iterations": 0}
        return Outcome(
            digest,
            _vtk_points(smoothed) if smoothed else np.array(mesh.vertices),
            report["initial_quality"], report["quality"], report["termination"], report["iterations"],
            exits=exits,
            initial_points=_vtk_points(cube) if cube else None,
        )


def _q1_fix(iterations: int) -> smoothing.SmoothingConfig:
    return smoothing.SmoothingConfig(
        measure=quality.QualityMeasureSpec(quality.Measure.PRODUCT_SQUARED, quality.Combiner.SUM),
        boundary_policy=smoothing.BoundaryPolicy.FIX_BOUNDARY,
        max_iterations=iterations,
        field_tol=1e-12,
    )


def _iq_project(iterations: int) -> smoothing.SmoothingConfig:
    return smoothing.SmoothingConfig(
        measure=quality.QualityMeasureSpec(quality.Measure.ISOPERIMETRIC_QUOTIENT, quality.Combiner.SUM),
        boundary_policy=smoothing.BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY,
        max_iterations=iterations,
    )


def workloads(workdir: Path, tiny: bool = False) -> dict[str, Workload]:
    """The workloads by name; ``tiny`` shrinks every mesh for fast tests and warm-up.

    ``tet4-golden-backtrack`` always runs the regression's own perturbation
    (seed 0): its trial count is a property of the trajectory (1,165 to 2,546
    trials over perturbation seeds 0-7), so another seed would change the
    work, not just the data.
    """
    k20, k4, k6 = (3, 2, 2) if tiny else (20, 4, 6)
    steps20, steps4, steps6, steps_cli = (3, 20, 3, 2) if tiny else (5, 200, 8, 3)
    return {
        "tet20-q1-fix": LibraryWorkload(
            "tet20-q1-fix", lambda seed: tet_cube(k20, 0.3 / k20, seed), _q1_fix(steps20), tets=True),
        "tet4-golden-backtrack": GoldenWorkload(
            "tet4-golden-backtrack", lambda seed: tet_cube(k4, 0.3 / k4, 0), _q1_fix(steps4), tets=True),
        "mixed-iq-project": LibraryWorkload(
            "mixed-iq-project", lambda seed: mixed_cube(k6, 0.3 / k6, seed), _iq_project(steps6), tets=False),
        "cli-io": CliWorkload("cli-io", k20, steps_cli, workdir),
    }
