"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 input error (a grid size past the
face-matching limit or too large to allocate included), 4 numerical failure
(backtracking exhaustion, a failed gradient check). All randomness is seeded
(default 0), so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import fdcheck, generators, geometry, quality, smoothing, vtkio
from .errors import (
    InvalidElement,
    InvalidSpec,
    MalformedFile,
    PolysmoothError,
    UnsupportedCellType,
)

_INPUT_ERRORS = (MalformedFile, UnsupportedCellType, InvalidSpec, InvalidElement, OSError, MemoryError)


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, the seeds numpy's generators take."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _measure_spec(args) -> quality.QualityMeasureSpec:
    return quality.QualityMeasureSpec(
        measure=quality.Measure(args.measure),
        combiner=quality.Combiner(getattr(args, "combiner", "mean")),
        volume_shift=getattr(args, "shift", None),
    )


def _report_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``, with the ``per_element`` list written by the C
    encoder: ``indent`` selects the pure-Python one, which is slow on long lists."""
    values = report["per_element"]
    text = json.dumps({**report, "per_element": []}, indent=2)
    if not values:
        return text
    items = json.dumps(values, separators=(",\n    ", ": "))[1:-1]
    return text.replace('"per_element": []', f'"per_element": [\n    {items}\n  ]')


def _cmd_quality(args) -> int:
    mesh = vtkio.read_mesh(args.infile)
    report = quality.mesh_quality(mesh, spec=_measure_spec(args))
    sys.stdout.write(_report_json(report.to_json_dict()) + "\n")
    return 0


def _write_report(report: smoothing.SmoothingReport, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w", newline="\n") as fh:
            fh.write(report.to_csv_text())
    else:
        with open(path, "w", newline="\n") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _cmd_smooth(args) -> int:
    mesh = vtkio.read_mesh(args.infile)
    config = smoothing.SmoothingConfig(
        measure=_measure_spec(args),
        assembly=smoothing.Assembly(args.assembly),
        sigma0=args.sigma0,
        max_iterations=args.max_iter,
        quality_tol=args.quality_tol,
        field_tol=args.field_tol,
        boundary_policy=smoothing.BoundaryPolicy(args.boundary),
    )
    coords, report = smoothing.smooth(mesh, config)
    vtkio.write_mesh(mesh, args.outfile, coords=coords)
    if args.report:
        _write_report(report, args.report)
    last = report.quality[-1] if report.quality else report.initial_quality
    print(
        f"iterations={report.iterations} termination={report.termination.value} "
        f"objective {report.initial_quality!r} -> {last!r}"
    )
    if report.termination is smoothing.Termination.BACKTRACKING_FAILED:
        return 4
    return 0


def _cmd_check_gradients(args) -> int:
    reports = fdcheck.gradient_suite(samples=args.samples, tol=args.tol, seed=args.seed)
    for rep in reports:
        print(rep.summary())
    return 0 if all(r.passed for r in reports) else 4


def _cmd_generate(args) -> int:
    inner = None
    if args.inner:
        try:
            inner = tuple(float(p) for p in args.inner.split(","))
        except ValueError:
            inner = ()
        if len(inner) != 3:
            raise InvalidSpec(f"--inner expects 'x,y,z', got {args.inner!r}")
    spec = generators.GeneratorSpec(
        name=args.spec,
        size=args.size,
        seed=args.seed,
        perturb=args.perturb,
        fix_boundary=not args.perturb_boundary,
        inner=inner,
    )
    mesh = generators.generate(spec)
    vtkio.write_mesh(mesh, args.outfile)
    return 0


def _cmd_demo_icosahedron(args) -> int:
    if not 0 <= args.perturb < math.inf:  # the amplitudes perturb_mesh accepts
        raise InvalidSpec(f"--perturb must be finite and >= 0, got {args.perturb}")
    coords, faces = generators.icosahedron_polyhedron()
    regular_iq = geometry.polyhedron_iq(faces, coords)
    start = coords + generators.random_displacements(len(coords), args.perturb * 2.0, args.seed)  # edge 2
    config = smoothing.SmoothingConfig(
        sigma0=args.sigma0, max_iterations=args.max_iter, field_tol=1e-10
    )
    final, report = smoothing.smooth_polyhedron(start, faces, config)
    print(f"regular iq {regular_iq!r}")
    print(f"start   iq {report.initial_quality!r}")
    for i, (q, s) in enumerate(zip(report.quality, report.sigma), 1):
        print(f"{i:4d} {q:.12f} {s:.3e}")
    final_iq = report.quality[-1] if report.quality else report.initial_quality
    print(
        f"final iq {final_iq!r} (gap to regular {regular_iq - final_iq:.3e}), "
        f"termination={report.termination.value}"
    )
    if args.report:
        _write_report(report, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysmooth",
        description="Quality reporting and ascent smoothing for mixed-volume meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    measures = [m.value for m in quality.Measure]

    p = sub.add_parser("quality", help="evaluate a quality measure, print a JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--measure", required=True, choices=measures)
    p.add_argument("--combiner", default="mean", choices=[c.value for c in quality.Combiner])
    p.add_argument("--shift", type=float, default=None, help="volume shift for q1/q2")
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("smooth", help="smooth a mesh and write the result", description=(
        "Smooth a mesh and write the result. When every element starts with a positive mean volume, "
        "steps that would invert an element are rejected; when any element starts inverted or flat, "
        "no step is guarded, so elements that started valid may invert."))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--measure", required=True, choices=measures)
    p.add_argument("--sigma0", type=float, default=0.1)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--boundary", default="fix", choices=[b.value for b in smoothing.BoundaryPolicy])
    p.add_argument("--assembly", default="raw", choices=[a.value for a in smoothing.Assembly])
    p.add_argument("--field-tol", type=float, default=1e-12)
    p.add_argument("--quality-tol", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--report", default=None, help="write iteration history (.json or .csv)")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("check-gradients", help="run the finite-difference oracle suite")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_check_gradients)

    p = sub.add_parser("generate", help="write a built-in test mesh")
    p.add_argument("--spec", required=True, choices=generators.GENERATOR_NAMES)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--size", type=int, default=2, help="cells per side for grid specs")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--perturb-boundary", action="store_true",
                   help="also displace boundary vertices")
    p.add_argument("--inner", default=None, help="inner vertex 'x,y,z' for inner-tet")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("demo-icosahedron",
                       help="roundness ascent on a perturbed regular icosahedron")
    p.add_argument("--perturb", type=float, default=0.05, help="amplitude as fraction of edge length")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--sigma0", type=float, default=0.1)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_demo_icosahedron)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PolysmoothError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
