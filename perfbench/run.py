#!/usr/bin/env python3
"""polysmooth benchmark: one workload per fresh process, metrics as JSON.

    python3 perfbench/run.py --workload tet20-q1-fix --seed 0 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``all`` runs every workload in its
own process, one after another. The workload names and the default of
``--seconds`` come from ``BENCHMARK.json``. Full records and trace spans go
to ``perfbench/out/``. Run from a checkout of the repository: the library is
imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in SPEC["workloads"])
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny meshes and no frozen references (the benchmark's own tests)")
    parser.add_argument("--freeze", action="store_true",
                        help="at seed 0, record this workload's missing reference values")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def freeze(workload, result) -> None:
    """Record reference values from a green seed-0 run; existing ones stay."""
    import workloads as wl

    if result["failed"] or result["seed"] != 0:
        raise SystemExit("refusing to freeze: the run is not a green seed-0 run")
    refs = json.loads(wl.REFERENCES.read_text()) if wl.REFERENCES.exists() else {}
    if workload.name in refs:
        raise SystemExit(f"{workload.name} already has frozen references; they are never rewritten")
    inputs = workload.inputs(0)
    mesh = wl.meshlib.make_mesh(inputs.points, inputs.elements)
    outcome = workload.outcome(mesh, inputs, workload.job(mesh, inputs))
    refs[workload.name] = workload.reference_values(mesh, outcome, workload.reference_keys())
    wl.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polysmooth").is_dir():
        print(f"error: no polysmooth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"  # before numpy loads: one job, one thread
    if args.workload == "all":
        return run_all(args)

    import bench
    import workloads as wl

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.workloads(workdir, tiny=args.tiny)[args.workload]
        warmup = wl.workloads(workdir, tiny=True)[args.workload]
        references = None if args.tiny or args.freeze else workload.references(args.seed)
        result = bench.measure(workload, args.seed, args.seconds, bool(args.trace), references, warmup)
        if args.freeze:
            freeze(workload, result)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    bench.report(result, OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
