"""Measure one workload: set-up samples, a closed loop of jobs, checks, metrics.

One client runs one job at a time; the next job starts when the previous one
has finished. Warm-up (imports and first calls, on a tiny mesh) precedes all
timing. With ``trace`` off the run reports the end-to-end metrics; with it on,
untraced and traced jobs alternate and the run reports per-layer metrics from
the traced jobs plus the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from calibration import REFERENCE_S, Calibration
from tracing import GEOMETRY, SMOOTH, TRACED, Tracer, trial_count

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SHARE = 0.15  # each set-up burst lasts this share of the median job so far
MIN_JOBS = 3  # per timed kind: untraced, and traced in a trace run
MAX_RUN_S = 100.0  # past this, stop once each kind has one job


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _smooth_counts(stats: dict, n_kinds: int) -> dict:
    """Trials, volume passes and field evaluations of one job's smooth calls."""
    smooth = stats.get(SMOOTH, {"runs": []})
    iterations = sum(run[1].iterations for run in smooth["runs"])
    trials = sum(trial_count(run[1], run[0]) for run in smooth["runs"])
    passes = stats.get("quality.mesh_mean_volumes", {}).get("in_smooth", 0)
    # one scatter per q1/q2/mean-volume field; the iq field runs one batch per kind
    evals = (stats.get("quality.scatter_element_fields", {}).get("in_smooth", 0)
             + stats.get("geometry.element_iq_gradients", {}).get("in_smooth", 0) / n_kinds)
    return {
        "smoothing.iterations": iterations,
        "smoothing.trials": trials,
        "smoothing.accept_ratio": iterations / trials if trials else 0.0,
        "smoothing.volume_passes": passes,
        "smoothing.volume_passes_per_trial": passes / trials if trials else 0.0,
        "smoothing.field_evals": evals,
    }


def _layer_values(stats: dict, n_kinds: int) -> dict:
    values = {}
    for name in TRACED:
        entry = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.self_s"] = entry["self_s"]
        if name in GEOMETRY:
            values[f"{name}.elems"] = entry["value"]
    elems = sum(values[f"{name}.elems"] for name in GEOMETRY)
    kernel_s = sum(values[f"{name}.self_s"] for name in GEOMETRY)
    values["geometry.elems_per_s"] = elems / kernel_s if kernel_s else 0.0
    values.update(_smooth_counts(stats, n_kinds))
    for op, name in (("read", "vtkio.read_mesh"), ("write", "vtkio.write_mesh")):
        entry = stats.get(name)
        values[f"vtkio.{op}_mb_per_s"] = entry["value"] / 1e6 / entry["s"] if entry and entry["s"] else 0.0
    return values


def measure(workload, seed: int, seconds: float, trace: bool, references, warmup=None) -> dict:
    """Run one workload for about ``seconds`` and return its result record."""
    inputs = workload.inputs(seed)
    if warmup is not None:
        tiny_inputs = warmup.inputs(seed)
        tiny_mesh = wl.meshlib.make_mesh(tiny_inputs.points, tiny_inputs.elements)
        warmup.outcome(tiny_mesh, tiny_inputs, warmup.job(tiny_mesh, tiny_inputs))

    clock = time.perf_counter
    calibration = Calibration()
    start = clock()
    calibration.sample()
    n_kinds = len({e.kind for e in inputs.elements})

    probe = Tracer([SMOOTH])  # seconds inside smooth, for the throughput
    tracer = Tracer(TRACED)
    setups = []  # (start, end) of each set-up
    jobs, times, checked, first_digest = [], [], {}, None
    deadline = start + seconds
    while True:
        # A burst of set-ups before every job, so that set-up is sampled over
        # the whole run: at least one, and for SETUP_SHARE of the median job.
        burst = clock()
        while True:
            t0 = clock()
            mesh = wl.meshlib.make_mesh(inputs.points, inputs.elements)
            setups.append((t0, clock()))
            if clock() - burst >= SETUP_SHARE * _median(times):
                break
        calibration.sample()
        traced = trace and len(jobs) % 2 == 1
        record = {"traced": traced, "problems": []}
        active = tracer if traced else probe
        active.job = len(jobs)
        try:
            steps, step_start = [], [0.0]  # (start, end) of the job's steps; pauses excluded

            def pause():
                steps.append((step_start[0], clock()))
                calibration.sample()
                step_start[0] = clock()

            with active:
                job_mesh = wl.meshlib.make_mesh(inputs.points, inputs.elements) if traced else mesh
                step_start[0] = clock()
                raw = workload.job(job_mesh, inputs, pause)
                steps.append((step_start[0], clock()))
            calibration.sample()
            record["steps"] = steps
            outcome = workload.outcome(mesh, inputs, raw)
            if outcome.digest not in checked:
                checked[outcome.digest] = workload.check(mesh, outcome, references)
            first_digest = first_digest or outcome.digest
            record["problems"] += checked[outcome.digest]
            if outcome.digest != first_digest:
                record["problems"].append("output differs from the first job's"
                                          + (" (traced)" if traced else ""))
            record.update(termination=outcome.termination, iterations=outcome.iterations)
        except Exception as exc:  # a failed job is counted, not fatal
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        jobs.append(record)
        if "steps" in record:
            times.append(record["steps"][-1][1] - record["steps"][0][0])
        untraced_n = sum(1 for job in jobs if not job["traced"])
        traced_n = len(jobs) - untraced_n
        enough = untraced_n >= MIN_JOBS and (not trace or traced_n >= MIN_JOBS)
        if enough and clock() + (1 + SETUP_SHARE) * _median(times) + 2 * REFERENCE_S > deadline:
            break
        if clock() - start > MAX_RUN_S and untraced_n and (traced_n or not trace):
            break  # a very slow program still ends well within the run's time limit

    probe_stats, traced_stats = probe.job_stats(), tracer.job_stats()
    for index, job in enumerate(jobs):
        if "steps" not in job:
            continue
        job["wall_s"] = sum(end - begin for begin, end in job["steps"])
        job["job_s"] = sum((end - begin) * calibration.scale(begin, end) for begin, end in job["steps"])
        stats = (traced_stats if job["traced"] else probe_stats).get(index, {})
        runs = stats.get(SMOOTH, {"runs": []})["runs"]
        if runs:
            work = sum(run_mesh.n_elements * report.iterations for _, report, run_mesh, _, _ in runs)
            smooth_s = sum((end - begin) * calibration.scale(begin, end) for _, _, _, begin, end in runs)
            job["elem_iters_per_s"] = work / smooth_s
        if job["traced"]:
            job["layers"] = _layer_values(stats, n_kinds)

    failed = sum(1 for job in jobs if job["problems"])
    untraced = [job for job in jobs if not job["traced"]]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "problems": sorted({p for job in jobs for p in job["problems"]}),
        "terminations": sorted({(job.get("termination"), job.get("iterations")) for job in jobs},
                               key=str),
        "setup_samples": [(end - begin) * calibration.scale(begin, end) for begin, end in setups],
        "setup_wall_s": [end - begin for begin, end in setups],
        "job_samples": [job["job_s"] for job in untraced if "job_s" in job],
        "job_wall_s": [job["wall_s"] for job in untraced if "wall_s" in job],
        "calibration_s": calibration.durations(),
        "absent": tracer.absent,
        "environment": environment(),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": _median(result["setup_samples"]),
            "job_s": _median(result["job_samples"]),
            "elem_iters_per_s": _median([job["elem_iters_per_s"] for job in untraced
                                         if "elem_iters_per_s" in job]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_jobs = [job for job in jobs if "layers" in job]
        metrics = {m["name"]: _median([job["layers"][m["name"]] for job in traced_jobs])
                   for m in SPEC["per_layer"] if m["name"] != "trace.overhead_frac"}
        plain = _median(result["job_samples"])
        metrics["trace.overhead_frac"] = (
            _median([job["job_s"] for job in traced_jobs]) - plain) / plain if plain else 0.0
        result["metrics"] = metrics
        result["spans"] = tracer
    return result


def report(result: dict, out_dir: Path) -> None:
    """Print the human summary and write the full record, then the JSON line last."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    tracer = result.pop("spans", None)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.csv")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2, default=str) + "\n")

    n_jobs = len(result["job_samples"])
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}")
    print(f"  jobs attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed_frac']:.3g}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for termination, iterations in result["terminations"]:
        print(f"  termination {termination} after {iterations} iterations")
    print(f"  {n_jobs} job samples: medians only, a tail percentile needs 10 samples beyond it")
    print(f"  times in reference seconds: calibration loop median "
          f"{_median(result['calibration_s']):.6g} s over {len(result['calibration_s'])} samples, "
          f"reference {REFERENCE_S} s")
    if result["absent"]:
        print(f"  absent from the library (reported as 0): {', '.join(result['absent'])}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = (f"  median of {len(result['setup_samples'])}; "
                    f"wall {_median(result['setup_wall_s']):.6g} s")
        elif name == "job_s":
            note = f"  median of {n_jobs}; wall {_median(result['job_wall_s']):.6g} s"
        elif name == "elem_iters_per_s":
            note = f"  median of {n_jobs}"
        print(f"  {name:48s} {value:14.6g} {UNITS[name]}{note}")
    print("env " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in result["metrics"].items()},
    }))
    sys.stdout.flush()
