#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Each of two sets runs every workload once per seed 0 to 9, each run in a
fresh process (``run.py``) for ``run_seconds``. For every
end-to-end metric and workload it reports the median of each set, the
spread of each set (interquartile range over the median) and how far the
second median lies from the first, as a share of the first. The sets agree
when every spread, ``setup_s``'s included, and that distance, in either
direction, are within the metric's bound from ``BENCHMARK.json``. Exits 1
when they do not agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def run_once(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    values = {}  # (set, workload, metric) -> [values]
    failures = 0
    for s in range(SETS):
        for seed in range(SEEDS):
            for name in names:
                result = run_once(name, seed)
                failures += result["failed"]
                for metric, entry in result["metrics"].items():
                    values.setdefault((s, name, metric), []).append(entry["value"])
                print(f"set {s} seed {seed} {name}: " + "  ".join(
                    f"{m} {e['value']:.6g}" for m, e in result["metrics"].items()), flush=True)

    agree = failures == 0
    rows = []
    print(f"\n{'workload':24s} {'metric':18s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s):>12s} {'spread' + str(s):>8s}" for s in range(SETS)) + "   diff  ok")
    for name in names:
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = [statistics.median(values[(s, name, m)]) for s in range(SETS)]
            spreads = [spread(values[(s, name, m)]) for s in range(SETS)]
            diff = (medians[1] - medians[0]) / medians[0]
            ok = abs(diff) <= bound and all(sp <= bound for sp in spreads)
            agree &= ok
            rows.append({"workload": name, "metric": m, "bound": bound, "medians": medians,
                         "spreads": spreads, "diff": diff, "ok": ok})
            print(f"{name:24s} {m:18s} {bound:6.2f} " + " ".join(
                f"{med:12.6g} {sp:8.3f}" for med, sp in zip(medians, spreads))
                + f"  {diff:+.3f}  {'yes' if ok else 'NO'}")
    print(f"\nfailed jobs: {failures}; sets agree within bounds: {'yes' if agree else 'no'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
