"""Spans around polysmooth's public functions, installed from outside the library.

A :class:`Tracer` replaces each listed function at every ``polysmooth.*``
module attribute bound to that same function object, so calls made through
re-exports (``smoothing.mesh_mean_volumes``, ``quality.kind_groups``,
``vtkio.make_mesh``) are caught as well as calls inside the defining module.
Spans ``[function, start_ns, end_ns, parent, job]`` are kept in memory;
:meth:`Tracer.job_stats` turns them into per-job call counts, inclusive and
self times, and the smoothing counts derived from the public
:class:`~polysmooth.smoothing.SmoothingReport`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
TRACED = [name for names in LAYERS["traced"].values() for name in names]
GEOMETRY = LAYERS["traced"]["geometry"]  # batched kernels: each call also counts its elements
SMOOTH = "smoothing.smooth"


def _batch_size(args, kwargs, result):
    return len(result)


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _smooth_run(args, kwargs, result):
    from polysmooth.smoothing import SmoothingConfig

    mesh = args[0] if args else kwargs["mesh"]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return config or SmoothingConfig(), result[1], mesh


_OBSERVERS = {name: _batch_size for name in GEOMETRY}
_OBSERVERS.update({
    "vtkio.read_mesh": _read_bytes,
    "vtkio.write_mesh": _written_bytes,
    SMOOTH: _smooth_run,
})


def trial_count(report, config) -> int:
    """Backtracking trials of one smooth call, from its public report.

    An accepted step at ``sigma0 * shrink**h`` took ``h + 1`` trials; a
    ``backtracking_failed`` iteration spent all ``max_halvings + 1``.
    """
    trials = sum(
        1 + round(math.log(s / config.sigma0) / math.log(config.shrink)) for s in report.sigma
    )
    if report.termination.value == "backtracking_failed":
        trials += config.max_halvings + 1
    return trials


class Tracer:
    """Record spans of the named functions while installed (see module doc)."""

    def __init__(self, functions):
        self.names = list(functions)
        self.absent: list[str] = []
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "polysmooth" or name.startswith("polysmooth."))]
        self.absent = []
        for index, name in enumerate(self.names):
            module_name, attr = name.rsplit(".", 1)
            module = sys.modules.get(f"polysmooth.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original, _OBSERVERS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def _wrap(self, index, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as CSV: function, start_ns, end_ns, parent, job."""
        with open(path, "w", newline="\n") as fh:
            fh.write("span,function,start_ns,end_ns,parent,job\n")
            for i, (fn, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fn]},{start},{end},{parent},{job}\n")

    def job_stats(self) -> dict:
        """Per job: ``{function: {calls, s, self_s, value}}`` plus smoothing counts.

        ``value`` sums the per-call quantity (batch size, file bytes); the
        ``smooth`` entry holds ``(config, report, mesh, start_s, end_s)`` of
        each call, on the ``time.perf_counter`` clock.
        Volume passes and field evaluations count only calls made inside
        ``smooth``.
        """
        child_ns = [0] * len(self.spans)
        in_smooth = [False] * len(self.spans)
        smooth_index = self.names.index(SMOOTH) if SMOOTH in self.names else -2
        for i, (fn, start, end, parent, _job, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                in_smooth[i] = in_smooth[parent] or self.spans[parent][0] == smooth_index
        jobs: dict = {}
        for i, (fn, start, end, parent, job, value) in enumerate(self.spans):
            entry = jobs.setdefault(job, {}).setdefault(
                self.names[fn], {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "runs": [], "in_smooth": 0})
            entry["calls"] += 1
            entry["s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[i]) * 1e-9
            entry["in_smooth"] += in_smooth[i]
            if self.names[fn] == SMOOTH:
                entry["runs"].append((*value, start * 1e-9, end * 1e-9))
            elif value is not None:
                entry["value"] += value
        return jobs
