"""Field assembly, the step operator and the driver.

The driver performs ascent on a global quality objective: evaluate the
measure's gradient-direction field, zero it on vertices frozen by the
boundary policy, normalize it so the step commutes with scaling, then
backtrack the step size until the objective strictly increases. For the
product measure the driver tracks the logarithm of the product, which has
the same maximizers and an identical gradient direction but cannot
underflow on large meshes.

A flow declares the problem: its volume pass, score (the objective) and
field from the measure table in :mod:`polysmooth.quality`, the field's
closed-form scaling degree (2 for the mean volume, -1 for q1, -7 for q2, -1
for iq; 1, the raw field, under a nonzero q1/q2 volume shift, which makes
the field inhomogeneous) and the boundary policy. Its ``direction`` is the
one place the field is normalized, and the driver owns the one inversion
guard. The policy is decided once, when the flow is set up: the field is
zero on fixed vertices (fix), and every step is mapped back onto the shape
sphere (free) or onto the start's boundary surface (project). A free run is
set up on the shape representative of its start, so its volume shift and
trajectory do not depend on the scale of the input.

Backtracking evaluates its trials in rounds, each one stack with one constrain
call, one volume pass and one score per row, and accepts the first row above
the objective: the step of a search one trial at a time, which a round that
raises runs instead. A round holds at most 8 trials and no more kernel blocks
than one (one trial from half a block); one round ends one trial past the one
the iteration before accepted (``sigma0`` alone after ``sigma0``). Under the
project policy the start's boundary faces are triangulated once
(:class:`_Surface`), and each round maps all its boundary vertices in one
exact, batched search (:func:`_closest_points`).

Per-element work is pure and accumulated in fixed element order, so results
are bit-reproducible run to run.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable

import numpy as np

from . import geometry
from .errors import DegenerateMesh, InvalidSpec, IsolatedVertex
from .mesh import Mesh, _boundary_faces, _checked_coords, vertex_array
from .quality import (
    _MEASURES,
    Measure,
    QualityMeasureSpec,
    _gradient_measure,
    _require_positive,
    _shifted,
    _volume_shift,
    _stack_limit,
    mesh_mean_volumes,
    scatter_element_fields,
)


class Assembly(Enum):
    RAW_SUM = "raw"
    VALENCE_AVERAGED = "averaged"


class BoundaryPolicy(Enum):
    FIX_BOUNDARY = "fix"
    PROJECT_TO_ORIGINAL_BOUNDARY = "project"
    FREE = "free"


class Termination(Enum):
    FIELD_BELOW_TOL = "field_below_tol"
    QUALITY_STALLED = "quality_stalled"
    MAX_ITERATIONS = "max_iterations"
    BACKTRACKING_FAILED = "backtracking_failed"


@dataclass(frozen=True)
class SmoothingConfig:
    """Driver parameters; defaults suit desk-scale meshes."""

    measure: QualityMeasureSpec = dc_field(
        default_factory=lambda: QualityMeasureSpec(Measure.PRODUCT_SQUARED)
    )
    assembly: Assembly = Assembly.RAW_SUM
    sigma0: float = 0.1
    max_iterations: int = 100
    quality_tol: float = 0.0
    field_tol: float = 1e-12
    boundary_policy: BoundaryPolicy = BoundaryPolicy.FIX_BOUNDARY
    shrink: float = 0.5
    max_halvings: int = 40

    def __post_init__(self):
        if not 0 < self.sigma0 < np.inf:
            raise InvalidSpec("sigma0 must be positive and finite")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidSpec("shrink factor must lie in (0, 1)")
        for name in ("max_iterations", "max_halvings"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.max_iterations < 0 or self.max_halvings < 0:
            raise InvalidSpec("iteration and halving caps must be >= 0")
        if not (self.field_tol >= 0 and self.quality_tol >= 0):
            raise InvalidSpec("tolerances must be >= 0 (not NaN)")


@dataclass
class SmoothingReport:
    """Per-iteration history of one driver run.

    ``quality[i]`` is the objective after accepted step i (the log objective
    for the product measure); the sequence is strictly increasing until
    termination.
    """

    iterations: int
    quality: list[float]
    sigma: list[float]
    field_norm: list[float]
    termination: Termination
    initial_quality: float

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "termination": self.termination.value,
            "initial_quality": self.initial_quality,
            "quality": self.quality,
            "sigma": self.sigma,
            "field_norm": self.field_norm,
        }

    def to_csv_text(self) -> str:
        lines = ["iteration,quality,sigma,field_norm"]
        for i, (q, s, f) in enumerate(zip(self.quality, self.sigma, self.field_norm), 1):
            lines.append(f"{i},{q!r},{s!r},{f!r}")
        return "\n".join(lines) + "\n"


def assemble_field(mesh: Mesh, coords=None, assembly: Assembly = Assembly.RAW_SUM) -> np.ndarray:
    """Scatter per-element transformation fields to vertices and sum; optionally average.

    Valence averaging divides vertex i's total by the number of elements
    containing it and is undefined on isolated vertices.
    """
    return _averaged(mesh, scatter_element_fields(mesh, _checked_coords(mesh, coords)), assembly)


def _averaged(mesh: Mesh, field: np.ndarray, assembly: Assembly) -> np.ndarray:
    if assembly is Assembly.VALENCE_AVERAGED:
        if np.any(mesh.valence == 0):
            raise IsolatedVertex("valence averaging undefined on isolated vertices")
        return field / mesh.valence[:, None]
    return field


def project_shape(coords) -> np.ndarray:
    """Quotient out translation and scale: center on the vertex centroid and
    divide by the Frobenius norm of the centered coordinates."""
    coords = np.asarray(coords, dtype=float)
    if not len(coords):
        raise DegenerateMesh("no vertices; shape projection undefined")
    centered = coords - coords.mean(axis=0)
    norm = float(np.linalg.norm(centered))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateMesh("all vertices coincide; shape projection undefined")
    return centered / norm


def _normalized(field: np.ndarray, norm: float, degree: float) -> np.ndarray:
    """``field``, whose norm is ``norm`` and whose scaling degree is ``degree`` (not 0), rescaled to degree 1:
    times ``norm^((1-d)/d)``; the zero field maps to zero."""
    if norm == 0.0:
        return np.zeros_like(field)
    return norm ** ((1.0 - degree) / degree) * field


# -- driver ------------------------------------------------------------------
_ROUND = 8  # the most trials of one backtracking that one stacked volume pass evaluates


@dataclass
class _Flow:
    """One ascent problem, with the boundary policy already applied.

    ``volumes(c)`` is the one volume pass over a stack ``c`` (k, n, 3), (k, M)
    (a mesh's raw mean volumes; a polyhedron's volume), which ``score(c,
    vols)``, the objective of each row, and ``field(x, v)``, at one row, reuse;
    both apply any volume shift themselves. ``field`` is zero on the vertices
    the policy fixes, and ``degree`` is its scaling degree. ``constrain(moved)``
    maps each row back onto the identity (fix), the shape sphere (free) or the
    original boundary surface (project; see :func:`_closest_points`).
    ``guarded`` is False only where the score is ``-inf`` at a volume <= 0 by
    itself (unshifted q1 and q2). ``stack``: the most trials one pass takes.
    """

    volumes: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]
    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    degree: float
    constrain: Callable[[np.ndarray], np.ndarray]
    guarded: bool = True
    stack: int = 1

    def direction(self, coords: np.ndarray, vols: np.ndarray) -> tuple[np.ndarray, float]:
        """The step direction at ``coords``, the field scaled to degree 1, and the field's norm."""
        f = self.field(coords, vols)
        norm = float(np.linalg.norm(f))
        return _normalized(f, norm, self.degree), norm


def _shapes(moved: np.ndarray) -> np.ndarray:
    """:func:`project_shape` of each row of a stack (k, n, 3), or NaN where it raises (an overflowed trial),
    which neither the guard nor any objective accepts."""
    out = np.full_like(moved, np.nan)
    for row, x in zip(out, moved):
        with contextlib.suppress(DegenerateMesh):
            row[...] = project_shape(x)
    return out


def _boundary_triangles(mesh: Mesh, coords: np.ndarray) -> np.ndarray:
    """Boundary surface as triangles (T, 3, 3) in face order, quads split along their shorter diagonal;
    the order decides ties between equally close triangles, so it is part of the result."""
    corners = _boundary_faces(mesh)
    quad = corners[:, 3] != corners[:, 0]
    d = coords[corners]
    ac, bd = d[:, 0] - d[:, 2], d[:, 1] - d[:, 3]
    # row by row, (1, 3) @ (3, 1) rounds as np.linalg.norm of one vector does; a sum over axis 1 does not
    short = (np.sqrt(ac[:, None] @ ac[:, :, None]) <= np.sqrt(bd[:, None] @ bd[:, :, None])).ravel()
    first = np.where((quad & ~short)[:, None], corners[:, [0, 1, 3]], corners[:, :3])
    second = np.where(short[:, None], corners[:, [0, 2, 3]], corners[:, 1:])[quad]
    tris = np.insert(first, np.flatnonzero(quad) + 1, second, axis=0)
    return coords[tris]


@dataclass(frozen=True)
class _Surface:
    """A triangle soup set up for :func:`_closest_points`.

    The corners ``a``, ``b``, ``c`` are stored component-major, each (T, 3)
    in triangle order. Triangle t lies in the ball of centre ``g[:, t]`` (its
    centroid; ``g`` is (3, T), for one-dimensional gathers) and radius
    ``r[t]`` (the largest corner distance from it); ``scale`` is the largest
    coordinate magnitude, and ``low`` and ``high`` bound the corners.

    The centroids are binned in uniform grids (Ericson, *Real-Time Collision
    Detection*, sections 7.1 and 7.2), built on first use by :meth:`grid`.
    Grid k has ``shape`` cubic cells of edge ``h * 2**k`` from the corner
    ``lo``: ``h`` is 1.5 times the largest radius (coarser only when that
    would make more than about 27 cells per triangle), and the grid covers
    every corner with a margin of one cell. The triangles whose centroid
    lies in the 27 cells around cell i (i in C order) are
    ``near[start[i]:start[i + 1]]``, in index order. For a point in cell i,
    or clamped to it from outside, each other triangle has a lower distance
    bound of at least ``h * 2**k - max(r)``; ``reach`` is that, less a slack
    far above rounding. The last grid, the first wider than the corners'
    extent, lists every triangle in every cell and has infinite reach.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    g: np.ndarray
    r: np.ndarray
    scale: float
    low: np.ndarray
    high: np.ndarray
    h: float
    grids: list = dc_field(default_factory=list)

    @classmethod
    def of(cls, tris: np.ndarray) -> _Surface:
        a, b, c = (np.ascontiguousarray(tris[:, k]) for k in range(3))
        g = (a + b + c) / 3.0
        r = np.sqrt(np.max([np.einsum("ij,ij->i", x - g, x - g) for x in (a, b, c)], axis=0, initial=0.0))
        scale = float(np.abs(tris).max(initial=0.0))
        corners = tris.reshape(-1, 3)
        # scale bounds every coordinate, so it changes nothing but an empty soup's box
        low, high = corners.min(axis=0, initial=scale), corners.max(axis=0, initial=-scale)
        # the extent term caps the cells near 27 per triangle (small triangles far apart)
        h = max(1.5 * float(r.max(initial=0.0)), float((high - low).max()) / np.cbrt(27 * max(len(r), 1))) or 1.0
        return cls(a, b, c, np.ascontiguousarray(g.T), r, scale, low, high, h)

    def grid(self, k: int) -> _Grid:
        while len(self.grids) <= k:
            h = self.h * 2.0 ** len(self.grids)
            lo = self.low - h
            shape = (np.floor((self.high - lo) / h) + 2).astype(np.intp)
            # a centroid rounded past the corners stays off the margin, so its 27 cells exist
            cell = np.clip(np.floor((self.g.T - lo) / h), 1, shape - 2).astype(np.intp)
            stride = np.array([shape[1] * shape[2], shape[2], 1])
            around = ((cell @ stride)[:, None] + _AROUND @ stride).ravel()
            near = np.argsort(around, kind="stable") // len(_AROUND)
            start = np.concatenate([[0], np.cumsum(np.bincount(around, minlength=int(np.prod(shape))))])
            # with 3 cells an axis every centroid is in the middle cell, so every cell lists every triangle
            reach = np.inf if shape.max() <= 3 else h - self.r.max(initial=0.0) - 1e-9 * (h + self.scale)
            self.grids.append(_Grid(lo, h, shape, start, near, reach))
        return self.grids[k]

    def slacked(self, upper: np.ndarray) -> np.ndarray:
        """An upper bound on a distance, plus a slack far above the rounding of any distance here."""
        return upper + 1e-9 * (upper + self.scale)


_AROUND = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
_Grid = namedtuple("_Grid", "lo h shape start near reach")

# (vertex, triangle) pairs per block: 128 kB per float temporary, about 1 MB in all
_BLOCK_PAIRS = 1 << 14


def _closest_points(surface: _Surface, pts: np.ndarray) -> np.ndarray:
    """Closest point on the surface to each row of ``pts`` (m, 3).

    Bit for bit the per-point search over every triangle: the smallest
    distance, the lowest triangle index on ties, and the first NaN distance
    when there is one (as ``np.argmin``). The exact point-triangle test runs
    only on the pairs the bounding spheres cannot rule out: triangle t is
    skipped for point p when ``|p-g| - r`` exceeds an upper bound on the
    smallest distance by more than a slack far above rounding.

    Each point searches the grids of :class:`_Surface` from the finest, in
    blocks of about ``_BLOCK_PAIRS`` pairs. It takes the triangles around
    its cell, clamped to the grid, as candidates, and the exact distance to
    the candidate with the smallest ``|p-g| + r`` is its upper bound. When
    that bound stays below the grid's ``reach``, no other triangle can be
    closer or tie; otherwise the point goes on to the next grid. The last
    grid settles every point; there a non-finite point keeps every triangle.
    """
    out = np.empty_like(pts)
    todo, level = np.arange(len(pts)), 0
    while len(todo):
        grid, p = surface.grid(level), pts[todo]
        # fmax sends a NaN coordinate to cell 0: no cell settles it before the last grid
        q = np.fmin(np.fmax(np.floor((p - grid.lo) / grid.h), 0), grid.shape - 1).astype(np.intp)
        cell = np.ravel_multi_index(tuple(q.T), grid.shape)
        first, n = grid.start[cell], grid.start[cell + 1] - grid.start[cell]
        offset = np.cumsum(n) - n
        bound, settled = np.full(len(p), np.nan), np.full(len(p), grid.reach == np.inf)  # NaN: no candidates
        for block in np.split(np.arange(len(p)), np.flatnonzero(np.diff(offset // _BLOCK_PAIRS)) + 1):
            rows = np.repeat(block, n[block])
            tri = grid.near[np.repeat(first[block] - offset[block], n[block]) + offset[block[0]] + np.arange(len(rows))]
            centre = np.sqrt(sum((p.T[k][rows] - surface.g[k][tri]) ** 2 for k in range(3)))
            r = surface.r[tri]
            best = _first_min(centre + r, rows)
            ids, best = rows[best], tri[best]
            bound[ids] = surface.slacked(_closest_on_pairs(surface.a[best], surface.b[best], surface.c[best], p[ids])[1])
            settled[block] |= bound[block] < grid.reach
            keep = np.flatnonzero(settled[rows] & ~(centre - r > bound[rows]))
            out[todo[block[settled[block]]]] = _nearest(surface, p, rows[keep], tri[keep])
        todo, level = todo[~settled], level + 1
    return out


def _nearest(surface: _Surface, p: np.ndarray, rows: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Closest point to ``p[rows]`` on triangles ``tri``, for each row in order.

    The pairs are sorted by row, then triangle, so the first hit of a row's
    minimum is ``np.argmin``'s pick.
    """
    corners = (np.take(x, tri, axis=0) for x in (surface.a, surface.b, surface.c))
    cand, dist = _closest_on_pairs(*corners, np.take(p, rows, axis=0))
    return cand[_first_min(dist, rows)]


def _first_min(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each run of equal ``rows`` (sorted), the index of its first minimum, or first NaN."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    low = np.repeat(np.minimum.reduceat(values, starts), np.diff(starts, append=len(rows)))
    hits = np.flatnonzero((values == low) | (np.isnan(values) & np.isnan(low)))
    return hits[np.flatnonzero(np.diff(rows[hits], prepend=-1))]


def _closest_on_pairs(a, b, c, p) -> tuple[np.ndarray, np.ndarray]:
    """Closest point on triangle (a, b, c) to p, row by row, and its distance.

    Ericson, *Real-Time Collision Detection*, section 5.1.5, by Voronoi region.
    """
    ab, ac = b - a, c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe(x, cond):
        return np.where(cond, x, 1.0)

    on_a = (d1 <= 0) & (d2 <= 0)
    on_b = (d3 >= 0) & (d4 <= d3)
    on_c = (d6 >= 0) & (d5 <= d6)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    t_ab = d1 / safe(d1 - d3, on_ab)
    t_ac = d2 / safe(d2 - d6, on_ac)
    t_bc = (d4 - d3) / safe((d4 - d3) + (d5 - d6), on_bc)
    denom = safe(va + vb + vc, ~(on_a | on_b | on_c | on_ab | on_ac | on_bc))
    v_face = vb / denom
    w_face = vc / denom

    cand = a + v_face[:, None] * ab + w_face[:, None] * ac
    cand = np.where(on_bc[:, None], b + t_bc[:, None] * (c - b), cand)
    cand = np.where(on_ac[:, None], a + t_ac[:, None] * ac, cand)
    cand = np.where(on_ab[:, None], a + t_ab[:, None] * ab, cand)
    cand = np.where(on_c[:, None], c, cand)
    cand = np.where(on_b[:, None], b, cand)
    cand = np.where(on_a[:, None], a, cand)
    return cand, np.linalg.norm(cand - p, axis=1)


def _trials(flow: _Flow, guard: bool, coords: np.ndarray, direction: np.ndarray, sigmas: list, q: float):
    """``(sigma, coords, vols, score)`` of the first trial at ``sigmas`` that scores above ``q``, or None,
    from one stack (k, n, 3): one constrain call, one volume pass, and one score of the rows the guard keeps."""
    cand = flow.constrain(np.multiply.outer(sigmas, direction) + coords)
    vols = flow.volumes(cand)
    keep = slice(None) if not guard or vols.min() > 0.0 else np.flatnonzero(vols.min(axis=1) > 0.0)
    if not isinstance(keep, slice) and not keep.size:  # the guard rejects every trial: nothing to score
        return None
    scores = np.full(len(sigmas), -np.inf)
    scores[keep] = flow.score(cand[keep], vols[keep])
    return next(((sigmas[j], cand[j], vols[j], s) for j, s in enumerate(scores.tolist()) if s > q), None)


def _drive(coords: np.ndarray, flow: _Flow, vols: np.ndarray,
           config: SmoothingConfig) -> tuple[np.ndarray, SmoothingReport]:
    """Backtracking ascent from ``coords``, whose volume pass is ``vols``.

    The one inversion guard: when the flow is guarded and every start volume
    is positive, a trial with a volume <= 0 scores ``-inf``. An iteration
    evaluates its trials in rounds of up to ``flow.stack`` and accepts the
    first above the objective. Step sizes change slowly, so one round ends one
    trial past the one the iteration before accepted (``sigma0`` alone after
    ``sigma0``), the first holding what full rounds leave over. A round that
    raises, or meets a floating-point error, runs again one trial at a time,
    so steps, results, errors and warnings are those of a sequential search.
    """
    guard = flow.guarded and bool(np.all(vols > 0.0))
    q = float(flow.score(coords[None], vols[None])[0])
    report = SmoothingReport(0, [], [], [], Termination.MAX_ITERATIONS, q)
    last = 0  # the accepted trial's index among its iteration's step sizes
    for _ in range(config.max_iterations):
        direction, fnorm = flow.direction(coords, vols)
        if fnorm <= config.field_tol:
            report.termination = Termination.FIELD_BELOW_TOL
            break

        # each step size once: after one that shrinking leaves unchanged (0.0), every trial would repeat its own
        steps = (s for s, _ in itertools.groupby(itertools.accumulate(
            itertools.repeat(config.shrink, config.max_halvings), operator.mul, initial=config.sigma0)))
        sizes = itertools.chain([(last + bool(last)) % flow.stack + 1], itertools.repeat(flow.stack))
        done, accepted = 0, None
        while not accepted and (sigmas := list(itertools.islice(steps, next(sizes)))):
            try:  # a round that raises, or meets a floating-point error, runs again a trial at a time
                with (np.errstate(over="raise", divide="raise", invalid="raise") if sigmas[1:]
                      else contextlib.nullcontext()):
                    accepted = _trials(flow, guard, coords, direction, sigmas, q)
            except Exception:
                accepted = next(filter(None, (_trials(flow, guard, coords, direction, [s], q) for s in sigmas)), None)
            done += len(sigmas)
        if not accepted:
            report.termination = Termination.BACKTRACKING_FAILED
            break

        sigma, coords, vols, qc = accepted
        last = done - len(sigmas) + sigmas.index(sigma)
        report.quality.append(qc)
        report.sigma.append(sigma)
        report.field_norm.append(fnorm)
        gain, q = qc - q, qc
        if gain < config.quality_tol:
            report.termination = Termination.QUALITY_STALLED
            break
    report.iterations = len(report.quality)
    return coords, report


def _build_flow(mesh: Mesh, config: SmoothingConfig,
                coords0: np.ndarray) -> tuple[_Flow, np.ndarray]:
    """The flow of ``config`` on ``mesh``, and its volume pass at ``coords0``.

    That one pass serves the volume shift and the validity check here, and
    the guard decision and the start's objective in :func:`_drive`. Under the
    project policy the boundary surface at ``coords0`` is set up once, as a
    :class:`_Surface`.
    """
    spec = config.measure
    measure = _gradient_measure(spec)
    vols0 = mesh_mean_volumes(mesh, coords0)
    shift = spec.volume_shift
    if measure.shifted:
        if shift is None:
            shift = _volume_shift(vols0, coords0)
        _require_positive(vols0 + shift)

    policy = config.boundary_policy
    fixed = np.flatnonzero(mesh.boundary) if policy is BoundaryPolicy.FIX_BOUNDARY else None

    def score(c, vols):
        return measure.objective(mesh, c, _shifted(vols, shift))

    def field(c, vols):
        f = measure.vertex_field(mesh, c, _shifted(vols, shift))
        f /= measure.divisor  # a fresh array
        f = _averaged(mesh, f, config.assembly)
        if fixed is not None:
            f[fixed] = 0.0
        return f

    if policy is BoundaryPolicy.FREE:
        constrain = _shapes
    elif policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY:
        surface = _Surface.of(_boundary_triangles(mesh, coords0))
        on_boundary = np.nonzero(mesh.boundary)[0]

        def constrain(moved):
            points = moved[:, on_boundary]
            moved[:, on_boundary] = _closest_points(surface, points.reshape(-1, 3)).reshape(points.shape)
            return moved
    else:
        def constrain(moved):
            return moved

    # a shifted field is not homogeneous: step along the raw field; an unshifted q1 or q2 score guards itself
    flow = _Flow(lambda c: mesh_mean_volumes(mesh, c), score, field, 1.0 if shift else measure.degree, constrain,
                 guarded=bool(shift) or not measure.shifted,
                 stack=_stack_limit(mesh, _ROUND, measure.rows))
    return flow, vols0


def smoothing_step(mesh: Mesh, coords, config: SmoothingConfig, sigma: float) -> np.ndarray:
    """One smoothing step with a fixed step size (no backtracking).

    Free policy expects coordinates on the shape sphere (see
    :func:`project_shape`) and returns coordinates on it, or NaN where the
    step overflows; a zero step size or a vanishing field returns the input
    unchanged. ``sigma`` must be finite and >= 0 (``InvalidSpec`` otherwise).
    """
    if not 0.0 <= sigma < np.inf:
        raise InvalidSpec(f"sigma must be finite and >= 0, got {sigma!r}")
    coords = np.array(_checked_coords(mesh, coords))
    flow, vols = _build_flow(mesh, config, coords)
    direction, norm = flow.direction(coords, vols)
    if sigma == 0.0 or norm == 0.0:
        return coords
    return flow.constrain((coords + sigma * direction)[None])[0]


def smooth(mesh: Mesh, config: SmoothingConfig | None = None, coords=None) -> tuple[np.ndarray, SmoothingReport]:
    """Ascend the configured quality measure until a stopping rule fires.

    The driver ascends the sum form of the measure (the log product for the
    product measure) whatever the combiner, and rejects the min combiner,
    which has no gradient, with ``InvalidSpec``. Every accepted step strictly
    increases the objective; with all elements initially valid, steps that
    would invert an element are rejected during backtracking. Under the free
    policy the run starts from, and is set up on, the shape representative
    of the start.
    """
    config = config or SmoothingConfig()
    coords0 = np.array(_checked_coords(mesh, coords))
    if config.boundary_policy is BoundaryPolicy.FREE:
        coords0 = project_shape(coords0)
    return _drive(coords0, *_build_flow(mesh, config, coords0), config)


def smooth_polyhedron(coords, faces, config: SmoothingConfig | None = None) -> tuple[np.ndarray, SmoothingReport]:
    """Roundness ascent for one closed polyhedron.

    Maximizes the isoperimetric quotient of the surface given by ``faces``
    under the free policy; the measure and boundary settings of ``config``
    are ignored, only its numeric knobs apply. As in :func:`smooth`, steps
    to a nonpositive volume are rejected only when the start's is positive.
    Faces, tables and errors are those of the ``polyhedron_*`` functions, and
    ``DegenerateMesh`` for a start without vertices or with all at one point.
    """
    config = config or SmoothingConfig()
    coords = project_shape(vertex_array(coords))
    tables, xt = geometry._polyhedron(faces, coords)

    def gradient(c, vols):
        xt = c.T[:, :, None]
        return geometry._iq_gradients(tables, xt, vols, geometry._fields(tables, xt).transpose(1, 2, 0))[0]

    flow = _Flow(lambda c: geometry._div_volumes(tables, c.T)[:, None],
                 lambda c, vols: geometry._iq_values(tables, c.T, vols[:, 0]),
                 gradient, _MEASURES[Measure.ISOPERIMETRIC_QUOTIENT].degree, _shapes, stack=_ROUND)
    return _drive(coords, flow, geometry._div_volumes(tables, xt), config)
