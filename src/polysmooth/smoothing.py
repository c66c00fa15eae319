"""Field assembly, scale normalization, the step operator and the driver.

The driver performs ascent on a global quality objective: evaluate the
measure's gradient-direction field, zero it on vertices frozen by the
boundary policy, normalize it so the step commutes with scaling, then
backtrack the step size until the objective strictly increases. For the
product measure the driver tracks the logarithm of the product, which has
the same maximizers and an identical gradient direction but cannot
underflow on large meshes.

Objective, field and the field's scaling degree come from the measure table
in :mod:`polysmooth.quality`; the degrees are closed-form (2 for the mean
volume, -1 for q1, -7 for q2, -1 for iq). A nonzero volume shift makes the
q1/q2 fields inhomogeneous, and the driver then steps along the raw field
(degree 1).

The boundary policy is decided once, when the flow is set up: the field is
zero on fixed vertices (fix), and every step is mapped back onto the shape
sphere (free) or onto the start's boundary surface (project). A free run is
set up on the shape representative of its start, so its volume shift and
trajectory do not depend on the scale of the input. The set-up's volume
pass also gives the objective at the start.

Under the project policy the set-up triangulates the start's boundary once
and stores each triangle's bounding sphere. Each step then maps all boundary
vertices in one batched pass: a triangle is tested exactly only when its
sphere's lower distance bound does not exceed the best upper bound by more
than a slack far above rounding, so the result is bit for bit that of
testing every triangle.

Per-element work is pure and accumulated in fixed element order, so results
are bit-reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable

import numpy as np

from . import geometry
from .errors import (
    DegenerateMesh,
    InvalidDegree,
    InvalidSpec,
    IsolatedVertex,
    NonHomogeneous,
    ZeroField,
)
from .mesh import Mesh, boundary_faces, kind_groups
from .quality import (
    _MEASURES,
    Measure,
    QualityMeasureSpec,
    _require_positive,
    _shifted,
    _volume_shift,
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
        if not self.sigma0 > 0:
            raise InvalidSpec("sigma0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidSpec("shrink factor must lie in (0, 1)")
        if self.max_iterations < 0 or self.max_halvings < 0:
            raise InvalidSpec("iteration and halving caps must be >= 0")
        if self.field_tol < 0 or self.quality_tol < 0:
            raise InvalidSpec("tolerances must be >= 0")


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
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    return _averaged(mesh, scatter_element_fields(mesh, coords), assembly)


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
    centered = coords - coords.mean(axis=0)
    norm = float(np.linalg.norm(centered))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateMesh("all vertices coincide; shape projection undefined")
    return centered / norm


def homogeneity_degree(field_fn: Callable[[np.ndarray], np.ndarray], coords) -> float:
    """Estimate the scaling degree d with ``field(s*x) = s^d field(x)``.

    Probes s = 1/2 and s = 2; the two estimates must agree to 1e-8.
    """
    coords = np.asarray(coords, dtype=float)
    base = float(np.linalg.norm(field_fn(coords)))
    if base == 0.0:
        raise ZeroField("cannot measure the degree of the zero field")
    estimates = []
    for s in (0.5, 2.0):
        scaled = float(np.linalg.norm(field_fn(s * coords)))
        if scaled <= 0.0 or not np.isfinite(scaled):
            raise NonHomogeneous(f"field norm degenerated under scaling by {s}")
        estimates.append(np.log(scaled / base) / np.log(s))
    if abs(estimates[0] - estimates[1]) > 1e-8:
        raise NonHomogeneous(
            f"degree estimates disagree: {estimates[0]!r} vs {estimates[1]!r}"
        )
    return float(np.mean(estimates))


def scale_normalize(field, degree: float) -> np.ndarray:
    """Rescale a degree-d homogeneous field to homogeneity degree 1.

    Multiplies by ``|field|^((1-d)/d)``; the zero field maps to zero.
    """
    if abs(degree) < 1e-9:
        raise InvalidDegree("scale normalization undefined for degree 0")
    field = np.asarray(field, dtype=float)
    norm = float(np.linalg.norm(field))
    if norm == 0.0:
        return np.zeros_like(field)
    return norm ** ((1.0 - degree) / degree) * field


# -- driver ------------------------------------------------------------------


@dataclass
class _Flow:
    """One ascent problem, with the boundary policy already applied.

    ``objective(coords)`` returns the objective at ``coords`` and a state
    that ``field(coords, state)`` reuses at the same coordinates (the mean
    volumes, or None when the measure reads none and no guard is active).
    The objective is ``-inf`` when a step has inverted an element that was
    valid at the start. ``field`` is zero on the vertices the policy fixes,
    and ``degree`` is its scaling degree. ``constrain(moved)`` maps a moved
    configuration back onto the policy's constraint: the identity (fix), the
    shape sphere (free) or the original boundary surface (project; each
    boundary vertex goes to its closest point, see :func:`_closest_points`).
    """

    objective: Callable[[np.ndarray], tuple[float, object]]
    field: Callable[[np.ndarray, object], np.ndarray]
    degree: float
    constrain: Callable[[np.ndarray], np.ndarray]


def _boundary_triangles(mesh: Mesh, coords: np.ndarray) -> np.ndarray:
    """Boundary surface as triangles (T, 3, 3) in face order; quads split along their shorter diagonal.

    The order decides ties between equally close triangles, so it is part of
    the result.
    """
    faces = boundary_faces(mesh)
    quad = np.array([len(f) == 4 for f in faces], dtype=bool)
    corners = np.array([f if len(f) == 4 else f + f[:1] for f in faces], dtype=np.int64).reshape(-1, 4)
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
    in triangle order. Triangle t lies in the ball of centre ``g[t]`` (its
    centroid) and radius ``r[t]`` (the largest corner distance from it);
    ``scale`` is the largest coordinate magnitude.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    g: np.ndarray
    r: np.ndarray
    scale: float

    @classmethod
    def of(cls, tris: np.ndarray) -> _Surface:
        a, b, c = (np.ascontiguousarray(tris[:, k]) for k in range(3))
        g = (a + b + c) / 3.0
        r = np.sqrt(np.max([np.einsum("ij,ij->i", x - g, x - g) for x in (a, b, c)], axis=0, initial=0.0))
        return cls(a, b, c, g, r, float(np.abs(tris).max(initial=0.0)))


# (vertex, triangle) pairs per pass of the sphere filter: 128 kB per float
# temporary, about 1 MB for all of them together
_BLOCK_PAIRS = 1 << 14


def _closest_points(surface: _Surface, pts: np.ndarray) -> np.ndarray:
    """Closest point on the surface to each row of ``pts`` (m, 3).

    Bit for bit the per-point search over every triangle: the smallest
    distance, the lowest triangle index on ties, and the first NaN distance
    when there is one (as ``np.argmin``). The exact point-triangle test runs
    only on the pairs the bounding spheres cannot rule out: triangle t is
    skipped for point p when ``|p-g| - r`` exceeds ``min_t(|p-g| + r)`` by
    more than a slack far above rounding. A non-finite point keeps every
    triangle.
    """
    out = np.empty_like(pts)
    block = max(1, _BLOCK_PAIRS // max(len(surface.r), 1))
    for lo in range(0, len(pts), block):
        p = pts[lo:lo + block]
        centre = np.sqrt(sum((p[:, k, None] - surface.g[:, k]) ** 2 for k in range(3)))
        upper = np.min(centre + surface.r, axis=1)
        slack = 1e-9 * (upper + surface.scale)
        rows, tri = np.nonzero(~(centre - surface.r > (upper + slack)[:, None]))
        cand, dist = _closest_on_pairs(surface.a[tri], surface.b[tri], surface.c[tri], p[rows])
        # pairs are sorted by row, then triangle: the first hit of the row's minimum is argmin's pick
        low = np.minimum.reduceat(dist, np.unique(rows, return_index=True)[1])[rows]
        hits = np.flatnonzero((dist == low) | (np.isnan(dist) & np.isnan(low)))
        first = hits[np.unique(rows[hits], return_index=True)[1]]
        out[lo:lo + block] = cand[first]
    return out


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


def _closest_on_triangles(tris: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closest point to p over a triangle soup (T, 3, 3); :func:`_closest_points` for one point."""
    return _closest_points(_Surface.of(tris), np.asarray(p, dtype=float)[None])[0]


def _drive(coords: np.ndarray, flow: _Flow, q: float, state,
           config: SmoothingConfig) -> tuple[np.ndarray, SmoothingReport]:
    """Backtracking ascent from ``coords``, where the objective and its state are ``q``, ``state``."""
    q0 = q
    quality_hist: list[float] = []
    sigma_hist: list[float] = []
    norm_hist: list[float] = []
    termination = Termination.MAX_ITERATIONS

    for _ in range(config.max_iterations):
        f = flow.field(coords, state)
        fnorm = float(np.linalg.norm(f))
        if fnorm <= config.field_tol:
            termination = Termination.FIELD_BELOW_TOL
            break
        direction = scale_normalize(f, flow.degree)

        sigma = config.sigma0
        accepted = None
        for _h in range(config.max_halvings + 1):
            cand = flow.constrain(coords + sigma * direction)
            qc, cand_state = flow.objective(cand)
            if qc > q:
                accepted = (cand, qc, sigma, cand_state)
                break
            sigma *= config.shrink
        if accepted is None:
            termination = Termination.BACKTRACKING_FAILED
            break

        coords, qc, sigma, state = accepted
        quality_hist.append(qc)
        sigma_hist.append(sigma)
        norm_hist.append(fnorm)
        gain = qc - q
        q = qc
        if gain < config.quality_tol:
            termination = Termination.QUALITY_STALLED
            break

    return coords, SmoothingReport(
        iterations=len(quality_hist), quality=quality_hist, sigma=sigma_hist,
        field_norm=norm_hist, termination=termination, initial_quality=q0)


def _build_flow(mesh: Mesh, config: SmoothingConfig,
                coords0: np.ndarray) -> tuple[_Flow, float, np.ndarray]:
    """The flow of ``config`` on ``mesh``, with its objective and mean volumes at ``coords0``.

    Its one mean-volume pass serves the volume shift, the validity check,
    the guard decision and the objective at the start. Under the project
    policy it also sets up the boundary surface at ``coords0`` once, as a
    :class:`_Surface`, from the connectivity it holds.
    """
    spec = config.measure
    measure = _MEASURES[spec.measure]
    if measure.vertex_field is None:
        raise InvalidSpec(f"no smoothing field is defined for measure {spec.measure.value!r}")
    groups = kind_groups(mesh)
    vols0 = mesh_mean_volumes(mesh, coords0)
    shift = spec.volume_shift
    if measure.shifted:
        if shift is None:
            shift = _volume_shift(vols0, coords0)
        _require_positive(vols0 + shift)
    guard = bool(np.all(vols0 > 0.0))

    def objective(c):
        vols = mesh_mean_volumes(mesh, c) if measure.volumes or guard else None
        if guard and not vols.min() > 0.0:
            return -np.inf, vols
        return measure.objective(mesh, c, groups, _shifted(vols, shift)), vols

    policy = config.boundary_policy
    fixed = mesh.boundary if policy is BoundaryPolicy.FIX_BOUNDARY else None

    def field(c, vols):
        f = measure.vertex_field(mesh, c, groups, _shifted(vols, shift))
        f = _averaged(mesh, f / measure.divisor, config.assembly)
        if fixed is not None:
            f[fixed] = 0.0
        return f

    if policy is BoundaryPolicy.FREE:
        constrain = project_shape
    elif policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY:
        surface = _Surface.of(_boundary_triangles(mesh, coords0))
        on_boundary = np.nonzero(mesh.boundary)[0]

        def constrain(moved):
            moved[on_boundary] = _closest_points(surface, moved[on_boundary])
            return moved
    else:
        def constrain(moved):
            return moved

    # a shifted field is not homogeneous: step along the raw field
    degree = 1.0 if shift else measure.degree
    q0 = measure.objective(mesh, coords0, groups, _shifted(vols0, shift))
    return _Flow(objective, field, degree, constrain), q0, vols0


def smoothing_step(mesh: Mesh, coords, config: SmoothingConfig, sigma: float) -> np.ndarray:
    """One smoothing step with a fixed step size (no backtracking).

    Free policy expects coordinates on the shape sphere (see
    :func:`project_shape`) and returns coordinates on it; a zero step size or
    a vanishing field returns the input unchanged.
    """
    coords = np.array(coords, dtype=float)
    flow, _, vols = _build_flow(mesh, config, coords)
    f = flow.field(coords, vols)
    if sigma == 0.0 or not np.any(f):
        return coords
    return flow.constrain(coords + sigma * scale_normalize(f, flow.degree))


def smooth(mesh: Mesh, config: SmoothingConfig | None = None, coords=None) -> tuple[np.ndarray, SmoothingReport]:
    """Ascend the configured quality measure until a stopping rule fires.

    The driver optimizes the sum form of the measure (the log product for the
    product measure). Every accepted step strictly increases the objective;
    with all elements initially valid, steps that would invert an element are
    rejected during backtracking. Under the free policy the run starts from,
    and is set up on, the shape representative of the start.
    """
    config = config or SmoothingConfig()
    coords0 = np.array(mesh.vertices if coords is None else coords, dtype=float)
    if config.boundary_policy is BoundaryPolicy.FREE:
        coords0 = project_shape(coords0)
    flow, q0, vols0 = _build_flow(mesh, config, coords0)
    return _drive(coords0, flow, q0, vols0, config)


def smooth_polyhedron(coords, faces, config: SmoothingConfig | None = None) -> tuple[np.ndarray, SmoothingReport]:
    """Roundness ascent for one closed polyhedron.

    Maximizes the isoperimetric quotient of the surface given by ``faces``
    under the free policy; the measure and boundary settings of ``config``
    are ignored, only its numeric knobs apply.
    """
    config = config or SmoothingConfig()
    coords = project_shape(np.array(coords, dtype=float))

    def objective(c):
        if not geometry.polyhedron_mean_volume(faces, c) > 0.0:
            return -np.inf, None
        return geometry.polyhedron_iq(faces, c), None

    flow = _Flow(objective, lambda c, _state: geometry.polyhedron_iq_gradient(faces, c),
                 _MEASURES[Measure.ISOPERIMETRIC_QUOTIENT].degree, project_shape)
    return _drive(coords, flow, geometry.polyhedron_iq(faces, coords), None, config)
