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

Per-element work is pure and accumulated in fixed element order, so results
are bit-reproducible run to run.
"""

from __future__ import annotations

import dataclasses
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
    """One ascent problem.

    ``objective(coords, guarded)`` returns the objective at ``coords`` and a
    state that ``field(coords, state)`` reuses at the same coordinates (the
    mean volumes, or None; ``field`` computes what a None state lacks). With
    ``guarded`` the objective is ``-inf`` when a step has inverted an element
    that was valid at the start. ``degree`` is the field's scaling degree.
    """

    objective: Callable[[np.ndarray, bool], tuple[float, object]]
    field: Callable[[np.ndarray, object], np.ndarray]
    degree: float
    mask: np.ndarray | None
    policy: BoundaryPolicy
    boundary_tris: np.ndarray | None

    def masked_field(self, coords, state=None) -> np.ndarray:
        f = np.asarray(self.field(coords, state), dtype=float)
        if self.mask is not None:
            f = f.copy()
            f[self.mask] = 0.0
        return f


def _measure_functions(mesh: Mesh, spec: QualityMeasureSpec, assembly: Assembly, *,
                       groups=None, guard: bool = False):
    """Objective and field of a mesh measure, in the form :class:`_Flow` takes.

    One mean-volume pass per objective evaluation serves both the inversion
    guard (active when ``guard``) and the volume measures, and the field at
    the same coordinates reuses it. ``groups`` is :func:`kind_groups` of the
    mesh, built here when omitted.
    """
    groups = kind_groups(mesh) if groups is None else groups
    measure = _MEASURES[spec.measure]
    if measure.vertex_field is None:
        raise InvalidSpec(f"no smoothing field is defined for measure {spec.measure.value!r}")
    shift = spec.volume_shift

    def objective(c, guarded):
        guarded = guarded and guard
        vols = mesh_mean_volumes(mesh, c, groups=groups) if measure.volumes or guarded else None
        if guarded and not vols.min() > 0.0:
            return -np.inf, vols
        return measure.objective(mesh, c, groups, _shifted(vols, shift)), vols

    def field(c, vols=None):
        if vols is None and measure.volumes:
            vols = mesh_mean_volumes(mesh, c, groups=groups)
        f = measure.vertex_field(mesh, c, groups, _shifted(vols, shift))
        return _averaged(mesh, f / measure.divisor, assembly)

    return objective, field


def _boundary_triangles(mesh: Mesh, coords: np.ndarray) -> np.ndarray:
    """Boundary surface as triangles; quads split along their shorter diagonal."""
    tris = []
    for face in boundary_faces(mesh):
        if len(face) == 3:
            tris.append(face)
        else:
            a, b, c, d = face
            if np.linalg.norm(coords[a] - coords[c]) <= np.linalg.norm(coords[b] - coords[d]):
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    if not tris:
        return np.zeros((0, 3, 3))
    return coords[np.asarray(tris, dtype=np.int64)]


def _closest_on_triangles(tris: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closest point to p over a triangle soup (T, 3, 3)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
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

    dist = np.linalg.norm(cand - p, axis=1)
    return cand[int(np.argmin(dist))]


def _apply_step(coords: np.ndarray, direction: np.ndarray, sigma: float, flow: _Flow,
                boundary_mask: np.ndarray | None) -> np.ndarray:
    moved = coords + sigma * direction
    if flow.policy is BoundaryPolicy.FREE:
        return project_shape(moved)
    if flow.policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY and flow.boundary_tris is not None:
        idx = np.nonzero(boundary_mask)[0]
        for i in idx:
            moved[i] = _closest_on_triangles(flow.boundary_tris, moved[i])
    return moved


def _drive(coords: np.ndarray, flow: _Flow, config: SmoothingConfig,
           boundary_mask: np.ndarray | None) -> tuple[np.ndarray, SmoothingReport]:
    coords = np.array(coords, dtype=float)
    if flow.policy is BoundaryPolicy.FREE:
        coords = project_shape(coords)
    q, state = flow.objective(coords, False)
    q0 = q
    quality_hist: list[float] = []
    sigma_hist: list[float] = []
    norm_hist: list[float] = []
    termination = Termination.MAX_ITERATIONS

    for _ in range(config.max_iterations):
        f = flow.masked_field(coords, state)
        fnorm = float(np.linalg.norm(f))
        if fnorm <= config.field_tol:
            termination = Termination.FIELD_BELOW_TOL
            break
        direction = scale_normalize(f, flow.degree)

        sigma = config.sigma0
        accepted = None
        for _h in range(config.max_halvings + 1):
            cand = _apply_step(coords, direction, sigma, flow, boundary_mask)
            qc, cand_state = flow.objective(cand, True)
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

    report = SmoothingReport(
        iterations=len(quality_hist),
        quality=quality_hist,
        sigma=sigma_hist,
        field_norm=norm_hist,
        termination=termination,
        initial_quality=q0,
    )
    return coords, report


def _build_flow(mesh: Mesh, config: SmoothingConfig, coords0: np.ndarray) -> _Flow:
    spec = config.measure
    measure = _MEASURES[spec.measure]
    groups = kind_groups(mesh)
    vols0 = mesh_mean_volumes(mesh, coords0, groups=groups)
    if measure.shifted:
        if spec.volume_shift is None:
            shift = _volume_shift(vols0, coords0)
            if shift > 0.0:
                spec = dataclasses.replace(spec, volume_shift=shift)
        _require_positive(vols0 + (spec.volume_shift or 0.0))
    guard = bool(np.all(vols0 > 0.0))
    objective, field_fn = _measure_functions(mesh, spec, config.assembly, groups=groups, guard=guard)
    # a shifted field is not homogeneous: step along the raw field
    degree = 1.0 if spec.volume_shift else measure.degree
    policy = config.boundary_policy
    mask = mesh.boundary if policy is BoundaryPolicy.FIX_BOUNDARY else None
    tris = (
        _boundary_triangles(mesh, coords0)
        if policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY
        else None
    )
    return _Flow(objective, field_fn, degree, mask, policy, tris)


def smoothing_step(mesh: Mesh, coords, config: SmoothingConfig, sigma: float) -> np.ndarray:
    """One smoothing step with a fixed step size (no backtracking).

    Free policy expects coordinates on the shape sphere (see
    :func:`project_shape`) and returns coordinates on it; a zero step size or
    a vanishing field returns the input unchanged.
    """
    coords = np.array(coords, dtype=float)
    flow = _build_flow(mesh, config, coords)
    f = flow.masked_field(coords)
    if sigma == 0.0 or not np.any(f):
        return coords
    direction = scale_normalize(f, flow.degree)
    boundary_mask = mesh.boundary if flow.policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY else None
    return _apply_step(coords, direction, sigma, flow, boundary_mask)


def smooth(mesh: Mesh, config: SmoothingConfig | None = None, coords=None) -> tuple[np.ndarray, SmoothingReport]:
    """Ascend the configured quality measure until a stopping rule fires.

    The driver optimizes the sum form of the measure (the log product for the
    product measure). Every accepted step strictly increases the objective;
    with all elements initially valid, steps that would invert an element are
    rejected during backtracking.
    """
    config = config or SmoothingConfig()
    coords0 = np.array(mesh.vertices if coords is None else coords, dtype=float)
    flow = _build_flow(mesh, config, coords0)
    boundary_mask = mesh.boundary if config.boundary_policy is BoundaryPolicy.PROJECT_TO_ORIGINAL_BOUNDARY else None
    return _drive(coords0, flow, config, boundary_mask)


def smooth_polyhedron(coords, faces, config: SmoothingConfig | None = None) -> tuple[np.ndarray, SmoothingReport]:
    """Roundness ascent for one closed polyhedron.

    Maximizes the isoperimetric quotient of the surface given by ``faces``
    under the free policy; the measure and boundary settings of ``config``
    are ignored, only its numeric knobs apply.
    """
    config = config or SmoothingConfig()

    def objective(c, guarded):
        if guarded and not geometry.polyhedron_mean_volume(faces, c) > 0.0:
            return -np.inf, None
        return geometry.polyhedron_iq(faces, c), None

    flow = _Flow(
        objective=objective,
        field=lambda c, _state: geometry.polyhedron_iq_gradient(faces, c),
        degree=_MEASURES[Measure.ISOPERIMETRIC_QUOTIENT].degree,
        mask=None,
        policy=BoundaryPolicy.FREE,
        boundary_tris=None,
    )
    return _drive(np.array(coords, dtype=float), flow, config, None)
