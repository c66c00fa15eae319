"""Element and mesh quality: mean ratio, volume-based measures, gradients.

Every :class:`Measure` is defined once, in the table ``_MEASURES``, which
:func:`mesh_quality`, :func:`quality_gradient_field` and the smoothing driver
all read. Its functions take ``(mesh, coords, v)``, ``v`` the shifted mean
volumes, and reach the per-kind groups of :func:`kind_groups` through two
helpers only: one maps a kernel over the elements, of one configuration or a
stack of k (the driver's trials), one scatters per-element vectors onto the
vertices. Both loop over a block plan, cached with the groups for each k,
which cuts each kind into blocks whose kernel temporaries hold at most
``_ROWS`` (3, m) rows each, and evaluate one block at a time, so every
temporary stays under 768 KiB and a block's temporaries together under twice
``_HEAP`` (a tier-1 test holds each kernel to it). The chunk of ``_HEAP``
bytes allocated and freed at import raises glibc's dynamic mmap and trim
thresholds (mallopt(3)), so the temporaries come from heap pages that stay
mapped from block to block instead of being faulted in afresh. By the rows per
element of :data:`geometry.GATHERED_ROWS` a volume or field block holds 8,192
tets, 3,276 pyramids, 1,560 prisms or 728 hexa; by :data:`geometry.IQ_ROWS` an
iq block 2,520 tets, 1,310 pyramids, 762 prisms or 448 hexa. The scatter adds
each block's field straight into the vertex sums with one ``np.add.at`` per
component (fast from numpy 1.25, the oldest the package takes), in element
order within each kind, so results do not depend on the block size and
repeated runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import geometry
from .errors import InvalidSpec, MixedMeshMeanRatio, NonPositiveVolume, ProductOverflow, ProductUnderflow
from .mesh import ElementKind, Mesh, _checked_coords, _shaped_coords, kind_groups


def _edge_square_sums(x: np.ndarray) -> np.ndarray:
    """``sum l_ij^2`` over the six edges of each tetrahedron of a batch (m, 4, 3), (m,). The edges from
    vertices 0, 1 and 2 to the later ones are slices of the component-major batch (3, 4, m), of 9, 6 and 3
    rows; their squares are added row after row, component by component, so an element gets the same bits
    in any batch."""
    xt = x.T
    edges = [xt[:, j + 1 :] - xt[:, j : j + 1] for j in range(3)]
    for e in edges:
        e *= e
    return geometry._sum_rows([row for c in range(3) for e in edges for row in e[c]])


def _mean_ratios(x: np.ndarray, vols=None) -> np.ndarray:
    """Mean ratios of a batch of tetrahedra, (m, 4, 3) -> (m,); ``vols``: their
    :func:`geometry.element_mean_volumes`, computed if None.

    The mean ratio relative to the regular tetrahedron (Knupp 2001) is, in
    closed form (Liu and Joe 1994), ``12 (3V)^(2/3) / sum l_ij^2`` in the
    volume V and the six edge lengths l_ij, and 0 where V is not positive.
    """
    vols = geometry.element_mean_volumes(ElementKind.TETRA, x) if vols is None else vols
    ok = ~(vols <= 0.0)
    q = np.zeros(len(vols))
    np.float_power(vols * 3.0, 2.0 / 3.0, out=q, where=ok)
    q *= 12.0
    return np.divide(q, _edge_square_sums(x), out=q, where=ok)


def mean_ratio(x) -> float:
    """Mean ratio of a tetrahedron, ``12 (3V)^(2/3) / sum l_ij^2``: 1 when regular, 0 when flat.

    Invalid orientations (nonpositive volume) map to 0 by convention.
    """
    return float(_mean_ratios(geometry._as_single(x, 4))[0])


def mean_ratio_volume_equivalence(x) -> tuple[float, float]:
    """Return ``(q^(3/2), vol(x / |S|_F))``, ``|S|_F^2 = sum l_ij^2 / 2`` the squared Frobenius norm of
    the tetrahedron's edges mapped onto the regular reference; their ratio is ``1 / (18 sqrt 6)``."""
    x = geometry._as_single(x, 4)
    frob = math.sqrt(float(_edge_square_sums(x)[0]) / 2.0)
    return mean_ratio(x[0]) ** 1.5, geometry.element_mean_volume(ElementKind.TETRA, x[0] / frob)


class Measure(Enum):
    MEAN_VOLUME_SUM = "mean-volume"
    PRODUCT_SQUARED = "q1"
    INVERSE_SQUARED_SUM = "q2"
    MEAN_RATIO = "mean-ratio"
    ISOPERIMETRIC_QUOTIENT = "iq"


class Combiner(Enum):
    ARITHMETIC_MEAN = "mean"
    SUM = "sum"
    MIN = "min"


@dataclass(frozen=True)
class QualityMeasureSpec:
    """Which element measure and combiner assemble the global quality."""

    measure: Measure
    combiner: Combiner = Combiner.ARITHMETIC_MEAN
    volume_shift: float | None = None

    def __post_init__(self):
        if self.volume_shift is not None:
            if not _MEASURES[self.measure].shifted:
                raise InvalidSpec("volume_shift applies to the q1/q2 measures only")
            if not 0 <= self.volume_shift < math.inf:
                raise InvalidSpec("volume_shift must be finite and >= 0")


@dataclass
class QualityReport:
    """One measure over a mesh. ``log_global`` is set for a product measure:
    the sum of the logs of its factors, finite where ``global_value``
    underflows to 0."""

    measure: Measure
    combiner: Combiner
    global_value: float
    minimum: float
    maximum: float
    mean: float
    invalid_count: int
    per_element: np.ndarray = field(repr=False)
    log_global: float | None = None

    def to_json_dict(self) -> dict:
        logs = {} if self.log_global is None else {"log_global": self.log_global}
        return {
            "measure": self.measure.value,
            "combiner": self.combiner.value,
            "global": self.global_value,
            **logs,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "invalid_count": self.invalid_count,
            "per_element": self.per_element.tolist(),
        }


_ROWS = 32768  # (3, m) rows per kernel temporary: 8,192 tets, whose coordinates and fields take 0.8 MB each
_HEAP = _ROWS * 128  # bytes, 4 MiB: above any one block temporary, and twice it above any block's peak
# Freeing a mapped chunk of _HEAP bytes raises glibc's mmap threshold to _HEAP and its trim threshold
# to 2 * _HEAP (mallopt(3), dynamic thresholds), so every block's temporaries come from heap pages that
# stay mapped between blocks instead of being handed back and faulted in again. Under other
# allocators, or with thresholds pinned by the host process, it is one harmless allocation.
np.empty(_HEAP // 8)


def _block_plan(groups, rows, copies: int, n: int) -> tuple:
    """``(kind, sel, conn)`` for blocks of at most ``_ROWS`` rows of ``rows[kind]`` per element, kind by
    kind in element order, of ``copies`` copies of a mesh of ``n`` vertices, copy i's element e numbered
    i * M + e and vertex v i * n + v: ``sel`` picks the block's elements, a slice when their ids run in one
    stretch (as in a one-kind or kind-sorted mesh) or else the ids, and ``conn`` holds their rows."""
    plan, total = [], sum(len(ids) for ids, _ in groups.values())
    for kind, (ids, conn) in groups.items():
        if copies != 1:  # conn.T C-ordered, to gather by
            ids = (ids + total * np.arange(copies)[:, None]).ravel()
            conn = np.asfortranarray((conn + n * np.arange(copies)[:, None, None]).reshape(-1, conn.shape[1]))
        step = _ROWS // rows[kind]
        for i in range(0, len(ids), step):
            sel = ids[i : i + step]
            if sel[-1] - sel[0] + 1 == len(sel):  # the ids ascend
                sel = slice(int(sel[0]), int(sel[-1]) + 1)
            plan.append((kind, sel, conn[i : i + step]))
    return tuple(plan)


def _blocks(mesh: Mesh, rows, copies: int = 1) -> tuple:
    """The :func:`_block_plan` for ``rows`` (a module constant) and ``copies``, cached per connectivity."""
    plans, key = mesh.elements.plans, (id(rows), copies, mesh.n_vertices)
    if key not in plans:
        plans[key] = _block_plan(kind_groups(mesh), rows, copies, mesh.n_vertices)
    return plans[key]


def _stack_limit(mesh: Mesh, cap: int, rows) -> int:
    """The most copies, at most ``cap``, whose block plans for the row table ``rows`` have no more blocks than
    one's: as many as one block of each kind holds, or 1 where a kind takes more than one block (k copies take
    more). :data:`geometry.IQ_ROWS` is at least :data:`geometry.GATHERED_ROWS` kind by kind, so a measure's
    ``rows`` bound its volume pass too."""
    return max(1, min([cap] + [_ROWS // rows[kind] // len(ids) for kind, (ids, _) in kind_groups(mesh).items()]))


def _per_kind(kernel, mesh: Mesh, coords, *arrays, rows=geometry.GATHERED_ROWS) -> np.ndarray:
    """``kernel(kind, x, *(a[sel] for a in arrays))`` of every element in element order, (M,) or (k, M) for a
    stack (k, n, 3) (for one block, the kernel's own array); ``rows``: :data:`geometry.GATHERED_ROWS` or ``IQ_ROWS``."""
    lead = coords.shape[:-2]
    plan = _blocks(mesh, rows, math.prod(lead))
    flat, arrays = coords.reshape(-1, 3), [a.reshape(-1) for a in arrays]
    values = None if len(plan) == 1 else np.empty(math.prod(lead) * mesh.n_elements)
    for kind, sel, conn in plan:
        block = kernel(kind, geometry.element_batch(flat, conn), *(a[sel] for a in arrays))
        if values is None:  # the one block is the whole stack in element order
            return block.reshape(*lead, -1) if lead else block
        values[sel] = block
    return values.reshape(*lead, mesh.n_elements)


def mesh_mean_volumes(mesh: Mesh, coords=None) -> np.ndarray:
    """Mean volume of every element, in element order: (M,), or (k, M) for a stack (k, n, 3).

    ``coords`` must have the shape of ``mesh.vertices``, or be a stack of
    such (``InvalidSpec`` otherwise); its values are not scanned.
    """
    coords = _shaped_coords(mesh, coords, stack=True)
    return _per_kind(geometry.element_mean_volumes, mesh, coords)


def _require_positive(v: np.ndarray) -> np.ndarray:
    """``v`` itself, or ``NonPositiveVolume`` naming its first entry <= 0."""
    bad = np.nonzero(v <= 0.0)[0]
    if bad.size:
        raise NonPositiveVolume(int(bad[0]), float(v[bad[0]]))
    return v


def _scatter(kernel, mesh: Mesh, coords, *arrays, scale=None, rows=geometry.GATHERED_ROWS) -> np.ndarray:
    """Sum ``kernel(kind, x, *(a[sel] for a in arrays))``, a fresh (m, n_e, 3) array, onto the
    vertices, times ``scale[id]`` when given; ``rows`` as for :func:`_per_kind`. Each block's field,
    taken component-major and scaled in place, is added by one ``np.add.at`` per component, kind by
    kind in element order, so no bit depends on the block size."""
    out = np.zeros((len(coords), 3))
    for kind, sel, conn in _blocks(mesh, rows):
        w = kernel(kind, geometry.element_batch(coords, conn), *(a[sel] for a in arrays)).transpose(2, 0, 1)
        if scale is not None:
            w *= scale[sel][:, None]
        for k in range(3):
            np.add.at(out[:, k], conn.ravel(), w[k].ravel())
    return out


def scatter_element_fields(mesh: Mesh, coords, per_element_scale=None) -> np.ndarray:
    """Sum per-element transformation fields onto mesh vertices.

    ``per_element_scale`` optionally multiplies each element's field before
    the scatter (indexed in element order). ``coords`` must have the shape
    of ``mesh.vertices`` and the scale the shape ``(mesh.n_elements,)``
    (``InvalidSpec`` otherwise); their values are not scanned.
    """
    coords = _shaped_coords(mesh, coords)
    scale = None if per_element_scale is None else np.asarray(per_element_scale, dtype=float)
    if scale is not None and scale.shape != (mesh.n_elements,):
        raise InvalidSpec(f"per_element_scale must be of shape ({mesh.n_elements},); got shape {scale.shape}")
    return _scatter(geometry.element_fields, mesh, coords, scale=scale)


def _tet_mean_ratios(kind: ElementKind, x: np.ndarray, vols: np.ndarray) -> np.ndarray:
    if kind is not ElementKind.TETRA:
        raise MixedMeshMeanRatio("mean ratio is defined for all-tetrahedra meshes")
    return _mean_ratios(x, vols)


@dataclass(frozen=True)
class _MeasureDef:
    """One measure. Its functions take ``(mesh, coords, v)``, with ``v`` the
    element mean volumes plus any volume shift.

    ``values`` are the per-element values, ``objective`` the sum or log objective the driver ascends,
    one per row of a stack (k, n, 3) and (k, M). ``vertex_field`` scatters the weighted per-element
    fields; over ``divisor`` it is the objective's gradient, of scaling degree ``degree`` when there is no
    shift. ``product``: the global value, the values' product, is the exp of the objective; ``shifted``:
    the measure takes a shift; ``rows``: its kernels' row table, by which they are cut into blocks.
    """

    values: Callable
    objective: Callable | None = None
    vertex_field: Callable | None = None
    divisor: float = 1.0
    degree: float | None = None
    shifted: bool = False
    product: bool = False
    rows: dict = field(default_factory=lambda: geometry.GATHERED_ROWS)


def _positive_rows(v: np.ndarray, total: Callable) -> np.ndarray:
    """``total(v)`` of each row of ``v`` (..., M), or ``-inf`` for a row with an entry <= 0."""
    if (v > 0.0).all():
        return total(v)
    bad = (v <= 0.0).any(axis=-1)
    return np.where(bad, -np.inf, total(np.where(bad[..., None], 1.0, v)))


_MEASURES: dict[Measure, _MeasureDef] = {
    Measure.MEAN_VOLUME_SUM: _MeasureDef(
        values=lambda mesh, c, v: v,
        objective=lambda mesh, c, v: v.sum(axis=-1),
        vertex_field=lambda mesh, c, v: scatter_element_fields(mesh, c), divisor=6.0, degree=2.0,
    ),
    Measure.PRODUCT_SQUARED: _MeasureDef(
        values=lambda mesh, c, v: _require_positive(v) ** 2,
        objective=lambda mesh, c, v: _positive_rows(v, lambda w: 2.0 * np.log(w).sum(axis=-1)),
        vertex_field=lambda mesh, c, v: scatter_element_fields(mesh, c, 1.0 / _require_positive(v)),
        divisor=3.0, degree=-1.0, shifted=True, product=True,
    ),
    Measure.INVERSE_SQUARED_SUM: _MeasureDef(
        values=lambda mesh, c, v: -1.0 / _require_positive(v) ** 2,
        objective=lambda mesh, c, v: _positive_rows(v, lambda w: -np.sum(w**-2, axis=-1)),
        vertex_field=lambda mesh, c, v: scatter_element_fields(mesh, c, _require_positive(v) ** -3),
        divisor=3.0, degree=-7.0, shifted=True,
    ),
    Measure.MEAN_RATIO: _MeasureDef(values=lambda mesh, c, v: _per_kind(_tet_mean_ratios, mesh, c, v)),
    Measure.ISOPERIMETRIC_QUOTIENT: _MeasureDef(
        values=lambda mesh, c, v: _per_kind(geometry.element_iqs, mesh, c, v, rows=geometry.IQ_ROWS),
        objective=lambda mesh, c, v: _per_kind(geometry.element_iqs, mesh, c, v, rows=geometry.IQ_ROWS).sum(axis=-1),
        vertex_field=lambda mesh, c, v: _scatter(geometry.element_iq_gradients, mesh, c, v, rows=geometry.IQ_ROWS),
        degree=-1.0, rows=geometry.IQ_ROWS,
    ),
}


_COMBINE = {Combiner.ARITHMETIC_MEAN: np.mean, Combiner.SUM: np.sum, Combiner.MIN: np.min}


def _shifted(vols: np.ndarray, shift: float | None) -> np.ndarray:
    return vols + shift if shift else vols


def _exp(log: float) -> float:
    """The product whose log is ``log``: 0.0 below about -745, inf above about 709.78."""
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def mesh_quality(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> QualityReport:
    """Evaluate the configured measure over the mesh.

    The product measure combines per-element values multiplicatively (that is
    its definition), as the exp of ``log_global``: 0 only below a log of about
    -745, in any element order. Every other measure is combined by ``spec.combiner``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    if mesh.n_elements == 0:
        raise InvalidSpec("a mesh without elements has no quality")
    measure = _MEASURES[spec.measure]
    coords = _checked_coords(mesh, coords)
    vols = mesh_mean_volumes(mesh, coords)
    v = _shifted(vols, spec.volume_shift)
    values = measure.values(mesh, coords, v)
    log = float(measure.objective(mesh, coords, v)) if measure.product else None
    return QualityReport(
        measure=spec.measure,
        combiner=spec.combiner,
        global_value=float(_COMBINE[spec.combiner](values)) if log is None else _exp(log),
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=float(values.mean()),
        invalid_count=int(np.sum(vols <= 0.0)),
        per_element=values,
        log_global=log,
    )


def _gradient_measure(spec: QualityMeasureSpec) -> _MeasureDef:
    """The measure of ``spec``; ``InvalidSpec`` for the min combiner or a measure without a gradient field."""
    if spec.combiner is Combiner.MIN:
        raise InvalidSpec("the min combiner has no gradient")
    measure = _MEASURES[spec.measure]
    if measure.vertex_field is None:
        raise InvalidSpec(f"no gradient field is defined for the {spec.measure.value} measure")
    return measure


def quality_gradient_field(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> np.ndarray:
    """Exact gradient of :func:`mesh_quality`'s global value, shape (n, 3).

    Matches central finite differences of the global value. Undefined for the
    min combiner (nonsmooth) and for the mean ratio (no gradient is provided
    for it); both raise ``InvalidSpec``. A q1 product that rounds to 0 or to
    inf raises ``ProductUnderflow`` or ``ProductOverflow``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    measure = _gradient_measure(spec)
    coords = _checked_coords(mesh, coords)
    v = _shifted(mesh_mean_volumes(mesh, coords), spec.volume_shift)
    field = measure.vertex_field(mesh, coords, v)
    if measure.product:
        # d(prod)/dx = prod * d(log prod)/dx
        log = float(measure.objective(mesh, coords, v))
        scale = _exp(log)
        if not 0.0 < scale < math.inf:  # the field checked every factor positive: the product under- or overflowed
            error, limit = (ProductUnderflow, "underflows to 0") if scale == 0.0 else (ProductOverflow, "overflows")
            raise error(f"the {spec.measure.value} product {limit} (log {log!r}); its gradient is not representable")
    else:
        scale = 1.0 / mesh.n_elements if spec.combiner is Combiner.ARITHMETIC_MEAN else 1.0
    return scale / measure.divisor * field


def compute_volume_shift(mesh: Mesh, coords=None) -> float:
    """Shift making every shifted mean volume positive: 0 for valid meshes,
    twice the worst inversion otherwise."""
    coords = _checked_coords(mesh, coords)
    return _volume_shift(mesh_mean_volumes(mesh, coords), coords)


def _volume_shift(vols: np.ndarray, coords) -> float:
    if vols.size == 0:
        return 0.0
    worst = float(vols.min())
    if worst > 0.0:
        return 0.0
    if worst < 0.0:
        return 2.0 * abs(worst)
    # exactly degenerate: any positive value restores positivity
    diag = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return max(1e-12 * diag**3, np.finfo(float).tiny)
