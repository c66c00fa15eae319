"""Element and mesh quality: mean ratio, volume-based measures, gradients.

Mesh-level measures combine per-element values. The product measure
multiplies squared mean volumes and the inverse-square measure sums negative
inverse squares; both admit a closed-form gradient assembled from the
per-element transformation fields. Per-element contributions are summed in
element order, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry
from .errors import InvalidSpec, MixedMeshMeanRatio, NonPositiveVolume
from .generators import REGULAR_TETRA
from .mesh import ElementKind, Mesh, kind_groups


@dataclass(frozen=True)
class ReferenceFrame:
    """Difference matrix of the reference tetrahedron for the mean ratio.

    Columns are the edge vectors from the first vertex. The default frame is
    the unit-edge regular tetrahedron, determinant 1/sqrt(2).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidSpec(f"reference matrix must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) < 1e-300:
            raise InvalidSpec("reference tetrahedron is degenerate")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_inverse", np.linalg.inv(m))

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse

    @classmethod
    def regular(cls) -> "ReferenceFrame":
        pts = REGULAR_TETRA
        return cls(np.column_stack([pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]]))


_DEFAULT_FRAME = ReferenceFrame.regular()


def _difference_matrix(x: np.ndarray) -> np.ndarray:
    return np.column_stack([x[1] - x[0], x[2] - x[0], x[3] - x[0]])


def mean_ratio(x, reference: ReferenceFrame | None = None) -> float:
    """Mean ratio of a tetrahedron: 1 when similar to the reference, 0 when flat.

    Invalid orientations (nonpositive determinant) map to 0 by convention.
    """
    ref = reference or _DEFAULT_FRAME
    x = np.asarray(x, dtype=float)
    s = _difference_matrix(x) @ ref.inverse
    det = np.linalg.det(s)
    if det <= 0.0:
        return 0.0
    return float(3.0 * det ** (2.0 / 3.0) / np.sum(s * s))


def mean_ratio_volume_equivalence(x, reference: ReferenceFrame | None = None) -> tuple[float, float]:
    """Return ``(q^(3/2), vol(x / |S|_F))``; their ratio depends only on the frame."""
    ref = reference or _DEFAULT_FRAME
    x = np.asarray(x, dtype=float)
    s = _difference_matrix(x) @ ref.inverse
    frob = math.sqrt(np.sum(s * s))
    lhs = mean_ratio(x, ref) ** 1.5
    rhs = geometry.tet_signed_volume(x / frob)
    return lhs, rhs


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


_SHIFTED = (Measure.PRODUCT_SQUARED, Measure.INVERSE_SQUARED_SUM)


@dataclass(frozen=True)
class QualityMeasureSpec:
    """Which element measure and combiner assemble the global quality."""

    measure: Measure
    combiner: Combiner = Combiner.ARITHMETIC_MEAN
    volume_shift: float | None = None

    def __post_init__(self):
        if self.volume_shift is not None:
            if self.measure not in _SHIFTED:
                raise InvalidSpec("volume_shift applies to the q1/q2 measures only")
            if self.volume_shift < 0:
                raise InvalidSpec("volume_shift must be >= 0")


@dataclass
class QualityReport:
    measure: Measure
    combiner: Combiner
    global_value: float
    minimum: float
    maximum: float
    mean: float
    invalid_count: int
    per_element: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure.value,
            "combiner": self.combiner.value,
            "global": self.global_value,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "invalid_count": self.invalid_count,
            "per_element": [float(v) for v in self.per_element],
        }


def mesh_mean_volumes(mesh: Mesh, coords=None, *, groups=None) -> np.ndarray:
    """Mean volume of every element, in element order.

    ``groups`` is :func:`~polysmooth.mesh.kind_groups` of the mesh, built by
    the caller when it makes several passes; omitted, it is built here.
    """
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    vols = np.empty(mesh.n_elements)
    if groups is None:
        groups = kind_groups(mesh)
    for kind, (ids, conn) in groups.items():
        vols[ids] = geometry.element_mean_volumes(kind, coords[conn])
    return vols


def _require_positive(v: np.ndarray) -> np.ndarray:
    """``v`` itself, or ``NonPositiveVolume`` naming its first entry <= 0."""
    bad = np.nonzero(v <= 0.0)[0]
    if bad.size:
        raise NonPositiveVolume(int(bad[0]), float(v[bad[0]]))
    return v


def _shifted_volumes(mesh: Mesh, coords, shift: float | None, groups) -> np.ndarray:
    return _require_positive(mesh_mean_volumes(mesh, coords, groups=groups) + (shift or 0.0))


def _per_element_values(mesh: Mesh, coords, spec: QualityMeasureSpec, groups) -> np.ndarray:
    m = spec.measure
    if m is Measure.MEAN_VOLUME_SUM:
        return mesh_mean_volumes(mesh, coords, groups=groups)
    if m is Measure.PRODUCT_SQUARED:
        return _shifted_volumes(mesh, coords, spec.volume_shift, groups) ** 2
    if m is Measure.INVERSE_SQUARED_SUM:
        return -1.0 / _shifted_volumes(mesh, coords, spec.volume_shift, groups) ** 2
    coords_ = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    if m is Measure.MEAN_RATIO:
        if any(e.kind is not ElementKind.TETRA for e in mesh.elements):
            raise MixedMeshMeanRatio("mean ratio is defined for all-tetrahedra meshes")
        return np.array([mean_ratio(coords_[list(e.vertices)]) for e in mesh.elements])
    values = np.empty(mesh.n_elements)
    for kind, (ids, conn) in groups.items():
        values[ids] = geometry.element_iqs(kind, coords_[conn])
    return values


def mesh_quality(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> QualityReport:
    """Evaluate the configured measure over the mesh.

    The product measure combines per-element values multiplicatively (that is
    its definition); every other measure is combined by ``spec.combiner``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    groups = kind_groups(mesh)
    values = _per_element_values(mesh, coords, spec, groups)
    invalid = int(np.sum(mesh_mean_volumes(mesh, coords, groups=groups) <= 0.0))
    if spec.measure is Measure.PRODUCT_SQUARED:
        global_value = float(np.prod(values))
    elif spec.combiner is Combiner.SUM:
        global_value = float(values.sum())
    elif spec.combiner is Combiner.MIN:
        global_value = float(values.min())
    else:
        global_value = float(values.mean())
    return QualityReport(
        measure=spec.measure,
        combiner=spec.combiner,
        global_value=global_value,
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=float(values.mean()),
        invalid_count=invalid,
        per_element=values,
    )


def _scatter(n: int, conns, values) -> np.ndarray:
    """Sum per-element vertex vectors onto ``n`` vertices.

    ``conns`` and ``values`` list, per kind, (m, n_e) vertex indices and the
    matching (m, n_e, 3) vectors. ``np.bincount`` adds them in the order of
    the concatenation, which is the order ``np.add.at`` would use, so the
    sums are bit for bit the same.
    """
    if not conns:
        return np.zeros((n, 3))
    idx = np.concatenate([conn.ravel() for conn in conns])
    vectors = np.concatenate([v.reshape(-1, 3) for v in values])
    return np.stack([np.bincount(idx, vectors[:, j], minlength=n) for j in range(3)], axis=1)


def scatter_element_fields(mesh: Mesh, coords, per_element_scale=None, *, groups=None) -> np.ndarray:
    """Sum per-element transformation fields onto mesh vertices.

    ``per_element_scale`` optionally multiplies each element's field before
    the scatter (indexed in element order). ``groups`` is as in
    :func:`mesh_mean_volumes`.
    """
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    if groups is None:
        groups = kind_groups(mesh)
    conns, fields = [], []
    for kind, (ids, conn) in groups.items():
        f = geometry.element_fields(kind, coords[conn])
        if per_element_scale is not None:
            f = f * np.asarray(per_element_scale)[ids][:, None, None]
        conns.append(conn)
        fields.append(f)
    return _scatter(len(coords), conns, fields)


def _scatter_iq_gradients(mesh: Mesh, coords, groups) -> np.ndarray:
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    conns = [conn for _, conn in groups.values()]
    grads = [geometry.element_iq_gradients(kind, coords[conn]) for kind, (_, conn) in groups.items()]
    return _scatter(len(coords), conns, grads)


def quality_gradient_field(mesh: Mesh, coords=None, spec: QualityMeasureSpec | None = None) -> np.ndarray:
    """Exact gradient of :func:`mesh_quality`'s global value, shape (n, 3).

    Matches central finite differences of the global value. Undefined for the
    min combiner (nonsmooth) and for the mean ratio (no gradient is provided
    for it); both raise ``InvalidSpec``.
    """
    spec = spec or QualityMeasureSpec(Measure.MEAN_VOLUME_SUM)
    if spec.combiner is Combiner.MIN:
        raise InvalidSpec("the min combiner has no gradient")
    m = spec.measure
    if m is Measure.MEAN_RATIO:
        raise InvalidSpec("no gradient field is defined for the mean ratio measure")
    scale = 1.0 / mesh.n_elements if spec.combiner is Combiner.ARITHMETIC_MEAN else 1.0
    groups = kind_groups(mesh)
    if m is Measure.MEAN_VOLUME_SUM:
        return scale / 6.0 * scatter_element_fields(mesh, coords, groups=groups)
    if m is Measure.PRODUCT_SQUARED:
        v = _shifted_volumes(mesh, coords, spec.volume_shift, groups)
        q1 = np.prod(v**2)
        return q1 / 3.0 * scatter_element_fields(mesh, coords, per_element_scale=1.0 / v, groups=groups)
    if m is Measure.INVERSE_SQUARED_SUM:
        v = _shifted_volumes(mesh, coords, spec.volume_shift, groups)
        return scale / 3.0 * scatter_element_fields(mesh, coords, per_element_scale=v**-3, groups=groups)
    return scale * _scatter_iq_gradients(mesh, coords, groups)


def compute_volume_shift(mesh: Mesh, coords=None) -> float:
    """Shift making every shifted mean volume positive: 0 for valid meshes,
    twice the worst inversion otherwise."""
    return _volume_shift(mesh_mean_volumes(mesh, coords), mesh.vertices if coords is None else coords)


def _volume_shift(vols: np.ndarray, coords) -> float:
    if vols.size == 0:
        return 0.0
    worst = float(vols.min())
    if worst > 0.0:
        return 0.0
    if worst < 0.0:
        return 2.0 * abs(worst)
    # exactly degenerate: any positive value restores positivity
    coords = np.asarray(coords, dtype=float)
    diag = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return max(1e-12 * diag**3, np.finfo(float).tiny)
