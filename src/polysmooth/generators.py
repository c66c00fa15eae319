"""Built-in test meshes: single elements, structured grids, perturbations.

``regular_element`` returns the stationary shape of the volume-ascent flow
for each kind: the regular tetrahedron and the cube, and for pyramid and
prism the aspect ratios at which the transformation field is exactly radial
(apex height sqrt(5)/2 for a unit base edge, prism height sqrt(2/3) for a
unit triangle edge). Equal-edge pyramids and prisms are not stationary.

One table maps each name of :func:`generate`, and of the CLI's ``generate
--spec``, to its builder; :data:`GENERATOR_NAMES` is its keys in order.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import geometry, quality
from .errors import InvalidSpec, NoValidDraw
from .geometry import REGULAR_TETRA
from .mesh import (_MAX_KEYED_VERTICES, KIND_CODES, Connectivity, Element, ElementKind, Mesh, _freeze, make_mesh,
                   vertex_array)

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICOSA_VERTICES = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)

_ICOSA_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def unit_element(kind: ElementKind) -> Mesh:
    """Axis-aligned unit element: tetra vol 1/6, pyramid 1/3, prism 1/2, cube 1."""
    if kind is ElementKind.TETRA:
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    elif kind is ElementKind.PYRAMID:
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 1]]
    elif kind is ElementKind.PRISM:
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]
    else:
        pts = [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ]
    return make_mesh(np.asarray(pts, dtype=float), [Element(kind, range(len(pts)))])


def regular_element_coords(kind: ElementKind) -> np.ndarray:
    if kind is ElementKind.TETRA:
        return REGULAR_TETRA.copy()
    if kind is ElementKind.PYRAMID:
        h = math.sqrt(5.0) / 2.0
        return np.array(
            [[-0.5, -0.5, 0], [0.5, -0.5, 0], [0.5, 0.5, 0], [-0.5, 0.5, 0], [0, 0, h]]
        )
    if kind is ElementKind.PRISM:
        h = math.sqrt(2.0 / 3.0)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        tri -= tri.mean(axis=0)
        bottom = np.hstack([tri, np.full((3, 1), -h / 2.0)])
        top = np.hstack([tri, np.full((3, 1), h / 2.0)])
        return np.vstack([bottom, top])
    return unit_element(ElementKind.HEXA).vertices.copy()


def regular_element(kind: ElementKind) -> Mesh:
    pts = regular_element_coords(kind)
    return make_mesh(pts, [Element(kind, range(len(pts)))])


def tet_with_inner_vertex(inner=None) -> Mesh:
    """Regular unit-edge tetrahedron split into four tets by one inner vertex."""
    outer = REGULAR_TETRA.copy()
    inner = outer.mean(axis=0) if inner is None else np.asarray(inner, dtype=float)
    if inner.shape != (3,):
        raise InvalidSpec(f"inner vertex must be one point (x, y, z), got shape {inner.shape}")
    pts = np.vstack([outer, inner])
    conn = [(0, 1, 2, 4), (0, 3, 1, 4), (0, 2, 3, 4), (1, 3, 2, 4)]
    return make_mesh(pts, [Element(ElementKind.TETRA, c) for c in conn])


def _integer(value, what: str) -> int:
    """``value`` as an int, by ``operator.index``; ``InvalidSpec`` names any other value."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{what} must be an integer, got {value!r}") from None


def _seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for an integer ``seed`` >= 0; any other seed raises ``InvalidSpec``."""
    if _integer(seed, "seed") < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


# Cube corners are numbered x + 2y + 4z. The six tets share the main
# diagonal 0-7 and are positively oriented.
_HEXA_CORNERS = ((0, 1, 3, 2, 4, 5, 7, 6),)
_TETRA_CORNERS = ((0, 1, 3, 7), (0, 5, 1, 7), (0, 3, 2, 7), (0, 2, 6, 7), (0, 4, 5, 7), (0, 6, 4, 7))


def _grid(k: int, kind: ElementKind, corners) -> Mesh:
    """Unit-cube grid of k^3 cells, x fastest, each split into elements on the cube ``corners``; ``InvalidSpec``
    before any allocation for more vertices, (k + 1)^3, than :func:`make_mesh` can match faces over."""
    k = _integer(k, "grid size")
    if k < 1:
        raise InvalidSpec(f"grid size must be positive, got {k}")
    if (k + 1) ** 3 > _MAX_KEYED_VERTICES:
        raise InvalidSpec(f"grid size {k} needs {(k + 1) ** 3} vertices; face matching allows {_MAX_KEYED_VERTICES}")
    axis = np.linspace(0.0, 1.0, k + 1)
    zz, yy, xx = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    c = np.asarray(corners)
    offsets = (c & 1) + (c >> 1 & 1) * (k + 1) + (c >> 2) * (k + 1) ** 2
    i = np.arange(k)
    lowest = (i[:, None, None] * (k + 1) + i[:, None]) * (k + 1) + i  # [z, y, x]
    flat = (lowest.reshape(-1, 1, 1) + offsets).ravel()
    return make_mesh(pts, Connectivity(np.full(k**3 * len(c), KIND_CODES[kind]), flat))


def hex_grid(k: int) -> Mesh:
    """Structured k x k x k hexahedral grid on the unit cube."""
    return _grid(k, ElementKind.HEXA, _HEXA_CORNERS)


def tet_grid(k: int) -> Mesh:
    """Structured tetrahedral grid: each cube cell split into six tets.

    All cells use the same main-diagonal split, so shared faces carry
    matching diagonals and the mesh is conforming.
    """
    return _grid(k, ElementKind.TETRA, _TETRA_CORNERS)


def icosahedron_polyhedron() -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Regular icosahedron (edge length 2) as a closed triangulated surface."""
    return _ICOSA_VERTICES.copy(), _ICOSA_FACES


def icosahedron_mesh() -> Mesh:
    """Icosahedron volume mesh: 20 tets fanning out from the centroid."""
    pts = np.vstack([_ICOSA_VERTICES, np.zeros(3)])
    # outward surface faces leave the centroid on their negative side
    elems = [Element(ElementKind.TETRA, (a, c, b, 12)) for a, b, c in _ICOSA_FACES]
    return make_mesh(pts, elems)


def perturb_mesh(mesh: Mesh, eps: float, seed: int = 0, fix_boundary: bool = True) -> Mesh:
    """Displace vertices by at most ``eps`` each; ``eps == 0`` is the identity.

    The result shares the elements and adjacency of ``mesh``.
    """
    pts = mesh.vertices
    if eps != 0:
        pts = pts + random_displacements(len(pts), eps, seed, mesh.boundary if fix_boundary else None)
    return dataclasses.replace(mesh, vertices=_freeze(vertex_array(pts)))


def random_displacements(n: int, eps: float, seed: int = 0, frozen=None) -> np.ndarray:
    """Displacements (n, 3): normalized Gaussian directions times lengths uniform in [0, eps), drawn in
    that order from ``np.random.default_rng(seed)``; zero on the vertices ``frozen`` selects."""
    if _integer(n, "vertex count") < 0:
        raise InvalidSpec(f"vertex count must be >= 0, got {n}")
    if not 0 <= eps < math.inf:
        raise InvalidSpec(f"perturbation amplitude must be finite and >= 0, got {eps}")
    rng = _seeded_rng(seed)
    direction = rng.standard_normal((n, 3))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms < 1e-300] = 1.0
    step = direction / norms * rng.uniform(0.0, eps, size=(n, 1))
    if frozen is not None:
        step[frozen] = 0.0
    return step


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_element_coords(
    kind: ElementKind,
    rng: np.random.Generator,
    jitter: float = 0.25,
    transform: bool = True,
) -> np.ndarray:
    """Random valid element coordinates: jittered regular shape, optionally
    rotated, scaled and translated. Resamples until comfortably non-degenerate.
    ``jitter`` must be finite and >= 0."""
    if not 0 <= jitter < math.inf:
        raise InvalidSpec(f"jitter must be finite and >= 0, got {jitter}")
    base = regular_element_coords(kind)
    vol0 = geometry.element_mean_volume(kind, base)
    while True:
        x = base + rng.uniform(-jitter, jitter, size=base.shape)
        if geometry.element_mean_volume(kind, x) > 0.2 * vol0:
            break
    if transform:
        x = x @ random_rotation(rng).T
        x *= rng.uniform(0.5, 2.0)
        x += rng.uniform(-1.0, 1.0, size=3)
    return x


def _house_mesh() -> Mesh:
    """Unit cube with a pyramid on its top face (smallest mixed mesh)."""
    cube = unit_element(ElementKind.HEXA).vertices
    pts = np.vstack([cube, [0.5, 0.5, 1.7]])
    return make_mesh(
        pts,
        [Element(ElementKind.HEXA, range(8)), Element(ElementKind.PYRAMID, (4, 5, 6, 7, 8))],
    )


def random_valid_mesh(rng: np.random.Generator) -> Mesh:
    """Small random mesh with every element valid (positive mean volume).

    Draws from a zoo: single elements of every kind, the inner-vertex tet
    split, a mixed cube+pyramid pair, and perturbed 2x2x2 grids.
    """
    pick = rng.integers(0, 8)
    if pick < 4:
        kind = list(ElementKind)[pick]
        return make_mesh(
            random_element_coords(kind, rng), [Element(kind, range(kind.vertex_count))]
        )
    if pick == 4:
        centroid = REGULAR_TETRA.mean(axis=0)
        mesh = tet_with_inner_vertex(centroid + rng.uniform(-0.12, 0.12, size=3))
        base, eps = mesh, 0.05
    elif pick == 5:
        base, eps = _house_mesh(), 0.1
    elif pick == 6:
        base, eps = tet_grid(2), 0.08
    else:
        base, eps = hex_grid(2), 0.08
    for attempt in range(100):
        mesh = perturb_mesh(base, eps, seed=int(rng.integers(2**31)), fix_boundary=False)
        if np.all(quality.mesh_mean_volumes(mesh) > 0):
            return mesh
    raise NoValidDraw(f"no valid mesh in 100 perturbed draws of amplitude {eps}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Named mesh recipe with optional perturbation.

    ``inner`` positions the inner vertex of the ``inner-tet`` configuration;
    ``size`` is the cells-per-side of the structured grids.
    """

    name: str
    size: int = 2
    seed: int = 0
    perturb: float = 0.0
    fix_boundary: bool = True
    inner: tuple[float, float, float] | None = None


_BUILDERS = {
    **{f"unit-{k.value}": lambda spec, k=k: unit_element(k) for k in ElementKind},
    **{f"regular-{k.value}": lambda spec, k=k: regular_element(k) for k in ElementKind},
    "inner-tet": lambda spec: tet_with_inner_vertex(spec.inner),
    "tet-cube": lambda spec: tet_grid(spec.size),
    "hex-cube": lambda spec: hex_grid(spec.size),
    "icosahedron": lambda spec: icosahedron_mesh(),
}

GENERATOR_NAMES = tuple(_BUILDERS)


def generate(spec: GeneratorSpec) -> Mesh:
    """Build the mesh named by ``spec``, applying any requested perturbation."""
    build = _BUILDERS.get(spec.name)
    if build is None:
        raise InvalidSpec(f"unknown generator {spec.name!r}; expected one of {GENERATOR_NAMES}")
    mesh = build(spec)
    if spec.perturb:
        mesh = perturb_mesh(mesh, spec.perturb, seed=spec.seed, fix_boundary=spec.fix_boundary)
    return mesh
