import numpy as np
import pytest

from polysmooth import ElementKind
from polysmooth.mesh import FACES


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


# Kuhn split of a hexahedron into six tetrahedra around its 0-6 diagonal
_HEX_TETS = ((0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6), (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6))


@pytest.fixture
def interleaved_mesh():
    """A 3x3x3 hex grid whose cells, in turn, stay hexa or split into two
    prisms, six pyramids around an added centre or six tetrahedra, so that
    all four kinds interleave in element order and share vertices."""
    from polysmooth import Element, make_mesh
    from polysmooth.generators import hex_grid
    from polysmooth.geometry import element_mean_volume

    grid = hex_grid(3)
    points = [p for p in grid.vertices]
    elements = []
    for i, cell in enumerate(grid.elements):
        v = cell.vertices
        if i % 4 == 0:
            elements.append(cell)
        elif i % 4 == 1:
            elements.append(Element(ElementKind.PRISM, (v[0], v[1], v[2], v[4], v[5], v[6])))
            elements.append(Element(ElementKind.PRISM, (v[0], v[2], v[3], v[4], v[6], v[7])))
        elif i % 4 == 2:
            points.append(grid.vertices[list(v)].mean(axis=0))
            for face in FACES[ElementKind.HEXA]:
                base = tuple(v[j] for j in reversed(face))
                elements.append(Element(ElementKind.PYRAMID, base + (len(points) - 1,)))
        else:
            for tet in _HEX_TETS:
                t = [v[j] for j in tet]
                if element_mean_volume(ElementKind.TETRA, grid.vertices[t]) < 0:
                    t[0], t[1] = t[1], t[0]
                elements.append(Element(ElementKind.TETRA, t))
    return make_mesh(np.array(points), elements)
