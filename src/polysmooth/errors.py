"""Exception types raised across the package."""


class PolysmoothError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidElement(PolysmoothError):
    """Element references a bad vertex (out of range, repeated, wrong count)."""


class InvalidSpec(PolysmoothError):
    """A generator or measure specification is inconsistent or unsupported."""


class InvalidPolygon(PolysmoothError):
    """A polyhedron's face list is empty, not integer, out of range, has a face that
    is neither a triangle nor a quadrilateral, or does not close the surface."""


class DegenerateElement(PolysmoothError):
    """Element has collapsed below the degeneracy threshold (zero area/volume)."""


class DegenerateMesh(PolysmoothError):
    """All vertices coincide; the shape projection is undefined."""


class NonPositiveVolume(PolysmoothError):
    """A measure that needs positive (shifted) mean volumes hit a violation."""

    def __init__(self, element_id: int, volume: float):
        super().__init__(
            f"element {element_id} has nonpositive shifted mean volume {volume!r}"
        )
        self.element_id = element_id
        self.volume = volume


class ProductUnderflow(PolysmoothError):
    """A product measure of positive factors rounds to 0; use its logarithm."""


class ProductOverflow(PolysmoothError):
    """A product measure rounds to inf; use its logarithm."""


class MixedMeshMeanRatio(PolysmoothError):
    """Mean ratio is defined for tetrahedra only; the mesh has other kinds."""


class IsolatedVertex(PolysmoothError):
    """Valence averaging is undefined on a vertex contained in no element."""


class NoValidDraw(PolysmoothError):
    """Every random draw of a test mesh inverted an element."""


class OracleDomainError(PolysmoothError):
    """Finite-difference probe left the domain of the function under test."""


class UnsupportedCellType(PolysmoothError):
    """Mesh file contains a cell type outside tetra/pyramid/wedge/hexahedron."""


class MalformedFile(PolysmoothError):
    """Mesh file violates the legacy ASCII unstructured-grid layout."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
