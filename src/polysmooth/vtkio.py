"""Legacy ASCII unstructured-grid files (the single interchange format).

Cell type codes: 10 tetra, 12 hexahedron, 13 wedge (prism), 14 pyramid. The
file-local vertex orderings of all four types match the canonical orderings
in :mod:`polysmooth.mesh` directly (the wedge's bottom/top triangles pair
vertically i <-> i+3), so only the 0-based indexing carries over.

Output is byte-stable: fixed section order, 17-significant-digit floats, LF
line endings. Writing and re-reading a mesh reproduces coordinates bit for
bit.

The reader accepts any whitespace layout. It parses the POINTS, CELLS,
CELL_TYPES and scalar sections with numpy, which reads each number as
``float``/``int`` would. Every format violation, including a negative count
or a non-ASCII byte, raises :class:`~polysmooth.errors.MalformedFile` with
the line where it was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFile, UnsupportedCellType
from .mesh import Element, ElementKind, Mesh, make_mesh

CELL_TYPE_BY_KIND = {
    ElementKind.TETRA: 10,
    ElementKind.HEXA: 12,
    ElementKind.PRISM: 13,
    ElementKind.PYRAMID: 14,
}
KIND_BY_CELL_TYPE = {code: kind for kind, code in CELL_TYPE_BY_KIND.items()}


@dataclass
class MeshDocument:
    """Parsed file content before mesh assembly."""

    points: np.ndarray
    cells: list[tuple[int, ...]]
    cell_types: list[int]
    point_data: dict[str, np.ndarray] = field(default_factory=dict)
    cell_data: dict[str, np.ndarray] = field(default_factory=dict)


# ASCII whitespace as str.split() knows it
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = True


class _Tokens:
    """Whitespace-separated tokens of an ASCII text, with line numbers for diagnostics.

    One vectorized pass finds every token's offsets; only those are kept.
    Bulk sections are parsed by numpy, and a section numpy rejects is re-read
    token by token so that the error names the offending token and its line.
    """

    def __init__(self, data: bytes, first_line: int):
        self.text = data.decode("ascii")
        raw = np.frombuffer(data, dtype=np.uint8)
        edges = np.diff(np.concatenate(([True], _SPACE[raw], [True])).view(np.int8))
        self.starts = np.flatnonzero(edges == -1)
        self.ends = np.flatnonzero(edges == 1)
        self.newlines = np.flatnonzero(raw == ord("\n"))
        self.first_line = first_line
        self.pos = 0
        self.last_line = first_line

    def _line(self, index: int) -> int:
        return self.first_line + int(np.searchsorted(self.newlines, self.starts[index]))

    def peek(self) -> str | None:
        if self.exhausted():
            return None
        return self.text[self.starts[self.pos]:self.ends[self.pos]]

    def next(self, what: str) -> str:
        if self.exhausted():
            raise MalformedFile(f"unexpected end of file, expected {what}", self.last_line)
        tok = self.peek()
        self.last_line = self._line(self.pos)
        self.pos += 1
        return tok

    def _parse(self, convert, kind: str, what: str):
        tok = self.next(what)
        try:
            return convert(tok)
        except ValueError:
            raise MalformedFile(f"expected {kind} {what}, got {tok!r}", self.last_line) from None

    def next_int(self, what: str) -> int:
        return self._parse(int, "integer", what)

    def next_count(self, what: str) -> int:
        count = self.next_int(what)
        if count < 0:
            raise MalformedFile(f"negative {what} {count}", self.last_line)
        return count

    def next_float(self, what: str) -> float:
        return self._parse(float, "number", what)

    def array(self, count: int, dtype, what: str) -> np.ndarray:
        """The next ``count`` tokens as integers or floats."""
        first, stop = self.pos, self.pos + count
        if count and stop <= len(self.starts):
            try:
                values = np.fromstring(self.text[self.starts[first]:self.ends[stop - 1]], dtype=dtype, sep=" ")
            except ValueError:
                values = None
            if values is not None and values.size == count:
                self.pos = stop
                self.last_line = self._line(stop - 1)
                return values
        read = self.next_int if dtype is int else self.next_float
        values = [read(what) for _ in range(count)]
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            raise MalformedFile(f"{what} out of range", self.last_line) from None

    def exhausted(self) -> bool:
        return self.pos >= len(self.starts)


def read_document(path) -> MeshDocument:
    """Parse a file into points, cells, cell types and scalar data arrays."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    non_ascii = np.flatnonzero(raw >= 0x80)
    if non_ascii.size:
        at = int(non_ascii[0])
        line = 1 + int(np.count_nonzero(raw[:at] == ord("\n")))
        raise MalformedFile(f"non-ASCII byte 0x{raw[at]:02x}", line)
    head = data.split(b"\n", 2)
    if not head[0].startswith(b"# vtk DataFile Version"):
        raise MalformedFile("missing '# vtk DataFile Version' header", 1)
    if len(head) == 1 or (len(head) == 2 and not head[1]):
        raise MalformedFile("missing title line", 2)
    body = _Tokens(head[2] if len(head) == 3 else b"", first_line=3)

    def fail(msg: str):
        raise MalformedFile(msg, body.last_line)

    if body.next("format") != "ASCII":
        fail("only ASCII files are supported")
    if body.next("DATASET keyword") != "DATASET" or body.next("dataset type") != "UNSTRUCTURED_GRID":
        fail("expected DATASET UNSTRUCTURED_GRID")

    if body.next("POINTS keyword") != "POINTS":
        fail("expected POINTS section")
    n_points = body.next_count("point count")
    dtype = body.next("point data type")
    if dtype not in ("float", "double"):
        fail(f"unsupported point type {dtype!r}")
    points = body.array(3 * n_points, float, "point coordinate").reshape(n_points, 3)

    if body.next("CELLS keyword") != "CELLS":
        fail("expected CELLS section")
    n_cells = body.next_count("cell count")
    total = body.next_count("cell list size")
    flat = body.array(total, int, "cell list entry")
    values = flat.tolist()
    if total and flat.min() >= 0 and flat.max() < n_points:
        # one int object per vertex index, shared by all cells that use it
        shared = list(range(n_points))
        values = [shared[v] for v in values]
    cells: list[tuple[int, ...]] = []
    consumed = 0
    for _ in range(n_cells):
        if consumed >= total:
            fail(f"CELLS advertised {total} integers, too few for {n_cells} cells")
        arity = values[consumed]
        end = consumed + 1 + arity
        if arity < 0 or end > total:
            fail(f"cell {len(cells)} has arity {arity} beyond the {total} advertised integers")
        cells.append(tuple(values[consumed + 1:end]))
        consumed = end
    if consumed != total:
        fail(f"CELLS advertised {total} integers but contained {consumed}")

    if body.next("CELL_TYPES keyword") != "CELL_TYPES":
        fail("expected CELL_TYPES section")
    if body.next_count("cell type count") != n_cells:
        fail("CELL_TYPES count differs from CELLS count")
    cell_types = body.array(n_cells, int, "cell type").tolist()

    doc = MeshDocument(points=points, cells=cells, cell_types=cell_types)
    while not body.exhausted():
        section = body.next("data section")
        if section == "POINT_DATA":
            count, store = body.next_count("point data count"), doc.point_data
            if count != n_points:
                fail("POINT_DATA count differs from point count")
        elif section == "CELL_DATA":
            count, store = body.next_count("cell data count"), doc.cell_data
            if count != n_cells:
                fail("CELL_DATA count differs from cell count")
        else:
            fail(f"unexpected section {section!r}")
        while not body.exhausted() and body.peek() not in ("POINT_DATA", "CELL_DATA"):
            if body.next("SCALARS keyword") != "SCALARS":
                fail("only SCALARS data arrays are supported")
            name = body.next("array name")
            body.next("array type")
            comps_or_table = body.next("components or LOOKUP_TABLE")
            if comps_or_table != "LOOKUP_TABLE":
                if comps_or_table != "1":
                    fail("only single-component scalars are supported")
                if body.next("LOOKUP_TABLE keyword") != "LOOKUP_TABLE":
                    fail("expected LOOKUP_TABLE after SCALARS")
            body.next("lookup table name")
            store[name] = body.array(count, float, "scalar value")
    return doc


def mesh_from_document(doc: MeshDocument) -> Mesh:
    elements = []
    for i, (cell, code) in enumerate(zip(doc.cells, doc.cell_types)):
        kind = KIND_BY_CELL_TYPE.get(code)
        if kind is None:
            raise UnsupportedCellType(f"cell {i} has unsupported type {code}")
        if len(cell) != kind.vertex_count:
            raise MalformedFile(f"cell {i} of type {code} has {len(cell)} vertices", 0)
        elements.append(Element(kind, cell))
    return make_mesh(doc.points, elements)


def read_mesh(path) -> Mesh:
    """Read a mesh, converting file cells to canonical elements."""
    return mesh_from_document(read_document(path))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_mesh(mesh: Mesh, path, coords=None, point_data=None, cell_data=None) -> None:
    """Write the mesh (optionally with replacement coordinates) byte-stably.

    ``point_data`` / ``cell_data`` are name -> 1d-array mappings emitted as
    scalar arrays in sorted name order.
    """
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    out = []
    out.append("# vtk DataFile Version 3.0")
    out.append("polysmooth mesh")
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {len(coords)} double")
    for p in coords:
        out.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    total = sum(len(e.vertices) + 1 for e in mesh.elements)
    out.append(f"CELLS {mesh.n_elements} {total}")
    for e in mesh.elements:
        out.append(" ".join([str(len(e.vertices))] + [str(v) for v in e.vertices]))
    out.append(f"CELL_TYPES {mesh.n_elements}")
    for e in mesh.elements:
        out.append(str(CELL_TYPE_BY_KIND[e.kind]))
    for keyword, count, data in (
        ("POINT_DATA", mesh.n_vertices, point_data),
        ("CELL_DATA", mesh.n_elements, cell_data),
    ):
        if not data:
            continue
        out.append(f"{keyword} {count}")
        for name in sorted(data):
            values = np.asarray(data[name], dtype=float)
            if values.shape != (count,):
                raise ValueError(f"{keyword} array {name!r} must have shape ({count},)")
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            for v in values:
                out.append(_fmt(v))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
