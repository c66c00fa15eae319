"""Legacy ASCII unstructured-grid files (the single interchange format).

Cell type codes: 10 tetra, 12 hexahedron, 13 wedge (prism), 14 pyramid. The
file-local vertex orderings of all four types match the canonical orderings
in :mod:`polysmooth.mesh` directly (the wedge's bottom/top triangles pair
vertically i <-> i+3), so only the 0-based indexing carries over.

Output is byte-stable: fixed section order, 17-significant-digit floats, LF
line endings. Writing and re-reading a mesh reproduces coordinates bit for
bit. Each section is formatted by one ``%`` operation over all its numbers.

The reader accepts any whitespace layout. It parses the POINTS, CELLS,
CELL_TYPES and scalar sections with numpy, which reads each number as
``float``/``int`` would, and keeps the cells in the CSR form of
:class:`~polysmooth.mesh.Connectivity`. Every format violation, including a
negative count or a non-ASCII byte, raises
:class:`~polysmooth.errors.MalformedFile` with the line where it was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFile, UnsupportedCellType
from .mesh import KIND_CODES, Connectivity, Element, ElementKind, Mesh, make_mesh

CELL_TYPE_BY_KIND = {
    ElementKind.TETRA: 10,
    ElementKind.HEXA: 12,
    ElementKind.PRISM: 13,
    ElementKind.PYRAMID: 14,
}
KIND_BY_CELL_TYPE = {code: kind for kind, code in CELL_TYPE_BY_KIND.items()}


@dataclass
class MeshDocument:
    """Parsed file content before mesh assembly.

    Cell i lists the vertices ``connectivity[offsets[i]:offsets[i + 1]]``;
    its entry in the CELLS section starts on line ``cell_lines[i]``.
    """

    points: np.ndarray
    cell_types: np.ndarray
    offsets: np.ndarray
    connectivity: np.ndarray
    cell_lines: np.ndarray
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

    def lines(self, indices):
        """Line numbers of the tokens at ``indices``."""
        return self.first_line + np.searchsorted(self.newlines, self.starts[indices])

    def peek(self) -> str | None:
        """The next token, or None at the end."""
        if self.pos < len(self.starts):
            return self.text[self.starts[self.pos]:self.ends[self.pos]]
        return None

    def next(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise MalformedFile(f"unexpected end of file, expected {what}", self.last_line)
        self.last_line = int(self.lines(self.pos))
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
                self.last_line = int(self.lines(stop - 1))
                return values
        read = self.next_int if dtype is int else lambda w: self._parse(float, "number", w)
        values = [read(what) for _ in range(count)]
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            raise MalformedFile(f"{what} out of range", self.last_line) from None


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
    first_token = body.pos
    flat = body.array(total, int, "cell list entry")
    values, starts, consumed = flat.tolist(), [], 0
    for i in range(n_cells):
        if consumed >= total:
            fail(f"CELLS advertised {total} integers, too few for {n_cells} cells")
        arity = values[consumed]
        end = consumed + 1 + arity
        if arity < 0 or end > total:
            fail(f"cell {i} has arity {arity} beyond the {total} advertised integers")
        starts.append(consumed)
        consumed = end
    if consumed != total:
        fail(f"CELLS advertised {total} integers but contained {consumed}")
    starts = np.array(starts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(flat[starts])])

    if body.next("CELL_TYPES keyword") != "CELL_TYPES":
        fail("expected CELL_TYPES section")
    if body.next_count("cell type count") != n_cells:
        fail("CELL_TYPES count differs from CELLS count")
    cell_types = body.array(n_cells, int, "cell type")

    doc = MeshDocument(points, cell_types, offsets, np.delete(flat, starts), body.lines(first_token + starts))
    while body.peek() is not None:
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
        while body.peek() not in (None, "POINT_DATA", "CELL_DATA"):
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
    """Assemble the mesh; the first bad cell in file order raises, checked
    for its type, then its vertex count, then a repeated vertex."""
    types, offsets, conn = doc.cell_types, doc.offsets, doc.connectivity
    counts = np.diff(offsets)
    codes = np.full(len(types), -1, dtype=np.int8)
    ok = np.zeros(len(types), dtype=bool)
    for cell_type, kind in KIND_BY_CELL_TYPE.items():
        codes[types == cell_type] = KIND_CODES[kind]
        ids = np.flatnonzero((types == cell_type) & (counts == kind.vertex_count))
        rows = np.sort(conn[offsets[ids, None] + np.arange(kind.vertex_count)], axis=1)
        ok[ids] = np.all(rows[:, 1:] != rows[:, :-1], axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        kind = KIND_BY_CELL_TYPE.get(int(types[i]))
        if kind is None:
            raise UnsupportedCellType(f"cell {i} has unsupported type {types[i]}")
        if counts[i] != kind.vertex_count:
            raise MalformedFile(f"cell {i} of type {types[i]} has {counts[i]} vertices", int(doc.cell_lines[i]))
        Element(kind, conn[offsets[i]:offsets[i + 1]])  # raises InvalidElement: a repeated vertex
    return make_mesh(doc.points, Connectivity(codes, conn))


def read_mesh(path) -> Mesh:
    """Read a mesh, converting file cells to canonical elements."""
    return mesh_from_document(read_document(path))


_CELL_LINE = {code: "%d" + " %d" * kind.vertex_count + "\n" for kind, code in KIND_CODES.items()}
_TYPE_LINE = {code: f"{CELL_TYPE_BY_KIND[kind]}\n" for kind, code in KIND_CODES.items()}


def write_mesh(mesh: Mesh, path, coords=None, point_data=None, cell_data=None) -> None:
    """Write the mesh (optionally with replacement coordinates) byte-stably.

    ``point_data`` / ``cell_data`` are name -> 1d-array mappings emitted as
    scalar arrays in sorted name order.
    """
    coords = mesh.vertices if coords is None else np.asarray(coords, dtype=float)
    cells = mesh.elements
    n, counts, codes = len(cells), cells.counts, cells.codes.tolist()
    listing = np.insert(cells.flat, np.cumsum(counts) - counts, counts)  # each count, then the vertices
    out = [
        "# vtk DataFile Version 3.0\npolysmooth mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {len(coords)} double\n",
        "%.17g %.17g %.17g\n" * len(coords) % tuple(coords.ravel().tolist()),
        f"CELLS {n} {len(listing)}\n",
        "".join([_CELL_LINE[c] for c in codes]) % tuple(listing.tolist()),
        f"CELL_TYPES {n}\n",
        "".join([_TYPE_LINE[c] for c in codes]),
    ]
    for keyword, count, data in (
        ("POINT_DATA", mesh.n_vertices, point_data),
        ("CELL_DATA", n, cell_data),
    ):
        if not data:
            continue
        out.append(f"{keyword} {count}\n")
        for name in sorted(data):
            values = np.asarray(data[name], dtype=float)
            if values.shape != (count,):
                raise ValueError(f"{keyword} array {name!r} must have shape ({count},)")
            out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.append("%.17g\n" * count % tuple(values.tolist()))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(out))
