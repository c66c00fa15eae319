"""Legacy ASCII unstructured-grid files (the single interchange format).

Cell type codes: 10 tetra, 12 hexahedron, 13 wedge (prism), 14 pyramid. The
file-local vertex orderings of all four types match the canonical orderings
in :mod:`polysmooth.mesh` directly (the wedge's bottom/top triangles pair
vertically i <-> i+3), so only the 0-based indexing carries over.

Output is byte-stable: fixed section order, 17-significant-digit floats, LF
line endings. Writing and re-reading a mesh reproduces coordinates bit for
bit. Each float section is formatted by one ``%`` operation over all its
numbers. The integer sections, CELLS and CELL_TYPES, are gathered from a
digit table that spells each number up to the largest once, so they cost
array operations, not one Python object per integer.

The reader accepts any whitespace layout and keeps one offset per token,
where the token starts. Bytes 28 to 31, whitespace to ``str.split()`` but
not to numpy, are read as spaces, so numpy parses the POINTS, CELLS,
CELL_TYPES and scalar sections, reading each number as ``float``/``int`` would.
Each cell's type fixes its vertex count, so the types place every cell in
the CELLS list in one pass, and the cells become the checked CSR
:class:`~polysmooth.mesh.Connectivity`. The first bad cell in file order
raises: :class:`~polysmooth.errors.UnsupportedCellType` for an unknown type,
:class:`~polysmooth.errors.InvalidElement` for a repeated vertex. Every
format violation, including a negative count, a cell listed with another
vertex count than its type's, or a non-ASCII byte, raises
:class:`~polysmooth.errors.MalformedFile` with the line where it was found.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, MalformedFile, UnsupportedCellType
from .mesh import _ARITY, KIND_CODES, Connectivity, ElementKind, Mesh, _checked_coords, make_mesh

CELL_TYPE_BY_KIND = {
    ElementKind.TETRA: 10,
    ElementKind.HEXA: 12,
    ElementKind.PRISM: 13,
    ElementKind.PYRAMID: 14,
}
KIND_BY_CELL_TYPE = {code: kind for kind, code in CELL_TYPE_BY_KIND.items()}
_SEPARATORS = b"\x1c\x1d\x1e\x1f"
_TO_SPACES = bytes.maketrans(_SEPARATORS, b" " * len(_SEPARATORS))


@dataclass
class MeshDocument:
    """Parsed file content: the points, the checked cells, and the scalar arrays by name."""

    points: np.ndarray
    cells: Connectivity
    point_data: dict[str, np.ndarray] = field(default_factory=dict)
    cell_data: dict[str, np.ndarray] = field(default_factory=dict)


class _Tokens:
    """Whitespace-separated tokens of an ASCII text, with line numbers for diagnostics.

    The tokens are those of ``str.split()``. Its ASCII whitespace, bytes 9 to
    13 and 28 to 32, is found by byte comparisons: a byte is whitespace when
    its uint8 difference from 9 or from 28, which wraps below 0, is at most 4.
    A token starts at a byte that is no whitespace after one that is, and
    only those offsets are kept, followed by the text's length: a token is
    its text up to the next start, right-stripped (``str.isspace`` is the
    same whitespace). Lines are counted at LF bytes. Bulk sections are parsed
    by numpy, and a section numpy rejects is re-read token by token so that
    the error names the offending token and its line.
    """

    def __init__(self, data: memoryview, first_line: int):
        self.text = str(data, "ascii")
        raw = np.frombuffer(data, dtype=np.uint8)
        self.newlines = np.flatnonzero(raw == ord("\n"))  # first: its mask and the whitespace masks are never held at once
        space = raw - np.uint8(9)
        np.minimum(space, raw - np.uint8(28), out=space)
        space = space <= 4
        begins = np.empty(len(raw) + 1, dtype=bool)
        np.greater(space[:-1], space[1:], out=begins[1:-1])  # whitespace, then a token byte
        begins[0] = len(raw) and not space[0]
        begins[-1] = True
        self.starts = np.flatnonzero(begins)
        self.first_line = first_line
        self.pos = 0
        self.last_line = first_line

    def lines(self, indices):
        """Line numbers of the tokens at ``indices``."""
        return self.first_line + np.searchsorted(self.newlines, self.starts[indices])

    def peek(self) -> str | None:
        """The next token, or None at the end."""
        if self.pos < len(self.starts) - 1:
            return self.text[self.starts[self.pos]:self.starts[self.pos + 1]].rstrip()
        return None

    def next(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise MalformedFile(f"unexpected end of file, expected {what}", self.last_line)
        self.last_line = int(self.lines(self.pos))
        self.pos += 1
        return tok

    def expect(self, keyword: str, what: str, message: str) -> None:
        """Take the next token, which must be ``keyword``; any other raises ``message``."""
        if self.next(what) != keyword:
            raise MalformedFile(message, self.last_line)

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
        if count and stop < len(self.starts):
            # numpy 1.x warns on unmatched data and returns the numbers before it; numpy 2 raises
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                try:
                    values = np.fromstring(self.text[self.starts[first]:self.starts[stop]], dtype=dtype, sep=" ")
                except (ValueError, DeprecationWarning):
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


def _place_cells(flat: np.ndarray, types: np.ndarray, line_of) -> Connectivity:
    """The cells of the CELLS list ``flat``: cell i is listed as the vertex count its type
    ``types[i]`` fixes, then its vertices, so the types place every cell. The first cell of an
    unknown type, another count, or vertices past the list's end raises, after the cells ahead
    of it are checked for a repeated vertex; ``line_of(j)`` is the line of the list's entry j."""
    total, n = len(flat), len(types)
    codes = np.full(n, -1, dtype=np.int8)
    for cell_type, kind in KIND_BY_CELL_TYPE.items():
        codes[types == cell_type] = KIND_CODES[kind]
    counts = _ARITY[codes]  # code -1 reads some count: cells past a bad one are never taken
    bounds = np.concatenate([[0], np.cumsum(counts + 1)])  # where each cell starts, then the last end
    starts = bounds[:-1]
    listed = int(np.searchsorted(starts, total))  # the cells whose count is in the list
    bad = (codes < 0) | (bounds[1:] > total)
    bad[:listed] |= flat[starts[:listed]] != counts[:listed]
    i = int(np.argmax(bad)) if bad.any() else n
    cells = Connectivity(codes[:i], np.delete(flat[:bounds[i]], starts[:i]))  # raises at a repeated vertex
    if i < n:
        if codes[i] < 0:
            raise UnsupportedCellType(f"cell {i} has unsupported type {types[i]}")
        at = starts[i]
        if at < total and flat[at] != counts[i]:
            raise MalformedFile(f"cell {i} of type {types[i]} has {flat[at]} vertices", line_of(at))
        raise MalformedFile(f"cell {i} of type {types[i]} runs past the {total} advertised integers",
                            line_of(min(at, total - 1)))
    if bounds[n] != total:
        raise MalformedFile(f"CELLS advertised {total} integers, but its {n} cells take {bounds[n]}",
                            line_of(total - 1))
    return cells


def read_document(path) -> MeshDocument:
    """Parse a file into points, checked cells and scalar data arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size and raw.max() >= 0x80:
        at = int(np.argmax(raw >= 0x80))
        line = 1 + int(np.count_nonzero(raw[:at] == ord("\n")))
        raise MalformedFile(f"non-ASCII byte 0x{raw[at]:02x}", line)
    if not data.startswith(b"# vtk DataFile Version"):
        raise MalformedFile("missing '# vtk DataFile Version' header", 1)
    title = data.find(b"\n") + 1
    if title in (0, len(data)):
        raise MalformedFile("missing title line", 2)
    end = data.find(b"\n", title)
    if any(sep in data for sep in _SEPARATORS):  # numpy splits numbers at spaces, str.split() at these too
        data = data.translate(_TO_SPACES)
    body = _Tokens(memoryview(data)[len(data) if end < 0 else end + 1 :], first_line=3)  # a view, not a copy
    del data, raw  # the tokens keep the decoded text

    def fail(msg: str):
        raise MalformedFile(msg, body.last_line)

    body.expect("ASCII", "format", "only ASCII files are supported")
    body.expect("DATASET", "DATASET keyword", "expected DATASET UNSTRUCTURED_GRID")
    body.expect("UNSTRUCTURED_GRID", "dataset type", "expected DATASET UNSTRUCTURED_GRID")

    body.expect("POINTS", "POINTS keyword", "expected POINTS section")
    n_points = body.next_count("point count")
    dtype = body.next("point data type")
    if dtype not in ("float", "double"):
        fail(f"unsupported point type {dtype!r}")
    points = body.array(3 * n_points, float, "point coordinate").reshape(n_points, 3)

    body.expect("CELLS", "CELLS keyword", "expected CELLS section")
    n_cells = body.next_count("cell count")
    total = body.next_count("cell list size")
    first_token = body.pos
    flat = body.array(total, int, "cell list entry")

    body.expect("CELL_TYPES", "CELL_TYPES keyword", "expected CELL_TYPES section")
    if body.next_count("cell type count") != n_cells:
        fail("CELL_TYPES count differs from CELLS count")
    cells = _place_cells(flat, body.array(n_cells, int, "cell type"), lambda j: int(body.lines(first_token + j)))

    doc = MeshDocument(points, cells)
    sections = {"POINT_DATA": ("point", n_points, doc.point_data), "CELL_DATA": ("cell", n_cells, doc.cell_data)}
    while body.peek() is not None:
        section = body.next("data section")
        if section not in sections:
            fail(f"unexpected section {section!r}")
        noun, expected, store = sections[section]
        count = body.next_count(f"{noun} data count")
        if count != expected:
            fail(f"{section} count differs from {noun} count")
        while body.peek() not in (None, *sections):
            body.expect("SCALARS", "SCALARS keyword", "only SCALARS data arrays are supported")
            name = body.next("array name")
            body.next("array type")
            if body.peek() != "LOOKUP_TABLE":  # the component count is optional and must be 1
                body.expect("1", "components or LOOKUP_TABLE", "only single-component scalars are supported")
            body.expect("LOOKUP_TABLE", "LOOKUP_TABLE keyword", "expected LOOKUP_TABLE after SCALARS")
            body.next("lookup table name")
            store[name] = body.array(count, float, "scalar value")
    return doc


def read_mesh(path) -> Mesh:
    """Read a mesh, converting file cells to canonical elements."""
    doc = read_document(path)
    return make_mesh(doc.points, doc.cells)


_CELL_TYPES = np.array([CELL_TYPE_BY_KIND[kind] for kind in KIND_CODES])
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _int_text(values: np.ndarray, line_ends: np.ndarray) -> str:
    """The non-negative ``values`` as ``%d`` text, each followed by a newline
    where ``line_ends`` is set and by a space elsewhere.

    Every number from 0 to the largest is spelled once, right-aligned in a
    row of a digit table padded with zero bytes; the rows are gathered by
    ``values`` and the padding dropped.
    """
    top = int(values.max(initial=0))
    width = len(str(top))
    table = np.zeros((top + 1, width + 1), dtype=np.uint8)
    for p in range(width):  # the 10**p digit cycles through 0-9, each repeated 10**p times
        column = table[:, width - 1 - p]
        column[:] = np.resize(np.repeat(_DIGITS, 10**p), top + 1)
        if p:
            column[:10**p] = 0  # padding: numbers below 10**p have no such digit
    text = np.take(table, values, axis=0)  # a quarter of the time of table[values]
    text[:, width] = np.where(line_ends, ord("\n"), ord(" "))
    text = text.ravel()
    return text[text != 0].tobytes().decode("ascii")


def write_mesh(mesh: Mesh, path, coords=None, point_data=None, cell_data=None) -> None:
    """Write the mesh (optionally with replacement coordinates) byte-stably.

    ``point_data`` / ``cell_data`` are name -> 1d-array mappings emitted as
    scalar arrays in sorted name order. Coordinates, names and shapes are
    checked before the file is opened: a bad one raises
    :class:`~polysmooth.errors.InvalidSpec` and leaves ``path`` untouched.
    """
    coords = _checked_coords(mesh, coords)
    cells = mesh.elements
    n, counts = len(cells), cells.counts
    ends = np.cumsum(counts)
    listing = np.insert(cells.flat, ends - counts, counts)  # each count, then the vertices
    line_ends = np.zeros(len(listing), dtype=bool)
    line_ends[ends + np.arange(n)] = True  # each cell's last vertex
    out = [
        "# vtk DataFile Version 3.0\npolysmooth mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {len(coords)} double\n",
        "%.17g %.17g %.17g\n" * len(coords) % tuple(coords.ravel().tolist()),
        f"CELLS {n} {len(listing)}\n",
        _int_text(listing, line_ends),
        f"CELL_TYPES {n}\n",
        _int_text(_CELL_TYPES[cells.codes], np.ones(n, dtype=bool)),
    ]
    for keyword, count, data in (
        ("POINT_DATA", mesh.n_vertices, point_data),
        ("CELL_DATA", n, cell_data),
    ):
        if not data:
            continue
        out.append(f"{keyword} {count}\n")
        for name in sorted(data, key=str):  # key=str: a name that is no string reaches the check
            if not isinstance(name, str) or not name or not name.isascii() or any(c.isspace() for c in name):
                raise InvalidSpec(f"{keyword} array name {name!r} must be non-empty ASCII without whitespace")
            values = np.asarray(data[name], dtype=float)
            if values.shape != (count,):
                raise InvalidSpec(f"{keyword} array {name!r} must have shape ({count},); got shape {values.shape}")
            out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.append("%.17g\n" * count % tuple(values.tolist()))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(out)
