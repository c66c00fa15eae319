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

The reader accepts any whitespace layout. It parses the POINTS, CELLS,
CELL_TYPES and scalar sections with numpy, which reads each number as
``float``/``int`` would, and keeps the cells in the CSR form of
:class:`~polysmooth.mesh.Connectivity`. Every format violation, including a
negative count or a non-ASCII byte, raises
:class:`~polysmooth.errors.MalformedFile` with the line where it was found.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, MalformedFile, UnsupportedCellType
from .mesh import KIND_CODES, Connectivity, ElementKind, Mesh, _checked_coords, make_mesh

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


class _Tokens:
    """Whitespace-separated tokens of an ASCII text, with line numbers for diagnostics.

    The tokens are those of ``str.split()``. Its ASCII whitespace, bytes 9 to
    13 and 28 to 32, is found by byte comparisons: a byte is whitespace when
    its uint8 difference from 9 or from 28, which wraps below 0, is at most 4.
    The offsets where whitespace and token bytes meet alternate between token
    starts and token ends, so one ``flatnonzero`` of those flips gives both;
    only the offsets are kept. Lines are counted at LF bytes. Bulk sections
    are parsed by numpy, and a section numpy rejects is re-read token by token
    so that the error names the offending token and its line.
    """

    def __init__(self, data: memoryview, first_line: int):
        self.text = str(data, "ascii")
        raw = np.frombuffer(data, dtype=np.uint8)
        space = raw - np.uint8(9)
        np.minimum(space, raw - np.uint8(28), out=space)
        space = space <= 4
        flips = np.empty(len(raw) + 1, dtype=bool)  # flips[i]: bytes i - 1 and i differ, whitespace beyond both ends
        np.not_equal(space[1:], space[:-1], out=flips[1:-1])
        flips[0], flips[-1] = (not space[0], not space[-1]) if len(raw) else (False, False)
        flips = np.flatnonzero(flips)
        self.starts, self.ends = flips[0::2], flips[1::2]
        self.newlines = np.flatnonzero(raw == ord("\n"))
        self.first_line = first_line
        self.pos = 0
        self.last_line = first_line

    def line_starts(self, first: int, count: int) -> np.ndarray:
        """Which of the ``count`` tokens from ``first`` follow a newline directly, counted from ``first``."""
        if count == 0:
            return np.zeros(0, dtype=np.intp)
        lo = np.searchsorted(self.newlines, self.starts[first] - 1)
        hi = np.searchsorted(self.newlines, self.starts[first + count - 1] - 1, side="right")
        after = self.newlines[lo:hi] + 1
        tokens = np.searchsorted(self.starts, after)
        return tokens[self.starts[tokens] == after] - first

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
            # numpy 1.x warns on unmatched data and returns the numbers before it; numpy 2 raises
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                try:
                    values = np.fromstring(self.text[self.starts[first]:self.ends[stop - 1]], dtype=dtype, sep=" ")
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


def _cell_starts(flat: np.ndarray, n_cells: int, guess: np.ndarray, fail) -> np.ndarray:
    """Where each of ``n_cells`` cells starts in the CELLS list ``flat``: the walk from 0 that steps
    over a cell's arity and its vertices. ``guess`` (one cell per line, as files are written) is
    taken when it is that walk; otherwise the walk is found by doubling its steps, 2**k cells at a
    time, and ``fail`` gets the first cell it cannot take."""
    total = len(flat)
    if len(guess) == n_cells and (total == 0 if n_cells == 0 else guess[0] == 0):
        if np.array_equal(guess + 1 + flat[guess], np.append(guess[1:], total)):
            return guess
    pos = np.arange(total)
    bad = (flat < 0) | (flat > total - 1 - pos)  # an arity beyond the list: the walk stops there
    step = np.append(pos + 1 + np.where(bad, -1, flat), total)
    path, jump = np.zeros(1, dtype=np.intp), step
    while len(path) <= min(n_cells, total):
        path, jump = np.concatenate([path, jump[path]]), jump[jump]
    stuck = np.flatnonzero(np.append(bad, True)[path[:n_cells]])
    if stuck.size:
        i, at = int(stuck[0]), int(path[stuck[0]])
        if at == total:
            fail(f"CELLS advertised {total} integers, too few for {n_cells} cells")
        fail(f"cell {i} has arity {flat[at]} beyond the {total} advertised integers")
    if path[n_cells] != total:
        fail(f"CELLS advertised {total} integers but contained {path[n_cells]}")
    return path[:n_cells]


def read_document(path) -> MeshDocument:
    """Parse a file into points, cells, cell types and scalar data arrays."""
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
    body = _Tokens(memoryview(data)[len(data) if end < 0 else end + 1 :], first_line=3)  # a view, not a copy

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
    starts = _cell_starts(flat, n_cells, body.line_starts(first_token, total), fail)
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
        ok |= (types == cell_type) & (counts == kind.vertex_count)
    i = int(np.argmin(ok)) if not ok.all() else len(types)
    # the cells before the first of a bad type or count; raises InvalidElement at a repeated vertex
    cells = Connectivity(codes[:i], conn[:offsets[i]])
    if i < len(types):
        kind = KIND_BY_CELL_TYPE.get(int(types[i]))
        if kind is None:
            raise UnsupportedCellType(f"cell {i} has unsupported type {types[i]}")
        raise MalformedFile(f"cell {i} of type {types[i]} has {counts[i]} vertices", int(doc.cell_lines[i]))
    return make_mesh(doc.points, cells)


def read_mesh(path) -> Mesh:
    """Read a mesh, converting file cells to canonical elements."""
    return mesh_from_document(read_document(path))


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
        fh.write("".join(out))
