import contextlib
import io
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmooth import Element, ElementKind, GeneratorSpec, generate, make_mesh
from polysmooth.cli import main
from polysmooth.errors import InvalidElement, InvalidSpec, MalformedFile, PolysmoothError, UnsupportedCellType
from polysmooth.generators import GENERATOR_NAMES, perturb_mesh, tet_grid, unit_element
from polysmooth.mesh import KIND_CODES, _checked_coords
from polysmooth.quality import mesh_mean_volumes
from polysmooth.vtkio import (
    CELL_TYPE_BY_KIND, KIND_BY_CELL_TYPE, _place_cells, _Tokens, read_document, read_mesh, write_mesh,
)


def _roundtrip(mesh, tmp_path, name="m.vtk", **kw):
    path = tmp_path / name
    write_mesh(mesh, path, **kw)
    return path, read_mesh(path)


def test_single_tet_file(tmp_path):
    path = tmp_path / "tet.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\n"
        "one tet\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 float\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "CELLS 1 5\n"
        "4 0 1 2 3\n"
        "CELL_TYPES 1\n"
        "10\n"
    )
    mesh = read_mesh(path)
    assert mesh.n_elements == 1
    assert mesh.elements[0].kind is ElementKind.TETRA
    assert mesh_mean_volumes(mesh)[0] == pytest.approx(1 / 6, rel=1e-15)


def test_unit_cube_file(tmp_path):
    path = tmp_path / "cube.vtk"
    path.write_text(
        "# vtk DataFile Version 2.0\n"
        "cube\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 8 double\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
        "CELLS 1 9\n"
        "8 0 1 2 3 4 5 6 7\n"
        "CELL_TYPES 1\n"
        "12\n"
    )
    mesh = read_mesh(path)
    assert mesh.elements[0].kind is ElementKind.HEXA
    assert mesh_mean_volumes(mesh)[0] == pytest.approx(1.0, rel=1e-15)


def test_wedge_maps_to_prism_and_stays_valid(tmp_path):
    path = tmp_path / "wedge.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\n"
        "wedge\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 6 double\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 0 1\n0 1 1\n"
        "CELLS 1 7\n"
        "6 0 1 2 3 4 5\n"
        "CELL_TYPES 1\n"
        "13\n"
    )
    mesh = read_mesh(path)
    assert mesh.elements[0].kind is ElementKind.PRISM
    assert mesh_mean_volumes(mesh)[0] == pytest.approx(0.5, rel=1e-14)


def test_unsupported_cell_type(tmp_path):
    path = tmp_path / "tri.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\n"
        "triangle cell\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 3 float\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "CELLS 1 4\n"
        "3 0 1 2\n"
        "CELL_TYPES 1\n"
        "5\n"
    )
    with pytest.raises(UnsupportedCellType):
        read_mesh(path)


def test_missing_header_reports_line_one(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("hello\nworld\n")
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == 1


def test_truncated_points_reports_line(tmp_path):
    path = tmp_path / "trunc.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\n"
        "broken\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 double\n"
        "0 0 0\n1 0 0\n"
    )
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == 7


def test_binary_rejected(tmp_path):
    path = tmp_path / "bin.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\nt\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
    )
    with pytest.raises(MalformedFile):
        read_mesh(path)


def test_cell_count_mismatch_detected(tmp_path):
    path = tmp_path / "count.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\n"
        "c\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 double\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "CELLS 1 6\n"
        "4 0 1 2 3\n"
        "CELL_TYPES 1\n"
        "10\n"
    )
    with pytest.raises(MalformedFile):
        read_mesh(path)


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_roundtrip_generator_zoo(name, tmp_path):
    mesh = generate(GeneratorSpec(name, size=2, perturb=0.03, seed=7))
    _, back = _roundtrip(mesh, tmp_path)
    assert np.array_equal(mesh.vertices, back.vertices)  # bit-exact coordinates
    assert len(mesh.elements) == len(back.elements)
    for a, b in zip(mesh.elements, back.elements):
        assert a.kind is b.kind and a.vertices == b.vertices
    assert np.array_equal(mesh.boundary, back.boundary)


def test_write_is_deterministic(tmp_path):
    mesh = generate(GeneratorSpec("tet-cube", size=2, perturb=0.05, seed=3))
    p1 = tmp_path / "a.vtk"
    p2 = tmp_path / "b.vtk"
    write_mesh(mesh, p1, point_data={"flag": mesh.boundary.astype(float)})
    write_mesh(mesh, p2, point_data={"flag": mesh.boundary.astype(float)})
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_attributes_written_and_read_back(tmp_path):
    mesh = generate(GeneratorSpec("hex-cube", size=2))
    quality = mesh_mean_volumes(mesh)
    path = tmp_path / "attr.vtk"
    write_mesh(
        mesh,
        path,
        point_data={"is_boundary": mesh.boundary.astype(float)},
        cell_data={"volume": quality},
    )
    text = path.read_text()
    assert "CELL_DATA 8" in text
    assert "POINT_DATA 27" in text
    doc = read_document(path)
    assert np.array_equal(doc.cell_data["volume"], quality)
    assert np.array_equal(doc.point_data["is_boundary"], mesh.boundary.astype(float))


def test_validity_preserved_through_file(tmp_path):
    mesh = generate(GeneratorSpec("tet-cube", size=2, perturb=0.06, seed=1))
    assert (mesh_mean_volumes(mesh) > 0).all()
    _, back = _roundtrip(mesh, tmp_path)
    assert (mesh_mean_volumes(back) > 0).all()


def test_points_parse_bit_for_bit_like_float(tmp_path, rng):
    values = rng.standard_normal(90) * 10.0 ** rng.integers(-300, 300, size=90)
    values[:6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
    formats = itertools.cycle([repr, lambda v: format(v, ".17g"), lambda v: format(v, ".6E"),
                               lambda v: format(v, ".3f"), lambda v: format(v, "+.0e")])
    tokens = [fmt(float(v)) for fmt, v in zip(formats, values)]
    spacing = itertools.cycle([" ", "\t", "\n", "  \n ", "\r\n"])
    body = "".join(tok + sep for tok, sep in zip(tokens, spacing))
    path = tmp_path / "points.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\npoints\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS 30 double {body}CELLS 0 0\nCELL_TYPES 0\n",
        newline="",
    )
    points = read_document(path).points
    expected = np.array([float(tok) for tok in tokens])
    assert points.shape == (30, 3)
    assert np.array_equal(points.ravel().view(np.int64), expected.view(np.int64))


_TET_WITH_DATA = [
    "# vtk DataFile Version 3.0", "one tet", "ASCII", "DATASET UNSTRUCTURED_GRID",
    "POINTS 4 double", "0 0 0", "1 0 0", "0 1 0", "0 0 1",  # lines 5-9
    "CELLS 1 5", "4 0 1 2 3",  # lines 10-11
    "CELL_TYPES 1", "10",  # lines 12-13
    "POINT_DATA 4", "SCALARS flag double 1", "LOOKUP_TABLE default", "0", "1", "0", "1",
]


def _write_lines(path, lines, replace=None):
    lines = list(lines)
    for line, text in (replace or {}).items():
        lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_line_endings(tmp_path, newline):
    path = tmp_path / "ends.vtk"
    path.write_bytes(newline.join(_TET_WITH_DATA).encode("ascii"))
    doc = read_document(path)
    assert doc.cells.flat.tolist() == [0, 1, 2, 3] and doc.cells.offsets.tolist() == [0, 4]
    assert doc.point_data["flag"].tolist() == [0, 1, 0, 1]
    lines = list(_TET_WITH_DATA)
    lines[12] = "x"
    path.write_bytes(newline.join(lines).encode("ascii"))
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == 13


# every separator str.split() knows, and control bytes that are no whitespace, which stay inside tokens
_TEXT_PIECES = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]),
    st.sampled_from(["\x00", "\x08", "\x0e", "\x1b", "\x7f", "1", "-2.5e3"]),
    st.characters(max_codepoint=127),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TEXT_PIECES, max_size=60).map("".join), st.integers(1, 4))
def test_tokens_are_those_of_str_split(text, first_line):
    tokens = _Tokens(memoryview(text.encode("ascii")), first_line)
    expected = [(tok, first_line + i) for i, line in enumerate(text.split("\n")) for tok in line.split()]
    assert [tok for tok, _ in expected] == text.split()
    got = []
    while tokens.peek() is not None:
        got.append((tokens.next("token"), tokens.last_line))
    assert got == expected
    assert tokens.lines(np.arange(len(expected))).tolist() == [line for _, line in expected]


def test_vertical_tab_and_file_separators_read_as_spaces(tmp_path, monkeypatch):
    mesh = perturb_mesh(tet_grid(2), 0.05, seed=4)
    path = tmp_path / "spaces.vtk"
    write_mesh(mesh, path, point_data={"flag": mesh.boundary.astype(float)}, cell_data={"v": mesh_mean_volumes(mesh)})
    lines = path.read_text().split("\n")
    twin = lines[:2] + [line.replace(" ", "\x0b" if i % 2 else "\x1c") for i, line in enumerate(lines[2:])]
    (tmp_path / "twin.vtk").write_text("\n".join(twin))
    parse, calls = _Tokens._parse, []

    def counted(self, *args):
        calls.append(args)
        return parse(self, *args)

    monkeypatch.setattr(_Tokens, "_parse", counted)
    a = read_document(path)
    plain_calls = len(calls)
    b = read_document(tmp_path / "twin.vtk")
    assert "\x1c" in (tmp_path / "twin.vtk").read_text()
    assert len(calls) - plain_calls <= plain_calls  # numpy reads every section, not one token at a time
    assert a.points.tobytes() == b.points.tobytes()
    for name in ("codes", "flat", "offsets"):
        assert getattr(a.cells, name).tobytes() == getattr(b.cells, name).tobytes(), name
    for name in ("point_data", "cell_data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.keys() == y.keys() and all(x[k].tobytes() == y[k].tobytes() for k in x)


@pytest.mark.parametrize(
    "line,text",
    [
        (5, "POINTS -4 double"),
        (10, "CELLS -1 5"),
        (10, "CELLS 1 -5"),
        (11, "-4 0 1 2 3"),
        (12, "CELL_TYPES -1"),
        (14, "POINT_DATA -4"),
        (11, "4 0 1 2 1_0000000000000000000000"),  # an int, but beyond int64
    ],
)
def test_negative_count_or_huge_index_is_malformed_with_its_line(tmp_path, capsys, line, text):
    assert read_document(_write_lines(tmp_path / "ok.vtk", _TET_WITH_DATA)).point_data["flag"].size == 4
    path = _write_lines(tmp_path / "bad.vtk", _TET_WITH_DATA, {line: text})
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == line
    assert main(["quality", "--in", str(path), "--measure", "iq"]) == 3


@pytest.mark.parametrize(
    "line,text,message",
    [
        (10, "CELLZ 1 5", "expected CELLS section"),
        (12, "CELL_TYPES 2", "CELL_TYPES count differs from CELLS count"),
        (14, "POINT_DATA 3", "POINT_DATA count differs from point count"),
        (14, "CELL_DATA 4", "CELL_DATA count differs from cell count"),
        (14, "FIELD_DATA 4", "unexpected section 'FIELD_DATA'"),
        (16, "LOOKUP default", "expected LOOKUP_TABLE after SCALARS"),
    ],
)
def test_section_errors_name_their_line(tmp_path, line, text, message):
    path = _write_lines(tmp_path / "bad.vtk", _TET_WITH_DATA, {line: text})
    with pytest.raises(MalformedFile) as err:
        read_document(path)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_unmatched_number_is_malformed_under_numpy_1_warnings(tmp_path, monkeypatch):
    # numpy 1.x's fromstring does not raise on unmatched data: it warns and returns the numbers before it
    def fromstring_1x(text, dtype, sep):
        values = []
        for tok in text.split():
            try:
                values.append(dtype(tok))
            except ValueError:
                warnings.warn("string or file could not be read to its end due to unmatched data; "
                              "this will raise a ValueError in the future.", DeprecationWarning, stacklevel=2)
                break
        return np.array(values, dtype=dtype)

    path = _write_lines(tmp_path / "bad.vtk", _TET_WITH_DATA, {7: "1 x 0"})
    with pytest.raises(MalformedFile) as expected:
        read_mesh(path)
    monkeypatch.setattr(np, "fromstring", fromstring_1x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedFile) as err:
            read_mesh(path)
    assert str(err.value) == str(expected.value) and err.value.line == expected.value.line == 7


@pytest.mark.parametrize("line,text", [(2, "caf\u00e9 mesh"), (7, "1 0 0\u00a0")])
def test_non_ascii_byte_is_malformed_with_its_line(tmp_path, capsys, line, text):
    path = tmp_path / "bad.vtk"
    lines = list(_TET_WITH_DATA)
    lines[line - 1] = text
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == line
    assert main(["quality", "--in", str(path), "--measure", "iq"]) == 3


def test_wrong_vertex_count_reports_the_line_of_its_cell(tmp_path, capsys):
    path = _write_lines(tmp_path / "short.vtk", _TET_WITH_DATA, {10: "CELLS 1 4", 11: "3 0 1 2"})
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == 11
    assert main(["quality", "--in", str(path), "--measure", "iq"]) == 3
    assert capsys.readouterr().err == "error: line 11: cell 0 of type 10 has 3 vertices\n"
    # the second of two cells, one line each: its own line, not the section's first
    lines = _TET_WITH_DATA[:9] + ["CELLS 2 9", "4 0 1 2 3", "3 0 1 2", "CELL_TYPES 2", "10", "10"]
    with pytest.raises(MalformedFile, match="cell 1 of type 10 has 3 vertices") as err:
        read_mesh(_write_lines(tmp_path / "second.vtk", lines))
    assert err.value.line == 12


def _loop_cells(flat, types):
    """Cell by cell: the offsets and vertex list, or the error class, message and
    CELLS entry (for the line) of the first cell that cannot be taken."""
    total, at, offsets, vertices = len(flat), 0, [0], []
    for i, cell_type in enumerate(types):
        kind = KIND_BY_CELL_TYPE.get(cell_type)
        if kind is None:
            return UnsupportedCellType, f"cell {i} has unsupported type {cell_type}", None
        count = kind.vertex_count
        if at < total and flat[at] != count:
            return MalformedFile, f"cell {i} of type {cell_type} has {flat[at]} vertices", at
        if at + 1 + count > total:
            message = f"cell {i} of type {cell_type} runs past the {total} advertised integers"
            return MalformedFile, message, min(at, total - 1)
        try:
            vertices += Element(kind, flat[at + 1 : at + 1 + count]).vertices
        except InvalidElement as err:
            return InvalidElement, str(err), None
        offsets.append(len(vertices))
        at += 1 + count
    if at != total:
        return MalformedFile, f"CELLS advertised {total} integers, but its {len(types)} cells take {at}", total - 1
    return offsets, vertices


@st.composite
def _cell_lists(draw):
    """Cell types and a CELLS list that mostly agree: now and then a type is unknown, a cell is listed
    with one vertex too few or too many or repeats a vertex, entries are cut or added, or a type is
    dropped or added."""
    types = draw(st.lists(st.sampled_from([*KIND_BY_CELL_TYPE] * 8 + [5, -1]), max_size=6))
    flat = []
    for cell_type in types:
        count = KIND_BY_CELL_TYPE.get(cell_type, ElementKind.TETRA).vertex_count
        count += draw(st.sampled_from([0] * 18 + [-1, 1]))
        distinct = draw(st.sampled_from([True] * 3 + [False]))
        flat += [count, *draw(st.lists(st.integers(-1, 30), min_size=count, max_size=count, unique=distinct))]
    cut = draw(st.sampled_from([0] * 12 + [-3, -2, -1, 1, 2]))
    flat = flat[:len(flat) + cut] if cut < 0 else flat + draw(st.lists(st.integers(-2, 9), min_size=cut, max_size=cut))
    edit = draw(st.sampled_from([None] * 12 + [-1, 10, 99]))
    return flat, types[:-1] if edit == -1 else types if edit is None else types + [edit]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_cell_lists(), st.tuples(st.lists(st.integers(-2, 9), max_size=30),
                                          st.lists(st.sampled_from([10, 12, 13, 14, 5]), max_size=6))))
def test_cells_are_placed_by_their_types_as_a_loop_would(cells):
    """The one pass over the CELLS list takes the cells a loop takes, or raises where the loop stops."""
    flat, types = cells
    expected = _loop_cells(flat, types)
    if len(expected) == 3:  # an error, and for a MalformedFile the line of its entry
        error, message, entry = expected
        expected = (error, message, None) if entry is None else (error, f"line {100 + entry}: {message}", 100 + entry)
    try:
        cells = _place_cells(np.array(flat, dtype=np.int64), np.array(types, dtype=np.int64), lambda j: 100 + j)
    except PolysmoothError as err:
        got = type(err), str(err), getattr(err, "line", None)
    else:
        assert cells.codes.tolist() == [KIND_CODES[KIND_BY_CELL_TYPE[t]] for t in types]
        got = cells.offsets.tolist(), cells.flat.tolist()
    assert got == expected


def test_cells_of_mixed_arity_in_any_layout_read_the_same(tmp_path):
    cube = unit_element(ElementKind.HEXA).vertices
    pts = np.vstack([cube, [[0.5, 0.5, 1.7], [0.5, 0.5, -0.8], [1.6, 0.5, 0.5], [1.6, 0.5, 1.5]]])
    elements = [
        Element(ElementKind.TETRA, (0, 2, 1, 9)),
        Element(ElementKind.HEXA, range(8)),
        Element(ElementKind.PYRAMID, (4, 5, 6, 7, 8)),
        Element(ElementKind.PRISM, (1, 2, 10, 5, 6, 11)),
    ]
    path, mesh = _roundtrip(make_mesh(pts, elements), tmp_path)
    lines = path.read_text().split("\n")
    at = lines.index(next(line for line in lines if line.startswith("CELLS")))
    wrapped = " ".join(lines[at + 1 : at + 5]).split()
    lines[at + 1 : at + 5] = [" ".join(wrapped[i : i + 7]) for i in range(0, len(wrapped), 7)]  # 7 integers a line
    (tmp_path / "wrapped.vtk").write_text("\n".join(lines))
    for read in (read_document(path), read_document(tmp_path / "wrapped.vtk")):
        assert read.cells.offsets.tolist() == [0, 4, 12, 17, 23]
        assert read.cells.flat.tolist() == mesh.elements.flat.tolist()
        assert read.cells.codes.tolist() == mesh.elements.codes.tolist()


def test_first_bad_cell_in_file_order_decides_the_error(tmp_path):
    head = _TET_WITH_DATA[:9]
    cases = [
        (["CELLS 2 10", "4 0 1 2 2", "4 0 1 2 3", "CELL_TYPES 2", "10", "99"], InvalidElement),
        (["CELLS 2 9", "4 0 1 2 3", "3 0 1 2", "CELL_TYPES 2", "99", "10"], UnsupportedCellType),
        (["CELLS 2 10", "4 0 1 2 3", "4 0 1 2 9", "CELL_TYPES 2", "10", "10"], InvalidElement),
    ]
    for i, (cells, error) in enumerate(cases):
        with pytest.raises(error):
            read_mesh(_write_lines(tmp_path / f"case{i}.vtk", head + cells))


def test_read_mesh_tests_each_cell_for_a_repeated_vertex_once(tmp_path, monkeypatch):
    import polysmooth.mesh as mesh_module
    import polysmooth.vtkio as vtkio_module

    path, _ = _roundtrip(tet_grid(3), tmp_path)
    rows, distinct_rows = [], mesh_module._distinct_rows
    for module in (mesh_module, vtkio_module):  # the reader's own test, if it had one, counts too
        monkeypatch.setattr(module, "_distinct_rows", lambda conn: rows.append(len(conn)) or distinct_rows(conn),
                            raising=False)
    assert read_mesh(path).n_elements == sum(rows) == 162


def test_quality_of_a_file_without_cells_is_an_input_error(tmp_path, capsys):
    path = _write_lines(tmp_path / "empty.vtk", _TET_WITH_DATA[:9] + ["CELLS 0 0", "CELL_TYPES 0"])
    assert read_mesh(path).n_elements == 0
    assert main(["quality", "--in", str(path), "--measure", "mean-volume"]) == 3
    assert capsys.readouterr().err == "error: a mesh without elements has no quality\n"


def _mutations():
    """Edits of a file's bytes: flip a byte, replace or drop a token, truncate."""
    tokens = st.sampled_from(
        ["0", "1", "-1", "4", "5", "7", "10", "14", "99", "3.5", "1e308", "nan", "inf", "x",
         "POINTS", "CELLS", "CELL_TYPES", "POINT_DATA", "99999999999999999999", ""])
    return st.lists(st.one_of(
        st.tuples(st.just("byte"), st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
        st.tuples(st.just("token"), st.floats(0, 1, exclude_max=True), tokens),
        st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.none()),
    ), min_size=1, max_size=3)


def _mutate(data: bytes, edits) -> bytes:
    for kind, where, value in edits:
        if kind == "byte" and data:
            at = int(where * len(data))
            data = data[:at] + bytes([value]) + data[at + 1:]
        elif kind == "token":
            words = data.split(b" ")
            at = int(where * len(words))
            lines = words[at].split(b"\n")
            lines[0] = value.encode()
            words[at] = b"\n".join(lines)
            data = b" ".join(words)
        elif kind == "truncate":
            data = data[:int(where * len(data))]
    return data


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    from polysmooth.generators import _house_mesh, tet_grid

    folder = tmp_path_factory.mktemp("valid")
    tet = _write_lines(folder / "tet.vtk", _TET_WITH_DATA).read_bytes()
    write_mesh(_house_mesh(), folder / "house.vtk", cell_data={"id": [0.0, 1.0]})
    write_mesh(tet_grid(1), folder / "cube.vtk")
    return folder, [tet] + [(folder / name).read_bytes() for name in ("house.vtk", "cube.vtk")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # finite but huge coordinates overflow
@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.integers(0, 2), _mutations())
def test_mutated_files_exit_0_or_3(valid_files, base, edits):
    folder, files = valid_files
    path = folder / "mutated.vtk"
    path.write_bytes(_mutate(files[base], edits))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["quality", "--in", str(path), "--measure", "mean-volume"])
    assert code in (0, 3)


_REFERENCE_CELL_LINE = {code: "%d" + " %d" * kind.vertex_count + "\n" for kind, code in KIND_CODES.items()}
_REFERENCE_TYPE_LINE = {code: f"{CELL_TYPE_BY_KIND[kind]}\n" for kind, code in KIND_CODES.items()}


def _reference_write(mesh, path, coords=None, point_data=None, cell_data=None):
    """The writer with one ``%`` operation per section, CELLS and CELL_TYPES
    included, kept verbatim as the reference for :func:`write_mesh`."""
    coords = _checked_coords(mesh, coords)
    cells = mesh.elements
    n, counts, codes = len(cells), cells.counts, cells.codes.tolist()
    listing = np.insert(cells.flat, np.cumsum(counts) - counts, counts)  # each count, then the vertices
    out = [
        "# vtk DataFile Version 3.0\npolysmooth mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {len(coords)} double\n",
        "%.17g %.17g %.17g\n" * len(coords) % tuple(coords.ravel().tolist()),
        f"CELLS {n} {len(listing)}\n",
        "".join([_REFERENCE_CELL_LINE[c] for c in codes]) % tuple(listing.tolist()),
        f"CELL_TYPES {n}\n",
        "".join([_REFERENCE_TYPE_LINE[c] for c in codes]),
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


def _assert_writes_like_the_reference(mesh, tmp_path, **kw):
    write_mesh(mesh, tmp_path / "got.vtk", **kw)
    _reference_write(mesh, tmp_path / "expected.vtk", **kw)
    assert (tmp_path / "got.vtk").read_bytes() == (tmp_path / "expected.vtk").read_bytes()


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_write_equals_the_reference_on_the_generator_zoo(name, tmp_path):
    _assert_writes_like_the_reference(generate(GeneratorSpec(name, size=3, perturb=0.03, seed=7)), tmp_path)


def test_write_equals_the_reference_on_a_mixed_mesh_with_data(interleaved_mesh, tmp_path):
    mesh = interleaved_mesh
    _assert_writes_like_the_reference(
        mesh, tmp_path,
        point_data={"is_boundary": mesh.boundary.astype(float), "valence": mesh.valence},
        cell_data={"volume": mesh_mean_volumes(mesh), "id": np.arange(mesh.n_elements)},
    )


@pytest.mark.parametrize("top", [10, 100, 1000])
def test_write_equals_the_reference_where_indices_gain_a_digit(top, tmp_path, rng):
    # windows of consecutive indices, so every index up to top is listed
    kinds = list(ElementKind)
    elements = [Element(kinds[i % 4], range(i, i + kinds[i % 4].vertex_count)) for i in range(top - 7)]
    elements.append(Element(ElementKind.HEXA, range(top - 7, top + 1)))
    mesh = make_mesh(rng.standard_normal((top + 1, 3)), elements)
    _assert_writes_like_the_reference(mesh, tmp_path)


@pytest.mark.parametrize("kind", ElementKind)
def test_write_equals_the_reference_on_one_cell(kind, tmp_path):
    mesh = unit_element(kind)
    _assert_writes_like_the_reference(mesh, tmp_path, cell_data={"volume": mesh_mean_volumes(mesh)})


@pytest.mark.parametrize("name", ["", "two words", "tab\there", "line\n", "\x1c", "volumé", 7])
@pytest.mark.parametrize("section", ["point_data", "cell_data"])
def test_bad_data_names_raise_before_the_file_is_touched(name, section, tmp_path):
    mesh = tet_grid(2)
    path = tmp_path / "kept.vtk"
    path.write_bytes(b"already here")
    count = mesh.n_vertices if section == "point_data" else mesh.n_elements
    with pytest.raises(InvalidSpec, match="name"):
        write_mesh(mesh, path, **{section: {"fine": np.zeros(count), name: np.zeros(count)}})
    assert path.read_bytes() == b"already here"


@pytest.mark.parametrize("section", ["point_data", "cell_data"])
@pytest.mark.parametrize("shape", [(3,), (0,), (27, 1), ()])
def test_wrong_data_shapes_raise_before_the_file_is_touched(section, shape, tmp_path):
    mesh = tet_grid(2)
    path = tmp_path / "kept.vtk"
    path.write_bytes(b"already here")
    with pytest.raises(InvalidSpec, match="shape"):
        write_mesh(mesh, path, **{section: {"values": np.zeros(shape)}})
    with pytest.raises(InvalidSpec, match="coords"):
        write_mesh(mesh, path, coords=np.zeros((3, 3)))
    assert path.read_bytes() == b"already here"


def test_data_names_with_punctuation_read_back(tmp_path):
    mesh = tet_grid(2)
    names = ["a.b", "x-1", "q(1)", "LOOKUP_TABLE"]
    path = tmp_path / "names.vtk"
    write_mesh(mesh, path, point_data={name: mesh.valence for name in names})
    assert sorted(read_document(path).point_data) == sorted(names)


def test_write_memory_of_a_20_cube(tmp_path):
    mesh = tet_grid(20)
    tracemalloc.start()
    try:
        write_mesh(mesh, tmp_path / "cube.vtk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one % operation over the CELLS integers peaked at 13.8 MB here; the joined file at 7.8 MB; 6.9 MB written by sections
    assert peak < 7.2e6


def test_read_memory_of_a_20_cube(tmp_path):
    path = tmp_path / "cube.vtk"
    write_mesh(perturb_mesh(tet_grid(20), 0.015, seed=0), path)  # 1.68 MB
    tracemalloc.start()
    try:
        read_document(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 15.2 MB with two offsets per token and the cells placed by a walk; 11.0 MB with token starts only
    assert peak < 11.5e6
