import contextlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmooth import ElementKind, GeneratorSpec, generate
from polysmooth.cli import main
from polysmooth.errors import InvalidElement, MalformedFile, UnsupportedCellType
from polysmooth.generators import GENERATOR_NAMES
from polysmooth.quality import mesh_mean_volumes
from polysmooth.vtkio import read_document, read_mesh, write_mesh


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
    assert doc.connectivity.tolist() == [0, 1, 2, 3] and doc.offsets.tolist() == [0, 4]
    assert doc.point_data["flag"].tolist() == [0, 1, 0, 1]
    lines = list(_TET_WITH_DATA)
    lines[12] = "x"
    path.write_bytes(newline.join(lines).encode("ascii"))
    with pytest.raises(MalformedFile) as err:
        read_mesh(path)
    assert err.value.line == 13


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
