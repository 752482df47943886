import re
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import io, shapes
from polycubelabel.io import FileFormatError
from polycubelabel.labeling import LABEL_COLORS, naive_labeling
from polycubelabel.mesh import MeshError, NonTriangleFaceError, SurfaceMesh

from helpers import build
from oracles import (
    reference_read_labeling,
    reference_read_medit,
    reference_read_obj,
    reference_write_labeling,
    reference_write_medit,
    reference_write_obj,
    reference_write_ply,
)

# Awkward coordinates that only survive text round-trips at full precision.
UGLY = [0.1, 1.0 / 3.0, np.pi, -2.0 ** -40, 1e17 + 1]


def _ugly_mesh():
    v, f = shapes.cube()
    v = np.asarray(v, dtype=np.float64).copy()
    for i, x in enumerate(UGLY):
        v[i % len(v), i % 3] += x * 1e-3
    return v, np.asarray(f)


# -- OBJ ----------------------------------------------------------------------


def test_obj_roundtrip_bit_exact(tmp_path):
    v, f = _ugly_mesh()
    p = tmp_path / "m.obj"
    io.write_obj(p, v, f)
    v2, f2 = io.read_obj(p)
    assert v2.dtype == np.float64 and f2.dtype == np.int64
    assert np.array_equal(v, v2)  # %.17g is lossless for doubles
    assert np.array_equal(f, f2)


def test_obj_accepts_slash_refs_and_negative_indices(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "f 1/1/1 2/2/2 3/3/3\n"
        "f -3 -2 -1\n"
    )
    v, f = io.read_obj(p)
    assert np.array_equal(f, [[0, 1, 2], [0, 1, 2]])


def test_obj_rejects_quad(tmp_path):
    p = tmp_path / "q.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(NonTriangleFaceError, match=r"q\.obj:5"):
        io.read_obj(p)


def test_obj_common_syntax_takes_the_bulk_path(tmp_path, monkeypatch):
    def line_by_line(*args):
        raise AssertionError("fell back to the line-by-line reader")

    monkeypatch.setattr(io, "_obj_line_by_line", line_by_line)
    p = tmp_path / "m.obj"
    p.write_bytes(
        b"# exported\r\no part\r\nv 0 0 0 1\r\nv\t1\t0\t0\r\nv 0 1 0\r\nvn 0 0 1\r\n"
        b"usemtl steel\r\nf 1/1/1 2//1 3/2\r\nf\t-3 -2 -1\r\n"
    )
    v, f = io.read_obj(p)
    assert np.array_equal(v, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert np.array_equal(f, [[0, 1, 2], [0, 1, 2]])


def _spy(monkeypatch, name):
    """The calls of ``io.<name>``, a reader's fallback pass, as they happen."""
    calls, orig = [], getattr(io, name)
    monkeypatch.setattr(io, name, lambda *args: calls.append(args) or orig(*args))
    return calls


def _takes_fallback(path, text, read, reference, fallback):
    """Whether reading ``text`` goes through ``fallback``; the outcome must
    match the reference reader's either way."""
    with open(path, "w", newline="") as fh:  # keep a "\r\n" as written
        fh.write(text)
    fallback.clear()
    assert _outcome(read, path) == _outcome(reference, path)
    return bool(fallback)


def test_obj_written_layout_takes_the_line_pass(tmp_path, monkeypatch):
    fallback = _spy(monkeypatch, "_obj_line_by_line")
    p = tmp_path / "m.obj"
    io.write_obj(p, *_ugly_mesh())
    written = p.read_text()
    faces = re.compile(r"^f (\d+) (\d+) (\d+)$", re.M)
    read = lambda text: _takes_fallback(p, text, io.read_obj, reference_read_obj, fallback)
    assert not read(written)
    assert not read(written.replace("f ", "f\t").replace("v ", "v\t"))
    assert not read(faces.sub(r"f +\1 \2 +\3", written))
    assert not read(faces.sub(r"f \1/1 \2//7 \3/2/3", written))
    assert not read("# exported\r\n" + written.replace("\n", "\r\n"))
    assert read(faces.sub(r"f \1 \2 \3 # note", written))  # a quad to the reference
    assert read(faces.sub(r"f \1 \2 1_\3", written))
    assert read(written + "f 1 2\n")


def test_obj_malformed_vertex_reports_line(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0\nf 1 1 1\n")
    with pytest.raises(FileFormatError, match=r"bad\.obj:2"):
        io.read_obj(p)


def test_obj_without_faces_rejected(tmp_path):
    p = tmp_path / "pts.obj"
    p.write_text("v 0 0 0\nv 1 0 0\n")
    with pytest.raises(FileFormatError, match="no faces"):
        io.read_obj(p)


TETRA_VERTS = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"


@pytest.mark.parametrize("face, line", [
    ("f 0 3 2", 5),  # OBJ indices start at 1
    ("f 1 3 5", 5),
    ("f -1 -2 -5", 5),
    ("f 1 3 99999999999999999999", 5),  # past int64
])
def test_obj_face_index_out_of_range_names_line(tmp_path, face, line):
    p = tmp_path / "t.obj"
    p.write_text(TETRA_VERTS + face + "\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
    with pytest.raises(FileFormatError, match=rf"t\.obj:{line}: face vertex index out of range"):
        io.read_obj(p)


def test_obj_out_of_range_face_later_in_file_names_its_line(tmp_path):
    p = tmp_path / "t.obj"
    p.write_text(TETRA_VERTS + "f 1 3 2\nf 1 2 4\n# a comment\nf 2 3 9\nf 1 4 3\n")
    with pytest.raises(FileFormatError, match=r"t\.obj:8: face vertex index out of range for 4"):
        io.read_obj(p)


# -- MEDIT ----------------------------------------------------------------------


def test_medit_roundtrip_bit_exact(tmp_path):
    v, f = _ugly_mesh()
    p = tmp_path / "m.mesh"
    io.write_medit(p, v, f)
    v2, f2 = io.read_medit(p)
    assert np.array_equal(v, v2)
    assert np.array_equal(f, f2)


def test_medit_skips_comments_and_extra_sections(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text(
        "MeshVersionFormatted 2 # header comment\n"
        "Dimension 3\n"
        "Vertices 3\n"
        "0 0 0 1\n1 0 0 1\n0 1 0 1\n"
        "Edges 1\n0 1 0\n"
        "Ridges 1\n1\n"
        "Triangles 1\n1 2 3 0\n"
        "End\n"
    )
    v, f = io.read_medit(p)
    assert v.shape == (3, 3)
    assert np.array_equal(f, [[0, 1, 2]])


def test_medit_written_layout_takes_the_line_pass(tmp_path, monkeypatch):
    fallback = _spy(monkeypatch, "_numbers")
    p = tmp_path / "m.mesh"
    io.write_medit(p, *_ugly_mesh())
    written = p.read_text()
    rows = re.compile(r"^(\S+) (\S+) (\S+) 0$", re.M)
    read = lambda text: _takes_fallback(p, text, io.read_medit, reference_read_medit, fallback)
    assert not read(written)
    assert not read(written.replace(" ", "\t").replace("\n", "\r\n"))
    assert not read(written.replace("\n", " # note\n"))
    head, tris = written.split("Triangles")
    assert not read(head + "Triangles" + rows.sub(r"+\1 \2 +\3 0", tris))
    assert read(written.replace(" 0\n", " 0 ", 1))  # two rows on one line
    assert read(rows.sub(r"\1 \2\n\3 0", written))  # a row over two lines
    assert read(rows.sub(r"\1 \2 1_0 0", written))
    assert read(rows.sub(r"\1 \2 x 0", written, count=1))


def test_medit_truncated(tmp_path):
    p = tmp_path / "t.mesh"
    p.write_text("MeshVersionFormatted 2\nDimension 3\nVertices 5\n0 0 0 1\n")
    with pytest.raises(FileFormatError, match="truncated"):
        io.read_medit(p)


@pytest.mark.parametrize("index", ["0", "4"])
def test_medit_triangle_index_out_of_range_names_triangle(tmp_path, index):
    p = tmp_path / "t.mesh"
    p.write_text(
        "Dimension 3\nVertices 3\n0 0 0 1\n1 0 0 1\n0 1 0 1\n"
        f"Triangles 2\n1 2 3 0\n1 {index} 2 0\nEnd\n"
    )
    with pytest.raises(FileFormatError, match=r"t\.mesh: triangle 2 .*1\.\.3"):
        io.read_medit(p)


def test_medit_volume_elements_rejected(tmp_path):
    p = tmp_path / "vol.mesh"
    p.write_text("Dimension 3\nTetrahedra 1\n1 2 3 4 0\n")
    with pytest.raises(NonTriangleFaceError, match="tetrahedra"):
        io.read_medit(p)


def test_medit_unknown_keyword(tmp_path):
    p = tmp_path / "u.mesh"
    p.write_text("Dimension 3\nFrobnicate 1\n")
    with pytest.raises(FileFormatError, match="Frobnicate|frobnicate"):
        io.read_medit(p)


def test_medit_2d_rejected(tmp_path):
    p = tmp_path / "flat.mesh"
    p.write_text("Dimension 2\nVertices 1\n0 0 1\n")
    with pytest.raises(FileFormatError, match="dimension 2"):
        io.read_medit(p)


# -- labelings ----------------------------------------------------------------


def test_labeling_roundtrip(tmp_path):
    labels = np.array([0, 5, 3, 3, 1, 2, 4, 0], dtype=np.int64)
    p = tmp_path / "l.txt"
    io.write_labeling(p, labels)
    assert np.array_equal(io.read_labeling(p), labels)
    assert np.array_equal(io.read_labeling(p, n_triangles=8), labels)


def test_labeling_written_layout_takes_the_byte_pass(tmp_path, monkeypatch):
    fallback = _spy(monkeypatch, "_labels_of_lines")
    p = tmp_path / "l.flags"
    io.write_labeling(p, np.array([0, 5, 3, 3, 1, 2, 4, 0]))
    written = p.read_text()
    read = lambda text: _takes_fallback(p, text, io.read_labeling, reference_read_labeling, fallback)
    assert not read(written)
    assert not read(written.replace("\n", "\r\n"))  # read as "\n"
    assert not read("")
    assert read(written.replace("3", "\t3"))
    assert read(written.replace("3", "+3"))
    assert read(written.replace("3", "03"))
    assert read(written.replace("\n", "\n\n", 1))
    assert read(written[:-1])
    assert read(written.replace("4", "6"))
    assert read(written.replace("4", "/"))  # the byte below "0"


def test_labeling_blank_lines_ignored(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n\n3\n  \n5\n")
    assert np.array_equal(io.read_labeling(p), [0, 3, 5])


@pytest.mark.parametrize(
    "body,msg",
    [
        ("0\n7\n", "outside 0..5"),
        ("0\n-1\n", "outside 0..5"),
        ("0\nfoo\n", "not an integer"),
        ("1 2\n", "not an integer"),
    ],
)
def test_labeling_bad_values(tmp_path, body, msg):
    p = tmp_path / "l.txt"
    p.write_text(body)
    with pytest.raises(FileFormatError, match=msg):
        io.read_labeling(p)


def test_labeling_count_mismatch(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n1\n2\n")
    with pytest.raises(FileFormatError, match="3 labels for 12 triangles"):
        io.read_labeling(p, n_triangles=12)


def test_feature_edges_are_read_as_written(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("7 2\n0 1\n\n2 7\n")
    # file order and vertex order kept, duplicates too; blank lines skipped
    assert io.read_feature_edges(p) == [(7, 2), (0, 1), (2, 7)]


def test_feature_edges_malformed(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(FileFormatError, match=r"f\.txt:1"):
        io.read_feature_edges(p)


def test_feature_edges_non_integer_names_line(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("0 1\n\n2 x\n")
    with pytest.raises(FileFormatError, match=r"f\.txt:3: "):
        io.read_feature_edges(p)


# -- PLY ----------------------------------------------------------------------


def test_ply_face_colors_match_label_counts(tmp_path, cube_mesh):
    labels = naive_labeling(cube_mesh)
    p = tmp_path / "c.ply"
    io.write_ply(p, cube_mesh, labels)
    lines = p.read_text().splitlines()
    split = lines.index("end_header")
    assert lines[0] == "ply"
    assert f"element vertex {cube_mesh.n_vertices}" in lines[:split]
    assert f"element face {cube_mesh.n_triangles}" in lines[:split]
    faces = lines[split + 1 + cube_mesh.n_vertices :]
    assert len(faces) == cube_mesh.n_triangles
    # count colors appearing in face rows, compare against the labeling
    seen = {rgb: 0 for rgb in LABEL_COLORS}
    for row in faces:
        toks = row.split()
        assert toks[0] == "3"
        seen[tuple(int(x) for x in toks[4:7])] += 1
    for lab in range(6):
        assert seen[LABEL_COLORS[lab]] == int(np.sum(labels == lab))


def test_ply_rejects_wrong_label_count(tmp_path, cube_mesh):
    with pytest.raises(FileFormatError):
        io.write_ply(tmp_path / "x.ply", cube_mesh, np.zeros(3, dtype=np.int64))


# -- dispatch -------------------------------------------------------------------


def test_load_mesh_dispatch(tmp_path):
    v, f = shapes.cube()
    io.write_obj(tmp_path / "a.obj", v, f)
    io.write_medit(tmp_path / "a.mesh", v, f)
    m1 = io.load_mesh(tmp_path / "a.obj")
    m2 = io.load_mesh(tmp_path / "a.mesh")
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)
    with pytest.raises(FileFormatError, match="unsupported"):
        io.load_mesh(tmp_path / "a.stl")


def test_load_mesh_feature_sidecar(tmp_path):
    v, f = shapes.cube()
    io.write_obj(tmp_path / "a.obj", v, f)
    auto = io.load_mesh(tmp_path / "a.obj")
    pairs = sorted(auto.feature_edges)[:4]
    (tmp_path / "a.features").write_text("".join(f"{a} {b}\n" for a, b in pairs))
    m = io.load_mesh(tmp_path / "a.obj", feature_edges=tmp_path / "a.features")
    assert sorted(m.feature_edges) == pairs


def test_writers_are_deterministic(tmp_path):
    v, f = shapes.cube()
    v = shapes.jitter(v, 1e-7, seed=11)
    labels = naive_labeling(SurfaceMesh(v, f))
    outs = []
    for k in (1, 2):
        d = tmp_path / str(k)
        d.mkdir()
        io.write_obj(d / "m.obj", v, f)
        io.write_medit(d / "m.mesh", v, f)
        io.write_labeling(d / "m.txt", labels)
        io.write_ply(d / "m.ply", SurfaceMesh(v, f), labels)
        outs.append(b"".join((d / n).read_bytes() for n in ("m.obj", "m.mesh", "m.txt", "m.ply")))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "name, body, where",
    [
        ("v.obj", "v 0 0 0\nv 1 0 x\nf 1 2 1\n", r"v\.obj:2"),
        ("f.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 a\n", r"f\.obj:4"),
        ("n.mesh", "MeshVersionFormatted 2\nDimension 3\nVertices abc\n", r"n\.mesh: .*'abc'"),
        ("c.mesh", "Dimension 3\nVertices 2\n0 0 0 0\n0 y 0 0\n", r"c\.mesh: .*'y'"),
        ("t.mesh", "Dimension 3\nVertices 1\n0 0 0 0\nTriangles 1\n1 1\n", r"t\.mesh: truncated"),
        ("neg.mesh", "Dimension 3\nVertices -1\n", r"neg\.mesh: negative count"),
    ],
)
def test_malformed_numbers_report_file_and_line(tmp_path, name, body, where):
    p = tmp_path / name
    p.write_text(body)
    with pytest.raises(FileFormatError, match=where):
        io.load_mesh(p)


# -- bulk readers and writers against the per-line ones --------------------------

_SEP = st.sampled_from([" ", "\t", "  ", " \t", "\x0c"])
_PRE = st.sampled_from(["", "", " ", "\t"])
_COORD = st.one_of(
    st.floats(allow_nan=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["-0.0", "5e-324", "1e308", "1e999", "+.5", "5.", "1E3", "-nan", "inf",
                     "1_000", "١٢"]),  # the last two only float() takes
)
_OTHER_LINES = st.sampled_from(
    ["", "   ", "\t", "# a comment", "#v 1 2 3", "vn 0 0 1", "vt 0.5 0.5", "o part",
     "g group", "s off", "usemtl steel"]
)
_BAD_LINES = st.sampled_from(
    ["v", "v 1 2", "v 1 x 3", "v 1 2 3#c", "v 0x10 0 0", "f", "f 1 2", "f 1 2 3 4", "f 1 x 2",
     "f 3#c 1 2", "f /3 1 2", "f 1.0 2 3", "f 1..2 1 2"]
)


def _index(n):
    """An OBJ reference to one of n vertices: in range mostly, sometimes one
    step outside (0, n + 1 or -n - 1)."""
    return st.one_of(st.integers(1, max(n, 1)), st.integers(-max(n, 1), -1),
                     st.integers(-n - 1, n + 1))


@st.composite
def _obj_texts(draw):
    # written: laid out as write_obj writes, single spaces and v / f lines only
    written = draw(st.booleans())
    lines, n_verts = [], 0
    kinds = "v" * draw(st.integers(0, 4)) + draw(st.text("vf" if written else "vvff-", max_size=10))
    for kind in kinds:
        pre, sep = ("", " ") if written else (draw(_PRE), draw(_SEP))
        if kind == "v":
            coords = draw(st.lists(_COORD, min_size=3, max_size=3 if written else 4))  # the 4th is w
            lines.append(pre + "v" + sep + sep.join(coords))
            n_verts += 1
        elif kind == "f":
            tails = [""] if written else ["", "", "/1", "//2", "/1/1", "/"]
            refs = [str(draw(_index(n_verts))) + draw(st.sampled_from(tails)) for _ in range(3)]
            lines.append(pre + "f" + sep + sep.join(refs))
        else:
            lines.append(draw(_OTHER_LINES))
    if lines and draw(st.integers(0, 2)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_BAD_LINES)
    if written:
        return "".join(line + "\n" for line in lines)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@st.composite
def _medit_texts(draw):
    n = draw(st.integers(0, 5))
    rows = [["MeshVersionFormatted", "2"], [draw(st.sampled_from(["Dimension", "DIMENSION"])), "3"],
            [draw(st.sampled_from(["Vertices", "vertices"]))], [str(n)]]
    rows += [draw(st.lists(_COORD, min_size=3, max_size=3)) + ["0"] for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        rows += [["Edges"], [str(k)]] + [[str(draw(st.integers(1, 3))) for _ in range(3)]
                                         for _ in range(k)]
    if draw(st.booleans()):
        rows += [["Corners"], ["1"], ["1"]]
    m = draw(st.integers(0, 4))
    rows += [["Triangles"], [str(m)]]
    rows += [[str(draw(st.one_of(st.integers(1, max(n, 1)), st.integers(0, n + 1))))
              for _ in range(3)] + ["0"] for _ in range(m)]
    if draw(st.booleans()):
        rows.append(["End"])
    toks = [tok for row in rows for tok in row]
    ends = {k - 1 for k in accumulate(map(len, rows))}  # the last token of each row
    if draw(st.integers(0, 2)) == 0:  # one broken token, or a truncated file
        at = draw(st.integers(0, len(toks) - 1))
        bad = draw(st.sampled_from(["x", "3#c", "1.5", "-1", "Frobnicate", "Tetrahedra", "1_0", None]))
        toks = toks[:at] if bad is None else toks[:at] + [bad] + toks[at + 1:]
    # written: one row per line with single spaces, as write_medit writes
    written = draw(st.booleans())
    out = []
    for i, tok in enumerate(toks):
        out.append(tok)
        if written:
            out.append("\n" if i in ends else " ")
        else:
            out.append(draw(st.sampled_from([" ", "\t", "\n", "\n", "  ", " # note\n", "#\r\n", "\r\n"])))
    return "".join(out)


_ODD_LABELS = st.sampled_from(["", " ", "-1", "6", "x", "1 2", "1.0", "+3", "03", "1_0", "٣",
                               "99999999999999999999"])


@st.composite
def _labeling_texts(draw):
    if draw(st.booleans()):  # one digit and "\n" per line, as write_labeling writes
        lines = draw(st.lists(st.integers(0, 5).map(str), max_size=12))
        if lines and draw(st.integers(0, 2)) == 0:
            lines[draw(st.integers(0, len(lines) - 1))] = draw(_ODD_LABELS)
        return "".join(line + "\n" for line in lines)
    lines = draw(st.lists(st.one_of(
        st.integers(0, 5).map(str),
        st.integers(0, 5).map(lambda v: f"  {v}\t"),
        _ODD_LABELS,
    ), max_size=12))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(read, path, *args):
    """The arrays a reader returns, bit for bit, or the error it raises."""
    try:
        out = read(path, *args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _same_as_reference(tmp_path_factory, text, read, reference, name, *args):
    path = tmp_path_factory.getbasetemp() / name
    with open(path, "w", newline="") as fh:  # keep the "\r\n" as written
        fh.write(text)
    got = _outcome(read, path, *args)
    assert got == _outcome(reference, path, *args)
    if isinstance(got, tuple):  # refused: only ever as a MeshError
        assert issubclass(got[0], MeshError), got


@pytest.mark.filterwarnings("error")  # a warning is an outcome the reference never has
@settings(max_examples=200, deadline=None)
@given(text=_obj_texts())
def test_read_obj_matches_the_per_line_reader(tmp_path_factory, text):
    _same_as_reference(tmp_path_factory, text, io.read_obj, reference_read_obj, "fuzz.obj")


@pytest.mark.filterwarnings("error")  # a warning is an outcome the reference never has
@settings(max_examples=200, deadline=None)
@given(text=_medit_texts())
def test_read_medit_matches_the_per_token_reader(tmp_path_factory, text):
    _same_as_reference(tmp_path_factory, text, io.read_medit, reference_read_medit, "fuzz.mesh")


@pytest.mark.filterwarnings("error")  # a warning is an outcome the reference never has
@settings(max_examples=200, deadline=None)
@given(text=_labeling_texts(), extra=st.sampled_from([None, 0, 1]))
def test_read_labeling_matches_the_per_line_reader(tmp_path_factory, text, extra):
    n = None if extra is None else len(text.split()) + extra
    _same_as_reference(tmp_path_factory, text, io.read_labeling, reference_read_labeling,
                       "fuzz.flags", n)


def _corpus():
    """Corpus shapes, one with the coordinates text formats get wrong."""
    ugly = np.asarray(shapes.cube()[0], dtype=np.float64).copy()
    ugly.flat[:8] = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1 / 3, -1e-300, 2.0 ** 60 + 1, np.pi]
    return [shapes.cube(), shapes.l_prism(1.3), shapes.torus(), shapes.icosphere(2),
            (ugly, shapes.cube()[1])]


@pytest.mark.parametrize("chunk", [io._CHUNK, 7])
def test_writers_match_the_per_line_writers(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(io, "_CHUNK", chunk)  # 7 rows puts chunk edges inside every block
    rng = np.random.default_rng(3)
    for k, (v, t) in enumerate(_corpus()):
        v, t = np.asarray(v, dtype=np.float64), np.asarray(t, dtype=np.int64)
        labels = rng.integers(0, 6, size=len(t))
        mesh = SimpleNamespace(vertices=v, triangles=t, n_vertices=len(v), n_triangles=len(t))
        for write, reference, args, ext in [
            (io.write_obj, reference_write_obj, (v, t), "obj"),
            (io.write_medit, reference_write_medit, (v, t), "mesh"),
            (io.write_labeling, reference_write_labeling, (labels,), "flags"),
            (io.write_ply, reference_write_ply, (mesh, labels), "ply"),
        ]:
            write(tmp_path / f"{k}.{ext}", *args)
            reference(tmp_path / f"{k}_ref.{ext}", *args)
            assert (tmp_path / f"{k}.{ext}").read_bytes() == (tmp_path / f"{k}_ref.{ext}").read_bytes()


@pytest.mark.parametrize("bad", [-1, 9])
@pytest.mark.parametrize("writer", ["labeling", "ply"])
def test_writers_reject_labels_outside_0_to_5(tmp_path, cube_mesh, writer, bad):
    labels = naive_labeling(cube_mesh).copy()
    labels[3] = bad
    p = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"label {bad} of triangle 3 outside 0\.\.5"):
        if writer == "labeling":
            io.write_labeling(p, labels)
        else:
            io.write_ply(p, cube_mesh, labels)
    assert not p.exists()


@pytest.mark.parametrize("bad, kind", [
    (2.7, "is not an integer"), (-0.5, "is not an integer"), (np.nan, "is not an integer"),
    (np.inf, r"outside 0\.\.5"),
])
@pytest.mark.parametrize("writer", ["labeling", "ply"])
def test_writers_reject_labels_that_are_not_integers(tmp_path, cube_mesh, writer, bad, kind):
    # a float label is never cut down to an integer; whole floats are labels
    labels = naive_labeling(cube_mesh).astype(np.float64)
    labels[3] = bad
    p = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"label {bad} of triangle 3 {kind}"):
        if writer == "labeling":
            io.write_labeling(p, labels)
        else:
            io.write_ply(p, cube_mesh, labels)
    assert not p.exists()
    labels[3] = 2.0
    io.write_labeling(p, labels)
    assert io.read_labeling(p).tolist() == labels.astype(np.int64).tolist()


@pytest.mark.parametrize("name, read", [
    ("m.obj", io.read_obj), ("m.mesh", io.read_medit),
    ("m.flags", io.read_labeling), ("f.txt", io.read_feature_edges),
])
def test_readers_reject_text_that_is_not_utf8(tmp_path, name, read):
    p = tmp_path / name
    p.write_bytes(b"0 1\n# caf\xe9\n")  # Latin-1, not UTF-8
    with pytest.raises(FileFormatError, match=rf"{re.escape(str(p))}: not UTF-8 text: .* at byte 9"):
        read(p)


def test_load_mesh_reads_through_the_module_readers(tmp_path, monkeypatch):
    """perfbench times mesh reads by replacing ``io.read_obj`` and
    ``io.read_medit``; ``load_mesh`` must look them up on the module."""
    calls = []
    for name in ("read_obj", "read_medit"):
        read = getattr(io, name)
        monkeypatch.setattr(io, name, lambda path, _read=read, _name=name: calls.append(_name) or _read(path))
    v, f = shapes.cube()
    io.write_obj(tmp_path / "a.obj", v, f)
    io.write_medit(tmp_path / "a.mesh", v, f)
    io.load_mesh(tmp_path / "a.obj")
    io.load_mesh(tmp_path / "a.mesh")
    assert calls == ["read_obj", "read_medit"]
