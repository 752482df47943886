import numpy as np
import pytest

from polycubelabel import io, shapes
from polycubelabel.io import FileFormatError
from polycubelabel.labeling import LABEL_COLORS, naive_labeling
from polycubelabel.mesh import NonTriangleFaceError, SurfaceMesh

from helpers import build

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


def test_feature_edges_roundtrip_canonicalized(tmp_path):
    p = tmp_path / "f.txt"
    io.write_feature_edges(p, [(7, 2), (0, 1), (2, 7)])
    # written sorted with low vertex first; duplicates preserved as given
    assert p.read_text() == "0 1\n2 7\n2 7\n"
    assert io.read_feature_edges(p) == [(0, 1), (2, 7), (2, 7)]


def test_feature_edges_malformed(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(FileFormatError, match=r"f\.txt:1"):
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
    io.write_feature_edges(tmp_path / "a.features", pairs)
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
