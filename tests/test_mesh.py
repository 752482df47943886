import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import shapes
from polycubelabel.mesh import (
    DegenerateTriangleError,
    DisconnectedSurfaceError,
    GeometryRangeError,
    MeshError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    OpenSurfaceError,
    SurfaceMesh,
    UnreferencedVertexError,
    _stable_order,
    component_roots,
)
from polycubelabel.graph import LabelingGraph
from polycubelabel.operators import _barrier_region, _grow

from helpers import (
    GRAPH_SHAPES,
    blob_labeling,
    build,
    cube_with_a_stray_vertex,
    two_cubes_sharing_a_vertex,
    two_disjoint_cubes,
)
from oracles import DictMesh, flood, reference_vertex_ring, ring_grow, union_find_roots


def test_cube_combinatorics(cube_mesh):
    m = cube_mesh
    assert m.n_vertices == 8
    assert m.n_triangles == 12
    assert m.n_edges == 18
    assert m.genus == 0
    # closed manifold: every edge names exactly two distinct triangles
    ta, tb = m.edge_tris[:, 0], m.edge_tris[:, 1]
    assert np.all(ta != tb)


def test_adjacency_symmetric(lprism_mesh):
    m = lprism_mesh
    for t in range(m.n_triangles):
        for n in m.triangle_adjacency[t]:
            assert t in m.triangle_adjacency[n]


def test_normals_unit_and_outward(cube_mesh):
    lens = np.linalg.norm(cube_mesh.normals, axis=1)
    assert np.allclose(lens, 1.0, atol=1e-9)
    assert cube_mesh.signed_volume() == pytest.approx(1.0)
    # each cube face normal is exactly an axis direction
    assert np.allclose(np.abs(cube_mesh.normals).max(axis=1), 1.0)


def test_icosphere_edge_count():
    v, f = shapes.icosphere(2)
    m = SurfaceMesh(v, f)
    assert m.n_edges * 2 == 3 * m.n_triangles
    assert m.feature_edges == frozenset()


def test_torus_genus(torus_mesh):
    assert torus_mesh.genus == 1


def test_non_manifold_edge_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)]
    tris = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]  # edge (0,1) used three times
    with pytest.raises(NonManifoldEdgeError):
        SurfaceMesh(verts, tris)


def test_open_surface_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    tris = [(0, 2, 1), (0, 1, 3), (1, 2, 3)]  # tetrahedron minus one face
    with pytest.raises(OpenSurfaceError):
        SurfaceMesh(verts, tris)


def test_degenerate_triangle_rejected():
    v, f = shapes.cube()
    v = np.vstack([v, [2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    f = np.vstack([f, [8, 9, 10]])
    with pytest.raises(DegenerateTriangleError):
        SurfaceMesh(v, f)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before anything overflows
@pytest.mark.parametrize("scale, kind", [
    (1e160, "overflow"), (1e300, "overflow"), (1e100, "overflow"),
    (1e-170, "underflow"), (1e-80, "underflow"),
])
def test_geometry_out_of_float_range_rejected(scale, kind):
    # areas sum squares of products of two coordinates: a cube at 1e100
    # has infinite areas and at 1e-80 subnormal ones, whose normals are not
    # unit length
    v, f = shapes.cube()
    with pytest.raises(GeometryRangeError, match=f"triangle areas {kind} at this scale") as err:
        SurfaceMesh(np.asarray(v) * scale, f)
    assert err.value.kind == kind and isinstance(err.value, MeshError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e77, 1e-77, 2.0**250, 2.0**-250])
def test_geometry_at_the_ends_of_the_float_range_builds(scale):
    v, f = shapes.cube()
    m = SurfaceMesh(np.asarray(v) * scale, f)
    assert np.isfinite(m.areas).all() and np.allclose(np.linalg.norm(m.normals, axis=1), 1.0)
    if math.frexp(scale)[0] == 0.5:  # a power of two scales exactly
        assert np.array_equal(m.normals, SurfaceMesh(v, f).normals)


def test_all_vertices_at_one_point_are_degenerate_not_underflow():
    v, f = shapes.cube()
    with pytest.raises(DegenerateTriangleError):
        SurfaceMesh(np.zeros_like(np.asarray(v, dtype=float)), f)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_rejected(value):
    v, f = shapes.cube()
    v = np.array(v, dtype=np.float64)
    v[5, 1] = value
    with pytest.raises(NonFiniteVertexError) as err:
        SurfaceMesh(v, f)
    assert err.value.vertex_index == 5
    assert isinstance(err.value, MeshError)


def test_caller_arrays_stay_writeable():
    v, f = shapes.cube()
    v = np.ascontiguousarray(v, dtype=np.float64)
    f = np.ascontiguousarray(f, dtype=np.int64)
    mesh = SurfaceMesh(v, f)
    assert v.flags.writeable and f.flags.writeable
    assert not mesh.vertices.flags.writeable and not mesh.triangles.flags.writeable
    v[0, 0] += 1.0
    assert mesh.vertices[0, 0] == v[0, 0] - 1.0


def test_inconsistent_orientation_rejected():
    v, f = shapes.cube()
    f = f.copy()
    f[0] = f[0][::-1]
    with pytest.raises(MeshError):
        SurfaceMesh(v, f)


def test_dihedral_coplanar():
    # the cube's face diagonals are the flat edges
    m = build(*shapes.cube())
    flat = [e for e in range(m.n_edges) if not m.feature_edge_mask[e]]
    assert len(flat) == 6  # one diagonal per face
    for e in flat:
        assert m.dihedral_angles[e] == math.pi  # neither convex nor reflex


def test_dihedral_cube_edges(cube_mesh):
    sharp = [e for e in range(cube_mesh.n_edges) if cube_mesh.feature_edge_mask[e]]
    assert len(sharp) == 12
    for e in sharp:
        assert cube_mesh.dihedral_angles[e] == pytest.approx(math.pi / 2, abs=1e-12)


def test_dihedral_reflex_lprism(lprism_mesh):
    m = lprism_mesh
    reflex = np.flatnonzero(m.dihedral_angles > math.pi)
    # exactly one reentrant edge on the L-prism
    assert len(reflex) == 1
    assert m.dihedral_angles[reflex[0]] == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_dihedral_orientation_independent(lprism_mesh):
    # rotating each triangle's vertex triple is the same surface
    v = lprism_mesh.vertices
    f = np.roll(lprism_mesh.triangles, 1, axis=1)
    m2 = SurfaceMesh(v, f)
    for a, b in [tuple(lprism_mesh.edges[e]) for e in range(lprism_mesh.n_edges)]:
        e1 = lprism_mesh.edge_id(a, b)
        e2 = m2.edge_id(a, b)
        assert lprism_mesh.dihedral_angles[e1] == pytest.approx(m2.dihedral_angles[e2], abs=1e-12)


def test_feature_detection_cube(cube_mesh):
    # oracle: geometric cube edges join vertices differing in exactly one axis
    expected = set()
    for e in range(cube_mesh.n_edges):
        a, b = cube_mesh.edges[e]
        diff = np.sum(cube_mesh.vertices[a] != cube_mesh.vertices[b])
        if diff == 1:
            expected.add((int(a), int(b)))
    assert len(expected) == 12
    assert cube_mesh.feature_edges == frozenset(expected)


def test_supplied_features_filtered_by_angle():
    v, f = shapes.cube()
    plain = SurfaceMesh(v, f)
    sharp = sorted(plain.feature_edges)
    one_flat = next(
        tuple(plain.edges[e]) for e in range(plain.n_edges)
        if tuple(plain.edges[e]) not in sharp
    )
    m = SurfaceMesh(v, f, feature_edges=sharp[:4] + [one_flat])
    assert m.feature_edges == frozenset(sharp[:4])
    assert m.ignored_feature_edges == frozenset([one_flat])
    with pytest.raises(MeshError, match=r"feature edge \(0, 6\) is not a mesh edge"):
        SurfaceMesh(v, f, feature_edges=sharp[:4] + [(6, 0)])  # the body diagonal


@pytest.mark.parametrize("angle", [math.pi / 4, 0.1])
def test_feature_edges_hold_ints(angle):
    m = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 1), feature_angle=angle)
    found = m.feature_edges
    assert found and all(type(i) is int for pair in found for i in pair)
    assert json.loads(json.dumps(sorted(found))) == [list(p) for p in sorted(found)]


@pytest.mark.parametrize("angle", [math.nan, -0.1, -math.inf])
def test_nan_or_negative_feature_angle_rejected(angle):
    with pytest.raises(MeshError, match="feature angle must be 0 or more"):
        SurfaceMesh(*shapes.l_prism(), feature_angle=angle)


@pytest.mark.parametrize("angle", [math.pi, 4.0, math.inf])
def test_feature_angle_of_pi_or_more_marks_no_edge(angle):
    m = SurfaceMesh(*shapes.l_prism(), feature_angle=angle)
    assert m.feature_edges == frozenset()
    assert not m.feature_vertex_mask.any()


@pytest.mark.parametrize("n_vertices", [0, 4])
def test_mesh_without_triangles_rejected(n_vertices):
    with pytest.raises(MeshError, match="no triangles"):
        SurfaceMesh(np.zeros((n_vertices, 3)), np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("damage, match", [
    (lambda v, f: (v[:, :2], f), r"vertices must be an \(V, 3\) array"),
    (lambda v, f: (v, np.hstack([f, f[:, :1]])), r"triangles must be an \(F, 3\) array"),
    (lambda v, f: (v, np.where(f == 7, 8, f)), "triangle vertex index out of range"),
    (lambda v, f: (v, np.where(f == 7, -1, f)), "triangle vertex index out of range"),
    (lambda v, f: (v, f + 0.3), "triangle 0 has a vertex index that is not a whole number"),
    (lambda v, f: (v, np.where(f == 7, np.nan, f)), "triangle 1 has a vertex index that is not"),
    (lambda v, f: (v + 0j, f), "must hold real numbers, not complex"),
    (lambda v, f: (v, f + 0j), "must hold real numbers, not complex"),
], ids=["vertices-2d", "quads", "index-past-end", "index-negative", "index-fraction",
        "index-nan", "complex-vertices", "complex-indices"])
def test_arrays_of_the_wrong_shape_or_range_rejected(damage, match):
    with pytest.raises(MeshError, match=match):
        SurfaceMesh(*damage(*(np.asarray(a) for a in shapes.cube())))


def test_vertex_fans_are_built_on_first_use_and_read_only():
    m = SurfaceMesh(*shapes.l_prism())
    assert "_fans" not in vars(m)
    star, ring = m.vertex_triangles(3), m.vertex_ring(3)
    starts, tris, neighbors, edge_ids = fans = m._fans
    assert star == tuple(sorted(tris[starts[3]:starts[4]].tolist()))
    assert ring == list(zip(neighbors[starts[3]:starts[4]].tolist(),
                            edge_ids[starts[3]:starts[4]].tolist()))
    assert m._fans is fans  # built once
    for arr in fans:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("vid", [-1, 8])
@pytest.mark.parametrize("query", ["vertex_triangles", "vertex_ring", "is_feature_vertex"])
def test_vertex_queries_refuse_ids_outside_the_mesh(query, vid):
    m = SurfaceMesh(*shapes.cube())
    with pytest.raises(MeshError, match=rf"^no vertex {vid} in mesh$"):
        getattr(m, query)(vid)


_LAZY = ("dihedral_angles", "feature_edge_mask", "feature_vertex_mask", "feature_edges",
         "ignored_feature_edges")


@pytest.mark.parametrize("supplied", [False, True])
def test_dihedrals_and_features_are_built_on_first_use_and_read_only(supplied):
    v, f = shapes.subdivide(*shapes.l_prism(), 1)
    ref = DictMesh(v, f)
    features = None
    if supplied:  # every other edge, so some are flat and kept aside
        features = [tuple(p) for p in ref.edges[::2].tolist()]
        ref = DictMesh(v, f, feature_edges=features)
    m = SurfaceMesh(v, f, feature_edges=features)
    assert not set(_LAZY) & set(vars(m))
    assert np.array_equal(_bits(m.dihedral_angles), _bits(ref.dihedral_angles))
    assert m.feature_edges == ref.feature_edges
    assert m.ignored_feature_edges == ref.ignored_feature_edges
    assert bool(ref.ignored_feature_edges) == supplied
    assert [tuple(m.edges[e]) for e in np.flatnonzero(m.feature_edge_mask)] == sorted(ref.feature_edges)
    ends = {vid for edge in ref.feature_edges for vid in edge}
    assert np.flatnonzero(m.feature_vertex_mask).tolist() == sorted(ends)
    for name in ("dihedral_angles", "feature_edge_mask", "feature_vertex_mask"):
        arr = getattr(m, name)
        assert arr is getattr(m, name)  # computed once
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_constructor_refuses_bad_features_without_the_dihedrals(monkeypatch):
    def no_dihedrals(self):
        raise AssertionError("dihedral angles computed")

    monkeypatch.setattr(SurfaceMesh, "_compute_dihedrals", no_dihedrals)
    v, f = shapes.cube()
    m = SurfaceMesh(v, f, feature_edges=[(0, 1)])
    assert m.n_edges == 18
    with pytest.raises(MeshError, match=r"feature edge \(0, 6\) is not a mesh edge"):
        SurfaceMesh(v, f, feature_edges=[(6, 0)])  # the body diagonal
    for pair in ((0.4, 1.9), (0, 1, 2)):  # once truncated to the edge (0, 1)
        with pytest.raises(MeshError, match=rf"feature edge \[{pair[0]}, {pair[1]}.* vertex ids"):
            SurfaceMesh(v, f, feature_edges=[(0, 1), pair])
    with pytest.raises(MeshError, match="feature angle must be 0 or more"):
        SurfaceMesh(v, f, feature_angle=math.nan)
    with pytest.raises(AssertionError, match="dihedral angles computed"):
        m.feature_edges


def test_vertex_fan_cycles(lprism_mesh):
    m = lprism_mesh
    for v in range(m.n_vertices):
        nbrs = [w for w, _ in m.vertex_ring(v)]
        assert len(nbrs) == len(set(nbrs))
        assert len(nbrs) == len(m.vertex_triangles(v))  # closed fan


_CORNER_TABLES = ("triangle_edges", "triangle_adjacency", "_partner", "_corner_next")


def test_corner_tables_are_built_on_first_read_and_read_only():
    m = SurfaceMesh(*shapes.l_prism())
    assert not set(_CORNER_TABLES) & set(vars(m))
    for name in _CORNER_TABLES:
        arr = getattr(m, name)
        assert arr is getattr(m, name)  # computed once
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1


@pytest.mark.parametrize("solid, walked", [
    (shapes.l_prism, False),  # V - E + F = 2: no vertex can be pinched
    (lambda: shapes.torus(nu=8, nv=4), True),  # V - E + F = 0
    (cube_with_a_stray_vertex, True),
    (two_disjoint_cubes, True),
], ids=["l-prism", "torus", "stray-vertex", "two-cubes"])
def test_fans_are_walked_only_where_euler_leaves_room_for_a_pinch(monkeypatch, solid, walked):
    def no_walk(self):
        raise AssertionError("fans walked")

    monkeypatch.setattr(SurfaceMesh, "_check_fans", no_walk)
    if walked:
        with pytest.raises(AssertionError, match="fans walked"):
            SurfaceMesh(*solid())
    else:
        SurfaceMesh(*solid())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 40), st.booleans())
def test_stable_order_equals_the_stable_argsort(data, n, past_bound):
    # a few distinct keys, so that most are tied, one of them the largest
    # allowed; past the bound they reach the int64 maximum, where key * n
    # overflows, so that only the stable argsort gives the right order
    n_values = 2**63 if past_bound else (2**62 - 1) // max(n, 1)
    pool = data.draw(st.lists(st.integers(0, n_values - 1), max_size=3)) + [n_values - 1]
    keys = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=np.int64)
    order, sorted_keys = _stable_order(keys, n_values)
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert sorted_keys.tolist() == keys[order].tolist()


def test_rebuild_is_deterministic():
    v, f = shapes.l_prism()
    a, b = SurfaceMesh(v, f), SurfaceMesh(v, f)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.edge_tris, b.edge_tris)
    assert np.array_equal(a.triangle_adjacency, b.triangle_adjacency)


# -- connectivity against the dict-based reference ---------------------------

CORPUS = [
    shapes.cube(),
    shapes.l_prism(),
    shapes.wedge(),
    shapes.cylinder(8),
    shapes.cone(8),
    shapes.icosphere(1),
    shapes.torus(nu=8, nv=4),
    shapes.subdivide(*shapes.staircase(), 1),
]


def scrambled(index, seed):
    """A corpus shape with permuted vertex ids and each triangle row rolled
    by a random amount, plus the generator that made it."""
    v, f = CORPUS[index]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(v))  # vertex i becomes perm[i]
    v2 = np.empty_like(v)
    v2[perm] = v
    rows = perm[f]
    shift = rng.integers(0, 3, size=len(rows))
    f2 = rows[np.arange(len(rows))[:, None], (np.arange(3) + shift[:, None]) % 3]
    return v2, f2, rng


corpus_cases = st.tuples(st.integers(0, len(CORPUS) - 1), st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(corpus_cases, st.booleans())
def test_connectivity_matches_dict_reference(case, supply_features):
    v, f, rng = scrambled(*case)
    features = None
    if supply_features:
        pairs = DictMesh(v, f).edges
        pairs = pairs[rng.random(len(pairs)) < 0.4].tolist()
        features = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    m = SurfaceMesh(v, f, feature_edges=features)
    ref = DictMesh(v, f, feature_edges=features)

    for name in ("vertices", "triangles", "edges", "edge_tris", "triangle_adjacency"):
        assert np.array_equal(getattr(m, name), getattr(ref, name))
    for vid in range(m.n_vertices):
        assert m.vertex_triangles(vid) == ref.vertex_triangles(vid)
    for (a, b), e in ref.edge_index.items():
        assert m.edge_id(a, b) == m.edge_id(b, a) == e
    with pytest.raises(MeshError, match="no edge"):
        m.edge_id(int(f[0, 0]), m.n_vertices)
    assert m.triangle_edges.tolist() == [
        [ref.edge_id(int(t[j]), int(t[(j + 1) % 3])) for j in range(3)] for t in f]

    assert m.feature_edges == ref.feature_edges
    assert m.ignored_feature_edges == ref.ignored_feature_edges
    assert [tuple(m.edges[e]) for e in np.nonzero(m.feature_edge_mask)[0]] == sorted(ref.feature_edges)
    ends = {vid for edge in ref.feature_edges for vid in edge}
    assert np.nonzero(m.feature_vertex_mask)[0].tolist() == sorted(ends)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(corpus_cases, st.sampled_from(["exact", "jitter", "rotate"]))
def test_geometry_bits_match_dict_reference(case, warp):
    # jittered and rotated vertices make the products inexact, so a change
    # in the order of the arithmetic would show in the last bits
    v, f, rng = scrambled(*case)
    if warp == "jitter":
        v = shapes.jitter(v, 1e-3, seed=int(rng.integers(2**32)))
    elif warp == "rotate":
        v = shapes.rotate_z(v, float(rng.uniform(0.1, 3.0)))
    m, ref = SurfaceMesh(v, f), DictMesh(v, f)

    assert np.array_equal(_bits(m.normals), _bits(ref.normals))
    assert np.array_equal(_bits(m.areas), _bits(ref.areas))
    assert np.array_equal(_bits(m.dihedral_angles), _bits(ref.dihedral_angles))
    p0, p1, p2 = (m.vertices[m.triangles[:, j]] for j in range(3))
    volume = np.einsum("ij,ij->i", p0, np.cross(p1, p2)).sum() / 6.0
    assert _bits(m.signed_volume()) == _bits(volume)


@settings(max_examples=40, deadline=None)
@given(corpus_cases, st.sampled_from(["drop", "repeat", "flip"]))
def test_broken_connectivity_raises_like_dict_reference(case, damage):
    v, f, rng = scrambled(*case)
    k = int(rng.integers(len(f)))
    if damage == "drop":
        f = np.delete(f, k, axis=0)
    elif damage == "repeat":
        f = np.insert(f, int(rng.integers(len(f) + 1)), f[k], axis=0)
    else:
        f[k] = f[k][::-1]
    with pytest.raises(MeshError) as expected:
        DictMesh(v, f)
    with pytest.raises(type(expected.value)) as got:
        SurfaceMesh(v, f)
    assert str(got.value) == str(expected.value)


@settings(max_examples=40, deadline=None)
@given(corpus_cases)
def test_grow_matches_ring_and_flood_references(case):
    v, f, rng = scrambled(*case)
    m, ref = SurfaceMesh(v, f), DictMesh(v, f)
    allowed = rng.random(m.n_triangles) < 0.7
    seeds = rng.choice(m.n_triangles, size=int(rng.integers(0, 5)), replace=False).tolist()
    barrier = set(rng.choice(m.n_edges, size=int(rng.integers(0, m.n_edges // 3 + 1)),
                             replace=False).tolist())
    assert (np.flatnonzero(_barrier_region(m, seeds, allowed, barrier)).tolist()
            == sorted(flood(ref, seeds, allowed, barrier)))
    inside = [t for t in seeds if allowed[t]]
    for rings in range(5):
        assert (np.flatnonzero(_grow(m, seeds, rings=rings)).tolist()
                == sorted(ring_grow(ref, seeds, rings)))
        assert (np.flatnonzero(_grow(m, inside, allowed, rings=rings)).tolist()
                == sorted(ring_grow(ref, inside, rings, allowed)))


def _assert_fans_match_the_reference(v, f):
    m, ref = SurfaceMesh(v, f), DictMesh(v, f)
    for vid in range(m.n_vertices):
        assert m.vertex_ring(vid) == reference_vertex_ring(ref, vid)
        assert m.vertex_triangles(vid) == ref.vertex_triangles(vid)


@settings(max_examples=40, deadline=None)
@given(corpus_cases)
def test_vertex_fans_match_the_fan_walk_reference(case):
    v, f, _ = scrambled(*case)
    _assert_fans_match_the_reference(v, f)


def test_vertex_fans_match_the_fan_walk_reference_around_a_wide_apex():
    # degree 512 at the apex and the base centre: nine doubling passes
    _assert_fans_match_the_reference(*shapes.cone(512))


def test_non_manifold_edge_named_before_open_edges():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (1, 1, 1)]
    # the first triangle's edges stay open; edge (0, 1) gets three triangles
    tris = [(2, 3, 5), (0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(NonManifoldEdgeError) as err:
        SurfaceMesh(verts, tris)
    a, b = err.value.edge
    assert sum({a, b} <= set(t) for t in tris) >= 3


def _sphere_with_two_antipodal_vertices_merged():
    """``icosphere(2)`` with vertex 0's antipode replaced by vertex 0 and
    removed: one piece whose vertex 0 has two fans, V - E + F = 1."""
    v, f = shapes.icosphere(2)
    v, f = np.asarray(v, dtype=np.float64), np.asarray(f)
    far = int(np.argmin(v @ v[0]))
    f = np.where(f == far, 0, f)
    return np.delete(v, far, axis=0), np.where(f > far, f - 1, f), 0


def _merged_sphere_and_a_stray_vertex():  # V - E + F = 2
    v, f, pinched = _sphere_with_two_antipodal_vertices_merged()
    return np.vstack([v, [[5.0, 5.0, 5.0]]]), f, pinched


def _two_merged_spheres():  # V - E + F = 2
    v, f, pinched = _sphere_with_two_antipodal_vertices_merged()
    return np.vstack([v, v + 3.0]), np.vstack([f, f + len(v)]), pinched


@pytest.mark.parametrize("solid", [
    two_cubes_sharing_a_vertex,
    _sphere_with_two_antipodal_vertices_merged,
    _merged_sphere_and_a_stray_vertex,
    _two_merged_spheres,
], ids=["two-cubes", "merged-sphere", "merged-sphere-and-stray-vertex", "two-merged-spheres"])
def test_pinched_vertex_rejected(solid):
    # named before a stray vertex or a second piece, whatever V - E + F is
    v, f, pinched = solid()
    with pytest.raises(NonManifoldVertexError) as err:
        SurfaceMesh(v, f)
    assert err.value.vertex == pinched
    assert isinstance(err.value, MeshError)


def test_unreferenced_vertex_rejected():
    v, f = cube_with_a_stray_vertex()
    with pytest.raises(UnreferencedVertexError) as err:
        SurfaceMesh(v, f)
    assert err.value.vertex == len(v) - 1
    assert isinstance(err.value, MeshError)


def _three_shuffled_spheres():
    # triangles of the three pieces interleaved, so that hooking cannot rely
    # on each piece holding a contiguous run of ids
    v, f = shapes.icosphere(2)
    v, f = np.asarray(v, dtype=np.float64), np.asarray(f)
    tris = np.vstack([f, f + len(v), f + 2 * len(v)])
    return np.vstack([v, v + 3.0, v + 6.0]), tris[np.random.default_rng(4).permutation(len(tris))]


@pytest.mark.parametrize("solid, n_components", [
    (two_disjoint_cubes, 2),
    (_three_shuffled_spheres, 3),
], ids=["two-cubes", "three-shuffled-spheres"])
def test_several_components_rejected(solid, n_components):
    with pytest.raises(DisconnectedSurfaceError) as err:
        SurfaceMesh(*solid())
    assert err.value.n_components == n_components
    assert isinstance(err.value, MeshError)


def test_earlier_checks_win_over_the_component_checks():
    v, f = cube_with_a_stray_vertex()
    with pytest.raises(OpenSurfaceError):
        SurfaceMesh(v, f[1:])
    v2, f2 = two_disjoint_cubes()
    with pytest.raises(OpenSurfaceError):
        SurfaceMesh(v2, f2[:-1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_component_roots_match_a_plain_union_find(graph):
    # drawn graphs have isolated nodes, self-loops and repeated edges
    n, pairs = graph
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    assert component_roots(n, a, b).tolist() == union_find_roots(n, pairs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    st.integers(0, 2**32 - 1))))
def test_component_roots_from_a_forest_match_the_call_without_one(graph):
    # the forest: each node's smallest node in the components of some of
    # the edges; the other edges are hooked from it
    n, pairs, seed = graph
    rng = np.random.default_rng(seed)
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    some = rng.random(len(a)) < rng.random()
    forest = np.array(union_find_roots(n, [p for p, k in zip(pairs, some) if k]))
    kept = forest.copy()
    got = component_roots(n, a[~some], b[~some], forest)
    assert got.tolist() == component_roots(n, a, b).tolist() == union_find_roots(n, pairs)
    assert np.array_equal(forest, kept)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GRAPH_SHAPES)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_barrier_region_matches_the_flood_reference_inside_two_charts(shape, n_blobs, seed):
    # as the operators call it: two neighbour charts, a barrier of edges
    # inside them, and seeds on both sides of it and outside the charts
    m, labels = blob_labeling(shape, n_blobs, seed)
    g = LabelingGraph(m, labels)
    rng = np.random.default_rng(seed)
    b = g.boundaries[int(rng.integers(g.n_boundaries))]
    allowed = np.isin(g.chart_of, (b.left_chart, b.right_chart))
    inside = np.flatnonzero(allowed[m.edge_tris].all(axis=1))
    barrier = set(rng.choice(inside, size=int(rng.integers(len(inside) + 1)), replace=False).tolist())
    seeds = rng.choice(m.n_triangles, size=int(rng.integers(1, 6)), replace=False).tolist()
    assert (np.flatnonzero(_barrier_region(m, seeds, allowed, barrier)).tolist()
            == sorted(flood(m, seeds, allowed, barrier)))
