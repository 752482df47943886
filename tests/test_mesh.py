import math

import numpy as np
import pytest

from polycubelabel import shapes
from polycubelabel.mesh import (
    DegenerateTriangleError,
    MeshError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    OpenSurfaceError,
    SurfaceMesh,
    detect_feature_edges,
    interior_dihedral,
)

from helpers import build


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
    assert detect_feature_edges(m, math.pi / 4) == frozenset()


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
    flat = [e for e in range(m.n_edges) if not m.is_feature_edge(*m.edges[e])]
    assert len(flat) == 6  # one diagonal per face
    for e in flat:
        info = interior_dihedral(m, e)
        assert info.theta_int == pytest.approx(math.pi, abs=1e-12)
        assert not info.is_convex and not info.is_reflex


def test_dihedral_cube_edges(cube_mesh):
    sharp = [e for e in range(cube_mesh.n_edges)
             if cube_mesh.is_feature_edge(*cube_mesh.edges[e])]
    assert len(sharp) == 12
    for e in sharp:
        info = interior_dihedral(cube_mesh, e)
        assert info.theta_int == pytest.approx(math.pi / 2, abs=1e-12)
        assert info.is_convex


def test_dihedral_reflex_lprism(lprism_mesh):
    m = lprism_mesh
    reflex = [e for e in range(m.n_edges) if interior_dihedral(m, e).is_reflex]
    # exactly one reentrant edge on the L-prism
    assert len(reflex) == 1
    info = interior_dihedral(m, reflex[0])
    assert info.theta_int == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_dihedral_orientation_independent(lprism_mesh):
    # rotating each triangle's vertex triple is the same surface
    v = lprism_mesh.vertices
    f = np.roll(lprism_mesh.triangles, 1, axis=1)
    m2 = SurfaceMesh(v, f)
    for a, b in [tuple(lprism_mesh.edges[e]) for e in range(lprism_mesh.n_edges)]:
        e1 = lprism_mesh.edge_id(a, b)
        e2 = m2.edge_id(a, b)
        t1 = interior_dihedral(lprism_mesh, e1).theta_int
        t2 = interior_dihedral(m2, e2).theta_int
        assert t1 == pytest.approx(t2, abs=1e-12)


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
    sharp = sorted(detect_feature_edges(plain, math.pi / 4))
    one_flat = next(
        tuple(plain.edges[e]) for e in range(plain.n_edges)
        if tuple(plain.edges[e]) not in sharp
    )
    m = SurfaceMesh(v, f, feature_edges=sharp[:4] + [one_flat])
    assert m.feature_edges == frozenset(sharp[:4])
    assert m.ignored_feature_edges == frozenset([one_flat])


def test_vertex_fan_cycles(lprism_mesh):
    m = lprism_mesh
    for v in range(m.n_vertices):
        nbrs = m.vertex_neighbors_ordered(v)
        assert len(nbrs) == len(set(nbrs))
        assert len(nbrs) == len(m.vertex_triangles(v))  # closed fan


def test_rebuild_is_deterministic():
    v, f = shapes.l_prism()
    a, b = SurfaceMesh(v, f), SurfaceMesh(v, f)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.edge_tris, b.edge_tris)
    assert np.array_equal(a.triangle_adjacency, b.triangle_adjacency)
