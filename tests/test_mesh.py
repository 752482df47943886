import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import shapes
from polycubelabel.mesh import (
    DegenerateTriangleError,
    DisconnectedSurfaceError,
    MeshError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    OpenSurfaceError,
    SurfaceMesh,
    UnreferencedVertexError,
    detect_feature_edges,
    interior_dihedral,
)
from polycubelabel.operators import _grow

from helpers import (
    build,
    cube_with_a_stray_vertex,
    two_cubes_sharing_a_vertex,
    two_disjoint_cubes,
)
from oracles import DictMesh, flood, ring_grow


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

    assert np.array_equal(m.edges, ref.edges)
    assert np.array_equal(m.edge_tris, ref.edge_tris)
    assert np.array_equal(m.triangle_adjacency, ref.triangle_adjacency)
    for vid in range(m.n_vertices):
        assert m.vertex_triangles(vid) == ref.vertex_triangles(vid)
    for (a, b), e in ref.edge_index.items():
        assert m.edge_id(a, b) == m.edge_id(b, a) == e
    with pytest.raises(MeshError, match="no edge"):
        m.edge_id(int(f[0, 0]), m.n_vertices)
    for j in range(3):
        expected = [m.edge_id(t[j], t[(j + 1) % 3]) for t in m.triangles]
        assert m.triangle_edges[:, j].tolist() == expected

    assert m.feature_edges == ref.feature_edges
    assert m.ignored_feature_edges == ref.ignored_feature_edges
    assert [tuple(m.edges[e]) for e in np.nonzero(m.feature_edge_mask)[0]] == sorted(ref.feature_edges)
    ends = {vid for edge in ref.feature_edges for vid in edge}
    assert np.nonzero(m.feature_vertex_mask)[0].tolist() == sorted(ends)


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
    assert _grow(m, seeds, allowed, barrier).tolist() == sorted(flood(ref, seeds, allowed, barrier))
    inside = [t for t in seeds if allowed[t]]
    for rings in range(5):
        assert _grow(m, seeds, rings=rings).tolist() == sorted(ring_grow(ref, seeds, rings))
        assert (_grow(m, inside, allowed, rings=rings).tolist()
                == sorted(ring_grow(ref, inside, rings, allowed)))


def test_non_manifold_edge_named_before_open_edges():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (1, 1, 1)]
    # the first triangle's edges stay open; edge (0, 1) gets three triangles
    tris = [(2, 3, 5), (0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(NonManifoldEdgeError) as err:
        SurfaceMesh(verts, tris)
    a, b = err.value.edge
    assert sum({a, b} <= set(t) for t in tris) >= 3


def test_pinched_vertex_rejected():
    v, f, shared = two_cubes_sharing_a_vertex()
    with pytest.raises(NonManifoldVertexError) as err:
        SurfaceMesh(v, f)
    assert err.value.vertex == shared
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

