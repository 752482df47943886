"""The synthetic shape generators must all produce watertight meshes the
rest of the suite can rely on."""

import numpy as np
import pytest

from polycubelabel import shapes
from polycubelabel.mesh import SurfaceMesh

from helpers import grid_box
from oracles import reference_subdivide, reference_torus


@pytest.mark.parametrize("mk,genus", [
    (shapes.cube, 0),
    (lambda: shapes.cuboid(1, 2, 3), 0),
    (shapes.l_prism, 0),
    (shapes.t_prism, 0),
    (shapes.u_prism, 0),
    (shapes.plus_prism, 0),
    (lambda: shapes.staircase(4), 0),
    (shapes.notched_box, 0),
    (shapes.wedge, 0),
    (lambda: shapes.cylinder(16), 0),
    (lambda: shapes.cone(12), 0),
    (shapes.icosahedron, 0),
    (lambda: shapes.icosphere(2), 0),
    (shapes.torus, 1),
])
def test_generators_are_closed_manifolds(mk, genus):
    m = SurfaceMesh(*mk())
    assert m.genus == genus
    assert m.signed_volume() > 0


def test_triangulate_polygon_area():
    poly = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]  # L, area 3
    tris = shapes.triangulate_polygon(poly)
    assert len(tris) == len(poly) - 2
    pts = np.array(poly, dtype=float)
    area = 0.0
    for a, b, c in tris:
        u, w = pts[b] - pts[a], pts[c] - pts[a]
        area += 0.5 * abs(u[0] * w[1] - u[1] * w[0])
    assert area == pytest.approx(3.0)


def test_subdivide_preserves_flat_geometry():
    v, f = shapes.cube()
    v2, f2 = shapes.subdivide(v, f, 2)
    assert len(f2) == len(f) * 16
    m = SurfaceMesh(v2, f2)
    assert m.areas.sum() == pytest.approx(6.0)
    assert m.signed_volume() == pytest.approx(1.0)


def test_cylinder_volume_converges():
    m = SurfaceMesh(*shapes.cylinder(64, radius=1.0, height=2.0))
    # inscribed polygon: area slightly under pi r^2
    assert m.signed_volume() == pytest.approx(2 * np.pi, rel=0.01)


def test_rotate_and_jitter_deterministic():
    v, f = shapes.cube()
    r1 = shapes.rotate_z(v, np.pi / 4)
    r2 = shapes.rotate_z(v, np.pi / 4)
    assert np.array_equal(r1, r2)
    j1 = shapes.jitter(v, 1e-6, seed=3)
    j2 = shapes.jitter(v, 1e-6, seed=3)
    assert np.array_equal(j1, j2)
    assert not np.array_equal(j1, shapes.jitter(v, 1e-6, seed=4))
    assert np.abs(j1 - v).max() <= 1e-6


def test_grid_box_structure():
    v, f = grid_box(3, 2, 1, size=(3.0, 2.0, 1.0))
    m = SurfaceMesh(v, f)
    assert m.genus == 0
    assert m.signed_volume() == pytest.approx(6.0)
    assert m.n_triangles == 2 * 2 * (3 * 2 + 2 * 1 + 3 * 1)


def _reference_icosphere(level, radius=1.0):
    v, f = shapes.icosahedron()
    for _ in range(level):
        v, f = reference_subdivide(v, f)
        v = v / np.linalg.norm(v, axis=1)[:, None] * np.linalg.norm(v[0])
    return v / np.linalg.norm(v, axis=1)[:, None] * radius, f


@pytest.mark.parametrize("make, reference", [
    *[(lambda mk=mk, k=k: shapes.subdivide(*mk(), k),
       lambda mk=mk, k=k: reference_subdivide(*mk(), k))
      for mk in (shapes.cube, shapes.l_prism, shapes.wedge, shapes.staircase,
                 lambda: shapes.cylinder(8), lambda: shapes.cone(8), shapes.icosahedron)
      for k in (1, 2)],
    (lambda: shapes.subdivide(*shapes.torus(nu=8, nv=4), 1),
     lambda: reference_subdivide(*reference_torus(nu=8, nv=4), 1)),
    (shapes.torus, reference_torus),
    (lambda: shapes.torus(2, 1, 3, 5), lambda: reference_torus(2, 1, 3, 5)),
    (lambda: shapes.subdivide(*shapes.l_prism(), 6),
     lambda: reference_subdivide(*shapes.l_prism(), 6)),
    (lambda: shapes.icosphere(6), lambda: _reference_icosphere(6)),
    (lambda: shapes.torus(nu=256, nv=128), lambda: reference_torus(nu=256, nv=128)),
])
def test_generators_match_the_per_element_loops(make, reference):
    # byte for byte: the benchmark inputs and the report hashes rest on them
    for got, want in zip(make(), reference()):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
