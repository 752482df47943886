import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph, discontinuity_edges, optimal_edge_directions
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh

from helpers import build, chart_euler
from oracles import brute_force_directions, direction_cost, flood_fill_charts


def test_cube_graph_counts(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    assert (g.n_charts, g.n_boundaries, g.n_corners) == (6, 12, 8)
    assert g.total_turning_points == 0
    assert all(c.valence == 4 for c in g.charts)
    assert all(b.n_edges == 1 and not b.cyclic for b in g.boundaries)
    assert all(c.axis_counts == (1, 1, 1) and c.valence == 3 for c in g.corners)
    assert g.chart_label_counts().tolist() == [1] * 6


def test_charts_partition_triangles(lprism_mesh):
    labels = naive_labeling(lprism_mesh)
    g = LabelingGraph(lprism_mesh, labels)
    seen = np.zeros(lprism_mesh.n_triangles, dtype=int)
    for c in g.charts:
        seen[c.triangles] += 1
        assert np.all(labels[c.triangles] == c.label)
        assert np.all(g.chart_of[c.triangles] == c.index)
    assert np.all(seen == 1)


def test_boundary_edges_are_exactly_the_discontinuities(lprism_mesh):
    labels = naive_labeling(lprism_mesh)
    g = LabelingGraph(lprism_mesh, labels)
    mask = discontinuity_edges(lprism_mesh, labels)
    t1, t2 = lprism_mesh.edge_tris[:, 0], lprism_mesh.edge_tris[:, 1]
    assert np.array_equal(mask, labels[t1] != labels[t2])
    from_boundaries = sorted(e for b in g.boundaries for e in b.edge_ids)
    assert from_boundaries == sorted(np.nonzero(mask)[0].tolist())  # no dup, no gap


def test_boundary_side_labels_and_axis(lprism_mesh):
    g = LabelingGraph(lprism_mesh, naive_labeling(lprism_mesh))
    for b in g.boundaries:
        assert b.left_label == g.charts[b.left_chart].label
        assert b.right_label == g.charts[b.right_chart].label
        a1, a2 = b.left_label >> 1, b.right_label >> 1
        assert b.axis == (None if a1 == a2 else 3 - a1 - a2)
        # walking the stored path must follow stored edge ids
        verts = b.vertices + ((b.vertices[0],) if b.cyclic else ())
        for i, eid in enumerate(b.edge_ids):
            assert set(lprism_mesh.edges[eid]) == {verts[i], verts[i + 1]}


def test_lprism_euler_relation(lprism_mesh):
    g = LabelingGraph(lprism_mesh, naive_labeling(lprism_mesh))
    assert all(chart_euler(lprism_mesh, c) == 1 for c in g.charts)
    assert g.n_charts - g.n_boundaries + g.n_corners == 2  # genus 0


def test_corner_bookkeeping(lprism_mesh):
    g = LabelingGraph(lprism_mesh, naive_labeling(lprism_mesh))
    for c in g.corners:
        assert c.valence >= 3
        assert sum(c.axis_counts) + sum(
            1 for bid in c.boundaries if g.boundaries[bid].axis is None
        ) == c.valence
        for bid in c.boundaries:
            assert c.vertex in g.boundaries[bid].endpoints
        assert g.corners[g.corner_at[c.vertex]] is c


def test_cyclic_boundary_when_side_is_one_chart():
    m = SurfaceMesh(*shapes.cylinder(24))
    labels = naive_labeling(m)
    side = np.abs(m.normals[:, 2]) < 0.5
    labels[side] = 0  # collapse the side wall into a single +X chart
    g = LabelingGraph(m, labels)
    assert g.n_charts == 3 and g.n_corners == 0
    assert [b.cyclic for b in g.boundaries] == [True, True]
    for b in g.boundaries:
        assert b.endpoints == ()
        assert len(b.vertices) == b.n_edges  # start vertex not repeated
        assert len(set(b.vertices)) == len(b.vertices)
    # one annulus (the wall) and two disk caps
    assert sorted(chart_euler(m, c) for c in g.charts) == [0, 1, 1]


def test_torus_naive_has_annulus_charts(torus_mesh):
    g = LabelingGraph(torus_mesh, naive_labeling(torus_mesh))
    eulers = sorted(chart_euler(torus_mesh, c) for c in g.charts)
    assert 0 in eulers  # label bands wrap around the tube


def test_graph_rejects_bad_labels(cube_mesh):
    with pytest.raises(ValueError, match="length"):
        LabelingGraph(cube_mesh, np.zeros(5, dtype=np.int64))
    bad = naive_labeling(cube_mesh)
    bad[0] = 6
    with pytest.raises(ValueError, match="0..5"):
        LabelingGraph(cube_mesh, bad)


def test_graph_is_deterministic(lprism_mesh):
    labels = naive_labeling(lprism_mesh)
    g1 = LabelingGraph(lprism_mesh, labels)
    g2 = LabelingGraph(lprism_mesh, labels)
    assert np.array_equal(g1.chart_of, g2.chart_of)
    assert [b.vertices for b in g1.boundaries] == [b.vertices for b in g2.boundaries]
    assert [c.vertex for c in g1.corners] == [c.vertex for c in g2.corners]


def test_graph_labels_are_frozen(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    with pytest.raises(ValueError):
        g.labels[0] = 3


# -- direction assignment DP -----------------------------------------------------


def test_directions_uniform_signs_no_flip():
    dirs, cost = optimal_edge_directions([1, 1, 1, 1])
    assert dirs == (1, 1, 1, 1) and cost == 0.0
    dirs, cost = optimal_edge_directions([-1, -1])
    assert dirs == (-1, -1) and cost == 0.0


def test_directions_zero_sign_ties_prefer_plus():
    dirs, cost = optimal_edge_directions([0])
    assert dirs == (1,) and cost == 0.5
    dirs, cost = optimal_edge_directions([0, 0, 0])
    assert dirs == (1, 1, 1) and cost == 1.5


def test_directions_flip_penalty_tradeoff():
    # cheap flips: follow the measured signs; expensive flips: stay uniform
    signs = [1, 1, -1, -1]
    dirs, cost = optimal_edge_directions(signs, mu=0.5)
    assert dirs == (1, 1, -1, -1) and cost == 0.5
    dirs, cost = optimal_edge_directions(signs, mu=10.0)
    assert dirs in ((1, 1, 1, 1), (-1, -1, -1, -1)) and cost == 2.0


def test_directions_cyclic_counts_wraparound():
    signs = [1, 1, -1]
    open_dirs, open_cost = optimal_edge_directions(signs, mu=0.3, cyclic=False)
    cyc_dirs, cyc_cost = optimal_edge_directions(signs, mu=0.3, cyclic=True)
    assert open_cost == pytest.approx(0.3)  # one flip
    assert cyc_cost == pytest.approx(0.6)  # flip must close back around


def test_directions_empty():
    assert optimal_edge_directions([]) == ((), 0.0)


def test_directions_match_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        signs = rng.choice([-1, 0, 1], size=n).tolist()
        cyclic = bool(rng.integers(0, 2))
        mu = float(rng.choice([0.25, 1.0, 3.0]))
        dirs, cost = optimal_edge_directions(signs, mu=mu, cyclic=cyclic)
        assert len(dirs) == n and set(dirs) <= {1, -1}
        # reported cost is the cost of the reported assignment, and optimal
        assert cost == pytest.approx(direction_cost(dirs, signs, mu, cyclic), abs=1e-12)
        assert cost == pytest.approx(brute_force_directions(signs, mu, cyclic), abs=1e-12)


def test_rotated_torus_has_turning_points(torus_mesh):
    c, s = math.cos(0.5), math.sin(0.5)
    rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    m = SurfaceMesh(torus_mesh.vertices @ rot.T, torus_mesh.triangles)
    g = LabelingGraph(m, naive_labeling(m))
    assert g.total_turning_points > 0
    for b in g.boundaries:
        for i in b.turning_points:
            assert 0 <= i < len(b.vertices)
        if b.axis is None:
            assert b.turning_points == ()


NOISE_SHAPES = {
    "cube": lambda: build(*shapes.subdivide(*shapes.cube(), 2)),
    "l-prism": lambda: build(*shapes.subdivide(*shapes.l_prism(), 2)),
    "cylinder": lambda: build(*shapes.cylinder(16)),
    "sphere": lambda: build(*shapes.icosphere(2)),
    "torus": lambda: build(*shapes.torus()),
}
_noise_meshes = {}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(NOISE_SHAPES)),
    st.sampled_from([0.0, 0.02, 0.2, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_charts_match_flood_fill_on_label_noise(shape, noise, seed):
    if shape not in _noise_meshes:
        _noise_meshes[shape] = NOISE_SHAPES[shape]()
    m = _noise_meshes[shape]
    rng = np.random.default_rng(seed)
    labels = naive_labeling(m)
    flip = rng.random(m.n_triangles) < noise
    labels[flip] = rng.integers(0, 6, size=int(flip.sum()))

    g = LabelingGraph(m, labels)
    chart_of, chart_labels, members = flood_fill_charts(m, labels)
    assert g.chart_of.tolist() == chart_of
    assert [c.label for c in g.charts] == chart_labels
    assert [c.triangles.tolist() for c in g.charts] == members
    firsts = [int(c.triangles[0]) for c in g.charts]
    assert firsts == sorted(firsts)  # charts ordered by smallest triangle index
