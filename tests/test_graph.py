import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import io, shapes
from polycubelabel.graph import LabelingGraph, discontinuity_edges, optimal_edge_directions
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh

from helpers import build, chart_euler
from oracles import (
    ReferenceLabelingGraph,
    brute_force_directions,
    direction_cost,
    flood_fill_charts,
    reference_edge_directions,
    ring_grow,
)


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


def test_graph_refuses_labels_that_are_not_integers(cube_mesh, tmp_path):
    # the same refusal as the labeling writer's, not a silent truncation
    labels = naive_labeling(cube_mesh) + 0.7
    with pytest.raises(ValueError, match=r"of triangle 0 is not an integer") as built:
        LabelingGraph(cube_mesh, labels)
    with pytest.raises(ValueError) as written:
        io.write_labeling(tmp_path / "x.flags", labels)
    assert str(built.value) == str(written.value)
    whole = naive_labeling(cube_mesh).astype(np.float64)
    assert LabelingGraph(cube_mesh, whole).labels.dtype == np.int64


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
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 13))
        signs = rng.choice([-1, 0, 1], size=n).tolist()
        cyclic = bool(rng.integers(0, 2))
        mu = float(rng.choice([0.25, 1.0, 3.0]))
        cases.append((signs, cyclic, mu))
    # runs of one nonzero sign, which LabelingGraph takes as their own
    # optimum without running the DP: no flip, no cost
    cases += [([sign] * n, cyclic, (0.0, 0.25, 1.0, 3.0)[n % 4])
              for n in range(1, 13) for cyclic in (False, True) for sign in (1, -1)]
    for signs, cyclic, mu in cases:
        n = len(signs)
        dirs, cost = optimal_edge_directions(signs, mu=mu, cyclic=cyclic)
        assert len(dirs) == n and set(dirs) <= {1, -1}
        # reported cost is the cost of the reported assignment, and optimal
        assert cost == pytest.approx(direction_cost(dirs, signs, mu, cyclic), abs=1e-12)
        assert cost == pytest.approx(brute_force_directions(signs, mu, cyclic), abs=1e-12)
        if set(signs) in ({1}, {-1}):
            assert (dirs, cost) == (tuple(signs), 0.0)
            assert brute_force_directions(signs, mu, cyclic) == 0.0


def test_directions_equal_reference_dp_exactly():
    # zero signs and flip penalties at half-integers make many exact ties;
    # the recurrence must break them the way the dict DP does
    rng = np.random.default_rng(23)
    for _ in range(4000):
        n = int(rng.integers(0, 16))
        signs = rng.choice([-1, 0, 1], size=n).tolist()
        mu = float(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 0.3]))
        cyclic = bool(rng.integers(0, 2))
        assert optimal_edge_directions(signs, mu, cyclic) == reference_edge_directions(
            signs, mu, cyclic
        )


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


# -- the array build against the edge-by-edge walk --------------------------------


def _tilted_torus():
    """torus(24, 12) turned 0.3 rad about z, then 0.5 rad about x."""
    verts, tris = shapes.torus(nu=24, nv=12)
    cz, sz, cx, sx = math.cos(0.3), math.sin(0.3), math.cos(0.5), math.sin(0.5)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return SurfaceMesh(verts @ (rx @ rz).T, tris)


GRAPH_SHAPES = {
    "cube": lambda: SurfaceMesh(*shapes.subdivide(*shapes.cube(), 2)),
    "l-prism": lambda: SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 2)),
    "sphere": lambda: SurfaceMesh(*shapes.icosphere(2)),
    "torus": lambda: SurfaceMesh(*shapes.torus(nu=24, nv=12)),
    "cone": lambda: SurfaceMesh(*shapes.cone(16)),
    "tilted-torus": _tilted_torus,
}
_graph_meshes = {}


def _blob_labeling(shape, n_blobs, seed):
    """The naive labeling of a test shape with blobs of random labels painted
    over it: each blob is 1-3 triangle rings around a random triangle."""
    if shape not in _graph_meshes:
        _graph_meshes[shape] = GRAPH_SHAPES[shape]()
    m = _graph_meshes[shape]
    rng = np.random.default_rng(seed)
    labels = naive_labeling(m)
    for _ in range(n_blobs):
        blob = ring_grow(m, [int(rng.integers(m.n_triangles))], int(rng.integers(1, 4)))
        labels[sorted(blob)] = rng.integers(0, 6)
    return m, labels


def _typed(value):
    """A value with the type of each of its parts, so 1 != np.int64(1) and a
    tuple != a list."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_typed(v) for v in value)
    return type(value), value


def _assert_same_graph(g, ref):
    assert g.chart_of.dtype == ref.chart_of.dtype
    assert np.array_equal(g.chart_of, ref.chart_of)
    assert len(g.charts) == len(ref.charts)
    for c, r in zip(g.charts, ref.charts):
        assert _typed((c.index, c.label, c.boundaries, c.neighbors)) == _typed(
            (r.index, r.label, r.boundaries, r.neighbors))
        assert c.triangles.dtype == r.triangles.dtype
        assert np.array_equal(c.triangles, r.triangles)
    assert len(g.boundaries) == len(ref.boundaries)
    for b, r in zip(g.boundaries, ref.boundaries):
        assert _typed(vars(b)) == _typed(vars(r))  # every field, signs and turning points too
    assert [_typed(vars(c)) for c in g.corners] == [_typed(vars(c)) for c in ref.corners]
    assert _typed(list(g.corner_at.items())) == _typed(list(ref.corner_at.items()))


def _boundary_kinds(g):
    pairs = Counter(frozenset((b.left_chart, b.right_chart)) for b in g.boundaries)
    kinds = {
        "cyclic": any(b.cyclic for b in g.boundaries),
        "corner loop": any(b.endpoints and b.vertices[0] == b.vertices[-1] for b in g.boundaries),
        "several between one pair": any(n > 1 for n in pairs.values()),
        "corner of valence >= 4": any(c.valence >= 4 for c in g.corners),
        "zero sign": any(0 in b.raw_signs for b in g.boundaries),
        "mixed signs": any(len(set(b.raw_signs)) > 1 for b in g.boundaries),
        "turning point": g.total_turning_points > 0,
    }
    return {k for k, present in kinds.items() if present}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(GRAPH_SHAPES)),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.0, 0.5, 3.0, -2.0]),
)
def test_graph_equals_edge_by_edge_build_on_blob_labelings(shape, n_blobs, seed, mu):
    m, labels = _blob_labeling(shape, n_blobs, seed)
    _assert_same_graph(LabelingGraph(m, labels, mu), ReferenceLabelingGraph(m, labels, mu))


def test_graph_equals_edge_by_edge_build_on_every_boundary_kind():
    kinds = set()
    for shape, n_blobs, seed in [("cube", 2, 0), ("cube", 4, 0), ("sphere", 3, 0),
                                 ("tilted-torus", 2, 0), ("torus", 0, 0)]:
        m, labels = _blob_labeling(shape, n_blobs, seed)
        g = LabelingGraph(m, labels)
        _assert_same_graph(g, ReferenceLabelingGraph(m, labels))
        kinds |= _boundary_kinds(g)
    assert kinds == {"cyclic", "corner loop", "several between one pair", "corner of valence >= 4",
                     "zero sign", "mixed signs", "turning point"}
    # a labeling with no boundary at all
    m, _ = _blob_labeling("cone", 0, 0)
    labels = np.zeros(m.n_triangles, dtype=np.int64)
    _assert_same_graph(LabelingGraph(m, labels), ReferenceLabelingGraph(m, labels))
