import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import io, shapes
from polycubelabel.graph import LabelingGraph, discontinuity_edges, optimal_edge_directions
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh

from helpers import GRAPH_SHAPES, blob_labeling, build, chart_euler, noisy_labeling
from oracles import (
    ReferenceLabelingGraph,
    brute_force_directions,
    direction_cost,
    flood_fill_charts,
    reference_edge_directions,
)


def test_cube_graph_counts(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    assert (g.n_charts, g.n_boundaries, g.n_corners) == (6, 12, 8)
    assert g.total_turning_points == 0
    assert all(c.valence == 4 for c in g.charts)
    assert all(b.n_edges == 1 and not b.cyclic for b in g.boundaries)
    assert all(c.axis_counts == (1, 1, 1) and c.valence == 3 for c in g.corners)
    assert sorted(c.label for c in g.charts) == list(range(6))


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
    # the index: turning points located once, and which vertices and edges a boundary holds
    scan = {r.vertices[pos]: (r.index, pos) for r in ref.boundaries for pos in r.turning_points}
    assert _typed(sorted(g.turning_point_at.items())) == _typed(sorted(scan.items()))
    assert len(g.turning_point_at) == g.total_turning_points == ref.total_turning_points
    assert _typed(g.turning_point_vertices()) == _typed(ref.turning_point_vertices())
    on_boundary = sorted({v for r in ref.boundaries for v in r.vertices})
    assert np.flatnonzero(g.boundary_vertex_mask).tolist() == on_boundary
    assert np.flatnonzero(g.boundary_edge_mask).tolist() == sorted(
        e for r in ref.boundaries for e in r.edge_ids)
    # the arrays that validate reads say what the views say
    assert g.chart_label.tolist() == [r.label for r in ref.charts]
    assert g.chart_valence.tolist() == [r.valence for r in ref.charts]
    assert g.boundary_axis.tolist() == [-1 if r.axis is None else r.axis for r in ref.boundaries]
    assert g.corner_vertex.tolist() == [r.vertex for r in ref.corners]
    assert g.corner_axis_counts.tolist() == [list(r.axis_counts) for r in ref.corners]
    assert g.corner_undefined.tolist() == [r.has_undefined_axis for r in ref.corners]


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
)
def test_graph_equals_edge_by_edge_build_on_blob_labelings(shape, n_blobs, seed):
    m, labels = blob_labeling(shape, n_blobs, seed)
    _assert_same_graph(LabelingGraph(m, labels), ReferenceLabelingGraph(m, labels))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(GRAPH_SHAPES)),
    st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_graph_equals_edge_by_edge_build_on_noisy_labelings(shape, noise, seed):
    m, labels = noisy_labeling(shape, noise, seed)
    _assert_same_graph(LabelingGraph(m, labels), ReferenceLabelingGraph(m, labels))


def test_graph_equals_edge_by_edge_build_on_every_boundary_kind():
    kinds = set()
    for shape, n_blobs, seed in [("cube", 2, 0), ("cube", 4, 0), ("sphere", 3, 0),
                                 ("tilted-torus", 2, 0), ("torus", 0, 0)]:
        m, labels = blob_labeling(shape, n_blobs, seed)
        g = LabelingGraph(m, labels)
        _assert_same_graph(g, ReferenceLabelingGraph(m, labels))
        kinds |= _boundary_kinds(g)
    assert kinds == {"cyclic", "corner loop", "several between one pair", "corner of valence >= 4",
                     "zero sign", "mixed signs", "turning point"}
    # a labeling with no boundary at all
    m, _ = blob_labeling("cone", 0, 0)
    labels = np.zeros(m.n_triangles, dtype=np.int64)
    _assert_same_graph(LabelingGraph(m, labels), ReferenceLabelingGraph(m, labels))


# -- read-only arrays and element views ----------------------------------------------


def _arrays_in(value, name):
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, tuple):
        for k, item in enumerate(value):
            yield from _arrays_in(item, f"{name}[{k}]")


def test_every_array_the_graph_holds_is_read_only():
    m = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 1))
    g = LabelingGraph(m, naive_labeling(m))
    views = list(g.charts) + list(g.boundaries) + list(g.corners)  # builds the lazy parts too
    arrays = dict(a for name, value in vars(g).items() for a in _arrays_in(value, name))
    arrays.update((f"charts[{c.index}].triangles", c.triangles) for c in g.charts)
    public = ("labels", "boundary_edge_mask", "boundary_vertex_mask", "chart_of", "chart_label",
              "chart_valence", "boundary_charts", "boundary_labels", "boundary_axis",
              "boundary_cyclic", "boundary_offsets", "boundary_edges", "edge_heads",
              "edge_tails", "raw_signs", "edge_signs", "corner_vertex", "corner_axis_counts",
              "corner_undefined")
    arrays.update((name, getattr(g, name)) for name in public)
    assert len(views) == g.n_charts + g.n_boundaries + g.n_corners > 0
    assert len(arrays) > len(public) + g.n_charts
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        assert not a.flags.writeable, name


def test_element_views_are_built_once_and_indexed_like_a_tuple(lprism_mesh):
    g = LabelingGraph(lprism_mesh, naive_labeling(lprism_mesh))
    for items in (g.charts, g.boundaries, g.corners):
        assert items[0] is items[0] is items[-len(items)] is list(items)[0]
        assert items[len(items) - 1] is items[-1]
        assert items[np.int64(1)] is items[1]
        for bad in (len(items), -len(items) - 1):
            with pytest.raises(IndexError):
                items[bad]
        with pytest.raises(TypeError):
            items[0:2]
    assert [c.index for c in g.charts] == list(range(g.n_charts))
    assert [type(b.index) for b in g.boundaries] == [int] * g.n_boundaries
    assert g.charts[2] is g.charts[2] and g.corners[-1] is g.corners[-1]


def test_a_graph_is_freed_as_soon_as_it_is_dropped(lprism_mesh):
    # no reference cycle: the repair loop drops a graph per operator attempt
    gc.disable()
    try:
        g = LabelingGraph(lprism_mesh, naive_labeling(lprism_mesh))
        views = g.charts[0], g.boundaries[0], g.corners[0], g.total_turning_points
        alive = weakref.ref(g)
        del g
        assert alive() is None and views
    finally:
        gc.enable()
