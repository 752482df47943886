"""Repair-operator contracts.

Each operator reads its labeling off a LabelingGraph, whose labels are
read-only, and must return applied=False with the graph's own labels and a
reason when its precondition fails, report the exact set of relabeled
triangles otherwise, and establish its advertised postcondition.  `run`
wraps every call with the shared checks (including a determinism re-run).
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import graphcut, operators, shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.operators import (
    OperatorOutcome,
    _chart_contour_loops,
    fix_invalid_boundary,
    fix_invalid_corner,
    increase_chart_valence,
    is_feature_surrounded,
    join_turning_points_pair,
    move_boundary_near_turning_point,
    pull_closest_corner,
    remove_chart,
    straighten_boundary,
)
from polycubelabel.validity import corner_is_valid, validate

import oracles
from helpers import build, grid_box, noisy_labeling, spy_moves
from oracles import (reference_alpha_expansion, reference_fix_invalid_corner,
                     reference_join_turning_points_pair, reference_restricted_relabel,
                     reference_straighten_boundary)

# grid_box(8, 8, 4): cell (a, b) of a face covers triangles 2k and 2k+1,
# faces emitted +X -X +Y -Y +Z -Z, sides 8x4 cells each
DIMS = (8, 8, 4)
TOP0 = 4 * 2 * 8 * 4


def top_cell(a, b):
    k = TOP0 + 2 * (a * 8 + b)
    return [k, k + 1]


def px_cell(a, b):
    k = 2 * (a * 4 + b)
    return [k, k + 1]


def lattice(mesh):
    """Vertex id at integer grid coordinates (x, y, z)."""
    return {
        (round(p[0] * 8), round(p[1] * 8), round(p[2] * 4)): i
        for i, p in enumerate(np.asarray(mesh.vertices))
    }


def box_mesh(extra_edges=()):
    v, f = grid_box(*DIMS)
    feats = set(SurfaceMesh(v, f).feature_edges)
    feats |= {tuple(sorted(e)) for e in extra_edges}
    # angle 0 keeps supplied flat-face paths active instead of "ignored"
    return SurfaceMesh(v, f, feature_edges=feats, feature_angle=0.0)


def all_turning_points(graph):
    out = set()
    for b in graph.boundaries:
        out.update(int(b.vertices[i]) for i in b.turning_points)
    return out


def run(op, graph, *args, **kw):
    """Call op with the shared contract checks; returns the outcome."""
    labels = graph.labels
    assert not labels.flags.writeable  # the operator cannot mutate its input
    before = labels.copy()
    out = op(graph, *args, **kw)
    assert np.array_equal(labels, before), "operator mutated its input"
    assert out.labels.dtype == np.int64
    if out.applied:
        assert out.changed == frozenset(np.nonzero(out.labels != labels)[0])
        assert out.changed and out.reason == ""
    else:
        assert out.labels is labels
        assert out.changed == frozenset() and out.reason
    again = op(graph, *args, **kw)
    assert again.applied == out.applied and again.reason == out.reason
    assert np.array_equal(again.labels, out.labels)
    return out


def test_outcome_applied_is_whether_anything_changed():
    assert [f.name for f in dataclasses.fields(OperatorOutcome)] == ["labels", "changed", "reason"]
    labels = np.zeros(3, dtype=np.int64)
    assert OperatorOutcome(labels, frozenset({1})).applied is True
    out = OperatorOutcome(labels, frozenset())
    assert out.applied is False
    with pytest.raises(AttributeError):
        out.applied = True


# ---------------------------------------------------------------- remove_chart


def test_remove_chart_absorbs_into_neighbors(lprism_mesh):
    labels = naive_labeling(lprism_mesh)
    g = LabelingGraph(lprism_mesh, labels)
    out = run(remove_chart, g, 0)
    assert out.applied
    tris = [int(t) for t in g.charts[0].triangles]
    assert set(tris) <= out.changed
    nbr_labels = {g.charts[n].label for n in g.charts[0].neighbors}
    assert set(out.labels[tris].tolist()) <= nbr_labels
    assert LabelingGraph(lprism_mesh, out.labels).n_charts < g.n_charts


def test_remove_chart_into_one_label_runs_no_cut(monkeypatch):
    # a two-cell patch in the +Z face: its one neighbour carries +Z, the one
    # label left at every free triangle, which the patch takes without a cut
    m = box_mesh()
    labels = naive_labeling(m)
    labels[top_cell(3, 3) + top_cell(3, 4)] = 0
    g = LabelingGraph(m, labels)
    patch = int(g.chart_of[top_cell(3, 3)[0]])
    assert [g.charts[n].label for n in g.charts[patch].neighbors] == [4]
    alphas = spy_moves(monkeypatch)
    out = run(remove_chart, g, patch)
    assert out.changed == frozenset(top_cell(3, 3) + top_cell(3, 4))
    assert set(out.labels[sorted(out.changed)].tolist()) == {4}
    assert alphas == []
    monkeypatch.setattr(graphcut, "alpha_expansion", reference_alpha_expansion)
    want = reference_restricted_relabel(m, labels, g.charts[patch].triangles,
                                        allowed=np.arange(6) == 4)
    assert np.array_equal(want, out.labels)
    assert alphas == [0, 1, 2, 3, 4, 5]


def test_remove_chart_skips_constant_labeling(cube_mesh):
    labels = np.zeros(cube_mesh.n_triangles, dtype=np.int64)
    g = LabelingGraph(cube_mesh, labels)
    out = run(remove_chart, g, 0)
    assert not out.applied  # no neighbors to absorb into


# --------------------------------------------------------- fix_invalid_boundary


def split_top_box():
    """+Z face half-painted -Z: one same-axis boundary across the top."""
    m = box_mesh()
    labels = naive_labeling(m)
    for a in range(4, 8):
        for b in range(8):
            labels[top_cell(a, b)] = 5
    return m, labels, LabelingGraph(m, labels)


def test_fix_invalid_boundary_inserts_separating_strip():
    m, labels, g = split_top_box()
    bad = [b.index for b in g.boundaries if b.axis is None]
    assert len(bad) == 1
    out = run(fix_invalid_boundary, g, bad[0], width=2)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert all(b.axis is not None for b in g2.boundaries)
    # strip label avoids the shared Z axis; on the flat top +X wins the tie
    assert {int(l) for l in out.labels[sorted(out.changed)]} == {0}


def test_fix_invalid_boundary_skips_orthogonal(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(fix_invalid_boundary, g, 0)
    assert not out.applied


# ----------------------------------------------------------- fix_invalid_corner


def cone_quadrants(subdiv):
    """Cone side split into the four lateral labels; apex meets four +Z
    boundaries, which no corner rule accepts."""
    v, f = shapes.cone(8)
    if subdiv:
        v, f = shapes.subdivide(v, f, subdiv)
    m = build(v, f)
    labels = np.empty(m.n_triangles, dtype=np.int64)
    base = m.normals[:, 2] < -0.9
    labels[base] = 5
    cent = m.vertices[m.triangles].mean(axis=1)
    quad = ((np.arctan2(cent[:, 1], cent[:, 0]) + math.pi / 4) // (math.pi / 2)).astype(int) % 4
    for q, lab in enumerate((0, 2, 1, 3)):
        labels[~base & (quad == q)] = lab
    return m, labels


def test_fix_invalid_corner_buries_cone_apex():
    m, labels = cone_quadrants(2)
    g = LabelingGraph(m, labels)
    apex = int(np.argmax(m.vertices[:, 2]))
    ci = g.corner_at[apex]
    assert g.corners[ci].axis_counts == (0, 0, 4)
    assert not corner_is_valid(g.corners[ci])[0]
    out = run(fix_invalid_corner, g, ci)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert apex not in g2.corner_at  # buried under the new cap
    assert not validate(g2).invalid_corners


def test_fix_invalid_corner_needs_room():
    m, labels = cone_quadrants(0)  # coarse: a 3-ring disk would swallow the base
    g = LabelingGraph(m, labels)
    apex = int(np.argmax(m.vertices[:, 2]))
    out = run(fix_invalid_corner, g, g.corner_at[apex], radius=3)
    assert out.applied  # the disk shrinks until it fits
    incident = {int(g.chart_of[t]) for t in m.vertex_triangles(apex)}
    assert {int(g.chart_of[t]) for t in out.changed} <= incident


def test_fix_invalid_corner_skips_valid_corner(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(fix_invalid_corner, g, 0)
    assert not out.applied


@pytest.fixture
def disks(monkeypatch):
    """The arguments of every `_grow` call the operators make from here on."""
    grown, grow = [], operators._grow
    monkeypatch.setattr(operators, "_grow", lambda *a, **kw: grown.append(a) or grow(*a, **kw))
    return grown


def _assert_fixes_corners_as_the_reference(graph, disks):
    """fix_invalid_corner's outcome equals the reference's at every corner of
    the graph, and it grows no disk where the incident charts span all three
    axes; returns how many such corners there are and how many applied."""
    three_axes = applied = 0
    for c in range(graph.n_corners):
        disks.clear()
        got, want = fix_invalid_corner(graph, c), reference_fix_invalid_corner(graph, c)
        assert got.changed == want.changed
        assert np.array_equal(got.labels, want.labels)
        star = list(graph.mesh.vertex_triangles(graph.corners[c].vertex))
        if len(set((graph.chart_label[graph.chart_of[star]] >> 1).tolist())) == 3:
            assert not disks and not got.applied
            three_axes += 1
        applied += got.applied
    return three_axes, applied


def test_fix_invalid_corner_as_the_reference_on_the_pinned_labelings(disks):
    counts = [_assert_fixes_corners_as_the_reference(g, disks) for g in pinned_graphs()]
    assert sum(n for n, _ in counts) and sum(k for _, k in counts)


@pytest.mark.parametrize("shape", ["cube", "l-prism", "sphere", "torus"])
def test_fix_invalid_corner_as_the_reference_on_noisy_starts(shape, disks):
    # every corner of a repair start with a fifth of its triangles relabeled
    # at random: most stars there span all three axes
    three_axes = applied = 0
    for seed in range(3):
        n, k = _assert_fixes_corners_as_the_reference(
            LabelingGraph(*noisy_labeling(shape, 0.2, seed)), disks)
        three_axes, applied = three_axes + n, applied + k
    assert three_axes and applied


# -------------------------------------------------------- increase_chart_valence


def test_increase_chart_valence_on_wedge_cap():
    v, f = shapes.subdivide(*shapes.wedge(), 2)
    m = build(v, f)
    labels = naive_labeling(m)
    g = LabelingGraph(m, labels)
    low = [c.index for c in g.charts if c.valence == 3]
    assert low  # the triangular end caps
    target = low[0]
    assert is_feature_surrounded(g, target)
    out = run(increase_chart_valence, g, target)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert g2.n_charts == g.n_charts + 1
    kept = next(t for t in g.charts[target].triangles if int(t) not in out.changed)
    assert g2.charts[int(g2.chart_of[int(kept)])].valence == 4


def test_increase_chart_valence_skips_square_chart(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(increase_chart_valence, g, 0)
    assert not out.applied  # right-angle corners, no same-axis acute vertex


# ------------------------------------------------------ join_turning_points_pair

# lost-feature path over the top face (diagonals are mesh edges)
HOOK_PATH = [(5, 7), (6, 8), (6, 7), (7, 7), (7, 6), (7, 5), (6, 4)]


def l_hook_box():
    """L-shaped +X patch on the +Z face; the reversal run along the inner
    rim leaves a turning-point at each end of HOOK_PATH."""
    v, f = grid_box(*DIMS)
    lat = lattice(SurfaceMesh(v, f))
    pairs = [
        (lat[(x1, y1, 4)], lat[(x2, y2, 4)])
        for (x1, y1), (x2, y2) in zip(HOOK_PATH, HOOK_PATH[1:])
    ]
    m = box_mesh(pairs)
    labels = naive_labeling(m)
    cells = [(a, b) for a in (5, 6, 7) for b in (2, 3)] + [(5, b) for b in (4, 5, 6)]
    for a, b in cells:
        labels[top_cell(a, b)] = 0
    return m, labels, lat


def test_join_turning_points_bonds_the_pair():
    m, labels, lat = l_hook_box()
    g = LabelingGraph(m, labels)
    assert all_turning_points(g) == {lat[(5, 7, 4)], lat[(6, 4, 4)]}
    t1, t2 = lat[(5, 7, 4)], lat[(6, 4, 4)]
    out = run(join_turning_points_pair, g, t1, t2)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert g2.total_turning_points == 0
    assert g2.n_charts > g.n_charts
    # bond chart avoids every label incident to either turning-point
    assert {int(l) for l in out.labels[sorted(out.changed)]} == {1}


def test_join_skips_degenerate_pairs():
    m, labels, lat = l_hook_box()
    g = LabelingGraph(m, labels)
    tp = lat[(5, 7, 4)]
    assert not run(join_turning_points_pair, g, tp, tp).applied
    other = lat[(0, 0, 0)]  # not a turning-point
    assert not run(join_turning_points_pair, g, tp, other).applied


# ----------------------------------------------------------- pull_closest_corner


def s_curve_box():
    """+X strip on the top face and +Z strip on the +X face swap across the
    crease; the y=3 grid line is supplied as the lost feature to re-trace."""
    rows = []
    v, f = grid_box(*DIMS)
    lat = lattice(SurfaceMesh(v, f))
    for x in range(8):
        rows.append((lat[(x, 3, 4)], lat[(x + 1, 3, 4)]))
    m = box_mesh(rows)
    labels = naive_labeling(m)
    for b in range(1, 6):
        labels[top_cell(7, b)] = 0
    for a in range(3, 7):
        labels[px_cell(a, 3)] = 4
    return m, labels, lat


def test_pull_closest_corner_rewires_the_wedge():
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    smooth_tp, crease_tp = lat[(7, 6, 4)], lat[(8, 3, 4)]
    assert all_turning_points(g) == {smooth_tp, crease_tp}
    for tp in (smooth_tp, crease_tp):  # either end works
        out = run(pull_closest_corner, g, tp)
        assert out.applied
        assert LabelingGraph(m, out.labels).total_turning_points == 0


def test_pull_skips_non_turning_point():
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    out = run(pull_closest_corner, g, lat[(0, 0, 0)])
    assert not out.applied


# ------------------------------------------- move_boundary_near_turning_point


def rotated_torus():
    v, f = shapes.torus()
    c, s = math.cos(0.5), math.sin(0.5)
    rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    return build(v @ rot.T, f)


def test_move_boundary_reduces_turning_points():
    m = rotated_torus()
    labels = naive_labeling(m)
    g = LabelingGraph(m, labels)
    tps = sorted(all_turning_points(g))
    assert g.total_turning_points == 3
    wins = 0
    for tp in tps:
        out = run(move_boundary_near_turning_point, g, tp, radius=2)
        if not out.applied:
            continue
        g2 = LabelingGraph(m, out.labels)
        if g2.total_turning_points < g.total_turning_points:
            wins += 1
    assert wins  # at least one smooth turning-point is locally removable


def test_move_skips_feature_turning_point():
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    out = run(move_boundary_near_turning_point, g, lat[(8, 3, 4)])
    assert not out.applied  # crease turning-points belong to the pull operator


# ------------------------------------------------------------ straighten_boundary


def zigzag_box():
    """Two-cell bump in an otherwise straight painted edge on the top face."""
    m = box_mesh()
    labels = naive_labeling(m)
    cells = [(a, b) for a in range(4, 8) for b in range(8)] + [(3, 3), (3, 4)]
    for a, b in cells:
        labels[top_cell(a, b)] = 0
    return m, labels


def test_straighten_boundary_shortens_the_walk():
    m, labels = zigzag_box()
    g = LabelingGraph(m, labels)
    [b] = [x for x in g.boundaries if {x.left_label, x.right_label} == {0, 4}]
    assert b.n_edges == 10 and not b.cyclic
    out = run(straighten_boundary, g, b.index)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    [b2] = [x for x in g2.boundaries if {x.left_label, x.right_label} == {0, 4}]
    assert b2.n_edges == 8  # bump planed off
    assert set(b2.endpoints) == set(b.endpoints)
    assert g2.total_turning_points == 0


def test_straighten_skips_feature_boundary(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(straighten_boundary, g, 0)
    assert not out.applied  # the walk lies on a crease


def test_straighten_skips_cyclic_boundary():
    m = SurfaceMesh(*shapes.cylinder(24))
    labels = naive_labeling(m)
    labels[np.abs(m.normals[:, 2]) < 0.5] = 0  # one chart around the wall
    g = LabelingGraph(m, labels)
    assert g.boundaries[0].cyclic
    out = run(straighten_boundary, g, 0)
    assert not out.applied


def _assert_straightens_as_the_reference(graph):
    """straighten_boundary's outcome equals the reference walk's on every
    boundary of the graph; returns how many applied."""
    applied = 0
    for b in range(graph.n_boundaries):
        got, want = straighten_boundary(graph, b), reference_straighten_boundary(graph, b)
        assert got.changed == want.changed
        assert np.array_equal(got.labels, want.labels)
        applied += got.applied
    return applied


def test_straighten_boundary_walks_as_the_reference_on_the_pinned_labelings():
    assert sum(_assert_straightens_as_the_reference(g) for g in pinned_graphs()) >= 10


def _assert_joins_as_the_reference(graph):
    """join_turning_points_pair's outcome equals the reference's on every
    ordered pair of turning points of the graph; returns how many applied."""
    applied = 0
    tps = graph.turning_point_vertices()
    for t1, t2 in ((a, b) for a in tps for b in tps if a != b):
        got, want = join_turning_points_pair(graph, t1, t2), reference_join_turning_points_pair(graph, t1, t2)
        assert got.changed == want.changed
        assert np.array_equal(got.labels, want.labels)
        applied += got.applied
    return applied


def test_join_turning_points_pair_as_the_reference_on_the_pinned_labelings():
    assert sum(_assert_joins_as_the_reference(g) for g in pinned_graphs()) >= 1


def test_join_turning_points_pair_as_the_reference_on_a_creased_torus():
    """Label noise on a coarse tilted torus, whose edges around the tube
    bend by 60 degrees and so are feature edges: many turning-point pairs
    that a lost feature path joins."""
    m = tilted_torus(12, 6)
    graphs = (LabelingGraph(m, blob_labeling(m, np.random.default_rng(seed), n_blobs))
              for seed in range(10) for n_blobs in range(5))
    assert sum(map(_assert_joins_as_the_reference, graphs)) >= 30


# ---------------------------------------------------------------- odds and ends


def test_feature_surrounded_classification(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    assert all(is_feature_surrounded(g, c.index) for c in g.charts)

    m, labels = zigzag_box()
    g = LabelingGraph(m, labels)
    painted = int(g.chart_of[top_cell(5, 5)[0]])
    assert not is_feature_surrounded(g, painted)


# ------------------------------------------------------------ pinned outcomes


def blob_labeling(mesh, rng, n_blobs):
    """The naive labeling with `n_blobs` blobs of random labels painted over
    it, each two edge-adjacent triangle rings around a random triangle."""
    labels = naive_labeling(mesh)
    for _ in range(n_blobs):
        region = {int(rng.integers(mesh.n_triangles))}
        for _ in range(2):
            region |= {int(u) for t in region for u in mesh.triangle_adjacency[t]}
        labels[sorted(region)] = int(rng.integers(6))
    return labels


def tilted_torus(nu, nv):
    """torus(nu, nv) turned 0.3 rad about z, then 0.5 rad about x."""
    v, f = shapes.torus(nu=nu, nv=nv)
    c, s = math.cos(0.5), math.sin(0.5)
    rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    return build(shapes.rotate_z(v, 0.3) @ rot.T, f)


def pinned_graphs():
    m = build(*shapes.subdivide(*shapes.l_prism(), 2))
    yield LabelingGraph(m, blob_labeling(m, np.random.default_rng(3), 4))
    m = tilted_torus(24, 12)
    yield LabelingGraph(m, naive_labeling(m))
    for make in (s_curve_box, l_hook_box):
        m, labels, _ = make()
        yield LabelingGraph(m, labels)


def every_target(graph, op):
    """Every target the operator accepts on `graph`, in index order."""
    tps = graph.turning_point_vertices()
    if op in (remove_chart, increase_chart_valence):
        return [(c,) for c in range(graph.n_charts)]
    if op in (fix_invalid_boundary, straighten_boundary):
        return [(b,) for b in range(graph.n_boundaries)]
    if op is fix_invalid_corner:
        return [(c,) for c in range(graph.n_corners)]
    if op is join_turning_points_pair:
        return [(a, b) for a in tps for b in tps if a != b]
    return [(t,) for t in tps]


# sha256 over (applied, sorted changed, labels) of every target of the four
# labelings of `pinned_graphs`, taken before the operators were rewritten
# around one paint step: a changed digest is a changed outcome
PINNED = {
    remove_chart:
        "2509c53093879e15c8c387f6199db4bdaac5f0685d7d3f06fc92c0d5b61aa74e",
    fix_invalid_boundary:
        "067e1225c75912920bb1e3e3784a232641248295464497f57d1827d5efd769f2",
    fix_invalid_corner:
        "9f715e5620a80336070747420298fdb23738c5052e8ce88d500a1030b0811e5d",
    increase_chart_valence:
        "50e4de499326584c2c304b3e70e844cfecda5acc91d08a822dfd57334486e501",
    join_turning_points_pair:
        "3c8448993b7ef2aa6adb8c6658137ad25c9260a99734a7b01bbc657c1ca78b4a",
    pull_closest_corner:
        "d07322a7422895448df82dadded7a63c851d56086a3ea3b6a8d83f3ea01840e9",
    move_boundary_near_turning_point:
        "d57c3471831511d305de6229f10a38713fb4d544e3ee79d7a4fbfbfd9dca052f",
    straighten_boundary:
        "3706cb81d33db797d2868891589156c49be43821957c58b334be19a08fa14a7b",
}


@pytest.mark.parametrize("op", list(PINNED), ids=lambda op: op.__name__)
def test_outcomes_are_pinned(op):
    digest, applied = hashlib.sha256(), 0
    for g in pinned_graphs():
        for target in every_target(g, op):
            out = op(g, *target)
            applied += out.applied
            digest.update(repr((out.applied, sorted(out.changed))).encode())
            digest.update(out.labels.astype("<i8").tobytes())
    assert applied  # every operator applies somewhere, pull_closest_corner included
    assert digest.hexdigest() == PINNED[op]


def _assert_as_the_copying_reference(op, graph):
    """`op` gives the outcome of its copy in `oracles`, which builds its own
    labeling at every exit, at every target of `graph`; returns how many
    applied."""
    reference = getattr(oracles, "copying_" + op.__name__)
    applied = 0
    for target in every_target(graph, op):
        got, want = op(graph, *target), reference(graph, *target)
        assert (got.applied, got.changed) == (want.applied, want.changed), target
        assert np.array_equal(got.labels, want.labels), target
        applied += got.applied
    return applied


@pytest.mark.parametrize("op", list(PINNED), ids=lambda op: op.__name__)
def test_operators_as_their_copying_reference_on_the_pinned_labelings(op):
    assert sum(_assert_as_the_copying_reference(op, g) for g in pinned_graphs())


def test_precondition_exits_allocate_no_labeling():
    """On 20 480 triangles, once the graph's lazy views were read, an
    operator that returns at its precondition allocates less than one
    labeling (F int64 values): it hands back the graph's own labels."""
    m = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 5))
    g = LabelingGraph(m, naive_labeling(m))
    one_chart = LabelingGraph(m, np.zeros(m.n_triangles, dtype=np.int64))
    plain = next(v for v in range(m.n_vertices)
                 if v not in g.turning_point_at and not g.boundary_vertex_mask[v])
    cases = [
        (remove_chart, one_chart, (0,), "the labeling is one chart"),
        (fix_invalid_boundary, g, (0,), "the boundary is orthogonal"),
        (fix_invalid_corner, g, (0,), "the corner is valid"),
        (increase_chart_valence, g, (0,), "no acute same-axis contour vertex"),
        (join_turning_points_pair, g, (plain, plain), "not two distinct turning points"),
        (pull_closest_corner, g, (plain,), "not a turning point"),
        (move_boundary_near_turning_point, g, (plain,), "not a turning point"),
        (straighten_boundary, g, (0,), "a feature boundary keeps its path"),
    ]
    for op, graph, target, reason in cases:
        op(graph, *target)  # reads the lazy views the exit needs
        tracemalloc.start()
        try:
            out = op(graph, *target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.reason == reason and out.labels is graph.labels
        assert peak < 8 * m.n_triangles, (op.__name__, peak)


# ------------------------------------------------- contours and label noise

NOISE_SHAPES = {
    "cube": lambda: build(*shapes.subdivide(*shapes.cube(), 2)),
    "l-prism": lambda: build(*shapes.subdivide(*shapes.l_prism(), 2)),
    "wedge": lambda: build(*shapes.subdivide(*shapes.wedge(), 2)),
    "cylinder": lambda: build(*shapes.cylinder(16)),
    "cone": lambda: build(*shapes.subdivide(*shapes.cone(16), 1)),
    "sphere": lambda: build(*shapes.icosphere(2)),
    "torus": lambda: build(*shapes.torus()),
    "tilted-torus": lambda: tilted_torus(48, 24),  # turning points for the pull
}
_noise_meshes = {}


def noise_mesh(shape):
    """The mesh of a NOISE_SHAPES entry, built once."""
    if shape not in _noise_meshes:
        _noise_meshes[shape] = NOISE_SHAPES[shape]()
    return _noise_meshes[shape]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NOISE_SHAPES)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_contour_loops_close_on_label_noise(shape, n_blobs, seed):
    """Every chart contour splits into closed loops that use each contour
    edge once, and the operators that walk contours and boundaries never
    raise, so they need no guard for open or missing pieces."""
    m = noise_mesh(shape)
    g = LabelingGraph(m, blob_labeling(m, np.random.default_rng(seed), n_blobs))
    for chart in g.charts:
        loops = _chart_contour_loops(g, chart.index)
        for loop in loops:
            assert all(loop[k][1] == loop[(k + 1) % len(loop)][0] for k in range(len(loop)))
        inside = g.chart_of[m.edge_tris] == chart.index
        contour = np.flatnonzero(inside[:, 0] != inside[:, 1]).tolist()
        assert sorted(e for loop in loops for _, _, e, _ in loop) == contour
        increase_chart_valence(g, chart.index)
    for tp in g.turning_point_vertices():
        pull_closest_corner(g, tp)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NOISE_SHAPES)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_straighten_boundary_walks_as_the_reference_on_label_noise(shape, n_blobs, seed):
    """The walk on plain floats takes the steps of the walk by np.linalg.norm:
    their distances differ by a few ulps at most, far inside the 1e-12 tie
    margin, on the labelings of the contour test."""
    m = noise_mesh(shape)
    _assert_straightens_as_the_reference(
        LabelingGraph(m, blob_labeling(m, np.random.default_rng(seed), n_blobs)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NOISE_SHAPES)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_join_turning_points_pair_as_the_reference_on_label_noise(shape, n_blobs, seed):
    """Lost-feature neighbours read from the vertex rings give the paths of
    the mesh-wide dict of lost feature edges, on the labelings of the
    contour test."""
    m = noise_mesh(shape)
    _assert_joins_as_the_reference(
        LabelingGraph(m, blob_labeling(m, np.random.default_rng(seed), n_blobs)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(NOISE_SHAPES)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_operators_as_their_copying_reference_on_label_noise(shape, n_blobs, seed):
    m = noise_mesh(shape)
    g = LabelingGraph(m, blob_labeling(m, np.random.default_rng(seed), n_blobs))
    for op in PINNED:
        _assert_as_the_copying_reference(op, g)
