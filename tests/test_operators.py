"""Repair-operator contracts.

Each operator must leave its input array untouched, return applied=False
with byte-identical labels when its precondition fails, report the exact
set of relabeled triangles otherwise, and establish its advertised
postcondition.  `run` wraps every call with the shared checks (including
a determinism re-run).
"""

import math

import numpy as np

from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh, detect_feature_edges
from polycubelabel.operators import (
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

from helpers import build, grid_box

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
    base = SurfaceMesh(v, f)
    feats = {tuple(sorted(e)) for e in detect_feature_edges(base, math.pi / 4)}
    feats |= {tuple(sorted(e)) for e in extra_edges}
    # angle 0 keeps supplied flat-face paths active instead of "ignored"
    return SurfaceMesh(v, f, feature_edges=feats, feature_angle=0.0)


def all_turning_points(graph):
    out = set()
    for b in graph.boundaries:
        out.update(int(v) for v in b.turning_point_vertices())
    return out


def run(op, mesh, labels, graph, *args, **kw):
    """Call op with the shared contract checks; returns the outcome."""
    before = labels.copy()
    out = op(mesh, labels, graph, *args, **kw)
    assert np.array_equal(labels, before), "operator mutated its input"
    assert out.labels.dtype == np.int64
    if out.applied:
        assert out.changed == frozenset(np.nonzero(out.labels != labels)[0])
        assert out.changed
    else:
        assert np.array_equal(out.labels, labels)
        assert out.changed == frozenset()
    again = op(mesh, labels, graph, *args, **kw)
    assert again.applied == out.applied
    assert np.array_equal(again.labels, out.labels)
    return out


# ---------------------------------------------------------------- remove_chart


def test_remove_chart_absorbs_into_neighbors(lprism_mesh):
    labels = naive_labeling(lprism_mesh)
    g = LabelingGraph(lprism_mesh, labels)
    out = run(remove_chart, lprism_mesh, labels, g, 0)
    assert out.applied
    tris = [int(t) for t in g.charts[0].triangles]
    assert set(tris) <= out.changed
    nbr_labels = {g.charts[n].label for n in g.charts[0].neighbors}
    assert set(out.labels[tris].tolist()) <= nbr_labels
    assert LabelingGraph(lprism_mesh, out.labels).n_charts < g.n_charts


def test_remove_chart_skips_constant_labeling(cube_mesh):
    labels = np.zeros(cube_mesh.n_triangles, dtype=np.int64)
    g = LabelingGraph(cube_mesh, labels)
    out = run(remove_chart, cube_mesh, labels, g, 0)
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
    out = run(fix_invalid_boundary, m, labels, g, bad[0], width=2)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert all(b.axis is not None for b in g2.boundaries)
    # strip label avoids the shared Z axis; on the flat top +X wins the tie
    assert {int(l) for l in out.labels[sorted(out.changed)]} == {0}


def test_fix_invalid_boundary_skips_orthogonal(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(fix_invalid_boundary, cube_mesh, labels, g, 0)
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
    out = run(fix_invalid_corner, m, labels, g, ci)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert apex not in g2.corner_at  # buried under the new cap
    assert not validate(g2).invalid_corners


def test_fix_invalid_corner_needs_room():
    m, labels = cone_quadrants(0)  # coarse: a 3-ring disk would swallow the base
    g = LabelingGraph(m, labels)
    apex = int(np.argmax(m.vertices[:, 2]))
    out = run(fix_invalid_corner, m, labels, g, g.corner_at[apex], radius=3)
    assert out.applied  # the disk shrinks until it fits
    incident = {int(g.chart_of[t]) for t in m.vertex_triangles(apex)}
    assert {int(g.chart_of[t]) for t in out.changed} <= incident


def test_fix_invalid_corner_skips_valid_corner(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(fix_invalid_corner, cube_mesh, labels, g, 0)
    assert not out.applied


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
    out = run(increase_chart_valence, m, labels, g, target)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    assert g2.n_charts == g.n_charts + 1
    kept = next(t for t in g.charts[target].triangles if int(t) not in out.changed)
    assert g2.charts[int(g2.chart_of[int(kept)])].valence == 4


def test_increase_chart_valence_skips_square_chart(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(increase_chart_valence, cube_mesh, labels, g, 0)
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
    out = run(join_turning_points_pair, m, labels, g, t1, t2)
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
    assert not run(join_turning_points_pair, m, labels, g, tp, tp).applied
    other = lat[(0, 0, 0)]  # not a turning-point
    assert not run(join_turning_points_pair, m, labels, g, tp, other).applied


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
        out = run(pull_closest_corner, m, labels, g, tp)
        assert out.applied
        assert LabelingGraph(m, out.labels).total_turning_points == 0


def test_pull_skips_non_turning_point():
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    out = run(pull_closest_corner, m, labels, g, lat[(0, 0, 0)])
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
        out = run(move_boundary_near_turning_point, m, labels, g, tp, radius=2)
        if not out.applied:
            continue
        g2 = LabelingGraph(m, out.labels)
        if g2.total_turning_points < g.total_turning_points:
            wins += 1
    assert wins  # at least one smooth turning-point is locally removable


def test_move_skips_feature_turning_point():
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    out = run(move_boundary_near_turning_point, m, labels, g, lat[(8, 3, 4)])
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
    out = run(straighten_boundary, m, labels, g, b.index)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    [b2] = [x for x in g2.boundaries if {x.left_label, x.right_label} == {0, 4}]
    assert b2.n_edges == 8  # bump planed off
    assert set(b2.endpoints) == set(b.endpoints)
    assert g2.total_turning_points == 0


def test_straighten_skips_feature_boundary(cube_mesh):
    labels = naive_labeling(cube_mesh)
    g = LabelingGraph(cube_mesh, labels)
    out = run(straighten_boundary, cube_mesh, labels, g, 0)
    assert not out.applied  # the walk lies on a crease


def test_straighten_skips_cyclic_boundary():
    m = SurfaceMesh(*shapes.cylinder(24))
    labels = naive_labeling(m)
    labels[np.abs(m.normals[:, 2]) < 0.5] = 0  # one chart around the wall
    g = LabelingGraph(m, labels)
    assert g.boundaries[0].cyclic
    out = run(straighten_boundary, m, labels, g, 0)
    assert not out.applied


# ---------------------------------------------------------------- odds and ends


def test_feature_surrounded_classification(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    assert all(is_feature_surrounded(g, c.index) for c in g.charts)

    m, labels = zigzag_box()
    g = LabelingGraph(m, labels)
    painted = int(g.chart_of[top_cell(5, 5)[0]])
    assert not is_feature_surrounded(g, painted)
