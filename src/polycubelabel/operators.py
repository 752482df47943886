"""Labeling-repair operators.

Three operators adopted from earlier labeling pipelines (remove_chart,
fix_invalid_boundary, fix_invalid_corner) plus five newer ones
(increase_chart_valence, join_turning_points_pair, pull_closest_corner,
move_boundary_near_turning_point, straighten_boundary).

Every operator is a pure function (mesh, labels, graph, target) ->
OperatorOutcome. The input labeling is never mutated; `applied` is False
when the precondition does not hold at the target or the attempt changed
nothing, in which case the returned labeling is identical to the input.
Callers rebuild the LabelingGraph after an applied operator.

All tie-breaks (label choices, path steps, target scans) resolve toward the
lowest encoding / index so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import LabelingGraph
from .labeling import LABEL_DIRECTIONS, restricted_relabel
from .mesh import SurfaceMesh
from .validity import corner_is_valid

AXIS_DIRECTIONS = LABEL_DIRECTIONS[::2]  # unit +X, +Y, +Z


@dataclass(frozen=True)
class OperatorOutcome:
    labels: np.ndarray
    changed: frozenset
    applied: bool


@dataclass(frozen=True)
class TracedPath:
    vertices: tuple
    edges: tuple
    reason: str  # hit-corner | hit-boundary | hit-turning-point | hit-feature-edge | max-steps


def _skip(labels) -> OperatorOutcome:
    return OperatorOutcome(np.array(labels, dtype=np.int64), frozenset(), False)


def _outcome(labels_in, labels_out) -> OperatorOutcome:
    changed = frozenset(int(i) for i in np.nonzero(labels_in != labels_out)[0])
    if not changed:
        return _skip(labels_in)
    return OperatorOutcome(labels_out, changed, True)


def _unit(v):
    return v / np.linalg.norm(v)


def _average_normal(mesh: SurfaceMesh, tris) -> np.ndarray:
    tris = np.fromiter(tris, dtype=np.int64) if not isinstance(tris, np.ndarray) else tris
    n = (mesh.normals[tris] * mesh.areas[tris, None]).sum(axis=0)
    norm = np.linalg.norm(n)
    return n / norm if norm > 0 else np.zeros(3)


def _best_label(direction, candidates) -> int:
    # highest dot wins; scanning sorted candidates makes ties deterministic
    best, best_dot = None, -np.inf
    for l in sorted(candidates):
        d = float(np.dot(direction, LABEL_DIRECTIONS[l]))
        if d > best_dot + 1e-15:
            best, best_dot = l, d
    return best


def _ring_grow(mesh: SurfaceMesh, seeds, rings: int, allowed=None) -> set:
    """Triangles within `rings` edge-adjacency rings of the seed set."""
    region = set(int(t) for t in seeds)
    frontier = set(region)
    for _ in range(rings - 1):
        nxt = set()
        for t in frontier:
            for nb in mesh.triangle_adjacency[t]:
                nb = int(nb)
                if nb not in region and (allowed is None or allowed[nb]):
                    nxt.add(nb)
        if not nxt:
            break
        region |= nxt
        frontier = nxt
    return region


def _flood(mesh: SurfaceMesh, seeds, allowed, barrier_edges) -> set:
    """Grow over edge-adjacent triangles without crossing barrier edges.

    `allowed` is a bool mask over triangles; `barrier_edges` a set of edge ids.
    """
    region = set()
    stack = sorted(int(t) for t in seeds if allowed[int(t)])
    while stack:
        t = stack.pop()
        if t in region:
            continue
        region.add(t)
        tri = mesh.triangles[t]
        for j in range(3):
            eid = mesh.edge_id(int(tri[j]), int(tri[(j + 1) % 3]))
            if eid in barrier_edges:
                continue
            nb = int(mesh.triangle_adjacency[t, j])
            if allowed[nb] and nb not in region:
                stack.append(nb)
    return region


def _boundary_vertex_set(graph: LabelingGraph) -> set:
    out = set()
    for b in graph.boundaries:
        out.update(b.vertices)
    return out


def _chart_contour_loops(graph: LabelingGraph, chart_id: int) -> list:
    """Contour(s) of a chart as directed loops [(v, w, edge, boundary), ...],
    each edge oriented so the chart lies on its left."""
    outgoing = {}  # v -> list of (w, eid, bid)
    for bid in graph.charts[chart_id].boundaries:
        b = graph.boundaries[bid]
        verts = b.vertices + ((b.vertices[0],) if b.cyclic else ())
        for k, eid in enumerate(b.edge_ids):
            a, w = verts[k], verts[k + 1]
            if b.left_chart != chart_id:
                a, w = w, a  # flip so the chart is on the left
            outgoing.setdefault(a, []).append((w, eid, b.index))
    for lst in outgoing.values():
        lst.sort(key=lambda x: x[1])

    loops, used = [], set()
    for start in sorted(outgoing):
        for (w0, e0, b0) in outgoing[start]:
            if e0 in used:
                continue
            loop = [(start, w0, e0, b0)]
            used.add(e0)
            v = w0
            while v != start:
                nxt = next((x for x in outgoing[v] if x[1] not in used), None)
                if nxt is None:  # open contour fragment: inconsistent graph
                    break
                used.add(nxt[1])
                loop.append((v,) + nxt)
                v = nxt[0]
            loops.append(loop)
    return loops


def is_feature_surrounded(graph: LabelingGraph, chart_id: int) -> bool:
    """True when every contour edge of the chart is a sharp feature edge."""
    mesh = graph.mesh
    edges = [e for bid in graph.charts[chart_id].boundaries
             for e in graph.boundaries[bid].edge_ids]
    if not edges:
        return False
    return all(mesh.is_feature_edge(*mesh.edges[e]) for e in edges)


def trace_path(
    mesh: SurfaceMesh,
    start: int,
    direction,
    stop_vertices,
    forbidden_edges=frozenset(),
    feature_only: bool = False,
    tp_vertices=frozenset(),
    through_edges=frozenset(),
    corner_vertices=frozenset(),
) -> TracedPath:
    """Greedy vertex walk along `direction`.

    At each vertex the outgoing mesh edge with the highest dot product to the
    goal direction is taken (no immediate backtracking, no revisits, no
    forbidden edges; only feature edges when `feature_only`). Stops on a
    vertex of `stop_vertices` (hit-boundary), on a turning-point vertex, or
    after one mesh-edge-count worth of steps. Edges in `through_edges`
    (typically chart-boundary polylines the path may travel along) do not
    trigger the stop-vertex check, but `corner_vertices` always stop.
    """
    direction = _unit(np.asarray(direction, dtype=np.float64))
    verts, eids = [start], []
    cur, seen = start, {start}
    for _ in range(mesh.n_edges):
        best = None
        for nbr in mesh.vertex_neighbors_ordered(cur):
            if nbr in seen:
                continue
            eid = mesh.edge_id(cur, nbr)
            if eid in forbidden_edges:
                continue
            if feature_only and not mesh.is_feature_edge(cur, nbr):
                continue
            d = float(np.dot(_unit(mesh.vertices[nbr] - mesh.vertices[cur]), direction))
            if best is None or d > best[0] + 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr, eid)
        if best is None:
            return TracedPath(tuple(verts), tuple(eids), "max-steps")
        _, cur, eid = best
        verts.append(cur)
        eids.append(eid)
        seen.add(cur)
        if cur in tp_vertices:
            return TracedPath(tuple(verts), tuple(eids), "hit-turning-point")
        if cur in corner_vertices:
            return TracedPath(tuple(verts), tuple(eids), "hit-boundary")
        if cur in stop_vertices and eid not in through_edges:
            return TracedPath(tuple(verts), tuple(eids), "hit-boundary")
    return TracedPath(tuple(verts), tuple(eids), "max-steps")


# ---------------------------------------------------------------------------
# adopted operators
# ---------------------------------------------------------------------------


def remove_chart(mesh: SurfaceMesh, labels, graph: LabelingGraph, chart_id: int) -> OperatorOutcome:
    """Dissolve a chart by re-solving its triangles over the neighbors' labels."""
    labels = np.asarray(labels, dtype=np.int64)
    chart = graph.charts[chart_id]
    if not chart.neighbors:  # constant labeling: nothing to absorb into
        return _skip(labels)
    allowed_labels = sorted({graph.charts[n].label for n in chart.neighbors})
    allowed = np.zeros(6, dtype=bool)
    allowed[allowed_labels] = True
    out = restricted_relabel(mesh, labels, chart.triangles, allowed=allowed)
    return _outcome(labels, out)


def fix_invalid_boundary(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, boundary_id: int, width: int = 3
) -> OperatorOutcome:
    """Insert a strip chart along a same-axis boundary, separating its charts."""
    labels = np.asarray(labels, dtype=np.int64)
    b = graph.boundaries[boundary_id]
    if b.axis is not None:  # orthogonal boundary: nothing to fix
        return _skip(labels)
    side_charts = (b.left_chart, b.right_chart)
    allowed = np.isin(graph.chart_of, side_charts)
    seeds = set()
    for eid in b.edge_ids:
        seeds.update(int(t) for t in mesh.edge_tris[eid])
    region = _ring_grow(mesh, seeds, width, allowed)
    shared_axis = graph.charts[b.left_chart].label >> 1
    candidates = [l for l in range(6) if l >> 1 != shared_axis]
    label = _best_label(_average_normal(mesh, region), candidates)
    out = labels.copy()
    out[sorted(region)] = label
    return _outcome(labels, out)


def fix_invalid_corner(
    mesh: SurfaceMesh,
    labels,
    graph: LabelingGraph,
    corner_id: int,
    radius: int = 3,
    rule: str = "improved",
) -> OperatorOutcome:
    """Bury an invalid corner under a small disk chart with a fresh axis.

    The disk is the widest one of at most `radius` triangle rings around the
    corner that stays inside the charts incident to it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    corner = graph.corners[corner_id]
    if corner_is_valid(corner, rule)[0]:
        return _skip(labels)
    v = corner.vertex
    star = [int(t) for t in mesh.vertex_triangles(v)]
    incident_charts = sorted({int(graph.chart_of[t]) for t in star})
    allowed = np.isin(graph.chart_of, incident_charts)
    for r in range(max(radius, 1), 0, -1):
        region = _ring_grow(mesh, star, r)
        if all(allowed[t] for t in region):
            break  # at r = 1 the disk is the vertex star, which always fits
    used_axes = {graph.charts[c].label >> 1 for c in incident_charts}
    candidates = [l for l in range(6) if l >> 1 not in used_axes]
    if not candidates:
        return _skip(labels)
    label = _best_label(_average_normal(mesh, region), candidates)
    out = labels.copy()
    out[sorted(region)] = label
    return _outcome(labels, out)


# ---------------------------------------------------------------------------
# newer operators
# ---------------------------------------------------------------------------


def increase_chart_valence(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, chart_id: int
) -> OperatorOutcome:
    """Give a low-valence feature-bounded chart one more neighbor.

    Finds the contour vertex v where two same-axis contour edges meet at an
    acute angle, locates equilibrium split points on the two polyedges that
    leave v, traces two paths into the surrounding chart(s) along the axis of
    the target chart's label, and relabels the triangles caught between the
    paths to a fresh-axis label, creating a new chart adjacent to the target.
    """
    labels = np.asarray(labels, dtype=np.int64)
    chart = graph.charts[chart_id]
    loops = _chart_contour_loops(graph, chart_id)
    pts = mesh.vertices

    # v: most acute same-axis contour vertex
    best = None  # (−dot, vertex, loop idx, position)
    for li, loop in enumerate(loops):
        n = len(loop)
        if loop[-1][1] != loop[0][0]:
            continue  # open fragment, cannot treat cyclically
        for k in range(n):
            (u, v, e_in, b_in) = loop[k - 1]
            (_, w, e_out, b_out) = loop[k]
            ax_in = graph.boundaries[b_in].axis
            ax_out = graph.boundaries[b_out].axis
            if ax_in is None or ax_in != ax_out:
                continue
            d1 = _unit(pts[u] - pts[v])
            d2 = _unit(pts[w] - pts[v])
            dot = float(np.dot(d1, d2))
            if dot <= 0.0:  # not acute
                continue
            key = (-dot, v)
            if best is None or key < best[0]:
                best = (key, v, li, k, d1, d2)
    if best is None:
        return _skip(labels)
    _, v, li, k, d1, d2 = best
    loop = loops[li]
    n = len(loop)

    # axis to distribute along the contour: most aligned with both edges at v
    scores = [abs(np.dot(d1, AXIS_DIRECTIONS[a])) + abs(np.dot(d2, AXIS_DIRECTIONS[a])) for a in range(3)]
    new_axis = int(np.argmax(scores))

    corner_set = set(graph.corner_at)

    def polyedge_dirs(step):
        """Contour edges leaving v in the +-1 loop direction, until a corner."""
        out = []
        prev = v
        idx = k if step == 1 else (k - 1) % n
        for _ in range(n):
            a, b_, eid, bid = loop[idx]
            tail = b_ if step == 1 else a
            out.append((eid, _unit(pts[tail] - pts[prev]), tail, bid))
            if tail in corner_set and tail != v:
                break
            prev = tail
            idx = (idx + step) % n
        return out

    def axis_costs(poly):
        """Per-edge angles to the distributed axis and to the current one."""
        ax_cur = graph.boundaries[poly[0][3]].axis if poly else None
        cn, cc = [], []
        for _, d, _, _ in poly:
            cn.append(math.acos(min(1.0, abs(float(np.dot(d, AXIS_DIRECTIONS[new_axis]))))))
            if ax_cur is None:
                cc.append(cn[-1])
            else:
                cc.append(math.acos(min(1.0, abs(float(np.dot(d, AXIS_DIRECTIONS[ax_cur]))))))
        return cn, cc

    def equilibrium(cn, cc):
        """Split index minimizing new-axis cost before + current-axis cost after."""
        best_s, best_total = 0, None
        for s in range(len(cn) + 1):
            total = sum(cn[:s]) + sum(cc[s:])
            if best_total is None or total < best_total - 1e-12:
                best_s, best_total = s, total
        return best_s

    poly_o = polyedge_dirs(+1)
    poly_s = polyedge_dirs(-1)
    cn_o, cc_o = axis_costs(poly_o)
    cn_s, cc_s = axis_costs(poly_s)
    s_o = equilibrium(cn_o, cc_o)
    s_s = equilibrium(cn_s, cc_s)
    # a corner must land on v itself: one equilibrium stays at v, the other
    # gives the far end of the new contour segment
    if s_o != 0 and s_s != 0:
        if s_o <= s_s:
            s_o = 0
        else:
            s_s = 0
    elif s_o == 0 and s_s == 0:
        # flat cost profile: force a minimal one-edge segment where the
        # reassignment is cheapest
        loss_o = (cn_o[0] - cc_o[0]) if poly_o else None
        loss_s = (cn_s[0] - cc_s[0]) if poly_s else None
        if loss_o is None and loss_s is None:
            return _skip(labels)
        if loss_s is None or (loss_o is not None and loss_o <= loss_s):
            s_o = 1
        else:
            s_s = 1

    far_poly, far_s = (poly_o, s_o) if s_o > 0 else (poly_s, s_s)
    o_far = far_poly[far_s - 1][2]
    # seeds: base-chart side of the contour segment that turns into the new
    # boundary (between v and the far equilibrium point)
    seeds = []
    for eid, _, _, _ in far_poly[:far_s]:
        ta, tb = (int(x) for x in mesh.edge_tris[eid])
        seeds.append(tb if int(graph.chart_of[ta]) == chart_id else ta)
    base_charts = sorted({int(graph.chart_of[t]) for t in seeds})
    allowed = np.isin(graph.chart_of, base_charts)

    # trace the two cutting paths along the chart-label axis
    chart_axis = chart.label >> 1
    axis_vec = AXIS_DIRECTIONS[chart_axis]
    align = 0.0
    for nbr in mesh.vertex_neighbors_ordered(v):
        align += float(np.dot(_unit(pts[nbr] - pts[v]), axis_vec))
    direction = axis_vec if align >= 0 else -axis_vec

    contour_edges = {e for _, _, e, _ in loop}
    stop = _boundary_vertex_set(graph)
    tp_set = frozenset(graph.turning_point_vertices())
    boundary_edges = frozenset(e for b in graph.boundaries for e in b.edge_ids)
    paths = []
    for o in (v, o_far):
        p = trace_path(
            mesh, o, direction, stop_vertices=stop,
            forbidden_edges=frozenset(contour_edges), tp_vertices=tp_set,
            through_edges=boundary_edges, corner_vertices=frozenset(graph.corner_at),
        )
        if len(p.edges) == 0:
            return _skip(labels)
        paths.append(p)

    # region: flood the base chart between the two paths
    barrier = set(paths[0].edges) | set(paths[1].edges) | contour_edges
    region = _flood(mesh, seeds, allowed, barrier)
    if not region or len(region) == int(allowed.sum()):
        return _skip(labels)  # paths failed to pinch off a proper subregion

    forbidden_axes = {chart_axis} | {int(labels[t]) >> 1 for t in region}
    candidates = [l for l in range(6) if l >> 1 not in forbidden_axes]
    if not candidates:
        return _skip(labels)
    label = _best_label(_average_normal(mesh, sorted(region)), candidates)
    out = labels.copy()
    out[sorted(region)] = label
    return _outcome(labels, out)


def join_turning_points_pair(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, t1: int, t2: int
) -> OperatorOutcome:
    """Bond two turning-points with a new chart along their lost feature path."""
    labels = np.asarray(labels, dtype=np.int64)
    if t1 == t2:
        return _skip(labels)
    tp_set = graph.turning_point_vertices()
    if t1 not in tp_set or t2 not in tp_set:
        return _skip(labels)

    # lost feature edges: sharp but with equal labels on both sides
    lost_at = {}
    for (a, b) in sorted(mesh.feature_edges):
        eid = mesh.edge_id(a, b)
        ta, tb = mesh.edge_tris[eid]
        if labels[ta] == labels[tb]:
            lost_at.setdefault(a, []).append((b, eid))
            lost_at.setdefault(b, []).append((a, eid))

    # shortest lost-feature path t1 -> t2 (BFS, deterministic neighbor order)
    prev = {t1: None}
    queue = [t1]
    while queue:
        nxt = []
        for u in queue:
            for (w, eid) in sorted(lost_at.get(u, ())):
                if w not in prev:
                    prev[w] = (u, eid)
                    nxt.append(w)
        if t2 in prev:
            break
        queue = sorted(nxt)
    if t2 not in prev:
        return _skip(labels)
    path_vertices, path_edges = [t2], []
    u = t2
    while prev[u] is not None:
        u, eid = prev[u]
        path_vertices.append(u)
        path_edges.append(eid)
    path_vertices.reverse()
    path_edges.reverse()

    # facets left/right of the directed path t1 -> t2
    left, right = set(), set()
    for a, b in zip(path_vertices, path_vertices[1:]):
        tl, tr = mesh.edge_sides(a, b)
        left.add(tl)
        right.add(tr)

    around = {int(labels[t]) for t in mesh.vertex_triangles(t1)}
    around |= {int(labels[t]) for t in mesh.vertex_triangles(t2)}
    candidates = [l for l in range(6) if l not in around]
    if not candidates:
        return _skip(labels)
    label = _best_label(_average_normal(mesh, sorted(left | right)), candidates)

    def side_fidelity(side):
        n = mesh.normals[sorted(side)]
        return float(np.mean(n @ LABEL_DIRECTIONS[label]))

    side = left if side_fidelity(left) >= side_fidelity(right) - 1e-12 else right
    # extend to the adjacent facets on the same side of the crease
    chart_ids = sorted({int(graph.chart_of[t]) for t in side})
    allowed = np.isin(graph.chart_of, chart_ids)
    region = _flood(mesh, side, allowed, set(path_edges))
    if len(region) == int(allowed.sum()):
        region = set(side)  # flood leaked around the path; keep the thin strip
    out = labels.copy()
    out[sorted(region)] = label
    return _outcome(labels, out)


def _locate_turning_point(graph: LabelingGraph, vertex: int):
    for b in graph.boundaries:
        for pos in b.turning_points:
            if b.vertices[pos] == vertex:
                return b, pos
    return None, None


def _corner_angle(mesh: SurfaceMesh, t: int, v: int) -> float:
    tri = mesh.triangles[t]
    j = int(np.nonzero(tri == v)[0][0])
    p = mesh.vertices[v]
    a = _unit(mesh.vertices[tri[(j + 1) % 3]] - p)
    b = _unit(mesh.vertices[tri[(j + 2) % 3]] - p)
    return float(math.acos(np.clip(np.dot(a, b), -1.0, 1.0)))


def pull_closest_corner(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, turning_point: int
) -> OperatorOutcome:
    """Relocate the nearest corner of a boundary onto one of its turning-points.

    The boundary next to the corner on the side the turning-point pokes into
    is re-traced from the turning-point, and the wedge of triangles between
    the old and new position is relabeled to the chart across it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    b, pos = _locate_turning_point(graph, turning_point)
    if b is None or b.cyclic:
        return _skip(labels)
    tp = turning_point

    # nearest endpoint corner along the path
    n_edges = b.n_edges
    c = b.vertices[0] if pos <= n_edges - pos else b.vertices[-1]
    toward_start = pos <= n_edges - pos
    seg_edges = b.edge_ids[:pos] if toward_start else b.edge_ids[pos:]
    if not seg_edges:
        return _skip(labels)

    # which side does the turning-point lean into: the chart with the smaller
    # angular sector at the tp vertex (the side the V pokes into)
    sums = {}
    for t in mesh.vertex_triangles(tp):
        cid = int(graph.chart_of[t])
        sums[cid] = sums.get(cid, 0.0) + _corner_angle(mesh, t, tp)
    side_candidates = {b.left_chart, b.right_chart}
    wedge_chart = min(
        (cid for cid in sums if cid in side_candidates),
        key=lambda cid: (sums[cid], cid),
    )

    # B_s: next boundary around corner c bordering the wedge chart
    corner = graph.corners[graph.corner_at[c]]
    bs = None
    for bid in corner.boundaries:
        cand = graph.boundaries[bid]
        if cand.index == b.index:
            continue
        if wedge_chart in (cand.left_chart, cand.right_chart):
            bs = cand
            break
    if bs is None:
        return _skip(labels)
    other_chart = bs.right_chart if bs.left_chart == wedge_chart else bs.left_chart

    # direction of B_s leaving the corner
    if bs.vertices[0] == c:
        nxt = bs.vertices[1]
    elif bs.vertices[-1] == c:
        nxt = bs.vertices[-2]
    else:
        return _skip(labels)
    direction = _unit(mesh.vertices[nxt] - mesh.vertices[c])

    stop = _boundary_vertex_set(graph) - set(
        b.vertices[1:-1]
    )  # passing along b itself must not stop the trace
    path = trace_path(
        mesh, tp, direction,
        stop_vertices=stop,
        forbidden_edges=frozenset(b.edge_ids),
        feature_only=mesh.is_feature_vertex(tp),
    )
    if path.reason == "max-steps":
        return _skip(labels)

    allowed = graph.chart_of == wedge_chart
    seeds = set()
    for eid in seg_edges:
        for t in mesh.edge_tris[eid]:
            if allowed[int(t)]:
                seeds.add(int(t))
    region = _flood(mesh, seeds, allowed, set(path.edges))
    if not region or len(region) == int(allowed.sum()):
        return _skip(labels)
    out = labels.copy()
    out[sorted(region)] = graph.charts[other_chart].label
    return _outcome(labels, out)


def move_boundary_near_turning_point(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, turning_point: int, radius: int = 3
) -> OperatorOutcome:
    """Push the better-anchored side's label over the other around a smooth
    turning-point; the larger sum of triangle corner angles at the vertex wins."""
    labels = np.asarray(labels, dtype=np.int64)
    b, pos = _locate_turning_point(graph, turning_point)
    if b is None:
        return _skip(labels)
    tp = turning_point
    if mesh.is_feature_vertex(tp):
        return _skip(labels)  # feature turning-points belong to pull_closest_corner

    angle_sum = {b.left_label: 0.0, b.right_label: 0.0}
    for t in mesh.vertex_triangles(tp):
        l = int(labels[t])
        if l in angle_sum:
            angle_sum[l] += _corner_angle(mesh, t, tp)
    winner = min(angle_sum, key=lambda l: (-angle_sum[l], l))
    loser = b.right_label if winner == b.left_label else b.left_label
    loser_chart = b.left_chart if graph.charts[b.left_chart].label == loser else b.right_chart

    allowed = graph.chart_of == loser_chart
    seeds = [t for t in mesh.vertex_triangles(tp) if allowed[int(t)]]
    region = _ring_grow(mesh, seeds, radius, allowed)
    if not region:
        return _skip(labels)
    out = labels.copy()
    out[sorted(region)] = winner
    return _outcome(labels, out)


def straighten_boundary(
    mesh: SurfaceMesh, labels, graph: LabelingGraph, boundary_id: int
) -> OperatorOutcome:
    """Re-draw a boundary as a greedy shortest walk between its two corners,
    re-splitting the two adjacent charts along the new path."""
    labels = np.asarray(labels, dtype=np.int64)
    b = graph.boundaries[boundary_id]
    if b.cyclic:
        return _skip(labels)
    if any(mesh.is_feature_edge(*mesh.edges[e]) for e in b.edge_ids):
        return _skip(labels)  # feature boundaries keep their path
    c_start, c_end = b.vertices[0], b.vertices[-1]
    union = np.isin(graph.chart_of, (b.left_chart, b.right_chart))

    def edge_inside(a, w):
        eid = mesh.edge_id(a, w)
        t1, t2 = mesh.edge_tris[eid]
        return union[int(t1)] and union[int(t2)]

    goal = mesh.vertices[c_end]
    verts, eids = [c_start], []
    cur, seen = c_start, {c_start}
    ok = False
    for _ in range(mesh.n_edges):
        best = None
        for nbr in mesh.vertex_neighbors_ordered(cur):
            if nbr in seen or not edge_inside(cur, nbr):
                continue
            d = float(np.linalg.norm(mesh.vertices[nbr] - goal))
            if best is None or d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr)
        if best is None:
            break
        cur = best[1]
        eids.append(mesh.edge_id(verts[-1], cur))
        verts.append(cur)
        seen.add(cur)
        if cur == c_end:
            ok = True
            break
    if not ok or len(eids) > b.n_edges or tuple(eids) == b.edge_ids:
        return _skip(labels)

    # re-split the two charts along the new path: everything reachable from
    # the left side of the new path keeps the left label
    left_seeds = {mesh.edge_sides(a, w)[0] for a, w in zip(verts, verts[1:])}
    region_left = _flood(mesh, left_seeds, union, set(eids))
    if len(region_left) == int(union.sum()):
        return _skip(labels)  # new path failed to separate the union
    out = labels.copy()
    out[union] = graph.charts[b.right_chart].label
    out[sorted(region_left)] = graph.charts[b.left_chart].label
    return _outcome(labels, out)
