"""Independent references the tests compare against.

Everything here is deliberately written the slow, obvious way (full
enumeration, or the per-element Python loops the package first used) so it
cannot share a bug with the production code.
"""

import itertools
import math
from collections import deque

import numpy as np

from polycubelabel.graph import (_SIGN_TOL, Boundary, Chart, Corner, LabelingGraph,
                                 _flip_positions, discontinuity_edges, optimal_edge_directions)
from polycubelabel import graphcut
from polycubelabel.graphcut import (_EPS, _MAX_SWEEPS, BIG, _dinic, _paired_arcs,
                                    _potts_energy)
from polycubelabel.io import FileFormatError
from polycubelabel.labeling import (LABEL_COLORS, LABEL_DIRECTIONS, CutEnergy, checked_labels,
                                    data_costs, restricted_relabel, smoothness_weights)
from polycubelabel.mesh import (MeshError, NonManifoldEdgeError, NonTriangleFaceError,
                               OpenSurfaceError, SurfaceMesh)
from polycubelabel.operators import (AXIS_DIRECTIONS, DISK_RADIUS, STRIP_WIDTH, OperatorOutcome,
                                     _barrier_region, _chart_contour_loops, _closest_label,
                                     _corner_angle, _fresh_label, _grow, _target, _unit,
                                     trace_path)
from polycubelabel.validity import _REFLEX_TOL, ValidityReport, ValidityRules, corner_is_valid


def random_cut_instance(rng, max_nodes=10):
    n = int(rng.integers(3, max_nodes + 1))
    m = int(rng.integers(n, 3 * n))
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]])
    caps = rng.uniform(0.1, 5.0, size=len(edges))
    return n, edges, caps, 0, n - 1


def brute_force_min_cut(n, edges, caps, s, t):
    """Try every s/t partition of the nodes; 2^(n-2) subsets."""
    best = np.inf
    others = [i for i in range(n) if i not in (s, t)]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            cut = caps[[(u in side) and (v not in side) for u, v in edges]].sum()
            best = min(best, float(cut))
    return best


def smallest_min_cut_source_side(n, edges, caps, s, t):
    """The minimum s-t cut source set with the fewest nodes, by trying every
    partition; the minimum cut source sets are closed under intersection, so
    this set is unique. Returns a bool array over nodes."""
    best = None
    others = [i for i in range(n) if i not in (s, t)]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            cut = float(caps[[(u in side) and (v not in side) for u, v in edges]].sum())
            if best is None or cut < best[0] or (cut == best[0] and len(side) < len(best[1])):
                best = (cut, side)
    return np.isin(np.arange(n), sorted(best[1]))


def push_arcs_one_by_one(n_nodes, tails, heads, caps):
    """Paired-arc lists built one arc at a time: arc 2k = tails[k] -> heads[k]
    with caps[k], arc 2k + 1 its zero reverse, each new arc put at the front
    of its origin's list. Returns (head, nxt, to, cap)."""
    m = len(tails)
    head = np.full(n_nodes, -1, dtype=np.int64)
    nxt = np.empty(2 * m, dtype=np.int64)
    to = np.empty(2 * m, dtype=np.int64)
    cap = np.empty(2 * m, dtype=np.float64)
    for k in range(m):
        for e, (u, v, c) in ((2 * k, (tails[k], heads[k], caps[k])),
                             (2 * k + 1, (heads[k], tails[k], 0.0))):
            to[e] = v
            cap[e] = c
            nxt[e] = head[u]
            head[u] = e
    return head, nxt, to, cap


def reference_dinic(n_nodes, head, nxt, to, cap, s, t):
    """Max flow by Dinic's algorithm over linked arc lists, scanning every
    arc in each breadth-first pass and each augmenting search; mutates cap
    to the residual and returns the bool source side of the minimum cut."""
    level = np.empty(n_nodes, dtype=np.int64)
    iters = np.empty(n_nodes, dtype=np.int64)
    queue = np.empty(n_nodes, dtype=np.int64)
    path = np.empty(n_nodes + 1, dtype=np.int64)
    while True:
        for i in range(n_nodes):
            level[i] = -1
        level[s] = 0
        queue[0] = s
        qh, qt = 0, 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            e = head[u]
            while e != -1:
                v = to[e]
                if cap[e] > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue[qt] = v
                    qt += 1
                e = nxt[e]
        if level[t] < 0:
            return level >= 0
        for i in range(n_nodes):
            iters[i] = head[i]
        u = s
        plen = 0
        while True:
            if u == t:
                bottleneck = 1e300
                for k in range(plen):
                    if cap[path[k]] < bottleneck:
                        bottleneck = cap[path[k]]
                for k in range(plen):
                    cap[path[k]] -= bottleneck
                    cap[path[k] ^ 1] += bottleneck
                u = s
                plen = 0
                continue
            e = iters[u]
            while e != -1:
                v = to[e]
                if cap[e] > _EPS and level[v] == level[u] + 1:
                    break
                e = nxt[e]
            iters[u] = e
            if e == -1:
                level[u] = -1  # dead end in this phase
                if plen == 0:
                    break
                plen -= 1
                u = s if plen == 0 else to[path[plen - 1]]
                iters[u] = nxt[iters[u]]
            else:
                path[plen] = e
                plen += 1
                u = to[e]


def random_potts_instance(rng, max_nodes=8, n_labels=6):
    n = int(rng.integers(2, max_nodes + 1))
    costs = rng.uniform(0, 3, size=(n, n_labels))
    m = int(rng.integers(1, n * (n - 1) // 2 + 2))
    pairs = rng.integers(0, n, size=(m, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs) == 0:
        pairs = np.array([[0, min(1, n - 1)]])
    weights = rng.uniform(0.1, 2.0, size=len(pairs))
    return costs, pairs, weights


def brute_force_potts(costs, pairs, weights):
    """Optimal Potts energy over all n_labels^n assignments (vectorized)."""
    n, n_labels = costs.shape
    idx = np.arange(n_labels ** n)
    total = np.zeros(len(idx))
    cols = []
    for i in range(n):
        col = (idx // n_labels ** i) % n_labels
        cols.append(col.astype(np.int8))
        total += costs[i, col]
    for k in range(len(pairs)):
        total += weights[k] * (cols[pairs[k][0]] != cols[pairs[k][1]])
    return float(total.min())


def direction_cost(assign, signs, mu, cyclic):
    c = sum((1.0 - x * s) / 2.0 for x, s in zip(assign, signs))
    c += mu * sum(assign[i] != assign[i - 1] for i in range(1, len(assign)))
    if cyclic and len(assign) > 1 and assign[0] != assign[-1]:
        c += mu
    return c


def brute_force_directions(signs, mu, cyclic):
    """Min direction-assignment cost over all 2^n sign patterns."""
    return min(
        direction_cost(assign, signs, mu, cyclic)
        for assign in itertools.product((1, -1), repeat=len(signs))
    )


def reference_edge_directions(signs, mu=1.0, cyclic=False):
    """Best +-1 direction per boundary edge, by the DP that
    ``graph.optimal_edge_directions`` first used: per-step dicts of sorted
    option tuples. Its two-state recurrence must match this exactly.

    ``signs`` holds each edge's measured sign (+1/-1, or 0 when the edge is
    perpendicular to the boundary axis). Mismatching a nonzero sign costs 1,
    a zero sign costs 1/2 either way, and each direction flip between
    consecutive edges costs ``mu``. Exact DP; ties prefer +1 and fewer flips.
    Returns (directions, cost).
    """
    n = len(signs)
    if n == 0:
        return (), 0.0

    def unary(s, x):
        return (1.0 - x * s) / 2.0

    best = None
    for forced in ((1, -1) if cyclic else (None,)):
        states = (1, -1)
        cost = {}
        for x in states:
            if forced is not None and x != forced:
                cost[x] = float("inf")
            else:
                cost[x] = unary(signs[0], x)
        back = []
        for i in range(1, n):
            nxt, bk = {}, {}
            for x in states:
                # prefer no flip, then +1, on exact ties
                options = sorted(
                    (cost[y] + (0.0 if x == y else mu), 0 if y == x else 1, -y)
                    for y in states
                )
                nxt[x] = options[0][0] + unary(signs[i], x)
                bk[x] = -options[0][2]
            cost = nxt
            back.append(bk)
        if cyclic and forced is not None:
            for x in states:
                cost[x] += 0.0 if x == forced else mu
        end = 1 if cost[1] <= cost[-1] else -1
        total = cost[end]
        dirs = [end]
        for bk in reversed(back):
            dirs.append(bk[dirs[-1]])
        dirs.reverse()
        if best is None or total < best[1] - 1e-12:
            best = (tuple(dirs), total)
    return best


def flood_fill_charts(mesh, labels):
    """Charts by breadth-first flood fill over same-label neighbour
    triangles, seeded in triangle order so charts come out numbered by their
    smallest triangle. Returns (chart_of, chart labels, sorted triangle
    lists)."""
    chart_of = [-1] * mesh.n_triangles
    members = []
    for seed in range(mesh.n_triangles):
        if chart_of[seed] >= 0:
            continue
        chart_of[seed] = len(members)
        found, queue = [seed], deque([seed])
        while queue:
            t = queue.popleft()
            for nb in mesh.triangle_adjacency[t].tolist():
                if chart_of[nb] < 0 and labels[nb] == labels[t]:
                    chart_of[nb] = chart_of[seed]
                    found.append(nb)
                    queue.append(nb)
        members.append(sorted(found))
    return chart_of, [int(labels[tris[0]]) for tris in members], members


class DictMesh:
    """Mesh connectivity the way ``SurfaceMesh`` first built it: a Python
    dict keyed by vertex pairs, filled by one loop over the triangle corners.
    Areas, normals, dihedral angles and feature edges follow the same
    formulas, through ``np.cross`` and ``np.linalg.norm``;
    geometry errors are not checked."""

    def __init__(self, vertices, triangles, feature_edges=None, feature_angle=math.pi / 4):
        self.vertices = np.array(vertices, dtype=np.float64)
        self.triangles = np.array(triangles, dtype=np.int64)
        self.feature_angle = float(feature_angle)
        v, t = self.vertices, self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        double_area = np.linalg.norm(cross, axis=1)
        self.areas = double_area / 2.0
        self.normals = cross / double_area[:, None]
        self._build_edge_table()
        self._compute_dihedrals()
        self._assign_feature_edges(feature_edges)

        # vertex -> incident triangles, in triangle order (fan order on demand)
        vertex_tris = [[] for _ in range(len(v))]
        for ti, tri in enumerate(t):
            for vi in tri:
                vertex_tris[vi].append(ti)
        self._vertex_tris = [tuple(lst) for lst in vertex_tris]

    def _build_edge_table(self):
        t = self.triangles
        incidence = {}  # (a, b) a < b -> list of (triangle, local edge, is_forward)
        for ti in range(len(t)):
            for j in range(3):
                a, b = int(t[ti, j]), int(t[ti, (j + 1) % 3])
                key = (a, b) if a < b else (b, a)
                lst = incidence.setdefault(key, [])
                lst.append((ti, j, a < b))
                if len(lst) > 2:
                    raise NonManifoldEdgeError(key)
        for key, lst in incidence.items():
            if len(lst) != 2:
                raise OpenSurfaceError(key)
            if lst[0][2] == lst[1][2]:
                raise MeshError(f"inconsistent triangle orientation at edge {key}")

        keys = sorted(incidence)
        self.edges = np.array(keys, dtype=np.int64).reshape(-1, 2)
        self.edge_index = {key: i for i, key in enumerate(keys)}

        edge_tris = np.empty((len(keys), 2), dtype=np.int64)
        adjacency = np.empty_like(t)
        for i, key in enumerate(keys):
            (ta, ja, fwd_a), (tb, jb, _) = incidence[key]
            if not fwd_a:
                (ta, ja), (tb, jb) = (tb, jb), (ta, ja)
            edge_tris[i] = (ta, tb)
            adjacency[ta, ja] = tb
            adjacency[tb, jb] = ta
        self.edge_tris = edge_tris
        self.triangle_adjacency = adjacency

    def _compute_dihedrals(self):
        n1 = self.normals[self.edge_tris[:, 0]]
        n2 = self.normals[self.edge_tris[:, 1]]
        e = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        e /= np.linalg.norm(e, axis=1)[:, None]
        cross = np.cross(n1, n2)
        alpha = np.arctan2(np.linalg.norm(cross, axis=1), np.einsum("ij,ij->i", n1, n2))
        sign = np.where(np.einsum("ij,ij->i", cross, e) >= 0.0, 1.0, -1.0)
        self.dihedral_angles = np.pi - sign * alpha

    def _assign_feature_edges(self, supplied):
        deviation = np.abs(self.dihedral_angles - np.pi)
        if supplied is None:
            sharp = np.nonzero(deviation >= self.feature_angle)[0]
            self.feature_edges = frozenset(
                (int(self.edges[i, 0]), int(self.edges[i, 1])) for i in sharp
            )
            self.ignored_feature_edges = frozenset()
            return
        active, ignored = [], []
        for pair in supplied:
            a, b = int(pair[0]), int(pair[1])
            key = (a, b) if a < b else (b, a)
            if key not in self.edge_index:
                raise MeshError(f"feature edge {key} is not a mesh edge")
            (active if deviation[self.edge_index[key]] >= self.feature_angle else ignored).append(key)
        self.feature_edges = frozenset(active)
        self.ignored_feature_edges = frozenset(ignored)

    def edge_id(self, a, b):
        key = (a, b) if a < b else (b, a)
        try:
            return self.edge_index[key]
        except KeyError:
            raise MeshError(f"no edge {key} in mesh") from None

    def vertex_triangles(self, v) -> tuple:
        return self._vertex_tris[v]


def ring_grow(mesh, seeds, rings: int, allowed=None) -> set:
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


def flood(mesh, seeds, allowed, barrier_edges) -> set:
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


def reference_vertex_ring(mesh, v) -> list:
    """(neighbor, edge id) around vertex `v` of a DictMesh, in fan order from
    v's lowest triangle: the edge v -> w of each triangle leads into the
    triangle that holds w -> v."""
    star = [[int(x) for x in mesh.triangles[t]] for t in mesh.vertex_triangles(v)]
    after = {tri[(tri.index(v) + 2) % 3]: tri for tri in star}  # w -> the triangle holding w -> v
    ring, tri = [], star[0]
    for _ in star:
        w = tri[(tri.index(v) + 1) % 3]
        ring.append((w, mesh.edge_id(v, w)))
        tri = after[w]
    assert tri == star[0], "the fan does not close"
    return ring


# -- file I/O: the per-line readers and writers the package first used ------------


def _reference_fmt(x: float) -> str:
    return "%.17g" % x


_REFERENCE_MEDIT_SKIP = {
    "edges": 3,
    "corners": 1,
    "ridges": 1,
    "requiredvertices": 1,
    "normals": 3,
    "tangents": 3,
}


def reference_read_obj(path):
    verts, tris = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                try:
                    verts.append((float(parts[1]), float(parts[2]), float(parts[3])))
                except (IndexError, ValueError):
                    raise FileFormatError(f"{path}:{lineno}: malformed vertex line") from None
            elif tag == "f":
                refs = parts[1:]
                if len(refs) != 3:
                    raise NonTriangleFaceError(
                        f"{path}:{lineno}: face with {len(refs)} vertices; only triangles are supported"
                    )
                try:
                    idx = [int(ref.split("/")[0]) for ref in refs]
                except ValueError:
                    raise FileFormatError(f"{path}:{lineno}: malformed face line") from None
                # OBJ is 1-based, and a negative index counts back from the
                # last vertex read; 0 becomes -1, which the range check rejects
                tris.append(tuple(i - 1 if i > 0 else len(verts) + i if i else -1 for i in idx))
            # vn/vt/usemtl/o/g/s/mtllib are irrelevant here
    if not tris:
        raise FileFormatError(f"{path}: no faces found")
    tris = np.array(tris, dtype=np.int64)
    bad = np.nonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))[0]
    if bad.size:
        raise FileFormatError(
            f"{path}:{_reference_nth_face_line(path, bad[0])}: face vertex index out of range "
            f"for {len(verts)} vertices"
        )
    return np.array(verts, dtype=np.float64), tris


def _reference_nth_face_line(path, k):
    """Line number of face k (0-based) of an OBJ file."""
    with open(path) as fh:
        lines = (n for n, line in enumerate(fh, 1) if line.split()[:1] == ["f"])
        return next(itertools.islice(lines, k, None))


def reference_write_obj(path, verts, tris):
    with open(path, "w") as fh:
        for p in np.asarray(verts, dtype=np.float64):
            fh.write(f"v {_reference_fmt(p[0])} {_reference_fmt(p[1])} {_reference_fmt(p[2])}\n")
        for a, b, c in np.asarray(tris, dtype=np.int64):
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def reference_read_medit(path):
    toks = []
    with open(path) as fh:
        for line in fh:
            toks.extend(line.split("#", 1)[0].split())
    pos = 0

    def take(n=1, kind=None):
        """The next n tokens, converted by ``kind`` when given."""
        nonlocal pos
        if n < 0:
            raise FileFormatError(f"{path}: negative count")
        if pos + n > len(toks):
            raise FileFormatError(f"{path}: truncated file")
        out = toks[pos : pos + n]
        if kind is not None:
            try:
                out = list(map(kind, out))
            except ValueError as exc:
                raise FileFormatError(f"{path}: {exc}") from None
        pos += n
        return out

    verts = tris = None
    dim = 3
    while pos < len(toks):
        key = take()[0].lower()
        if key == "meshversionformatted":
            take()
        elif key == "dimension":
            dim = take(1, int)[0]
            if dim != 3:
                raise FileFormatError(f"{path}: dimension {dim} not supported")
        elif key == "vertices":
            n = take(1, int)[0]
            flat = take(n * (dim + 1), float)
            verts = np.array(flat, dtype=np.float64).reshape(n, dim + 1)[:, :dim]
        elif key == "triangles":
            n = take(1, int)[0]
            flat = take(n * 4, int)
            tris = np.array(flat, dtype=np.int64).reshape(n, 4)[:, :3] - 1  # 1-based
        elif key in ("quadrilaterals", "tetrahedra", "hexahedra"):
            raise NonTriangleFaceError(f"{path}: contains {key}; only triangle surfaces are supported")
        elif key in _REFERENCE_MEDIT_SKIP:
            take(take(1, int)[0] * _REFERENCE_MEDIT_SKIP[key])
        elif key == "end":
            break
        else:
            raise FileFormatError(f"{path}: unknown keyword {key!r}")
    if verts is None or tris is None:
        raise FileFormatError(f"{path}: missing Vertices or Triangles section")
    bad = np.nonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))[0]
    if bad.size:
        k = bad[0]
        raise FileFormatError(
            f"{path}: triangle {k + 1} has a vertex index outside 1..{len(verts)}: "
            f"{' '.join(str(i + 1) for i in tris[k].tolist())}"
        )
    return verts, tris


def reference_write_medit(path, verts, tris):
    verts = np.asarray(verts, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("MeshVersionFormatted 2\nDimension 3\n")
        fh.write(f"Vertices\n{len(verts)}\n")
        for p in verts:
            fh.write(f"{_reference_fmt(p[0])} {_reference_fmt(p[1])} {_reference_fmt(p[2])} 0\n")
        fh.write(f"Triangles\n{len(tris)}\n")
        for a, b, c in tris:
            fh.write(f"{a + 1} {b + 1} {c + 1} 0\n")
        fh.write("End\n")


def reference_read_labeling(path, n_triangles=None):
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if not 0 <= v <= 5:
                raise FileFormatError(f"{path}:{lineno}: label {v} outside 0..5")
            labels.append(v)
    if n_triangles is not None and len(labels) != n_triangles:
        raise FileFormatError(
            f"{path}: {len(labels)} labels for {n_triangles} triangles"
        )
    return np.array(labels, dtype=np.int64)


def reference_write_labeling(path, labels):
    with open(path, "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def reference_write_ply(path, mesh: SurfaceMesh, labels):
    """Ascii PLY with one RGB color per face according to its label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (mesh.n_triangles,):
        raise FileFormatError("labeling length does not match mesh")
    with open(path, "w") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {mesh.n_vertices}\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"element face {mesh.n_triangles}\n"
            "property list uchar int vertex_indices\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        for p in mesh.vertices:
            fh.write(f"{_reference_fmt(p[0])} {_reference_fmt(p[1])} {_reference_fmt(p[2])}\n")
        for t, (a, b, c) in enumerate(mesh.triangles):
            r, g, bl = LABEL_COLORS[labels[t]]
            fh.write(f"3 {a} {b} {c} {r} {g} {bl}\n")


def reference_torus(R=2.0, r=1.0, nu=16, nv=8):
    verts = np.empty((nu * nv, 3))
    for i in range(nu):
        th = 2 * math.pi * i / nu
        for j in range(nv):
            ph = 2 * math.pi * j / nv
            verts[i * nv + j] = (
                (R + r * math.cos(ph)) * math.cos(th),
                (R + r * math.cos(ph)) * math.sin(th),
                r * math.sin(ph),
            )
    tris = []
    for i in range(nu):
        for j in range(nv):
            v00 = i * nv + j
            v10 = ((i + 1) % nu) * nv + j
            v01 = i * nv + (j + 1) % nv
            v11 = ((i + 1) % nu) * nv + (j + 1) % nv
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.array(tris, dtype=np.int64)


def reference_subdivide(verts, tris, levels=1):
    """Midpoint 1-to-4 subdivision, ``levels`` times."""
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris, dtype=np.int64)
    for _ in range(levels):
        points = list(verts)
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                midpoint[key] = len(points)
                points.append((verts[a] + verts[b]) / 2.0)
            return midpoint[key]

        out = []
        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        verts = np.array(points)
        tris = np.array(out, dtype=np.int64)
    return verts, tris


def reference_expansion_move(costs, pairs, weights, cur, alpha):
    """One alpha-expansion move; returns the bool array of switched nodes.

    Binary variable x_i: 0 keeps cur[i] (source side), 1 takes alpha (sink
    side). Pairwise Potts terms are decomposed as
    E = A + (C-A) x_u + (D-C) x_v + (B+C-A-D)(1-x_u) x_v with
    A = E(0,0), B = E(0,1), C = E(1,0), D = E(1,1) = 0.
    """
    n = costs.shape[0]
    s, t = n, n + 1
    nodes = np.arange(n)
    u, v = pairs[:, 0], pairs[:, 1]
    a = np.where(cur[u] != cur[v], weights, 0.0)
    b = np.where(cur[u] != alpha, weights, 0.0)
    c = np.where(cur[v] != alpha, weights, 0.0)
    up = c > a
    keep = np.stack((b + c - a > 0.0, c != a, c > 0.0), axis=1)

    def arcs(per_node, per_pair):
        # per node [s->i, i->t]: s->i is cut when i switches, i->t when it
        # stays; then per pair the candidates [u->v, s->u | u->t, v->t],
        # kept where their capacity is positive
        return np.concatenate((np.stack(per_node, axis=1).ravel(),
                               np.stack(per_pair, axis=1)[keep]))

    side = _dinic(*_paired_arcs(
        n + 2,
        arcs((np.full(n, s), nodes), (u, np.where(up, s, u), v)),
        arcs((nodes, np.full(n, t)), (v, np.where(up, u, t), np.full_like(v, t))),
        arcs((costs[nodes, alpha], costs[nodes, cur]), (b + c - a, np.abs(c - a), c)),
    ), s, t)
    return ~side[:n]


def net_arc_expansion_move(costs, pairs, weights, cur, alpha):
    """One alpha-expansion move; returns the bool array of switched nodes.

    Binary variable x_i: 0 keeps cur[i] (source side), 1 takes alpha (sink
    side). Pairwise Potts terms are decomposed as
    E = A + (C-A) x_u + (D-C) x_v + (B+C-A-D)(1-x_u) x_v with
    A = E(0,0), B = E(0,1), C = E(1,0), D = E(1,1) = 0.

    Each node's terminal capacities are summed first: s_cap, of s->i, cut
    when the node switches, and t_cap, of i->t, cut when it stays. Their
    common part is pushed at once, leaving at most one terminal arc per
    node; that lowers every cut by the same constant, so the minimum cuts
    do not change.
    """
    n = costs.shape[0]
    s, t = n, n + 1
    nodes = np.arange(n)
    u, v = pairs[:, 0], pairs[:, 1]
    a = np.where(cur[u] != cur[v], weights, 0.0)
    b = np.where(cur[u] != alpha, weights, 0.0)
    c = np.where(cur[v] != alpha, weights, 0.0)
    # a pair's (C-A) x_u goes to s->u when positive, else to u->t, and its
    # (D-C) x_v to v->t up to a constant
    s_cap = costs[nodes, alpha] + np.bincount(u, np.maximum(c - a, 0.0), n)
    t_cap = costs[nodes, cur] + np.bincount(np.concatenate((u, v)),
                                            np.concatenate((np.maximum(a - c, 0.0), c)), n)
    pushed = np.minimum(s_cap, t_cap)
    s_cap -= pushed
    t_cap -= pushed
    from_s, into_t = np.flatnonzero(s_cap > 0.0), np.flatnonzero(t_cap > 0.0)
    across = b + c - a
    pos = across > 0.0
    side = _dinic(*_paired_arcs(
        n + 2,
        np.concatenate((np.full(len(from_s), s), into_t, u[pos])),
        np.concatenate((from_s, np.full(len(into_t), t), v[pos])),
        np.concatenate((s_cap[from_s], t_cap[into_t], across[pos])),
    ), s, t)
    return ~side[:n]


def reference_alpha_expansion(costs, pairs, weights, init=None):
    """alpha_expansion's loop with no move skipped: every label's move in
    every sweep, through `graphcut._expansion_move` (looked up at each call,
    so a spy sees these moves too). Takes checked input only."""
    costs = np.minimum(np.asarray(costs, dtype=np.float64), BIG)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    cur = (np.argmin(costs, axis=1) if init is None else np.asarray(init)).astype(np.int64)
    energy = _potts_energy(costs, pairs, weights, cur)
    for _ in range(_MAX_SWEEPS):
        improved = False
        for alpha in range(costs.shape[1]):
            switch = graphcut._expansion_move(costs, pairs, weights, cur, alpha)
            if not np.any(switch & (cur != alpha)):
                continue
            cand = np.where(switch, alpha, cur)
            cand_energy = _potts_energy(costs, pairs, weights, cand)
            if cand_energy < energy - 1e-9:
                cur, energy = cand, cand_energy
                improved = True
        if not improved:
            break
    return cur, energy


def reference_restricted_relabel(mesh, labels, region, allowed=None, energy=CutEnergy()):
    """restricted_relabel with every region solved by a cut, one-label
    regions too; the cut is `graphcut.alpha_expansion`, looked up at each
    call, so a spy or a patch sees it."""
    n = mesh.n_triangles
    labels = checked_labels(labels, n)
    region = np.asarray(sorted(region) if isinstance(region, (set, frozenset)) else region)
    if region.dtype == bool:
        if region.shape != (n,):
            raise ValueError(f"region mask of length {region.size} for {n} triangles")
        mask = region.copy()
    else:
        ids = region.ravel()
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError(f"region id {ids[0]} is not a triangle id")
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        if bad.size:
            raise ValueError(f"region id {ids[bad[0]]} outside 0..{n - 1}")
        mask = np.zeros(n, dtype=bool)
        mask[ids.astype(np.int64)] = True
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return labels
    pos = np.full(n, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)

    costs = data_costs(mesh.normals[idx], energy)
    if allowed is not None:
        allowed = np.broadcast_to(np.asarray(allowed, dtype=bool), costs.shape)
        empty = np.flatnonzero(~allowed.any(axis=1))
        if empty.size:
            raise ValueError(f"allowed leaves free triangle {idx[empty[0]]} no label")
        costs = np.where(allowed, costs, BIG)

    w_all = smoothness_weights(mesh, energy)
    t1, t2 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    both = mask[t1] & mask[t2]
    pairs = np.column_stack([pos[t1[both]], pos[t2[both]]])
    weights = w_all[both]
    for inner, outer in ((t1, t2), (t2, t1)):
        half = mask[inner] & ~mask[outer]
        rows = pos[inner[half]]
        np.add.at(costs, rows, w_all[half, None])
        np.subtract.at(costs, (rows, labels[outer[half]]), w_all[half])

    init = labels[idx].copy()
    stuck = costs[np.arange(idx.size), init] >= BIG
    init[stuck] = np.argmin(costs[stuck], axis=1)
    labels[idx], _ = graphcut.alpha_expansion(costs, pairs, weights, init=init)
    return labels


def reference_fix_invalid_corner(graph, corner_id, radius=DISK_RADIUS, rules=ValidityRules()):
    """fix_invalid_corner growing its disk at every invalid corner, also where
    the incident charts leave no fresh axis and the paint then skips."""
    mesh, labels = graph.mesh, graph.labels
    corner = _target(graph.corners, corner_id, "corner")
    if corner_is_valid(corner, rules)[0]:
        return _skip(labels)
    star = mesh.vertex_triangles(corner.vertex)
    incident_charts = sorted({int(graph.chart_of[t]) for t in star})
    allowed = np.isin(graph.chart_of, incident_charts)
    for r in range(max(radius, 1), 0, -1):
        region = np.flatnonzero(_grow(mesh, star, rings=r))
        if allowed[region].all():
            break  # at r = 1 the disk is the vertex star, which always fits
    used_axes = set((graph.chart_label[incident_charts] >> 1).tolist())
    return _paint(labels, region, _fresh_label(mesh, region, used_axes))


def reference_straighten_boundary(graph, boundary_id):
    """straighten_boundary with its first greedy walk: the union test per
    candidate edge and the distance to the goal by `np.linalg.norm`."""
    mesh, labels = graph.mesh, graph.labels
    b = _target(graph.boundaries, boundary_id, "boundary")
    if b.cyclic:
        return _skip(labels)
    if mesh.feature_edge_mask[list(b.edge_ids)].any():
        return _skip(labels)
    c_start, c_end = b.vertices[0], b.vertices[-1]
    union = np.isin(graph.chart_of, (b.left_chart, b.right_chart))
    goal = mesh.vertices[c_end]
    verts, eids = [c_start], []
    cur, seen = c_start, {c_start}
    ok = False
    for _ in range(mesh.n_edges):
        best = None
        for nbr, eid in mesh.vertex_ring(cur):
            if nbr in seen or not union[mesh.edge_tris[eid]].all():
                continue
            d = float(np.linalg.norm(mesh.vertices[nbr] - goal))
            if best is None or d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr, eid)
        if best is None:
            break
        _, cur, eid = best
        eids.append(eid)
        verts.append(cur)
        seen.add(cur)
        if cur == c_end:
            ok = True
            break
    if not ok or len(eids) > b.n_edges or tuple(eids) == b.edge_ids:
        return _skip(labels)
    left_seeds = {mesh.edge_sides(a, w)[0] for a, w in zip(verts, verts[1:])}
    region_left = sorted(flood(mesh, left_seeds, union, set(eids)))
    if len(region_left) == int(union.sum()):
        return _skip(labels)
    out = labels.copy()
    out[union] = graph.charts[b.right_chart].label
    out[region_left] = graph.charts[b.left_chart].label
    return _outcome(labels, out)


def reference_join_turning_points_pair(graph, t1, t2):
    """join_turning_points_pair with its first neighbor lookup, a dict of
    every lost feature edge of the mesh built on each call, and its first
    path read-back, the path's vertices in order."""
    mesh, labels = graph.mesh, graph.labels
    if t1 == t2 or t1 not in graph.turning_point_at or t2 not in graph.turning_point_at:
        return _skip(labels)

    # lost feature edges: sharp but with equal labels on both sides
    feature = np.nonzero(mesh.feature_edge_mask)[0]
    ta, tb = mesh.edge_tris[feature].T
    lost_at = {}
    for eid in feature[labels[ta] == labels[tb]].tolist():
        a, b = mesh.edges[eid].tolist()
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
    label = _closest_label(mesh, sorted(left | right), [l for l in range(6) if l not in around])
    if label is None:
        return _skip(labels)

    def side_fidelity(side):
        n = mesh.normals[sorted(side)]
        return float(np.mean(n @ LABEL_DIRECTIONS[label]))

    side = left if side_fidelity(left) >= side_fidelity(right) - 1e-12 else right
    # extend to the adjacent facets on the same side of the crease
    allowed = np.isin(graph.chart_of, graph.chart_of[sorted(side)])
    region = sorted(flood(mesh, side, allowed, set(path_edges)))
    if len(region) == int(allowed.sum()):
        region = sorted(side)  # flood leaked around the path; keep the thin strip
    return _paint(labels, region, label)


# -- the operators as they built their outcomes before the one outcome step -------
#
# Each copied the labels at every exit (`_skip`), painted into a copy of its
# own (`_paint`), and found what changed by a diff over every triangle
# (`_outcome`); the reference_* operators above build their outcomes the
# same way.


def _skip(labels):
    return OperatorOutcome(np.array(labels, dtype=np.int64), frozenset())


def _outcome(labels_in, labels_out):
    changed = frozenset(int(i) for i in np.nonzero(labels_in != labels_out)[0])
    if not changed:
        return _skip(labels_in)
    return OperatorOutcome(labels_out, changed)


def _paint(labels, region, label):
    """The labeling with `region` relabeled to `label`; not applied when
    `label` is None or nothing changed."""
    if label is None:
        return _skip(labels)
    out = labels.copy()
    out[region] = label
    return _outcome(labels, out)


def copying_remove_chart(graph: LabelingGraph, chart_id: int,
                         energy: CutEnergy = CutEnergy()) -> OperatorOutcome:
    """Dissolve a chart by re-solving its triangles over the neighbors' labels."""
    labels = graph.labels
    chart = _target(graph.charts, chart_id, "chart")
    if not chart.neighbors:  # constant labeling: nothing to absorb into
        return _skip(labels)
    allowed = np.zeros(6, dtype=bool)
    allowed[graph.chart_label[list(chart.neighbors)]] = True
    region = np.zeros(graph.mesh.n_triangles, dtype=bool)
    region[chart.triangles] = True
    out = restricted_relabel(graph.mesh, labels, region, allowed=allowed, energy=energy)
    return _outcome(labels, out)


def copying_fix_invalid_boundary(
    graph: LabelingGraph, boundary_id: int, width: int = STRIP_WIDTH
) -> OperatorOutcome:
    """Insert a strip chart along a same-axis boundary, separating its charts."""
    mesh, labels = graph.mesh, graph.labels
    b = _target(graph.boundaries, boundary_id, "boundary")
    if b.axis is not None:  # orthogonal boundary: nothing to fix
        return _skip(labels)
    allowed = np.isin(graph.chart_of, (b.left_chart, b.right_chart))
    region = np.flatnonzero(_grow(mesh, mesh.edge_tris[list(b.edge_ids)].ravel(), allowed,
                                  rings=width))
    shared_axis = b.left_label >> 1
    return _paint(labels, region, _fresh_label(mesh, region, {shared_axis}))


def copying_fix_invalid_corner(graph: LabelingGraph, corner_id: int, radius: int = DISK_RADIUS,
                               rules: ValidityRules = ValidityRules()) -> OperatorOutcome:
    """Bury an invalid corner under a small disk chart with a fresh axis.

    The disk is the widest one of at most `radius` triangle rings around the
    corner that stays inside the charts incident to it. Not applied, before
    any disk is grown, when those charts span all three axes: no fresh axis
    is left for the disk.
    """
    mesh, labels = graph.mesh, graph.labels
    corner = _target(graph.corners, corner_id, "corner")
    if corner_is_valid(corner, rules)[0]:
        return _skip(labels)
    star = mesh.vertex_triangles(corner.vertex)
    incident_charts = sorted({int(graph.chart_of[t]) for t in star})
    used_axes = set((graph.chart_label[incident_charts] >> 1).tolist())
    if len(used_axes) == 3:
        return _skip(labels)
    allowed = np.isin(graph.chart_of, incident_charts)
    for r in range(max(radius, 1), 0, -1):
        region = np.flatnonzero(_grow(mesh, star, rings=r))
        if allowed[region].all():
            break  # at r = 1 the disk is the vertex star, which always fits
    return _paint(labels, region, _fresh_label(mesh, region, used_axes))


def copying_increase_chart_valence(graph: LabelingGraph, chart_id: int) -> OperatorOutcome:
    """Give a low-valence feature-bounded chart one more neighbor.

    Finds the contour vertex v where two same-axis contour edges meet at an
    acute angle, locates equilibrium split points on the two polyedges that
    leave v, traces two paths into the surrounding chart(s) along the axis of
    the target chart's label, and relabels the triangles caught between the
    paths to a fresh-axis label, creating a new chart adjacent to the target.
    """
    mesh, labels = graph.mesh, graph.labels
    chart = _target(graph.charts, chart_id, "chart")
    loops = _chart_contour_loops(graph, chart_id)
    pts = mesh.vertices

    # v: most acute same-axis contour vertex
    best = None  # (−dot, vertex, loop idx, position)
    for li, loop in enumerate(loops):
        for k in range(len(loop)):
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
                best = (key, v, li, k, d1, d2, ax_in)
    if best is None:
        return _skip(labels)
    _, v, li, k, d1, d2, ax_cur = best
    loop = loops[li]
    n = len(loop)

    # axis to distribute along the contour: most aligned with both edges at v
    scores = [abs(np.dot(d1, AXIS_DIRECTIONS[a])) + abs(np.dot(d2, AXIS_DIRECTIONS[a])) for a in range(3)]
    new_axis = int(np.argmax(scores))

    def polyedge_dirs(step):
        """Contour edges leaving v in the +-1 loop direction, until a corner."""
        out = []
        prev = v
        idx = k if step == 1 else (k - 1) % n
        for _ in range(n):
            a, b_, eid, bid = loop[idx]
            tail = b_ if step == 1 else a
            out.append((eid, _unit(pts[tail] - pts[prev]), tail, bid))
            if tail in graph.corner_at and tail != v:
                break
            prev = tail
            idx = (idx + step) % n
        return out

    def angles(poly, axis):
        """Per-edge angles of a polyedge to an axis."""
        return [math.acos(min(1.0, abs(float(np.dot(d, AXIS_DIRECTIONS[axis])))))
                for _, d, _, _ in poly]

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
    # costs of the distributed axis and of the current one, the axis of both
    # boundaries at v
    cn_o, cc_o = angles(poly_o, new_axis), angles(poly_o, ax_cur)
    cn_s, cc_s = angles(poly_s, new_axis), angles(poly_s, ax_cur)
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
        # reassignment is cheapest (each polyedge has at least one edge)
        if cn_o[0] - cc_o[0] <= cn_s[0] - cc_s[0]:
            s_o = 1
        else:
            s_s = 1

    far_poly, far_s = (poly_o, s_o) if s_o > 0 else (poly_s, s_s)
    o_far = far_poly[far_s - 1][2]
    # seeds: base-chart side of the contour segment that turns into the new
    # boundary (between v and the far equilibrium point)
    sides = mesh.edge_tris[[eid for eid, _, _, _ in far_poly[:far_s]]]
    seeds = sides[graph.chart_of[sides] != chart_id]
    allowed = np.isin(graph.chart_of, graph.chart_of[seeds])

    # trace the two cutting paths along the chart-label axis
    chart_axis = chart.label >> 1
    axis_vec = AXIS_DIRECTIONS[chart_axis]
    align = 0.0
    for nbr, _ in mesh.vertex_ring(v):
        align += float(np.dot(_unit(pts[nbr] - pts[v]), axis_vec))
    direction = axis_vec if align >= 0 else -axis_vec

    contour_edges = {e for _, _, e, _ in loop}
    barrier = set(contour_edges)
    for o in (v, o_far):
        p = trace_path(graph, o, direction, graph.boundary_vertex_mask,
                       forbidden_edges=contour_edges, tp_vertices=graph.turning_point_at)
        if not p.edges:
            return _skip(labels)
        barrier |= set(p.edges)

    # region: flood the base chart between the two paths
    region = np.flatnonzero(_barrier_region(mesh, seeds, allowed, barrier))
    if len(region) == int(allowed.sum()):
        return _skip(labels)  # paths failed to pinch off a proper subregion
    forbidden_axes = {chart_axis} | {int(labels[t]) >> 1 for t in region}
    return _paint(labels, region, _fresh_label(mesh, region, forbidden_axes))


def copying_join_turning_points_pair(graph: LabelingGraph, t1: int, t2: int) -> OperatorOutcome:
    """Bond two turning-points with a new chart along their lost feature path."""
    mesh, labels = graph.mesh, graph.labels
    if t1 == t2 or t1 not in graph.turning_point_at or t2 not in graph.turning_point_at:
        return _skip(labels)

    # shortest path t1 -> t2 over lost feature edges, sharp but with equal
    # labels on both sides (BFS, deterministic neighbor order)
    lost = mesh.feature_edge_mask & ~graph.boundary_edge_mask
    prev = {t1: None}
    queue = [t1]
    while queue:
        nxt = []
        for u in queue:
            for w, eid in sorted(mesh.vertex_ring(u)):
                if lost[eid] and w not in prev:
                    prev[w] = (u, eid)
                    nxt.append(w)
        if t2 in prev:
            break
        queue = sorted(nxt)
    if t2 not in prev:
        return _skip(labels)
    # facets left/right of the path, each edge directed from t1 toward t2
    sides, path_edges, w = [], [], t2
    while prev[w] is not None:
        u, eid = prev[w]
        sides.append(mesh.edge_sides(u, w))
        path_edges.append(eid)
        w = u
    left, right = map(set, zip(*sides))

    around = {int(labels[t]) for v in (t1, t2) for t in mesh.vertex_triangles(v)}
    label = _closest_label(mesh, sorted(left | right), [l for l in range(6) if l not in around])
    if label is None:
        return _skip(labels)

    def side_fidelity(side):
        n = mesh.normals[sorted(side)]
        return float(np.mean(n @ LABEL_DIRECTIONS[label]))

    side = left if side_fidelity(left) >= side_fidelity(right) - 1e-12 else right
    # extend to the adjacent facets on the same side of the crease
    allowed = np.isin(graph.chart_of, graph.chart_of[sorted(side)])
    region = np.flatnonzero(_barrier_region(mesh, side, allowed, path_edges))
    if len(region) == int(allowed.sum()):
        region = sorted(side)  # flood leaked around the path; keep the thin strip
    return _paint(labels, region, label)


def copying_pull_closest_corner(graph: LabelingGraph, turning_point: int) -> OperatorOutcome:
    """Relocate the nearest corner of a boundary onto one of its turning-points.

    The boundary next to the corner on the side the turning-point pokes into
    is re-traced from the turning-point, and the wedge of triangles between
    the old and new position is relabeled to the chart across it.
    """
    mesh, labels = graph.mesh, graph.labels
    if turning_point not in graph.turning_point_at:
        return _skip(labels)
    bid, pos = graph.turning_point_at[turning_point]
    b, tp = graph.boundaries[bid], turning_point
    if b.cyclic:
        return _skip(labels)

    # nearest endpoint corner along the path; a turning point is an interior
    # vertex of its boundary, so the segment has at least one edge
    toward_start = pos <= b.n_edges - pos
    c = b.vertices[0] if toward_start else b.vertices[-1]
    seg_edges = b.edge_ids[:pos] if toward_start else b.edge_ids[pos:]

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

    # direction of B_s leaving the corner, which is one of its ends
    nxt = bs.vertices[1] if bs.vertices[0] == c else bs.vertices[-2]
    direction = _unit(mesh.vertices[nxt] - mesh.vertices[c])

    stop = graph.boundary_vertex_mask.copy()
    stop[list(b.vertices[1:-1])] = False  # passing along b itself must not stop the trace
    path = trace_path(graph, tp, direction, stop, forbidden_edges=frozenset(b.edge_ids),
                      feature_only=mesh.is_feature_vertex(tp))
    if path.reason == "max-steps":
        return _skip(labels)

    allowed = graph.chart_of == wedge_chart
    region = np.flatnonzero(
        _barrier_region(mesh, mesh.edge_tris[list(seg_edges)].ravel(), allowed, path.edges))
    if len(region) == int(allowed.sum()):
        return _skip(labels)
    return _paint(labels, region, int(graph.chart_label[other_chart]))


def copying_move_boundary_near_turning_point(
    graph: LabelingGraph, turning_point: int, radius: int = DISK_RADIUS
) -> OperatorOutcome:
    """Push the better-anchored side's label over the other around a smooth
    turning-point; the larger sum of triangle corner angles at the vertex wins."""
    mesh, labels = graph.mesh, graph.labels
    if turning_point not in graph.turning_point_at:
        return _skip(labels)
    b = graph.boundaries[graph.turning_point_at[turning_point][0]]
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
    loser_chart = b.left_chart if b.left_label == loser else b.right_chart

    allowed = graph.chart_of == loser_chart
    region = np.flatnonzero(_grow(mesh, mesh.vertex_triangles(tp), allowed, rings=radius))
    return _paint(labels, region, winner)


def copying_straighten_boundary(graph: LabelingGraph, boundary_id: int) -> OperatorOutcome:
    """Re-draw a boundary as a greedy shortest walk between its two corners,
    re-splitting the two adjacent charts along the new path."""
    mesh, labels = graph.mesh, graph.labels
    b = _target(graph.boundaries, boundary_id, "boundary")
    if b.cyclic:
        return _skip(labels)
    if mesh.feature_edge_mask[list(b.edge_ids)].any():
        return _skip(labels)  # feature boundaries keep their path
    c_start, c_end = b.vertices[0], b.vertices[-1]
    union = (graph.chart_of == b.left_chart) | (graph.chart_of == b.right_chart)
    t1, t2 = mesh.edge_tris.T
    inside = union[t1] & union[t2]  # the edges with both triangles in the union
    points = mesh.vertices
    gx, gy, gz = points[c_end].tolist()
    verts, eids = [c_start], []
    cur, seen = c_start, {c_start}
    ok = False
    for _ in range(mesh.n_edges):
        best = None
        nbrs, ring = mesh._ring(cur)
        for nbr, eid, free, (x, y, z) in zip(nbrs.tolist(), ring.tolist(), inside[ring].tolist(),
                                             points[nbrs].tolist()):
            if nbr in seen or not free:
                continue
            dx, dy, dz = x - gx, y - gy, z - gz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if best is None or d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and nbr < best[1]):
                best = (d, nbr, eid)
        if best is None:
            break
        _, cur, eid = best
        eids.append(eid)
        verts.append(cur)
        seen.add(cur)
        if cur == c_end:
            ok = True
            break
    if not ok or len(eids) > b.n_edges or tuple(eids) == b.edge_ids:
        return _skip(labels)

    # re-split the two charts along the new path: everything reachable from
    # the left side of the new path keeps the left label; an edge's first
    # triangle is on its left when it is walked from its smaller vertex
    path = np.array(eids)
    sides = mesh.edge_tris[path]
    left_seeds = np.where(mesh.edges[path, 0] == verts[:-1], sides[:, 0], sides[:, 1])
    region_left = np.flatnonzero(_barrier_region(mesh, left_seeds, union, eids))
    if len(region_left) == int(union.sum()):
        return _skip(labels)  # new path failed to separate the union
    out = labels.copy()
    out[union] = b.right_label
    out[region_left] = b.left_label
    return _outcome(labels, out)


# -- the labeling graph, built by walking each boundary edge by edge ----------------


class ReferenceLabelingGraph:
    """Charts / boundaries / corners of one labeling of one mesh.

    Parameters
    ----------
    mesh : SurfaceMesh
    labels : (F,) int array, values 0..5
    """

    def __init__(self, mesh: SurfaceMesh, labels):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (mesh.n_triangles,):
            raise ValueError("labeling length does not match mesh")
        if labels.size and (labels.min() < 0 or labels.max() > 5):
            raise ValueError("labels must be in 0..5")
        self.mesh = mesh
        self.labels = labels.copy()
        self.labels.flags.writeable = False

        self._build_charts()
        self._walk_boundaries()
        self._collect_corners()
        self._assign_directions()

    # -- charts -----------------------------------------------------------

    def _build_charts(self):
        mesh, labels = self.mesh, self.labels
        same = labels[mesh.edge_tris[:, 0]] == labels[mesh.edge_tris[:, 1]]
        a, b = mesh.edge_tris[same].T
        # min-label propagation between the roots of both ends of each
        # same-label edge, then pointer jumping; roots only ever point to
        # smaller triangles, so every triangle ends up holding the smallest
        # triangle index of its chart
        root = np.arange(mesh.n_triangles)
        while True:
            ra, rb = root[a], root[b]
            differ = ra != rb
            if not differ.any():
                break
            ra, rb = ra[differ], rb[differ]
            low = np.minimum(ra, rb)
            np.minimum.at(root, ra, low)
            np.minimum.at(root, rb, low)
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped

        firsts, chart_of = np.unique(root, return_inverse=True)
        self.chart_of = chart_of.astype(np.int64)
        members = np.argsort(self.chart_of, kind="stable")
        splits = np.cumsum(np.bincount(self.chart_of, minlength=len(firsts)))[:-1]
        self.charts = [
            Chart(i, int(labels[first]), tris)
            for i, (first, tris) in enumerate(zip(firsts, np.split(members, splits)))
        ]

    # -- boundaries ----------------------------------------------------------

    def _walk_boundaries(self):
        mesh = self.mesh
        on_boundary = np.nonzero(discontinuity_edges(mesh, self.labels))[0]
        edges_at = {}
        for eid in on_boundary:
            a, b = mesh.edges[eid]
            edges_at.setdefault(int(a), []).append(int(eid))
            edges_at.setdefault(int(b), []).append(int(eid))
        for lst in edges_at.values():
            lst.sort()
        self._corner_vertices = {v for v, lst in edges_at.items() if len(lst) >= 3}

        visited = set()
        self.boundaries = []
        self._endpoint_map = {}  # corner vertex -> boundary ids (with multiplicity)

        def record(verts, eids, cyclic):
            # charts left and right of the walk's first edge
            left, right = (int(self.chart_of[t]) for t in mesh.edge_sides(verts[0], verts[1]))
            bid = len(self.boundaries)
            self.boundaries.append(
                Boundary(
                    bid, left, right,
                    int(self.charts[left].label), int(self.charts[right].label),
                    tuple(verts[:-1] if cyclic else verts), tuple(eids), cyclic,
                    self._boundary_axis(self.charts[left].label, self.charts[right].label),
                )
            )
            if not cyclic:
                self._endpoint_map.setdefault(verts[0], []).append(bid)
                self._endpoint_map.setdefault(verts[-1], []).append(bid)

        def walk(v0, e0):
            verts, eids = [v0], []
            v, e = v0, e0
            while True:
                visited.add(e)
                eids.append(e)
                a, b = mesh.edges[e]
                v = int(b) if v == a else int(a)
                verts.append(v)
                if v in self._corner_vertices or v == v0:
                    return verts, eids, v == v0 and v not in self._corner_vertices
                nbr = edges_at[v]
                e = nbr[0] if nbr[1] == e else nbr[1]

        for v in sorted(self._corner_vertices):
            for e in edges_at[v]:
                if e not in visited:
                    record(*walk(v, e))
        for eid in on_boundary:
            eid = int(eid)
            if eid not in visited:
                a, b = (int(x) for x in mesh.edges[eid])
                verts, eids, _ = walk(a, eid)
                record(verts, eids, True)

        # per-chart boundary lists and neighbor sets
        per_chart = [[] for _ in self.charts]
        neighbors = [set() for _ in self.charts]
        for b in self.boundaries:
            per_chart[b.left_chart].append(b.index)
            per_chart[b.right_chart].append(b.index)
            neighbors[b.left_chart].add(b.right_chart)
            neighbors[b.right_chart].add(b.left_chart)
        for c in self.charts:
            c.boundaries = tuple(per_chart[c.index])
            c.neighbors = tuple(sorted(neighbors[c.index]))

    @staticmethod
    def _boundary_axis(l1, l2):
        a1, a2 = l1 >> 1, l2 >> 1
        return None if a1 == a2 else 3 - a1 - a2

    # -- corners ---------------------------------------------------------------

    def _collect_corners(self):
        self.corners = []
        self.corner_at = {}
        for v in sorted(self._corner_vertices):
            bids = tuple(sorted(self._endpoint_map.get(v, ())))
            counts = [0, 0, 0]
            undefined = False
            for bid in bids:
                ax = self.boundaries[bid].axis
                if ax is None:
                    undefined = True
                else:
                    counts[ax] += 1
            self.corner_at[v] = len(self.corners)
            self.corners.append(Corner(v, bids, tuple(counts), undefined))

    # -- turning points ---------------------------------------------------------

    def _assign_directions(self):
        pts = self.mesh.vertices
        for b in self.boundaries:
            if b.axis is None or b.n_edges == 0:
                continue
            verts = b.vertices + ((b.vertices[0],) if b.cyclic else ())
            d = np.diff(pts[list(verts)], axis=0)
            proj = d[:, b.axis] / np.linalg.norm(d, axis=1)
            signs = np.sign(proj).astype(np.int64)
            signs[np.abs(proj) < _SIGN_TOL] = 0
            b.raw_signs = tuple(signs.tolist())
            b.edge_signs, _ = optimal_edge_directions(b.raw_signs, cyclic=b.cyclic)
            b.turning_points = _flip_positions(b.edge_signs, b.cyclic)

    # -- queries -----------------------------------------------------------------

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    @property
    def n_boundaries(self) -> int:
        return len(self.boundaries)

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    @property
    def total_turning_points(self) -> int:
        return sum(len(b.turning_points) for b in self.boundaries)

    def turning_point_vertices(self) -> tuple:
        """Vertices holding a turning point of any boundary, sorted, once each."""
        return tuple(sorted({b.vertices[i] for b in self.boundaries for i in b.turning_points}))

    def boundaries_between(self, c1: int, c2: int) -> list:
        pair = {c1, c2}
        return [b for b in self.boundaries if {b.left_chart, b.right_chart} == pair]

    def chart_label_counts(self) -> np.ndarray:
        out = np.zeros(6, dtype=np.int64)
        for c in self.charts:
            out[c.label] += 1
        return out


# -- validation, one element at a time -----------------------------------------------


def reference_reflex_fraction(mesh, boundary: Boundary) -> float:
    """Fraction of the boundary's edges lying on a reflex (>180 deg) crease."""
    theta = mesh.dihedral_angles[list(boundary.edge_ids)]
    return float(np.mean(theta > math.pi + _REFLEX_TOL))


def reference_chart_is_valid(chart) -> tuple:
    if chart.valence < 4:
        return False, f"valence {chart.valence} < 4"
    return True, ""


def reference_boundary_is_valid(mesh, boundary: Boundary, rules: ValidityRules) -> tuple:
    if boundary.axis is not None:
        return True, ""
    if not rules.allow_opposite_labels:
        return False, "separates two charts of the same axis"
    frac = reference_reflex_fraction(mesh, boundary)
    if frac < rules.min_reflex_fraction:
        return False, (f"same-axis boundary with reflex fraction {frac:.3f}"
                       f" < {rules.min_reflex_fraction:.3f}")
    return True, ""


def reference_corner_is_valid(corner: Corner, rules: ValidityRules) -> tuple:
    if corner.has_undefined_axis:
        return False, "incident to a same-axis boundary (no polycube axis)"
    counts = corner.axis_counts
    if rules.corner_rule == "legacy":
        if counts == (1, 1, 1):
            return True, ""
        return False, f"needs exactly one X, Y and Z boundary, got {counts}"
    if counts == (1, 1, 1):
        return True, ""
    if all(c % 2 == 0 for c in counts) and sum(c > 0 for c in counts) >= 2:
        return True, ""
    return False, f"boundary axes {counts} neither pair up nor form an XYZ trio"


def reference_validate(graph, rules: ValidityRules = ValidityRules()) -> ValidityReport:
    """Check every component of the labeling graph against its rule."""
    report = ValidityReport()
    bad_charts, bad_boundaries, bad_corners = [], [], []
    for chart in graph.charts:
        ok, why = reference_chart_is_valid(chart)
        if not ok:
            bad_charts.append(chart.index)
            report.reasons[("chart", chart.index)] = why
    for boundary in graph.boundaries:
        ok, why = reference_boundary_is_valid(graph.mesh, boundary, rules)
        if not ok:
            bad_boundaries.append(boundary.index)
            report.reasons[("boundary", boundary.index)] = why
    for i, corner in enumerate(graph.corners):
        ok, why = reference_corner_is_valid(corner, rules)
        if not ok:
            bad_corners.append(i)
            report.reasons[("corner", i)] = why
    report.invalid_charts = tuple(bad_charts)
    report.invalid_boundaries = tuple(bad_boundaries)
    report.invalid_corners = tuple(bad_corners)
    return report


# -- connected components --------------------------------------------------------------


def union_find_roots(n, pairs) -> list:
    """The smallest node of each node's component, by a plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]
