"""Independent references the tests compare against.

Everything here is deliberately written the slow, obvious way (full
enumeration, or the per-element Python loops the package first used) so it
cannot share a bug with the production code.
"""

import itertools
import math
from collections import deque

import numpy as np

from polycubelabel.graph import (_SIGN_TOL, Boundary, Chart, Corner, _flip_positions,
                                 discontinuity_edges, optimal_edge_directions)
from polycubelabel.graphcut import _EPS, _dinic, _paired_arcs
from polycubelabel.io import FileFormatError
from polycubelabel.labeling import LABEL_COLORS
from polycubelabel.mesh import (MeshError, NonManifoldEdgeError, NonTriangleFaceError,
                               OpenSurfaceError, SurfaceMesh)


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
    Normals, dihedral angles and feature edges follow the same formulas;
    geometry errors are not checked."""

    def __init__(self, vertices, triangles, feature_edges=None, feature_angle=math.pi / 4):
        self.vertices = np.array(vertices, dtype=np.float64)
        self.triangles = np.array(triangles, dtype=np.int64)
        self.feature_angle = float(feature_angle)
        v, t = self.vertices, self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        self.normals = cross / np.linalg.norm(cross, axis=1)[:, None]
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


# -- the labeling graph, built by walking each boundary edge by edge ----------------


class ReferenceLabelingGraph:
    """Charts / boundaries / corners of one labeling of one mesh.

    Parameters
    ----------
    mesh : SurfaceMesh
    labels : (F,) int array, values 0..5
    turning_point_penalty : float
        Flip penalty mu of the per-boundary direction assignment.
    """

    def __init__(self, mesh: SurfaceMesh, labels, turning_point_penalty: float = 1.0):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (mesh.n_triangles,):
            raise ValueError("labeling length does not match mesh")
        if labels.size and (labels.min() < 0 or labels.max() > 5):
            raise ValueError("labels must be in 0..5")
        self.mesh = mesh
        self.labels = labels.copy()
        self.labels.flags.writeable = False
        self.mu = float(turning_point_penalty)

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
            b.edge_signs, _ = optimal_edge_directions(b.raw_signs, self.mu, b.cyclic)
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
        return tuple(sorted({v for b in self.boundaries for v in b.turning_point_vertices()}))

    def boundaries_between(self, c1: int, c2: int) -> list:
        pair = {c1, c2}
        return [b for b in self.boundaries if {b.left_chart, b.right_chart} == pair]

    def chart_label_counts(self) -> np.ndarray:
        out = np.zeros(6, dtype=np.int64)
        for c in self.charts:
            out[c.label] += 1
        return out
