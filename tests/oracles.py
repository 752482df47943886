"""Independent brute-force references the optimizer tests compare against.

Everything here is deliberately written the slow, obvious way (full
enumeration) so it cannot share a bug with the production code.
"""

import itertools
from collections import deque

import numpy as np


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
