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
