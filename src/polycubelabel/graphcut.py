"""Mesh-agnostic discrete optimizers: s-t max-flow / min-cut (Dinic) and
multi-label energy minimization by alpha-expansion.

Graph construction and energies are numpy. Only the Dinic augmenting loop is
compiled, with numba when available (set POLYCUBELABEL_NO_NUMBA=1 to force
the pure-python loop; results are identical, just slower). Capacities are
float64; disallowed assignments are encoded as BIG rather than inf so
residual arithmetic never produces NaN.
"""

from __future__ import annotations

import os

import numpy as np

try:
    if os.environ.get("POLYCUBELABEL_NO_NUMBA"):
        raise ImportError("numba disabled by environment")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


BIG = 1e18
_EPS = 1e-12


@njit(cache=True)
def _dinic(n_nodes, head, nxt, to, cap, s, t):
    """Max flow on a paired-arc graph; mutates cap to the residual.

    Returns the source side of the minimum cut: the nodes the final
    breadth-first search reaches from s through arcs with residual capacity.
    """
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


def _paired_arcs(n_nodes, tails, heads, caps):
    """Paired-arc adjacency lists of the arcs tails[k] -> heads[k].

    Arc 2k carries caps[k] and arc 2k + 1 is its zero-capacity reverse, so
    ``e ^ 1`` is the partner of arc e. Each node's list starts at its
    last-added arc, as if the arcs were pushed one at a time; a stable sort
    of the arc origins yields that order. Returns (head, nxt, to, cap).
    """
    m = len(tails)
    order = np.argsort(np.stack((tails, heads), axis=1).ravel(), kind="stable")
    counts = np.bincount(tails, minlength=n_nodes) + np.bincount(heads, minlength=n_nodes)
    ends = np.cumsum(counts)
    has = counts > 0
    # in sorted order each arc links to the one before it, except the first
    # of its node; a node's head is the last of its group
    nxt = np.empty(2 * m, dtype=np.int64)
    nxt[order[1:]] = order[:-1]
    nxt[order[ends[has] - counts[has]]] = -1
    head = np.full(n_nodes, -1, dtype=np.int64)
    head[has] = order[ends[has] - 1]
    to = np.stack((heads, tails), axis=1).ravel()
    cap = np.stack((caps, np.zeros(m)), axis=1).ravel()
    return head, nxt, to, cap


def min_st_cut(n_nodes, edges, capacities, s, t):
    """Minimum s-t cut of a directed graph.

    Returns ``(cut_value, source_side)`` where ``source_side`` is a bool
    array over nodes; the value is recomputed from the partition so it is
    an exact sum of the given capacities.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    capacities = np.ascontiguousarray(capacities, dtype=np.float64)
    arcs = _paired_arcs(n_nodes, edges[:, 0], edges[:, 1], capacities)
    side = _dinic(n_nodes, *arcs, s, t)
    value = float(capacities[side[edges[:, 0]] & ~side[edges[:, 1]]].sum())
    return value, side


def _potts_energy(costs, pairs, weights, labels):
    terms = np.concatenate((
        costs[np.arange(len(labels)), labels],
        weights[labels[pairs[:, 0]] != labels[pairs[:, 1]]],
    ))
    # the running total adds left to right like a plain loop; np.sum adds
    # pairwise and can differ in the last bits
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def _expansion_move(costs, pairs, weights, cur, alpha):
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

    side = _dinic(n + 2, *_paired_arcs(
        n + 2,
        arcs((np.full(n, s), nodes), (u, np.where(up, s, u), v)),
        arcs((nodes, np.full(n, t)), (v, np.where(up, u, t), np.full_like(v, t))),
        arcs((costs[nodes, alpha], costs[nodes, cur]), (b + c - a, np.abs(c - a), c)),
    ), s, t)
    return ~side[:n]


def potts_energy(costs, pairs, weights, labels) -> float:
    """Sum of data costs plus pair weights across label discontinuities."""
    costs = np.minimum(np.ascontiguousarray(costs, dtype=np.float64), BIG)
    pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    return _potts_energy(costs, pairs, weights, labels)


def alpha_expansion(costs, pairs, weights, init=None, max_sweeps=100):
    """Minimize a Potts energy over n_labels labels.

    costs: (n, L) data term (use BIG / inf to forbid an assignment);
    pairs: (m, 2) node pairs; weights: (m,) discontinuity penalties.
    Sweeps the labels in increasing order, accepting strict improvements,
    until a full sweep changes nothing. Returns (labels, energy).
    """
    costs = np.minimum(np.ascontiguousarray(costs, dtype=np.float64), BIG)
    pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n, n_labels = costs.shape
    if init is None:
        cur = np.argmin(costs, axis=1).astype(np.int64)
    else:
        cur = np.ascontiguousarray(init, dtype=np.int64).copy()
    energy = _potts_energy(costs, pairs, weights, cur)
    for _ in range(max_sweeps):
        improved = False
        for alpha in range(n_labels):
            switch = _expansion_move(costs, pairs, weights, cur, alpha)
            if not switch.any():
                continue
            cand = np.where(switch, alpha, cur)
            cand_energy = _potts_energy(costs, pairs, weights, cand)
            if cand_energy < energy - 1e-9:
                cur, energy = cand, cand_energy
                improved = True
        if not improved:
            break
    return cur, energy
