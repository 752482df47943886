"""Mesh-agnostic discrete optimizers: s-t max-flow / min-cut (Dinic) and
multi-label energy minimization by alpha-expansion.

Graph construction, energies and the breadth-first levels of each Dinic
phase are numpy; the augmenting search is plain Python over the arcs that are
admissible when its phase starts and do not lead into a dead end.
Capacities are float64; disallowed assignments are encoded as BIG rather
than inf so residual arithmetic never produces NaN.

An expansion move gives each node one net terminal arc (Kolmogorov & Zabih,
PAMI 2004): the common part of its source and sink capacities is pushed at
once. Every s-t cut then costs the same constant less, so the minimum cuts
and the smallest source side, which the solver returns, do not change.

The filtered search is exact. Within a phase an arc gains capacity only when
its partner carries flow, so it points one level down and never becomes
admissible, and admissible arcs only lose capacity: a node that cannot reach
t when the phase starts never can, and entering it would only lead back. The
search takes the paths a full scan would, in the same order, with the same
float arithmetic.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # nothing is compiled; kept for tools that report it

BIG = 1e18
_EPS = 1e-12


def _levels(starts, head, s, t):
    """Breadth-first levels from s, node u's arcs leading to
    head[starts[u]:starts[u + 1]]; -1 where unreached. Expands one frontier
    at a time and stops after the level that reaches t: no arc beyond it
    can be admissible."""
    level = np.full(len(starts) - 1, -1, dtype=np.int64)
    slot = np.empty_like(level)
    level[s] = 0
    front, depth = np.array([s]), 0
    while front.size and level[t] < 0:
        lo = starts[front]
        counts = starts[front + 1] - lo
        # the frontier's arcs, taken from each node's run in head
        reached = head[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
        reached = reached[level[reached] < 0]
        depth += 1
        level[reached] = depth
        # each new node once, without a sort: the one entry whose position
        # its slot holds
        at = np.arange(len(reached))
        slot[reached] = at
        front = reached[slot[reached] == at]
    return level


def _admissible(starts, head, level, t):
    """Positions in head of the arcs admissible at the start of a phase that
    do not lead into a dead end: one level up, below t's level unless into
    t, and into a node that reaches t through such arcs. Returns them with
    each node's first and end index among them."""
    n = len(starts) - 1
    tail = np.repeat(np.arange(n), np.diff(starts))
    lt, lh = level[tail], level[head]
    ok = np.flatnonzero((lt >= 0) & (lh == lt + 1) & ((lh < level[t]) | (head == t)))
    # one backward pass over the levels, the arcs grouped by their tail's
    # level once: an arc is kept when its head reaches t, and then so does
    # its tail
    by_level = ok[np.argsort(lt[ok], kind="stable")]
    bounds = np.searchsorted(lt[by_level], np.arange(level[t] + 1)).tolist()
    reach = np.zeros(n, dtype=bool)
    reach[t] = True
    kept = []
    for k in range(level[t] - 1, -1, -1):
        group = by_level[bounds[k]:bounds[k + 1]]
        group = group[reach[head[group]]]
        reach[tail[group]] = True
        kept.append(group)
    ok = np.sort(np.concatenate(kept))
    counts = np.bincount(tail[ok], minlength=n)
    stop = np.cumsum(counts)
    return ok, stop - counts, stop


def _dinic(offsets, arcs, to, cap, s, t):
    """Max flow on a paired-arc graph; mutates cap to the residual.

    Node u's arcs, in search order, are ``arcs[offsets[u]:offsets[u + 1]]``.
    Returns the source side of the minimum cut: the nodes the final
    breadth-first search reaches from s through arcs with residual capacity.
    """
    while True:
        # the arcs with residual capacity, still grouped by origin
        pos = np.flatnonzero(cap[arcs] > _EPS)
        live = arcs[pos]
        head = to[live]
        starts = np.searchsorted(pos, offsets)
        level = _levels(starts, head, s, t)
        if level[t] < 0:
            return level >= 0
        ok, first, stop = _admissible(starts, head, level, t)
        ids = live[ok]
        # search over the admissible arcs only, by position j in their list
        hd = head[ok].tolist()
        res = cap[ids].tolist()
        back = cap[ids ^ 1].tolist()
        nxt = first.tolist()
        stop = stop.tolist()
        path = []
        u = s
        while True:
            if u == t:
                bottleneck = 1e300
                for j in path:
                    if res[j] < bottleneck:
                        bottleneck = res[j]
                for j in path:
                    res[j] -= bottleneck
                    back[j] += bottleneck
                u = s
                path = []
                continue
            j, end = nxt[u], stop[u]
            while j < end and not res[j] > _EPS:
                j += 1
            nxt[u] = j
            if j == end:
                # a dead end for the rest of the phase: entering it again
                # comes straight back here
                if not path:
                    break
                path.pop()
                u = hd[path[-1]] if path else s
                nxt[u] += 1
            else:
                path.append(j)
                u = hd[j]
        cap[ids] = res
        cap[ids ^ 1] = back


def _paired_arcs(n_nodes, tails, heads, caps):
    """Paired-arc adjacency lists of the arcs tails[k] -> heads[k].

    Arc 2k carries caps[k] and arc 2k + 1 is its zero-capacity reverse, so
    ``e ^ 1`` is the partner of arc e. Each node's list starts at its
    last-added arc, as if the arcs were pushed one at a time; a stable sort
    of the reversed arc origins yields that order. Returns
    (offsets, arcs, to, cap), node u's list being arcs[offsets[u]:offsets[u + 1]].
    """
    m = len(tails)
    origin = np.stack((tails, heads), axis=1).ravel()
    arcs = 2 * m - 1 - np.argsort(origin[::-1], kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(origin, minlength=n_nodes))))
    to = np.stack((heads, tails), axis=1).ravel()
    cap = np.stack((caps, np.zeros(m)), axis=1).ravel()
    return offsets, arcs, to, cap


def min_st_cut(n_nodes, edges, capacities, s, t):
    """Minimum s-t cut of a directed graph.

    Returns ``(cut_value, source_side)`` where ``source_side`` is a bool
    array over nodes; the value is recomputed from the partition so it is
    an exact sum of the given capacities. Raises ValueError when s == t,
    when s, t or an edge endpoint is not a node, or when a capacity is
    negative or not finite.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    capacities = np.ascontiguousarray(capacities, dtype=np.float64)
    if not (0 <= s < n_nodes and 0 <= t < n_nodes):
        raise ValueError(f"source {s} or sink {t} is not a node of {n_nodes}")
    if s == t:
        raise ValueError(f"source and sink are the same node {s}")
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise ValueError(f"edge endpoint outside nodes 0..{n_nodes - 1}")
    if capacities.shape != (len(edges),):
        raise ValueError(f"{capacities.size} capacities for {len(edges)} edges")
    if not np.all(np.isfinite(capacities) & (capacities >= 0.0)):
        raise ValueError("capacities must be finite and non-negative")
    side = _dinic(*_paired_arcs(n_nodes, edges[:, 0], edges[:, 1], capacities), s, t)
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
