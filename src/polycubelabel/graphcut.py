"""Mesh-agnostic discrete optimizers: s-t max-flow / min-cut (Dinic) and
multi-label energy minimization by alpha-expansion.

Graph construction and energies are numpy; each Dinic flow runs on Python
lists, read from the arrays once per cut. Capacities are float64; disallowed
assignments are BIG rather than inf so residual arithmetic never gives NaN.

An expansion move gives each node one net terminal arc (Kolmogorov & Zabih,
PAMI 2004): the common part of its source and sink capacities is pushed at
once. Every s-t cut then costs the same constant less, so the minimum cuts
and the smallest source side, which the solver returns, do not change.
Nodes are then fixed until none changes: one whose s->i arc outweighs its
pair arcs out to free nodes is on the source side of every minimum cut, as
moving it there saves more than it can cost, and one whose i->t arc
outweighs its pair arcs in, on the sink side. Their arcs to free nodes turn
into terminal arcs, so in exact arithmetic the smallest source side is
unchanged; a margin of _EPS leaves float near-ties to the flow. Nodes with
no arc left are sink side, and Dinic runs on the rest only, if any.

alpha_expansion skips the move of a label whose last move saw the same
labeling: it would return the switch the loop refused then, so the labels
are unchanged.

Each Dinic phase takes its levels as distances to t, from one breadth-first
search from t over the residual arcs reversed (Dinitz 1970; Goldberg &
Tarjan, JACM 1988), stopped after the level that labels s. An admissible
arc has residual capacity and leads one step nearer t, so each leads on to t
when the phase starts; at a node the search reaches from s they are the arcs
of the shortest s-t paths, in list order. In a phase an arc gains capacity
only as its partner carries flow, so it leads away from t, never admissible,
and admissible arcs only lose it: the search tests each arc as it reaches
it, and a dead end stays one. It takes the paths a full scan would, in the
same order, with the same float arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

HAVE_NUMBA = False  # nothing is compiled; kept for tools that report it

BIG = 1e18
_EPS = 1e-12
_MAX_SWEEPS = 100  # label sweeps of alpha_expansion at most


def _levels(bounds, head, res, via, start, goal):
    """Breadth-first levels from start, -1 where unreached, stopped at goal's level,
    over arcs p -> head[p] (v's at bounds[v]:bounds[v + 1]) with res[via[p]] > _EPS."""
    level = [-1] * (len(bounds) - 1)
    level[start], front, depth = 0, [start], 0
    while front and level[goal] < 0:
        depth += 1
        reached = []
        for v in front:
            for p in range(bounds[v], bounds[v + 1]):
                w = head[p]
                if level[w] < 0 and res[via[p]] > _EPS:
                    level[w] = depth
                    reached.append(w)
        front = reached
    return level


def _dinic(offsets, arcs, to, cap, s, t):
    """Max flow on a paired-arc graph; mutates cap to the residual.

    Node u's arcs, in search order, are ``arcs[offsets[u]:offsets[u + 1]]``.
    Returns the source side of the minimum cut: the nodes a breadth-first
    search reaches from s through arcs with residual capacity once t is out
    of reach.
    """
    # by arc position p in the lists: head, residual and the partner's position
    where = np.empty_like(arcs)
    where[arcs] = np.arange(len(arcs))
    bounds, head, res = offsets.tolist(), to[arcs].tolist(), cap[arcs].tolist()
    mate = where[arcs ^ 1].tolist()
    while True:
        # distances to t over the residual arcs reversed, partners running back
        dist = _levels(bounds, head, res, mate, t, s)
        if dist[s] < 0:
            break
        nxt, stop = bounds[:-1], bounds[1:]
        u, path = s, []
        while True:
            if u == t:
                bottleneck = math.inf
                for j in path:
                    if res[j] < bottleneck:
                        bottleneck = res[j]
                for j in path:
                    res[j] -= bottleneck
                    res[mate[j]] += bottleneck
                u, path = s, []
                continue
            # the next admissible arc: residual left, one step nearer t
            j, end, below = nxt[u], stop[u], dist[u] - 1
            while j < end and not (res[j] > _EPS and dist[head[j]] == below):
                j += 1
            nxt[u] = j
            if j == end:
                # a dead end for the rest of the phase: entering it again
                # comes straight back here
                if not path:
                    break
                path.pop()
                u = head[path[-1]] if path else s
                nxt[u] += 1
            else:
                path.append(j)
                u = head[j]
    cap[arcs] = res
    return np.array(_levels(bounds, head, res, range(len(res)), s, t)) >= 0


def _total(values):
    """The sum of non-negative values, inf where it overflows, without numpy's
    warning: scaled by 2**-64 they cannot overflow, and keep all bits above 1e-289."""
    return float((values * 2.0**-64).sum()) * 2.0**64


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
    an exact sum of the given capacities. Raises ValueError when n_nodes is
    not an int (a bool is not one), when s == t, when s or t is not an int
    node id, when the edges are not pairs of integer node ids, or when a
    capacity is negative or not finite, or their sum is not.
    """
    if not isinstance(n_nodes, (int, np.integer)) or isinstance(n_nodes, bool):
        raise ValueError(f"n_nodes must be an int, not {n_nodes!r}")
    edges = np.asarray(edges)
    capacities = np.ascontiguousarray(capacities, dtype=np.float64)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
               and 0 <= i < n_nodes for i in (s, t)):
        raise ValueError(f"source {s} or sink {t} is not a node of {n_nodes}")
    if s == t:
        raise ValueError(f"source and sink are the same node {s}")
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu"
                       or edges.min() < 0 or edges.max() >= n_nodes):
        raise ValueError(f"edge endpoints must be node ids in 0..{n_nodes - 1}, two an edge")
    edges = edges.astype(np.int64).reshape(-1, 2)
    if capacities.shape != (len(edges),):
        raise ValueError(f"{capacities.size} capacities for {len(edges)} edges")
    if not np.all(np.isfinite(capacities) & (capacities >= 0.0)):
        raise ValueError("capacities must be finite and non-negative")
    if not math.isfinite(_total(capacities)):
        raise ValueError("capacities must have a finite sum")
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
    do not change. Nodes are then fixed as the module docstring says.
    """
    n = costs.shape[0]
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
    across = b + c - a
    pos = across > 0.0
    # free nodes, ascending, and their capacities; pair arcs among them by position
    free, tail, head, cap = nodes, u[pos], v[pos], across[pos]
    switch = np.zeros(n, dtype=bool)
    while True:
        k = len(free)
        pushed = np.minimum(s_cap, t_cap)
        s_cap -= pushed
        t_cap -= pushed
        out, inn = np.bincount(tail, cap, k), np.bincount(head, cap, k)
        stays = s_cap > out + _EPS
        goes = (t_cap > inn + _EPS) | (s_cap + t_cap + out + inn == 0.0)
        fixed = stays | goes
        if not fixed.any():
            break
        switch[free[goes]] = True
        if fixed.all():
            return switch
        # an arc out of a staying node is cut when its head switches, one
        # into a switching node when its tail stays: terminal arcs now
        into, away = stays[tail] & ~fixed[head], goes[head] & ~fixed[tail]
        s_cap = (s_cap + np.bincount(head[into], cap[into], k))[~fixed]
        t_cap = (t_cap + np.bincount(tail[away], cap[away], k))[~fixed]
        live, at = ~fixed[tail] & ~fixed[head], np.cumsum(~fixed) - 1
        free, tail, head, cap = free[~fixed], at[tail[live]], at[head[live]], cap[live]
    if not k:
        return switch
    from_s, into_t = np.flatnonzero(s_cap > 0.0), np.flatnonzero(t_cap > 0.0)
    side = _dinic(*_paired_arcs(
        k + 2,
        np.concatenate((np.full(len(from_s), k), into_t, tail)),
        np.concatenate((from_s, np.full(len(into_t), k + 1), head)),
        np.concatenate((s_cap[from_s], t_cap[into_t], cap)),
    ), k, k + 1)
    switch[free] = ~side[:k]
    return switch


def _checked_potts(costs, pairs, weights, labels, name):
    """The Potts inputs as float64 costs capped at BIG, int64 pairs, float64
    weights and int64 labels, or None. Raises ValueError for a NaN or -inf
    cost, no label column, a pair that is not two node ids, a weight count
    other than m, a negative or non-finite weight, weights whose total times
    3 is not finite, costs whose magnitudes, capped at BIG, have no finite
    total, or `name` not n whole labels in 0..L-1. Every energy is then
    finite: from below the costs' total magnitude bounds it, and from above
    n times BIG plus the weight total."""
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    pairs = np.asarray(pairs)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if costs.ndim != 2 or not np.all(costs > -np.inf):
        raise ValueError("costs must be an (n, L) array without NaN or -inf")
    n, n_labels = costs.shape
    if not n_labels:
        raise ValueError("costs must have at least one label column")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.size and (
            pairs.dtype.kind not in "iu" or pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"pairs must be (m, 2) node ids in 0..{n - 1}")
    if weights.shape != (len(pairs),) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(f"weights must be {len(pairs)} finite non-negative numbers, one a pair")
    if not math.isfinite(3.0 * _total(weights)):  # alpha_expansion's bound on a move's capacities
        raise ValueError("weights must total less than a third of the float range")
    costs = np.minimum(costs, BIG)
    if not math.isfinite(_total(np.abs(costs))):
        raise ValueError("costs must have a finite total magnitude")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,) or labels.dtype.kind not in "biuf" or not np.all(
                (labels >= 0) & (labels < n_labels) & (labels == np.round(labels))):
            raise ValueError(f"{name} must be {n} labels in 0..{n_labels - 1}, whole numbers")
        labels = labels.astype(np.int64)
    return costs, pairs.astype(np.int64), weights, labels


def potts_energy(costs, pairs, weights, labels) -> float:
    """Sum of data costs plus pair weights across label discontinuities;
    raises ValueError where alpha_expansion would, `labels` read as `init`."""
    return _potts_energy(*_checked_potts(costs, pairs, weights, np.asarray(labels), "labels"))


def alpha_expansion(costs, pairs, weights, init=None):
    """Minimize a Potts energy over n_labels labels.

    costs: (n, L) data term (use BIG / inf to forbid an assignment);
    pairs: (m, 2) node pairs; weights: (m,) discontinuity penalties.
    Sweeps the labels in increasing order, accepting strict improvements,
    until a full sweep changes nothing (or after _MAX_SWEEPS sweeps).

    The move of a label that the labeling has not changed since that
    label's last move is skipped: each move is a pure function of the
    labeling, so it would return the same switch, again refused, and the
    result stays bit-identical.

    Returns (labels, energy). Raises ValueError for input that
    `_checked_potts` refuses, `init` being its labels.
    """
    costs, pairs, weights, cur = _checked_potts(costs, pairs, weights, init, "init")
    n_labels = costs.shape[1]
    if cur is None:
        cur = np.argmin(costs, axis=1).astype(np.int64)
    energy = _potts_energy(costs, pairs, weights, cur)
    # the labeling's version, bumped by every accepted move, and the version
    # each label's move last ran on
    version, ran_on = 0, [-1] * n_labels
    for _ in range(_MAX_SWEEPS):
        improved = False
        for alpha in range(n_labels):
            if ran_on[alpha] == version:
                continue
            ran_on[alpha] = version
            switch = _expansion_move(costs, pairs, weights, cur, alpha)
            if not np.any(switch & (cur != alpha)):
                continue
            cand = np.where(switch, alpha, cur)
            cand_energy = _potts_energy(costs, pairs, weights, cand)
            if cand_energy < energy - 1e-9:
                cur, energy = cand, cand_energy
                improved = True
                version += 1
        if not improved:
            break
    return cur, energy
