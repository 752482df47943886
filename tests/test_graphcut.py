import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polycubelabel import graphcut, labeling, shapes
from polycubelabel.graphcut import (
    BIG,
    _admissible,
    _dinic,
    _expansion_move,
    _paired_arcs,
    alpha_expansion,
    min_st_cut,
    potts_energy,
)
from polycubelabel.mesh import SurfaceMesh

import oracles
from oracles import (
    brute_force_min_cut,
    brute_force_potts,
    push_arcs_one_by_one,
    random_cut_instance,
    random_potts_instance,
    reference_dinic,
    reference_expansion_move,
    smallest_min_cut_source_side,
)


def test_min_cut_diamond_hand_value():
    # s -3-> a -2-> t, s -2-> b -3-> t, a -1-> b; max flow 2+2+1 = 5
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    caps = [3.0, 2.0, 1.0, 2.0, 3.0]
    value, side = min_st_cut(4, edges, np.array(caps), 0, 3)
    assert value == 5.0
    assert side[0] and not side[3]


def test_min_cut_disconnected_sink():
    value, side = min_st_cut(3, [(0, 1)], np.array([4.0]), 0, 2)
    assert value == 0.0
    assert side.tolist() == [True, True, False]


def test_min_cut_same_source_and_sink_raises():
    # with s == t the augmenting search would start at t with an empty path
    # and never return, so the call runs in a child process under a timeout
    src = Path(graphcut.__file__).parents[1]
    code = (
        "import numpy as np\n"
        "from polycubelabel.graphcut import min_st_cut\n"
        "try:\n"
        "    min_st_cut(3, [(0, 1)], np.array([1.0]), 0, 0)\n"
        "except ValueError as exc:\n"
        "    print('ValueError', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60, check=True)
    assert proc.stdout.startswith("ValueError")


@pytest.mark.parametrize("edges, caps, s, t, match", [
    ([(0, 1)], [1.0], 0, 3, "sink 3"),
    ([(0, 1)], [1.0], -1, 2, "source -1"),
    ([(0, 3)], [1.0], 0, 2, "endpoint"),
    ([(-1, 2)], [1.0], 0, 2, "endpoint"),
    ([(0, 1), (1, 2)], [1.0, -1.0], 0, 2, "non-negative"),
    ([(0, 1), (1, 2)], [1.0, np.inf], 0, 2, "finite"),
    ([(0, 1), (1, 2)], [np.nan, 1.0], 0, 2, "finite"),
    ([(0, 1), (1, 2)], [1.0], 0, 2, "1 capacities for 2 edges"),
])
def test_min_cut_rejects_bad_input(edges, caps, s, t, match):
    with pytest.raises(ValueError, match=match):
        min_st_cut(3, edges, np.array(caps), s, t)


def test_min_cut_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n, edges, caps, s, t = random_cut_instance(rng)
        value, side = min_st_cut(n, edges, caps, s, t)
        assert side[s] and not side[t]
        # reported value is the capacity of the reported partition...
        across = caps[[side[u] and not side[v] for u, v in edges]].sum()
        assert value == pytest.approx(float(across), abs=1e-12)
        # ...and that partition is a global minimum
        assert value == pytest.approx(brute_force_min_cut(n, edges, caps, s, t), abs=1e-9)


def test_min_cut_source_side_is_the_smallest_minimum_cut():
    # integer capacities, zeros included, so that several cuts tie for the
    # minimum; the residual search from s must return the smallest of them
    rng = np.random.default_rng(5)
    for _ in range(80):
        n, edges, _, s, t = random_cut_instance(rng)
        caps = rng.integers(0, 4, size=len(edges)).astype(np.float64)
        _, side = min_st_cut(n, edges, caps, s, t)
        assert side.tolist() == smallest_min_cut_source_side(n, edges, caps, s, t).tolist()


def _linked_lists(head, nxt):
    """Each node's arcs, walked along one-by-one linked lists."""
    out = []
    for e in head:
        out.append([])
        while e != -1:
            out[-1].append(int(e))
            e = nxt[e]
    return out


def test_paired_arcs_match_one_by_one_build():
    rng = np.random.default_rng(8)
    for m in [0, 1, 2, 3, 7, 50, 200]:
        n = int(rng.integers(1, 12))
        tails, heads = rng.integers(0, n, size=(2, m))  # self-loops and repeats too
        caps = rng.uniform(0.0, 5.0, size=m)
        offsets, arcs, to, cap = _paired_arcs(n, tails, heads, caps)
        head, nxt, want_to, want_cap = push_arcs_one_by_one(n, tails, heads, caps)
        lists = _linked_lists(head, nxt)
        assert len(offsets) == n + 1
        for u in range(n):
            assert arcs[offsets[u]:offsets[u + 1]].tolist() == lists[u]
        for g, w in ((to, want_to), (cap, want_cap)):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _random_flow_graph(rng):
    n = int(rng.integers(3, 41))
    m = int(rng.integers(0, 151))
    tails, heads = rng.integers(0, n, size=(2, m))  # self-loops and repeats too
    if rng.random() < 0.5:
        caps = rng.integers(0, 4, size=m).astype(np.float64)
    else:
        caps = rng.uniform(0.0, 5.0, size=m) * (rng.random(m) < 0.8)
    s, t = rng.choice(n, size=2, replace=False)
    if rng.random() < 0.2:  # nothing enters t
        keep = heads != t
        tails, heads, caps = tails[keep], heads[keep], caps[keep]
    return n, tails, heads, caps, int(s), int(t)


def _assert_dinic_matches_reference(n, tails, heads, caps, s, t):
    arcs = _paired_arcs(n, tails, heads, caps)
    head, nxt, to, cap = push_arcs_one_by_one(n, tails, heads, caps)
    side = _dinic(*arcs, s, t)
    want = reference_dinic(n, head, nxt, to, cap, s, t)
    assert arcs[3].tobytes() == cap.tobytes()  # bit-equal residuals
    assert side.tolist() == want.tolist()


def test_dinic_matches_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    unreachable = 0
    for _ in range(400):
        n, tails, heads, caps, s, t = _random_flow_graph(rng)
        unreachable += t not in heads.tolist()
        _assert_dinic_matches_reference(n, tails, heads, caps, s, t)
    assert unreachable >= 40


def _reaching(tail, head, arcs, t):
    """The nodes that reach t through the arcs at positions `arcs`."""
    good, grew = {t}, True
    while grew:
        grew = False
        for j in arcs:
            if head[j] in good and tail[j] not in good:
                good.add(tail[j])
                grew = True
    return good


def test_admissible_drops_exactly_the_arcs_into_dead_ends(monkeypatch):
    # every phase of the Dinic runs on the random graphs above: a kept arc
    # leads into a node that reaches t through kept arcs, and a dropped
    # one-level-up arc into a node that does not reach t at all
    dropped = 0

    def checked(starts, head, level, t):
        nonlocal dropped
        ok, first, stop = _admissible(starts, head, level, t)
        n = len(starts) - 1
        tail = np.repeat(np.arange(n), np.diff(starts)).tolist()
        lt, lh = level[tail], level[head]
        up = np.flatnonzero((lt >= 0) & (lh == lt + 1) & ((lh < level[t]) | (head == t))).tolist()
        heads, kept = head.tolist(), ok.tolist()
        assert kept == sorted(set(kept)) and set(kept) <= set(up)
        reach_kept = _reaching(tail, heads, kept, t)
        assert all(heads[j] in reach_kept for j in kept)
        reach_up = _reaching(tail, heads, up, t)
        gone = set(up) - set(kept)
        assert not any(heads[j] in reach_up for j in gone)
        dropped += len(gone)
        for u in range(n):
            assert all(tail[j] == u for j in kept[first[u]:stop[u]])
        assert stop[-1] == len(kept)
        return ok, first, stop

    monkeypatch.setattr(graphcut, "_admissible", checked)
    rng = np.random.default_rng(21)
    for _ in range(400):
        n, tails, heads, caps, s, t = _random_flow_graph(rng)
        _dinic(*_paired_arcs(n, tails, heads, caps), s, t)
    assert dropped >= 100


def test_dinic_matches_reference_on_a_long_chain():
    # a path s=0 -> 1 -> ... -> 199 = t with shortcuts: many phases, many levels
    n = 200
    tails = np.concatenate((np.arange(n - 1), np.arange(0, n - 20, 7)))
    heads = np.concatenate((np.arange(1, n), np.arange(0, n - 20, 7) + 13))
    caps = np.concatenate((np.linspace(5.0, 1.0, n - 1), np.full(len(tails) - n + 1, 0.7)))
    _assert_dinic_matches_reference(n, tails, heads, caps, 0, n - 1)


def test_dinic_matches_reference_past_the_sink_level():
    # s=0 reaches t=5 in one step first; a, b sit at t's level and c, d
    # beyond it, so the first phases must skip them as the full scan does
    s, a, b, c, d, t = range(6)
    edges = np.array([(s, t), (s, a), (s, b), (a, c), (b, c), (c, d), (d, t),
                      (a, t), (c, t), (b, a), (d, b)])
    caps = np.array([1.0, 2.5, 1.5, 2.0, 1.0, 0.5, 3.0, 0.25, 1.0, 1.0, 2.0])
    _assert_dinic_matches_reference(6, edges[:, 0], edges[:, 1], caps, s, t)


def _use_reference_cut(monkeypatch):
    """Route alpha_expansion's cuts through the one-by-one arc build and the
    reference Dinic."""
    monkeypatch.setattr(graphcut, "_paired_arcs", push_arcs_one_by_one)
    monkeypatch.setattr(
        graphcut, "_dinic",
        lambda head, nxt, to, cap, s, t: reference_dinic(len(head), head, nxt, to, cap, s, t),
    )


def _corpus_energy(mesh):
    costs = labeling.data_costs(mesh.normals, 3.0, 1e-10, 0.05)
    return costs, mesh.edge_tris, labeling.smoothness_weights(mesh, 1.0, "angle-proportional")


@pytest.mark.parametrize("shape", [
    lambda: shapes.subdivide(*shapes.cone(16), 1),
    lambda: shapes.torus(16, 8),
], ids=["cone-16-subdivided", "torus-16x8"])
def test_alpha_expansion_matches_reference_cut(shape, monkeypatch):
    mesh = SurfaceMesh(*shape())
    costs, pairs, weights = _corpus_energy(mesh)
    init = np.arange(mesh.n_triangles) % 6  # far from optimal: many moves
    got = [alpha_expansion(costs, pairs, weights, init=init), labeling.compute_labeling(mesh)]
    with monkeypatch.context() as patch:
        _use_reference_cut(patch)
        want = [alpha_expansion(costs, pairs, weights, init=init), labeling.compute_labeling(mesh)]
    assert got[0][0].tolist() == want[0][0].tolist() and got[0][1] == want[0][1]
    assert got[1].tolist() == want[1].tolist()


def test_restricted_relabel_matches_reference_cut(monkeypatch):
    mesh = SurfaceMesh(*shapes.torus(16, 8))
    labels = labeling.compute_labeling(mesh)
    chart = labels == labels[0]
    allowed = np.arange(6) != labels[0]
    got = labeling.restricted_relabel(mesh, labels, chart, allowed=allowed)
    with monkeypatch.context() as patch:
        _use_reference_cut(patch)
        want = labeling.restricted_relabel(mesh, labels, chart, allowed=allowed)
    assert not np.array_equal(got, labels)
    assert got.tolist() == want.tolist()


def _random_move(rng, kind, max_nodes=8):
    """A random Potts instance, a current labeling and its kind's costs:
    uniform; integers with ties; some labels forbidden with BIG, the
    current ones too; some weights zero."""
    costs, pairs, weights = random_potts_instance(rng, max_nodes=max_nodes)
    n = len(costs)
    cur = rng.integers(0, costs.shape[1], size=n)
    if kind == "integer":
        costs = rng.integers(0, 4, size=costs.shape).astype(np.float64)
        weights = rng.integers(0, 3, size=len(weights)).astype(np.float64)
    elif kind == "forbidden":
        costs = np.where(rng.random(costs.shape) < 0.3, BIG, costs)
    elif kind == "zero-weights":
        weights = weights * (rng.random(len(weights)) < 0.5)
    return costs, pairs, weights, cur


MOVE_KINDS = ["uniform", "integer", "forbidden", "zero-weights"]


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_expansion_move_matches_the_per_pair_terminal_arcs(kind):
    # the net terminal arcs switch the same nodes as the graph with one
    # terminal arc per node and per pair term
    rng = np.random.default_rng(MOVE_KINDS.index(kind))
    for _ in range(250):
        costs, pairs, weights, cur = _random_move(rng, kind, max_nodes=12)
        for alpha in range(costs.shape[1]):
            got = _expansion_move(costs, pairs, weights, cur, alpha)
            want = reference_expansion_move(costs, pairs, weights, cur, alpha)
            assert got.tolist() == want.tolist()


def _recording_arcs(monkeypatch):
    """Record each graph the expansion moves, new and reference, hand to
    _paired_arcs."""
    graphs = []

    def record(n_nodes, tails, heads, caps):
        graphs.append((n_nodes, np.asarray(tails), np.asarray(heads), np.asarray(caps)))
        return _paired_arcs(n_nodes, tails, heads, caps)

    for module in (graphcut, oracles):
        monkeypatch.setattr(module, "_paired_arcs", record)
    return graphs


@pytest.mark.parametrize("kind", ["uniform", "integer", "zero-weights"])
def test_expansion_move_is_the_smallest_minimum_cut(kind, monkeypatch):
    # on up to 10 nodes, against the enumerated cuts of the graph the move
    # builds and of the per-pair graph; each node has at most one terminal
    # arc and no arc has zero capacity
    graphs = _recording_arcs(monkeypatch)
    rng = np.random.default_rng(40 + MOVE_KINDS.index(kind))
    for _ in range(25):
        costs, pairs, weights, cur = _random_move(rng, kind, max_nodes=10)
        n = len(costs)
        for alpha in range(costs.shape[1]):
            graphs.clear()
            switched = _expansion_move(costs, pairs, weights, cur, alpha)
            reference_expansion_move(costs, pairs, weights, cur, alpha)
            assert len(graphs) == 2
            for n_nodes, tails, heads, caps in graphs:
                edges = np.stack((tails, heads), axis=1)
                side = smallest_min_cut_source_side(n_nodes, edges, caps, n, n + 1)
                assert (~side[:n]).tolist() == switched.tolist()
            tails, heads, caps = graphs[0][1:]
            assert np.all(caps > 0.0)
            terminal = np.concatenate((heads[tails == n], tails[heads == n + 1]))
            assert len(np.unique(terminal)) == len(terminal)
            assert not np.any((tails == n + 1) | (heads == n))


def test_alpha_expansion_matches_bruteforce():
    rng = np.random.default_rng(7)
    gaps = 0
    for _ in range(40):
        costs, pairs, weights = random_potts_instance(rng)
        labels, energy = alpha_expansion(costs, pairs, weights)
        assert energy == pytest.approx(potts_energy(costs, pairs, weights, labels), abs=1e-9)
        opt = brute_force_potts(costs, pairs, weights)
        if abs(energy - opt) > 1e-9:
            gaps += 1
            # expansion moves guarantee at worst 2x the optimum
            assert energy <= 2.0 * opt + 1e-9
            init = np.argmin(costs, axis=1)
            assert energy <= potts_energy(costs, pairs, weights, init) + 1e-9
    assert gaps <= 2  # near-universal exactness on random instances


def test_alpha_expansion_descends_from_any_init():
    rng = np.random.default_rng(3)
    costs, pairs, weights = random_potts_instance(rng, max_nodes=8)
    worst = np.argmax(costs, axis=1)
    labels, energy = alpha_expansion(costs, pairs, weights, init=worst)
    assert energy <= potts_energy(costs, pairs, weights, worst) + 1e-9


def test_alpha_expansion_respects_forbidden_labels():
    costs = np.zeros((4, 3))
    costs[:, 0] = BIG  # label 0 forbidden everywhere
    costs[:, 2] = 0.5
    pairs = np.array([[0, 1], [1, 2], [2, 3]])
    labels, energy = alpha_expansion(costs, pairs, np.full(3, 10.0))
    assert np.all(labels == 1)
    assert energy == pytest.approx(0.0)


def test_alpha_expansion_smoothing_outvotes_data():
    # middle node slightly prefers label 1 but both neighbors say 0 strongly
    costs = np.array([[0.0, 9.0], [0.2, 0.0], [0.0, 9.0]])
    pairs = np.array([[0, 1], [1, 2]])
    labels, energy = alpha_expansion(costs, pairs, np.array([1.0, 1.0]))
    assert labels.tolist() == [0, 0, 0]
    assert energy == pytest.approx(0.2)


def test_potts_energy_formula():
    costs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    pairs = np.array([[0, 1], [1, 2]])
    w = np.array([10.0, 20.0])
    assert potts_energy(costs, pairs, w, [0, 1, 1]) == 1 + 4 + 6 + 10
    assert potts_energy(costs, pairs, w, [0, 0, 0]) == 1 + 3 + 5


def test_potts_energy_adds_terms_in_order():
    # data terms by node, then cut pair weights by pair, summed left to right
    # like a plain loop: bit-identical energies keep the accept test of
    # alpha_expansion, and so the labels, unchanged
    rng = np.random.default_rng(13)
    costs = rng.uniform(0, 3, (300, 6))
    pairs = rng.integers(0, 300, (900, 2))
    weights = rng.uniform(0.1, 2.0, 900)
    labels = rng.integers(0, 6, 300)
    expected = 0.0
    for i, label in enumerate(labels):
        expected += costs[i, label]
    for (u, v), w in zip(pairs, weights):
        if labels[u] != labels[v]:
            expected += w
    assert potts_energy(costs, pairs, weights, labels) == expected


def test_alpha_expansion_deterministic():
    rng = np.random.default_rng(11)
    costs, pairs, weights = random_potts_instance(rng)
    a = alpha_expansion(costs, pairs, weights)
    b = alpha_expansion(costs, pairs, weights)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
