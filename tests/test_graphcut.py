import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import graphcut, labeling, shapes
from polycubelabel.graphcut import (
    BIG,
    _dinic,
    _expansion_move,
    _paired_arcs,
    alpha_expansion,
    min_st_cut,
    potts_energy,
)
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import CutEnergy
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.operators import remove_chart

import oracles
from helpers import spy_moves
from oracles import (
    brute_force_min_cut,
    brute_force_potts,
    net_arc_expansion_move,
    push_arcs_one_by_one,
    random_cut_instance,
    random_potts_instance,
    reference_alpha_expansion,
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
    assert proc.stdout == "ValueError source and sink are the same node 0\n"


@pytest.mark.parametrize("edges, caps, s, t, match", [
    ([(0, 1)], [1.0], 0, 3, "sink 3"),
    ([(0, 1)], [1.0], -1, 2, "source -1"),
    ([(0, 3)], [1.0], 0, 2, "endpoint"),
    ([(-1, 2)], [1.0], 0, 2, "endpoint"),
    ([(0, 1), (1, 2)], [1.0, -1.0], 0, 2, "non-negative"),
    ([(0, 1), (1, 2)], [1.0, np.inf], 0, 2, "finite"),
    ([(0, 1), (1, 2)], [np.nan, 1.0], 0, 2, "finite"),
    ([(0, 1), (1, 2)], [1.0], 0, 2, "1 capacities for 2 edges"),
    ([(0, 1.7), (1, 2)], [1.0, 2.0], 0, 2, "endpoints must be node ids"),
    ([(0, 1, 2), (1, 2, 0)], [1.0, 2.0, 3.0], 0, 2, "two an edge"),
    ([(0, 1), (1, 2)], [1.0, 2.0], 0.5, 2, "source 0.5"),
    ([(0, 1), (1, 2)], [1.0, 2.0], 0, 2.0, "sink 2.0"),
    ([(0, 1), (1, 2)], [1.0, 2.0], True, 2, "source True"),
    ([(0, 1), (1, 2)], [1.0, 2.0], np.int64(0), np.True_, "sink True"),
    ([(0, 1), (1, 2), (0, 2)], [1e308] * 3, 0, 2, "finite sum"),
])
def test_min_cut_rejects_bad_input(edges, caps, s, t, match):
    with pytest.raises(ValueError, match=match):
        min_st_cut(3, edges, np.array(caps), s, t)


@pytest.mark.parametrize("n_nodes", [3.5, 4.0, True, "3", None])
def test_min_cut_rejects_a_node_count_that_is_not_an_int(n_nodes):
    # 3.5 and 4.0 used to fail with a bare TypeError in np.bincount, and True
    # was read as one node
    with pytest.raises(ValueError, match=f"n_nodes must be an int, not {n_nodes!r}"):
        min_st_cut(n_nodes, [[0, 1], [1, 2]], [1.0, 2.0], 0, 1)


def test_min_cut_takes_numpy_integer_ids():
    edges = np.array([(0, 1), (1, 2)], dtype=np.uint32)
    value, side = min_st_cut(3, edges, [1.0, 2.0], np.int64(0), np.int32(2))
    assert value == 1.0 and side.tolist() == [True, False, False]


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


def test_dinic_saturates_an_arc_above_1e300_in_one_augmentation():
    # a bottleneck that started at 1e300 took 1e7 augmentations of this arc
    # and left 1.0000000000000001e307 on its reverse
    offsets, arcs, to, cap = _paired_arcs(2, np.array([0]), np.array([1]), np.array([1e307]))
    side = _dinic(offsets, arcs, to, cap, 0, 1)
    assert cap.tolist() == [0.0, 1e307] and side.tolist() == [True, False]


def test_huge_capacities_cut_exactly():
    square = [(0, 1), (1, 3), (0, 2), (2, 3)]
    assert min_st_cut(4, square, [1e307] * 4, 0, 3)[0] == 2e307
    costs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    labels, energy = alpha_expansion(costs, [[0, 1], [1, 2], [0, 2]], [1e307] * 3)
    assert labels.tolist() == [0, 0, 0] and energy == 1.0


@st.composite
def _flow_graphs(draw):
    """A small graph with parallel and antiparallel arcs, zero capacities
    among them, and at times an s with no out-arcs or a t nothing enters."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    capacity = st.one_of(st.just(0.0), st.integers(0, 3).map(float), st.floats(0.0, 5.0))
    arcs = draw(st.lists(st.tuples(node, node, capacity), max_size=40))
    for k, reverse, c in draw(st.lists(st.tuples(st.integers(0, 39), st.booleans(), capacity),
                                       max_size=10)):
        if arcs:  # a copy of a drawn arc, or its reverse, with its own capacity
            u, v, _ = arcs[k % len(arcs)]
            arcs.append((v, u, c) if reverse else (u, v, c))
    s, t = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        arcs = [a for a in arcs if a[0] != s]
    if draw(st.booleans()):
        arcs = [a for a in arcs if a[1] != t]
    tails, heads, caps = (np.array([a[i] for a in arcs], dtype=dt)
                          for i, dt in enumerate((np.int64, np.int64, np.float64)))
    return n, tails, heads, caps, s, t


@settings(max_examples=300, deadline=None)
@given(_flow_graphs())
def test_dinic_matches_reference_on_drawn_graphs(graph):
    _assert_dinic_matches_reference(*graph)


def _replayed_cuts(monkeypatch):
    """Run every _dinic call on its own graph through the one-by-one arc
    build and the reference Dinic too; records, per call, whether the
    residuals are bit-equal and the sides equal."""
    real, calls = graphcut._dinic, []

    def replay(offsets, arcs, to, cap, s, t):
        n = len(offsets) - 1
        # arc 2k runs to[2k + 1] -> to[2k] with cap[2k]
        head, nxt, want_to, want_cap = push_arcs_one_by_one(n, to[1::2], to[::2], cap[::2])
        assert want_to.tobytes() == to.tobytes() and want_cap.tobytes() == cap.tobytes()
        side = real(offsets, arcs, to, cap, s, t)
        want = reference_dinic(n, head, nxt, want_to, want_cap, s, t)
        calls.append((cap.tobytes() == want_cap.tobytes(), side.tolist() == want.tolist()))
        return side

    monkeypatch.setattr(graphcut, "_dinic", replay)
    return calls


def _noisy_sphere_removals():
    # the naive labeling of a sphere with 30% of its triangles relabelled at
    # random, and each of its charts removed in turn
    mesh = SurfaceMesh(*shapes.icosphere(2))
    rng = np.random.default_rng(0)
    labels = labeling.naive_labeling(mesh)
    noisy = rng.random(mesh.n_triangles) < 0.3
    labels[noisy] = rng.integers(0, 6, noisy.sum())
    graph = LabelingGraph(mesh, labels)
    for chart in range(graph.n_charts):
        remove_chart(graph, chart)


def _labeled(shape, sensitivity=CutEnergy.sensitivity):
    energy = CutEnergy(sensitivity=sensitivity)
    return lambda: labeling.compute_labeling(SurfaceMesh(*shape), energy)


def _turned(verts, tris, angle):
    return shapes.rotate_z(verts, angle), tris


@pytest.mark.parametrize("run, n_cuts", [
    (_labeled(shapes.icosphere(3)), 16),
    (_noisy_sphere_removals, 10),
    # the label-cad solids whose initial cut reaches the flow; the cone's
    # last cut has 514 nodes
    (_labeled(shapes.subdivide(*shapes.cone(32), 2)), 5),
    (_labeled(_turned(*shapes.subdivide(*shapes.l_prism(1.2), 3), math.pi / 4), 1e-3), 4),
    (_labeled(shapes.subdivide(*shapes.cylinder(32, 1.0, 2.7), 1)), 4),
    (_labeled(shapes.torus(R=2.6, r=1.0, nu=32, nv=16)), 6),
], ids=["compute-labeling-icosphere-3", "remove-chart-noisy-icosphere-2", "cone-32-subdivided-2",
        "l-prism-rotated-45", "cylinder-32-subdivided", "torus-32x16"])
def test_every_cut_of_a_run_matches_the_reference(run, n_cuts, monkeypatch):
    # the expansion-move graphs of real runs: bit-equal residuals, equal sides
    calls = _replayed_cuts(monkeypatch)
    run()
    assert len(calls) >= n_cuts
    assert all(residual and side for residual, side in calls)


def _use_reference_cut(monkeypatch):
    """Route alpha_expansion's cuts through the one-by-one arc build and the
    reference Dinic."""
    monkeypatch.setattr(graphcut, "_paired_arcs", push_arcs_one_by_one)
    monkeypatch.setattr(
        graphcut, "_dinic",
        lambda head, nxt, to, cap, s, t: reference_dinic(len(head), head, nxt, to, cap, s, t),
    )


def _corpus_energy(mesh):
    energy = CutEnergy(compactness=1.0, fidelity=3.0, smoothness_mode="angle-proportional",
                       sensitivity=1e-10, tilt_angle=0.05)
    costs = labeling.data_costs(mesh.normals, energy)
    return costs, mesh.edge_tris, labeling.smoothness_weights(mesh, energy)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MOVE_KINDS), st.integers(0, 2**32 - 1))
def test_reduced_move_equals_the_net_arc_and_per_pair_moves(kind, seed):
    # fixing the decided nodes before the flow switches the same nodes as
    # the move that hands every node to Dinic, on up to 40 nodes
    costs, pairs, weights, cur = _random_move(np.random.default_rng(seed), kind, max_nodes=40)
    for alpha in range(costs.shape[1]):
        got = _expansion_move(costs, pairs, weights, cur, alpha)
        assert got.tolist() == net_arc_expansion_move(costs, pairs, weights, cur, alpha).tolist()
        assert got.tolist() == reference_expansion_move(costs, pairs, weights, cur, alpha).tolist()


def _potts_case(rng, init_kind, large_weights):
    """A random Potts instance with whole BIG or inf columns and scattered
    BIG cells, and an init: None, on finite costs, or with one node on a
    forbidden label. Large weights sum past what the forbidden-label skip
    allows, so it falls back to running the move."""
    costs, pairs, weights = random_potts_instance(rng, max_nodes=10)
    n, n_labels = costs.shape
    columns = np.flatnonzero(rng.random(n_labels) < 0.4)
    costs[:, columns] = np.where(rng.random(len(columns)) < 0.5, BIG, np.inf)
    costs[rng.random(costs.shape) < 0.15] = BIG
    if large_weights:
        weights = weights * 10.0 ** rng.uniform(14.0, 20.0)
    if init_kind == "none":
        return costs, pairs, weights, None
    finite = costs < BIG
    init = np.array([rng.choice(np.flatnonzero(row)) if row.any() else 0 for row in finite])
    if init_kind == "forbidden" and not finite.all():
        i, label = np.argwhere(~finite)[rng.integers(np.count_nonzero(~finite))]
        init[i] = label
    return costs, pairs, weights, init


INIT_KINDS = ["none", "finite", "forbidden"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INIT_KINDS), st.booleans(), st.integers(0, 2**32 - 1))
def test_alpha_expansion_equals_the_loop_that_runs_every_move(init_kind, large_weights, seed):
    costs, pairs, weights, init = _potts_case(np.random.default_rng(seed), init_kind,
                                              large_weights)
    labels, energy = alpha_expansion(costs, pairs, weights, init=init)
    want_labels, want_energy = reference_alpha_expansion(costs, pairs, weights, init=init)
    assert labels.tolist() == want_labels.tolist()
    assert np.float64(energy).tobytes() == np.float64(want_energy).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INIT_KINDS), st.booleans(), st.integers(0, 2**32 - 1))
def test_forbidden_label_move_switches_nothing_under_the_skip_condition(init_kind, large, seed):
    # the condition of alpha_expansion's docstring: a label forbidden at
    # every node, every current cost plus 3 times the weight total below
    # BIG / 4; then the move keeps every node
    costs, pairs, weights, init = _potts_case(np.random.default_rng(seed), init_kind, large)
    costs = np.minimum(costs, BIG)
    cur = np.argmin(costs, axis=1) if init is None else init
    if costs[np.arange(len(cur)), cur].max() + 3.0 * weights.sum() >= BIG / 4:
        return
    for alpha in np.flatnonzero(np.all(costs >= BIG, axis=0)):
        assert not _expansion_move(costs, pairs, weights, cur, alpha).any()


def test_forbidden_label_move_switches_when_the_weights_outweigh_big():
    # labels 1 and 2 cut a pair of weight 10 BIG; taking the forbidden label
    # 0 at both nodes costs 2 BIG and saves the pair, so the move must run
    costs = np.array([[BIG, 0.0, BIG], [BIG, BIG, 0.0]])
    switch = _expansion_move(costs, np.array([[0, 1]]), np.array([10 * BIG]), np.array([1, 2]), 0)
    assert switch.tolist() == [True, True]


def test_alpha_expansion_skips_the_moves_that_cannot_switch(monkeypatch):
    # over seeded cases: never a label forbidden at every node while the
    # start is on finite costs and the weights are small, and never more
    # moves than the loop that runs them all
    alphas = spy_moves(monkeypatch)
    rng = np.random.default_rng(29)
    ran = everything = 0
    for k in range(300):
        init_kind, large = INIT_KINDS[k % 3], k % 7 == 0
        costs, pairs, weights, init = _potts_case(rng, init_kind, large)
        alphas.clear()
        got = alpha_expansion(costs, pairs, weights, init=init)
        skipping = alphas[:]
        alphas.clear()
        want = reference_alpha_expansion(costs, pairs, weights, init=init)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
        assert len(skipping) <= len(alphas)
        if init_kind != "forbidden" and not large and np.any(costs < BIG, axis=1).all():
            assert not set(skipping) & set(np.flatnonzero(np.all(costs >= BIG, axis=0)).tolist())
        ran, everything = ran + len(skipping), everything + len(alphas)
    assert ran < 0.7 * everything


def test_alpha_expansion_skips_a_label_that_saw_the_same_labeling(monkeypatch):
    # one node: label 1 wins the first sweep; the second sweep runs labels
    # 0 and 1 again, whose last moves saw the old labeling, but not label 2
    alphas = spy_moves(monkeypatch)
    costs, pairs, weights = np.array([[1.0, 0.0, 2.0]]), np.empty((0, 2), dtype=np.int64), np.empty(0)
    assert alpha_expansion(costs, pairs, weights, init=[0])[0].tolist() == [1]
    assert alphas == [0, 1, 2, 0, 1]
    alphas.clear()
    assert reference_alpha_expansion(costs, pairs, weights, init=[0])[0].tolist() == [1]
    assert alphas == [0, 1, 2, 0, 1, 2]


def test_alpha_expansion_runs_forbidden_labels_from_a_forbidden_init(monkeypatch):
    # every cost is BIG and the init sits on forbidden labels: label 0's move
    # joins the two nodes, which saves the pair weight, so it must run
    alphas = spy_moves(monkeypatch)
    costs, pairs, weights = np.full((2, 2), BIG), np.array([[0, 1]]), np.array([1e15])
    labels, energy = alpha_expansion(costs, pairs, weights, init=[1, 0])
    assert labels.tolist() == [0, 0] and energy == 2 * BIG
    assert alphas == [0, 1, 0]


def _rotated_l_prism():
    v, t = shapes.subdivide(*shapes.l_prism(), 3)
    return shapes.rotate_z(v, math.pi / 4), t


@pytest.mark.parametrize("shape, sensitivity", [
    (lambda: shapes.icosphere(3), 1e-10),
    (_rotated_l_prism, 1e-3),
    (lambda: shapes.torus(nu=32, nv=16), 1e-10),
    (lambda: shapes.subdivide(*shapes.cone(32), 1), 1e-10),
], ids=["icosphere-3", "l-prism-rot45", "torus-32x16", "cone-32-subdivided"])
def test_alpha_expansion_equals_the_net_arc_move(shape, sensitivity, monkeypatch):
    mesh = SurfaceMesh(*shape())
    costs = labeling.data_costs(mesh.normals, CutEnergy(fidelity=3.0, sensitivity=sensitivity))
    pairs, weights = mesh.edge_tris, labeling.smoothness_weights(mesh)
    starts = [None, np.arange(mesh.n_triangles) % 6]  # the nearest axes, and far from optimal
    got = [alpha_expansion(costs, pairs, weights, init=init) for init in starts]
    monkeypatch.setattr(graphcut, "_expansion_move", net_arc_expansion_move)
    want = [alpha_expansion(costs, pairs, weights, init=init) for init in starts]
    for (labels, energy), (want_labels, want_energy) in zip(got, want):
        assert labels.tolist() == want_labels.tolist() and energy == want_energy


def test_compute_labeling_on_an_exact_prism_runs_no_flow(monkeypatch):
    # every node of every move outweighs its pair arcs: no Dinic at all
    calls = []
    monkeypatch.setattr(graphcut, "_dinic", lambda *args: calls.append(args))
    mesh = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 2))
    assert labeling.compute_labeling(mesh).tolist() == labeling.naive_labeling(mesh).tolist()
    assert calls == []


def _recording_arcs(monkeypatch):
    """Record each graph the expansion moves, reduced and reference, hand to
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
    # on up to 10 nodes, against the enumerated cuts of the per-pair graph;
    # the reduced graph, when the move builds one, has no more nodes, each
    # of them with an arc, at most one terminal arc each, and no arc of
    # zero capacity
    graphs = _recording_arcs(monkeypatch)
    rng = np.random.default_rng(40 + MOVE_KINDS.index(kind))
    built = 0
    for _ in range(25):
        costs, pairs, weights, cur = _random_move(rng, kind, max_nodes=10)
        n = len(costs)
        for alpha in range(costs.shape[1]):
            graphs.clear()
            switched = _expansion_move(costs, pairs, weights, cur, alpha)
            reduced = list(graphs)
            reference_expansion_move(costs, pairs, weights, cur, alpha)
            assert len(graphs) == len(reduced) + 1 <= 2
            n_nodes, tails, heads, caps = graphs[-1]
            side = smallest_min_cut_source_side(n_nodes, np.stack((tails, heads), axis=1),
                                                caps, n, n + 1)
            assert (~side[:n]).tolist() == switched.tolist()
            for n_nodes, tails, heads, caps in reduced:
                built += 1
                k = n_nodes - 2
                assert 1 <= k <= n and np.all(caps > 0.0)
                assert set(tails.tolist()) | set(heads.tolist()) >= set(range(k))
                terminal = np.concatenate((heads[tails == k], tails[heads == k + 1]))
                assert len(np.unique(terminal)) == len(terminal)
                assert not np.any((tails == k + 1) | (heads == k))
    assert built >= 10


@pytest.mark.parametrize("costs, pairs, weights, init, match", [
    ([[0.0, np.nan], [1.0, 0.0]], [[0, 1]], [1.0], None, "NaN"),
    ([[0.0, -np.inf], [1.0, 0.0]], [[0, 1]], [1.0], None, "-inf"),
    ([0.0, 1.0], [[0, 1]], [1.0], None, r"\(n, L\)"),
    ([[0.0, 1.0], [1.0, 0.0]], [0, 1], [1.0], None, "node ids"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 2]], [1.0], None, "node ids in 0..1"),
    ([[0.0, 1.0], [1.0, 0.0]], [[-1, 1]], [1.0], None, "node ids"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.5]], [1.0], None, "node ids"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0, 2.0], None, "1 finite non-negative"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [-1.0], None, "non-negative"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [np.nan], None, "finite"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [np.inf], None, "finite"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], [0], "init must be 2 labels"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], [0, 2], r"in 0\.\.1"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], [-1, 0], r"in 0\.\.1"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], [0.7, 1.2], "whole numbers"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], [np.nan, 0.0], "whole numbers"),
    ([[0.0, 1.0], [1.0, 0.0]], [[0, 1]], [1.0], ["0", "1"], "whole numbers"),
    ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1], [1, 2], [0, 2]], [1e308] * 3, None,
     "third of the float range"),
    ([[-1e308, 0.0], [-1e308, 0.0]], [[0, 1]], [1.0], None, "^costs must have a finite total"),
], ids=["nan-cost", "minus-inf-cost", "costs-1d", "pairs-1d", "pair-past-n", "pair-negative",
        "pair-not-integer", "weight-count", "weight-negative", "weight-nan", "weight-inf",
        "init-length", "init-past-L", "init-negative", "init-not-integer", "init-nan",
        "init-strings", "weights-overflow", "costs-overflow"])
@pytest.mark.filterwarnings("error")  # refused before any sum overflows
def test_alpha_expansion_rejects_bad_input(costs, pairs, weights, init, match):
    with pytest.raises(ValueError, match=match):
        alpha_expansion(np.array(costs), np.array(pairs), np.array(weights), init=init)


def test_alpha_expansion_takes_whole_float_init():
    costs, pairs, weights = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0, 1]]), np.array([0.1])
    assert alpha_expansion(costs, pairs, weights, init=[1.0, 0.0])[0].tolist() == [0, 1]


def test_alpha_expansion_allows_inf_costs_and_no_pairs():
    labels, energy = alpha_expansion(np.array([[np.inf, 1.0], [0.5, np.inf]]),
                                     np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert labels.tolist() == [1, 0] and energy == 1.5


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


ZEROS = [[0.0] * 3] * 2


@pytest.mark.parametrize("costs, pairs, weights, labels, match", [
    (ZEROS, [[0, 1]], [1.0], [-1, 0], r"labels must be 2 labels in 0\.\.2"),
    (ZEROS, [[0, -1]], [1.0], [0, 1], "node ids in 0..1"),
    (ZEROS, [[0, 1]], [1.0], [0.7, 1.2], "whole numbers"),
    (ZEROS, [[0, 1]], [np.nan], [0, 1], "finite"),
    (ZEROS, [[0, 1]], [1.0], [3, 0], r"in 0\.\.2"),
    (ZEROS, [[0, 1]], [1.0], [0], "labels must be 2 labels"),
    (ZEROS, [[0.0, 1.0]], [1.0], [0, 1], "node ids"),
    (ZEROS, [[0, 1]], [1.0, 1.0], [0, 1], "1 finite non-negative"),
    ([[-1e308, 0.0], [-1e308, 0.0]], [[0, 1]], [1.0], [0, 0], "^costs must have a finite total"),
], ids=["label-negative", "pair-negative", "label-not-integer", "weight-nan", "label-past-L",
        "label-count", "pair-not-integer", "weight-count", "costs-overflow"])
@pytest.mark.filterwarnings("error")
def test_potts_energy_rejects_what_alpha_expansion_rejects(costs, pairs, weights, labels, match):
    with pytest.raises(ValueError, match=match) as got:
        potts_energy(costs, pairs, weights, labels)
    with pytest.raises(ValueError) as want:
        alpha_expansion(costs, pairs, weights, init=labels)
    assert str(got.value) == str(want.value).replace("init must", "labels must")


@pytest.mark.parametrize("n", [3, 0])
def test_potts_functions_refuse_costs_without_a_label(n):
    # used to fail in numpy's argmin, or as "labels must be 3 labels in 0..-1"
    costs, pairs = np.zeros((n, 0)), np.array([[0, 1]] if n else np.empty((0, 2), dtype=np.int64))
    weights = np.ones(len(pairs))
    for refuse in (lambda: alpha_expansion(costs, pairs, weights),
                   lambda: potts_energy(costs, pairs, weights, np.zeros(n, dtype=np.int64))):
        with pytest.raises(ValueError, match="^costs must have at least one label column$"):
            refuse()


def test_potts_energy_takes_whole_float_labels():
    assert potts_energy(np.zeros((2, 3)), [[0, 1]], [1.0], [1.0, 2.0]) == 1.0


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
