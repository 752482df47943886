import subprocess
import sys

import numpy as np
import pytest

from polycubelabel.graphcut import BIG, _paired_arcs, alpha_expansion, min_st_cut, potts_energy

from oracles import (
    brute_force_min_cut,
    brute_force_potts,
    push_arcs_one_by_one,
    random_cut_instance,
    random_potts_instance,
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


def test_paired_arcs_match_one_by_one_build():
    rng = np.random.default_rng(8)
    for m in [0, 1, 2, 3, 7, 50, 200]:
        n = int(rng.integers(1, 12))
        tails, heads = rng.integers(0, n, size=(2, m))  # self-loops and repeats too
        caps = rng.uniform(0.0, 5.0, size=m)
        got = _paired_arcs(n, tails, heads, caps)
        want = push_arcs_one_by_one(n, tails, heads, caps)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


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


def test_pure_python_fallback_matches_numba(tmp_path):
    """Same answers with POLYCUBELABEL_NO_NUMBA=1 in a fresh interpreter."""
    import os

    script = tmp_path / "probe.py"
    script.write_text(
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from polycubelabel.graphcut import min_st_cut, alpha_expansion, HAVE_NUMBA\n"
        "from oracles import random_cut_instance, random_potts_instance\n"
        "rng = np.random.default_rng(99)\n"
        "out = []\n"
        "for _ in range(10):\n"
        "    n, e, c, s, t = random_cut_instance(rng)\n"
        "    out.append(round(min_st_cut(n, e, c, s, t)[0], 12))\n"
        "for _ in range(10):\n"
        "    c, p, w = random_potts_instance(rng)\n"
        "    labs, en = alpha_expansion(c, p, w)\n"
        "    out.append(list(map(int, labs)))\n"
        "    out.append(round(en, 12))\n"
        "print(HAVE_NUMBA, out)\n"
    )
    here = os.path.dirname(__file__)
    base = {k: v for k, v in os.environ.items() if k != "POLYCUBELABEL_NO_NUMBA"}
    runs = {}
    for flag in (None, "1"):
        env = base if flag is None else dict(base, POLYCUBELABEL_NO_NUMBA=flag)
        proc = subprocess.run(
            [sys.executable, str(script), here],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        runs[flag] = proc.stdout
    numba_payload = runs[None].split(" ", 1)[1]
    flag_state, plain_payload = runs["1"].split(" ", 1)
    assert flag_state == "False"
    assert numba_payload == plain_payload
