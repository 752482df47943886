"""Release gate: eight go/no-go checks, one test per criterion.

`pytest -v tests/test_acceptance.py` prints the per-criterion pass/fail
verdicts; each test also emits an `ACCEPTANCE criterion N: PASS` line with
the measured numbers (visible with -s).  Tolerances are stated inline; a
criterion that cannot be met must fail here rather than be weakened.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from polycubelabel import io, pipeline as pl, shapes
from polycubelabel.graph import Corner, LabelingGraph, optimal_edge_directions
from polycubelabel.graphcut import alpha_expansion, min_st_cut, potts_energy
from polycubelabel.labeling import CutEnergy, compute_labeling, fidelity_score, naive_labeling
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.validity import (
    ValidityRules,
    boundary_is_valid,
    corner_is_valid,
    feature_edge_stats,
    reflex_fraction,
    validate,
)

from helpers import build, chart_euler
from oracles import (
    brute_force_directions,
    brute_force_min_cut,
    brute_force_potts,
    direction_cost,
    random_cut_instance,
    random_potts_instance,
)
from test_operators import (
    all_turning_points,
    cone_quadrants,
    l_hook_box,
    rotated_torus,
    s_curve_box,
    split_top_box,
    zigzag_box,
)
from test_validity import CORNER_TABLE


def _line(n, name, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {n} ({name}): PASS{suffix}")


# ---------------------------------------------------------------- corpus

def _corpus():
    cfg = pl.PipelineConfig()
    yield "cube", build(*shapes.subdivide(*shapes.cube(), 2)), cfg
    yield "cuboid", build(*shapes.subdivide(*shapes.cuboid(1, 2, 3), 2)), cfg
    yield "l-prism", build(*shapes.subdivide(*shapes.l_prism(), 2)), cfg
    yield "t-prism", build(*shapes.subdivide(*shapes.t_prism(), 2)), cfg
    yield "u-prism", build(*shapes.subdivide(*shapes.u_prism(), 2)), cfg
    yield "plus-prism", build(*shapes.subdivide(*shapes.plus_prism(), 2)), cfg
    yield "staircase", build(*shapes.subdivide(*shapes.staircase(4), 1)), cfg
    yield "notched-box", build(*shapes.subdivide(*shapes.notched_box(), 2)), cfg
    yield "wedge", build(*shapes.subdivide(*shapes.wedge(), 2)), cfg
    yield "cylinder", build(*shapes.cylinder(16)), cfg
    yield "sphere", build(*shapes.icosphere(2)), cfg
    yield "torus", build(*shapes.torus()), cfg
    rv, rf = shapes.subdivide(*shapes.l_prism(), 2)
    # exact 45-degree walls tie two labels; the sensitivity tweak untangles them
    yield "rotated-prism", build(shapes.rotate_z(rv, math.pi / 4), rf), \
        pl.PipelineConfig(CutEnergy(sensitivity=1e-3))


@pytest.fixture(scope="module")
def corpus_results():
    t0 = time.perf_counter()
    results = {name: (m, pl.label_mesh(m, cfg)) for name, m, cfg in _corpus()}
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_1_cube_gold_standard(cube_mesh):
    pl.label_mesh(cube_mesh)  # warm the solver before timing
    t0 = time.perf_counter()
    res = pl.label_mesh(cube_mesh)
    elapsed = time.perf_counter() - t0
    g = res.graph
    assert (g.n_charts, g.n_boundaries, g.n_corners) == (6, 12, 8)
    assert res.status == "valid-all-monotone"
    assert g.total_turning_points == 0
    area, uniform = fidelity_score(cube_mesh, res.labels)
    assert area == 1.0 and uniform == 1.0  # exact, not approximate
    stats = feature_edge_stats(cube_mesh, res.labels)
    assert stats["preserved"] == 12 and stats["lost"] == 0
    assert elapsed < 0.1
    _line(1, "cube gold standard", f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_corner_conformance_table():
    checked = 0
    for counts, improved, legacy in CORNER_TABLE:
        for perm in set(itertools.permutations(counts)):
            c = Corner(0, (0,) * sum(perm), tuple(perm), False)
            assert corner_is_valid(c, ValidityRules(corner_rule="improved"))[0] is improved, perm
            assert corner_is_valid(c, ValidityRules(corner_rule="legacy"))[0] is legacy, perm
            checked += 1
    _line(2, "corner conformance table", f"{checked} corner configurations")


def test_criterion_3_same_axis_boundary_rules(cube_mesh, lprism_mesh):
    # convex crease: +Z lid against a -Z-labeled wall, never acceptable
    labels = naive_labeling(cube_mesh)
    labels[cube_mesh.normals[:, 1] > 0.9] = 5
    g = LabelingGraph(cube_mesh, labels)
    convex = [b for b in g.boundaries if b.axis is None]
    assert len(convex) == 1 and reflex_fraction(cube_mesh, convex[0]) == 0.0
    assert not boundary_is_valid(cube_mesh, convex[0])[0]
    assert not boundary_is_valid(cube_mesh, convex[0], ValidityRules(allow_opposite_labels=True))[0]

    # fully reflex crease of the L: +X / -X boundary, flag-gated
    labels = naive_labeling(lprism_mesh)
    wall = np.nonzero(labels == 2)[0]
    inner = wall[
        [np.all(lprism_mesh.vertices[lprism_mesh.triangles[t], 1] <= 1.0 + 1e-9) for t in wall]
    ]
    labels[inner] = 1
    g = LabelingGraph(lprism_mesh, labels)
    reflex = [
        b for b in g.boundaries
        if b.axis is None and reflex_fraction(lprism_mesh, b) == 1.0
    ]
    assert len(reflex) == 1
    assert not boundary_is_valid(lprism_mesh, reflex[0])[0]
    assert boundary_is_valid(lprism_mesh, reflex[0], ValidityRules(allow_opposite_labels=True))[0]
    _line(3, "same-axis boundary rules")


def test_criterion_4_optimizer_oracles():
    t0 = time.perf_counter()

    rng = np.random.default_rng(42)
    for _ in range(200):  # min cut vs full partition enumeration, <= 10 nodes
        n, edges, caps, s, t = random_cut_instance(rng)
        value, side = min_st_cut(n, edges, caps, s, t)
        assert side[s] and not side[t]
        assert value == pytest.approx(brute_force_min_cut(n, edges, caps, s, t), abs=1e-9)

    rng = np.random.default_rng(7)
    gaps = 0
    for _ in range(100):  # expansion vs brute force, <= 8 nodes x 6 labels
        costs, pairs, weights = random_potts_instance(rng)
        labels, energy = alpha_expansion(costs, pairs, weights)
        opt = brute_force_potts(costs, pairs, weights)
        if abs(energy - opt) > 1e-9:
            gaps += 1  # reported below; must stay within the expansion bound
            assert energy <= 2.0 * opt + 1e-9
            init = np.argmin(costs, axis=1)
            assert energy <= potts_energy(costs, pairs, weights, init) + 1e-9
    assert gaps <= 2

    rng = np.random.default_rng(17)
    for _ in range(100):  # direction DP vs 2^n enumeration, n <= 15
        n = int(rng.integers(1, 16))
        signs = rng.uniform(-1.0, 1.0, size=n).tolist()
        cyclic = bool(rng.integers(0, 2))
        mu = float(rng.choice([0.25, 1.0, 3.0]))
        dirs, cost = optimal_edge_directions(signs, mu=mu, cyclic=cyclic)
        assert cost == pytest.approx(direction_cost(dirs, signs, mu, cyclic), abs=1e-12)
        assert cost == pytest.approx(brute_force_directions(signs, mu, cyclic), abs=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(4, "optimizer oracles", f"{elapsed:.1f} s, expansion gap cases: {gaps}")


def test_criterion_5_fragmentation_regression():
    v, f = shapes.subdivide(*shapes.l_prism(), 2)
    v = shapes.jitter(shapes.rotate_z(v, math.pi / 4), 1e-6, seed=5)
    m = SurfaceMesh(v, f)
    n_faces = 8  # six walls plus two caps

    naive_charts = LabelingGraph(m, naive_labeling(m)).n_charts
    runs = [compute_labeling(m, CutEnergy(sensitivity=1e-3)) for _ in range(10)]
    tweaked_charts = LabelingGraph(m, runs[0]).n_charts
    assert tweaked_charts <= n_faces
    assert naive_charts > n_faces
    assert all(np.array_equal(runs[0], r) for r in runs[1:])
    _line(5, "fragmentation regression",
          f"naive {naive_charts} charts vs tweaked {tweaked_charts}, 10 identical runs")


def test_criterion_6_corpus_validity(corpus_results):
    results, elapsed = corpus_results
    assert len(results) >= 10
    statuses = {}
    for name, (m, res) in results.items():
        assert res.report.is_valid, (name, res.status, res.error)
        # independent re-check on a fresh graph, not the pipeline's own report
        assert validate(LabelingGraph(m, res.labels)).is_valid, name
        statuses[name] = res.status
    monotone = sum(s == "valid-all-monotone" for s in statuses.values())
    assert monotone / len(statuses) >= 0.8, statuses
    assert elapsed < 30.0
    _line(6, "corpus validity",
          f"{len(results)} shapes valid, {monotone} all-monotone, {elapsed:.1f} s")


def test_criterion_7_operator_postconditions(lprism_mesh, cube_mesh):
    def check_skip(out, labels):
        assert not out.applied and np.array_equal(out.labels, labels)

    from polycubelabel import operators as ops

    # remove_chart: chart dissolved into neighbor labels / constant skip
    labels = naive_labeling(lprism_mesh)
    g = LabelingGraph(lprism_mesh, labels)
    out = ops.remove_chart(g, 0)
    assert out.applied
    assert LabelingGraph(lprism_mesh, out.labels).n_charts < g.n_charts
    flat = np.zeros(cube_mesh.n_triangles, dtype=np.int64)
    check_skip(ops.remove_chart(LabelingGraph(cube_mesh, flat), 0), flat)

    # fix_invalid_boundary: same-axis boundary eliminated / orthogonal skip
    m, labels, g = split_top_box()
    bad = next(b.index for b in g.boundaries if b.axis is None)
    out = ops.fix_invalid_boundary(g, bad, width=2)
    assert out.applied
    assert all(b.axis is not None for b in LabelingGraph(m, out.labels).boundaries)
    cl = naive_labeling(cube_mesh)
    check_skip(ops.fix_invalid_boundary(LabelingGraph(cube_mesh, cl), 0), cl)

    # fix_invalid_corner: apex buried / valid-corner skip
    m, labels = cone_quadrants(2)
    g = LabelingGraph(m, labels)
    apex = int(np.argmax(m.vertices[:, 2]))
    out = ops.fix_invalid_corner(g, g.corner_at[apex])
    assert out.applied and apex not in LabelingGraph(m, out.labels).corner_at
    check_skip(ops.fix_invalid_corner(LabelingGraph(cube_mesh, cl), 0), cl)

    # increase_chart_valence: 3 -> 4 / square-chart skip
    v, f = shapes.subdivide(*shapes.wedge(), 2)
    m = build(v, f)
    labels = naive_labeling(m)
    g = LabelingGraph(m, labels)
    target = next(c.index for c in g.charts if c.valence == 3)
    out = ops.increase_chart_valence(g, target)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    kept = next(t for t in g.charts[target].triangles if int(t) not in out.changed)
    assert g2.charts[int(g2.chart_of[int(kept)])].valence == 4
    check_skip(ops.increase_chart_valence(LabelingGraph(cube_mesh, cl), 0), cl)

    # join_turning_points_pair: both ends eliminated / degenerate-pair skip
    m, labels, lat = l_hook_box()
    g = LabelingGraph(m, labels)
    t1, t2 = lat[(5, 7, 4)], lat[(6, 4, 4)]
    out = ops.join_turning_points_pair(g, t1, t2)
    assert out.applied
    assert LabelingGraph(m, out.labels).total_turning_points == 0
    check_skip(ops.join_turning_points_pair(g, t1, t1), labels)

    # pull_closest_corner: turning points gone / non-turning-point skip
    m, labels, lat = s_curve_box()
    g = LabelingGraph(m, labels)
    out = ops.pull_closest_corner(g, lat[(8, 3, 4)])
    assert out.applied
    assert LabelingGraph(m, out.labels).total_turning_points == 0
    check_skip(ops.pull_closest_corner(g, lat[(0, 0, 0)]), labels)

    # move_boundary_near_turning_point: count drops / feature-vertex skip
    mt = rotated_torus()
    tl = naive_labeling(mt)
    gt = LabelingGraph(mt, tl)
    drops = 0
    for tp in sorted(all_turning_points(gt)):
        out = ops.move_boundary_near_turning_point(gt, tp, radius=2)
        if out.applied:
            g2 = LabelingGraph(mt, out.labels)
            drops += g2.total_turning_points < gt.total_turning_points
    assert drops >= 1
    check_skip(ops.move_boundary_near_turning_point(g, lat[(8, 3, 4)]), labels)

    # straighten_boundary: zigzag shortened / cyclic skip
    m, labels = zigzag_box()
    g = LabelingGraph(m, labels)
    b = next(x for x in g.boundaries if {x.left_label, x.right_label} == {0, 4})
    out = ops.straighten_boundary(g, b.index)
    assert out.applied
    g2 = LabelingGraph(m, out.labels)
    b2 = next(x for x in g2.boundaries if {x.left_label, x.right_label} == {0, 4})
    assert b2.n_edges < b.n_edges
    mc = SurfaceMesh(*shapes.cylinder(24))
    ll = naive_labeling(mc)
    ll[np.abs(mc.normals[:, 2]) < 0.5] = 0
    check_skip(ops.straighten_boundary(LabelingGraph(mc, ll), 0), ll)

    _line(7, "operator postconditions", "8 operators: applied + skip contracts")


def test_criterion_8_determinism_and_invariants(corpus_results, tmp_path):
    results, _ = corpus_results

    # byte-determinism of the full pipeline on an awkward input
    v, f = shapes.l_prism()
    v = shapes.jitter(shapes.rotate_z(v, math.pi / 4), 1e-6, seed=3)
    m = build(v, f)
    a, b = pl.label_mesh(m), pl.label_mesh(m)
    assert np.array_equal(a.labels, b.labels) and a.op_log == b.op_log
    ra, rb = pl.metrics_report(m, a), pl.metrics_report(m, b)
    ra.pop("durations_seconds"), rb.pop("durations_seconds")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    # Euler relation on every corpus result whose charts are all disks
    euler_checked = 0
    for name, (mesh, res) in results.items():
        genus = (2 - (len(mesh.vertices) - len(mesh.edges) + mesh.n_triangles)) // 2
        g = res.graph
        if all(chart_euler(mesh, c) == 1 for c in g.charts):
            assert g.n_charts - g.n_boundaries + g.n_corners == 2 - 2 * genus, name
            euler_checked += 1
    assert euler_checked >= 10

    # lossless round-trips: labeling files and reports
    for name, (mesh, res) in results.items():
        path = tmp_path / f"{name}.flags"
        io.write_labeling(path, res.labels)
        assert np.array_equal(io.read_labeling(path), res.labels), name
        payload = pl.metrics_report(mesh, res)
        assert json.loads(json.dumps(payload)) == payload, name

    _line(8, "determinism and structural invariants",
          f"Euler relation on {euler_checked} disk-chart results")
