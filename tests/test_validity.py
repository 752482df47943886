import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel.graph import Boundary, Corner, LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.validity import (
    CORNER_RULES,
    ValidityRules,
    boundary_is_valid,
    corner_is_valid,
    feature_edge_stats,
    reflex_fraction,
    validate,
)

from helpers import GRAPH_SHAPES, blob_labeling, build, graph_mesh, noisy_labeling
from oracles import (reference_boundary_is_valid, reference_chart_is_valid,
                     reference_corner_is_valid, reference_reflex_fraction, reference_validate)
from polycubelabel import shapes


def _corner(counts, undefined=False):
    return Corner(0, (0,) * sum(counts), tuple(counts), undefined)


# One row per corner configuration: axis multiset -> (improved, legacy).
# The same-axis pairs that the improved rule newly accepts are the
# (2,0,2) / (2,2,2) rows; an apex where four boundaries of one axis meet
# stays invalid under both rules.
CORNER_TABLE = [
    ((1, 1, 1), True, True),   # X, Y, Z trio
    ((0, 0, 4), False, False), # four Z: cone apex
    ((2, 0, 2), True, False),  # X pair + Z pair
    ((0, 2, 2), True, False),
    ((2, 2, 2), True, False),  # three pairs, valence six
    ((3, 2, 1), False, False), # odd leftover, valence six
    ((1, 1, 2), False, False),
    ((0, 0, 2), False, False), # single-axis pair alone
    ((0, 1, 2), False, False),
    ((4, 2, 2), True, False),
]


@pytest.mark.parametrize("counts,improved,legacy", CORNER_TABLE)
def test_corner_rule_table(counts, improved, legacy):
    for perm in set(itertools.permutations(counts)):
        ok_i, why_i = corner_is_valid(_corner(perm), ValidityRules(corner_rule="improved"))
        ok_l, why_l = corner_is_valid(_corner(perm), ValidityRules(corner_rule="legacy"))
        assert ok_i is improved, (perm, why_i)
        assert ok_l is legacy, (perm, why_l)
        assert ok_i or why_i
        assert ok_l or why_l


def test_corner_undefined_axis_always_invalid():
    ok, why = corner_is_valid(_corner((1, 1, 1), undefined=True))
    assert not ok and "same-axis" in why


def test_corner_unknown_rule():
    with pytest.raises(ValueError, match="corner rule"):
        ValidityRules(corner_rule="modern")


@pytest.mark.parametrize("value", ["no", 0, None])
def test_allow_opposite_labels_that_is_not_a_bool_is_refused(value):
    # "no" is truthy: taken as it is, it would turn the allowance on
    with pytest.raises(ValueError, match=f"allow_opposite_labels must be a bool, not {value!r}"):
        ValidityRules(allow_opposite_labels=value)


def test_unknown_corner_rule_is_refused_where_built():
    # a torus split into +Z and -Z halves has loop boundaries and no corner,
    # so no corner check ever reads the rule: it must be refused up front
    assert CORNER_RULES == ("improved", "legacy")
    m = build(*shapes.torus())
    g = LabelingGraph(m, np.where(m.normals[:, 2] >= 0, 4, 5))
    assert g.n_boundaries and not g.corners
    with pytest.raises(ValueError, match="unknown corner rule 'bogus', not one of"):
        validate(g, ValidityRules(corner_rule="bogus"))


@pytest.mark.parametrize("value", [math.nan, -0.5, 1.5], ids=["nan", "negative", "above-one"])
def test_min_reflex_fraction_outside_0_to_1_is_refused(value):
    with pytest.raises(ValueError, match=f"min_reflex_fraction must be in 0..1, not {value}"):
        ValidityRules(allow_opposite_labels=True, min_reflex_fraction=value)
    for edge in (0.0, 1.0):
        assert ValidityRules(min_reflex_fraction=edge).min_reflex_fraction == edge


@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.sampled_from(["improved", "legacy"]),
)
def test_corner_rule_axis_symmetric(counts, rule):
    """Relabeling the coordinate axes never changes a corner verdict."""
    base = corner_is_valid(_corner(counts), ValidityRules(corner_rule=rule))[0]
    for perm in itertools.permutations(counts):
        assert corner_is_valid(_corner(perm), ValidityRules(corner_rule=rule))[0] == base


def test_chart_rule_threshold():
    # every valence from 0 (one chart) and 3 (a wedge's end caps) to 6 and
    # more (blob labelings), each verdict and reason as the reference's
    wedge = build(*shapes.subdivide(*shapes.wedge(), 2))
    graphs = [LabelingGraph(wedge, np.zeros(wedge.n_triangles, dtype=np.int64)),
              LabelingGraph(wedge, naive_labeling(wedge))]
    graphs += [LabelingGraph(*blob_labeling(shape, 4, seed))
               for shape in ("cube", "l-prism") for seed in range(3)]
    seen = set()
    for g in graphs:
        report = validate(g)
        for chart in g.charts:
            ok, why = reference_chart_is_valid(chart)
            assert (chart.index in report.invalid_charts) is not ok
            assert report.reasons.get(("chart", chart.index), "") == why
            seen.add(min(chart.valence, 6))
    assert seen == set(range(7))


# -- boundary rule on real geometry ----------------------------------------------


def _boundary_between(graph, t_a, t_b):
    ca, cb = int(graph.chart_of[t_a]), int(graph.chart_of[t_b])
    bs = [b for b in graph.boundaries if {b.left_chart, b.right_chart} == {ca, cb}]
    assert len(bs) == 1
    return bs[0]


def test_same_axis_boundary_on_convex_edge_invalid(cube_mesh):
    labels = naive_labeling(cube_mesh)
    top = int(np.nonzero(cube_mesh.normals[:, 2] > 0.9)[0][0])
    side = np.nonzero(cube_mesh.normals[:, 1] > 0.9)[0]
    labels[side] = 5  # -Z on the +Y wall: meets the +Z lid across a convex crease
    g = LabelingGraph(cube_mesh, labels)
    b = _boundary_between(g, top, int(side[0]))
    assert b.axis is None
    assert reflex_fraction(cube_mesh, b) == 0.0
    assert not boundary_is_valid(cube_mesh, b)[0]
    ok, why = boundary_is_valid(cube_mesh, b, ValidityRules(allow_opposite_labels=True))
    assert not ok and "reflex fraction 0.000" in why
    # threshold 0 turns the flag into a blanket opposite-label allowance
    assert boundary_is_valid(
        cube_mesh, b, ValidityRules(allow_opposite_labels=True, min_reflex_fraction=0.0)
    )[0]


def test_same_axis_boundary_on_flat_edge_invalid(cube_mesh):
    labels = naive_labeling(cube_mesh)
    top = np.nonzero(cube_mesh.normals[:, 2] > 0.9)[0]
    labels[top[0]] = 5  # half the lid flipped: same-axis across a flat diagonal
    g = LabelingGraph(cube_mesh, labels)
    b = _boundary_between(g, int(top[0]), int(top[1]))
    assert b.axis is None
    assert not boundary_is_valid(cube_mesh, b, ValidityRules(allow_opposite_labels=True))[0]


def test_same_axis_boundary_on_reflex_edge_needs_flag(lprism_mesh):
    # the two inner faces of the L meet along its reflex crease; relabeling
    # the +Y wall to -X leaves a +X / -X boundary lying entirely on it
    labels = naive_labeling(lprism_mesh)
    g0 = LabelingGraph(lprism_mesh, labels)
    wall = np.nonzero(labels == 2)[0]
    inner_wall = wall[
        [np.all(lprism_mesh.vertices[lprism_mesh.triangles[t], 1] <= 1.0 + 1e-9) for t in wall]
    ]
    labels = labels.copy()
    labels[inner_wall] = 1
    g = LabelingGraph(lprism_mesh, labels)
    # the relabeled wall now touches +X charts twice: across the reflex
    # crease (floor of the notch) and across a convex one (outer prong face)
    same_axis = {round(reflex_fraction(lprism_mesh, b)): b for b in g.boundaries if b.axis is None}
    assert set(same_axis) == {0, 1}
    reflex_b, convex_b = same_axis[1], same_axis[0]
    assert not boundary_is_valid(lprism_mesh, reflex_b)[0]
    assert boundary_is_valid(lprism_mesh, reflex_b, ValidityRules(allow_opposite_labels=True))[0]
    assert not boundary_is_valid(lprism_mesh, convex_b, ValidityRules(allow_opposite_labels=True))[0]


def test_axis_separating_boundaries_always_fine(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    for b in g.boundaries:
        assert boundary_is_valid(cube_mesh, b)[0]


# -- whole-graph aggregation ----------------------------------------------------


def test_validate_cube_clean(cube_mesh):
    rep = validate(LabelingGraph(cube_mesh, naive_labeling(cube_mesh)))
    assert rep.is_valid
    assert rep.summary() == "valid"
    assert rep.reasons == {}


def test_validate_collects_reasons(cube_mesh):
    labels = naive_labeling(cube_mesh)
    top = np.nonzero(cube_mesh.normals[:, 2] > 0.9)[0]
    labels[top[0]] = 5
    rep = validate(LabelingGraph(cube_mesh, labels))
    assert not rep.is_valid
    assert rep.invalid_boundaries  # the flat-diagonal +Z/-Z split
    assert rep.invalid_charts  # the single-triangle charts lose valence
    assert all(isinstance(k, tuple) and isinstance(v, str) for k, v in rep.reasons.items())
    n_invalid = len(rep.invalid_charts) + len(rep.invalid_boundaries) + len(rep.invalid_corners)
    assert n_invalid == len(rep.reasons)
    assert "invalid" in rep.summary()


def test_validate_legacy_rule_rejects_paired_corners():
    # subdivided box with one lid strip flipped produces paired-axis corners
    m = build(*shapes.staircase())
    labels = naive_labeling(m)
    g = LabelingGraph(m, labels)
    improved = validate(g)
    legacy = validate(g, ValidityRules(corner_rule="legacy"))
    assert improved.is_valid
    assert set(improved.reasons) <= set(legacy.reasons)


def test_validate_low_valence_chart(cube_mesh):
    m = build(*shapes.cylinder(24))
    labels = naive_labeling(m)
    labels[np.abs(m.normals[:, 2]) < 0.5] = 0
    rep = validate(LabelingGraph(m, labels))
    assert len(rep.invalid_charts) == 3  # caps touch 1 chart, wall touches 2
    assert "valence" in next(iter(rep.reasons.values()))


# -- feature bookkeeping ---------------------------------------------------------


def test_feature_edge_stats_cube(cube_mesh):
    stats = feature_edge_stats(cube_mesh, naive_labeling(cube_mesh))
    assert stats == {"preserved": 12, "lost": 0, "ignored": 0}


@pytest.mark.parametrize("labels, match", [
    ([-1] * 12, "label -1 of triangle 0 outside 0..5"),
    ([2.5] * 12, "label 2.5 of triangle 0 is not an integer"),
    ([6] * 12, "label 6 of triangle 0 outside 0..5"),
    ([0] * 3, "3 labels for 12 triangles"),
    ([0] * 13, "13 labels for 12 triangles"),
], ids=["negative", "not-integer", "past-5", "too-few", "too-many"])
def test_feature_edge_stats_rejects_labels_outside_the_contract(cube_mesh, labels, match):
    with pytest.raises(ValueError, match=match):
        feature_edge_stats(cube_mesh, labels)


def test_feature_edge_stats_lost(cube_mesh):
    labels = naive_labeling(cube_mesh)
    labels[cube_mesh.normals[:, 2] > 0.9] = 0  # merge lid into the +X wall
    stats = feature_edge_stats(cube_mesh, labels)
    assert stats["preserved"] == 11
    assert stats["lost"] == 1
    assert stats["preserved"] + stats["lost"] == 12


# -- validate on arrays against the per-element loop --------------------------------

RULE_SETS = [
    ValidityRules(),
    ValidityRules(corner_rule="legacy"),
    ValidityRules(allow_opposite_labels=True, min_reflex_fraction=0.0),
    ValidityRules(allow_opposite_labels=True, min_reflex_fraction=0.5),
    ValidityRules(allow_opposite_labels=True, min_reflex_fraction=1.0),
    ValidityRules(allow_opposite_labels=True, min_reflex_fraction=0.5, corner_rule="legacy"),
]


def _assert_same_report(got, want):
    assert (got.invalid_charts, got.invalid_boundaries, got.invalid_corners) == (
        want.invalid_charts, want.invalid_boundaries, want.invalid_corners)
    assert all(type(i) is int for i in got.invalid_charts + got.invalid_boundaries
               + got.invalid_corners)
    assert got.reasons == want.reasons
    assert list(got.reasons) == list(want.reasons)  # charts, boundaries, corners, each by id


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(GRAPH_SHAPES)),
    st.sampled_from(["blobs", "noise"]),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_validate_matches_the_per_element_loop(shape, kind, level, seed):
    m, labels = (blob_labeling(shape, level, seed) if kind == "blobs"
                 else noisy_labeling(shape, (0.01, 0.02, 0.05, 0.2, 1.0)[level], seed))
    g = LabelingGraph(m, labels)
    for rules in RULE_SETS:
        _assert_same_report(validate(g, rules), reference_validate(g, rules))


def test_validate_matches_the_per_element_loop_on_every_kind_of_fault():
    """Noisy l-prism labelings bring up every reason of every rule set."""
    kinds = set()
    for seed in range(12):
        g = LabelingGraph(*noisy_labeling("l-prism", 0.05, seed))
        for rules in RULE_SETS:
            got = validate(g, rules)
            _assert_same_report(got, reference_validate(g, rules))
            kinds |= {why.split()[0] for why in got.reasons.values()}
    assert kinds == {"valence", "separates", "same-axis", "incident", "needs", "boundary"}


def test_boundary_rule_matches_the_reference_at_reflex_fractions_around_one_half():
    m = graph_mesh("l-prism")
    reflex = np.flatnonzero(m.dihedral_angles > math.pi + 1e-6).tolist()
    flat = np.flatnonzero(np.abs(m.dihedral_angles - math.pi) < 1e-6).tolist()
    assert len(reflex) >= 3 and len(flat) >= 4
    for n_reflex, n_flat in [(0, 4), (1, 3), (1, 1), (2, 2), (3, 1), (2, 0)]:
        edges = tuple(reflex[:n_reflex] + flat[:n_flat])
        b = Boundary(0, 0, 1, 0, 1, (), edges, False, None)
        assert reflex_fraction(m, b) == reference_reflex_fraction(m, b) == n_reflex / len(edges)
        for rules in RULE_SETS:
            assert boundary_is_valid(m, b, rules) == reference_boundary_is_valid(m, b, rules)


def test_corner_lookup_matches_the_reference_on_every_count_up_to_seven():
    for counts in itertools.product(range(8), repeat=3):
        for undefined in (False, True):
            c = _corner(counts, undefined)
            for rules in RULE_SETS[:2]:
                assert corner_is_valid(c, rules) == reference_corner_is_valid(c, rules), counts
