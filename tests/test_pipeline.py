"""End-to-end repair pipeline behaviour."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycubelabel import io, operators
from polycubelabel import pipeline as pl
from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import CutEnergy, naive_labeling
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.validity import validate

from helpers import NOISE_SHAPES, build, noise_mesh, paint_blobs
from test_operators import box_mesh, cone_quadrants, rotated_torus, split_top_box, top_cell


def test_cube_end_to_end(cube_mesh):
    res = pl.label_mesh(cube_mesh)
    assert res.status == "valid-all-monotone"
    assert res.graph.n_charts == 6
    assert res.graph.total_turning_points == 0
    assert res.iterations == 0 and res.op_log == []
    assert set(res.durations) == {"initial", "validity", "monotonicity", "total"}
    assert res.error is None


def test_awkward_shapes_end_valid():
    sv, sf = shapes.staircase()
    meshes = [
        build(*shapes.l_prism()),
        build(shapes.rotate_z(sv, 0.3), sf),
        build(*shapes.icosphere(2)),
        rotated_torus(),
    ]
    for m in meshes:
        res = pl.label_mesh(m)
        assert res.status in ("valid-all-monotone", "valid-with-turning-points")
        # re-confirm from scratch, not trusting the pipeline's own report
        assert validate(LabelingGraph(m, res.labels)).is_valid


def test_monotonicity_routine_reduces_turning_points():
    m = rotated_torus()
    labels = naive_labeling(m)
    before = LabelingGraph(m, labels).total_turning_points
    assert before > 0
    log = []
    out, g, report = pl.run_monotonicity_routine(LabelingGraph(m, labels), log=log)
    assert report.is_valid
    assert g.total_turning_points < before
    assert log  # the improvement was made by logged operator steps


def test_validity_routine_fixes_same_axis_boundary():
    m, labels, g = split_top_box()
    assert any(b.axis is None for b in g.boundaries)
    log = []
    out, g2, report, iterations = pl.run_validity_routine(m, labels, log=log)
    assert report.is_valid and iterations == 1
    assert any(e.startswith("fix_invalid_boundary") for e in log)
    assert all(b.axis is not None for b in g2.boundaries)


def test_validity_routine_buries_cone_apex():
    m, labels = cone_quadrants(2)
    log = []
    out, g, report, _ = pl.run_validity_routine(m, labels, log=log)
    assert report.is_valid
    assert any(e.startswith("fix_invalid_corner") for e in log)


def test_validity_routine_noop_on_valid_input(cube_mesh):
    labels = naive_labeling(cube_mesh)
    out, g, report, iterations = pl.run_validity_routine(cube_mesh, labels)
    assert iterations == 0
    assert np.array_equal(out, labels)


def test_noisy_l_prism_start_ends_valid_with_its_charts(monkeypatch):
    # seed-5 blobs of the benchmark's noise generator; the validity routine
    # once dissolved this start down to one invalid chart
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    m = build(*shapes.subdivide(*shapes.l_prism(), 2))
    start = inputs.random_blobs(inputs.neighbours(m.triangles), inputs.nearest_axis(m.normals),
                                np.random.default_rng(5))
    res = pl.label_mesh(m, init_labels=start)
    assert res.status in ("valid-all-monotone", "valid-with-turning-points")
    assert res.graph.n_charts >= 6


def test_failed_status_carries_the_error(cube_mesh, monkeypatch):
    def crash(*args, **kw):
        raise RuntimeError("the cut crashed")

    monkeypatch.setattr(pl, "compute_labeling", crash)
    res = pl.label_mesh(cube_mesh)
    assert res.status == "failed"
    assert res.error == "RuntimeError: the cut crashed"
    assert res.report is not None  # placeholder state, still inspectable


def test_init_labels_bypass_the_solver(cube_mesh):
    res = pl.label_mesh(cube_mesh, init_labels=naive_labeling(cube_mesh))
    assert res.status == "valid-all-monotone"
    assert np.array_equal(res.labels, naive_labeling(cube_mesh))


def test_init_labels_that_are_not_integers_are_refused(cube_mesh, tmp_path):
    # refused like the labeling writer refuses them, not truncated and repaired
    labels = naive_labeling(cube_mesh) + 0.7
    with pytest.raises(ValueError, match="of triangle 0 is not an integer") as run:
        pl.label_mesh(cube_mesh, init_labels=labels)
    with pytest.raises(ValueError) as written:
        io.write_labeling(tmp_path / "x.flags", labels)
    assert str(run.value) == str(written.value)
    whole = pl.label_mesh(cube_mesh, init_labels=naive_labeling(cube_mesh).astype(np.float64))
    assert whole.status == "valid-all-monotone"


def test_init_labels_of_the_wrong_length_are_refused(cube_mesh):
    # refused up front, not from inside the crash-catching fallback
    with pytest.raises(ValueError, match="has 5 labels, the mesh 12 triangles") as run:
        pl.label_mesh(cube_mesh, init_labels=np.zeros(5, dtype=np.int64))
    assert run.value.__context__ is None


@pytest.mark.parametrize("name, value, match", [
    ("compactness", math.inf, "compactness must be finite and non-negative, not inf"),
    ("compactness", -1.0, "compactness must be finite and non-negative, not -1.0"),
    ("fidelity", math.nan, "fidelity must be finite and non-negative, not nan"),
    ("fidelity", -0.5, "fidelity must be finite and non-negative"),
    ("sensitivity", math.nan, "sensitivity must be finite, not nan"),
    ("tilt_angle", -math.inf, "tilt_angle must be finite, not -inf"),
    ("smoothness_mode", "bogus", "unknown smoothness mode 'bogus'"),
], ids=["compactness-inf", "compactness-negative", "fidelity-nan", "fidelity-negative",
        "sensitivity-nan", "tilt-angle-minus-inf", "smoothness-mode-bogus"])
def test_cut_energy_outside_the_contract_is_refused(name, value, match):
    # refused where the energy is built, so no run can start with it
    with pytest.raises(ValueError, match=match):
        CutEnergy(**{name: value})


@pytest.mark.parametrize("value", [-3, 2.5, True, "3"])
def test_max_iterations_outside_the_contract_is_refused(value):
    with pytest.raises(ValueError, match=f"max_iterations must be a non-negative int, not {value!r}"):
        pl.PipelineConfig(max_iterations=value)
    assert pl.PipelineConfig(max_iterations=0).max_iterations == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pl.PipelineConfig().max_iterations = value


def test_remove_chart_solves_with_the_run_cut_energy(monkeypatch):
    energy = CutEnergy(compactness=2.5, fidelity=2.0, smoothness_mode="angle-proportional",
                       sensitivity=1e-3, tilt_angle=0.1)
    seen = []
    relabel = operators.restricted_relabel

    def recording(*args, **kw):
        seen.append({k: v for k, v in kw.items() if k != "allowed"})
        return relabel(*args, **kw)

    monkeypatch.setattr(operators, "restricted_relabel", recording)
    m = box_mesh()
    labels = naive_labeling(m)
    labels[top_cell(3, 3)] = 0  # a +X island on the +Z face
    res = pl.label_mesh(m, pl.PipelineConfig(energy), init_labels=labels)
    assert res.op_log[0].startswith("remove_chart")
    assert seen and all(kw == {"energy": energy} for kw in seen)


def _repair_noise_torus():
    """perfbench's repair-noise torus, turned 0.25 rad about z, then 0.2 about x."""
    v, f = shapes.torus(R=2, r=1, nu=64, nv=32)
    c, s = math.cos(0.2), math.sin(0.2)
    m = SurfaceMesh(shapes.rotate_z(v, 0.25) @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]]).T, f)
    return pl.label_mesh(m, init_labels=naive_labeling(m))


def _cone_apex():
    m, labels = cone_quadrants(2)
    return pl.label_mesh(m, init_labels=labels)


def _wedge():
    return pl.label_mesh(SurfaceMesh(*shapes.subdivide(*shapes.wedge(), 3)))


PINNED_RUNS = {
    "repair-noise-torus": (_repair_noise_torus, [
        "move_boundary_near_turning_point target=1709/3 changed=8",
        "straighten_boundary target=0 changed=44",
        "straighten_boundary target=1 changed=6",
        "straighten_boundary target=4 changed=6",
        "straighten_boundary target=4 changed=26",
        "straighten_boundary target=8 changed=42",
        "straighten_boundary target=9 changed=26",
        "straighten_boundary target=13 changed=20",
        "straighten_boundary target=14 changed=69",
        "straighten_boundary target=15 changed=10",
        "straighten_boundary target=16 changed=4",
        "straighten_boundary target=20 changed=55",
        "straighten_boundary target=21 changed=26",
        "straighten_boundary target=22 changed=8",
        "straighten_boundary target=23 changed=12",
    ], "d8a2b99509b53acb291fc4e5b48ef12c813dcc059512d4dd705da3ed56adcca8"),
    "cone-apex": (_cone_apex, [
        "fix_invalid_corner target=4 changed=32",
    ], "746a98d459078e168e3f9c838961db48a1ef3407842aacc1a953d0b1235875c4"),
    "wedge": (_wedge, [
        "increase_chart_valence target=0 changed=16",
    ], "33afd0bb60b1f50fc2778ffac7b5f3c26df58318a242e78b6402d0446383f690"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_repair_log_and_labels_are_pinned(name):
    run, log, digest = PINNED_RUNS[name]
    res = run()
    assert res.status == "valid-all-monotone"
    assert res.op_log == log
    assert hashlib.sha256(res.labels.astype(np.int64).tobytes()).hexdigest() == digest


def test_label_mesh_deterministic():
    v, f = shapes.l_prism()
    v = shapes.jitter(shapes.rotate_z(v, 0.25), 1e-6, seed=3)
    m = build(v, f)
    a = pl.label_mesh(m)
    b = pl.label_mesh(m)
    assert np.array_equal(a.labels, b.labels)
    assert a.op_log == b.op_log and a.status == b.status


def test_metrics_report_schema_and_reproducibility(lprism_mesh):
    reports = []
    for _ in range(2):
        res = pl.label_mesh(lprism_mesh)
        rep = pl.metrics_report(lprism_mesh, res)
        assert rep["schema_version"] == 1
        assert sum(rep["label_counts"].values()) == lprism_mesh.n_triangles
        assert 0.0 <= rep["fidelity"]["area_weighted"] <= 1.0
        assert set(rep["durations_seconds"]) == {"initial", "validity", "monotonicity", "total"}
        rep.pop("durations_seconds")  # timings are the only non-reproducible part
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_status_classification(cube_mesh):
    g = LabelingGraph(cube_mesh, naive_labeling(cube_mesh))
    assert pl.labeling_status(g, validate(g)) == "valid-all-monotone"

    m = rotated_torus()
    g = LabelingGraph(m, naive_labeling(m))
    assert pl.labeling_status(g, validate(g)) == "valid-with-turning-points"

    m, labels, g = split_top_box()
    assert pl.labeling_status(g, validate(g)) == "invalid"


OPERATORS = (
    "remove_chart", "fix_invalid_boundary", "fix_invalid_corner",
    "increase_chart_valence", "join_turning_points_pair", "pull_closest_corner",
    "move_boundary_near_turning_point", "straighten_boundary",
)


@pytest.fixture
def counted(monkeypatch):
    """Counts LabelingGraph builds in the pipeline and applied operator outcomes."""
    counts = {"builds": 0, "applied": 0}

    class CountingGraph(LabelingGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["builds"] += 1

    def counting(op):
        @functools.wraps(op)
        def wrapper(*args, **kwargs):
            out = op(*args, **kwargs)
            counts["applied"] += out.applied
            return out
        return wrapper

    monkeypatch.setattr(pl, "LabelingGraph", CountingGraph)
    for name in OPERATORS:
        monkeypatch.setattr(operators, name, counting(getattr(operators, name)))
    return counts


def test_label_mesh_builds_a_valid_start_once(cube_mesh, counted):
    res = pl.label_mesh(cube_mesh, init_labels=naive_labeling(cube_mesh))
    assert res.status == "valid-all-monotone"
    assert counted == {"builds": 1, "applied": 0}


def test_label_mesh_builds_one_graph_per_applied_outcome(counted):
    m, labels = cone_quadrants(2)
    res = pl.label_mesh(m, init_labels=labels)
    assert res.status.startswith("valid")
    assert counted["applied"] >= len(res.op_log) > 0
    assert counted["builds"] == 1 + counted["applied"]


def test_label_mesh_validates_each_graph_it_builds_once(monkeypatch):
    # a noisy start that the validity routine repairs and the monotonicity
    # routine takes over: the graph they hand over is validated once too,
    # and the routine is still reached through its module attribute, which
    # perfbench's tracer wraps
    built, validated, handed = [], [], []

    class Recording(LabelingGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def recording(graph, rules):
        validated.append(graph)
        return validate(graph, rules)

    def monotonicity(graph, *args, **kwargs):
        handed.append(graph)
        return run_monotonicity(graph, *args, **kwargs)

    run_monotonicity = pl.run_monotonicity_routine
    monkeypatch.setattr(pl, "LabelingGraph", Recording)
    monkeypatch.setattr(pl, "validate", recording)
    monkeypatch.setattr(pl, "run_monotonicity_routine", monotonicity)
    m = noise_mesh("tilted-torus")
    res = pl.label_mesh(m, init_labels=paint_blobs(m, np.random.default_rng(3), 4))
    assert res.status.startswith("valid") and res.op_log
    assert len(built) > 1 and [id(g) for g in validated] == [id(g) for g in built]
    assert len(handed) == 1 and handed[0] in built


# The random starts of a stress run: hundreds of outcomes repaint charts in
# part, so every graph the repair builds from its parent, and every DP row
# it looks up, is held to the bytes of the full build. Pinned before graphs
# were built from their parents: (op-log lines, graph builds, sha256 of the
# labels, sha256 of the op log joined by newlines).
RANDOM_STARTS = {
    2: (160, 163, "206e55d37842d7df2847b4126b04d2630335a91a08202935c6cbc91606cce032",
        "62977c3b395c21b8b66f05554f76e0d88877678c34e50621fb866ff5b18479ba"),
    3: (687, 696, "93599fb38f3495c88bf04bbe79ae2ad37fb869322ca1d3801aa15a99907b6a3c",
        "5369b81d3031489e86078b1acea3ba39b1af65bacc7d774f6fda9e31e93e060b"),
}
# (calls, applied outcomes) per operator on the same starts; ROADMAP item 8
# states its aim in these counts. Operators the repair never calls are left out.
RANDOM_START_CALLS = {
    2: {"fix_invalid_boundary": (72, 72), "fix_invalid_corner": (225, 38),
        "join_turning_points_pair": (1, 0), "move_boundary_near_turning_point": (2, 2),
        "remove_chart": (44, 44), "straighten_boundary": (18, 6)},
    3: {"fix_invalid_boundary": (214, 214), "fix_invalid_corner": (6378, 222),
        "join_turning_points_pair": (15, 0), "move_boundary_near_turning_point": (6, 6),
        "remove_chart": (232, 232), "straighten_boundary": (62, 21)},
}


@pytest.mark.parametrize("level", sorted(RANDOM_STARTS))
def test_random_start_on_an_icosphere_is_pinned(level, monkeypatch):
    built = []  # whether each graph was built from a parent

    class Recording(LabelingGraph):
        def __init__(self, mesh, labels, parent=None):
            super().__init__(mesh, labels, parent)
            built.append(parent is not None)

    calls = {}  # operator name: [calls, applied outcomes]

    def counted(op):
        @functools.wraps(op)  # the op log names the operator
        def call(*args, **kw):
            out = op(*args, **kw)
            count = calls.setdefault(op.__name__, [0, 0])
            count[0] += 1
            count[1] += bool(out.applied)
            return out
        return call

    monkeypatch.setattr(pl, "LabelingGraph", Recording)
    for name in ("increase_chart_valence", "fix_invalid_boundary", "fix_invalid_corner",
                 "remove_chart", "join_turning_points_pair", "pull_closest_corner",
                 "move_boundary_near_turning_point", "straighten_boundary"):
        monkeypatch.setattr(operators, name, counted(getattr(operators, name)))
    m = SurfaceMesh(*shapes.icosphere(level))
    res = pl.label_mesh(m, init_labels=np.random.default_rng(0).integers(0, 6, m.n_triangles))
    lines, builds, labels_sha, log_sha = RANDOM_STARTS[level]
    assert {name: tuple(c) for name, c in calls.items()} == RANDOM_START_CALLS[level]
    assert res.status == "valid-with-turning-points"
    assert len(res.op_log) == lines
    assert built == [False] + [True] * (builds - 1)  # only the start is built cold
    assert hashlib.sha256(res.labels.astype(np.int64).tobytes()).hexdigest() == labels_sha
    assert hashlib.sha256("\n".join(res.op_log).encode()).hexdigest() == log_sha


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NOISE_SHAPES)), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pipeline_invariants_on_label_noise(shape, n_blobs, seed):
    """From blobs of random labels on a corpus shape the repair never
    crashes, a valid result re-validates from a fresh graph, and the same
    start gives the same labels and op log twice."""
    m = noise_mesh(shape)
    start = paint_blobs(m, np.random.default_rng(seed), n_blobs)
    res = pl.label_mesh(m, init_labels=start)
    assert res.status != "failed", res.error
    if res.status != "invalid":
        assert validate(LabelingGraph(m, res.labels)).is_valid
    again = pl.label_mesh(m, init_labels=start)
    assert again.labels.tobytes() == res.labels.tobytes() and again.op_log == res.op_log


# Shapes whose labels a power-of-two scale leaves byte-equal. All but the
# icosphere are axis-aligned, and a signed axis permutation permutes their
# labels too; on icosphere(3) rounding noise picks the tie-breaks, and only
# 2 of the 48 permutations permute its labels.
INVARIANT_SHAPES = {
    "l-prism": lambda: shapes.subdivide(*shapes.l_prism(), 2),
    "cone": lambda: shapes.subdivide(*shapes.cone(16), 2),
    "cylinder": shapes.cylinder,
    "staircase": shapes.staircase,
    "notched-box": shapes.notched_box,
    "torus": lambda: shapes.torus(nu=32, nv=16),
    "icosphere": lambda: shapes.icosphere(3),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_SHAPES))
def test_power_of_two_scaling_keeps_the_labels(name):
    v, f = INVARIANT_SHAPES[name]()
    want = pl.label_mesh(SurfaceMesh(v, f)).labels
    for k in (-30, -10, 10, 30):
        got = pl.label_mesh(SurfaceMesh(np.asarray(v) * 2.0**k, f)).labels
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("name", sorted(set(INVARIANT_SHAPES) - {"icosphere"}))
def test_signed_axis_permutations_permute_the_labels(name):
    v, f = map(np.asarray, INVARIANT_SHAPES[name]())
    want = pl.label_mesh(SurfaceMesh(v, f)).labels
    for p in map(list, itertools.permutations(range(3))):
        for s in map(np.array, itertools.product((1.0, -1.0), repeat=3)):
            # coordinate i becomes s[i] times coordinate p[i]; a reflection
            # keeps the surface outward by reversing each triangle's winding
            mirrored = np.linalg.det(np.eye(3)[p] * s[:, None]) < 0
            got = pl.label_mesh(SurfaceMesh(v[:, p] * s, f[:, ::-1] if mirrored else f)).labels
            # a label of axis a and sign +-1 goes to axis i = p.index(a), sign times s[i]
            i = np.argsort(p)[np.arange(6) >> 1]
            assert np.array_equal(got, (2 * i + ((np.arange(6) & 1) ^ (s[i] < 0)))[want]), (p, s)
