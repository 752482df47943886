"""End-to-end repair pipeline behaviour."""

import functools
import json
import math

import numpy as np
import pytest

from polycubelabel import io, operators
from polycubelabel import pipeline as pl
from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.validity import validate

from helpers import build
from test_operators import cone_quadrants, rotated_torus, split_top_box


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


def test_monotonicity_routine_rejects_graph_of_other_penalty():
    m = rotated_torus()
    g = LabelingGraph(m, naive_labeling(m), turning_point_penalty=2.0)
    with pytest.raises(ValueError, match="turning-point penalty"):
        pl.run_monotonicity_routine(g)


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


def test_escape_hatch_dissolves_boundary_charts():
    m, labels, _ = split_top_box()
    st = pl._start(m, labels, pl.PipelineConfig())
    assert st.report.invalid_boundaries
    assert pl._remove_charts_around_invalid_boundaries(st)
    assert any("escape" in e for e in st.log)
    assert st.valid  # one removal already merges the split halves


def test_failed_status_carries_the_error(cube_mesh):
    res = pl.label_mesh(cube_mesh, pl.PipelineConfig(smoothness_mode="bogus"))
    assert res.status == "failed"
    assert "smoothness" in res.error
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
    assert pl.state_tuple(g, validate(g)) == (6, 12, 8, 0, 0, 0, 0)

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
