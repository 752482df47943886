"""Each output check of the benchmark passes a right output and rejects a
wrong one; the tracer changes no output; the speed scaling does what it says.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import Geometry, Reject  # noqa: E402
from polycubelabel import cli, io, labeling, operators, pipeline, shapes  # noqa: E402
from polycubelabel.graph import LabelingGraph  # noqa: E402
from polycubelabel.mesh import SurfaceMesh  # noqa: E402
from polycubelabel.validity import ValidityReport, validate  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def box():
    v, t = shapes.subdivide(*shapes.cuboid(2.0, 1.0, 1.0), 3)
    geo = Geometry(v, t)
    return v, t, geo, inputs.nearest_axis(geo.normals)


@pytest.fixture
def labeled(box, tmp_path):
    """A box labeled through the CLI: its flags, report and PLY."""
    v, t, geo, _ = box
    io.write_obj(tmp_path / "box.obj", v, t)
    out = {k: str(tmp_path / f"box.{k}") for k in ("flags", "json", "ply")}
    assert cli.main(["label", str(tmp_path / "box.obj"), "-o", out["flags"],
                     "--report", out["json"], "--viz", out["ply"]]) == 0
    labels = checks.parse_flags(Path(out["flags"]).read_text(), geo.n_triangles)
    return geo, labels, json.loads(Path(out["json"]).read_text()), Path(out["ply"]).read_text()


def _island(geo, labels, label_of):
    """``labels`` with a 1-ring island inside the +Z face relabeled."""
    adjacency = inputs.neighbours(geo.tris)
    centroids = geo.verts[geo.tris].mean(axis=1)
    dist = np.linalg.norm(centroids - [1.0, 0.5, 1.0], axis=1)
    top = int(np.argmin(np.where(labels == 4, dist, np.inf)))
    out = labels.copy()
    out[sorted(inputs.grow_rings(adjacency, top, 1))] = label_of
    return out


def test_parse_flags_rejects_wrong_length_and_range(box):
    _, _, geo, naive = box
    text = "".join(f"{x}\n" for x in naive)
    assert np.array_equal(checks.parse_flags(text, geo.n_triangles), naive)
    with pytest.raises(Reject):
        checks.parse_flags(text + "0\n", geo.n_triangles)
    with pytest.raises(Reject):
        checks.parse_flags(text.replace("0", "6", 1), geo.n_triangles)


def test_charts_count_same_label_components(box):
    _, _, geo, naive = box
    assert checks.charts(geo, naive)[0] == 6
    assert checks.charts(geo, _island(geo, naive, 0))[0] == 7


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(charts=r["charts"] + 1),
    lambda r: r["label_counts"].update({"+X": r["label_counts"]["+X"] + 1}),
    lambda r: r["fidelity"].update(area_weighted=r["fidelity"]["area_weighted"] - 1e-6),
    lambda r: r["feature_edges"].update(preserved=r["feature_edges"]["preserved"] - 1),
    lambda r: r["feature_edges"].update(lost=r["feature_edges"]["lost"] + 1),
    lambda r: r.update(invalid_boundaries=1),
    lambda r: r.update(status="valid"),
])
def test_check_report_rejects_each_wrong_field(labeled, corrupt):
    geo, labels, report, _ = labeled
    checks.check_report(report, geo, labels)
    bad = json.loads(json.dumps(report))
    corrupt(bad)
    with pytest.raises(Reject):
        checks.check_report(bad, geo, labels)


def test_check_report_rejects_a_report_of_other_labels(labeled):
    geo, labels, report, _ = labeled
    with pytest.raises(Reject):
        checks.check_report(report, geo, _island(geo, labels, 0))


def test_check_valid_labeling_rejects_low_valence_and_same_axis(box):
    _, _, geo, naive = box
    checks.check_valid_labeling(geo, naive)
    with pytest.raises(Reject, match="touches 1 charts"):
        checks.check_valid_labeling(geo, _island(geo, naive, 0))  # +X island in +Z
    with pytest.raises(Reject, match="one axis"):
        checks.check_valid_labeling(geo, _island(geo, naive, 5))  # -Z island in +Z


def test_check_nearest_axis_rejects_one_flipped_triangle(box):
    _, _, geo, naive = box
    checks.check_nearest_axis(geo, naive)
    bad = naive.copy()
    bad[0] ^= 1
    with pytest.raises(Reject):
        checks.check_nearest_axis(geo, bad)


def test_check_verdict_against_construction(labeled):
    _, _, report, _ = labeled
    checks.check_verdict(report, broken=False)
    with pytest.raises(Reject):
        checks.check_verdict(report, broken=True)
    invalid = dict(report, status="invalid", invalid_boundaries=1)
    checks.check_verdict(invalid, broken=True)
    with pytest.raises(Reject):
        checks.check_verdict(invalid, broken=False)
    with pytest.raises(Reject):
        checks.check_verdict(dict(invalid, invalid_boundaries=0), broken=True)


def test_paint_opposite_breaks_a_boundary(box):
    _, _, geo, naive = box
    broken = inputs.paint_opposite(inputs.neighbours(geo.tris), naive, geo.normals,
                                   np.random.default_rng(0), rings=1)
    mesh = SurfaceMesh(geo.verts, geo.tris)
    assert validate(LabelingGraph(mesh, naive)).is_valid
    assert validate(LabelingGraph(mesh, broken)).invalid_boundaries


@pytest.mark.parametrize("corrupt", [
    lambda s: s.replace("element face", "element face 1 #", 1),
    lambda s: s[: s.rindex("\n", 0, len(s) - 1) + 1],  # last face dropped
    lambda s: s[:-2] + ("1\n" if s[-2] != "1" else "2\n"),  # last colour byte
    lambda s: s.replace("end_header\n", "end_header\n0 ", 1),
])
def test_check_ply_rejects_wrong_exports(labeled, corrupt):
    geo, labels, _, ply = labeled
    checks.check_ply(ply, geo, labels, labeling.LABEL_COLORS)
    with pytest.raises(Reject):
        checks.check_ply(corrupt(ply), geo, labels, labeling.LABEL_COLORS)


def test_check_ply_rejects_other_labels(labeled):
    geo, labels, _, ply = labeled
    with pytest.raises(Reject):
        checks.check_ply(ply, geo, _island(geo, labels, 0), labeling.LABEL_COLORS)


def _repair_item():
    v, t = shapes.subdivide(*shapes.cuboid(2.0, 1.0, 1.0), 3)
    mesh = SurfaceMesh(v, t)
    geo = Geometry(v, t)
    init = inputs.interior_blobs(t, mesh.triangle_adjacency, inputs.nearest_axis(geo.normals),
                                 np.random.default_rng(3))
    return workloads.Item(inputs.Case("box", v, t, init), mesh=mesh, init=init.copy(), geo=geo)


def test_repair_check_rejects_mutated_start_and_false_valid():
    w = workloads.RepairNoise()
    item = _repair_item()
    result = w.run(item)
    assert not w.check(item, result).failed
    start = item.case.labels.copy()  # not valid, but claimed so below
    wrong = pipeline.PipelineResult(start, LabelingGraph(item.mesh, start),
                                    ValidityReport(), "valid-all-monotone")
    with pytest.raises(Reject, match="re-validates"):
        w.check(item, wrong)
    item.case.labels[0] ^= 1
    with pytest.raises(Reject, match="mutated"):
        w.check(item, result)


def test_tracer_keeps_outputs_and_names_and_restores():
    w = workloads.RepairNoise()
    item = _repair_item()
    plain = w.check(item, w.run(item)).digest
    before = (pipeline.LabelingGraph, operators.remove_chart, cli.main)
    tracer = Tracer()
    with tracer:
        assert operators.remove_chart.__name__ == "remove_chart"
        assert pipeline.LabelingGraph.__name__ == "LabelingGraph"
        traced = w.check(item, w.run(item)).digest
    assert (pipeline.LabelingGraph, operators.remove_chart, cli.main) == before
    assert traced == plain
    m = tracer.layer_metrics()
    assert m["graph.builds"] >= 2 and m["operators.remove_chart.attempts"] >= 1
    assert m["operators.remove_chart.accepted"] <= m["operators.remove_chart.applied"]


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    calls, total, own = tracer.totals()
    assert calls["inner"] == 2 and total["inner"] == 4.0
    assert own["outer"] == 6.0 and own["inner"] == 4.0


def test_scaled_time_follows_wall_time_and_machine_speed():
    assert speed.scaled(1.0, speed.REF_S, speed.REF_S) == pytest.approx(1.0)
    assert speed.scaled(2.0, speed.REF_S, speed.REF_S) == pytest.approx(2.0)
    # a machine half as fast: reference and operation both take twice as long
    assert speed.scaled(2.0, 2 * speed.REF_S, 2 * speed.REF_S) == pytest.approx(1.0)
    assert speed.scaled(1.0, speed.REF_S, 3 * speed.REF_S) == pytest.approx(0.5)


def test_sample_is_positive_and_leaves_the_garbage_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert speed.sample() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert speed.sample() > 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert speed.reference() == speed.reference()
