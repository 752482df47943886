"""CLI wiring: exit codes, file outputs, stderr diagnostics."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import polycubelabel
from polycubelabel import cli, io, shapes
from polycubelabel import operators as ops
from polycubelabel.cli import main
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh

from helpers import cube_with_a_stray_vertex, two_cubes_sharing_a_vertex, two_disjoint_cubes

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def cube_files(tmp_path):
    v, f = shapes.cube()
    mesh = tmp_path / "cube.obj"
    io.write_obj(mesh, v, f)
    flags = tmp_path / "cube.flags"
    io.write_labeling(flags, naive_labeling(SurfaceMesh(v, f)))
    return mesh, flags


def test_label_writes_all_outputs(tmp_path, cube_files, capsys):
    mesh, _ = cube_files
    out = tmp_path / "out.flags"
    rep = tmp_path / "report.json"
    log = tmp_path / "ops.txt"
    ply = tmp_path / "colored.ply"
    rc = main(["label", str(mesh), "-o", str(out), "--report", str(rep),
               "--log-ops", str(log), "--viz", str(ply)])
    assert rc == 0
    assert "status: valid-all-monotone" in capsys.readouterr().err
    assert len(io.read_labeling(out)) == 12
    payload = json.loads(rep.read_text())
    assert payload["status"] == "valid-all-monotone"
    assert payload["turning_points"] == 0
    assert log.read_text() == ""  # nothing to repair on a cube
    assert ply.read_text().startswith("ply\n")


def test_label_output_files_are_deterministic(tmp_path, cube_files):
    mesh, _ = cube_files
    outs = []
    for tag in "ab":
        out = tmp_path / f"{tag}.flags"
        ply = tmp_path / f"{tag}.ply"
        assert main(["label", str(mesh), "-o", str(out), "--viz", str(ply)]) == 0
        outs.append(out.read_bytes() + ply.read_bytes())
    assert outs[0] == outs[1]


def test_validate_valid_labeling(cube_files, capsys):
    mesh, flags = cube_files
    assert main(["validate", str(mesh), str(flags)]) == 0
    assert "valid" in capsys.readouterr().err


def test_validate_invalid_labeling_exits_1(tmp_path, cube_files):
    mesh, _ = cube_files
    flags = tmp_path / "constant.flags"
    io.write_labeling(flags, np.zeros(12, dtype=np.int64))
    report = tmp_path / "why.json"
    assert main(["validate", str(mesh), str(flags), "--json", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload["valid"] is False
    assert payload["reasons"]  # every failure comes with a reason string


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "nope.obj"), str(tmp_path / "nope.flags")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["report", "{mesh}", "{flags}", "-o", "{dir}"],
    ["label", "{mesh}", "-o", "{dir}"],
    ["validate", "{mesh}", "{dir}"],
    ["label", "{mesh}", "--report", "{dir}"],
    ["label", "{mesh}", "--log-ops", "{dir}"],
    ["label", "{mesh}", "--viz", "{dir}"],
    ["label", "{mesh}", "-o", "{out}", "--report", "{dir}"],
], ids=["report-output", "label-output", "validate-labeling", "label-report", "label-log-ops",
        "label-viz", "label-good-output-then-report"])
def test_a_directory_for_a_file_exits_2_with_one_line(argv, tmp_path, cube_files, capsys):
    # label refuses before it labels: no status line, and no output written
    mesh, flags = cube_files
    adir, out = tmp_path / "adir", tmp_path / "out.flags"
    adir.mkdir()
    assert main([a.format(mesh=mesh, flags=flags, dir=adir, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {adir}: ") and "Traceback" not in err
    assert "status:" not in err and not out.exists()


def test_label_refuses_an_output_in_a_missing_directory_before_labeling(tmp_path, cube_files,
                                                                         capsys):
    mesh, _ = cube_files
    report, out = tmp_path / "nodir" / "report.json", tmp_path / "out.flags"
    assert main(["label", str(mesh), "-o", str(out), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: no such file: {report}\n"
    assert not out.exists()


def test_malformed_labeling_exits_2(tmp_path, cube_files, capsys):
    mesh, _ = cube_files
    bad = tmp_path / "bad.flags"
    bad.write_text("0\n9\n")
    assert main(["validate", str(mesh), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_label_count_exits_2(tmp_path, cube_files):
    mesh, _ = cube_files
    short = tmp_path / "short.flags"
    short.write_text("0\n1\n2\n")
    assert main(["validate", str(mesh), str(short)]) == 2


def test_broken_mesh_exits_2(tmp_path, cube_files, capsys):
    _, flags = cube_files
    broken = tmp_path / "broken.obj"
    broken.write_text("v 0 0 0\nf 1 2\n")  # face with two vertices
    assert main(["validate", str(broken), str(flags)]) == 2
    assert "broken.obj:2" in capsys.readouterr().err


def test_mesh_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_bytes(b"v 0 0 0\n# \xff\nf 1 1 1\n")
    assert main(["label", str(bad), "-o", str(tmp_path / "out.flags")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err and "at byte 10" in err
    assert not (tmp_path / "out.flags").exists()


def test_label_non_finite_coordinate_exits_2(tmp_path, capsys):
    v, f = shapes.cube()
    mesh = tmp_path / "nan.obj"
    io.write_obj(mesh, v, f)
    lines = mesh.read_text().splitlines()
    lines[0] = "v nan 0 0"
    mesh.write_text("\n".join(lines) + "\n")
    assert main(["label", str(mesh), "-o", str(tmp_path / "out.flags")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out.flags").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, kind", [(1e160, "overflow"), (1e-170, "underflow")])
def test_label_coordinates_out_of_float_range_exit_2(tmp_path, capsys, scale, kind):
    v, f = shapes.cube()
    mesh = tmp_path / "scaled.obj"
    io.write_obj(mesh, np.asarray(v) * scale, f)
    assert main(["label", str(mesh), "-o", str(tmp_path / "out.flags")]) == 2
    assert f"triangle areas {kind} at this scale" in capsys.readouterr().err
    assert not (tmp_path / "out.flags").exists()


def test_label_pinched_vertex_exits_2(tmp_path, capsys):
    v, f, shared = two_cubes_sharing_a_vertex()
    mesh = tmp_path / "pinched.obj"
    io.write_obj(mesh, v, f)
    assert main(["label", str(mesh), "-o", str(tmp_path / "out.flags")]) == 2
    assert f"non-manifold vertex {shared}" in capsys.readouterr().err
    assert not (tmp_path / "out.flags").exists()


def test_label_zero_face_index_exits_2(tmp_path, capsys):
    mesh = tmp_path / "tetra.obj"
    mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 0 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
    assert main(["label", str(mesh), "-o", str(tmp_path / "out.flags")]) == 2
    assert "tetra.obj:5: face vertex index out of range" in capsys.readouterr().err
    assert not (tmp_path / "out.flags").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--fidelity", "nan", "fidelity must be finite and non-negative, not nan"),
    ("--compactness", "inf", "compactness must be finite and non-negative, not inf"),
    ("--compactness", "-1", "compactness must be finite and non-negative, not -1.0"),
    ("--sensitivity", "nan", "sensitivity must be finite"),
    ("--tilt-angle", "inf", "tilt_angle must be finite"),
    ("--max-iterations", "-3", "max_iterations must be a non-negative int, not -3"),
], ids=["fidelity-nan", "compactness-inf", "compactness-negative", "sensitivity-nan",
        "tilt-angle-inf", "max-iterations-negative"])
def test_label_cut_energy_outside_the_contract_exits_2(tmp_path, cube_files, capsys,
                                                       flag, value, message):
    mesh, _ = cube_files
    out = tmp_path / "out.flags"
    assert main(["label", str(mesh), "-o", str(out), f"{flag}={value}"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def half_flipped_lid_files(tmp_path):
    """A subdivided cube whose +Z lid is half relabelled -Z: one same-axis
    boundary across a flat, so no reflex fraction above 0 accepts it."""
    v, f = shapes.subdivide(*shapes.cube(), 2)
    m = SurfaceMesh(v, f)
    labels = naive_labeling(m)
    centroids = m.vertices[m.triangles].mean(axis=1)
    labels[(labels == 4) & (centroids[:, 0] < np.median(centroids[:, 0]))] = 5
    mesh, flags = tmp_path / "lid.obj", tmp_path / "lid.flags"
    io.write_obj(mesh, v, f)
    io.write_labeling(flags, labels)
    return mesh, flags


def test_validate_counts_the_flat_same_axis_boundary(tmp_path, half_flipped_lid_files):
    mesh, flags = half_flipped_lid_files
    report = tmp_path / "why.json"
    assert main(["validate", str(mesh), str(flags), "--allow-opposite-labels",
                 "--min-reflex-fraction", "1.0", "--json", str(report)]) == 1
    assert len(json.loads(report.read_text())["invalid_boundaries"]) == 1


@pytest.mark.parametrize("command", ["label", "validate", "report"])
@pytest.mark.parametrize("value", ["nan", "-0.5", "1.5"])
def test_min_reflex_fraction_outside_0_to_1_exits_2(tmp_path, half_flipped_lid_files, capsys,
                                                    command, value):
    # NaN used to drop the reflex rule: validate then reported 0 invalid boundaries
    mesh, flags = half_flipped_lid_files
    out = tmp_path / "out.json"
    args = [str(mesh)] if command == "label" else [str(mesh), str(flags)]
    out_flag = "--json" if command == "validate" else "-o"
    assert main([command, *args, "--allow-opposite-labels", f"--min-reflex-fraction={value}",
                 out_flag, str(out)]) == 2
    assert f"min_reflex_fraction must be in 0..1, not {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solid, message", [
    (cube_with_a_stray_vertex, "vertex 8 is used by no triangle"),
    (two_disjoint_cubes, "2 connected components"),
])
def test_label_stray_vertex_or_two_components_exits_2(tmp_path, capsys, solid, message):
    mesh = tmp_path / "solid.mesh"
    io.write_medit(mesh, *solid())
    assert main(["label", str(mesh), "-o", str(tmp_path / "out.flags")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.flags").exists()


def test_mesh_without_triangles_exits_2(tmp_path, capsys):
    mesh = tmp_path / "empty.mesh"
    io.write_medit(mesh, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    flags = tmp_path / "empty.flags"
    flags.write_text("")
    out = tmp_path / "out.flags"
    assert main(["label", str(mesh), "-o", str(out)]) == 2
    assert "error: mesh has no triangles" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", str(mesh), str(flags)]) == 2
    assert "error: mesh has no triangles" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-10"])
def test_nan_or_negative_feature_angle_exits_2(tmp_path, cube_files, capsys, value):
    # refused in the degrees the flag takes, by every command that reads a mesh
    mesh, flags = map(str, cube_files)
    out = tmp_path / "out.flags"
    assert main(["label", mesh, "-o", str(out), f"--feature-angle={value}"]) == 2
    err = capsys.readouterr().err
    assert "feature angle must be 0 or more" in err
    assert "--feature-angle" in err and "degrees" in err and value in err
    assert err.count("\n") == 1
    assert not out.exists()
    for args in (["validate", mesh, flags], ["report", mesh, flags, "-o", str(out)],
                 ["graph", mesh, flags, "-o", str(out)], ["viz", mesh, flags, "-o", str(out)],
                 ["fix", mesh, flags, "--op", "remove_chart", "--target", "0", "-o", str(out)]):
        assert main(args + [f"--feature-angle={value}"]) == 2, args[0]
        assert capsys.readouterr().err == err, args[0]
        assert not out.exists()


def test_report_command(tmp_path, cube_files):
    mesh, flags = cube_files
    out = tmp_path / "metrics.json"
    assert main(["report", str(mesh), str(flags), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["fidelity"]["area_weighted"] == 1.0
    assert sum(payload["label_counts"].values()) == 12


def test_graph_command(tmp_path, cube_files):
    mesh, flags = cube_files
    out = tmp_path / "graph.json"
    assert main(["graph", str(mesh), str(flags), "-o", str(out)]) == 0
    g = json.loads(out.read_text())
    assert len(g["charts"]) == 6 and len(g["boundaries"]) == 12 and len(g["corners"]) == 8
    assert {c["label"] for c in g["charts"]} == {"+X", "-X", "+Y", "-Y", "+Z", "-Z"}
    assert all(b["axis"] in ("x", "y", "z") for b in g["boundaries"])
    assert all(c["axis_counts"] == [1, 1, 1] for c in g["corners"])
    assert all(len(b["corners"]) == 2 for b in g["boundaries"])


def test_viz_command(tmp_path, cube_files):
    mesh, flags = cube_files
    out = tmp_path / "cube.ply"
    assert main(["viz", str(mesh), str(flags), "-o", str(out)]) == 0
    header = out.read_text().splitlines()
    assert header[0] == "ply"
    assert "element face 12" in header


@pytest.mark.parametrize("command", ["viz", "graph"])
def test_viz_and_graph_never_compute_dihedrals(tmp_path, cube_files, monkeypatch, command):
    def no_dihedrals(self):
        raise AssertionError("dihedral angles computed")

    monkeypatch.setattr(SurfaceMesh, "_compute_dihedrals", no_dihedrals)
    mesh, flags = cube_files
    assert main([command, str(mesh), str(flags), "-o", str(tmp_path / "out")]) == 0
    with pytest.raises(AssertionError, match="dihedral angles computed"):
        main(["report", str(mesh), str(flags), "-o", str(tmp_path / "report.json")])


@pytest.mark.parametrize("command", ["report", "viz", "validate", "graph"])
def test_read_only_commands_never_build_the_fan_table(tmp_path, cube_files, monkeypatch, command):
    # nor the corner tables: a graph built without a parent reads edge_tris
    def no_table(self):
        raise AssertionError("table built")

    for name in ("_fans", "triangle_edges", "triangle_adjacency", "_partner", "_corner_next"):
        monkeypatch.setattr(SurfaceMesh, name, property(no_table))
    mesh, flags = cube_files
    out = [] if command == "validate" else ["-o", str(tmp_path / "out")]
    assert main([command, str(mesh), str(flags), *out]) == 0
    with pytest.raises(AssertionError, match="table built"):
        SurfaceMesh(*shapes.cube()).vertex_ring(0)
    with pytest.raises(AssertionError, match="table built"):
        SurfaceMesh(*shapes.cube()).triangle_adjacency


def _fix_cases():
    """Per operator: (mesh, labels, targets) where the operator applies."""
    from test_operators import (cone_quadrants, l_hook_box, rotated_torus, s_curve_box,
                                split_top_box, zigzag_box)

    def remove_chart():
        m = SurfaceMesh(*shapes.l_prism())
        return m, naive_labeling(m), [0]

    def fix_invalid_boundary():
        m, labels, g = split_top_box()
        return m, labels, [next(b.index for b in g.boundaries if b.axis is None)]

    def fix_invalid_corner():
        m, labels = cone_quadrants(2)
        return m, labels, [LabelingGraph(m, labels).corner_at[int(np.argmax(m.vertices[:, 2]))]]

    def increase_chart_valence():
        m = SurfaceMesh(*shapes.subdivide(*shapes.wedge(), 2))
        labels = naive_labeling(m)
        return m, labels, [next(c.index for c in LabelingGraph(m, labels).charts if c.valence == 3)]

    def join_turning_points_pair():
        m, labels, lat = l_hook_box()
        return m, labels, [lat[(5, 7, 4)], lat[(6, 4, 4)]]

    def pull_closest_corner():
        m, labels, lat = s_curve_box()
        return m, labels, [lat[(8, 3, 4)]]

    def move_boundary_near_turning_point():
        m = rotated_torus()
        g = LabelingGraph(m, naive_labeling(m))
        tp = next(v for v in g.turning_point_vertices()
                  if ops.move_boundary_near_turning_point(g, v).applied)
        return m, g.labels, [tp]

    def straighten_boundary():
        m, labels = zigzag_box()
        g = LabelingGraph(m, labels)
        return m, labels, [next(b.index for b in g.boundaries
                                if {b.left_label, b.right_label} == {0, 4})]

    return {f.__name__: f for f in (
        remove_chart, fix_invalid_boundary, fix_invalid_corner, increase_chart_valence,
        join_turning_points_pair, pull_closest_corner, move_boundary_near_turning_point,
        straighten_boundary)}


@pytest.mark.parametrize("op", sorted(cli._OPERATORS))
def test_fix_command_applies_an_operator(op, tmp_path, capsys):
    m, labels, targets = _fix_cases()[op]()
    mesh, flags, edges = tmp_path / "in.obj", tmp_path / "in.flags", tmp_path / "in.edges"
    io.write_obj(mesh, m.vertices, m.triangles)
    io.write_labeling(flags, labels)
    # at angle 0 all of them stay active
    edges.write_text("".join(f"{a} {b}\n" for a, b in sorted(m.feature_edges)))
    out = tmp_path / "out.flags"
    rc = main(["fix", str(mesh), str(flags), "--feature-edges", str(edges),
               "--feature-angle", "0", "--op", op,
               "--target", ",".join(str(t) for t in targets), "-o", str(out)])
    assert rc == 0
    assert "applied=True" in capsys.readouterr().err
    got = io.read_labeling(out)
    assert not np.array_equal(got, labels)
    fn, _ = cli._OPERATORS[op]
    assert np.array_equal(got, fn(LabelingGraph(m, labels), *targets).labels)


def test_fix_prints_why_an_operator_did_not_apply(tmp_path, cube_files, capsys):
    mesh, flags = cube_files
    out = tmp_path / "out.flags"
    rc = main(["fix", str(mesh), str(flags), "--op", "fix_invalid_corner", "--target", "0",
               "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "fix_invalid_corner: applied=False changed=0 (the corner is valid)" in err
    assert np.array_equal(io.read_labeling(out), io.read_labeling(flags))


def test_fix_rejects_wrong_target_arity(cube_files, capsys):
    mesh, flags = cube_files
    rc = main(["fix", str(mesh), str(flags),
               "--op", "join_turning_points_pair", "--target", "5"])
    assert rc == 2
    assert "expects 2 target id(s)" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["999", "-1"])
@pytest.mark.parametrize("op, kind, last", [
    ("remove_chart", "chart", 5), ("fix_invalid_boundary", "boundary", 11),
    ("fix_invalid_corner", "corner", 7), ("increase_chart_valence", "chart", 5),
    ("straighten_boundary", "boundary", 11),
])
def test_fix_target_outside_the_graph_exits_2(tmp_path, cube_files, capsys, op, kind, last, target):
    # the cube's naive labeling has 6 charts, 12 boundaries and 8 corners;
    # -1 must not count back to the last one
    mesh, flags = cube_files
    out = tmp_path / "out.flags"
    rc = main(["fix", str(mesh), str(flags), "--op", op, "--target", target, "-o", str(out)])
    assert rc == 2
    assert f"error: {kind} id {target} outside 0..{last}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_operator_is_a_usage_error(cube_files, capsys):
    mesh, flags = cube_files
    with pytest.raises(SystemExit) as exc:
        main(["fix", str(mesh), str(flags), "--op", "polish", "--target", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_feature_edge_file_flag(tmp_path, cube_files, capsys):
    mesh, flags = cube_files
    v, f = shapes.cube()
    m = SurfaceMesh(v, f)
    feats = tmp_path / "cube.edges"
    feats.write_text("".join(f"{a} {b}\n" for a, b in sorted(m.edges[:, :2].tolist())[:4]))
    assert main(["validate", str(mesh), str(flags),
                 "--feature-edges", str(feats)]) == 0
    feats.write_text("6 0\n")  # the cube's body diagonal
    assert main(["validate", str(mesh), str(flags), "--feature-edges", str(feats)]) == 2
    assert "error: feature edge (0, 6) is not a mesh edge" in capsys.readouterr().err


def test_non_integer_feature_edge_exits_2_naming_the_line(tmp_path, cube_files, capsys):
    mesh, flags = cube_files
    feats = tmp_path / "cube.edges"
    feats.write_text("0 1\n2 x\n")
    assert main(["label", str(mesh), "--feature-edges", str(feats)]) == 2
    assert "cube.edges:2: " in capsys.readouterr().err


def test_cli_reads_and_writes_through_its_module_names(tmp_path, cube_files, monkeypatch):
    """perfbench times labeling reads and output writes by replacing
    ``cli.read_labeling``, ``cli.write_labeling`` and ``cli.write_ply``; the
    commands must call those names."""
    from polycubelabel import cli

    calls = []
    for name in ("read_labeling", "write_labeling", "write_ply"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    mesh, flags = cube_files
    out = tmp_path / "out"
    assert main(["label", str(mesh), "-o", str(out.with_suffix(".flags")),
                 "--viz", str(out.with_suffix(".ply"))]) == 0
    assert main(["report", str(mesh), str(flags), "-o", str(out.with_suffix(".json"))]) == 0
    assert main(["viz", str(mesh), str(flags), "-o", str(out.with_suffix(".ply"))]) == 0
    assert calls == ["write_labeling", "write_ply", "read_labeling", "read_labeling", "write_ply"]


def _project_scripts():
    """The ``[project.scripts]`` table of the repo's own ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _entry_point():
    value = _project_scripts()["polycubelabel"]
    return EntryPoint(name="polycubelabel", value=value, group="console_scripts")


def _launcher_env(tmp_path):
    """An environment whose PATH starts with tmp_path/bin, holding the
    launcher an installer would write for the entry point, so the command
    runs by its name without a site-packages install, and a `python3` that
    is the interpreter running the tests."""
    ep = _entry_point()
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "polycubelabel"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n"
    )
    python3 = bindir / "python3"
    python3.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    for script in (launcher, python3):
        script.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    pkg_root = str(Path(polycubelabel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_is_installed(tmp_path):
    assert _entry_point().load() is main
    env = _launcher_env(tmp_path)
    exe = shutil.which("polycubelabel", path=env["PATH"])
    assert exe and Path(exe).parent == tmp_path / "bin"
    for cmd in ([exe], [sys.executable, "-m", "polycubelabel"]):
        proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: polycubelabel")


def test_cli_tour_runs(tmp_path):
    script = tmp_path / "05_cli_tour.sh"  # a copy, so its output/ lands in tmp_path
    shutil.copy(REPO_ROOT / "demos" / script.name, script)
    proc = subprocess.run(["sh", str(script)], cwd=tmp_path, env=_launcher_env(tmp_path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("all output in demos/output/")
    out = tmp_path / "output"
    for name in ("notched.obj", "notched.flags", "notched.json", "notched.ply",
                 "notched.graph.json"):
        assert (out / name).stat().st_size > 0, name
    assert (out / "notched.ops").exists()  # empty: the notched box needs no repair


@pytest.mark.skipif(shutil.which("polycubelabel") is None,
                    reason="polycubelabel is not installed on PATH")
def test_console_script_on_path():
    exe = shutil.which("polycubelabel")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: polycubelabel")
