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
from polycubelabel import io, shapes
from polycubelabel.cli import main
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


def test_fix_command_applies_an_operator(tmp_path, capsys):
    v, f = shapes.l_prism()
    mesh = tmp_path / "l.obj"
    io.write_obj(mesh, v, f)
    flags = tmp_path / "l.flags"
    labels = naive_labeling(SurfaceMesh(v, f))
    io.write_labeling(flags, labels)
    out = tmp_path / "fixed.flags"
    rc = main(["fix", str(mesh), str(flags), "--op", "remove_chart",
               "--target", "0", "-o", str(out)])
    assert rc == 0
    assert "applied=True" in capsys.readouterr().err
    assert not np.array_equal(io.read_labeling(out), labels)


def test_fix_rejects_wrong_target_arity(cube_files, capsys):
    mesh, flags = cube_files
    rc = main(["fix", str(mesh), str(flags),
               "--op", "join_turning_points_pair", "--target", "5"])
    assert rc == 2
    assert "expects 2 target id(s)" in capsys.readouterr().err


def test_unknown_operator_is_a_usage_error(cube_files, capsys):
    mesh, flags = cube_files
    with pytest.raises(SystemExit) as exc:
        main(["fix", str(mesh), str(flags), "--op", "polish", "--target", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_feature_edge_file_flag(tmp_path, cube_files):
    mesh, flags = cube_files
    v, f = shapes.cube()
    m = SurfaceMesh(v, f)
    feats = tmp_path / "cube.edges"
    io.write_feature_edges(feats, sorted(m.edges[:, :2].tolist())[:4])
    assert main(["validate", str(mesh), str(flags),
                 "--feature-edges", str(feats)]) == 0


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


def test_console_script_is_installed(tmp_path):
    value = _project_scripts()["polycubelabel"]
    ep = EntryPoint(name="polycubelabel", value=value, group="console_scripts")
    assert ep.load() is main

    # Write the launcher an installer would put in bin/ for this entry point,
    # so the command runs by its name without a site-packages install.
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
    launcher.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    pkg_root = str(Path(polycubelabel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)

    exe = shutil.which("polycubelabel", path=env["PATH"])
    assert exe and Path(exe).parent == bindir
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: polycubelabel")


@pytest.mark.skipif(shutil.which("polycubelabel") is None,
                    reason="polycubelabel is not installed on PATH")
def test_console_script_on_path():
    exe = shutil.which("polycubelabel")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: polycubelabel")
