"""The three workloads: how each one sets up its inputs, runs one operation
and checks that operation's output.

An operation is what a user of the labeler waits for: one ``polycubelabel
label`` run (label-cad), one ``label_mesh`` call from a given start
(repair-noise), or one ``polycubelabel report`` plus ``viz`` of a large file
(check-large). Every check reads the program's outputs and compares them
with what :mod:`checks` computes apart from the program.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from polycubelabel import cli, io, labeling, mesh, pipeline, shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.validity import validate

import checks
import inputs
from checks import Geometry, Reject


@dataclass
class Item:
    """One operation of a round, with its inputs and output paths."""

    case: inputs.Case
    paths: dict = field(default_factory=dict)
    mesh: object = None  # SurfaceMesh, for the in-process repair workload
    init: np.ndarray | None = None  # copy of the start, to catch mutation
    geo: Geometry | None = None  # the benchmark's own arrays, filled after set-up


@dataclass
class Outcome:
    failed: bool
    digest: bytes
    fidelity: float


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _canonical_report(report: dict) -> bytes:
    """The byte-reproducible part of a metrics report."""
    return json.dumps({k: v for k, v in report.items() if k != "durations_seconds"},
                      sort_keys=True).encode()


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.digest()


def _flags_bytes(labels) -> bytes:
    return "".join(f"{int(v)}\n" for v in labels).encode()


# -- label-cad -------------------------------------------------------------------


class LabelCad:
    """Full ``polycubelabel label`` runs on CAD-like solids of 250-5k triangles."""

    name = "label-cad"

    FILES = (("mesh", ".obj"), ("flags", ".flags"), ("report", ".json"),
             ("viz", ".ply"), ("log", ".log"))

    def setup(self, seed, work):
        warm = inputs.Case("warmup", *shapes.subdivide(*shapes.cuboid(2, 1, 1), 2))
        items = []
        for i, case in enumerate(inputs.label_cad_cases(np.random.default_rng(seed)) + [warm]):
            stem = os.path.join(work, f"{i:02d}_{case.name}")
            io.write_obj(stem + ".obj", case.verts, case.tris)
            items.append(Item(case, {k: stem + ext for k, ext in self.FILES}))
        return items[:-1], items[-1]

    def run(self, item):
        p = item.paths
        return cli.main(["label", p["mesh"], "-o", p["flags"], "--report", p["report"],
                         "--viz", p["viz"], "--log-ops", p["log"], *item.case.args])

    def check(self, item, code) -> Outcome:
        if code != 0:
            raise Reject(f"label exited with {code}")
        p, geo = item.paths, item.geo
        flags = _read(p["flags"])
        labels = checks.parse_flags(flags, geo.n_triangles)
        report = json.loads(_read(p["report"]))
        checks.check_report(report, geo, labels)
        checks.check_ply(_read(p["viz"]), geo, labels, labeling.LABEL_COLORS)
        if report["status"] in checks.VALID:
            checks.check_valid_labeling(geo, labels)
        if item.case.exact_prism:
            checks.check_nearest_axis(geo, labels)
        return Outcome(report["status"] not in checks.VALID,
                       _digest(flags.encode(), _canonical_report(report),
                               _read(p["log"]).encode()),
                       checks.fidelity(geo, labels))


# -- repair-noise ------------------------------------------------------------------


class RepairNoise:
    """``label_mesh`` from given starts: interior label-noise blobs over the
    naive labeling, naive starts on rotated tori, and two fixed noisy starts
    that collapse to a single chart."""

    name = "repair-noise"
    STARTS_PER_MESH = 6

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        cases = []
        for name, v, t in inputs.repair_noise_meshes(rng):
            m = mesh.SurfaceMesh(v, t)
            base = inputs.nearest_axis(inputs.normals_areas(v, t)[0])
            for k in range(self.STARTS_PER_MESH):
                init = inputs.interior_blobs(t, m.triangle_adjacency, base, rng)
                cases.append((inputs.Case(f"{name}_blobs{k}", v, t, init), m))
        for k in range(2):
            v, t = inputs.rotated_torus(rng)
            cases.append((inputs.Case(f"rotated_torus{k}", v, t,
                                      inputs.nearest_axis(inputs.normals_areas(v, t)[0])),
                          mesh.SurfaceMesh(v, t)))
        for case in inputs.collapse_starts():
            cases.append((case, mesh.SurfaceMesh(case.verts, case.tris)))
        items = [Item(case, mesh=m, init=case.labels.copy()) for case, m in cases]
        return items, items[0]

    def run(self, item):
        return pipeline.label_mesh(item.mesh, init_labels=item.case.labels)

    def check(self, item, result) -> Outcome:
        checks.check_unchanged(item.init, item.case.labels, "init_labels")
        geo = item.geo
        labels = np.asarray(result.labels)
        if labels.shape != (geo.n_triangles,) or labels.min() < 0 or labels.max() > 5:
            raise Reject("labels out of shape or range")
        report = pipeline.metrics_report(item.mesh, result)
        checks.check_report(report, geo, labels)
        if result.status in checks.VALID:
            fresh = validate(LabelingGraph(item.mesh, labels))
            if not fresh.is_valid:
                raise Reject(f"'{result.status}' labeling re-validates as {fresh.summary()}")
            checks.check_valid_labeling(geo, labels)
        return Outcome(result.status not in checks.VALID,
                       _digest(_flags_bytes(labels), _canonical_report(report),
                               "\n".join(result.op_log).encode()),
                       checks.fidelity(geo, labels))


# -- check-large -------------------------------------------------------------------


class CheckLarge:
    """``polycubelabel report`` and ``viz`` of 65k-82k-triangle OBJ and MEDIT
    files: naive labelings (valid by construction) and one copy broken on
    purpose."""

    name = "check-large"

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        h = float(rng.uniform(0.8, 1.6))
        solids = [
            ("l_prism", ".obj", shapes.subdivide(*shapes.l_prism(h), 6)),
            ("torus", ".mesh", shapes.torus(R=float(rng.uniform(2.2, 2.8)), r=1.0, nu=256, nv=128)),
            ("icosphere", ".obj", shapes.icosphere(6, radius=float(rng.uniform(0.8, 1.6)))),
        ]
        items = []
        for name, ext, (v, t) in solids:
            path = os.path.join(work, name + ext)
            (io.write_obj if ext == ".obj" else io.write_medit)(path, v, t)
            normals = inputs.normals_areas(v, t)[0]
            naive = inputs.nearest_axis(normals)
            labelings = [("naive", naive)]
            if name == "l_prism":
                labelings.append(("broken", inputs.paint_opposite(
                    inputs.neighbours(t), naive, normals, rng)))
            for kind, labels in labelings:
                stem = os.path.join(work, f"{name}_{kind}")
                io.write_labeling(stem + ".flags", labels)
                items.append(Item(inputs.Case(f"{name}_{kind}", v, t, labels,
                                              broken=kind == "broken"),
                                  {"mesh": path, "flags": stem + ".flags",
                                   "report": stem + ".json", "viz": stem + ".ply"}))
        v, t = shapes.subdivide(*shapes.cuboid(2, 1, 1), 2)
        stem = os.path.join(work, "warmup")
        io.write_obj(stem + ".obj", v, t)
        io.write_labeling(stem + ".flags", inputs.nearest_axis(inputs.normals_areas(v, t)[0]))
        warm = Item(inputs.Case("warmup", v, t), {
            "mesh": stem + ".obj", "flags": stem + ".flags",
            "report": stem + ".json", "viz": stem + ".ply"})
        return items, warm

    def run(self, item):
        p = item.paths
        return (cli.main(["report", p["mesh"], p["flags"], "-o", p["report"]]),
                cli.main(["viz", p["mesh"], p["flags"], "-o", p["viz"]]))

    def check(self, item, codes) -> Outcome:
        if codes != (0, 0):
            raise Reject(f"report / viz exited with {codes}")
        p, geo = item.paths, item.geo
        labels = checks.parse_flags(_read(p["flags"]), geo.n_triangles)
        report = json.loads(_read(p["report"]))
        checks.check_report(report, geo, labels)
        checks.check_verdict(report, item.case.broken)
        if not item.case.broken:
            checks.check_valid_labeling(geo, labels)
        ply = _read(p["viz"])
        checks.check_ply(ply, geo, labels, labeling.LABEL_COLORS)
        return Outcome(False, _digest(_canonical_report(report), ply.encode()),
                       checks.fidelity(geo, labels))


WORKLOADS = {w.name: w for w in (LabelCad(), RepairNoise(), CheckLarge())}
