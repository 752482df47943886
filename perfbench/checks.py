"""Output checks that recompute what the program reports, apart from it.

Each check takes the program's output and the benchmark's own arrays and
raises :class:`Reject` with a reason when they disagree. Charts, valences,
same-axis boundaries, label counts, fidelity and feature edges are computed
here with numpy and scipy from the generated vertices and triangles; only
the re-validation of repaired labelings calls the program, on purpose, to
check that a "valid" result still validates from a fresh graph.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from inputs import AXES, edge_table, nearest_axis, normals_areas

STATUSES = ("valid-all-monotone", "valid-with-turning-points", "invalid", "failed")
VALID = STATUSES[:2]
FEATURE_ANGLE = math.pi / 4  # the CLI's default --feature-angle of 45 degrees
_TIE = 1e-9


class Reject(Exception):
    """An output disagrees with the benchmark's own computation."""


class Geometry:
    """Per-mesh arrays computed once by the benchmark."""

    def __init__(self, verts, tris):
        self.verts = np.asarray(verts, dtype=np.float64)
        self.tris = np.asarray(tris, dtype=np.int64)
        self.normals, self.areas = normals_areas(self.verts, self.tris)
        self.edges, self.edge_tris = edge_table(self.tris)
        n1, n2 = self.normals[self.edge_tris[:, 0]], self.normals[self.edge_tris[:, 1]]
        self.dihedral = np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=1),
                                   np.einsum("ij,ij->i", n1, n2))

    @property
    def n_triangles(self):
        return len(self.tris)


def charts(geo: Geometry, labels):
    """(number of charts, chart id per triangle): same-label components."""
    same = labels[geo.edge_tris[:, 0]] == labels[geo.edge_tris[:, 1]]
    a, b = geo.edge_tris[same, 0], geo.edge_tris[same, 1]
    g = coo_matrix((np.ones(len(a)), (a, b)), shape=(geo.n_triangles,) * 2)
    return connected_components(g, directed=False)


def fidelity(geo: Geometry, labels) -> float:
    """Area-weighted mean of (1 + n . d) / 2 over triangles."""
    dots = np.einsum("ij,ij->i", geo.normals, AXES[labels])
    return float(np.sum((1.0 + dots) / 2.0 * geo.areas) / np.sum(geo.areas))


# -- checks --------------------------------------------------------------------


def parse_flags(text: str, n_triangles: int) -> np.ndarray:
    """The labels of a ``.flags`` file: one integer 0..5 per triangle."""
    labels = np.array(text.split(), dtype=np.int64)
    if labels.shape != (n_triangles,):
        raise Reject(f"flags: {len(labels)} labels for {n_triangles} triangles")
    if labels.size and (labels.min() < 0 or labels.max() > 5):
        raise Reject("flags: label outside 0..5")
    return labels


def check_report(report: dict, geo: Geometry, labels) -> None:
    """Status, chart count, label counts, fidelity and feature edges of a
    metrics report against the labeling and the benchmark's own geometry."""
    if report.get("status") not in STATUSES:
        raise Reject(f"report: unknown status {report.get('status')!r}")
    n_charts, _ = charts(geo, labels)
    if report["charts"] != n_charts:
        raise Reject(f"report: {report['charts']} charts, components give {n_charts}")
    counts = np.bincount(labels, minlength=6).tolist()
    got = [report["label_counts"][k] for k in ("+X", "-X", "+Y", "-Y", "+Z", "-Z")]
    if got != counts:
        raise Reject(f"report: label_counts {got} != {counts}")
    own = fidelity(geo, labels)
    if not math.isclose(report["fidelity"]["area_weighted"], own, rel_tol=1e-9, abs_tol=1e-12):
        raise Reject(f"report: fidelity {report['fidelity']['area_weighted']!r} != {own!r}")
    check_feature_edges(report["feature_edges"], geo, labels)
    invalid = report["invalid_charts"] + report["invalid_boundaries"] + report["invalid_corners"]
    if (report["status"] in VALID and invalid) or (report["status"] == "invalid" and not invalid):
        raise Reject(f"report: status {report['status']} with {invalid} invalid parts")


def check_feature_edges(stats: dict, geo: Geometry, labels) -> None:
    """Preserved / lost sharp edges against numpy dihedrals; an edge within
    1e-9 rad of the threshold may fall on either side."""
    cut = labels[geo.edge_tris[:, 0]] != labels[geo.edge_tris[:, 1]]
    sure = geo.dihedral >= FEATURE_ANGLE + _TIE
    maybe = np.abs(geo.dihedral - FEATURE_ANGLE) < _TIE
    for key, on in (("preserved", cut), ("lost", ~cut)):
        lo = int(np.sum(sure & on))
        hi = lo + int(np.sum(maybe & on))
        if not lo <= stats[key] <= hi:
            raise Reject(f"feature edges: {key}={stats[key]}, dihedrals give {lo}..{hi}")


def check_valid_labeling(geo: Geometry, labels) -> None:
    """Properties every valid labeling has: each chart touches at least 4
    other charts, and no edge separates two labels of one axis."""
    n_charts, comp = charts(geo, labels)
    l1, l2 = labels[geo.edge_tris[:, 0]], labels[geo.edge_tris[:, 1]]
    cut = l1 != l2
    same_axis = cut & (l1 >> 1 == l2 >> 1)
    if same_axis.any():
        raise Reject(f"{int(same_axis.sum())} edges separate labels of one axis")
    c1, c2 = comp[geo.edge_tris[cut, 0]], comp[geo.edge_tris[cut, 1]]
    pairs = np.unique(np.concatenate([np.column_stack([c1, c2]),
                                      np.column_stack([c2, c1])]), axis=0)
    valence = np.bincount(pairs[:, 0], minlength=n_charts) if len(pairs) else np.zeros(n_charts, int)
    if n_charts and valence.min() < 4:
        raise Reject(f"chart {int(valence.argmin())} touches {int(valence.min())} charts (< 4)")


def check_nearest_axis(geo: Geometry, labels) -> None:
    """On an exact axis-aligned prism every triangle takes its nearest axis."""
    bad = np.nonzero(labels != nearest_axis(geo.normals))[0]
    if bad.size:
        raise Reject(f"{bad.size} triangles not on their nearest axis (first {bad[0]})")


def check_verdict(report: dict, broken: bool) -> None:
    """A copy broken on purpose reports invalid with an invalid boundary;
    a naive labeling of these solids reports valid."""
    if broken:
        if report["status"] != "invalid" or report["invalid_boundaries"] < 1:
            raise Reject(f"broken labeling reported {report['status']} with "
                         f"{report['invalid_boundaries']} invalid boundaries")
    elif report["status"] not in VALID:
        raise Reject(f"naive labeling reported {report['status']}")


def check_ply(text: str, geo: Geometry, labels, colors) -> None:
    """Vertices, faces and per-face label colours of an ascii PLY export."""
    header, _, body = text.partition("end_header\n")
    counts = {}
    for line in header.splitlines():
        parts = line.split()
        if parts[:1] == ["element"]:
            counts[parts[1]] = int(parts[2])
    nv, nf = len(geo.verts), geo.n_triangles
    if counts != {"vertex": nv, "face": nf}:
        raise Reject(f"ply: elements {counts}, expected {nv} vertices and {nf} faces")
    tokens = body.split()
    if len(tokens) != 3 * nv + 7 * nf:
        raise Reject(f"ply: {len(tokens)} values in the body")
    if not np.array_equal(np.array(tokens[:3 * nv], dtype=np.float64).reshape(nv, 3), geo.verts):
        raise Reject("ply: vertex coordinates differ")
    faces = np.array(tokens[3 * nv:], dtype=np.int64).reshape(nf, 7)
    if np.any(faces[:, 0] != 3) or not np.array_equal(faces[:, 1:4], geo.tris):
        raise Reject("ply: face indices differ")
    if not np.array_equal(faces[:, 4:], np.asarray(colors)[labels]):
        raise Reject("ply: face colours do not match the labels")


def check_unchanged(before: np.ndarray, after: np.ndarray, what: str) -> None:
    if not np.array_equal(before, after):
        raise Reject(f"{what} was mutated")
