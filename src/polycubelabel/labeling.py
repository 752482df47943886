"""Per-triangle axis labels: the six signed axis directions, naive and
graph-cut labelings, and labeling quality metrics.

Labels are encoded 0..5 as +X, -X, +Y, -Y, +Z, -Z; the axis is ``label >> 1``
and the opposite direction is ``label ^ 1``. Every tie in this module breaks
toward the lowest encoding so results are reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .mesh import SurfaceMesh

LABEL_DIRECTIONS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)
LABEL_DIRECTIONS.flags.writeable = False

LABEL_NAMES = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")

# render colors per label, matched in the PLY exporter
LABEL_COLORS = (
    (230, 25, 25),
    (115, 12, 12),
    (240, 240, 240),
    (120, 120, 120),
    (25, 25, 230),
    (12, 12, 115),
)

N_LABELS = 6


def axis_of(label: int) -> int:
    return label >> 1


def opposite(label: int) -> int:
    return label ^ 1


def same_axis(a: int, b: int) -> bool:
    return a >> 1 == b >> 1


def checked_labels(labels) -> np.ndarray:
    """The labels as a fresh int64 array; raises ValueError naming the first
    triangle whose label is not a whole number, or else the first outside
    0..5."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        odd = np.flatnonzero(labels != np.round(labels))  # NaN too
        if odd.size:
            raise ValueError(f"label {labels[odd[0]]} of triangle {odd[0]} is not an integer")
    bad = np.flatnonzero(~((labels >= 0) & (labels <= 5)))
    if bad.size:
        raise ValueError(f"label {labels[bad[0]]} of triangle {bad[0]} outside 0..5")
    return labels.astype(np.int64)


def nearest_label(normals) -> np.ndarray:
    """Closest signed axis per normal; ties go to the lowest encoding."""
    return np.argmax(np.asarray(normals) @ LABEL_DIRECTIONS.T, axis=1).astype(np.int64)


def naive_labeling(mesh: SurfaceMesh) -> np.ndarray:
    return nearest_label(mesh.normals)


def tilt_matrix(angle: float = 0.05) -> np.ndarray:
    """Small composite rotation Rz(a) @ Ry(a) @ Rx(a) used to break axis ties."""
    c, s = math.cos(angle), math.sin(angle)
    rx = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    ry = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    return rz @ ry @ rx


def tilted_normals(normals, sensitivity: float = 1e-10, tilt_angle: float = 0.05):
    """Rotate the normals whose two best axis scores are nearly tied.

    Triangles sitting exactly between two labels (45-degree walls, jittered
    flats) otherwise fragment into noise charts after smoothing. Returns the
    adjusted normals and the boolean mask of tilted rows.
    """
    normals = np.asarray(normals, dtype=np.float64)
    dots = normals @ LABEL_DIRECTIONS.T
    top2 = np.sort(dots, axis=1)[:, -2:]
    flagged = (top2[:, 1] - top2[:, 0]) < sensitivity
    out = normals.copy()
    if flagged.any():
        out[flagged] = normals[flagged] @ tilt_matrix(tilt_angle).T
    return out, flagged


def data_costs(
    normals,
    fidelity: float = 3.0,
    sensitivity: float = 1e-10,
    tilt_angle: float = 0.05,
) -> np.ndarray:
    """(F, 6) data term: fidelity * angle(adjusted normal, label direction)."""
    adjusted, _ = tilted_normals(normals, sensitivity, tilt_angle)
    dots = np.clip(adjusted @ LABEL_DIRECTIONS.T, -1.0, 1.0)
    return fidelity * np.arccos(dots)


def smoothness_weights(
    mesh: SurfaceMesh,
    compactness: float = 1.0,
    mode: str = "uniform-potts",
    crease_sigma: float = 0.25,
) -> np.ndarray:
    """(E,) discontinuity penalty per mesh edge for the graph cut.

    Modes: 'uniform-potts' charges every label change equally;
    'angle-proportional' scales with the dihedral deviation, discouraging
    cuts across flats; 'crease-discount' makes cutting along sharp creases
    nearly free.
    """
    deviation = np.abs(mesh.dihedral_angles - math.pi)
    if mode == "uniform-potts":
        return np.full(mesh.n_edges, float(compactness))
    if mode == "angle-proportional":
        return compactness * deviation
    if mode == "crease-discount":
        return compactness * np.exp(-((deviation / crease_sigma) ** 2))
    raise ValueError(f"unknown smoothness mode {mode!r}")


def compute_labeling(
    mesh: SurfaceMesh,
    compactness: float = 1.0,
    fidelity: float = 3.0,
    smoothness_mode: str = "uniform-potts",
    sensitivity: float = 1e-10,
    tilt_angle: float = 0.05,
    init=None,
) -> np.ndarray:
    """Initial labeling: tie-broken nearest axis smoothed by a graph cut."""
    from .graphcut import alpha_expansion

    costs = data_costs(mesh.normals, fidelity, sensitivity, tilt_angle)
    pairs = mesh.edge_tris
    weights = smoothness_weights(mesh, compactness, smoothness_mode)
    if init is None:
        init = np.argmin(costs, axis=1).astype(np.int64)
    labels, _ = alpha_expansion(costs, pairs, weights, init=init)
    return labels


def restricted_relabel(
    mesh: SurfaceMesh,
    labels,
    region,
    allowed=None,
    compactness: float = 1.0,
    fidelity: float = 3.0,
    smoothness_mode: str = "uniform-potts",
    sensitivity: float = 1e-10,
    tilt_angle: float = 0.05,
) -> np.ndarray:
    """Re-optimize the labels of `region` only, everything else held fixed.

    Fixed neighbors act through their boundary edges: crossing such an edge
    into a different label costs that edge's smoothness weight, folded into
    the data term of the free triangle. `allowed` optionally masks permitted
    labels, either one (6,) row for all free triangles or one row each.
    """
    from .graphcut import BIG, alpha_expansion

    labels = np.asarray(labels, dtype=np.int64)
    region = np.asarray(sorted(region) if isinstance(region, (set, frozenset)) else region)
    if region.dtype == bool:
        mask = region.copy()
    else:
        mask = np.zeros(mesh.n_triangles, dtype=bool)
        mask[region.astype(np.int64)] = True
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return labels.copy()
    pos = np.full(mesh.n_triangles, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)

    costs = data_costs(mesh.normals[idx], fidelity, sensitivity, tilt_angle)
    if allowed is not None:
        costs = np.where(np.asarray(allowed, dtype=bool), costs, BIG)

    w_all = smoothness_weights(mesh, compactness, smoothness_mode)
    t1, t2 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    both = mask[t1] & mask[t2]
    pairs = np.column_stack([pos[t1[both]], pos[t2[both]]])
    weights = w_all[both]
    for inner, outer in ((t1, t2), (t2, t1)):
        half = mask[inner] & ~mask[outer]
        rows = pos[inner[half]]
        np.add.at(costs, rows, w_all[half, None])
        np.subtract.at(costs, (rows, labels[outer[half]]), w_all[half])

    init = labels[idx].copy()
    stuck = costs[np.arange(idx.size), init] >= BIG
    init[stuck] = np.argmin(costs[stuck], axis=1)
    sub, _ = alpha_expansion(costs, pairs, weights, init=init)
    out = labels.copy()
    out[idx] = sub
    return out


class FidelityReport(NamedTuple):
    area_weighted: float
    uniform: float


def fidelity_score(mesh: SurfaceMesh, labels, mode: str = "dot") -> FidelityReport:
    """How axis-aligned the labeling is, in [0, 1]; 1.0 = perfectly aligned.

    'dot' scores each triangle (1 + n . d) / 2; 'angle' scores
    1 - angle(n, d) / pi. Both area-weighted and uniform means are reported.
    """
    labels = np.asarray(labels, dtype=np.int64)
    dots = np.einsum("ij,ij->i", mesh.normals, LABEL_DIRECTIONS[labels])
    if mode == "dot":
        per_tri = (1.0 + dots) / 2.0
    elif mode == "angle":
        per_tri = 1.0 - np.arccos(np.clip(dots, -1.0, 1.0)) / math.pi
    else:
        raise ValueError(f"unknown fidelity mode {mode!r}")
    return FidelityReport(
        float(np.average(per_tri, weights=mesh.areas)), float(per_tri.mean())
    )
