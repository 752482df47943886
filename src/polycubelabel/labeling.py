"""Per-triangle axis labels: the six signed axis directions, naive and
graph-cut labelings, and labeling quality metrics.

Labels are encoded 0..5 as +X, -X, +Y, -Y, +Z, -Z; the axis is ``label >> 1``
and the opposite direction is ``label ^ 1``. Every tie in this module breaks
toward the lowest encoding so results are reproducible.

The graph cut's settings are one `CutEnergy`, checked when it is built;
`compute_labeling` and `restricted_relabel` take it whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

SMOOTHNESS_MODES = ("uniform-potts", "angle-proportional", "crease-discount")

_CREASE_SIGMA = 0.25  # radians of dihedral deviation of the crease-discount falloff


@dataclass(frozen=True)
class CutEnergy:
    """`fidelity` weighs the data term, `compactness` the `smoothness_mode`
    term; normals whose two best axis scores are closer than `sensitivity`
    turn by `tilt_angle` radians. Raises ValueError for an unknown mode, a
    compactness or fidelity NaN, infinite or negative, and a sensitivity or
    tilt_angle not finite."""

    compactness: float = 1.0
    fidelity: float = 3.0
    smoothness_mode: str = "uniform-potts"
    sensitivity: float = 1e-10
    tilt_angle: float = 0.05

    def __post_init__(self):
        if self.smoothness_mode not in SMOOTHNESS_MODES:
            raise ValueError(f"unknown smoothness mode {self.smoothness_mode!r},"
                             f" not one of {SMOOTHNESS_MODES}")
        for name in ("compactness", "fidelity"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN too
                raise ValueError(f"{name} must be finite and non-negative, not {getattr(self, name)}")
        for name in ("sensitivity", "tilt_angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")


def checked_labels(labels, n_triangles=None) -> np.ndarray:
    """The labels as a fresh int64 array; raises ValueError naming the first
    triangle whose label is not a whole number, or else the first outside
    0..5, and then, given `n_triangles`, when they are not that many."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        odd = np.flatnonzero(labels != np.round(labels))  # NaN too
        if odd.size:
            raise ValueError(f"label {labels[odd[0]]} of triangle {odd[0]} is not an integer")
    if labels.size and not (labels.min() >= 0 and labels.max() <= 5):
        bad = np.flatnonzero(~((labels >= 0) & (labels <= 5)))[0]
        raise ValueError(f"label {labels[bad]} of triangle {bad} outside 0..5")
    if n_triangles is not None and labels.shape != (n_triangles,):
        raise ValueError(f"{labels.size} labels for {n_triangles} triangles")
    return labels.astype(np.int64)


def nearest_label(normals) -> np.ndarray:
    """Closest signed axis per normal; ties go to the lowest encoding."""
    return np.argmax(np.asarray(normals) @ LABEL_DIRECTIONS.T, axis=1).astype(np.int64)


def naive_labeling(mesh: SurfaceMesh) -> np.ndarray:
    return nearest_label(mesh.normals)


def tilt_matrix(angle: float) -> np.ndarray:
    """Small composite rotation Rz(a) @ Ry(a) @ Rx(a) used to break axis ties."""
    c, s = math.cos(angle), math.sin(angle)
    rx = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    ry = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    return rz @ ry @ rx


def tilted_normals(normals, energy: CutEnergy = CutEnergy()):
    """Rotate the normals whose two best axis scores are closer than
    `energy.sensitivity` by `energy.tilt_angle`.

    Triangles sitting exactly between two labels (45-degree walls, jittered
    flats) otherwise fragment into noise charts after smoothing. Returns the
    adjusted normals and the boolean mask of tilted rows.
    """
    normals = np.asarray(normals, dtype=np.float64)
    dots = normals @ LABEL_DIRECTIONS.T
    top2 = np.sort(dots, axis=1)[:, -2:]
    flagged = (top2[:, 1] - top2[:, 0]) < energy.sensitivity
    out = normals.copy()
    if flagged.any():
        out[flagged] = normals[flagged] @ tilt_matrix(energy.tilt_angle).T
    return out, flagged


def data_costs(normals, energy: CutEnergy = CutEnergy()) -> np.ndarray:
    """(F, 6) data term: fidelity * angle(adjusted normal, label direction)."""
    adjusted, _ = tilted_normals(normals, energy)
    dots = np.clip(adjusted @ LABEL_DIRECTIONS.T, -1.0, 1.0)
    return energy.fidelity * np.arccos(dots)


def smoothness_weights(mesh: SurfaceMesh, energy: CutEnergy = CutEnergy()) -> np.ndarray:
    """(E,) discontinuity penalty per mesh edge for the graph cut: the
    compactness times a factor of `energy.smoothness_mode`.

    Modes: 'uniform-potts' charges every label change equally;
    'angle-proportional' scales with the dihedral deviation, discouraging
    cuts across flats; 'crease-discount' makes cutting along sharp creases
    nearly free.
    """
    if energy.smoothness_mode == "uniform-potts":
        return np.full(mesh.n_edges, float(energy.compactness))
    deviation = np.abs(mesh.dihedral_angles - math.pi)
    if energy.smoothness_mode == "angle-proportional":
        return energy.compactness * deviation
    return energy.compactness * np.exp(-((deviation / _CREASE_SIGMA) ** 2))


def compute_labeling(mesh: SurfaceMesh, energy: CutEnergy = CutEnergy()) -> np.ndarray:
    """Initial labeling: tie-broken nearest axis smoothed by a graph cut."""
    from .graphcut import alpha_expansion

    costs = data_costs(mesh.normals, energy)
    pairs = mesh.edge_tris
    weights = smoothness_weights(mesh, energy)
    labels, _ = alpha_expansion(costs, pairs, weights)  # from the nearest axes
    return labels


def restricted_relabel(
    mesh: SurfaceMesh,
    labels,
    region,
    allowed=None,
    energy: CutEnergy = CutEnergy(),
) -> np.ndarray:
    """Re-optimize the labels of `region` only, everything else held fixed.

    Fixed neighbors act through their boundary edges: crossing such an edge
    into a different label costs that edge's smoothness weight, folded into
    the data term of the free triangle. `region` is a bool mask over the
    triangles or triangle ids in 0..F-1. `allowed` optionally masks permitted
    labels, either one (6,) row for all free triangles or one row each.
    Raises ValueError for labels that `checked_labels` refuses or whose
    count is not F, a mask whose length is not F, a region id that is not a
    triangle id, and, naming it, the first free triangle that `allowed`
    leaves no label.

    Where `allowed` leaves each of the k free triangles one label, they take
    it and no cut runs, while k * pi * (fidelity + 6 * compactness) < BIG / 2;
    the cut would return the same labels. Each free triangle's allowed label
    costs at most fidelity * pi plus the weights of its edges out of the
    region, and each other label at least BIG less a few ulps. No weight
    exceeds compactness * pi and at most 3k edges touch the region, so the
    painted labeling's energy is below BIG / 2 and every other labeling's
    above it. From any other labeling the move to the one label of a
    triangle not on it lowers the energy, and the cut accepts only strict
    decreases, so it ends on the painted labeling. Past the bound the cut
    runs, and refuses what `alpha_expansion` refuses.
    """
    from .graphcut import BIG, alpha_expansion

    n = mesh.n_triangles
    labels = checked_labels(labels, n)
    region = np.asarray(sorted(region) if isinstance(region, (set, frozenset)) else region)
    if region.dtype == bool:
        if region.shape != (n,):
            raise ValueError(f"region mask of length {region.size} for {n} triangles")
        mask = region.copy()
    else:
        ids = region.ravel()
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError(f"region id {ids[0]} is not a triangle id")
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        if bad.size:
            raise ValueError(f"region id {ids[bad[0]]} outside 0..{n - 1}")
        mask = np.zeros(n, dtype=bool)
        mask[ids.astype(np.int64)] = True
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return labels
    if allowed is not None:
        allowed = np.broadcast_to(np.asarray(allowed, dtype=bool), (idx.size, 6))
        choices = allowed.sum(axis=1)
        empty = np.flatnonzero(choices == 0)
        if empty.size:
            raise ValueError(f"allowed leaves free triangle {idx[empty[0]]} no label")
        if choices.max() == 1 and (
                idx.size * math.pi * (energy.fidelity + 6.0 * energy.compactness) < BIG / 2):
            labels[idx] = np.argmax(allowed, axis=1)  # see the docstring
            return labels
    pos = np.full(n, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)

    costs = data_costs(mesh.normals[idx], energy)
    if allowed is not None:
        costs = np.where(allowed, costs, BIG)

    w_all = smoothness_weights(mesh, energy)
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
    labels[idx], _ = alpha_expansion(costs, pairs, weights, init=init)
    return labels


class FidelityReport(NamedTuple):
    area_weighted: float
    uniform: float


def fidelity_score(mesh: SurfaceMesh, labels, mode: str = "dot") -> FidelityReport:
    """How axis-aligned the labeling is, in [0, 1]; 1.0 = perfectly aligned.

    'dot' scores each triangle (1 + n . d) / 2; 'angle' scores
    1 - angle(n, d) / pi. Both area-weighted and uniform means are reported.
    Raises ValueError for labels that `checked_labels` refuses or whose
    count is not F.
    """
    labels = checked_labels(labels, mesh.n_triangles)
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
