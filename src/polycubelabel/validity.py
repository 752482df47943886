"""Validity rules for labeling graphs.

A labeling is valid when every chart, boundary and corner passes its rule:

* charts need at least 4 distinct neighboring charts;
* boundaries must separate different axes -- separating opposite labels of
  one axis is accepted only when explicitly allowed and the edge runs along
  a reflex crease (material angle above 180 degrees);
* the boundaries meeting at a corner must pair up by axis or form an X/Y/Z
  trio ("improved" rule). The "legacy" rule instead requires exactly three
  boundaries with three distinct axes.

The settable parts of these rules are one `ValidityRules`; a value outside
its contract is refused when it is built. Validity is deliberately separate
from quality (fidelity, monotonicity): the repair pipeline restores the
former before spending effort on the latter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Boundary, Corner, LabelingGraph
from .labeling import checked_labels

_REFLEX_TOL = 1e-9

CORNER_RULES = ("improved", "legacy")


@dataclass(frozen=True)
class ValidityRules:
    """Whether same-axis boundaries along reflex creases are accepted, the
    fraction of reflex edges such a boundary needs, and the corner rule.

    Raises ValueError for an allow_opposite_labels that is not a bool, a
    corner_rule not in CORNER_RULES and a min_reflex_fraction that is NaN or
    outside 0..1.
    """

    allow_opposite_labels: bool = False
    min_reflex_fraction: float = 1.0
    corner_rule: str = "improved"

    def __post_init__(self):
        if not isinstance(self.allow_opposite_labels, bool):
            raise ValueError("allow_opposite_labels must be a bool,"
                             f" not {self.allow_opposite_labels!r}")
        if self.corner_rule not in CORNER_RULES:
            raise ValueError(f"unknown corner rule {self.corner_rule!r},"
                             f" not one of {CORNER_RULES}")
        if not 0.0 <= self.min_reflex_fraction <= 1.0:  # NaN too
            raise ValueError(f"min_reflex_fraction must be in 0..1, not {self.min_reflex_fraction}")


def _reflex_fractions(mesh, edge_ids, offsets) -> np.ndarray:
    """Fraction of each boundary's edges lying on a reflex (>180 deg) crease,
    for boundaries whose edges are rows of the CSR (offsets, edge_ids)."""
    reflex = mesh.dihedral_angles[edge_ids] > math.pi + _REFLEX_TOL
    return np.add.reduceat(reflex, offsets[:-1], dtype=np.int64) / np.diff(offsets)


def reflex_fraction(mesh, boundary: Boundary) -> float:
    """Fraction of the boundary's edges lying on a reflex (>180 deg) crease."""
    return float(_reflex_fractions(mesh, list(boundary.edge_ids), [0, boundary.n_edges])[0])


# Each rule gives the ids of the invalid elements among arrays of them, and
# a reason each; `validate` runs it on a graph, `*_is_valid` on one element.


def _chart_faults(valence):
    bad = (valence < 4).nonzero()[0]
    return bad, [f"valence {v} < 4" for v in valence[bad].tolist()]


def _boundary_faults(mesh, axis, edge_ids, offsets, rules):
    bad = (axis < 0).nonzero()[0]
    if not rules.allow_opposite_labels or not bad.size:
        return bad, ["separates two charts of the same axis"] * len(bad)
    frac = _reflex_fractions(mesh, edge_ids, offsets)[bad]
    low = frac < rules.min_reflex_fraction
    return bad[low], [f"same-axis boundary with reflex fraction {f:.3f}"
                      f" < {rules.min_reflex_fraction:.3f}" for f in frac[low].tolist()]


# A corner verdict reads each axis count as a class: 0, 1, even >= 2 or odd
# >= 3. Each rule's faults, for every triple of classes, at 16 * X class +
# 4 * Y class + Z class:
_CLASSES = np.array(list(itertools.product(range(4), repeat=3)))
_TRIO = (_CLASSES == 1).all(axis=1)
_PAIRED = (_CLASSES % 2 == 0).all(axis=1) & ((_CLASSES > 0).sum(axis=1) >= 2)
_CORNER_FAULTS = {"improved": ~(_TRIO | _PAIRED), "legacy": ~_TRIO}
_CLASS_WEIGHTS = np.array([16, 4, 1])


def _corner_faults(counts, undefined, rules):
    classes = np.minimum(counts, 2 + (counts & 1))  # 0, 1, 2 when even, 3 when odd
    bad = (_CORNER_FAULTS[rules.corner_rule][classes @ _CLASS_WEIGHTS] | undefined).nonzero()[0]
    if not bad.size:
        return bad, []
    why = ("needs exactly one X, Y and Z boundary, got {}" if rules.corner_rule == "legacy"
           else "boundary axes {} neither pair up nor form an XYZ trio")
    return bad, ["incident to a same-axis boundary (no polycube axis)" if u
                 else why.format(tuple(c))
                 for c, u in zip(counts[bad].tolist(), undefined[bad].tolist())]


def _verdict(faults) -> tuple:
    bad, reasons = faults
    return (False, reasons[0]) if len(bad) else (True, "")


def boundary_is_valid(mesh, boundary: Boundary, rules: ValidityRules = ValidityRules()) -> tuple:
    axis = -1 if boundary.axis is None else boundary.axis
    return _verdict(_boundary_faults(mesh, np.array([axis]), list(boundary.edge_ids),
                                     [0, boundary.n_edges], rules))


def corner_is_valid(corner: Corner, rules: ValidityRules = ValidityRules()) -> tuple:
    return _verdict(_corner_faults(np.array([corner.axis_counts]),
                                   np.array([corner.has_undefined_axis]), rules))


@dataclass
class ValidityReport:
    invalid_charts: tuple = ()
    invalid_boundaries: tuple = ()
    invalid_corners: tuple = ()  # corner list indices, not vertex ids
    reasons: dict = field(default_factory=dict)

    @property
    def is_valid(self) -> bool:
        return not (self.invalid_charts or self.invalid_boundaries or self.invalid_corners)

    def summary(self) -> str:
        if self.is_valid:
            return "valid"
        return (
            f"{len(self.invalid_charts)} invalid charts, "
            f"{len(self.invalid_boundaries)} invalid boundaries, "
            f"{len(self.invalid_corners)} invalid corners"
        )


def validate(graph: LabelingGraph, rules: ValidityRules = ValidityRules()) -> ValidityReport:
    """Check every component of the labeling graph against its rule, on the
    graph's arrays; a reason is worded only for what fails."""
    faults = (
        _chart_faults(graph.chart_valence),
        _boundary_faults(graph.mesh, graph.boundary_axis, graph.boundary_edges,
                         graph.boundary_offsets, rules),
        _corner_faults(graph.corner_axis_counts, graph.corner_undefined, rules),
    )
    report = ValidityReport(*(tuple(bad.tolist()) for bad, _ in faults))
    for kind, (bad, reasons) in zip(("chart", "boundary", "corner"), faults):
        report.reasons.update(zip(((kind, i) for i in bad.tolist()), reasons))
    return report


def feature_edge_stats(mesh, labels) -> dict:
    """Count sharp feature edges preserved (on a boundary) vs lost. Raises
    ValueError for labels that `checked_labels` refuses or whose count is
    not F."""
    labels = checked_labels(labels, mesh.n_triangles)
    t1, t2 = mesh.edge_tris[mesh.feature_edge_mask].T
    preserved = int(np.count_nonzero(labels[t1] != labels[t2]))
    return {
        "preserved": preserved,
        "lost": len(t1) - preserved,
        "ignored": len(mesh.ignored_feature_edges),
    }
