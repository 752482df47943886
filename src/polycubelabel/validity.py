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


def reflex_fraction(mesh, boundary: Boundary) -> float:
    """Fraction of the boundary's edges lying on a reflex (>180 deg) crease."""
    theta = mesh.dihedral_angles[list(boundary.edge_ids)]
    return float(np.mean(theta > math.pi + _REFLEX_TOL))


def chart_is_valid(chart) -> tuple:
    if chart.valence < 4:
        return False, f"valence {chart.valence} < 4"
    return True, ""


def boundary_is_valid(mesh, boundary: Boundary, rules: ValidityRules = ValidityRules()) -> tuple:
    if boundary.axis is not None:
        return True, ""
    if not rules.allow_opposite_labels:
        return False, "separates two charts of the same axis"
    frac = reflex_fraction(mesh, boundary)
    if frac < rules.min_reflex_fraction:
        return False, (f"same-axis boundary with reflex fraction {frac:.3f}"
                       f" < {rules.min_reflex_fraction:.3f}")
    return True, ""


def corner_is_valid(corner: Corner, rules: ValidityRules = ValidityRules()) -> tuple:
    if corner.has_undefined_axis:
        return False, "incident to a same-axis boundary (no polycube axis)"
    counts = corner.axis_counts
    if rules.corner_rule == "legacy":
        if counts == (1, 1, 1):
            return True, ""
        return False, f"needs exactly one X, Y and Z boundary, got {counts}"
    if counts == (1, 1, 1):
        return True, ""
    if all(c % 2 == 0 for c in counts) and sum(c > 0 for c in counts) >= 2:
        return True, ""
    return False, f"boundary axes {counts} neither pair up nor form an XYZ trio"


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
    """Check every component of the labeling graph against its rule."""
    report = ValidityReport()
    bad_charts, bad_boundaries, bad_corners = [], [], []
    for chart in graph.charts:
        ok, why = chart_is_valid(chart)
        if not ok:
            bad_charts.append(chart.index)
            report.reasons[("chart", chart.index)] = why
    for boundary in graph.boundaries:
        ok, why = boundary_is_valid(graph.mesh, boundary, rules)
        if not ok:
            bad_boundaries.append(boundary.index)
            report.reasons[("boundary", boundary.index)] = why
    for i, corner in enumerate(graph.corners):
        ok, why = corner_is_valid(corner, rules)
        if not ok:
            bad_corners.append(i)
            report.reasons[("corner", i)] = why
    report.invalid_charts = tuple(bad_charts)
    report.invalid_boundaries = tuple(bad_boundaries)
    report.invalid_corners = tuple(bad_corners)
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
