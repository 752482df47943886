"""What makes a labeling valid — charts, boundaries, corners.

Walks the three validity rules on hand-built cases: a cube corner where
three axes meet, a cone apex where four boundaries of one axis collide,
and same-axis boundaries on convex versus reflex creases.
"""

import numpy as np

from polycubelabel import shapes
from polycubelabel.graph import Corner, LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.validity import ValidityRules, boundary_is_valid, corner_is_valid, validate

OPPOSITE_OK = ValidityRules(allow_opposite_labels=True)

# --- corners: the improved rule accepts balanced same-axis pairs ---------
print("corner rule (improved vs legacy):")
for counts in [(1, 1, 1), (2, 0, 2), (2, 2, 2), (0, 0, 4), (1, 1, 2)]:
    corner = Corner(0, (0,) * sum(counts), counts, False)
    improved, why_i = corner_is_valid(corner, ValidityRules(corner_rule="improved"))
    legacy, _ = corner_is_valid(corner, ValidityRules(corner_rule="legacy"))
    note = "" if improved else f"  ({why_i})"
    print(f"  axis counts {counts}: improved={improved} legacy={legacy}{note}")

# --- boundaries: opposite labels across a convex crease are hopeless -----
cube = SurfaceMesh(*shapes.cube())
labels = naive_labeling(cube)
labels[cube.normals[:, 1] > 0.9] = 5  # -Z painted onto the +Y wall
g = LabelingGraph(cube, labels)
bad = next(b for b in g.boundaries if b.axis is None)
ok, why = boundary_is_valid(cube, bad, OPPOSITE_OK)
print(f"\n+Z|-Z boundary on a convex cube edge, flag on: valid={ok} ({why})")

# ... but along a fully reflex crease the opt-in flag accepts them
lp = SurfaceMesh(*shapes.l_prism())
labels = naive_labeling(lp)
wall = np.nonzero(labels == 2)[0]
inner = wall[[np.all(lp.vertices[lp.triangles[t], 1] <= 1.0 + 1e-9) for t in wall]]
labels[inner] = 1
g = LabelingGraph(lp, labels)
from polycubelabel.validity import reflex_fraction
reflex = next(b for b in g.boundaries
              if b.axis is None and reflex_fraction(lp, b) == 1.0)
print(f"+X|-X boundary on the L's reflex crease, flag off: "
      f"valid={boundary_is_valid(lp, reflex)[0]}")
print(f"  same boundary, flag on: "
      f"valid={boundary_is_valid(lp, reflex, OPPOSITE_OK)[0]}")

# --- whole-labeling report ------------------------------------------------
report = validate(g)
print(f"\nfull report on the painted L-prism: valid={report.is_valid}")
for (kind, idx), why in sorted(report.reasons.items()):
    print(f"  {kind} {idx}: {why}")
