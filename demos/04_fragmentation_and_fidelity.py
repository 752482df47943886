"""Why the initial labeling tweaks its normals, and what fidelity measures.

A prism rotated 45 degrees has walls whose normals tie between two labels;
the tiniest jitter then fragments a per-triangle assignment into dozens of
charts.  Flagging near-ties and tilting them consistently keeps the chart
count at the geometric face count.  Fidelity is the mean alignment between
triangle normals and their assigned axes: 1.0 on axis-aligned boxes, and
about 0.92 on a sphere no matter how it is labeled.
"""

import math

import numpy as np

from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import CutEnergy, compute_labeling, fidelity_score, naive_labeling
from polycubelabel.mesh import SurfaceMesh

verts, tris = shapes.subdivide(*shapes.l_prism(), 2)
verts = shapes.jitter(shapes.rotate_z(verts, math.pi / 4), 1e-6, seed=5)
m = SurfaceMesh(verts, tris)

naive = naive_labeling(m)
tweaked = compute_labeling(m, CutEnergy(sensitivity=1e-3))
print("rotated + jittered L-prism (8 geometric faces):")
print(f"  per-triangle argmax: {LabelingGraph(m, naive).n_charts} charts")
print(f"  tweaked graph cut:   {LabelingGraph(m, tweaked).n_charts} charts")

cube = SurfaceMesh(*shapes.cube())
area, uniform = fidelity_score(cube, naive_labeling(cube))
print(f"\ncube fidelity: area-weighted={area} uniform={uniform}")

sphere = SurfaceMesh(*shapes.icosphere(3))
area, uniform = fidelity_score(sphere, naive_labeling(sphere))
print(f"sphere fidelity: area-weighted={area:.6f}  "
      f"(limit for any round shape is about 0.9156)")

angles = np.degrees(np.arccos(np.clip(area, -1, 1)))
print(f"  mean deviation on the sphere: {angles:.1f} degrees")
