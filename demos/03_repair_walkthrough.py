"""Watch the repair routines fix deliberately broken labelings.

Three scenes: a same-axis boundary split across a flat face (fixed by a
separating strip chart), a cone apex where four boundaries of one axis
meet (buried under a fresh disk chart), and a tilted torus whose naive
labels zig-zag (straightened by the monotonicity routine).
"""

import math

import numpy as np

from polycubelabel import shapes
from polycubelabel.graph import LabelingGraph
from polycubelabel.labeling import naive_labeling
from polycubelabel.mesh import SurfaceMesh, detect_feature_edges
from polycubelabel.pipeline import run_monotonicity_routine, run_validity_routine


def show(tag, mesh, labels):
    g = LabelingGraph(mesh, labels)
    from polycubelabel.validity import validate
    r = validate(g)
    print(f"{tag}: charts={g.n_charts} turning-points={g.total_turning_points} "
          f"valid={r.is_valid}")
    return g


# --- scene 1: half the cube lid flipped to the opposite label -------------
verts, tris = shapes.subdivide(*shapes.cube(), 2)
m = SurfaceMesh(verts, tris, feature_edges=detect_feature_edges(
    SurfaceMesh(verts, tris), math.pi / 4))
labels = naive_labeling(m)
lid = np.nonzero(m.normals[:, 2] > 0.9)[0]
top_half = lid[m.vertices[m.triangles[lid, 0], 1] > 0.5]
labels[top_half] = 5  # -Z next to +Z on a flat face: invalid boundary
show("split lid before", m, labels)
log = []
fixed, g, report, _ = run_validity_routine(m, labels, log=log)
show("split lid after ", m, fixed)
print("  applied:", *log, sep="\n  ")

# --- scene 2: cone apex surrounded by four lateral labels -----------------
verts, tris = shapes.subdivide(*shapes.cone(8), 2)
m = SurfaceMesh(verts, tris, feature_edges=detect_feature_edges(
    SurfaceMesh(verts, tris), math.pi / 4))
labels = np.empty(m.n_triangles, dtype=np.int64)
labels[m.normals[:, 2] < -0.9] = 5
side = m.normals[:, 2] >= -0.9
cent = m.vertices[m.triangles].mean(axis=1)
quad = ((np.arctan2(cent[:, 1], cent[:, 0]) + math.pi / 4) // (math.pi / 2)).astype(int) % 4
for q, lab in enumerate((0, 2, 1, 3)):
    labels[side & (quad == q)] = lab
print()
show("cone apex before", m, labels)
log = []
fixed, g, report, _ = run_validity_routine(m, labels, log=log)
show("cone apex after ", m, fixed)
print("  applied:", *log, sep="\n  ")

# --- scene 3: tilted torus, turning points on smooth boundaries -----------
verts, tris = shapes.torus()
c, s = math.cos(0.5), math.sin(0.5)
verts = verts @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]]).T
m = SurfaceMesh(verts, tris, feature_edges=detect_feature_edges(
    SurfaceMesh(verts, tris), math.pi / 4))
labels = naive_labeling(m)
print()
g = show("tilted torus before", m, labels)
log = []
fixed, g, report = run_monotonicity_routine(g, log=log)  # starts from the graph
show("tilted torus after ", m, fixed)
print("  applied:", *log, sep="\n  ")
