"""Label a shape end to end and export the results.

Builds an L-shaped prism, runs the full pipeline (graph-cut labeling plus
both repair routines), prints the structural summary, and writes the
labeling, a metrics report, and a color-coded PLY next to this script.
"""

from pathlib import Path

from polycubelabel import io, shapes
from polycubelabel.mesh import SurfaceMesh
from polycubelabel.labeling import LABEL_NAMES
from polycubelabel.pipeline import label_mesh, metrics_report

here = Path(__file__).parent
out = here / "output"
out.mkdir(exist_ok=True)

verts, tris = shapes.subdivide(*shapes.l_prism(), 2)
mesh = SurfaceMesh(verts, tris)
print(f"L-prism: {len(mesh.vertices)} vertices, {mesh.n_triangles} triangles, "
      f"{len(mesh.feature_edges)} feature edges")

result = label_mesh(mesh)
g = result.graph
print(f"status: {result.status}")
print(f"charts={g.n_charts} boundaries={g.n_boundaries} corners={g.n_corners} "
      f"turning-points={g.total_turning_points}")
for chart in g.charts:
    print(f"  chart {chart.index}: {LABEL_NAMES[chart.label]:>2s} "
          f"({len(chart.triangles)} triangles, valence {chart.valence})")

io.write_labeling(out / "l_prism.flags", result.labels)
io.write_ply(out / "l_prism.ply", mesh, result.labels)
report = metrics_report(mesh, result)
print(f"fidelity (area-weighted): {report['fidelity']['area_weighted']:.6f}")
print(f"feature edges preserved: {report['feature_edges']['preserved']}"
      f"/{len(mesh.feature_edges)}")
print(f"wrote {out / 'l_prism.flags'} and {out / 'l_prism.ply'}")
