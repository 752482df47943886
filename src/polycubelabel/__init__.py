"""polycubelabel: compute, validate and repair polycube labelings of closed
triangle surface meshes.

A labeling assigns each surface triangle one of the six signed axes
+X, -X, +Y, -Y, +Z, -Z (encoded 0..5). The package builds the labeling
graph (charts / boundaries / corners), checks polycube validity, counts
turning points, and repairs labelings with semi-global operators driven by
graph-cut optimization.
"""

from .graph import LabelingGraph, optimal_edge_directions
from .graphcut import alpha_expansion, min_st_cut, potts_energy
from .io import load_mesh, read_labeling, write_labeling, write_ply
from .labeling import (
    LABEL_COLORS,
    LABEL_DIRECTIONS,
    LABEL_NAMES,
    CutEnergy,
    compute_labeling,
    fidelity_score,
    naive_labeling,
)
from .mesh import SurfaceMesh, detect_feature_edges, interior_dihedral
from .validity import ValidityReport, ValidityRules, feature_edge_stats, validate

__version__ = "0.1.0"

__all__ = [
    "LABEL_COLORS",
    "LABEL_DIRECTIONS",
    "LABEL_NAMES",
    "CutEnergy",
    "LabelingGraph",
    "SurfaceMesh",
    "ValidityReport",
    "ValidityRules",
    "alpha_expansion",
    "compute_labeling",
    "detect_feature_edges",
    "feature_edge_stats",
    "fidelity_score",
    "interior_dihedral",
    "load_mesh",
    "min_st_cut",
    "naive_labeling",
    "optimal_edge_directions",
    "potts_energy",
    "read_labeling",
    "validate",
    "write_labeling",
    "write_ply",
    "__version__",
]
