"""Automatic repair pipeline.

Two routines run after the initial graph-cut labeling: the validity routine
inserts/removes charts until every chart, boundary and corner passes its
rule, then the monotonicity routine removes turning points while keeping the
labeling valid. A `PipelineConfig` holds the cut energy (`CutEnergy`) of the
initial cut and of every chart removal, the `ValidityRules` of every check,
and the validity routine's iteration cap.

The current labeling is its LabelingGraph: `_State` holds that graph and
its ValidityReport, and operators read the mesh and the read-only labels
off the graph. Turning-point targets and counts come from the graph's index
(`turning_point_vertices`, `total_turning_points`), built once. Both
routines apply operators through one step, `_State.attempt`: run the
operator on the graph, build the outcome's LabelingGraph (from the current
one, its parent) and ValidityReport once, ask the step's accept predicate,
then commit and log the outcome or drop it. An outcome that changed nothing
is always dropped. Validity is worth more than quality: the validity
routine commits every change (increase_chart_valence only when the target
chart gains a neighbor), while the monotonicity routine drops any outcome
that breaks validity or fails to reduce the turning-point count (for
straightening: raises it).

Most steps run as a sweep (`_sweep`): try the current targets in order,
start over after the first commit, and stop once a whole pass commits
nothing. Each validity iteration runs four sweeps once, in this order:
raise the valence of invalid charts walled in by feature edges, fix
invalid boundaries, fix invalid corners, then dissolve the other invalid
charts. Each labeling's graph is built once and validated once: either
where a routine starts from raw labels, or in `attempt`; `label_mesh` hands
the graph and report the validity routine ends with to
`run_monotonicity_routine`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators as ops
from .graph import LabelingGraph
from .labeling import LABEL_NAMES, CutEnergy, checked_labels, compute_labeling, fidelity_score
from .mesh import SurfaceMesh
from .validity import ValidityReport, ValidityRules, feature_edge_stats, validate


@dataclass(frozen=True)
class PipelineConfig:
    """Raises ValueError for a max_iterations that is negative or not an
    int (a bool included)."""

    energy: CutEnergy = CutEnergy()
    rules: ValidityRules = ValidityRules()
    max_iterations: int = 10

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"max_iterations must be a non-negative int, not {n!r}")


@dataclass
class PipelineResult:
    labels: np.ndarray
    graph: LabelingGraph
    report: ValidityReport
    status: str  # valid-all-monotone | valid-with-turning-points | invalid | failed
    iterations: int = 0
    durations: dict = field(default_factory=dict)
    error: Optional[str] = None
    op_log: list = field(default_factory=list)


def labeling_status(graph: LabelingGraph, report: ValidityReport) -> str:
    if not report.is_valid:
        return "invalid"
    if graph.total_turning_points == 0:
        return "valid-all-monotone"
    return "valid-with-turning-points"


class _State:
    """(graph, report) of the current labeling; every operator application
    goes through `attempt`. The graph is validated here unless its report
    under `cfg.rules` is given."""

    def __init__(self, graph: LabelingGraph, cfg: PipelineConfig, log=None, report=None):
        self.cfg = cfg
        self.log = log if log is not None else []
        self.graph = graph
        self.report = validate(graph, cfg.rules) if report is None else report

    def attempt(self, op, *args, accept=None, **kw) -> bool:
        """Apply `op(graph, *args, **kw)` and commit the outcome if it changed
        the labeling and `accept(old_graph, new_graph, new_report)` holds (no
        predicate: always). Returns whether it committed; the log names the
        target as the args joined with '/'."""
        out = op(self.graph, *args, **kw)
        if not out.applied:
            return False
        graph = LabelingGraph(self.graph.mesh, out.labels, parent=self.graph)
        report = validate(graph, self.cfg.rules)
        if accept is not None and not accept(self.graph, graph, report):
            return False
        self.graph, self.report = graph, report
        target = "/".join(str(a) for a in args)
        self.log.append(f"{op.__name__} target={target} changed={len(out.changed)}")
        return True


def _sweep(targets, step):
    """Try `step` on each of `targets()` in order and start over after the
    first success, until a whole pass succeeds nowhere or 100 steps have
    succeeded."""
    done = 0
    while done < 100 and any(step(t) for t in targets()):
        done += 1


def _valence_gain(chart_id):
    """Accept when the chart holding the target chart's first triangle has
    more neighbors than the target had."""
    def accept(old, new, report):
        first = old.charts[chart_id].triangles[0]
        return new.chart_valence[new.chart_of[first]] > old.chart_valence[chart_id]
    return accept


def _fewer_turning_points(old, new, report):
    return report.is_valid and new.total_turning_points < old.total_turning_points


def _no_more_turning_points(old, new, report):
    return report.is_valid and new.total_turning_points <= old.total_turning_points


def run_validity_routine(mesh: SurfaceMesh, labels, cfg: PipelineConfig = None, log=None):
    """Insert and remove charts until the labeling is valid (or give up).

    Returns (labels, graph, report, iterations), the labels being the graph's
    read-only ones. Never raises on failure to converge: an invalid report
    after max_iterations is the caller's signal.
    """
    cfg = cfg or PipelineConfig()
    st = _State(LabelingGraph(mesh, labels), cfg, log)
    n = 0
    while not st.report.is_valid and n < cfg.max_iterations:
        n += 1
        _sweep(  # charts walled in by features cannot dissolve: add a neighbor
            lambda: (c for c in st.report.invalid_charts if ops.is_feature_surrounded(st.graph, c)),
            lambda c: st.attempt(ops.increase_chart_valence, c, accept=_valence_gain(c)),
        )
        _sweep(
            lambda: st.report.invalid_boundaries,
            lambda b: st.attempt(ops.fix_invalid_boundary, b),
        )
        _sweep(
            lambda: st.report.invalid_corners,
            lambda c: st.attempt(ops.fix_invalid_corner, c, rules=cfg.rules),
        )
        _sweep(  # dissolve the first other invalid chart, again and again, until that fails
            lambda: itertools.islice((c for c in st.report.invalid_charts
                                      if not ops.is_feature_surrounded(st.graph, c)), 1),
            lambda c: st.attempt(ops.remove_chart, c, energy=cfg.energy),
        )
    return st.graph.labels, st.graph, st.report, n


def run_monotonicity_routine(graph: LabelingGraph, cfg: PipelineConfig = None, log=None,
                             *, _report=None):
    """Remove turning points from a valid labeling, keeping it valid.

    Starts from the labeling's graph and returns (labels, graph, report).
    Step order: join feature-linked turning-point pairs, pull corners onto
    feature turning-points, push boundaries across smooth turning-points,
    then straighten the remaining smooth boundaries. `label_mesh` passes
    the graph's report under `cfg.rules` as `_report`, so that the graph is
    not validated again.
    """
    cfg = cfg or PipelineConfig()
    st = _State(graph, cfg, log, _report)

    def tps():
        return st.graph.turning_point_vertices()

    stages = (
        (lambda: itertools.combinations(tps(), 2),  # pairs bridged by lost feature edges
         lambda pair: st.attempt(ops.join_turning_points_pair, *pair, accept=_fewer_turning_points)),
        (lambda: [v for v in tps() if st.graph.mesh.is_feature_vertex(v)],
         lambda v: st.attempt(ops.pull_closest_corner, v, accept=_fewer_turning_points)),
        (tps,  # the radius is passed to keep it in the logged target
         lambda v: st.attempt(ops.move_boundary_near_turning_point, v, ops.DISK_RADIUS,
                              accept=_fewer_turning_points)),
    )
    for targets, step in stages:
        _sweep(targets, step)
    if not st.graph.total_turning_points:
        return st.graph.labels, st.graph, st.report

    bid = 0
    for _ in range(2 * max(1, st.graph.n_boundaries)):  # straighten what remains
        if bid >= st.graph.n_boundaries:
            break
        if not st.attempt(ops.straighten_boundary, bid, accept=_no_more_turning_points):
            bid += 1  # on success ids reshuffle: retry the same index on the new graph
    return st.graph.labels, st.graph, st.report


def label_mesh(
    mesh: SurfaceMesh,
    cfg: PipelineConfig = None,
    init_labels=None,
) -> PipelineResult:
    """Initial labeling plus both repair routines, with per-stage timings.

    Raises ValueError, before any work, for `init_labels` that are not a
    labeling of the mesh (`cfg` was checked when built); a crash after that
    becomes a "failed" result.
    """
    cfg = cfg or PipelineConfig()
    if init_labels is not None:
        init_labels = checked_labels(init_labels)
        if init_labels.shape != (mesh.n_triangles,):
            raise ValueError(f"init_labels has {init_labels.size} labels,"
                             f" the mesh {mesh.n_triangles} triangles")
    durations = {}
    op_log = []
    t0 = time.perf_counter()
    try:
        labels = compute_labeling(mesh, cfg.energy) if init_labels is None else init_labels
        durations["initial"] = time.perf_counter() - t0

        t1 = time.perf_counter()
        labels, graph, report, iterations = run_validity_routine(mesh, labels, cfg, op_log)
        durations["validity"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        if report.is_valid:
            labels, graph, report = run_monotonicity_routine(graph, cfg, op_log, _report=report)
        durations["monotonicity"] = time.perf_counter() - t2
    except Exception as exc:  # a crash is a result, not an abort
        st = _State(LabelingGraph(mesh, init_labels if init_labels is not None else
                                  np.zeros(mesh.n_triangles, dtype=np.int64)), cfg)
        durations["total"] = time.perf_counter() - t0
        return PipelineResult(
            st.graph.labels, st.graph, st.report, "failed",
            durations=durations, error=f"{type(exc).__name__}: {exc}", op_log=op_log,
        )
    durations["total"] = time.perf_counter() - t0
    return PipelineResult(
        labels, graph, report, labeling_status(graph, report),
        iterations=iterations, durations=durations, op_log=op_log,
    )


def metrics_report(mesh: SurfaceMesh, result: PipelineResult) -> dict:
    """JSON-friendly summary; durations are kept in a separate key so the
    rest of the payload is reproducible byte-for-byte."""
    fid_area, fid_uniform = fidelity_score(mesh, result.labels)
    return {
        "schema_version": 1,
        "status": result.status,
        "charts": result.graph.n_charts,
        "boundaries": result.graph.n_boundaries,
        "corners": result.graph.n_corners,
        "turning_points": result.graph.total_turning_points,
        "invalid_charts": len(result.report.invalid_charts),
        "invalid_boundaries": len(result.report.invalid_boundaries),
        "invalid_corners": len(result.report.invalid_corners),
        "fidelity": {"area_weighted": fid_area, "uniform": fid_uniform},
        "feature_edges": feature_edge_stats(mesh, result.labels),
        "label_counts": dict(zip(LABEL_NAMES, np.bincount(result.labels, minlength=6).tolist())),
        "iterations": result.iterations,
        "error": result.error,
        "durations_seconds": {k: round(v, 6) for k, v in result.durations.items()},
    }
