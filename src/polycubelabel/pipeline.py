"""Automatic repair pipeline.

Two routines run after the initial graph-cut labeling: the validity routine
inserts/removes charts until every chart, boundary and corner passes its
rule, then the monotonicity routine removes turning points while keeping the
labeling valid.

Both routines apply operators through one step, `_State.attempt`: run the
operator, build the outcome's LabelingGraph and ValidityReport once, ask the
step's accept predicate, then commit and log the outcome or drop it. An
outcome that changed nothing is always dropped. Validity is worth more than
quality: the validity routine commits every change (increase_chart_valence
only when the target chart gains a neighbor), while the monotonicity routine
drops any outcome that breaks validity or fails to reduce the turning-point
count (for straightening: raises it).

Most steps run as a sweep (`_sweep`): try the current targets in order,
start over after the first commit, and stop once a whole pass commits
nothing. Each labeling's graph is built once: either where a routine starts
from raw labels, or in `attempt`; `run_monotonicity_routine` takes over the
graph the validity routine ends with.

The validity routine carries a visited-state set of tuples
(#charts, #boundaries, #corners, #invalid of each, #turning-points); seeing
the same tuple twice means the loop is cycling, which triggers the more
aggressive escape (removing the charts around invalid boundaries).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators as ops
from .graph import LabelingGraph
from .labeling import checked_labels, compute_labeling, fidelity_score
from .mesh import SurfaceMesh
from .validity import ValidityReport, feature_edge_stats, validate


@dataclass
class PipelineConfig:
    compactness: float = 1.0
    fidelity: float = 3.0
    smoothness_mode: str = "uniform-potts"
    sensitivity: float = 1e-10
    tilt_angle: float = 0.05
    allow_opposite_labels: bool = False
    min_reflex_fraction: float = 1.0
    corner_rule: str = "improved"
    turning_point_penalty: float = 1.0
    max_iterations: int = 10
    insert_width: int = 3
    insert_radius: int = 3


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


def state_tuple(graph: LabelingGraph, report: ValidityReport) -> tuple:
    return (
        graph.n_charts,
        graph.n_boundaries,
        graph.n_corners,
        len(report.invalid_charts),
        len(report.invalid_boundaries),
        len(report.invalid_corners),
        graph.total_turning_points,
    )


def labeling_status(graph: LabelingGraph, report: ValidityReport) -> str:
    if not report.is_valid:
        return "invalid"
    if graph.total_turning_points == 0:
        return "valid-all-monotone"
    return "valid-with-turning-points"


class _State:
    """(labels, graph, report) of the current labeling; every operator
    application goes through `attempt`."""

    def __init__(self, labels, graph: LabelingGraph, cfg: PipelineConfig, log=None):
        self.mesh = graph.mesh
        self.cfg = cfg
        self.log = log if log is not None else []
        self.labels, self.graph, self.report = labels, graph, self._validate(graph)

    def _validate(self, graph):
        cfg = self.cfg
        return validate(graph, cfg.allow_opposite_labels, cfg.min_reflex_fraction, cfg.corner_rule)

    @property
    def valid(self):
        return self.report.is_valid

    def attempt(self, op, *args, target=None, accept=None, extra="") -> bool:
        """Apply `op` at `args` and commit the outcome if it changed the
        labeling and `accept(old_graph, new_graph, new_report)` holds (no
        predicate: always). Returns whether it committed; the log names
        `target`, by default the args joined with '/'."""
        out = op(self.mesh, self.labels, self.graph, *args)
        if not out.applied:
            return False
        graph = LabelingGraph(self.mesh, out.labels, self.cfg.turning_point_penalty)
        report = self._validate(graph)
        if accept is not None and not accept(self.graph, graph, report):
            return False
        self.labels, self.graph, self.report = out.labels, graph, report
        if target is None:
            target = "/".join(str(a) for a in args)
        suffix = f" {extra}" if extra else ""
        self.log.append(f"{op.__name__} target={target} changed={len(out.changed)}{suffix}")
        return True


def _start(mesh: SurfaceMesh, labels, cfg: PipelineConfig, log=None) -> _State:
    labels = np.asarray(labels, dtype=np.int64)
    return _State(labels, LabelingGraph(mesh, labels, cfg.turning_point_penalty), cfg, log)


def _sweep(targets, step, limit: int = 100) -> bool:
    """Try `step` on each of `targets()` in order and start over after the
    first success, until a whole pass succeeds nowhere or `limit` steps
    have succeeded. Returns whether any step succeeded."""
    done = 0
    while done < limit and any(step(t) for t in targets()):
        done += 1
    return done > 0


def _valence_gain(chart_id):
    """Accept when the chart holding the target chart's first triangle has
    more neighbors than the target had."""
    def accept(old, new, report):
        chart = old.charts[chart_id]
        return new.charts[int(new.chart_of[chart.triangles[0]])].valence > chart.valence
    return accept


def _fewer_turning_points(old, new, report):
    return report.is_valid and new.total_turning_points < old.total_turning_points


def _no_more_turning_points(old, new, report):
    return report.is_valid and new.total_turning_points <= old.total_turning_points


def _remove_invalid_charts(st: _State) -> bool:
    """Dissolve the first invalid chart not surrounded by feature edges,
    again and again, until that fails."""
    return _sweep(
        lambda: itertools.islice(
            (c for c in st.report.invalid_charts if not ops.is_feature_surrounded(st.graph, c)), 1
        ),
        lambda c: st.attempt(ops.remove_chart, c),
    )


def _remove_charts_around_invalid_boundaries(st: _State) -> bool:
    """Escape hatch when the state tuple repeats: dissolve both charts
    adjacent to each invalid boundary."""
    def targets():
        if not st.report.invalid_boundaries:
            return ()
        b = st.graph.boundaries[st.report.invalid_boundaries[0]]
        return sorted({b.left_chart, b.right_chart})

    return _sweep(
        targets,
        lambda c: st.attempt(ops.remove_chart, c, extra="escape"),
        limit=2 * max(1, st.graph.n_boundaries),
    )


def run_validity_routine(mesh: SurfaceMesh, labels, cfg: PipelineConfig = None, log=None):
    """Insert and remove charts until the labeling is valid (or give up).

    Returns (labels, graph, report, iterations). Never raises on failure to
    converge: an invalid report after max_iterations is the caller's signal.
    """
    cfg = cfg or PipelineConfig()
    st = _start(mesh, labels, cfg, log)
    visited = set()  # grows for the whole run
    n = 0
    while not st.valid and n < cfg.max_iterations:
        n += 1
        _sweep(  # charts walled in by features cannot dissolve: add a neighbor
            lambda: (c for c in st.report.invalid_charts if ops.is_feature_surrounded(st.graph, c)),
            lambda c: st.attempt(ops.increase_chart_valence, c, accept=_valence_gain(c)),
        )
        _sweep(
            lambda: st.report.invalid_boundaries,
            lambda b: st.attempt(ops.fix_invalid_boundary, b, cfg.insert_width, target=b),
        )
        _sweep(
            lambda: st.report.invalid_corners,
            lambda c: st.attempt(
                ops.fix_invalid_corner, c, cfg.insert_radius, cfg.corner_rule, target=c
            ),
        )
        while True:
            removed = _remove_invalid_charts(st)
            if st.valid:
                break
            s = state_tuple(st.graph, st.report)
            if s in visited:
                _remove_charts_around_invalid_boundaries(st)
                break  # escape applied: go round the outer loop again
            visited.add(s)
            if not removed:
                break
    return st.labels, st.graph, st.report, n


def run_monotonicity_routine(graph: LabelingGraph, cfg: PipelineConfig = None, log=None):
    """Remove turning points from a valid labeling, keeping it valid.

    Starts from the labeling's graph, which must have been built with
    ``cfg.turning_point_penalty`` (ValueError otherwise). Step order: join
    feature-linked turning-point pairs, pull corners onto feature
    turning-points, push boundaries across smooth turning-points, then
    straighten the remaining smooth boundaries.
    """
    cfg = cfg or PipelineConfig()
    if graph.mu != cfg.turning_point_penalty:
        raise ValueError(
            f"graph built with turning-point penalty {graph.mu},"
            f" config has {cfg.turning_point_penalty}"
        )
    st = _State(np.array(graph.labels), graph, cfg, log)  # graph.labels is read-only

    def tps():
        return st.graph.turning_point_vertices()

    stages = (
        (lambda: itertools.combinations(tps(), 2),  # pairs bridged by lost feature edges
         lambda pair: st.attempt(ops.join_turning_points_pair, *pair, accept=_fewer_turning_points)),
        (lambda: [v for v in tps() if st.mesh.is_feature_vertex(v)],
         lambda v: st.attempt(ops.pull_closest_corner, v, accept=_fewer_turning_points)),
        (tps,
         lambda v: st.attempt(ops.move_boundary_near_turning_point, v, cfg.insert_radius,
                              accept=_fewer_turning_points)),
    )
    for targets, step in stages:
        if st.graph.total_turning_points:
            _sweep(targets, step)
    if not st.graph.total_turning_points:
        return st.labels, st.graph, st.report

    bid = 0
    for _ in range(2 * max(1, st.graph.n_boundaries)):  # straighten what remains
        if bid >= st.graph.n_boundaries:
            break
        if not st.attempt(ops.straighten_boundary, bid, accept=_no_more_turning_points):
            bid += 1  # on success ids reshuffle: retry the same index on the new graph
    return st.labels, st.graph, st.report


def label_mesh(
    mesh: SurfaceMesh,
    cfg: PipelineConfig = None,
    init_labels=None,
) -> PipelineResult:
    """Initial labeling plus both repair routines, with per-stage timings."""
    cfg = cfg or PipelineConfig()
    if init_labels is not None:
        init_labels = checked_labels(init_labels)
    durations = {}
    op_log = []
    t0 = time.perf_counter()
    try:
        if init_labels is None:
            labels = compute_labeling(
                mesh,
                compactness=cfg.compactness,
                fidelity=cfg.fidelity,
                smoothness_mode=cfg.smoothness_mode,
                sensitivity=cfg.sensitivity,
                tilt_angle=cfg.tilt_angle,
            )
        else:
            labels = init_labels
        durations["initial"] = time.perf_counter() - t0

        t1 = time.perf_counter()
        labels, graph, report, iterations = run_validity_routine(mesh, labels, cfg, op_log)
        durations["validity"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        if report.is_valid:
            labels, graph, report = run_monotonicity_routine(graph, cfg, op_log)
        durations["monotonicity"] = time.perf_counter() - t2
    except Exception as exc:  # a crash is a result, not an abort
        st = _start(mesh, init_labels if init_labels is not None else
                    np.zeros(mesh.n_triangles, dtype=np.int64), cfg)
        durations["total"] = time.perf_counter() - t0
        return PipelineResult(
            st.labels, st.graph, st.report, "failed",
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
        "label_counts": {
            name: int(c)
            for name, c in zip(
                ("+X", "-X", "+Y", "-Y", "+Z", "-Z"),
                np.bincount(result.labels, minlength=6),
            )
        },
        "iterations": result.iterations,
        "error": result.error,
        "durations_seconds": {k: round(v, 6) for k, v in result.durations.items()},
    }
