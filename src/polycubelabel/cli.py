"""Command-line front end.

Exit codes: 0 success, 1 invalid labeling (``validate`` only), 2 bad input
or file-format problems. Diagnostics go to stderr; machine-readable output
goes to files named by flags, never to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .io import load_mesh, read_labeling, write_labeling, write_ply
from .graph import LabelingGraph
from .labeling import LABEL_NAMES, SMOOTHNESS_MODES, CutEnergy
from .pipeline import (PipelineConfig, PipelineResult, label_mesh,
                       labeling_status, metrics_report)
from .validity import CORNER_RULES, ValidityRules, validate
from . import operators as ops

_OPERATORS = {
    "remove_chart": (ops.remove_chart, 1),
    "fix_invalid_boundary": (ops.fix_invalid_boundary, 1),
    "fix_invalid_corner": (ops.fix_invalid_corner, 1),
    "increase_chart_valence": (ops.increase_chart_valence, 1),
    "join_turning_points_pair": (ops.join_turning_points_pair, 2),
    "pull_closest_corner": (ops.pull_closest_corner, 1),
    "move_boundary_near_turning_point": (ops.move_boundary_near_turning_point, 1),
    "straighten_boundary": (ops.straighten_boundary, 1),
}


def _mesh_flags(p):
    p.add_argument("mesh", help="input surface mesh (.obj or .mesh)")
    p.add_argument("--feature-edges", metavar="FILE",
                   help="feature-edge file (one 'v1 v2' pair per line); "
                        "overrides angle detection")
    p.add_argument("--feature-angle", type=float, default=45.0, metavar="DEG",
                   help="dihedral deviation threshold in degrees (default 45)")


def _validity_flags(p):
    p.add_argument("--allow-opposite-labels", action=argparse.BooleanOptionalAction,
                   default=ValidityRules.allow_opposite_labels,
                   help="accept same-axis boundaries running along reflex edges")
    p.add_argument("--min-reflex-fraction", type=float, default=ValidityRules.min_reflex_fraction,
                   help="fraction of reflex edges a same-axis boundary needs, "
                        "within 0..1 (default %(default)s)")
    p.add_argument("--corner-rule", choices=CORNER_RULES, default=ValidityRules.corner_rule)


def _labeling_flags(p):
    p.add_argument("--compactness", type=float, default=CutEnergy.compactness)
    p.add_argument("--fidelity", type=float, default=CutEnergy.fidelity)
    p.add_argument("--sensitivity", type=float, default=CutEnergy.sensitivity,
                   help="tilted-normal trigger: flag triangles whose two best "
                        "axes are closer than this")
    p.add_argument("--tilt-angle", type=float, default=CutEnergy.tilt_angle,
                   help="radians of rotation applied to flagged normals")
    p.add_argument("--smoothness-mode", default=CutEnergy.smoothness_mode, choices=SMOOTHNESS_MODES)
    p.add_argument("--max-iterations", type=int, default=PipelineConfig.max_iterations)


def _load(args):
    return load_mesh(
        args.mesh,
        feature_edges=args.feature_edges,
        feature_angle=math.radians(args.feature_angle),
    )


def _load_labeled(args):
    mesh = _load(args)
    labels = read_labeling(args.labeling, n_triangles=mesh.n_triangles)
    return mesh, labels


def _energy(args) -> CutEnergy:
    return CutEnergy(args.compactness, args.fidelity, args.smoothness_mode,
                     args.sensitivity, args.tilt_angle)


def _rules(args) -> ValidityRules:
    return ValidityRules(args.allow_opposite_labels, args.min_reflex_fraction, args.corner_rule)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _cmd_label(args) -> int:
    cfg = PipelineConfig(_energy(args), _rules(args), args.max_iterations)
    mesh = _load(args)
    result = label_mesh(mesh, cfg)
    print(f"status: {result.status}  charts={result.graph.n_charts} "
          f"turning-points={result.graph.total_turning_points}", file=sys.stderr)
    if args.output:
        write_labeling(args.output, result.labels)
    if args.report:
        _write_json(args.report, metrics_report(mesh, result))
    if args.log_ops:
        with open(args.log_ops, "w") as f:
            f.writelines(line + "\n" for line in result.op_log)
    if args.viz:
        write_ply(args.viz, mesh, result.labels)
    return 0


def _cmd_validate(args) -> int:
    rules = _rules(args)
    mesh, labels = _load_labeled(args)
    graph = LabelingGraph(mesh, labels)
    report = validate(graph, rules)
    if args.json:
        _write_json(args.json, {
            "schema_version": 1,
            "valid": report.is_valid,
            "invalid_charts": list(report.invalid_charts),
            "invalid_boundaries": list(report.invalid_boundaries),
            "invalid_corners": list(report.invalid_corners),
            "reasons": {f"{kind}:{idx}": why
                        for (kind, idx), why in sorted(report.reasons.items())},
        })
    print(report.summary(), file=sys.stderr)
    return 0 if report.is_valid else 1


def _cmd_report(args) -> int:
    rules = _rules(args)
    mesh, labels = _load_labeled(args)
    graph = LabelingGraph(mesh, labels)
    report = validate(graph, rules)
    shim = PipelineResult(labels, graph, report, labeling_status(graph, report))
    _write_json(args.output, metrics_report(mesh, shim))
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_graph(args) -> int:
    mesh, labels = _load_labeled(args)
    g = LabelingGraph(mesh, labels)
    payload = {
        "schema_version": 1,
        "charts": [
            {"id": c.index, "label": LABEL_NAMES[c.label], "size": len(c.triangles),
             "valence": c.valence, "neighbors": list(c.neighbors)}
            for c in g.charts
        ],
        "boundaries": [
            {"id": b.index, "axis": (None if b.axis is None else "xyz"[b.axis]),
             "length": b.n_edges, "cyclic": b.cyclic,
             "corners": [g.corner_at[v] for v in b.endpoints if v in g.corner_at],
             "turning_points": len(b.turning_points)}
            for b in g.boundaries
        ],
        "corners": [
            {"id": i, "vertex": c.vertex, "valence": c.valence,
             "axis_counts": list(c.axis_counts)}
            for i, c in enumerate(g.corners)
        ],
    }
    _write_json(args.output, payload)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_viz(args) -> int:
    mesh, labels = _load_labeled(args)
    write_ply(args.output, mesh, labels)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_fix(args) -> int:
    graph = LabelingGraph(*_load_labeled(args))
    op, n_targets = _OPERATORS[args.op]
    targets = [int(t) for t in args.target.split(",")]
    if len(targets) != n_targets:
        print(f"error: {args.op} expects {n_targets} target id(s)", file=sys.stderr)
        return 2
    out = op(graph, *targets)
    print(f"{args.op}: applied={out.applied} changed={len(out.changed)}"
          + (f" ({out.reason})" if out.reason else ""), file=sys.stderr)
    if args.output:
        write_labeling(args.output, out.labels)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polycubelabel",
        description="Compute, validate and repair polycube labelings of "
                    "closed triangle meshes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="compute a labeling and repair it")
    _mesh_flags(p)
    _labeling_flags(p)
    _validity_flags(p)
    p.add_argument("-o", "--output", metavar="FLAGS", help="labeling output file")
    p.add_argument("--report", metavar="JSON", help="write metrics report")
    p.add_argument("--log-ops", metavar="TXT", help="write applied-operator log")
    p.add_argument("--viz", metavar="PLY", help="write colored mesh")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("validate", help="check an existing labeling")
    _mesh_flags(p)
    p.add_argument("labeling", help="labeling file, one value 0..5 per line")
    _validity_flags(p)
    p.add_argument("--json", metavar="FILE", help="write a JSON report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="metrics for an existing labeling")
    _mesh_flags(p)
    p.add_argument("labeling")
    _validity_flags(p)
    p.add_argument("-o", "--output", required=True, metavar="JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("graph", help="dump charts/boundaries/corners as JSON")
    _mesh_flags(p)
    p.add_argument("labeling")
    p.add_argument("-o", "--output", required=True, metavar="JSON")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("viz", help="export a label-colored PLY")
    _mesh_flags(p)
    p.add_argument("labeling")
    p.add_argument("-o", "--output", required=True, metavar="PLY")
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("fix", help="apply a single repair operator")
    _mesh_flags(p)
    p.add_argument("labeling")
    p.add_argument("--op", required=True, choices=sorted(_OPERATORS))
    p.add_argument("--target", required=True,
                   help="target id (comma-separated pair for the join operator)")
    p.add_argument("-o", "--output", metavar="FLAGS")
    p.set_defaults(func=_cmd_fix)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, or a path that cannot be read or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:  # including MeshError and FileFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
