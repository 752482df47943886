"""Spans around the program's public functions, recorded from outside.

A :class:`Tracer` replaces functions and classes where the calling module
looks them up (``pipeline.LabelingGraph``, ``operators.restricted_relabel``,
``graphcut.alpha_expansion`` ...) with wrappers that record a span (name,
start, end, parent) and a few counts, and puts the originals back on exit.
Wrappers keep ``__name__``: the pipeline writes ``op.__name__`` into
``op_log``. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

from polycubelabel import cli, graphcut, io, labeling, mesh, operators, pipeline

OPERATORS = (
    "remove_chart", "fix_invalid_boundary", "fix_invalid_corner",
    "increase_chart_valence", "join_turning_points_pair", "pull_closest_corner",
    "move_boundary_near_turning_point", "straighten_boundary",
)
_MB = 1024 * 1024


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------------

    def _run(self, name, fn, args, kwargs, note):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if note is not None:
            note(self.counts, args, kwargs, result)
        return result

    def _patch(self, module, attr, name, note=None):
        orig = getattr(module, attr)
        tracer = self
        if isinstance(orig, type):
            class Traced(orig):
                def __init__(self, *args, **kwargs):
                    tracer._run(name, super().__init__, args, kwargs, None)
                    if note is not None:
                        note(tracer.counts, args, kwargs, self)

            for key in ("__name__", "__qualname__", "__module__", "__doc__"):
                setattr(Traced, key, getattr(orig, key))
            wrapper = Traced
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                return tracer._run(name, orig, args, kwargs, note)
        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def __enter__(self):
        def cut(c, a, k, r):
            c["graphcut.nodes"] += len(a[0])
            c["graphcut.pairs"] += len(a[1])

        def built(c, a, k, g):
            c["graph.tris_built"] += len(g.labels)

        def applied(op):
            def note(c, a, k, out):
                c[f"operators.{op}.applied"] += bool(out.applied)
            return note

        def validity(c, a, k, r):
            c["pipeline.validity_iterations"] += r[3]

        def ran(c, a, k, result):
            for line in result.op_log:
                c[f"operators.{line.split()[0]}.accepted"] += 1

        def read(c, a, k, r):
            c["io.read_bytes"] += _size(a[0])

        def wrote(c, a, k, r):
            c["io.write_bytes"] += _size(a[0])

        p = self._patch
        p(graphcut, "alpha_expansion", "graphcut", cut)
        p(labeling, "data_costs", "labeling.data_costs")
        p(operators, "restricted_relabel", "labeling.relabel")
        for op in OPERATORS:
            p(operators, op, f"operators.{op}", applied(op))
        for module in (pipeline, cli):
            p(module, "LabelingGraph", "graph", built)
            p(module, "validate", "validity")
            p(module, "label_mesh", "pipeline.label_mesh", ran)
        p(pipeline, "run_validity_routine", "pipeline.validity", validity)
        p(pipeline, "run_monotonicity_routine", "pipeline.monotonicity")
        for module in (mesh, io):
            p(module, "SurfaceMesh", "mesh")
        for fn in ("read_obj", "read_medit"):
            p(io, fn, "io.read", read)
        p(cli, "read_labeling", "io.read", read)
        for fn in ("write_labeling", "write_ply"):
            p(cli, fn, "io.write", wrote)
        for fn in ("write_obj", "write_medit", "write_labeling"):
            p(io, fn, "io.write", wrote)
        p(cli, "main", "cli")
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        return False

    # -- summaries -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return calls, total, own

    def builds_under(self, outer: str, inner: str) -> int:
        """How many ``inner`` spans have an ``outer`` span among their ancestors."""
        n = 0
        for name, _, _, parent in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def layer_metrics(self) -> dict:
        """The per-layer figures of everything recorded so far."""
        calls, total, own = self.totals()
        c = self.counts
        m = {
            "graphcut.calls": calls["graphcut"],
            "graphcut.nodes": c["graphcut.nodes"],
            "graphcut.pairs": c["graphcut.pairs"],
            "graphcut.s": total["graphcut"],
            "labeling.data_costs_s": total["labeling.data_costs"],
            "labeling.relabel_calls": calls["labeling.relabel"],
            "labeling.relabel_self_s": own["labeling.relabel"],
            "graph.builds": calls["graph"],
            "graph.build_s": total["graph"],
            "graph.tris_built": c["graph.tris_built"],
            "validity.calls": calls["validity"],
            "validity.s": total["validity"],
        }
        attempts = accepted = 0
        for op in OPERATORS:
            key = f"operators.{op}"
            m[key + ".attempts"] = calls[key]
            m[key + ".applied"] = c[key + ".applied"]
            m[key + ".accepted"] = c[key + ".accepted"]
            m[key + ".raised"] = c[key + ".raised"]
            m[key + ".self_s"] = own[key]
            attempts += calls[key]
            accepted += c[key + ".accepted"]
        m["operators.accept_ratio"] = accepted / attempts if attempts else 0.0
        m.update({
            "pipeline.validity_s": total["pipeline.validity"],
            "pipeline.monotonicity_s": total["pipeline.monotonicity"],
            "pipeline.validity_iterations": c["pipeline.validity_iterations"],
            "pipeline.graph_builds_per_accept":
                self.builds_under("pipeline.label_mesh", "graph") / max(accepted, 1),
            "mesh.builds": calls["mesh"],
            "mesh.build_s": total["mesh"],
            "io.read_s": total["io.read"],
            "io.read_mb": c["io.read_bytes"] / _MB,
            "io.write_s": total["io.write"],
            "io.write_mb": c["io.write_bytes"] / _MB,
            "cli.self_s": own["cli"],
        })
        return m

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
