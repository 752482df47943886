"""Benchmark of the polycube labeler, end to end and per layer.

    python3 perfbench/run.py --workload label-cad --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload (``all`` runs each in a fresh child process).
A single caller runs the operations one after another in a closed loop, in
whole rounds of the same inputs, until ``--seconds`` have passed; a warm-up
operation comes first and is not timed. ``--trace 0`` prints the end-to-end
metrics, each time scaled to a fixed machine speed that :mod:`speed`
measures around every operation; ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS, SETUP_SECONDS = 3, 2.0  # set up at least 3 times and for 2 s
RATIOS = ("operators.accept_ratio", "pipeline.graph_builds_per_accept")


def _import_program():
    """Import the labeler from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    if not (src / "polycubelabel" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'polycubelabel'}")
    sys.path.insert(0, str(src))
    import polycubelabel

    if Path(polycubelabel.__file__).resolve().parent != src / "polycubelabel":
        sys.exit(f"error: imported polycubelabel from {polycubelabel.__file__}")
    return polycubelabel


def _environment(polycubelabel) -> str:
    import numpy

    from polycubelabel import graphcut

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"numba={'present' if graphcut.HAVE_NUMBA else 'absent'} "
            f"nproc={len(os.sched_getaffinity(0))} polycubelabel={polycubelabel.__version__}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """The state of one benchmark run of one workload."""

    def __init__(self, workload, seed, work):
        self.w, self.seed, self.work = workload, seed, work
        self.op_s, self.round_p50, self.fidelity, self.digests = [], [], [], []
        self.scaled_op_s = []  # [item index] -> that item's scaled times, one a round
        self.ref_s = []
        self.attempted = self.failed = 0
        self.problems, self.failed_cases = [], {}

    def setup(self, tracer=None):
        """One set-up pass; returns its wall time, its time at the
        reference speed, the items and the warm-up item."""
        before = speed.sample()
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            items, warm = self.w.setup(self.seed, self.work)
        dt = time.perf_counter() - t0
        after = speed.sample()
        self.ref_s += [before, after]
        return dt, speed.scaled(dt, before, after), items, warm

    def round(self, items, tracer=None) -> dict:
        """One pass over every item; returns the summed operation time by
        side (False: untraced, True: traced). With a tracer each item runs
        twice in a row, untraced and traced, the order flipping from item to
        item, so a drift in machine speed falls on both sides alike.
        Without a tracer, the reference kernel runs right before and right
        after each operation, outside its timing, to scale it."""
        from checks import Reject

        spent, digests, first = {False: 0.0, True: 0.0}, [], len(self.op_s)
        if tracer is None and not self.scaled_op_s:
            self.scaled_op_s = [[] for _ in items]
        for i, item in enumerate(items):
            if tracer is None:
                sides = (False,)
            elif (i + len(self.digests)) % 2:
                sides = (True, False)
            else:
                sides = (False, True)
            seen = set()
            for traced in sides:
                before = speed.sample() if tracer is None else None
                t0 = time.perf_counter()
                with tracer if traced else contextlib.nullcontext():
                    result = self.w.run(item)
                dt = time.perf_counter() - t0
                if tracer is None:
                    after = speed.sample()
                    self.ref_s += [before, after]
                    self.scaled_op_s[i].append(speed.scaled(dt, before, after))
                spent[traced] += dt
                self.op_s.append(dt)
                self.attempted += 1
                try:
                    outcome = self.w.check(item, result)
                except Reject as exc:
                    self.problems.append(f"{item.case.name}: {exc}")
                    self.failed += 1
                    continue
                self.fidelity.append(outcome.fidelity)
                seen.add(outcome.digest)
                if outcome.failed:
                    self.failed += 1
                    self.failed_cases[item.case.name] = self.failed_cases.get(item.case.name, 0) + 1
            if len(seen) > 1:
                self.problems.append(f"{item.case.name}: traced and untraced outputs differ")
            digests.extend(sorted(seen))
        self.digests.append(digests)
        self.round_p50.append(statistics.median(self.op_s[first:]))
        return spent

    def behaviour_hash(self) -> str:
        h = hashlib.sha256()
        for d in self.digests[0]:
            h.update(d)
        return h.hexdigest()


def run_workload(name, seed, seconds, trace) -> dict:
    import numpy as np

    import checks
    from tracing import Tracer
    from workloads import WORKLOADS

    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[name], seed, str(work))

    setup_s, scaled_setup_s = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        dt, scaled_dt, items, warm = run.setup()
        setup_s.append(dt)
        scaled_setup_s.append(scaled_dt)
    setup_tracer = Tracer() if trace else None
    if trace:
        run.setup(setup_tracer)
    for item in items:
        item.geo = checks.Geometry(item.case.verts, item.case.tris)
    run.w.run(warm)

    tracer = Tracer() if trace else None
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        spent = run.round(items, tracer)
        plain.append(spent[False])
        traced.append(spent[True])
        if time.perf_counter() - t_start >= seconds:
            break

    if any(d != run.digests[0] for d in run.digests):
        run.problems.append("outputs differ between rounds")
    round_tris = sum(i.case.n_triangles for i in items)
    print(f"env: {_environment(sys.modules['polycubelabel'])}")
    print(f"workload: {name} seed={seed} rounds={len(run.digests)} "
          f"ops/round={len(items)} tris/round={round_tris}")
    print(f"behaviour_sha256: {run.behaviour_hash()}")
    for case, n in sorted(run.failed_cases.items()):
        print(f"failed: {case} x{n}")
    for problem in run.problems[:20]:
        print(f"REJECTED: {problem}")

    if trace:
        rounds = len(traced)
        layers = tracer.layer_metrics()
        per_layer = {k: v if k in RATIOS else v / rounds for k, v in layers.items()}
        setup_layers = setup_tracer.layer_metrics()
        for key in ("mesh.builds", "mesh.build_s", "io.write_s", "io.write_mb"):
            per_layer["setup." + key] = setup_layers[key]
        overhead = statistics.fmean(traced) - statistics.fmean(plain)
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.overhead_share"] = overhead / statistics.fmean(plain)
        tracer.dump(work / "spans.json")
        metrics = {k: _metric(v, _unit(k)) for k, v in per_layer.items()}
    else:
        op_s = np.concatenate(run.scaled_op_s)
        # each item's median over the rounds: one slow round moves no figure
        typical = [statistics.median(times) for times in run.scaled_op_s]
        if len(op_s) >= 100:
            print(f"info: op_s_p90={np.percentile(op_s, 90):.6f} s over {len(op_s)} operations")
        ref = statistics.quantiles(run.ref_s, n=4)
        print(f"info: reference speed {len(run.ref_s)} samples, wall time quartiles "
              f"{ref[0]:.5f} {ref[1]:.5f} {ref[2]:.5f} s, scaled to {speed.REF_S} s")
        print(f"info: wall clock: setup_s={statistics.median(setup_s):.6f} s "
              f"tris_per_s={statistics.median(round_tris / t for t in plain):.2f} 1/s "
              f"op_s_p50={statistics.median(run.round_p50):.6f} s")
        metrics = {
            "setup_s": _metric(statistics.median(scaled_setup_s), "s"),
            "tris_per_s": _metric(round_tris / sum(typical), "1/s"),
            "op_s_p50": _metric(statistics.median(typical), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "fidelity": _metric(statistics.fmean(run.fidelity), "ratio"),
        }
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _unit(key: str) -> str:
    if key in RATIOS or key.endswith("_share"):
        return "ratio"
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_mb"):
        return "MiB"
    return "count"


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for key, m in results[name]["metrics"].items():
            print(f"  {name:13s} {key:52s} {m['value']:.6g} {m['unit']}")
        print(f"  {name:13s} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']} correct={results[name]['correct']}")
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("label-cad", "repair-noise", "check-large", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
