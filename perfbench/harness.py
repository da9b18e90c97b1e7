"""Run one workload: set-up samples, timed operations, checks, metrics.

An untraced run reports the end-to-end metrics.  A traced run spends half its
time on untraced operations and half on traced ones, and reports the
per-layer metrics plus the tracing overhead between the two halves.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import nanojunction as nj
from nanojunction import thermo
from spans import Patches, Tracer
from workloads import SIZES, WORKLOADS, point, reference_failures

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 5
# Untraced runs time at least two operations: every run then averages a
# process's first (colder) operation with a later one, and the sweep's CSVs
# can be compared byte for byte.  A traced run has one of each kind.
MIN_OPS = 2

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "rc.augment_s": "s", "rc.rate_ops_s": "s", "rc.terms": "count",
    "superop.builds": "count", "superop.n": "count", "superop.assemble_s": "s",
    "superop.assemble_bytes": "B", "superop.lu_s": "s",
    "superop.lu_gflop_per_s": "GFLOP/s", "superop.steady_state_s": "s",
    "fcs.c1_s": "s", "fcs.c2_s": "s", "fcs.apply_terms_calls": "count",
    "thermo.energy_s": "s", "wcme.assemble_s": "s", "cli.points": "count",
    "cli.failed_points": "count", "cli.write_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

# The child process that times set-up: imports plus building the inputs.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].inputs({seed!r}, workloads.SIZES[{size!r}])
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Op:
    wall: float
    output: object = None
    error: str | None = None
    spans: range = range(0)   # indices of this operation's spans, root first


@dataclass
class Capture:
    """Reduces each steady state the program solves to a ``workloads.Point``.

    It wraps ``thermo.steady_state``, the solve behind every report and
    stopping-voltage evaluation.  The reduction runs inside the operation
    but its time is kept in ``seconds`` and taken off the operation's wall
    time, and nothing generator-sized is kept, so neither metric moves.
    """

    points: list = field(default_factory=list)
    seconds: float = 0.0

    def install(self, patches: Patches) -> None:
        solve = thermo.steady_state

        def capturing(L, *args, **kwargs):
            ss = solve(L, *args, **kwargs)
            t0 = time.perf_counter()
            self.points.append(point(L, ss))
            self.seconds += time.perf_counter() - t0
            return ss

        patches.set(thermo, "steady_state", capturing)


def environment() -> dict:
    """Machine and numerical-stack record printed with every run."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = "{name} {version}".format(**deps["blas"])
        blas_config = deps["blas"].get("openblas configuration", "")
        lapack = "{name} {version}".format(**deps["lapack"])
    except (TypeError, KeyError):
        blas = blas_config = lapack = "unknown"
    limit = None
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            limit = Path(path).read_text().strip()
            break
        except OSError:
            continue
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas, "blas_config": blas_config,
            "lapack": lapack, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cgroup_memory_limit": limit, "cpu_model": cpu}


def setup_seconds(name: str, seed: int, size: str, samples: int) -> list:
    """Set-up time of ``samples`` fresh interpreters, each measured inside the child."""
    code = SETUP_CHILD.format(src=str(SRC_DIR), bench=str(BENCH_DIR), name=name,
                              seed=seed, size=size)
    out = []
    for _ in range(samples):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_ops(wl, inp, workdir, budget, min_ops, tracer=None, capture=None) -> list:
    """Run operations while the next one is expected to end within ``budget`` seconds.

    The first operation runs under ``capture`` when one is given.  With a
    tracer, each operation is one root span named ``op``.
    """
    ops = []
    while True:
        gc.collect()
        patches = Patches()
        capturing = capture is not None and not ops
        if capturing:
            capture.install(patches)
        first = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp, workdir)
            else:
                with tracer.span("op"):
                    out = wl.run(inp, workdir)
            op = Op(time.perf_counter() - t0, out)
        except Exception as exc:  # an operation that raises counts as failed
            op = Op(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            patches.restore()
        if capturing:
            op.wall -= capture.seconds
        if tracer is not None:
            op.spans = range(first, len(tracer.spans))
        ops.append(op)
        typical = statistics.median(o.wall for o in ops)
        if len(ops) >= min_ops and sum(o.wall for o in ops) + typical > budget:
            return ops


def assemble_bytes(space, terms) -> int:
    """Computed bytes written by ``superop.assemble``.

    The n x n zero fill plus one complex entry per element of every term
    block that assembly materializes (sector pairs where both factors have a
    nonzero block).
    """
    eye = np.eye(space.dim, dtype=complex)
    entries = space.n ** 2
    for t in terms:
        A = eye if t.left is None else t.left
        B = eye if t.right is None else t.right
        for sa in space.sectors:
            for sc in space.sectors:
                if A[np.ix_(sa, sc)].any() and B[np.ix_(sc, sa)].any():
                    entries += (len(sa) * len(sc)) ** 2
    return 16 * entries


def layer_metrics(tracer: Tracer, op: Op) -> dict:
    """Per-layer numbers of one traced operation."""
    root = op.spans[0]
    spans = [(i, tracer.spans[i]) for i in op.spans[1:]]

    def total(name):
        return sum(s.duration for _, s in spans if s.name == name)

    def count(name):
        return sum(1 for _, s in spans if s.name == name)

    def self_total(name):
        return sum(tracer.self_time(i) for i, s in spans if s.name == name)

    builds = [s for _, s in spans if s.name == "superop.assemble"]
    lus = [s for _, s in spans if s.name == "superop.bordered_lu"]
    terms = [s.info["terms"] for _, s in spans
             if s.name in ("rc.assemble_rcme", "rc.assemble_arcme")]
    lu_s = total("superop.bordered_lu")
    flops = sum(8.0 / 3.0 * (s.info["n"] + 1) ** 3 for s in lus)
    is_cli = isinstance(op.output, dict) and "points" in op.output
    return {
        "rc.augment_s": total("rc.build_augmented_hamiltonian"),
        "rc.rate_ops_s": total("rc.build_rate_operators"),
        "rc.terms": statistics.median(terms) if terms else 0,
        "superop.builds": len(builds),
        "superop.n": max((s.info["space"].n for s in builds), default=0),
        "superop.assemble_s": total("superop.assemble"),
        "superop.assemble_bytes": sum(assemble_bytes(s.info["space"], s.info["terms"])
                                      for s in builds),
        "superop.lu_s": lu_s,
        "superop.lu_gflop_per_s": flops / lu_s / 1e9 if lu_s > 0 else 0.0,
        "superop.steady_state_s": self_total("superop.steady_state"),
        "fcs.c1_s": total("fcs.mean_current"),
        "fcs.c2_s": total("fcs.zero_frequency_noise"),
        "fcs.apply_terms_calls": count("superop.apply_terms"),
        "thermo.energy_s": total("thermo.energy_currents"),
        "wcme.assemble_s": total("wcme.assemble_wcme"),
        "cli.points": op.output["points"] if is_cli else 0,
        "cli.failed_points": op.output["failed_points"] if is_cli else 0,
        "cli.write_s": total("cli.write_csv") + total("cli.write_manifest"),
        "cli.self_s": self_total("cli.main"),
        "trace.unattributed_s": tracer.self_time(root),
    }


def verdicts(wl, inp, ops, points, reference) -> tuple:
    """(failed op count, failure messages) from the checks of the first good op."""
    base = next((o for o in ops if o.error is None), None)
    if base is None:
        return len(ops), [o.error for o in ops]
    messages = wl.check(inp, base.output, points)
    messages += reference_failures(wl.summary(base.output), reference, "reference")
    base_failed = bool(messages)
    failed = 0
    for i, o in enumerate(ops):
        if o.error is not None:
            messages.append(f"op {i}: {o.error}")
        elif not wl.same(base.output, o.output):
            messages.append(f"op {i}: output differs from the first operation")
        elif not base_failed:
            continue
        failed += 1
    return failed, messages


def load_reference(size: str, name: str, seed: int):
    table = json.loads(REFERENCE.read_text())
    return table.get(size, {}).get(name, {}).get(str(seed))


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_samples: int = SETUP_SAMPLES, out_dir: Path | None = None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    wl = WORKLOADS[name]
    out_dir = Path(out_dir) if out_dir is not None else BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = setup_seconds(name, seed, size, setup_samples)
    inp = wl.inputs(seed, SIZES[size])
    capture = Capture()
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if not trace:
            plain = run_ops(wl, inp, workdir, seconds, MIN_OPS, capture=capture)
            traced, tracer = [], None
        else:
            plain = run_ops(wl, inp, workdir, seconds / 2, 1, capture=capture)
            tracer = Tracer()
            patches = Patches()
            tracer.install(patches)
            try:
                traced = run_ops(wl, inp, workdir, seconds / 2, 1, tracer=tracer)
            finally:
                patches.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = plain + traced
    failed, messages = verdicts(wl, inp, ops, capture.points,
                                load_reference(size, name, seed))
    wall = statistics.median(o.wall for o in plain)
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {name} seed {seed} size {size}: {len(plain)} untraced "
          f"and {len(traced)} traced operations")
    print(f"wall_s = {wall:.4f} s (median of {len(plain)} operations: "
          + ", ".join(f"{o.wall:.3f}" for o in plain) + ")")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb = {peak:.1f} MB")
    print(f"setup_s = {statistics.median(setup):.4f} s (median of {len(setup)} "
          "fresh interpreters: " + ", ".join(f"{s:.3f}" for s in setup) + ")")
    print(f"failed_frac = {failed}/{len(ops)} = {failed / len(ops):.3g}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if not trace:
        metrics = {"wall_s": wall, "peak_rss_mb": peak,
                   "setup_s": statistics.median(setup)}
        units = END_TO_END_UNITS
    else:
        per_op = [layer_metrics(tracer, o) for o in traced if o.error is None]
        metrics = {k: statistics.median(m[k] for m in per_op) if per_op else 0.0
                   for k in LAYER_UNITS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(o.wall for o in traced) - wall
        units = LAYER_UNITS
        spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path}")
        for k in LAYER_UNITS:
            print(f"{k} = {metrics[k]:.6g} {units[k]}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
