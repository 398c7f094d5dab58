"""psifrac benchmark: one named workload, seeded inputs, checked results.

    python3 bench/run.py --workload kernels_warm --seed 1 --seconds 8 --trace 0

Runs closed loop with one client, pinned to one core, for about
``--seconds`` on the reference core (whole rounds of operations, so every
run has the same mix), checks every result against an independent
reference, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with every time scaled to the reference
core (``speed.py``); with ``--trace 1`` they are the per-layer ones, from
the outside tracer, as measured.  Details of the run (machine, the times
as measured, speed samples, tail percentile and sample count,
seeded-check accuracy, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def tail(samples):
    """(value, percentile, n): the latency at the highest percentile that
    has at least ten samples beyond it.  With nearest-rank percentiles
    that is the (n-10)-th smallest sample, at percentile 100 (n-10)/n.
    Below eleven samples no percentile qualifies and the maximum is given."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def import_split(stderr: str) -> dict:
    """Seconds of ``import psifrac`` (total) and the part of it spent in
    sympy, scipy, numpy and psifrac's own modules, from ``-X importtime``.
    Each module's self time goes to its nearest enclosing package of the
    four, so the parts add up to the total."""
    entries = []  # (depth, self us, cumulative us, name), children first
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(1)), int(m.group(2)),
                            m.group(4)))
    parts = {"psifrac": 0, "sympy": 0, "scipy": 0, "numpy": 0}
    out, stack = {}, []  # stack of (depth, owning package)
    for depth, self_us, cum_us, name in reversed(entries):  # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        owner = package if package in parts else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            parts[owner] += self_us
        if name == "psifrac":
            out["total"] = cum_us / 1e6
    out.update({k: v / 1e6 for k, v in parts.items()})
    return out


def import_metrics(n: int) -> dict:
    import workloads

    env = workloads.child_env()
    runs = []
    for _ in range(n):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import psifrac"],
                           capture_output=True, text=True, env=env, cwd=ROOT,
                           timeout=120, check=True)
        runs.append(import_split(p.stderr))
    return {f"import.{k}_s": (statistics.median(r[k] for r in runs), "s")
            for k in ("total", "sympy", "scipy", "numpy", "psifrac")}


def setup_probes(workload: str, n: int):
    """(measured, adjusted) set-up times of n fresh probe processes."""
    import workloads

    samples = []
    for _ in range(n):
        p = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                           capture_output=True, text=True, env=workloads.child_env(),
                           cwd=ROOT, timeout=170, check=True)
        got = json.loads(p.stdout.strip().splitlines()[-1])
        samples.append((got["setup_s"], got["adjusted_s"]))
    return samples


def machine() -> dict:
    import numpy
    import scipy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Loop:
    """Closed loop over whole rounds; times, checks and counts operations.

    The speedometer samples the core's speed before every operation and
    after the last one, and its timer, where running, inside long ones.
    In a traced run the rounds alternate untraced and traced, so the
    tracing overhead compares the same mix under the same cache warmth."""

    def __init__(self, workload, rng, speed, tracer=None):
        self.workload, self.rng, self.speed, self.tracer = workload, rng, speed, tracer
        self.rounds = 0
        # (start, end, seconds less timer samples) of each operation, by traced
        self.spans = {False: [], True: []}
        self.last_s = 0.0  # time of the operation before, which sizes the next sample
        self.traced_cpu = self.traced_wall = 0.0
        self.attempted = self.failed = 0
        self.worst_err = 0.0
        self.failures = []
        self.log = []  # (kind, kernel, seconds) of every operation

    def run_for(self, seconds: float, trace: bool) -> float:
        """Rounds until `seconds` have passed on the reference core (and,
        when tracing, one round of each kind), so that a run holds about
        the same operations however fast the core is; returns the wall time."""
        start = time.perf_counter()
        while True:
            traced = trace and self.rounds % 2 == 1
            if hasattr(self.workload, "traced"):
                self.workload.traced = traced
            for op in self.workload.round(self.rng, self.rounds):
                self.one(op, traced)
            self.rounds += 1
            wall = time.perf_counter() - start
            if self.speed.on_reference(start, start + wall) >= seconds and \
                    (not trace or self.rounds >= 2):
                self.speed.sample_after(self.last_s)  # the far side of the last operation
                return wall

    def latencies(self, traced: bool, adjusted: bool = True):
        """Operation times in seconds, scaled to the reference core or as
        measured."""
        factor = self.speed.factor if adjusted else (lambda t0, t1: 1.0)
        return [net * factor(t0, t1) for t0, t1, net in self.spans[traced]]

    def one(self, op, traced: bool) -> None:
        import workloads

        self.attempted += 1
        tracer = self.tracer if traced else None
        self.speed.sample_after(self.last_s)
        if tracer is not None:
            tracer.op, tracer.active = self.attempted, True
        ticked0 = self.speed.ticked_s
        cpu0 = cpu_seconds() if traced else 0.0
        t0 = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception:  # an operation that raises is a failed operation
            self.fail(op, traceback.format_exc().strip().splitlines()[-1])
            return
        finally:
            t1 = time.perf_counter()
            cpu1 = cpu_seconds() if traced else 0.0
            if tracer is not None:
                tracer.active = False
            self.last_s = t1 - t0 - (self.speed.ticked_s - ticked0)
            if traced:  # the operations alone, without the speed samples
                self.traced_cpu += cpu1 - cpu0
                self.traced_wall += self.last_s
            self.spans[traced].append((t0, t1, self.last_s))
            self.log.append((op.kind, op.spec.get("kernel", ""), self.last_s))
        try:
            chk = self.workload.check(op, result)
        except (workloads.Mismatch, ValueError, KeyError, IndexError) as e:
            self.fail(op, f"{type(e).__name__}: {e}")
            return
        if chk.failures():
            self.fail(op, "; ".join(chk.failures()))
        elif chk.errors:
            self.worst_err = max(self.worst_err, *(e for e, _, _ in chk.errors))

    def fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"kind": op.kind, "spec": op.spec, "why": why})


def traced_metrics(loop, workload, state) -> dict:
    from tracer import layer_metrics

    metrics = import_metrics(IMPORT_REPEATS)
    metrics.update(layer_metrics(state))
    metrics["proc.cpu_s"] = (loop.traced_cpu, "s")
    # CPU time is read just outside each operation, so on an operation that
    # never waits it exceeds the wall time by the reads themselves
    metrics["proc.wait_s"] = (max(0.0, loop.traced_wall - loop.traced_cpu), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(loop.latencies(True)) / statistics.fmean(loop.latencies(False))
        - 1.0, "ratio")
    metrics["trace.spans"] = (state["n_spans"], "count")
    attempted, failed = workload.edge_probes() if hasattr(workload, "edge_probes") \
        else (0, 0)
    metrics["edge.attempted"] = (attempted, "count")
    metrics["edge.failed"] = (failed, "count")
    return metrics


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def run(args) -> dict:
    import speed as speed_mod
    import workloads
    from tracer import Tracer, merge

    load = os.getloadavg()[0]
    core = speed_mod.pin_to_one_core()
    workload = workloads.WORKLOADS[args.workload]()
    is_cli = isinstance(workload, workloads.CliOneshot)
    speed = workload.speed = speed_mod.Speedometer()
    # this process has not imported psifrac yet, so its own set-up is one
    # sample; fresh probe processes give the others
    _, own_s, own_adjusted = speed.timed(workload.setup)
    setups = [(own_s, own_adjusted),
              *setup_probes(args.workload, SETUP_REPEATS - 1)]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "machine": {**machine(), "loadavg_1m": load, "pinned_core": core}}
    tracer = Tracer(keep=50_000) if args.trace and not is_cli else None
    loop = Loop(workload, random.Random(args.seed), speed, tracer)
    if tracer is not None:
        tracer.install().active = False
    try:
        # the timer samples inside long operations (the CLI's children do
        # their own); traced runs keep their spans free of samples
        with speed.ticking() if not (is_cli or args.trace) else contextlib.nullcontext():
            wall = loop.run_for(args.seconds, bool(args.trace))
    finally:
        if tracer is not None:
            tracer.uninstall()
    panel = workload.panel()
    for why in panel.failures():
        loop.failures.append({"kind": "accuracy panel", "why": why})
    panel_err = max(e for e, _, _ in panel.errors)
    latencies = loop.latencies(False) + loop.latencies(True)
    tail_value, tail_pct, n = tail(latencies)
    measured = loop.latencies(False, False) + loop.latencies(True, False)
    if is_cli:
        peak_kb = max(c.maxrss_kb for c in workload.children)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        state = merge(c.trace for c in workload.children if c.trace is not None) \
            if is_cli else tracer.state()
        metrics = traced_metrics(loop, workload, state)
        spans = workloads.OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans, state["spans"])
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(a for _, a in setups), "s"),
            "ops_per_s": (loop.attempted / math.fsum(latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "max_rel_err": (panel_err, "1"),
        }
    info["as_measured"] = {  # the time metrics before scaling to the reference core
        "setup_s": statistics.median(m for m, _ in setups),
        "ops_per_s": loop.attempted / math.fsum(measured),
        "op_p50_ms": 1e3 * statistics.median(measured),
        "op_tail_ms": 1e3 * tail(measured)[0]}
    info["speed"] = {"reference_slice_s": speed_mod.REFERENCE_SLICE_S,
                     "samples": len(speed.slices),
                     "slice_s_quartiles": statistics.quantiles(speed.slices, n=4)}
    info.update(rounds=loop.rounds, wall_s=wall, tail_percentile=tail_pct,
                tail_samples=n, seeded_max_err=loop.worst_err,
                panel_max_err=panel_err, failures=loop.failures, op_log=loop.log,
                op_spans=loop.spans[False] + loop.spans[True],
                speed_samples=list(zip(speed.times, speed.slices)))
    return {"correct": loop.failed == 0 and not panel.failures(),
            "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": info}


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "psifrac" / "__init__.py").is_file():
        print(f"error: no psifrac sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(workloads.ONE_THREAD)  # before numpy loads
    sys.path.insert(0, str(SRC))
    result = run(args)
    info = result.pop("info")
    workloads.OUT.mkdir(exist_ok=True)
    detail = workloads.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({**result, "info": info}, indent=1))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {info['rounds']} rounds, "
          f"{result['attempted']} ops in {info['wall_s']:.2f}s; tail at "
          f"p{info['tail_percentile']:.1f} of {info['tail_samples']} samples; "
          f"seeded max err {info['seeded_max_err']:.3g}; machine {info['machine']}")
    for failure in info["failures"]:
        print(f"# FAILED {failure['kind']}: {failure['why']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
