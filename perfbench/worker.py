"""One workload in a fresh process, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --phase PHASE
                                [--seconds S]

Phases:
  setup    import bsmg, build the inputs, print "ready" and exit; run.py
           times this from process start as setup_s.
  measure  build the inputs, then run whole passes for about S seconds
           with no recorders installed; print per-pass wall and CPU time,
           the peak resident memory and the operation counts as JSON.
  trace    untraced passes for the first half of S, then passes with the
           span recorders installed for the second half; print the
           per-layer figures and write the spans to perfbench/results/.

bsmg is imported from this checkout's own src/, never from an installed
copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
sys.path.insert(0, str(ROOT / "src"))

import bsmg  # noqa: E402  (needs src/ on the path first)
import workloads  # noqa: E402
from tracing import Tracer, median_figures  # noqa: E402

if Path(bsmg.__file__).resolve().parent != ROOT / "src" / "bsmg":
    raise SystemExit(f"bsmg came from {bsmg.__file__}, not from {ROOT / 'src'}")

STARTUP_REPEATS = 5


def _cpu():
    """User plus system CPU seconds of this process and its waited-for
    children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Passes:
    """Wall and CPU seconds of every segment of every pass."""

    def __init__(self):
        self.walls = []     # one list of segment seconds per pass
        self.cpus = []

    def run(self, workload, ops, budget_s):
        """Whole passes until the next one would end past budget_s; at
        least one."""
        start = time.perf_counter()
        while True:
            gc.collect()
            walls, cpus = [], []
            for _, part in workload.segments:
                c0, t0 = _cpu(), time.perf_counter()
                part(ops)
                walls.append(time.perf_counter() - t0)
                cpus.append(_cpu() - c0)
            self.walls.append(walls)
            self.cpus.append(cpus)
            if time.perf_counter() - start + self.pass_wall() > budget_s:
                return self

    @staticmethod
    def _per_segment_median(table):
        return sum(statistics.median(column) for column in zip(*table))

    def pass_wall(self):
        """One pass's wall time: the sum over segments of the segment's
        median over passes, so a slow spell in one pass counts once."""
        return self._per_segment_median(self.walls)

    def pass_cpu(self):
        return self._per_segment_median(self.cpus)


def _peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def _startup_ms(code):
    """Median wall time of `python3 -c code` against this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def src_lines():
    """Lines of the package: Python, the Cython source and its generated C."""
    total = 0
    for path in sorted((ROOT / "src" / "bsmg").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            with path.open("rb") as handle:
                total += sum(1 for _ in handle)
    return total


def measure(workload, seconds):
    ops = workloads.Ops()
    passes = Passes().run(workload, ops, seconds)
    return ops, {"wall_s": passes.pass_wall(), "cpu_s": passes.pass_cpu(),
                 "peak_rss_kb": _peak_rss_kb(),
                 "pass_walls": [sum(p) for p in passes.walls],
                 "pass_cpus": [sum(p) for p in passes.cpus]}


def trace(workload, name, seed, seconds):
    ops = workloads.Ops()
    plain = Passes().run(workload, ops, seconds / 2)
    tracer = Tracer().install()
    traced, per_pass = Passes(), []
    commands_before = len(getattr(workload, "timings", ()))
    start = time.perf_counter()
    try:
        while True:
            mark = tracer.mark()
            traced.run(workload, ops, 0)   # exactly one more pass
            per_pass.append(tracer.aggregate(mark))
            if time.perf_counter() - start + traced.pass_wall() > seconds / 2:
                break
    finally:
        tracer.uninstall()
    figures = median_figures(per_pass)
    command_ms = []
    for label, t0, t1 in getattr(workload, "timings", ())[commands_before:]:
        tracer.spans.append((f"cli.{label}", t0, t1, -1, 0))
        command_ms.append(1000 * (t1 - t0))
    figures["cli.interpreter_ms"] = _startup_ms("pass")
    figures["cli.import_ms"] = _startup_ms("import bsmg.cli") - \
        figures["cli.interpreter_ms"]
    figures["cli.command_p50_ms"] = statistics.median(command_ms) \
        if command_ms else 0
    figures["src.lines"] = src_lines()
    figures["trace.overhead_s"] = traced.pass_wall() - plain.pass_wall()
    write_spans(tracer.spans, name, seed)
    return ops, {"metrics": figures}


def write_spans(spans, name, seed):
    RESULTS.mkdir(parents=True, exist_ok=True)
    origin = min((s[1] for s in spans), default=0.0)
    path = RESULTS / f"spans-{name}-seed{seed}.json"
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{"workload":%s,"seed":%d,"columns":["name","start_s",'
                     '"end_s","parent","size"],"spans":[\n'
                     % (json.dumps(name), seed))
        handle.write(",\n".join(
            json.dumps([n, round(t0 - origin, 6), round(t1 - origin, 6), p, z])
            for n, t0, t1, p, z in spans))
        handle.write("\n]}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.phase == "setup":
        print("ready", flush=True)
        return 0
    try:
        if args.phase == "measure":
            ops, out = measure(workload, args.seconds)
        else:
            ops, out = trace(workload, args.workload, args.seed, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    out.update(attempted=ops.attempted, failed=ops.failed,
               errors=dict(ops.errors), mismatches=dict(ops.mismatches))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
