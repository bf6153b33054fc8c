"""The bsmg benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports bsmg from that checkout's
src/. With --trace 0 it prints the end-to-end metrics (wall_s, cpu_s,
setup_s, peak_rss_mb); with --trace 1 the per-layer metrics of a separate
traced run, whose spans go to perfbench/results/. The last line of stdout
is always {"correct", "attempted", "failed", "metrics"}. See README.md.

This process never imports bsmg. It runs the check self-tests, times the
set-up in fresh processes, and runs the workload in one more process
(worker.py), so that the workload's peak memory is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import per_layer_units

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("level-ladder", "lemma-bundle", "bs-dynamics", "cli-readme")
SETUP_REPEATS = 5
DEADLINE_S = 170          # the whole run, set-up included
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args):
    # a session of its own, so a timeout can stop the worker's children too
    return subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def _stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _time_left(started):
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def time_setup(workload, seed, started):
    """Seconds from process start until the worker's inputs are ready."""
    t0 = time.perf_counter()
    proc = _spawn(["--workload", workload, "--seed", str(seed),
                   "--phase", "setup"])
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=_time_left(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up did not finish in time") from exc
    finally:
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed with exit code {proc.returncode}")
    return ready


def run_worker(workload, seed, seconds, phase, started):
    proc = _spawn(["--workload", workload, "--seed", str(seed),
                   "--phase", phase, "--seconds", str(seconds)])
    try:
        out, _ = proc.communicate(timeout=_time_left(started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} run did not finish in time") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"{phase} run failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description="bsmg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # SystemExit unwinds through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "bsmg" / "__init__.py").is_file():
        print(f"no bsmg package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    setups = []
    try:
        checks.self_test()
        if args.trace:
            raw = run_worker(args.workload, args.seed, args.seconds, "trace",
                             started)
            units = dict(per_layer_units())
            metrics = {name: _metric(raw["metrics"][name], units[name])
                       for name, _ in per_layer_units()}
        else:
            setups += [time_setup(args.workload, args.seed, started)
                       for _ in range(SETUP_REPEATS)]
            raw = run_worker(args.workload, args.seed, args.seconds, "measure",
                             started)
            values = {"wall_s": raw["wall_s"], "cpu_s": raw["cpu_s"],
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": raw["peak_rss_kb"] / 1024}
            metrics = {name: _metric(values[name], unit)
                       for name, unit in END_TO_END}
    except (BenchError, checks.CheckFailed, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for message, times in list(raw["errors"].items()) + \
            list(raw["mismatches"].items()):
        print(f"{times}x {message}", file=sys.stderr)
    result = {"correct": not raw["mismatches"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  pass_walls=raw.get("pass_walls"),
                  pass_cpus=raw.get("pass_cpus"), setup_runs=setups)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
