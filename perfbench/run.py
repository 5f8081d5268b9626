"""Seeded benchmark of the ritzfiber package: one workload per run.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

A single client runs a closed loop: each op starts when the previous one has
been checked.  Inputs are drawn from ``--seed`` before an op is timed and its
result is checked against an oracle after; neither is measured.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
carries what the contract line has no room for (sample count, failed_frac,
max_rel_err, tracing overhead, environment).  Both are also written under
``.bench_out/`` at the root of the checkout, with the spans of a traced run.
"""

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
WORKLOADS = ("roundtrip", "fibre_ops", "poisson", "cli")
MIN_OPS = 110           # at least 10 latency samples above p90
IMPORT_SPAWNS = 7       # timed fresh-interpreter imports, after one warm-up
TIME_LIMIT_S = 150.0    # the loop stops here whatever --seconds asks for
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import ritzfiber; print(t1 - t0, time.perf_counter() - t0)"
)


def child_env():
    """Environment of every process the benchmark starts."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(spawns=IMPORT_SPAWNS):
    """Median wall time of ``import ritzfiber`` (numpy included) in fresh
    interpreters: raw, divided by the speed factor, and that factor.

    The factor is the numpy import timed in the same interpreter over its
    nominal time.  One warm-up spawn is discarded, so .pyc compilation is not
    counted.
    """
    import speed

    raw, scaled, factors = [], [], []
    for i in range(spawns + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            numpy_s, total_s = map(float, proc.stdout.split())
            factors.append(numpy_s / speed.NUMPY_IMPORT_NOMINAL_S)
            raw.append(total_s)
            scaled.append(total_s / factors[-1])
    return statistics.median(raw), statistics.median(scaled), statistics.median(factors)


class Stats:
    """Outcomes of one sequence of ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0          # timed work, set-up steps of a pass included
        self.latencies = []
        self.scaled_seconds = 0.0   # the same, divided by the machine speed factor
        self.scaled_latencies = []
        self.max_err = 0.0
        self.failures = []

    def record(self, op, result, seconds, error, speed_factor=1.0):
        self.seconds += seconds
        self.scaled_seconds += seconds / speed_factor
        if not op.counted:
            if error is not None:
                self._fail(op, repr(error))
            return
        self.attempted += 1
        self.latencies.append(seconds)
        self.scaled_latencies.append(seconds / speed_factor)
        if error is not None:
            self._fail(op, repr(error))
            return
        try:
            err, ok = op.check(result)
        except Exception as exc:  # an unreadable result fails its op
            self._fail(op, f"oracle: {exc!r}")
            return
        self.max_err = max(self.max_err, err)
        if not ok:
            self._fail(op, f"oracle error {err:.3e}")

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.kind} n={op.size}: {why}")

    def passed(self):
        return self.attempted - self.failed

    def throughput(self, scaled=False):
        seconds = self.scaled_seconds if scaled else self.seconds
        return self.passed() / seconds if seconds > 0 else 0.0


def execute(call):
    """Run one call; a raising op is a counted failure, not an abort."""
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:
        result, error = None, exc
    return result, time.perf_counter() - start, error


def measure(ops, seconds, min_ops, deadline, probe):
    """Untraced closed loop until ``seconds`` of timed work and ``min_ops`` ops
    are done, stopping at a cycle boundary so every run holds the same mix."""
    stats = Stats()
    probe.prime()
    while time.monotonic() < deadline:
        op = next(ops)
        if op.opens_cycle and stats.seconds >= seconds and stats.attempted >= min_ops:
            break
        result, elapsed, error = execute(op.call)
        stats.record(op, result, elapsed, error, probe.local_factor())
        probe.after(elapsed)
    return stats


def measure_traced(ops, seconds, tracer, deadline):
    """Run each op untraced, then traced, for ``seconds`` of wall time.

    A cli op runs in this process through ``ritzfiber.cli.run`` both times,
    and once more as a subprocess for ``cli.process_ms_per_op``.
    """
    untraced, traced, spawned = Stats(), Stats(), Stats()
    ops_by_size = Counter()
    stop = time.monotonic() + seconds
    op_id = 0
    while (time.monotonic() < stop or not traced.attempted) and time.monotonic() < deadline:
        op = next(ops)
        call = op.inproc or op.call
        untraced.record(op, *execute(call))
        with tracer.recording(op_id, op.size if op.counted else None):
            result, elapsed, error = execute(call)
        traced.record(op, result, elapsed, error)
        if op.counted:
            ops_by_size[op.size] += 1
        if op.inproc is not None:
            spawned.record(op, *execute(op.call))
        op_id += 1
    return untraced, traced, spawned, ops_by_size


def percentile_ms(latencies, q):
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload):
    # the cli workload's ops run in child processes
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def meta(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "seed": seed,
    }


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def benchmark(workload, seed, seconds, trace, min_ops=MIN_OPS, import_spawns=IMPORT_SPAWNS):
    """Run one workload; returns (contract result, summary, spans or None)."""
    import speed
    import tracer as tracing
    import workloads

    deadline = time.monotonic() + TIME_LIMIT_S
    raw_setup_s, setup_s, setup_factor = import_seconds(import_spawns)
    start = time.perf_counter()
    ops = workloads.ops(workload, seed, child_env())
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "workload_setup_s": time.perf_counter() - start}
    if not trace:
        # cli ops are process spawns, the others run in this process
        probe = speed.SpeedProbe.spawning(child_env()) if workload == "cli" else speed.SpeedProbe()
        stats = measure(ops, seconds, min_ops, deadline, probe)
        values = {
            "throughput_ops_s": stats.throughput(scaled=True),
            "latency_p50_ms": percentile_ms(stats.scaled_latencies, 50),
            "latency_p90_ms": percentile_ms(stats.scaled_latencies, 90),
            "peak_rss_mb": peak_rss_mb(workload),
            "setup_s": setup_s,
        }
        metrics, spans = metric_block(values, END_TO_END), None
        summary["raw"] = {
            "throughput_ops_s": stats.throughput(),
            "latency_p50_ms": percentile_ms(stats.latencies, 50),
            "latency_p90_ms": percentile_ms(stats.latencies, 90),
            "setup_s": raw_setup_s,
        }
        summary.update(speed_factor=probe.factor(), setup_speed_factor=setup_factor)
    else:
        tracer = tracing.Tracer()
        untraced, stats, spawned, ops_by_size = measure_traced(ops, seconds, tracer, deadline)
        values = tracer.layer_metrics(ops_by_size)
        values["trace.throughput_ratio"] = (
            stats.throughput() / untraced.throughput() if untraced.throughput() else 0.0
        )
        values["import.ritzfiber_ms"] = 1e3 * raw_setup_s
        values["cli.process_ms_per_op"] = (
            1e3 * (spawned.seconds / spawned.attempted - untraced.seconds / untraced.attempted)
            if spawned.attempted else 0.0
        )
        spec = [(name, unit) for name, unit, _ in tracing.per_layer_spec()]
        metrics, spans = metric_block(values, spec), tracer.spans
        summary["untraced_ops_s"] = untraced.throughput()
        summary["traced_ops_s"] = stats.throughput()
        # the traced run must pass the same oracles on every execution
        stats = merged(stats, untraced, spawned)
    summary.update({
        "samples": stats.attempted,
        "failed_frac": stats.failed / max(stats.attempted, 1),
        "max_rel_err": stats.max_err,
        "failures": stats.failures,
    })
    result = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    return result, summary, spans


def merged(*parts):
    total = Stats()
    for part in parts:
        total.attempted += part.attempted
        total.failed += part.failed
        total.seconds += part.seconds
        total.latencies += part.latencies
        total.max_err = max(total.max_err, part.max_err)
        total.failures += part.failures
    return total


def write_outputs(stem, result, summary, spans):
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "summary": summary}, indent=1))
    if spans is not None:
        with open(OUT / f"{stem}-spans.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "op"))
            writer.writerows(spans)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ritzfiber" / "__init__.py").is_file():
        print(f"error: the ritzfiber sources are missing under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS threads before numpy is first imported in this process
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    result, summary, spans = benchmark(args.workload, args.seed, args.seconds, args.trace)
    summary["meta"] = meta(args.seed)
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", result, summary, spans)
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
