"""Benchmark of the conformance-constraint program: one workload per run.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 10 --trace 0

Run from the root of the repository.  The command puts ``src`` on the
``PYTHONPATH`` itself (the Python workers of every ``mapInPandas`` job need
it), starts one ``local[N]`` Spark session and spawns its Python workers
with a job that does not use ``repro``.  Only then does the set-up clock
start: set-up (ingest, learn, one warm-up op) runs ``SETUP_REPEATS`` times
and ``setup_s`` is the median.  The timed loop then runs ops until
``--seconds`` are used, at least one round of them; a workload with ops
that fail on every run stops only at a round's end.  Then every output is
checked.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the per-layer ones, taken from
spans around the calls into each layer (see ``tracing.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for Spark, the JVM and the Python workers, inside the checkout
TMP = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))

SETUP_REPEATS = 3
DRIVER_MEMORY = "2g"

#: per-layer metrics: name -> (unit, the spans it sums, what it sums)
PER_LAYER = {
    "core.discovery.select_s": ("s", {"core.discovery.select"}, "seconds"),
    "core.gram.scan_s": ("s", {"core.gram.scan"}, "seconds"),
    "core.gram.jobs": ("count", {"core.gram.scan"}, "jobs"),
    "core.discovery.jobs": ("count", {"core.discovery"}, "jobs"),
    "core.discovery.self_s": ("s", {"core.discovery"}, "self"),
    "core.projections.eigh_s": ("s", {"core.projections.eigh"}, "seconds"),
    "explain.extune.s": ("s", {"explain.extune"}, "seconds"),
    "explain.extune.jobs": ("count", {"explain.extune"}, "jobs"),
    "spark.jobs_per_op": ("count", {"op"}, "jobs"),
}
KERNEL_METRIC = ("core.scoring.kernel_rows_per_s", "rows/s")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def prepare_environment() -> None:
    """Make ``repro`` importable here and in every Python worker, and keep
    every temporary file inside the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure: {SRC}/repro is missing")
    os.makedirs(TMP, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = TMP
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(1, SRC)


def start_spark():
    from pyspark.sql import SparkSession

    # one CPU stays free for the driver, the JVM's own threads and the daemon
    slots = max(1, min(3, len(os.sched_getaffinity(0)) - 1))
    spark = (
        SparkSession.builder.master(f"local[{slots}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        # C1 only: the JVM's code is at full speed from the first op (README)
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData -XX:TieredStopAtLevel=1",
        )
        .config("spark.local.dir", TMP)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.sql.shuffle.partitions", str(slots))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, slots


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it: the gateway JVM
    exits when its standard input closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        gateway.shutdown()
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _identity(batches):
    yield from batches


def warm_up(spark, slots: int) -> None:
    """Spawn one Python worker per task slot and touch the Arrow ingest
    path, with no ``repro`` code, so that set-up times the program only."""
    import pandas as pd

    spark.range(0, slots, 1, slots).mapInPandas(_identity, "id long").collect()
    spark.createDataFrame(pd.DataFrame({"x": [0.0] * slots})).count()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, workload, n_ops: int, setup_ingress: list[float]) -> dict:
    value_of = {
        "jobs": tracer.inclusive_jobs,
        "self": tracer.self_seconds,
        "seconds": lambda i: tracer.spans[i].seconds,
    }
    # both workloads ingest in set-up only: the per-set-up total
    metrics = {"ingress.s": {"value": median(setup_ingress), "unit": "s"}}
    for name, (unit, spans, kind) in PER_LAYER.items():
        metrics[name] = {"value": median(tracer.per_op(n_ops, spans, value_of[kind])), "unit": unit}
    extras = workload.traced_extras()
    name, unit = KERNEL_METRIC
    metrics[name] = {"value": float(extras.get(name, 0.0)), "unit": unit}
    return metrics


def run(args) -> dict:
    import workloads
    from tracing import Tracer

    t_launch = time.perf_counter()
    spark, slots = start_spark()
    try:
        t_session = time.perf_counter()
        warm_up(spark, slots)
        t_workers = time.perf_counter()
        tracer = Tracer(spark.sparkContext, enabled=bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](spark, tracer, args.seed)
        tracer.install()
        log(
            f"session start {t_session - t_launch:.2f} s, "
            f"Python-worker spawn {t_workers - t_session:.2f} s, "
            f"input generation {time.perf_counter() - t_workers:.2f} s"
        )

        setup_times, setup_ingress = [], []
        for rep in range(SETUP_REPEATS):
            if rep:
                workload.teardown()
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            workload.setup()
            workload.round()[0].run()  # the untimed warm-up op
            setup_times.append(time.perf_counter() - t0)
            setup_ingress.append(sum(
                s.seconds for s in tracer.spans[first_span:] if s.name == "ingress"
            ))
        log(f"{args.workload}: set-up {[round(t, 3) for t in setup_times]} s on local[{slots}]")

        ops = workload.round()
        # a workload with known-fault ops stops at a round's end only, so
        # that its share of failed ops is the same in every run
        whole_rounds = any(op.known_fault for op in ops)
        results, latencies, rows, failed = [], [], 0, 0
        t_start = time.perf_counter()
        while True:
            op = ops[len(latencies) % len(ops)]
            tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    results.append((op, op.run()))
            except Exception:  # an op that raises is a failed op; keep measuring
                failed += 1
                log(f"{op.label} raised:\n{traceback.format_exc()}")
            latencies.append(time.perf_counter() - t0)
            rows += op.rows
            done = len(latencies)
            if (
                time.perf_counter() - t_start >= args.seconds
                and done >= len(ops)
                and (done % len(ops) == 0 or not whole_rounds)
            ):
                break
        elapsed = time.perf_counter() - t_start
        tracer.op = None
        tracer.uninstall()
        tracer.resolve_jobs()

        correct = True
        for j, errs in sorted(workload.check(results).items()):
            op = results[j][0]
            if op.known_fault:
                failed += 1
            else:
                correct = False
            for e in errs[:3]:
                log(f"{'known fault' if op.known_fault else 'WRONG'} in {op.label}: {e}")
        log(
            f"{args.workload}: {len(latencies)} ops in {elapsed:.2f} s, "
            f"op p50 {median(latencies):.4f} s, {failed} failed, correct={correct}"
        )
        log(f"op latencies {[round(x, 3) for x in latencies]}")

        if args.trace:
            metrics = layer_metrics(tracer, workload, len(latencies), setup_ingress)
        else:
            metrics = {
                "setup_s": {"value": median(setup_times), "unit": "s"},
                "op_p50_s": {"value": median(latencies), "unit": "s"},
                "rows_per_s": {"value": rows / elapsed, "unit": "rows/s"},
                "driver_peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        workload.teardown()
        return {"correct": correct, "attempted": len(latencies), "failed": failed, "metrics": metrics}
    finally:
        stop_spark(spark)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["profile", "explain"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    prepare_environment()
    try:
        result = run(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:  # another run still uses it
            pass
    log(f"wall time {time.perf_counter() - START:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
