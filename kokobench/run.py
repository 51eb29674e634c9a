"""KOKO benchmark entry point.

    python3 kokobench/run.py --workload selective --seed 1 --seconds 1 --trace 0
    python3 kokobench/run.py --smoke

Run from the repository root (the program is imported from ``src/`` and
the Spark session comes from ``jobs/_common.session``). Human-readable
lines go to standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at toy size in both modes and checks
that every metric named in ``BENCHMARK.json`` is emitted.

Everything the run writes stays under ``.kokobench/`` in the repository:
Spark and Python temporary files (``tmp-<pid>``, removed at exit) and, for traced runs,
the span file ``.kokobench/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".kokobench"
TMP = WORK / f"tmp-{os.getpid()}"  # one per process: runs may overlap


def bootstrap() -> None:
    """Make ``src`` importable here and in Spark's Python workers, and
    keep every temporary file inside the repository. Runs before pyspark
    is imported, because the JVM reads these settings at launch."""
    src, jobs = ROOT / "src", ROOT / "jobs"
    if not (src / "repro").is_dir() or not (jobs / "_common.py").is_file():
        sys.exit(f"kokobench: {src}/repro or {jobs}/_common.py is missing; "
                 "run from a full checkout of the repository")
    for d in (TMP / "spark", TMP / "python", TMP / "warehouse"):
        d.mkdir(parents=True, exist_ok=True)
    # The session settings are those of jobs/_common.session, not overrides
    # left in the caller's environment.
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(TMP / "python")
    os.environ["SPARK_LOCAL_DIRS"] = str(TMP / "spark")
    # Every JVM Spark starts keeps its temporary files here too, and writes
    # no performance-data file to /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={TMP / 'spark'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.sql.warehouse.dir={TMP / 'warehouse'}",
        "pyspark-shell",
    ])
    sys.path[:0] = [str(ROOT), str(src), str(jobs)]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def start_session():
    from time import perf_counter

    from _common import session

    spark = session("kokobench")
    # The session's first job (JVM warm-up, Python worker start) is paid
    # before anything is timed.
    spark.range(4, numPartitions=4).mapInPandas(lambda it: it, "id long").count()
    floor = []
    for _ in range(5):
        t0 = perf_counter()
        spark.range(10).count()
        floor.append(perf_counter() - t0)
    floor.sort()
    return spark, floor[len(floor) // 2]


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
            proc.wait(timeout=60)


def environment(spark, floor_s: float) -> dict:
    return {
        "cores": os.cpu_count(),
        "task_threads": spark.sparkContext.defaultParallelism,
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark": spark.version,
        "python": platform.python_version(),
        "git": git_sha(),
        "spark.floor_s": floor_s,
    }


def measure(spark, floor_s, workload, seed, seconds, trace, sizes):
    from kokobench import workloads as wl
    from kokobench.tracing import Tracer

    tracer = Tracer(spark) if trace else None
    res = wl.Result()
    res.layers["spark.floor_s"] = floor_s
    wl.run_workload(spark, workload, seed, seconds, tracer, sizes, res)
    res.note("error_rate", res.failed / res.attempted, "ratio",
             f"{res.failed} of {res.attempted} operations failed or differed")
    if trace:
        units = wl.layer_metric_units()
        # Layers a workload does not exercise read 0.
        values = {m: res.layers.get(m, 0.0) for m in units}
        tracer.dump(WORK / f"trace-{workload}-seed{seed}.json",
                    {"workload": workload, "seed": seed, "seconds": seconds,
                     "env": environment(spark, floor_s), "layers": values})
    else:
        units = wl.END_TO_END_METRICS
        values = {m: res.end_to_end[m] for m in units}
    metrics = {m: {"value": float(values[m]), "unit": u} for m, u in units.items()}
    return res, {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }


def print_report(workload, seed, trace, env, res) -> None:
    print(f"kokobench workload={workload} seed={seed} trace={trace} "
          "(closed loop, 1 client)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, how in res.report:
        print(f"  {name:<28} {value:>14.6f} {unit:<6} {how}")
    for err in res.errors[:10]:
        print(f"  error: {err}")


def smoke() -> int:
    """All workloads at toy size, both modes: every metric name emitted."""
    from kokobench import workloads as wl

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    names = {0: list(wl.END_TO_END_METRICS), 1: list(wl.layer_metric_units())}
    problems = [f"trace={t}: BENCHMARK.json lists {sorted(expect[t])}, "
                f"the benchmark emits {sorted(names[t])}"
                for t in (0, 1) if sorted(expect[t]) != sorted(names[t])]
    listed = [w["name"] for w in bench["workloads"]]
    if listed != list(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads {listed}")
    spark, floor_s = start_session()
    try:
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                res, out = measure(spark, floor_s, workload, 1, 1.0, trace, wl.TOY)
                print_report(workload, 1, trace, environment(spark, floor_s), res)
                got = out["metrics"]
                if sorted(got) != sorted(expect[trace]):
                    problems.append(f"{workload} trace={trace}: emitted {sorted(got)}")
                if not out["correct"] or out["attempted"] < 1:
                    problems.append(f"{workload} trace={trace}: {res.errors[:3]}")
                bad = [m for m, v in got.items() if not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"{workload} trace={trace}: not finite {bad}")
    finally:
        stop_session(spark)
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("SMOKE OK" if not problems else f"SMOKE FAILED ({len(problems)})")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check metric names")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    bootstrap()
    try:
        return smoke() if args.smoke else run_one(ap, args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def run_one(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from kokobench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {list(wl.WORKLOADS)}")
    spark, floor_s = start_session()
    try:
        env = environment(spark, floor_s)
        res, out = measure(spark, floor_s, args.workload, args.seed,
                           args.seconds, args.trace, wl.FULL)
    finally:
        stop_session(spark)
    print_report(args.workload, args.seed, args.trace, env, res)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
