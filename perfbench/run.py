"""Benchmark of the FCBench reproduction: one command, three workloads.

    python3 perfbench/run.py --workload sweep-whole --seed 1 --seconds 12 --trace 0

Run it from the repository root of a source checkout; it needs no
``pip install``. It starts one local Spark driver (``local[k]``, k one
less than the cores, at most 3) and runs the workload as a closed loop
with one client: each pass starts when the previous one has ended.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, everything
before the first timed pass (JVM launch, SparkSession start, one warm
pass, which starts the Python workers, imports the program and every
codec, and on dbsim-retrieve makes the first Parquet write and read, and
one warm yardstick job); ``pass_wall_rel``; ``hmean_cr``; and
``driver_peak_rss_mb``. The timed loop runs the yardstick job
(``workloads.yardstick_s``, a fixed job that calls nothing in the
program) before every pass, for as many cycles as fit in ``--seconds``.
``pass_wall_rel`` is the timed passes' total wall time over the timed
yardstick jobs' total: the program's speed relative to the host's at
the time, which on a shared host drifts by 15-25% between runs. The raw
medians, ``sweep_wall_s``, ``sweep_mb_s`` and ``yardstick_s``, are
printed on ``raw`` lines. ``--trace 1`` prints the per-layer metrics of
one traced pass, its companion pass of the other kind, a serial
in-driver codec pass, an empty Spark job and one yardstick job, plus the
tracing overhead against an untraced pass.

Every run ends with the correctness gate (``gate.py``) outside the timed
region. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 if the gate failed and 2 if the program could not be run. The run
manifest, the metrics with their sample counts, the gate's findings and
the spans are written to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Spark task slots: one core fewer than the machine has (at most 3), so
#: the Python workers, the JVM's own threads and the driver fit on the
#: cores without time-slicing against each other.
CORES = max(1, min(4, os.cpu_count() or 1) - 1)
DRIVER_MEMORY = "2g"
#: Untimed passes before measuring. The first pays worker start-up and
#: imports. The next few still run 10-20% slow while the JVM warms up, but
#: they are timed: the run budget is better spent on a longer timed window.
WARM_PASSES = 1


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and let the
    driver and the Python executors import ``repro`` and ``perfbench``
    from it."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    paths = [str(SRC), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # C1 only: the short-lived JVM reaches its steady speed within the warm
    # pass, and no C2 compiler threads compete with the timed passes.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:TieredStopAtLevel=1"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote(f'spark.local.dir={tmp}')}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )


def launch_jvm() -> float:
    from pyspark import SparkContext

    t0 = time.perf_counter()
    SparkContext._ensure_initialized()
    return time.perf_counter() - t0


def new_session():
    """A SparkSession with the test suite's settings (conftest.py)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session and the JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is None:
        return
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def spark_jobs_tasks(spark, group: str) -> tuple[int, int]:
    """Jobs run and tasks completed under a job group, from the status tracker."""
    st = spark.sparkContext.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = {s for j in jobs if (info := st.getJobInfo(j)) for s in info.stageIds}
    tasks = sum(si.numCompletedTasks for s in stages if (si := st.getStageInfo(s)))
    return len(jobs), tasks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def manifest(args, wl, spark) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyarrow
    import pyspark

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    sc = spark.sparkContext
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": {"main": wl.main.scale, "companion": wl.companion.scale},
        "spark_master": sc.master,
        "cores": sc.defaultParallelism,
        "driver_memory": DRIVER_MEMORY,
        "versions": {
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__,
            "pandas": pandas.__version__,
            "duckdb": duckdb.__version__,
        },
    }


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def hmean_cr(cells) -> float:
    ok = cells[cells.ok]
    return len(ok) / float((ok.comp_bytes / ok.orig_bytes).sum())


def end_to_end(setup_s: float, passes, yardsticks) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw wall-clock figures behind
    ``pass_wall_rel``, which are printed but not gated: on a shared host
    they drift with its load by more than any useful bound."""
    walls = [p.wall_s for p in passes]
    rates = [p.orig_bytes / 1e6 / p.wall_s for p in passes]
    last = passes[-1].cells
    metrics = {
        "setup_s": (setup_s, "s", 1),
        "pass_wall_rel": (sum(walls) / sum(yardsticks), "ratio", len(walls)),
        "hmean_cr": (hmean_cr(last), "ratio", int(last.ok.sum())),
        "driver_peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    raw = {
        "sweep_wall_s": (statistics.median(walls), "s", len(walls)),
        "sweep_mb_s": (statistics.median(rates), "MB/s", len(rates)),
        "yardstick_s": (statistics.median(yardsticks), "s", len(yardsticks)),
    }
    return metrics, raw


def per_layer(
    wl, tracer, sweep, dbsim, base, traced, probe, empty_s, jobs_tasks, all_cells, yard_s
):
    from perfbench.gate import classify

    self_s = tracer.self_time_by_name([sweep.root, dbsim.root])
    map_s = self_s["harness.map"]
    cells, partitions = sweep.cells, sweep.partitions
    serial_s = sum(probe.encode_s[m] + probe.decode_s[m] for m in wl.sweep.methods)
    serial_s += probe.verify_s * len(wl.sweep.methods) / len(probe.encode_s)
    pairs = dbsim.cells[dbsim.cells.ok]
    store_self_ms = [t * 1e3 for name, t in tracer.self_times(dbsim.root) if name == "dbsim.store"]
    retrieve_ms = pairs.read_ms + pairs.decode_ms
    failed = all_cells[~all_cells.ok].error.map(classify).value_counts()
    n_cells, n_pairs = len(cells), len(pairs)
    m = {
        "corpus.generate_s": (self_s["corpus.generate"], "s", None),
        "harness.build_s": (self_s["harness.build"], "s", None),
        "harness.rows": (len(cells), "count", None),
        "harness.partitions": (partitions, "count", None),
        "harness.payload_mb": (cells.orig_bytes.sum() / 1e6, "MB", None),
        "harness.map_s": (map_s, "s", None),
        "harness.codec_core_s": ((cells.comp_ns.sum() + cells.decomp_ns.sum()) / 1e9, "s", n_cells),
        "harness.fanout_efficiency": (serial_s / CORES / map_s, "ratio", None),
        "harness.sql_s": (self_s["harness.sql"], "s", None),
        "tables.ranking_s": (self_s["tables.ranking"], "s", None),
        "harness.fail_declined": (int(failed.get("declined", 0)), "count", None),
        "harness.fail_mismatch": (int(failed.get("mismatch", 0)), "count", None),
        "harness.fail_runtime": (int(failed.get("runtime", 0)), "count", None),
        "spark.jobs": (jobs_tasks[0], "count", None),
        "spark.tasks": (jobs_tasks[1], "count", None),
        "spark.empty_job_s": (empty_s, "s", None),
        "spark.per_task_ms": (empty_s * CORES / partitions * 1e3, "ms", None),
        "codec.calls": (probe.calls, "count", None),
        "verify_s": (probe.verify_s, "s", None),
    }
    for meth in sorted(probe.encode_s):
        key = meth.replace("+", "-").replace(":", "-")
        m[f"codec.{key}.encode_s"] = (probe.encode_s[meth], "s", None)
        m[f"codec.{key}.decode_s"] = (probe.decode_s[meth], "s", None)
    for name, values, q in [
        ("dbsim.read_ms_p50", pairs.read_ms, 50), ("dbsim.read_ms_p90", pairs.read_ms, 90),
        ("dbsim.decode_ms_p50", pairs.decode_ms, 50), ("dbsim.decode_ms_p90", pairs.decode_ms, 90),
        ("dbsim.query_ms_p50", pairs.query_ms, 50), ("dbsim.write_ms_p50", store_self_ms, 50),
        ("dbsim.store_ms_p50", pairs.store_ms, 50), ("dbsim.store_ms_p90", pairs.store_ms, 90),
        ("dbsim.retrieve_ms_p50", retrieve_ms, 50), ("dbsim.retrieve_ms_p90", retrieve_ms, 90),
    ]:
        m[name] = (_pct(values, q), "ms", n_pairs)
    m["yardstick_s"] = (yard_s, "s", 1)
    m["trace.untraced_pass_s"] = (base.wall_s, "s", 1)
    m["trace.traced_pass_s"] = (traced.wall_s, "s", 1)
    m["trace.overhead_ratio"] = (traced.wall_s / base.wall_s, "ratio", None)
    m["trace.unattributed_s"] = (self_s.get("sweep.pass", 0.0) + self_s.get("dbsim.pass", 0.0), "s", None)
    return m


def span_sum_problems(tracer, results) -> list[str]:
    """The self times under each traced pass add up to its wall time."""
    problems = []
    for r in results:
        total = sum(t for _, t in tracer.self_times(r.root))
        span = tracer.spans[r.root]
        if abs(total - (span.end - span.start)) > 1e-6 * max(1.0, total):
            problems.append(f"self times under {span.name} sum to {total}, not its wall time")
    return problems


def run(args) -> int:
    import pandas as pd

    from perfbench import gate
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        Sweep, codec_probe, empty_job_s, instrumented, run_pass, workloads, yardstick_s,
    )
    from repro.codecs.base import TABLE4_METHODS

    wl = workloads()[args.workload]
    reference = gate.load_reference()
    rng = random.Random(args.seed)
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    untraced, tracer = Tracer(run_id, False), Tracer(run_id, True)
    workdir = str(OUT / "dbsim")
    done: list[tuple[object, str]] = []  # (pass result, reference role)
    yardsticks: list[float] = []
    raw: dict = {}
    spark = None
    try:
        def one_pass(spec, tr, group):
            spark.sparkContext.setJobGroup(group, group)
            role = "main" if spec is wl.main else "companion"
            done.append((run_pass(spark, spec, rng, tr, workdir), role))
            return done[-1][0]

        def yardstick():
            spark.sparkContext.setJobGroup("yardstick", "yardstick")
            yardsticks.append(yardstick_s(spark, wl.main, 2 * CORES, str(OUT / "yardstick")))
            return yardsticks[-1]

        t0 = time.perf_counter()
        launch_s = launch_jvm()
        spark = new_session()
        for i in range(WARM_PASSES):
            one_pass(wl.main, untraced, f"warm{i}")
        yardstick()
        if args.trace:
            one_pass(wl.companion, untraced, "warm-companion")
        setup_s = time.perf_counter() - t0
        info = manifest(args, wl, spark)
        print("manifest " + json.dumps(info, sort_keys=True), flush=True)
        problems = []
        is_sweep = isinstance(wl.main, Sweep)
        if args.trace:
            yard_s = yardstick()
            base = one_pass(wl.main, untraced, "untraced")
            with instrumented(tracer):
                traced = one_pass(wl.main, tracer, "traced")
                companion = one_pass(wl.companion, tracer, "companion")
            jobs_tasks = spark_jobs_tasks(spark, "traced")
            sweep, dbsim = (traced, companion) if is_sweep else (companion, traced)
            probe = codec_probe(wl.sweep, TABLE4_METHODS)
            empty_s = empty_job_s(spark, sweep.partitions)
            problems += span_sum_problems(tracer, [traced, companion])
            problems += [f"codec probe round trip failed: {c}" for c in probe.mismatches]
        else:
            # Each cycle is a yardstick job and a pass; a cycle starts only
            # if a typical one still ends inside the window.
            start, cycles = time.perf_counter(), []
            passes, timed_yardsticks = [], []
            while not cycles or (
                time.perf_counter() - start + statistics.median(cycles) <= args.seconds
            ):
                t = time.perf_counter()
                timed_yardsticks.append(yardstick())
                passes.append(one_pass(wl.main, untraced, f"pass{len(passes)}"))
                cycles.append(time.perf_counter() - t)
            metrics, raw = end_to_end(setup_s, passes, timed_yardsticks)
            sweep, dbsim = (passes[-1], None) if is_sweep else (None, passes[-1])
        for r, role in done:
            problems += gate.check_cells(r.cells, reference[f"{wl.name}/{role}"])
        if sweep is not None:
            problems += gate.check_sweep(spark, sweep)
        if is_sweep:
            problems += gate.check_ranking(sweep)
        if dbsim is not None:
            problems += gate.check_dbsim(wl.dbsim, dbsim.cells)
        all_cells = pd.concat([r.cells for r, _ in done], ignore_index=True)
        if args.trace:
            metrics = per_layer(
                wl, tracer, sweep, dbsim, base, traced, probe, empty_s, jobs_tasks, all_cells,
                yard_s,
            )
            metrics["spark.launch_s"] = (launch_s, "s", 1)
    finally:
        shutdown(spark)

    for kind, figures in (("metric", metrics), ("raw", raw)):
        for name, (value, unit, n) in figures.items():
            print(f"{kind} {name} {value!r} {unit}" + (f" n={n}" if n else ""))
    if args.trace:
        for name, t in sorted(tracer.self_time_by_name([sweep.root, dbsim.root]).items()):
            print(f"span {name} self_s={t!r}")
    print("gate " + ("passed" if not problems else f"FAILED: {len(problems)} problems"))
    for p in problems:
        print(f"gate problem: {p}", file=sys.stderr)
    record = {
        "manifest": info,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "raw": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in raw.items()},
        "setup_s": setup_s,
        "pass_walls_s": {f"{role}{i}": r.wall_s for i, (r, role) in enumerate(done)},
        "yardstick_walls_s": yardsticks,
        "gate_problems": problems,
        "spans": tracer.to_json(),
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=float))
    result = {
        "correct": not problems,
        "attempted": int(len(all_cells)),
        "failed": int((~all_cells.ok).sum()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    prepare_environment()
    from perfbench.workloads import workloads

    if args.workload not in workloads():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
