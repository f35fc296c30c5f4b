"""Spark benchmark harness: codecs as per-partition UDFs (§5.1.1).

The work unit is a cell, (dataset, method, block_bytes): ``None`` block
bytes compress the whole dataset with its grid dims, an int cuts its
flattened values into blocks of that size, compressed without dims.
:func:`run_cells` packs any mix of cells onto one bin per core by longest
processing time first (LPT), and ``mapInPandas`` runs one bin per task
over ``spark.range``, so no shuffle moves the work. A cell's cost
(:func:`cell_cost`) is its seconds per input byte, as an earlier run's
result rows recorded it (:data:`COST_FILE`, :func:`write_cell_costs`),
times its dataset's bytes at the plan's scale, so a plan depends on its
cells, cores and scale alone. The kernel takes its bin's cells dataset by
dataset: it generates each dataset once (seeded by name, so executors and
driver agree), cuts it for each cell, and runs the method on each block
(compress, decompress, verify bit-exact roundtrip, time both), one result
row per (dataset, block size, block, method).

Spark SQL then aggregates one configuration's rows, in one task, into each
(dataset, method)'s CR, CT, DT and wall times (:func:`per_dataset_metrics`,
checked against the DuckDB oracle) and its failed cells (:func:`failures`).
The per-method and per-domain averages of Tables 4, 5, 6, 9 and 10 are
pandas over those at most 33 rows per method, in :mod:`repro.core.tables`.
Tables 7/8 (:func:`scaling_benchmark`) map one codec over one dataset's
chunks with ``parallelize`` and time each job; their few rows are pandas too.
"""
from __future__ import annotations

import heapq
import json
import statistics
from functools import cache, partial
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.codecs.base import GPU_METHODS, CodecFailure, load_codec
from repro.core.metrics import best_of
from repro.data.corpus import blocks, generate, get_spec

RESULT_SCHEMA = StructType(
    [
        StructField("dataset", StringType()),
        StructField("domain", StringType()),
        StructField("method", StringType()),
        StructField("block_bytes", LongType()),
        StructField("block_id", LongType()),
        StructField("orig_bytes", LongType()),
        StructField("comp_bytes", LongType()),
        StructField("comp_ns", LongType()),
        StructField("decomp_ns", LongType()),
        StructField("ok", BooleanType()),
        StructField("error", StringType()),
    ]
)


def run_cell(method: str, arr: np.ndarray, repeats: int) -> dict:
    """Compress, decompress and verify ``arr`` with ``method``, timing both:
    the measured fields of one result row. A grid compresses with its dims.
    Failures are recorded, not raised."""
    rec = {
        "orig_bytes": int(arr.nbytes),
        "comp_bytes": None,
        "comp_ns": None,
        "decomp_ns": None,
        "ok": False,
        "error": None,
    }
    try:
        codec = load_codec(method)
        reps = max(int(repeats), 1)  # paper: repeated runs, best-of kept stable
        blob, comp_ns = best_of(reps, lambda: codec.compress(arr))
        out_arr, decomp_ns = best_of(reps, lambda: codec.decompress(blob))
        ok = bool(np.array_equal(out_arr.view(np.uint8), arr.reshape(-1).view(np.uint8)))
        rec.update(
            comp_bytes=len(blob),
            comp_ns=comp_ns,
            decomp_ns=decomp_ns,
            ok=ok,
            error=None if ok else "roundtrip mismatch",
        )
    except CodecFailure as e:
        rec["error"] = f"-: {e}"
    except Exception as e:  # runtime errors: the paper's killed runs
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


Cell = tuple[str, str, int | None]  # (dataset, method, block_bytes)

#: Each cell's seconds per input byte and repeat, as the result rows of a
#: run of ``python -m repro.run --out benchmarks/out`` recorded them: the
#: planner's one source of costs. It only balances the bins; no result
#: depends on it.
COST_FILE = Path(__file__).resolve().parents[3] / "benchmarks" / "out" / "cell_costs.json"


def cell_key(cell: Cell) -> str:
    """``cell``'s key in :data:`COST_FILE` and ``repro.run``: "dataset method [block_bytes]"."""
    return " ".join(str(x) for x in cell if x is not None)


def write_cell_costs(path: Path, results: DataFrame) -> None:
    """Merge into ``path``, keys sorted, the seconds per input byte and
    repeat of each cell in ``results``: its blocks' best-of-repeats compress
    and decompress times over their bytes, as one aggregate in one task.
    Cells with no timing are skipped; with none timed, ``path`` is not
    written."""
    per_byte = (
        results.coalesce(1)
        .groupBy("dataset", "method", "block_bytes")
        .agg(F.expr("(SUM(comp_ns) + SUM(decomp_ns)) / 1e9 / SUM(orig_bytes)").alias("cost"))
        .where("cost IS NOT NULL")
    )
    ran = {cell_key(r[:3]): float(f"{r.cost:.3g}") for r in per_byte.collect()}
    if ran:
        merged = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps(merged | ran, indent=1, sort_keys=True) + "\n")


@cache
def recorded_costs() -> tuple[dict[str, float], float]:
    """:data:`COST_FILE`'s costs by :func:`cell_key`, read once per process,
    and their mean (1 with no file, which prices cells by their bytes alone)."""
    costs = json.loads(COST_FILE.read_text()) if COST_FILE.exists() else {}
    return costs, statistics.fmean(costs.values()) if costs else 1.0


def cell_cost(cell: Cell, scale: float) -> float:
    """Estimated seconds to run ``cell`` once at ``scale``, with nothing
    generated: the cost per byte :data:`COST_FILE` records for it (else the
    mean of those recorded) times the dataset's bytes at ``scale``."""
    recorded, mean = recorded_costs()
    return recorded.get(cell_key(cell), mean) * get_spec(cell[0]).nbytes(scale)


def plan_bins(cells: Sequence[Cell], k: int, scale: float) -> tuple[tuple[Cell, ...], ...]:
    """Pack ``cells`` onto ``k`` bins, longest processing time first: each
    cell, costliest first by its :func:`cell_cost`, goes to the least-loaded
    bin. The makespan is within 4/3 of the optimum (Graham 1969) and at most
    the mean load plus the costliest cell. Ties go by (dataset, method), then
    input order."""
    bins: list[list[Cell]] = [[] for _ in range(k)]
    loads = [(0.0, b) for b in range(k)]
    costed = sorted(
        ((cell_cost(c, scale), c) for c in cells), key=lambda t: (-t[0], t[1][:2])
    )
    for cost, cell in costed:
        load, b = heapq.heappop(loads)
        bins[b].append(cell)
        heapq.heappush(loads, (load + cost, b))
    return tuple(tuple(b) for b in bins)


def _run_partition(
    batches: Iterator[pd.DataFrame],
    *,
    plan: tuple[tuple[Cell, ...], ...],
    scale: float,
    repeats: int,
) -> Iterator[pd.DataFrame]:
    """Executor-side worker: run the cells of each bin id in the batch,
    dataset by dataset, generating each dataset once, cutting it for each
    cell and holding only one dataset at a time."""
    for pdf in batches:
        out = []
        for bin_id in pdf.id:
            cells = sorted(plan[bin_id], key=lambda c: c[0])
            for name, work in groupby(cells, key=lambda c: c[0]):
                spec = get_spec(name)
                arr = generate(spec, scale)
                for _, method, block_bytes in work:
                    for block_id, block in enumerate(blocks(arr, block_bytes)):
                        out.append(
                            {
                                "dataset": name,
                                "domain": spec.domain,
                                "method": method,
                                "block_bytes": block_bytes,
                                "block_id": block_id,
                                **run_cell(method, block, repeats),
                            }
                        )
                del arr
        yield pd.DataFrame(out, columns=[f.name for f in RESULT_SCHEMA.fields])


def run_cells(
    spark: SparkSession, cells: Sequence[Cell], *, scale: float, repeats: int = 1
) -> DataFrame:
    """Run ``cells`` as one job, one :func:`plan_bins` bin per core (at most
    one per cell) and one ``spark.range`` row, so one task, per bin."""
    k = max(min(spark.sparkContext.defaultParallelism, len(cells)), 1)
    plan = plan_bins(cells, k, scale)
    kernel = partial(_run_partition, plan=plan, scale=scale, repeats=repeats)
    return spark.range(0, k, 1, k).mapInPandas(kernel, schema=RESULT_SCHEMA)


def run_benchmark(
    spark: SparkSession,
    methods: Sequence[str],
    *,
    scale: float = 1.0,
    datasets: Sequence[str],
    block_bytes: int | None = None,
) -> DataFrame:
    """The codec sweep of ``methods`` over ``datasets``, every cell with the
    same ``block_bytes``: :func:`run_cells`."""
    cells = [(d, m, block_bytes) for d in datasets for m in methods]
    return run_cells(spark, cells, scale=scale)


#: The sums per (dataset, domain, method) that :func:`per_dataset_metrics`
#: derives its columns from, as Spark SQL.
_METRIC_SUMS = (
    "SUM(orig_bytes) AS orig_bytes",
    "SUM(comp_bytes) AS comp_bytes",
    "SUM(comp_ns) / 1e9 AS comp_s",
    "SUM(decomp_ns) / 1e9 AS decomp_s",
)


def per_dataset_metrics(results: DataFrame) -> DataFrame:
    """CR/CT/DT per (dataset, method) — Spark SQL over the raw results.

    CT/DT are computed from the sums (§5.2: original size over time), and
    GPU-class methods' end-to-end times add the modeled PCIe transfers.

    The rows are few, so one task aggregates them with no shuffle. That
    task also computes whatever of ``results`` is not yet materialized, so
    pass a cached frame after an action has filled the cache.
    """
    from repro.core.devicemodel import PCIE_BYTES_PER_SEC

    gpu = ", ".join(f"'{m}'" for m in sorted(GPU_METHODS))
    # each direction moves the input up and the output back
    xfer = f"(orig_bytes + comp_bytes) / CAST({PCIE_BYTES_PER_SEC!r} AS DOUBLE)"
    return (
        results.coalesce(1)
        .where("ok")
        .groupBy("dataset", "domain", "method")
        .agg(*map(F.expr, _METRIC_SUMS))
        .selectExpr(
            "dataset",
            "domain",
            "method",
            "orig_bytes",
            "comp_bytes",
            "CAST(orig_bytes AS DOUBLE) / comp_bytes AS cr",
            "orig_bytes / comp_s / 1e9 AS ct_gbs",
            "orig_bytes / decomp_s / 1e9 AS dt_gbs",
            f"CASE WHEN method IN ({gpu}) THEN (comp_s + {xfer}) * 1e3"
            " ELSE comp_s * 1e3 END AS comp_wall_ms",
            f"CASE WHEN method IN ({gpu}) THEN (decomp_s + {xfer}) * 1e3"
            " ELSE decomp_s * 1e3 END AS decomp_wall_ms",
        )
    )


def cached(df: DataFrame) -> DataFrame:
    """``df`` cached, the cache filled by one job with one task per
    partition and no shuffle (Spark's ``noop`` sink runs the plan and
    writes nothing)."""
    df = df.cache()
    df.write.format("noop").mode("overwrite").save()
    return df


def failures(results: DataFrame) -> DataFrame:
    """The "-" cells: per (dataset, method) rows that did not succeed (one task)."""
    return results.coalesce(1).where(~F.col("ok")).select("dataset", "method", "error").distinct()


# --- Tables 7/8: parallel scaling -------------------------------------------

#: Tables 7/8 cut the msg-bt analog into 256 KiB chunks.
_SCALING_DATASET = "msg-bt"
_SCALING_CHUNK_BYTES = 1 << 18
#: Each (method, partitions) job is timed once per round over all the
#: partition counts, this many rounds; the best is kept.
_SCALING_RUNS = 3


def scaling_benchmark(
    spark: SparkSession,
    method: str,
    partition_counts: Iterable[int],
    *,
    scale: float = 1.0,
) -> pd.DataFrame:
    """Measured throughput vs Spark-partition count (threads → partitions,
    DESIGN.md substitution #9; Tables 7 and 8).

    The dataset is cut into fixed chunks; for each partition count the
    codec is mapped over the chunks in ``p`` slices, one compress job and
    one decompress job. Every job runs once per round, ``_SCALING_RUNS``
    rounds over all the counts, and its best *wall-clock* time is taken —
    the speedup therefore includes scheduler overhead and core saturation
    exactly as the paper's thread sweeps include pthread overhead
    (efficiency declines past the core count). ``comp_spread`` and
    ``decomp_spread`` are each job's slowest round over its best.
    ``parallelize`` ships each task only its own slice, so every job is
    one stage with no shuffle.
    """
    arr = generate(get_spec(_SCALING_DATASET), scale)
    chunks = blocks(arr, _SCALING_CHUNK_BYTES)
    codec = load_codec(method)
    total = arr.nbytes
    sc = spark.sparkContext

    # untimed warm-up: the first Spark job pays Python-worker startup and
    # codec-module import, which would be misattributed to the p=1 config;
    # its output is the decompress jobs' input
    comp_chunks = sc.parallelize(chunks, sc.defaultParallelism).map(codec.compress).collect()

    counts = list(partition_counts)
    # one (action, expected result) pair per timed job: compress, then
    # decompress, for each count in turn
    jobs = []
    for p in counts:
        jobs.append((sc.parallelize(chunks, p).map(codec.compress).count, len(chunks)))
        decomp = sc.parallelize(comp_chunks, p).map(lambda b: codec.decompress(b).nbytes)
        jobs.append((decomp.sum, total))
    # round-robin: every run visits every count, so drift in the host's
    # speed over the minutes of a sweep reaches all counts alike
    ns = np.empty((_SCALING_RUNS, len(jobs)), dtype=np.int64)
    for r in range(_SCALING_RUNS):
        for i, (job, expected) in enumerate(jobs):
            got, ns[r, i] = best_of(1, job)
            if got != expected:  # not an assert, which python -O strips
                raise RuntimeError(
                    f"{method} at {counts[i // 2]} partitions: "
                    f"{('compress', 'decompress')[i % 2]} job got {got}, expected {expected}"
                )
    best = ns.min(axis=0).reshape(-1, 2)
    mbs = total / best * 1e3  # bytes per ns * 1e3 = MB/s
    spread = ns.max(axis=0).reshape(-1, 2) / best
    out = pd.DataFrame({"partitions": counts, "comp_mbs": mbs[:, 0], "decomp_mbs": mbs[:, 1]})
    out["comp_speedup"] = out.comp_mbs / out.comp_mbs.iloc[0]
    out["comp_efficiency"] = out.comp_speedup / out.partitions
    out["decomp_speedup"] = out.decomp_mbs / out.decomp_mbs.iloc[0]
    out["decomp_efficiency"] = out.decomp_speedup / out.partitions
    out["comp_spread"] = spread[:, 0]
    out["decomp_spread"] = spread[:, 1]
    return out
