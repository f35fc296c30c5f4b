"""Spark benchmark harness: codecs as per-partition UDFs (§5.1.1).

The work unit is one (dataset, method) pair of names carried as a row of
a Spark DataFrame. ``mapInPandas`` runs the kernel inside the executor:
it generates each dataset of its batch once (the corpus is seeded by
name, so executors and driver generate the same values), cuts it into
blocks, and runs each method on each block (compress, decompress, verify
bit-exact roundtrip, time both), one result row per (dataset, block,
method). Every metric table (4, 5, 6, 7, 8, 9, 10) is a Spark SQL
aggregation over the result DataFrame — Catalyst does the
grouping/harmonic means, and tests cross-check those aggregations against
the DuckDB oracle.
"""
from __future__ import annotations

import time
from functools import partial
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

from repro.codecs.base import GPU_METHODS, TABLE4_METHODS, CodecFailure, load_codec
from repro.data.corpus import blocks, corpus, generate, get_spec

RESULT_SCHEMA = StructType(
    [
        StructField("dataset", StringType()),
        StructField("domain", StringType()),
        StructField("method", StringType()),
        StructField("block_id", LongType()),
        StructField("orig_bytes", LongType()),
        StructField("comp_bytes", LongType()),
        StructField("comp_ns", LongType()),
        StructField("decomp_ns", LongType()),
        StructField("ok", BooleanType()),
        StructField("error", StringType()),
    ]
)


def run_cell(method: str, arr: np.ndarray, dims, repeats: int) -> dict:
    """Compress, decompress and verify ``arr`` with ``method``, timing both:
    the measured fields of one result row. Failures are recorded, not raised."""
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
        reps = max(int(repeats), 1)
        comp_ns = decomp_ns = 2**63 - 1
        blob = b""
        for _ in range(reps):  # paper: repeated runs, best-of kept stable
            t0 = time.perf_counter_ns()
            blob = codec.compress(arr, dims=dims)
            comp_ns = min(comp_ns, time.perf_counter_ns() - t0)
        out_arr = np.zeros(0)
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            out_arr = codec.decompress(blob)
            decomp_ns = min(decomp_ns, time.perf_counter_ns() - t0)
        ok = bool(np.array_equal(out_arr.view(np.uint8), arr.view(np.uint8)))
        rec.update(
            comp_bytes=len(blob),
            comp_ns=int(comp_ns),
            decomp_ns=int(decomp_ns),
            ok=ok,
            error=None if ok else "roundtrip mismatch",
        )
    except CodecFailure as e:
        rec["error"] = f"-: {e}"
    except Exception as e:  # runtime errors: the paper's killed runs
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def _run_partition(
    batches: Iterator[pd.DataFrame],
    *,
    scale: float,
    block_bytes: int | None,
    use_dims: bool,
    repeats: int,
) -> Iterator[pd.DataFrame]:
    """Executor-side worker: generate each dataset of the batch once, cut
    it into blocks and run each of its methods on every block."""
    for pdf in batches:
        out = []
        for name, work in pdf.groupby("dataset", sort=True):
            spec = get_spec(name)
            arr = generate(spec, scale)
            # dims metadata only applies when compressing the whole dataset —
            # a byte-range block no longer matches the logical grid extent
            dims = arr.shape if block_bytes is None and use_dims and arr.ndim > 1 else None
            parts = blocks(arr, block_bytes)
            for method in work.method:
                for block_id, block in enumerate(parts):
                    out.append(
                        {
                            "dataset": name,
                            "domain": spec.domain,
                            "method": method,
                            "block_id": block_id,
                            **run_cell(method, block, dims, repeats),
                        }
                    )
        yield pd.DataFrame(out, columns=[f.name for f in RESULT_SCHEMA.fields])


def run_benchmark(
    spark: SparkSession,
    methods: Sequence[str] = tuple(TABLE4_METHODS),
    *,
    scale: float = 1.0,
    datasets: Sequence[str] | None = None,
    block_bytes: int | None = None,
    use_dims: bool = True,
    repeats: int = 1,
) -> DataFrame:
    """Run the codec sweep; returns the per-(dataset, block, method) results.

    Only the (dataset, method) names travel to the executors; each one
    generates and cuts its own inputs."""
    specs = [get_spec(n) for n in datasets] if datasets else corpus()
    work = pd.DataFrame(
        [(s.name, m) for s in specs for m in methods], columns=["dataset", "method"]
    )
    df = spark.createDataFrame(work, schema="dataset string, method string")
    # spread slow (method, dataset) cells across cores
    df = df.repartition(max(spark.sparkContext.defaultParallelism * 2, len(work) // 4 + 1))
    kernel = partial(
        _run_partition, scale=scale, block_bytes=block_bytes, use_dims=use_dims,
        repeats=repeats,
    )
    return df.mapInPandas(kernel, schema=RESULT_SCHEMA)


def per_dataset_metrics(results: DataFrame) -> DataFrame:
    """CR/CT/DT per (dataset, method) — Spark SQL over the raw results.

    CT/DT are computed from the sums (§5.2: original size over time), and
    GPU-class methods' end-to-end times add the modeled PCIe transfers.
    """
    from repro.core.devicemodel import PCIE_BYTES_PER_SEC

    agg = (
        results.where(F.col("ok"))
        .groupBy("dataset", "domain", "method")
        .agg(
            F.sum("orig_bytes").alias("orig_bytes"),
            F.sum("comp_bytes").alias("comp_bytes"),
            F.sum("comp_ns").alias("comp_ns"),
            F.sum("decomp_ns").alias("decomp_ns"),
        )
    )
    is_gpu = F.col("method").isin(list(GPU_METHODS))
    pcie = F.lit(PCIE_BYTES_PER_SEC)
    comp_s = F.col("comp_ns") / 1e9
    decomp_s = F.col("decomp_ns") / 1e9
    # each direction moves the input up and the output back
    xfer = (F.col("orig_bytes") + F.col("comp_bytes")) / pcie
    return agg.select(
        "dataset",
        "domain",
        "method",
        "orig_bytes",
        "comp_bytes",
        (F.col("orig_bytes") / F.col("comp_bytes")).alias("cr"),
        (F.col("orig_bytes") / comp_s / 1e9).alias("ct_gbs"),
        (F.col("orig_bytes") / decomp_s / 1e9).alias("dt_gbs"),
        (
            F.when(is_gpu, (comp_s + xfer) * 1e3).otherwise(comp_s * 1e3)
        ).alias("comp_wall_ms"),
        (
            F.when(is_gpu, (decomp_s + xfer) * 1e3).otherwise(decomp_s * 1e3)
        ).alias("decomp_wall_ms"),
    )


def harmonic_mean_cr(metrics: DataFrame, by: Sequence[str]) -> DataFrame:
    """Harmonic-mean CR grouped by ``by`` (the paper's CR aggregate)."""
    return metrics.groupBy(*by).agg(
        (F.count("cr") / F.sum(1.0 / F.col("cr"))).alias("hmean_cr")
    )


def failures(results: DataFrame) -> DataFrame:
    """The "-" cells: per (dataset, method) rows that did not succeed."""
    return results.where(~F.col("ok")).select("dataset", "method", "error").distinct()


# --- Tables 7/8: parallel scaling -------------------------------------------

_COMP_SCHEMA = StructType([StructField("comp_bytes", LongType())])
_DECOMP_SCHEMA = StructType([StructField("orig_bytes", LongType())])


def _compress_only(
    batches: Iterator[pd.DataFrame], *, method: str, dtype: np.dtype
) -> Iterator[pd.DataFrame]:
    codec = load_codec(method)
    for pdf in batches:
        sizes = [len(codec.compress(np.frombuffer(p, dtype=dtype))) for p in pdf.payload]
        yield pd.DataFrame({"comp_bytes": sizes})


def _decompress_only(batches: Iterator[pd.DataFrame], *, method: str) -> Iterator[pd.DataFrame]:
    codec = load_codec(method)
    for pdf in batches:
        sizes = [int(codec.decompress(p).nbytes) for p in pdf.payload]
        yield pd.DataFrame({"orig_bytes": sizes})


def scaling_benchmark(
    spark: SparkSession,
    method: str,
    partition_counts: Iterable[int] = (1, 2, 4, 8, 16, 24, 32, 48),
    *,
    scale: float = 1.0,
    chunk_bytes: int = 1 << 18,
    dataset: str = "msg-bt",
) -> pd.DataFrame:
    """Measured throughput vs Spark-partition count (threads → partitions,
    DESIGN.md substitution #9; Tables 7 and 8).

    The dataset is split into fixed chunks; for each partition count a
    compress-only job and a decompress-only job are run and their
    *wall-clock* times taken — the speedup therefore includes scheduler
    overhead and core saturation exactly as the paper's thread sweeps
    include pthread overhead (efficiency declines past the core count).
    """
    arr = generate(get_spec(dataset), scale)
    parts = blocks(arr, chunk_bytes)
    codec = load_codec(method)
    chunks = [p.tobytes() for p in parts]
    comp_chunks = [codec.compress(p) for p in parts]
    total = arr.nbytes
    compress = partial(_compress_only, method=method, dtype=arr.dtype)
    decompress = partial(_decompress_only, method=method)

    def payload_df(payloads):
        return spark.createDataFrame(pd.DataFrame({"payload": payloads}), schema="payload binary")

    # untimed warm-up: the first Spark job pays Python-worker startup and
    # codec-module import, which would be misattributed to the p=1 config
    payload_df(chunks[:4]).mapInPandas(compress, schema=_COMP_SCHEMA).count()

    rows = []
    for p in partition_counts:
        dfc = payload_df(chunks).repartition(p)
        t0 = time.perf_counter()
        n = dfc.mapInPandas(compress, schema=_COMP_SCHEMA).count()
        wall_c = time.perf_counter() - t0
        assert n == len(chunks)
        dfd = payload_df(comp_chunks).repartition(p)
        t0 = time.perf_counter()
        n = dfd.mapInPandas(decompress, schema=_DECOMP_SCHEMA).count()
        wall_d = time.perf_counter() - t0
        assert n == len(chunks)
        rows.append(
            {
                "partitions": p,
                "comp_mbs": total / wall_c / 1e6,
                "decomp_mbs": total / wall_d / 1e6,
            }
        )
    out = pd.DataFrame(rows)
    out["comp_speedup"] = out.comp_mbs / out.comp_mbs.iloc[0]
    out["comp_efficiency"] = out.comp_speedup / out.partitions
    out["decomp_speedup"] = out.decomp_mbs / out.decomp_mbs.iloc[0]
    out["decomp_efficiency"] = out.decomp_speedup / out.partitions
    return out
