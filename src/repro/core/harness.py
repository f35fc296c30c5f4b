"""Spark benchmark harness: codecs as per-partition UDFs (§5.1.1).

The work unit is one (dataset, block, method) triple carried as a row of
a Spark DataFrame with a binary payload column; ``mapInPandas`` runs the
codec inside the executor (compress, decompress, verify bit-exact
roundtrip, time both), and every metric table (4, 5, 6, 7, 8, 9, 10) is
a Spark SQL aggregation over the result DataFrame — Catalyst does the
grouping/harmonic means, and tests cross-check those aggregations against
the DuckDB oracle.
"""
from __future__ import annotations

import json
import time
from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    BinaryType,
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.codecs.base import GPU_METHODS, TABLE4_METHODS, load_codec
from repro.data.corpus import corpus, generate, get_spec

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

_WORK_SCHEMA = StructType(
    [
        StructField("dataset", StringType()),
        StructField("domain", StringType()),
        StructField("method", StringType()),
        StructField("block_id", LongType()),
        StructField("dtype", StringType()),
        StructField("dims", StringType()),
        StructField("repeats", LongType()),
        StructField("payload", BinaryType()),
    ]
)


def _split_payloads(arr: np.ndarray, block_bytes: int | None) -> list[bytes]:
    raw = np.ascontiguousarray(arr).tobytes()
    if block_bytes is None:
        return [raw]
    step = max(block_bytes, arr.dtype.itemsize)
    step -= step % arr.dtype.itemsize  # whole elements per block
    return [raw[o : o + step] for o in range(0, len(raw), step)] or [b""]


def build_work_df(
    spark: SparkSession,
    methods: Sequence[str],
    *,
    scale: float = 1.0,
    datasets: Sequence[str] | None = None,
    block_bytes: int | None = None,
    use_dims: bool = True,
    repeats: int = 1,
) -> DataFrame:
    """One row per (dataset, block, method) with the raw payload bytes."""
    specs = [get_spec(n) for n in datasets] if datasets else corpus()
    rows = []
    for spec in specs:
        arr = generate(spec, scale)
        # dims metadata only applies when compressing the whole dataset —
        # a byte-range block no longer matches the logical grid extent
        whole = block_bytes is None
        dims = list(arr.shape) if (whole and use_dims and arr.ndim > 1) else None
        for block_id, payload in enumerate(_split_payloads(arr, block_bytes)):
            for m in methods:
                rows.append(
                    {
                        "dataset": spec.name,
                        "domain": spec.domain,
                        "method": m,
                        "block_id": block_id,
                        "dtype": str(arr.dtype),
                        "dims": json.dumps(dims) if block_id == 0 and dims else "",
                        "repeats": repeats,
                        "payload": payload,
                    }
                )
    df = spark.createDataFrame(pd.DataFrame(rows), schema=_WORK_SCHEMA)
    # spread slow (method, dataset) cells across cores
    return df.repartition(max(spark.sparkContext.defaultParallelism * 2, len(rows) // 4 + 1))


def _run_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """Executor-side worker: run each codec on its payload and time it."""
    from repro.codecs.base import CodecFailure, load_codec  # executor import

    for pdf in batches:
        out = []
        for row in pdf.itertuples(index=False):
            arr = np.frombuffer(bytes(row.payload), dtype=np.dtype(row.dtype))
            dims = tuple(json.loads(row.dims)) if row.dims else None
            rec = {
                "dataset": row.dataset,
                "domain": row.domain,
                "method": row.method,
                "block_id": int(row.block_id),
                "orig_bytes": int(arr.nbytes),
                "comp_bytes": None,
                "comp_ns": None,
                "decomp_ns": None,
                "ok": False,
                "error": None,
            }
            try:
                codec = load_codec(row.method)
                reps = max(int(row.repeats), 1)
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
                ok = bool(
                    np.array_equal(out_arr.view(np.uint8), arr.view(np.uint8))
                )
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
            out.append(rec)
        yield pd.DataFrame(out, columns=[f.name for f in RESULT_SCHEMA.fields])


def run_benchmark(
    spark: SparkSession,
    methods: Sequence[str] = tuple(TABLE4_METHODS),
    **kwargs,
) -> DataFrame:
    """Run the codec sweep; returns the per-(dataset, block, method) results."""
    work = build_work_df(spark, methods, **kwargs)
    return work.mapInPandas(_run_partition, schema=RESULT_SCHEMA)


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


def _compress_only(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for pdf in batches:
        sizes = []
        for row in pdf.itertuples(index=False):
            arr = np.frombuffer(bytes(row.payload), dtype=np.dtype(row.dtype))
            codec = load_codec(row.method)
            sizes.append(len(codec.compress(arr)))
        yield pd.DataFrame({"comp_bytes": sizes})


def _decompress_only(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for pdf in batches:
        sizes = []
        for row in pdf.itertuples(index=False):
            codec = load_codec(row.method)
            sizes.append(int(codec.decompress(bytes(row.payload)).nbytes))
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
    raw = arr.tobytes()
    chunks = [raw[o : o + chunk_bytes] for o in range(0, len(raw), chunk_bytes)]
    dtype = str(arr.dtype)
    codec = load_codec(method)
    comp_chunks = [
        codec.compress(np.frombuffer(c, dtype=np.dtype(dtype))) for c in chunks
    ]
    total = len(raw)

    def work_pdf(payloads):
        return pd.DataFrame(
            {
                "dataset": dataset,
                "domain": "HPC",
                "method": method,
                "block_id": range(len(payloads)),
                "dtype": dtype,
                "dims": "",
                "repeats": 1,
                "payload": payloads,
            }
        )

    # untimed warm-up: the first Spark job pays Python-worker startup and
    # codec-module import, which would be misattributed to the p=1 config
    warm = spark.createDataFrame(work_pdf(chunks[:4]), schema=_WORK_SCHEMA)
    warm.mapInPandas(_compress_only, schema=_COMP_SCHEMA).count()

    rows = []
    for p in partition_counts:
        dfc = spark.createDataFrame(work_pdf(chunks), schema=_WORK_SCHEMA).repartition(p)
        t0 = time.perf_counter()
        n = dfc.mapInPandas(_compress_only, schema=_COMP_SCHEMA).count()
        wall_c = time.perf_counter() - t0
        assert n == len(chunks)
        dfd = spark.createDataFrame(
            work_pdf(comp_chunks), schema=_WORK_SCHEMA
        ).repartition(p)
        t0 = time.perf_counter()
        n = dfd.mapInPandas(_decompress_only, schema=_DECOMP_SCHEMA).count()
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
