"""One entry point for every evaluation table: ``python -m repro.run NAME...``.

Each builder takes a :class:`Context` and returns a :class:`Table`: the
frames it computed plus the exact text printed for it, which is also what
``benchmarks/`` writes to ``benchmarks/out/NAME.txt``. The context starts a
SparkSession only when a builder asks for one, and runs the main 33×14
sweep at most once, so Tables 4, 5 and 6 share it as in the paper.

Scale and repeats come from ``REPRO_SCALE`` (default 1.0) and
``REPRO_REPEATS`` (default 1).
"""
from __future__ import annotations

import argparse
import os
import tempfile
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession

from repro.codecs.base import TABLE4_METHODS
from repro.core import tables
from repro.core.harness import failures, run_benchmark, scaling_benchmark
from repro.data.corpus import corpus_table
from repro.dbsim.store import format_table11
from repro.dbsim.store import table11 as dbsim_table11
from repro.roofline.model import measure_machine_roof, profile_codecs

#: Tables 7/8: the paper's four parallel-capable methods and thread counts.
SCALING_METHODS = ("pFPC", "shf+LZ4", "shf+zstd", "ndzip-C")
SCALING_PARTITIONS = (1, 2, 4, 8, 16, 24, 32, 48)


@dataclass
class Table:
    title: str
    frames: dict[str, pd.DataFrame]
    text: str


@dataclass
class Sweep:
    """The main sweep's per-(dataset, method) metrics and failed cells."""

    metrics: pd.DataFrame
    failed: pd.DataFrame


@dataclass
class Context:
    scale: float = 1.0
    repeats: int = 1
    session: SparkSession | None = None
    _sweep: Sweep | None = field(default=None, repr=False)

    @property
    def spark(self) -> SparkSession:
        if self.session is None:
            self.session = (
                SparkSession.builder.appName("repro.run")
                .config(
                    "spark.sql.shuffle.partitions",
                    os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
                )
                .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                .config("spark.sql.autoBroadcastJoinThreshold", -1)
                .getOrCreate()
            )
            self.session.sparkContext.setLogLevel("ERROR")
        return self.session

    def sweep(self) -> Sweep:
        if self._sweep is None:
            res = run_benchmark(self.spark, scale=self.scale, repeats=self.repeats).cache()
            self._sweep = Sweep(tables.metrics_pdf(res), failures(res).toPandas())
            res.unpersist()
        return self._sweep


def _text(pdf: pd.DataFrame, extra: str = "") -> str:
    with pd.option_context("display.width", 250, "display.max_columns", 50):
        return pdf.round(3).to_string() + "\n" + extra


def table03(ctx: Context) -> Table:
    t3 = corpus_table(scale=ctx.scale)
    return Table("Table 3: evaluated datasets (synthetic analogs)", {"table03": t3}, _text(t3))


def table04(ctx: Context) -> Table:
    sweep = ctx.sweep()
    t4 = tables.table4(sweep.metrics)
    rs = tables.ranking_summary(sweep.metrics)
    extra = (
        f"\nFriedman chi2={rs.friedman.statistic:.2f} p={rs.friedman.p_value:.2e} "
        f"CD={rs.cd:.3f}\nranking: {' > '.join(rs.order)}\n"
        f"top clique: {rs.groups[0] if rs.groups else '-'}\n"
    )
    if len(sweep.failed):
        extra += f"\nfailed cells (paper's '-'):\n{sweep.failed.to_string(index=False)}\n"
    return Table(
        "Table 4: compression ratios",
        {"table04": t4, "metrics": sweep.metrics, "failed": sweep.failed},
        _text(t4, extra),
    )


def table05(ctx: Context) -> Table:
    t5 = tables.table5(ctx.sweep().metrics)
    return Table("Table 5: (de)compression throughput (GB/s)", {"table05": t5}, _text(t5))


def table06(ctx: Context) -> Table:
    t6 = tables.table6(ctx.sweep().metrics)
    return Table("Table 6: end-to-end wall time (ms)", {"table06": t6}, _text(t6))


def table07_08(
    ctx: Context,
    *,
    methods=SCALING_METHODS,
    partitions=SCALING_PARTITIONS,
    scale: float = 24.0,
) -> Table:
    """Threads → Spark partitions (DESIGN.md substitution #9)."""
    frames = []
    for m in methods:
        t = scaling_benchmark(ctx.spark, m, partitions, scale=scale, chunk_bytes=1 << 18)
        t.insert(0, "method", m)
        frames.append(t)
    t = pd.concat(frames, ignore_index=True)
    return Table(
        "Tables 7/8: parallel (de)compression throughput (MB/s, speedup, efficiency)",
        {"table07_08": t},
        _text(t),
    )


def table09(ctx: Context) -> Table:
    t9 = tables.table9(ctx.spark, scale=ctx.scale, repeats=ctx.repeats)
    return Table("Table 9: dimension info influence on CR (md vs 1d)", {"table09": t9}, _text(t9))


def table10(ctx: Context) -> Table:
    t10 = tables.table10(ctx.spark, scale=ctx.scale, repeats=ctx.repeats)
    return Table("Table 10: performance under different block sizes", {"table10": t10}, _text(t10))


def table11(ctx: Context) -> Table:
    with tempfile.TemporaryDirectory(prefix="fcbench_dbsim_") as workdir:
        raw = dbsim_table11(workdir, tables.TABLE11_METHODS, scale=ctx.scale)
    t11 = format_table11(raw, tables.TABLE11_METHODS)
    return Table(
        "Table 11: read+decode and query time (ms) from blob files",
        {"table11": t11, "raw": raw},
        _text(t11),
    )


def roofline(ctx: Context) -> Table:
    """Fig. 11 companion: machine roof and per-method placement (msg-bt analog)."""
    roof = measure_machine_roof()
    pts = profile_codecs(TABLE4_METHODS, roof, scale=0.5)
    pdf = pd.DataFrame(
        [
            {
                "method": p.method,
                "ai_ops_per_byte": p.ai,
                "achieved_gops": p.achieved_gops,
                "roof_gops": p.roof_gops,
                "bound": p.bound,
                "utilization": p.utilization,
            }
            for p in pts
        ]
    )
    head = (
        f"machine roof: mem={roof.mem_bw_gbs:.1f} GB/s, compute={roof.compute_gops:.1f} GOPS, "
        f"ridge AI={roof.ridge_ai:.2f} ops/byte\n"
    )
    return Table("Roofline placement (msg-bt analog)", {"roofline": pdf}, head + _text(pdf))


TABLES = {
    "table03": table03,
    "table04": table04,
    "table05": table05,
    "table06": table06,
    "table07_08": table07_08,
    "table09": table09,
    "table10": table10,
    "table11": table11,
    "roofline": roofline,
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.run")
    parser.add_argument("tables", nargs="+", choices=TABLES, metavar="NAME", help=", ".join(TABLES))
    args = parser.parse_args(argv)
    ctx = Context(
        scale=float(os.environ.get("REPRO_SCALE", "1.0")),
        repeats=int(os.environ.get("REPRO_REPEATS", "1")),
    )
    try:
        for name in args.tables:
            t = TABLES[name](ctx)
            print(f"\n=== {t.title} ===")
            print(t.text, end="", flush=True)
    finally:
        if ctx.session is not None:
            ctx.session.stop()


if __name__ == "__main__":
    main()
