"""One entry point for every evaluation table: ``python -m repro.run NAME...``.

Each builder takes a :class:`Context` and returns a :class:`Table`: the
frames it computed plus the exact text printed for it, which ``--out DIR``
also writes to ``DIR/NAME.txt``; ``benchmarks/out/`` holds that output at
``REPRO_SCALE=0.5``. The context starts a SparkSession only when a builder
asks for one, and its first sweep runs the cells (:data:`CELLS`) of every
table it will build once, as one job. ``--out`` also merges each swept
cell's seconds per input byte, from its result rows, into
``DIR/cell_costs.json`` (``harness.COST_FILE``), from which later runs plan.

Scale and repeats come from ``REPRO_SCALE`` (default 1.0) and
``REPRO_REPEATS`` (default 1).
"""
from __future__ import annotations

import argparse
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.codecs.base import METHODS, TABLE4_METHODS
from repro.core import tables
from repro.core.harness import (
    cached,
    cell_key,
    failures,
    per_dataset_metrics,
    run_cells,
    scaling_benchmark,
    write_cell_costs,
)
from repro.core.metrics import value_entropy
from repro.data.corpus import corpus, generate
from repro.dbsim.store import read_decode_query, store_compressed
from repro.roofline.model import measure_machine_roof, profile_codecs

#: Tables 7/8: the CPU methods that Table 1 runs on threads, and thread
#: counts, over msg-bt at this scale.
SCALING_METHODS = tuple(
    m for m, info in METHODS.items() if info.arch == "CPU" and "threads" in info.parallel
)
SCALING_PARTITIONS = (1, 2, 4, 8, 16, 24, 32, 48)
SCALING_SCALE = 24.0

#: The Python worker daemon: Spark's own, without a per-task tax of zip
#: directory reads (see ``repro.sparkdaemon``).
DAEMON_MODULE = "repro.sparkdaemon"


@dataclass
class Table:
    title: str
    frames: dict[str, pd.DataFrame]
    text: str


#: The cells each sweep-backed builder reads.
CELLS = {
    "table04": tables.table4_cells(),
    "table05": tables.table4_cells(),
    "table06": tables.table4_cells(),
    "table09": [*chain(*tables.table9_cells())],
    "table10": [*chain(*tables.table10_cells().values())],
}


@dataclass
class Context:
    scale: float = 1.0
    repeats: int = 1
    #: The builders this context will run: the first sweep runs all their cells.
    builds: tuple[str, ...] = ()
    #: The active SparkSession, once :attr:`spark` has found or started it.
    session: SparkSession | None = field(default=None, init=False)
    _results: DataFrame | None = field(default=None, repr=False)
    _ran: set = field(default_factory=set, repr=False)
    _metrics: dict = field(default_factory=dict, repr=False)

    @property
    def spark(self) -> SparkSession:
        if self.session is None:
            self.session = (
                SparkSession.builder.appName("repro.run")
                .config("spark.sql.execution.arrow.pyspark.enabled", "true")
                .config("spark.python.daemon.module", DAEMON_MODULE)
                .config("spark.ui.showConsoleProgress", "false")
                .config("spark.ui.enabled", "false")
                .config("spark.driver.host", "127.0.0.1")
                .getOrCreate()
            )
            self.session.sparkContext.setLogLevel("ERROR")
        return self.session

    def metrics(self, cells: list) -> tuple[pd.DataFrame, DataFrame]:
        """The per-dataset metrics of exactly ``cells``, and their failed
        cells as a Spark frame. A call first runs, as one cached job, each of
        ``cells`` and of the ``builds``' cells that no earlier call ran."""
        key = frozenset(cells)
        if key not in self._metrics:
            declared = (CELLS[n] for n in self.builds if n in CELLS)
            todo = [c for c in dict.fromkeys(chain(cells, *declared)) if c not in self._ran]
            if todo:
                res = cached(run_cells(self.spark, todo, scale=self.scale, repeats=self.repeats))
                self._results = res if self._results is None else self._results.union(res)
                self._ran.update(todo)
            # concat_ws skips a null block_bytes, as cell_key skips None
            row_key = F.concat_ws(" ", "dataset", "method", F.col("block_bytes").cast("string"))
            rows = self._results.where(row_key.isin([cell_key(c) for c in key]))
            self._metrics[key] = (per_dataset_metrics(rows).toPandas(), failures(rows))
        return self._metrics[key]


def _text(pdf: pd.DataFrame, extra: str = "") -> str:
    with pd.option_context("display.width", 250, "display.max_columns", 50):
        return pdf.round(3).to_string() + "\n" + extra


def table03(ctx: Context) -> Table:
    rows = []
    for spec in corpus():
        arr = generate(spec, ctx.scale)
        rows.append(
            {
                "domain": spec.domain,
                "name": spec.name,
                "type": spec.dtype_code,
                "size_bytes": int(arr.nbytes),
                "entropy": round(value_entropy(arr), 2),
                "extent": "x".join(map(str, arr.shape)),
                "paper_size_bytes": spec.paper_bytes,
                "paper_entropy": spec.paper_entropy,
                "paper_extent": "x".join(map(str, spec.paper_extent)),
            }
        )
    t3 = pd.DataFrame(rows)
    return Table("Table 3: evaluated datasets (synthetic analogs)", {"table03": t3}, _text(t3))


def table04(ctx: Context) -> Table:
    metrics, failed = ctx.metrics(tables.table4_cells())
    failed = failed.toPandas()
    t4 = tables.table4(metrics)
    rs = tables.ranking_summary(metrics)
    extra = (
        f"\nFriedman chi2={rs.friedman.statistic:.2f} p={rs.friedman.p_value:.2e} "
        f"CD={rs.cd:.3f}\nranking: {' > '.join(rs.order)}\n"
        f"top clique: {rs.groups[0] if rs.groups else '-'}\n"
    )
    if len(failed):
        extra += f"\nfailed cells (paper's '-'):\n{failed.to_string(index=False)}\n"
    return Table(
        "Table 4: compression ratios",
        {"table04": t4, "metrics": metrics, "failed": failed},
        _text(t4, extra),
    )


def table05(ctx: Context) -> Table:
    t5 = tables.table5(ctx.metrics(tables.table4_cells())[0])
    return Table("Table 5: (de)compression throughput (GB/s)", {"table05": t5}, _text(t5))


def table06(ctx: Context) -> Table:
    t6 = tables.table6(ctx.metrics(tables.table4_cells())[0])
    return Table("Table 6: end-to-end wall time (ms)", {"table06": t6}, _text(t6))


def table07_08(ctx: Context) -> Table:
    """Threads → Spark partitions (DESIGN.md substitution #9)."""
    frames = []
    for m in SCALING_METHODS:
        t = scaling_benchmark(ctx.spark, m, SCALING_PARTITIONS, scale=SCALING_SCALE)
        t.insert(0, "method", m)
        frames.append(t)
    t = pd.concat(frames, ignore_index=True)
    return Table(
        "Tables 7/8: parallel (de)compression throughput (MB/s, speedup, efficiency)",
        {"table07_08": t},
        _text(t),
    )


def table09(ctx: Context) -> Table:
    md, flat = (ctx.metrics(cells)[0] for cells in tables.table9_cells())
    t9 = tables.table9(md, flat)
    return Table("Table 9: dimension info influence on CR (md vs 1d)", {"table09": t9}, _text(t9))


def table10(ctx: Context) -> Table:
    t10 = tables.table10({bs: ctx.metrics(c)[0] for bs, c in tables.table10_cells().items()})
    return Table("Table 10: performance under different block sizes", {"table10": t10}, _text(t10))


def table11(ctx: Context) -> Table:
    """Each DB dataset stored and read back by each method; a failed cell is
    the paper's '-', with its error kept in the raw rows."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="fcbench_dbsim_") as workdir:
        for ds in (s.name for s in corpus() if s.domain == "DB"):
            for m in tables.TABLE11_METHODS:
                path = os.path.join(workdir, f"{ds}__{m.replace(':', '_').replace('+', '_')}")
                try:
                    store_compressed(None, path, ds, m, scale=ctx.scale)
                    t = read_decode_query(None, path, ds, m)
                    rows.append((ds, m, t.read_ms, t.decode_ms, t.query_ms, None))
                except Exception as e:
                    rows.append((ds, m, np.nan, np.nan, np.nan, f"{type(e).__name__}: {e}"))
    raw = pd.DataFrame(rows, columns=["name", "method", "read_ms", "decode_ms", "query_ms", "error"])
    # the paper's layout: 'read+decode' per method, then the mean query time
    cells = {}
    for ds, sub in raw.groupby("name", sort=False):
        row = {r.method: "-" if r.error else f"{r.read_ms:.0f}+{r.decode_ms:.0f}" for r in sub.itertuples()}
        cells[ds] = {**row, "query": f"{sub.query_ms.mean():.2f}"}
    t11 = pd.DataFrame(cells).T
    return Table(
        "Table 11: read+decode and query time (ms) from blob files",
        {"table11": t11, "raw": raw},
        _text(t11),
    )


def roofline(ctx: Context) -> Table:
    """Fig. 11 companion: machine roof and per-method placement (msg-bt analog)."""
    roof = measure_machine_roof()
    pdf = profile_codecs(TABLE4_METHODS, roof)
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
    parser.add_argument("--out", type=Path, metavar="DIR", help="also write each table's text to DIR/NAME.txt")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        scale=float(os.environ.get("REPRO_SCALE", "1.0")),
        repeats=int(os.environ.get("REPRO_REPEATS", "1")),
        builds=tuple(args.tables),
    )
    try:
        for name in args.tables:
            t = TABLES[name](ctx)
            print(f"\n=== {t.title} ===")
            print(t.text, end="", flush=True)
            if args.out is not None:
                (args.out / f"{name}.txt").write_text(t.text)
        if args.out is not None and ctx._results is not None:
            write_cell_costs(args.out / "cell_costs.json", ctx._results)
    finally:
        if ctx.session is not None:
            ctx.session.stop()


if __name__ == "__main__":
    main()
