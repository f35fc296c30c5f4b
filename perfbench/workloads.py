"""The benchmark's workloads and one pass of each kind of work.

A *sweep* pass is the paper's codec sweep (§5.1.1): ``run_benchmark``
fans the (dataset, block, method) cells out through ``mapInPandas``, the
raw results are collected, ``per_dataset_metrics`` aggregates them in
Spark SQL, and ``table4`` / ``ranking_summary`` build Table 4 and the
Friedman ranking. A *dbsim* pass is Table 11's (§5.1.2): for every
(dataset, method) pair, ``store_compressed`` and then
``read_decode_query``.

Every call into the program goes through its public API. The seed only
reorders the datasets, methods and pairs handed to it; the corpus is the
program's own name-seeded data, which the correctness gate pins.
"""
from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pandas as pd

from perfbench.tracing import Tracer

#: A single-precision image and a double-precision 12-column table, both
#: 2-D so the dimension-aware predictors get their ``dims``. Two datasets
#: (28 whole-dataset cells) keep the harness at its floor of two partitions
#: per core, so codec work outweighs per-task cost in sweep-whole.
SWEEP_DATASETS = ("hdr-night", "tpcxBB-store")
#: Table 11's first row, a 1-D double column.
DBSIM_DATASETS = ("tpcH-order",)
#: ``store_compressed``'s page size, also the companion sweep's block size.
DBSIM_CHUNK = 64 * 1024


@dataclass(frozen=True)
class Sweep:
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    scale: float
    block_bytes: int | None = None


@dataclass(frozen=True)
class Dbsim:
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    scale: float


@dataclass(frozen=True)
class Workload:
    name: str
    main: Sweep | Dbsim
    #: Traced runs only: a small pass of the other kind, so that every
    #: per-layer metric is measured on every workload.
    companion: Sweep | Dbsim

    @property
    def sweep(self) -> Sweep:
        return self.main if isinstance(self.main, Sweep) else self.companion

    @property
    def dbsim(self) -> Dbsim:
        return self.companion if isinstance(self.main, Sweep) else self.main


def workloads() -> dict[str, Workload]:
    from repro.codecs.base import TABLE4_METHODS, TABLE10_METHODS
    from repro.core.tables import TABLE11_METHODS

    dbsim_probe = Dbsim(("shf+zstd", "fpzip", "Chimp"), DBSIM_DATASETS, 0.25)
    wl = [
        # Table 4's sweep: codec kernels do most of the work.
        Workload(
            "sweep-whole",
            Sweep(tuple(TABLE4_METHODS), SWEEP_DATASETS, 1.0),
            dbsim_probe,
        ),
        # Table 10's 4K row: per-task Spark cost dominates, codec time is
        # small. Runnable by name; BENCHMARK.json leaves it out because the
        # run budget holds two workloads.
        Workload(
            "sweep-blocks-4k",
            Sweep(tuple(TABLE10_METHODS), SWEEP_DATASETS, 0.0625, 4096),
            dbsim_probe,
        ),
        # Table 11: the only write and read path, decoded on the driver.
        Workload(
            "dbsim-retrieve",
            Dbsim(tuple(TABLE11_METHODS), DBSIM_DATASETS, 0.25),
            Sweep(tuple(TABLE11_METHODS), DBSIM_DATASETS, 0.25, DBSIM_CHUNK),
        ),
    ]
    return {w.name: w for w in wl}


@dataclass
class PassResult:
    wall_s: float
    #: One row per cell (sweep) or pair (dbsim): dataset, method, block_id,
    #: orig_bytes, comp_bytes, ok, error, plus the kind's own columns.
    cells: pd.DataFrame
    #: Sweep: the collected per-dataset metrics and the ranking summary.
    metrics: pd.DataFrame | None = None
    ranking: object | None = None
    #: Traced sweep passes: index of the root span, and the number of
    #: partitions ``mapInPandas`` ran over.
    root: int | None = None
    partitions: int | None = None

    @property
    def orig_bytes(self) -> int:
        return int(self.cells.orig_bytes.sum())


def run_pass(spark, spec, rng: random.Random, tracer: Tracer, workdir: str) -> PassResult:
    if isinstance(spec, Sweep):
        return _sweep_pass(spark, spec, rng, tracer)
    return _dbsim_pass(spark, spec, rng, tracer, workdir)


def _sweep_pass(spark, spec: Sweep, rng: random.Random, tracer: Tracer) -> PassResult:
    from repro.core.harness import per_dataset_metrics, run_benchmark
    from repro.core.tables import ranking_summary, table4

    datasets = rng.sample(spec.datasets, len(spec.datasets))
    methods = rng.sample(spec.methods, len(spec.methods))
    t0 = time.perf_counter()
    with tracer.span("sweep.pass") as root:
        with tracer.span("harness.build"):
            res = run_benchmark(
                spark, methods, datasets=datasets, scale=spec.scale,
                block_bytes=spec.block_bytes,
            ).cache()
        with tracer.span("harness.map"):
            raw = res.toPandas()
        with tracer.span("harness.sql"):
            metrics = per_dataset_metrics(res).toPandas()
        with tracer.span("tables.ranking"):
            table4(metrics)
            ranking = ranking_summary(metrics)
    wall = time.perf_counter() - t0
    partitions = res.rdd.getNumPartitions() if tracer.enabled else None
    res.unpersist()
    return PassResult(wall, raw, metrics, ranking, root, partitions)


def _dbsim_pass(spark, spec: Dbsim, rng: random.Random, tracer: Tracer, workdir: str) -> PassResult:
    from repro.dbsim.store import read_decode_query, store_compressed

    pairs = [(d, m) for d in spec.datasets for m in spec.methods]
    rng.shuffle(pairs)
    rows = []
    t0 = time.perf_counter()
    with tracer.span("dbsim.pass") as root:
        for ds, m in pairs:
            path = os.path.join(workdir, f"{ds}__{m}".replace(":", "_").replace("+", "_"))
            row = {"dataset": ds, "method": m, "block_id": 0, "path": path}
            try:
                a = time.perf_counter()
                with tracer.span("dbsim.store"):
                    info = store_compressed(spark, path, ds, m, scale=spec.scale)
                b = time.perf_counter()
                with tracer.span("dbsim.retrieve"):
                    q = read_decode_query(spark, path, ds, m)
                row.update(
                    orig_bytes=info["orig_bytes"], comp_bytes=info["comp_bytes"],
                    ok=True, error=None, store_ms=(b - a) * 1e3,
                    read_ms=q.read_ms, decode_ms=q.decode_ms,
                    query_ms=q.query_ms, n_rows=q.n_rows,
                )
            except Exception as e:  # counted as a failed pair; the gate rejects the run
                row.update(orig_bytes=0, comp_bytes=0, ok=False,
                           error=f"{type(e).__name__}: {e}")
            rows.append(row)
    wall = time.perf_counter() - t0
    return PassResult(wall, pd.DataFrame(rows), root=root)


class _TracedCodec:
    def __init__(self, codec, tracer: Tracer):
        self._codec = codec
        self.compress = tracer.wrap("codec.encode", codec.compress)
        self.decompress = tracer.wrap("codec.decode", codec.decompress)

    def __getattr__(self, name):
        return getattr(self._codec, name)


@contextmanager
def instrumented(tracer: Tracer):
    """Record spans around the driver-side calls the program makes into
    the corpus and codec layers, by wrapping the names it imported."""
    import repro.core.harness as harness
    import repro.dbsim.store as store

    saved = [(harness, "generate"), (store, "generate"), (store, "load_codec")]
    originals = [getattr(mod, name) for mod, name in saved]
    load_codec = store.load_codec
    harness.generate = tracer.wrap("corpus.generate", harness.generate)
    store.generate = tracer.wrap("corpus.generate", store.generate)
    store.load_codec = lambda name: _TracedCodec(load_codec(name), tracer)
    try:
        yield
    finally:
        for (mod, name), fn in zip(saved, originals):
            setattr(mod, name, fn)


def payloads(spec: Sweep) -> list[tuple[str, int, np.ndarray, tuple | None]]:
    """The sweep's cells' inputs as the harness builds them:
    (dataset, block_id, values, dims)."""
    from repro.data.corpus import generate, get_spec

    out = []
    for ds in spec.datasets:
        arr = generate(get_spec(ds), spec.scale)
        flat = arr.reshape(-1)
        if spec.block_bytes is None:
            out.append((ds, 0, flat, tuple(arr.shape) if arr.ndim > 1 else None))
            continue
        step = spec.block_bytes // arr.itemsize
        for block_id, off in enumerate(range(0, flat.size, step)):
            out.append((ds, block_id, flat[off : off + step], None))
    return out


@dataclass
class CodecProbe:
    encode_s: dict[str, float]
    decode_s: dict[str, float]
    verify_s: float
    calls: int
    mismatches: list[str]


def codec_probe(spec: Sweep, methods) -> CodecProbe:
    """Serial in-driver encode, decode and round-trip check of every
    method on the sweep's payloads."""
    from repro.codecs.base import load_codec

    cells = payloads(spec)
    enc, dec, verify, calls, bad = {}, {}, 0.0, 0, []
    for m in methods:
        codec = load_codec(m)
        enc[m] = dec[m] = 0.0
        for ds, block_id, arr, dims in cells:
            t0 = time.perf_counter()
            blob = codec.compress(arr, dims=dims)
            t1 = time.perf_counter()
            back = codec.decompress(blob)
            t2 = time.perf_counter()
            same = np.array_equal(back.view(np.uint8), arr.view(np.uint8))
            t3 = time.perf_counter()
            enc[m] += t1 - t0
            dec[m] += t2 - t1
            verify += t3 - t2
            calls += 2
            if not same:
                bad.append(f"{ds}|{m}|{block_id}")
    return CodecProbe(enc, dec, verify, calls, bad)


def _identity(batches):
    yield from batches


def _yardstick_kernel(batches):
    for pdf in batches:
        out = []
        for seed in pdf.i:
            a = np.random.default_rng(int(seed)).random(100_000)
            s = 0
            for x in range(60_000):
                s += x * x % 7
            for _ in range(4):
                a = np.sort(a)[::-1].copy()
            out.append(float(a[0]) + s)
        yield pd.DataFrame({"v": out})


def yardstick_s(spark, spec, partitions: int, workdir: str) -> float:
    """Wall time of a fixed job that calls nothing in the program.

    It uses the machinery a pass of ``spec``'s kind spends its time in.
    For a sweep: a ``mapInPandas`` fan-out of NumPy and pure-Python work
    in the Python workers, ``toPandas``, and one small Parquet write and
    read through Spark. For dbsim: three such writes and reads, whose cost
    is mostly Spark's per-job latency. On a shared host that speed drifts
    by 15-25% from one minute to the next; a pass's wall time over the
    yardstick's, both measured in the same run, drifts far less.
    """
    t0 = time.perf_counter()
    round_trips = 3
    if isinstance(spec, Sweep):
        df = spark.createDataFrame(pd.DataFrame({"i": range(4 * partitions)}))
        df.repartition(partitions).mapInPandas(_yardstick_kernel, schema="v double").toPandas()
        round_trips = 1
    rows = pd.DataFrame({"k": range(2000), "b": [b"x" * 64] * 2000})
    for _ in range(round_trips):
        spark.createDataFrame(rows).coalesce(1).write.mode("overwrite").parquet(workdir)
        spark.read.parquet(workdir).orderBy("k").collect()
    return time.perf_counter() - t0


def empty_job_s(spark, partitions: int) -> float:
    """Wall time of a ``mapInPandas`` job that does no work, over as many
    partitions as the harness uses and with the same repartition shuffle."""
    df = spark.createDataFrame(pd.DataFrame({"i": range(4 * partitions)}))
    df = df.repartition(partitions)
    t0 = time.perf_counter()
    df.mapInPandas(_identity, schema="i long").toPandas()
    return time.perf_counter() - t0
