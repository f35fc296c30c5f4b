"""Table builders over a small sweep (structure + aggregation checks)."""
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from repro import run
from repro.codecs.base import load_codec
from repro.core import harness
from repro.core.harness import per_dataset_metrics, run_benchmark, run_cells
from repro.core.metrics import harmonic_mean
from repro.core.tables import (
    DIM_METHODS,
    FLAT_BLOCK_BYTES,
    ranking_summary,
    table4,
    table4_cells,
    table5,
    table6,
    table9_cells,
    table10,
)
from repro.data.corpus import blocks, corpus, generate, get_spec
from repro.run import Context

METHODS = ["ndzip-C", "MPC", "BUFF", "nv::btcomp", "shf+zstd", "GFC"]
DATASETS = ["citytemp", "gas-price", "astro-mhd", "tpcDS-web", "hdr-night"]


@pytest.fixture(scope="module")
def metrics(spark):
    res = run_benchmark(spark, METHODS, scale=0.05, datasets=DATASETS).cache()
    return per_dataset_metrics(res).toPandas()


class TestTable4:
    def test_shape_and_averages(self, metrics):
        t4 = table4(metrics)
        assert "Overall-avg" in t4.index
        assert any("Domain-avg" in str(i) for i in t4.index)
        for m in METHODS:
            assert m in t4.columns

    def test_overall_is_harmonic_mean(self, metrics):
        t4 = table4(metrics)
        col = METHODS[0]
        per_ds = metrics[metrics.method == col].cr
        hm = len(per_ds) / np.sum(1.0 / per_ds)
        assert t4.loc["Overall-avg", col] == pytest.approx(hm)

    def test_astro_mhd_row_dominates(self, metrics):
        t4 = table4(metrics)
        assert t4.loc["astro-mhd"].median() > t4.loc["tpcDS-web"].median()


class TestRanking:
    def test_summary_fields(self, metrics):
        rs = ranking_summary(metrics)
        assert set(rs.order) == set(METHODS)
        assert rs.cd > 0
        assert rs.friedman.avg_ranks.size == len(METHODS)
        assert 0 <= rs.friedman.p_value <= 1

    def test_ranks_sum_invariant(self, metrics):
        rs = ranking_summary(metrics)
        k = len(METHODS)
        assert rs.friedman.avg_ranks.sum() == pytest.approx(k * (k + 1) / 2)


class TestTables5and6:
    def test_table5_rows(self, metrics):
        t5 = table5(metrics)
        assert list(t5.index) == ["avg. comp", "avg. decomp"]
        assert (t5 > 0).all().all()

    def test_table6_excludes_nvcomp(self, metrics):
        t6 = table6(metrics)
        assert not any(c.startswith("nv::") for c in t6.columns)
        assert (t6 > 0).all().all()

    def test_gpu_walltime_exceeds_kernel_time(self, metrics):
        t5, t6 = table5(metrics), table6(metrics)
        # MPC kernel GB/s implies a kernel-only ms; wall must be larger
        sub = metrics[metrics.method == "MPC"]
        kernel_ms = (sub.orig_bytes / (sub.ct_gbs * 1e9) * 1e3).mean()
        assert t6.loc["avg. comp", "MPC"] > kernel_ms


T9_SCALE = 0.04


@pytest.fixture(scope="module")
def t9(spark):
    return run.table09(Context(scale=T9_SCALE)).frames["table09"]


@pytest.mark.parametrize("scale", [T9_SCALE, 0.1])
def test_table9_1d_cells_compress_each_whole_dataset_flattened(scale):
    _, flat_cells = table9_cells()
    batches = iter([pd.DataFrame({"id": [0]})])
    kernel = harness._run_partition(batches, plan=(tuple(flat_cells),), scale=scale, repeats=1)
    rows = pd.concat(kernel).set_index(["dataset", "method"])
    assert set(rows.index) == {(d, m) for d, m, _ in flat_cells}
    assert (rows.block_bytes == FLAT_BLOCK_BYTES).all()
    for name in dict.fromkeys(d for d, _, _ in flat_cells):
        arr = generate(get_spec(name), scale)
        flat = arr.reshape(-1)
        (block,) = blocks(arr, FLAT_BLOCK_BYTES)
        assert np.array_equal(block, flat)
        for method in DIM_METHODS:
            codec = load_codec(method)
            blob = codec.compress(flat)
            assert codec.compress(block) == blob
            row = rows.loc[name, method]
            assert (row.block_id, row.orig_bytes, row.comp_bytes) == (0, flat.nbytes, len(blob))


class TestTable9:
    def test_structure_and_pvalues(self, t9):
        assert list(t9.index) == DIM_METHODS
        assert {"hmean_md", "hmean_1d", "p_value"} <= set(t9.columns)
        valid = t9.p_value.dropna()
        assert ((valid >= 0) & (valid <= 1)).all()

    def test_observation6_no_significant_difference(self, t9):
        """Observation 6: compression is 1-d friendly (no significant change)."""
        assert (t9.p_value.dropna() > 0.05).all()


T10_METHODS = ("Gorilla", "nv::btcomp", "shf+zstd")
T10_DATA = dict(scale=0.05, datasets=["citytemp", "gas-price"])


@pytest.fixture(scope="module")
def t10(spark):
    ctx = Context(scale=T10_DATA["scale"])
    cells = {bs: [(d, m, bs) for d in T10_DATA["datasets"] for m in T10_METHODS] for bs in (4096, 65536)}
    return table10({bs: ctx.metrics(c)[0] for bs, c in cells.items()})


class TestTable10:
    def test_blocksize_sweep(self, t10):
        assert set(t10.index.get_level_values("blocksize")) == {"4K", "64K"}
        cr4 = t10.loc[("4K", "avg-CR")]
        cr64 = t10.loc[("64K", "avg-CR")]
        ct4 = t10.loc[("4K", "avg-CT (GB/s)")]
        ct64 = t10.loc[("64K", "avg-CT (GB/s)")]
        # Observation 8: compressors prefer larger block sizes — most CRs
        # improve (the paper's own Table 10 has Gorilla decreasing) and
        # throughput improves overall (per-method timing is noisy at this
        # tiny scale, so compare the mean, not every cell).
        assert (cr64 >= cr4).sum() >= len(cr4) - 1
        assert ct64.mean() > ct4.mean()


def _hmean_cr(spark, methods, **kw) -> dict[str, float]:
    m = per_dataset_metrics(run_benchmark(spark, methods, **kw)).toPandas()
    return m.groupby("method").cr.apply(harmonic_mean).to_dict()


@pytest.fixture
def sweeps(spark, monkeypatch):
    """The cell lists of every ``run_cells`` call ``repro.run`` makes, and an
    accumulator of the bins the kernel ran."""
    ran = spark.sparkContext.accumulator(0)
    kernel = harness._run_partition

    def counted(batches, **kw):
        ran.add(1)
        yield from kernel(batches, **kw)

    calls = []

    def spy(spark, cells, **kw):
        res = harness.run_cells(spark, cells, **kw)
        calls.append((list(cells), res.rdd.getNumPartitions()))
        return res

    monkeypatch.setattr(harness, "_run_partition", counted)
    monkeypatch.setattr(run, "run_cells", spy)
    return calls, ran


def _by_dataset_method(metrics: pd.DataFrame) -> pd.DataFrame:
    return metrics.set_index(["dataset", "method"]).sort_index()[["orig_bytes", "comp_bytes"]]


class TestOneSweepPerTable:
    """A context runs every cell of the tables it builds once, in one
    sweep, and gives the CRs of one ``run_benchmark`` sweep per
    configuration."""

    def test_table9_matches_md_and_1d_sweeps(self, spark, t9):
        multi = [s.name for s in corpus() if len(s.extent) > 1]
        # 1d: a block as large as the largest dataset, one flat block each
        flat = max(get_spec(n).nbytes(T9_SCALE) for n in multi)
        for label, bs in (("md", None), ("1d", flat)):
            want = _hmean_cr(spark, DIM_METHODS, scale=T9_SCALE, datasets=multi, block_bytes=bs)
            assert t9[f"hmean_{label}"].to_dict() == pytest.approx(want, rel=1e-12)
        assert (t9.hmean_md != t9.hmean_1d).any()  # dims reach the md cells only

    def test_table10_matches_per_block_size_sweeps(self, spark, t10):
        for bs, label in ((4096, "4K"), (65536, "64K")):
            want = _hmean_cr(spark, T10_METHODS, block_bytes=bs, **T10_DATA)
            assert t10.loc[(label, "avg-CR")].to_dict() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "names",
        [("table09",), ("table10",), ("table04", "table09", "table10")],
        ids=["table9", "table10", "tables4_9_10"],
    )
    def test_one_sweep_each_bin_run_once(self, spark, sweeps, names):
        calls, ran = sweeps
        ctx = Context(scale=T9_SCALE, builds=names)
        for name in names:
            run.TABLES[name](ctx)
        assert len(calls) == 1
        cells, bins = calls[0]
        # the union of the tables' cells, each once
        assert len(cells) == len(set(cells))
        assert set(cells) == {c for n in names for c in run.CELLS[n]}
        # every table reads the cached sweep: no bin runs twice
        assert ran.value == bins

    def test_shared_cells_match_standalone_sweeps(self, spark, sweeps):
        calls, _ = sweeps
        ctx = Context(scale=T9_SCALE, builds=("table04",))
        t4 = run.table04(ctx).frames["metrics"]
        run.table09(ctx)
        md_cells, flat_cells = table9_cells()
        md = ctx.metrics(md_cells)[0]
        # Table 9's md cells are Table 4's: the later call runs only the 1d ones
        assert [cells for cells, _ in calls] == [table4_cells(), flat_cells]
        for got, cells in ((t4, table4_cells()), (md, md_cells)):
            want = per_dataset_metrics(run_cells(spark, cells, scale=T9_SCALE)).toPandas()
            pd.testing.assert_frame_equal(_by_dataset_method(got), _by_dataset_method(want))


def test_tables_module_imports_no_spark():
    code = "import sys, repro.core.tables; assert not any(m.startswith('pyspark') for m in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
