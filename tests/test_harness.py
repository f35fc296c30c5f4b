"""Spark harness tests: per-partition codec UDFs + oracle-checked SQL."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.codecs.base import load_codec
from repro.core.harness import (
    failures,
    harmonic_mean_cr,
    per_dataset_metrics,
    run_benchmark,
    run_cell,
)
from repro.data.corpus import generate, get_spec
from repro.oracle import assert_equivalent

FAST_METHODS = ["ndzip-C", "MPC", "nv::btcomp", "BUFF", "shf+zstd"]
TINY = dict(scale=0.05, datasets=["citytemp", "gas-price", "astro-mhd"])


@pytest.fixture(scope="module")
def results(spark):
    return run_benchmark(spark, FAST_METHODS, **TINY).cache()


class TestRunBenchmark:
    def test_row_per_dataset_method(self, results):
        rows = results.groupBy("dataset", "method").count().collect()
        assert len(rows) == 3 * len(FAST_METHODS)

    def test_all_roundtrips_ok(self, results):
        bad = results.where(~F.col("ok")).collect()
        assert not bad, bad

    def test_metrics_positive(self, results):
        m = per_dataset_metrics(results).toPandas()
        assert (m.cr > 0).all()
        assert (m.ct_gbs > 0).all()
        assert (m.dt_gbs > 0).all()

    def test_astro_mhd_compresses_most(self, results):
        m = per_dataset_metrics(results).toPandas()
        by_ds = m.groupby("dataset").cr.median()
        assert by_ds["astro-mhd"] == by_ds.max()

    def test_gpu_walltime_includes_transfer(self, results):
        m = per_dataset_metrics(results).toPandas()
        row = m[(m.method == "MPC")].iloc[0]
        kernel_ms = row.orig_bytes / row.ct_gbs / 1e9 * 1e3
        assert row.comp_wall_ms > kernel_ms  # PCIe model added


class TestSparkSQLAggregationsOracle:
    """Every aggregation used for the tables is diffed against DuckDB."""

    def test_per_dataset_cr_matches_duckdb(self, spark, results):
        raw = results.toPandas()
        got = per_dataset_metrics(results).select("dataset", "method", "cr")
        assert_equivalent(
            got,
            """
            SELECT dataset, method,
                   CAST(SUM(orig_bytes) AS DOUBLE) / SUM(comp_bytes) AS cr
            FROM res WHERE ok GROUP BY dataset, method
            """,
            res=raw,
        )

    def test_harmonic_mean_matches_duckdb(self, spark, results):
        m = per_dataset_metrics(results).cache()
        got = harmonic_mean_cr(m, ["method"])
        assert_equivalent(
            got,
            "SELECT method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr FROM m GROUP BY method",
            m=m.toPandas(),
        )

    def test_domain_grouping_matches_duckdb(self, spark, results):
        m = per_dataset_metrics(results)
        got = harmonic_mean_cr(m, ["domain", "method"])
        assert_equivalent(
            got,
            """
            SELECT domain, method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr
            FROM m GROUP BY domain, method
            """,
            m=m.toPandas(),
        )


class TestFailurePath:
    def test_buff_failure_recorded_not_raised(self):
        # no corpus dataset holds a NaN, which BUFF declines
        rec = run_cell("BUFF", np.array([1.0, np.nan, 2.0]), None, 1)
        assert not rec["ok"]
        assert rec["error"].startswith("-: ")
        assert rec["comp_bytes"] is None

    def test_failures_view(self, spark):
        res = run_benchmark(
            spark, ["BUFF", "ndzip-C"], scale=0.05, datasets=["astro-pt"]
        )
        f = failures(res).toPandas()
        assert len(f) == 0 or set(f.method) <= {"BUFF", "ndzip-C"}


class TestBlockMode:
    @pytest.mark.parametrize("block_bytes", [None, 4096], ids=["whole", "4K"])
    def test_cells_match_driver_side_compression(self, spark, block_bytes):
        methods = ["ndzip-C", "MPC"]
        res = run_benchmark(
            spark, methods, scale=0.05, datasets=["gas-price"], block_bytes=block_bytes
        ).toPandas()
        arr = generate(get_spec("gas-price"), 0.05)
        assert arr.ndim == 2
        flat = arr.reshape(-1)
        step = flat.size if block_bytes is None else block_bytes // arr.itemsize
        parts = [flat[o : o + step] for o in range(0, flat.size, step)]
        dims = arr.shape if block_bytes is None else None
        for m in methods:
            got = res[res.method == m].sort_values("block_id")
            assert list(got.block_id) == list(range(len(parts)))
            assert got.orig_bytes.sum() == arr.nbytes
            assert (got.orig_bytes % arr.itemsize == 0).all()
            codec = load_codec(m)
            want = [len(codec.compress(p, dims=dims)) for p in parts]
            assert list(got.comp_bytes) == want

    def test_blocked_roundtrip(self, spark):
        res = run_benchmark(
            spark,
            ["Gorilla", "nv::btcomp"],
            scale=0.05,
            datasets=["gas-price"],
            block_bytes=4096,
        ).toPandas()
        assert res.ok.all()
        assert res.block_id.max() > 0
