"""Tables 7/8: parallel scaling via Spark partitions (DESIGN.md #9)."""
import pytest

from repro.core.harness import scaling_benchmark


class TestScaling:
    # pFPC and shf+zstd are slow enough (MB/s) that per-chunk work
    # dominates the Spark job overhead, so real parallel speedup is observable
    @pytest.fixture(scope="class", params=["pFPC", "shf+zstd"])
    def table(self, spark, request):
        return scaling_benchmark(
            spark,
            request.param,
            partition_counts=(1, 2, 4),
            scale=8.0,
        )

    def test_columns(self, table):
        assert {
            "partitions",
            "comp_mbs",
            "decomp_mbs",
            "comp_speedup",
            "comp_efficiency",
            "decomp_speedup",
            "decomp_efficiency",
            "comp_spread",
            "decomp_spread",
        } <= set(table.columns)
        assert list(table.partitions) == [1, 2, 4]
        # the slowest round over the fastest
        assert (table.comp_spread >= 1).all() and (table.decomp_spread >= 1).all()

    def test_baseline_normalised(self, table):
        assert table.comp_speedup.iloc[0] == pytest.approx(1.0)
        assert table.comp_efficiency.iloc[0] == pytest.approx(1.0)

    def test_throughput_positive(self, table):
        assert (table.comp_mbs > 0).all()
        assert (table.decomp_mbs > 0).all()

    def test_parallel_speedup_materialises(self, table):
        """Observation 7: data-parallel designs scale with workers."""
        assert table.comp_speedup.iloc[-1] > 1.2


def test_each_job_is_one_stage(spark):
    """One warm-up job, then a compress and a decompress job per partition
    count, each run three times (best of 3), each a single stage: no
    shuffle inside a timed job."""
    sc = spark.sparkContext
    counts = (1, 2)
    sc.setJobGroup("test-scaling-stages", "Tables 7/8 jobs")
    try:
        scaling_benchmark(spark, "shf+zstd", counts)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup("test-scaling-stages")
    assert len(jobs) == 1 + 2 * 3 * len(counts)
    for j in jobs:
        assert len(tracker.getJobInfo(j).stageIds) == 1


def test_a_wrong_job_result_raises(spark, monkeypatch):
    """The check of each timed job's result raises, so ``python -O`` keeps it."""
    import repro.core.harness as harness

    monkeypatch.setattr(harness, "best_of", lambda runs, fn: (fn() + 1, 1))
    with pytest.raises(RuntimeError, match=r"^pFPC at 2 partitions: compress job got 2, expected 1$"):
        scaling_benchmark(spark, "pFPC", (2,), scale=0.05)
