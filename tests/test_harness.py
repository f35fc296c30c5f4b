"""Spark harness tests: per-partition codec UDFs + oracle-checked SQL."""
import json
import os
import random
import statistics
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.codecs.base import TABLE4_METHODS, load_codec
from repro.core import harness
from repro.core.harness import (
    RESULT_SCHEMA,
    cached,
    cell_cost,
    cell_key,
    failures,
    per_dataset_metrics,
    plan_bins,
    recorded_costs,
    run_benchmark,
    run_cell,
    write_cell_costs,
)
from repro.core.tables import FLAT_BLOCK_BYTES, table4
from repro.data.corpus import corpus, generate, get_spec
from repro.oracle import assert_equivalent
from repro.run import CELLS

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
        m = per_dataset_metrics(results).toPandas()
        overall = table4(m).loc["Overall-avg"]
        got = pd.DataFrame({"method": overall.index, "hmean_cr": overall.to_numpy()})
        assert_equivalent(
            spark.createDataFrame(got),
            "SELECT method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr FROM m GROUP BY method",
            m=m,
        )

    def test_domain_grouping_matches_duckdb(self, spark, results):
        m = per_dataset_metrics(results).toPandas()
        t4 = table4(m)
        avg = t4[t4.index.str.endswith(" Domain-avg")]
        got = (
            avg.rename(index=lambda i: i.removesuffix(" Domain-avg"))
            .rename_axis(index="domain", columns="method")
            .reset_index()
            .melt(id_vars="domain", value_name="hmean_cr")
        )
        assert_equivalent(
            spark.createDataFrame(got),
            """
            SELECT domain, method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr
            FROM m GROUP BY domain, method
            """,
            m=m,
        )


class TestFailurePath:
    def test_buff_failure_recorded_not_raised(self):
        # no corpus dataset holds a NaN, which BUFF declines
        rec = run_cell("BUFF", np.array([1.0, np.nan, 2.0]), 1)
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


SWEEP_CELLS = [(s.name, m, None) for s in corpus() for m in TABLE4_METHODS]


@pytest.fixture
def cost_file(tmp_path, monkeypatch):
    """``harness.COST_FILE`` moved to a path with no file yet, read afresh."""
    path = tmp_path / "cell_costs.json"
    monkeypatch.setattr(harness, "COST_FILE", path)
    recorded_costs.cache_clear()
    yield path
    recorded_costs.cache_clear()


def _rows(spark, *rows):
    """A result frame of ``rows``: (dataset, method, block_bytes, block_id,
    orig_bytes, comp_ns, decomp_ns), with no timing for a failed block."""
    return spark.createDataFrame(
        [
            (d, "-", m, b, i, n, None if c is None else 1, c, dc, c is not None, None)
            for d, m, b, i, n, c, dc in rows
        ],
        RESULT_SCHEMA,
    )


class TestCostFile:
    def test_merges_measured_costs_per_byte_with_sorted_keys(self, cost_file, spark):
        whole, block = ("tpcH-order", "MPC", None), ("citytemp", "BUFF", 4096)
        cost_file.write_text(json.dumps({"tpcH-order MPC": 1.0, "tpcH-order GFC": 1.0}))
        results = _rows(
            spark,
            (*whole, 0, 10**6, 12_000_000, 11_456_780),  # 23.45678 ns per byte
            (*block, 0, 4096, 100_000, 22_880),  # two blocks, 245.76 us over 8 KiB
            (*block, 1, 4096, 100_000, 22_880),
            ("citytemp", "GFC", None, 0, 4096, None, None),  # no timing: skipped
        )
        write_cell_costs(cost_file, results)
        assert list(json.loads(cost_file.read_text())) == [
            "citytemp BUFF 4096", "tpcH-order GFC", "tpcH-order MPC"
        ]
        # seconds per byte, rounded to three significant digits
        per_byte, mean = recorded_costs()
        assert per_byte == {
            "citytemp BUFF 4096": 3e-8, "tpcH-order GFC": 1.0, "tpcH-order MPC": 2.35e-8
        }
        assert mean == pytest.approx((3e-8 + 1.0 + 2.35e-8) / 3)

    def test_written_keys_read_back_as_the_same_cells(self, cost_file, spark):
        # whole, block and 1-D cells: every cell the tables sweep
        cells = [c for cells in CELLS.values() for c in cells]
        assert {b for _, _, b in cells} >= {None, 4096, FLAT_BLOCK_BYTES}
        write_cell_costs(cost_file, _rows(spark, *((*c, 0, 10**5, 600_000, 400_000) for c in cells)))
        assert set(json.loads(cost_file.read_text())) == set(map(cell_key, cells))
        assert recorded_costs()[0] == dict.fromkeys(map(cell_key, cells), 1e-8)

    def test_no_measured_cell_writes_no_file(self, cost_file, spark):
        write_cell_costs(cost_file, _rows(spark, ("tpcH-order", "BUFF", None, 0, 8, None, None)))
        assert not cost_file.exists()

    def test_a_sweeps_rows_give_each_cell_its_codec_seconds_per_byte(self, cost_file, results):
        write_cell_costs(cost_file, results)
        rows = results.toPandas().groupby(["dataset", "method"])
        sums = rows[["orig_bytes", "comp_ns", "decomp_ns"]].sum()
        want = {
            f"{d} {m}": float(f"{(r.comp_ns + r.decomp_ns) / 1e9 / r.orig_bytes:.3g}")
            for (d, m), r in sums.iterrows()
        }
        assert len(want) == len(TINY["datasets"]) * len(FAST_METHODS)
        assert json.loads(cost_file.read_text()) == want
        assert all(cost > 0 for cost in want.values())

    def test_is_read_once_per_process(self, cost_file):
        cost_file.write_text(json.dumps({"tpcH-order MPC": 1e-8}))
        first = recorded_costs()
        cost_file.write_text(json.dumps({"tpcH-order MPC": 5e-8}))
        assert recorded_costs() is first


def _lpt(costs: dict, k: int) -> tuple:
    """The LPT plan of ``costs``' cells in seconds, spelled out."""
    bins, loads = [[] for _ in range(k)], [0.0] * k
    for cell in sorted(costs, key=lambda c: (-costs[c], c[:2])):
        b = loads.index(min(loads))
        bins[b].append(cell)
        loads[b] += costs[cell]
    return tuple(map(tuple, bins))


def _record(path, per_byte: dict) -> None:
    """Write ``per_byte``, keyed by cell, as the cost file at ``path``, read afresh."""
    path.write_text(json.dumps({cell_key(c): cost for c, cost in per_byte.items()}))
    recorded_costs.cache_clear()


class TestPlan:
    @pytest.mark.parametrize("k", [1, 3, 4, 7])
    def test_every_cell_placed_once(self, k):
        plan = plan_bins(SWEEP_CELLS, k, 0.5)
        assert len(plan) == k
        placed = [c for b in plan for c in b]
        assert sorted(placed) == sorted(SWEEP_CELLS)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_lpt_makespan_bound(self, cost_file, k):
        rng = random.Random(k)
        random_costs = {c: rng.expovariate(1e5) for c in SWEEP_CELLS}
        # random costs per byte, then equal ones: cells priced by their bytes
        for per_byte in (random_costs, dict.fromkeys(SWEEP_CELLS, 1.0)):
            _record(cost_file, per_byte)
            costs = {c: cell_cost(c, 0.5) for c in SWEEP_CELLS}
            makespan = max(sum(costs[c] for c in b) for b in plan_bins(SWEEP_CELLS, k, 0.5))
            assert makespan <= sum(costs.values()) / k + max(costs.values()) + 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_measured_costs_reversing_the_table_isolate_the_costliest(self, cost_file, k):
        cells = [("tpcxBB-store", m, None) for m in TABLE4_METHODS]
        _record(cost_file, {c: float(i + 1) for i, c in enumerate(cells)})
        (home,) = [b for b in plan_bins(cells, k, 1.0) if cells[0] in b]
        assert len(home) > 1
        # a later recording of the cheapest cell as the costliest outweighs the rest
        reversed_costs = {c: float(len(cells) - i) for i, c in enumerate(cells)}
        reversed_costs[cells[0]] = sum(reversed_costs.values())
        _record(cost_file, reversed_costs)
        (home,) = [b for b in plan_bins(cells, k, 1.0) if cells[0] in b]
        assert home == (cells[0],)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_an_unmeasured_cell_is_priced_from_the_file(self, cost_file, k):
        cells = [("citytemp", m, None) for m in TABLE4_METHODS]
        unmeasured = cells[7]
        nbytes = get_spec("citytemp").nbytes(0.5)
        recorded = {c: (i + 1) * 1e-7 for i, c in enumerate(cells) if c != unmeasured}
        _record(cost_file, recorded)
        # the one cell the file lacks takes the mean of those it records
        mean = statistics.fmean(recorded.values())
        assert cell_cost(unmeasured, 0.5) == pytest.approx(mean * nbytes)
        seconds = {c: recorded.get(c, mean) * nbytes for c in cells}
        assert plan_bins(cells, k, 0.5) == _lpt(seconds, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_costs_measured_at_one_scale_price_another_by_bytes(self, cost_file, k):
        rng = random.Random(k)
        seconds = {c: rng.expovariate(10.0) for c in SWEEP_CELLS}  # at scale 0.25
        per_byte = {c: t / get_spec(c[0]).nbytes(0.25) for c, t in seconds.items()}
        _record(cost_file, per_byte)
        at_half = {c: per_byte[c] * get_spec(c[0]).nbytes(0.5) for c in SWEEP_CELLS}
        for c in SWEEP_CELLS:
            assert cell_cost(c, 0.5) == pytest.approx(at_half[c])
        assert plan_bins(SWEEP_CELLS, k, 0.5) == _lpt(at_half, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_per_byte_costs_of_the_sweep_whole_cells_give_the_seconds_plan(self, cost_file, k):
        # perfbench's sweep-whole: 2 datasets, 14 methods, repeats 1, one scale
        cells = [(d, m, None) for d in ("hdr-night", "tpcxBB-store") for m in TABLE4_METHODS]
        for seed in range(200):
            rng = random.Random(seed)
            scale = rng.choice([0.25, 0.5, 1.0])
            seconds = {c: rng.expovariate(100.0) for c in cells}
            _record(cost_file, {c: t / get_spec(c[0]).nbytes(scale) for c, t in seconds.items()})
            assert plan_bins(cells, k, scale) == _lpt(seconds, k)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_equal_measured_costs_deal_cells_in_dataset_method_order(self, cost_file, k):
        # datasets of one size, so equal costs per byte are equal costs
        cells = [c for c in SWEEP_CELLS if get_spec(c[0]).nbytes(0.5) == 1 << 17]
        _record(cost_file, dict.fromkeys(cells, 0.25))
        expected = tuple(tuple(sorted(cells)[b::k]) for b in range(k))
        for seed in range(3):
            random.Random(seed).shuffle(cells)
            assert plan_bins(cells, k, 0.5) == expected

    def test_two_sweeps_of_one_session_get_the_same_plan(self, spark, monkeypatch):
        plans = []
        monkeypatch.setattr(
            harness, "plan_bins", lambda *args: plans.append(plan_bins(*args)) or plans[-1]
        )
        # the first sweep runs before the second is planned
        run_benchmark(spark, FAST_METHODS, **TINY).count()
        run_benchmark(spark, FAST_METHODS, **TINY)
        assert len(plans) == 2
        assert plans[0] == plans[1]

    def test_every_table4_method_has_a_cost(self):
        per_byte, _ = recorded_costs()
        assert set(TABLE4_METHODS) <= {key.split(" ")[1] for key in per_byte}

    @pytest.mark.parametrize("method", ["pFPC", "Chimp", "shf+zstd"])
    def test_cells_are_priced_by_their_recorded_cost_per_byte(self, cost_file, method):
        # a block cell has its own cost per byte, whatever its blocks number
        whole, block = ("solar-wind", method, None), ("solar-wind", method, 4096)
        costs = {f"solar-wind {method}": 2e-8, f"solar-wind {method} 4096": 6e-8}
        cost_file.write_text(json.dumps(costs))
        nbytes = get_spec("solar-wind").nbytes(0.5)
        assert cell_cost(whole, 0.5) == pytest.approx(2e-8 * nbytes)
        assert cell_cost(block, 0.5) == pytest.approx(6e-8 * nbytes)
        # a cell the file lacks costs the file's mean per byte
        other = ("citytemp", method, 65536)
        assert cell_cost(other, 2.0) == pytest.approx(4e-8 * get_spec("citytemp").nbytes(2.0))

    def test_no_cost_file_prices_cells_by_their_bytes(self, cost_file):
        for cell in SWEEP_CELLS[::50]:
            assert cell_cost(cell, 0.5) == get_spec(cell[0]).nbytes(0.5)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_whole_and_flat_cells_of_one_pair_each_placed_once(self, k):
        # the md and 1d cells of a (dataset, method) cost the same, so the
        # tie-break must not compare None with an int block size
        cells = [(d, m, b) for d, m, _ in SWEEP_CELLS for b in (None, FLAT_BLOCK_BYTES)]
        plan = plan_bins(cells, k, 0.5)
        placed = [c for b in plan for c in b]
        assert len(placed) == len(cells)
        assert set(placed) == set(cells)

    def test_no_cells_one_empty_bin(self):
        assert plan_bins([], 1, 0.5) == ((),)

    @pytest.mark.parametrize("n_methods", [1, len(FAST_METHODS)])
    def test_one_partition_per_bin(self, spark, n_methods):
        res = run_benchmark(spark, FAST_METHODS[:n_methods], **TINY)
        cells = n_methods * len(TINY["datasets"])
        assert res.rdd.getNumPartitions() == min(spark.sparkContext.defaultParallelism, cells)

    def test_no_methods_gives_empty_frame(self, spark):
        res = run_benchmark(spark, [], scale=0.05, datasets=["citytemp"])
        assert res.rdd.getNumPartitions() == 1
        assert res.schema == RESULT_SCHEMA
        assert res.count() == 0

    def test_unknown_dataset_raises_on_the_driver(self, spark):
        with pytest.raises(KeyError):
            run_benchmark(spark, ["Gorilla"], scale=0.05, datasets=["no-such-dataset"])

    def test_no_exchange_in_executed_plan(self, spark):
        res = run_benchmark(spark, FAST_METHODS, **TINY)
        plan = res._jdf.queryExecution().executedPlan().toString()
        assert "MapInPandas" in plan
        assert "Exchange" not in plan
        # the aggregations run in one task over a cached result of many partitions
        many = cached(res.union(run_benchmark(spark, ["Gorilla"], **TINY)))
        assert many.rdd.getNumPartitions() > 1
        for aggregate in (per_dataset_metrics, failures):
            out = aggregate(many)
            out.collect()
            assert "Exchange" not in out._jdf.queryExecution().executedPlan().toString()
        many.unpersist()


_FIRST_TIMER = """
import json, sys, time
import pandas as pd
from repro.core import harness

def codecs():
    return sorted(m for m in sys.modules if m.startswith("repro.codecs."))

# best_of's timer
at_import, at_timer, perf_counter_ns = codecs(), [], time.perf_counter_ns
time.perf_counter_ns = lambda: at_timer.append(codecs()) or perf_counter_ns()

plan = ((("citytemp", "BUFF", None),),)
batches = iter([pd.DataFrame({"id": [0]})])
list(harness._run_partition(batches, plan=plan, scale=0.05, repeats=1))
print(json.dumps([at_import, at_timer[0]]))
"""


def test_a_fresh_worker_imports_its_cells_codec_before_its_first_cell_timer():
    # the imports of a fresh Python worker must not be charged to its first cell
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_TIMER], env=env, check=True, capture_output=True, text=True
    ).stdout
    at_import, at_timer = json.loads(out)
    # the driver imports the harness without the codec modules it never runs
    assert at_import == ["repro.codecs.base"]
    assert "repro.codecs.buff" in at_timer
