"""The table entry point: registry, name checking, three cheap builders
and the cell costs ``--out`` records."""
import json
import statistics

import pytest
from pyspark.sql import SparkSession

from repro.core.harness import COST_FILE, cell_key, recorded_costs
from repro.core.tables import DIM_METHODS, TABLE11_METHODS
from repro.run import CELLS, TABLES, Context, main, table03, table09, table11


def test_registry_names():
    assert list(TABLES) == [
        "table03", "table04", "table05", "table06", "table07_08",
        "table09", "table10", "table11", "roofline",
    ]


def test_unknown_name_exits_nonzero_and_lists_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table99"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "table99" in err
    for name in TABLES:
        assert name in err


def test_table03_needs_no_session():
    ctx = Context(scale=0.05)
    t = table03(ctx)
    assert len(t.frames["table03"]) == 33
    assert ctx.session is None


def test_out_writes_the_printed_text(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    main(["--out", str(tmp_path), "table03"])
    text = table03(Context(scale=0.05)).text
    assert (tmp_path / "table03.txt").read_text() == text
    assert text in capsys.readouterr().out


def test_table11_needs_no_session():
    ctx = Context(scale=0.05)
    t11 = table11(ctx).frames["table11"]
    assert len(t11) == 7
    assert list(t11.columns) == TABLE11_METHODS + ["query"]
    assert ctx.session is None


def test_table09_rows(spark):
    t = table09(Context(scale=0.05))
    assert list(t.frames["table09"].index) == DIM_METHODS


def test_session_hides_the_console_progress_bar(spark):
    # conftest's session is Context().spark's
    assert spark.sparkContext.getConf().get("spark.ui.showConsoleProgress") == "false"


def test_session_binds_the_driver_to_loopback_without_a_web_ui(spark):
    # Context.spark sets both; conftest passes only the driver heap
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.ui.enabled") == "false"
    assert conf.get("spark.driver.host") == "127.0.0.1"


def test_committed_costs_price_every_cell_the_tables_sweep():
    assert COST_FILE.is_file()
    per_byte, _ = recorded_costs()
    cells = {c for cells in CELLS.values() for c in cells}
    # one entry per cell, and none for a cell no table sweeps
    assert set(per_byte) == set(map(cell_key, cells))
    assert all(cost > 0 for cost in per_byte.values())


def test_committed_costs_have_no_cold_start_outlier():
    per_byte, _ = recorded_costs()
    by_method = {}
    for dataset, method, block in CELLS["table04"]:
        by_method.setdefault(method, {})[dataset] = per_byte[cell_key((dataset, method, block))]
    for method, costs in by_method.items():
        median = statistics.median(costs.values())
        assert max(costs.values()) <= 5 * median, (method, max(costs, key=costs.get))


def test_out_merges_the_measured_costs_into_the_cost_file(tmp_path, monkeypatch, spark):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    # main stops its session, which here is the tests' own
    monkeypatch.setattr(SparkSession, "stop", lambda self: None)
    swept, kept = CELLS["table09"], ("citytemp", "nv::LZ4", 4096)
    path = tmp_path / "cell_costs.json"
    # one cell the run does not sweep, and one it measures afresh
    path.write_text(json.dumps({cell_key(kept): 1.0, cell_key(swept[0]): 1.0}))
    main(["--out", str(tmp_path), "table09"])
    costs = json.loads(path.read_text())
    assert list(costs) == sorted(map(cell_key, [*swept, kept]))
    assert costs[cell_key(kept)] == 1.0
    assert all(0 < costs[cell_key(c)] < 1.0 for c in swept)


def test_a_table_without_a_sweep_leaves_the_cost_file_untouched(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    path = tmp_path / "cell_costs.json"
    main(["--out", str(tmp_path), "table03"])
    assert not path.exists()
    path.write_text('{"citytemp MPC": 1.0}\n')
    stat = path.stat()
    main(["--out", str(tmp_path), "table03"])
    assert path.read_text() == '{"citytemp MPC": 1.0}\n'
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
