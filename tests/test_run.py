"""The table entry point: registry, name checking and three cheap builders."""
import pytest

from repro.core.tables import DIM_METHODS, TABLE11_METHODS
from repro.run import TABLES, Context, main, table03, table09, table11


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
    t = table09(Context(scale=0.05, session=spark))
    assert list(t.frames["table09"].index) == DIM_METHODS


def test_session_hides_the_console_progress_bar(spark):
    # conftest's session is Context().spark's
    assert spark.sparkContext.getConf().get("spark.ui.showConsoleProgress") == "false"


def test_session_binds_the_driver_to_loopback_without_a_web_ui(spark):
    # Context.spark sets both; conftest passes only the driver heap
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.ui.enabled") == "false"
    assert conf.get("spark.driver.host") == "127.0.0.1"
