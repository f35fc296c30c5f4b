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


def test_table11_needs_no_session():
    ctx = Context(scale=0.05)
    t11 = table11(ctx).frames["table11"]
    assert len(t11) == 7
    assert list(t11.columns) == TABLE11_METHODS + ["query"]
    assert ctx.session is None


def test_table09_rows(spark):
    t = table09(Context(scale=0.05, session=spark))
    assert list(t.frames["table09"].index) == DIM_METHODS
