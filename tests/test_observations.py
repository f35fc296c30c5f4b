"""The paper's headline shapes, over the table builders' frames at scale 0.5.

One module-wide context declares the sweep-backed tables, so Tables 4, 5,
6 and 9 read one sweep job, as ``python -m repro.run`` runs them. Table 10
compares timings, so it has its own sweep, each cell timed best of 3.
The texts that hold no timing must equal the committed ones in
``benchmarks/out/``.
"""
from pathlib import Path

import pytest

from repro import run
from repro.core.tables import DIM_METHODS, ranking_summary
from repro.run import Context

SCALE = 0.5

#: The committed tables, which ``python -m repro.run --out`` writes at this scale.
OUT = Path(__file__).resolve().parents[1] / "benchmarks" / "out"


@pytest.fixture(scope="module")
def ctx(spark) -> Context:
    builds = ("table04", "table05", "table06", "table09")
    return Context(scale=SCALE, builds=builds)


def test_table03_lists_every_dataset():
    assert len(run.table03(Context(scale=SCALE)).frames["table03"]) == 33


@pytest.mark.parametrize("name", ["table03", "table04", "table09"])
def test_text_is_the_committed_table(name, ctx):
    """These tables hold compression ratios and corpus figures only, so a
    change that keeps every blob and dataset regenerates them byte for byte."""
    assert run.TABLES[name](ctx).text == (OUT / f"{name}.txt").read_text()


def test_table04_ranking(ctx):
    t = run.table04(ctx)
    assert "Overall-avg" in t.frames["table04"].index
    rs = ranking_summary(t.frames["metrics"])
    # the paper's Table 4 / Fig. 7: bitshuffle-class on top, GFC low
    assert rs.order[0] in ("shf+zstd", "shf+LZ4", "fpzip")
    assert rs.order.index("GFC") > len(rs.order) // 2


def test_table05_vectorized_outrun_serial(ctx):
    t5 = run.table05(ctx).frames["table05"]
    assert list(t5.index) == ["avg. comp", "avg. decomp"]
    assert t5.loc["avg. comp", "MPC"] > t5.loc["avg. comp", "Gorilla"]
    assert t5.loc["avg. comp", "nv::btcomp"] > t5.loc["avg. comp", "Chimp"]


def test_table06_serial_codecs_dominate_walltime(ctx):
    """Observation 5: serial codecs dominate wall time despite PCIe modeling."""
    t6 = run.table06(ctx).frames["table06"]
    assert not any(c.startswith("nv::") for c in t6.columns)
    assert t6.loc["avg. comp", "Gorilla"] > t6.loc["avg. comp", "MPC"]


def test_table09_no_significant_difference(ctx):
    """Observation 6: compression is 1-d friendly."""
    t9 = run.table09(ctx).frames["table09"]
    assert list(t9.index) == DIM_METHODS
    assert (t9.p_value.dropna() > 0.05).all()


@pytest.fixture(scope="module")
def table10(spark) -> run.Table:
    return run.table10(Context(scale=SCALE, repeats=3, builds=("table10",)))


def test_table10_every_method_faster_on_larger_blocks(table10):
    """Observation 8: throughputs improve with larger blocks. shf+LZ4's
    64K and 4K cells do the same LZ77 work on 4 KiB bit-plane chunks and
    differ by about 6%, so one slow sample would reverse them."""
    t10 = table10.frames["table10"]
    assert set(t10.index.get_level_values("blocksize")) == {"4K", "64K", "8M"}
    ct4 = t10.loc[("4K", "avg-CT (GB/s)")]
    ct64 = t10.loc[("64K", "avg-CT (GB/s)")]
    assert (ct64 > ct4).all()


def test_table10_ratios_are_the_committed_ones(table10):
    """Table 10's timings vary by host; its avg-CR rows must not. The rows
    are compared field by field, since a column's padding follows its
    timing rows too."""

    def cr_lines(text):
        return [line.split() for line in text.splitlines() if "avg-CR" in line]

    assert cr_lines(table10.text) == cr_lines((OUT / "table10.txt").read_text())


def test_table11_retrieval_tracks_decode_speed():
    """Observation 9: fpzip's slow decode costs more than shf+zstd's."""
    raw = run.table11(Context(scale=SCALE)).frames["raw"]
    ok = raw[raw.error.isna()]
    assert len(ok) > 0
    per_method = ok.groupby("method").decode_ms.mean()
    assert per_method["fpzip"] > per_method["shf+zstd"]
