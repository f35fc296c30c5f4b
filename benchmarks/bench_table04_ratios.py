"""Table 4 bench: the 33×14 compression-ratio sweep + Friedman ranking."""
from benchmarks.conftest import write_table

from repro.core.tables import ranking_summary
from repro.run import table04


def test_table04_compression_ratios(benchmark, ctx):
    t = benchmark.pedantic(table04, args=(ctx,), rounds=1, iterations=1)
    t4 = t.frames["table04"]
    rs = ranking_summary(t.frames["metrics"])
    assert "Overall-avg" in t4.index
    # headline shape checks against the paper's Table 4 / Fig. 7
    assert rs.order[0] in ("shf+zstd", "shf+LZ4", "fpzip")  # bitshuffle-class on top
    assert rs.order.index("GFC") > len(rs.order) // 2  # GFC ranks low
    write_table("table04", t.text)
