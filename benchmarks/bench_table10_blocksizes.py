"""Table 10 bench: CR/CT/DT under 4K / 64K / 8M block sizes."""
from benchmarks.conftest import write_table

from repro.run import table10


def test_table10_blocksizes(benchmark, ctx):
    t = benchmark.pedantic(table10, args=(ctx,), rounds=1, iterations=1)
    t10 = t.frames["table10"]
    sizes = set(t10.index.get_level_values("blocksize"))
    assert sizes == {"4K", "64K", "8M"}
    # Observation 8: throughputs improve with larger blocks
    ct4 = t10.loc[("4K", "avg-CT (GB/s)")]
    ct64 = t10.loc[("64K", "avg-CT (GB/s)")]
    assert (ct64 > ct4).all()
    write_table("table10", t.text)
