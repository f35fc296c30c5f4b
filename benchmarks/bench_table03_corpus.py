"""Table 3 bench: corpus generation + entropy measurement."""
from benchmarks.conftest import BENCH_SCALE, write_table

from repro.run import Context, table03


def test_table03_corpus(benchmark):
    t = benchmark.pedantic(table03, args=(Context(scale=BENCH_SCALE),), rounds=1, iterations=1)
    tab = t.frames["table03"]
    assert len(tab) == 33
    write_table("table03", t.text)
