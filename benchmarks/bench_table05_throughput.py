"""Table 5 bench: average (de)compression throughput per method."""
from benchmarks.conftest import write_table

from repro.run import table05


def test_table05_throughputs(benchmark, ctx):
    t = benchmark.pedantic(table05, args=(ctx,), rounds=1, iterations=1)
    t5 = t.frames["table05"]
    assert list(t5.index) == ["avg. comp", "avg. decomp"]
    # GPU-class vectorized methods must outrun the serial per-value codecs
    assert t5.loc["avg. comp", "MPC"] > t5.loc["avg. comp", "Gorilla"]
    assert t5.loc["avg. comp", "nv::btcomp"] > t5.loc["avg. comp", "Chimp"]
    write_table("table05", t.text)
