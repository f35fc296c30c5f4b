"""Table 6 bench: end-to-end wall time incl. modeled host↔device copies."""
from benchmarks.conftest import write_table

from repro.run import table06


def test_table06_walltime(benchmark, ctx):
    t = benchmark.pedantic(table06, args=(ctx,), rounds=1, iterations=1)
    t6 = t.frames["table06"]
    assert not any(c.startswith("nv::") for c in t6.columns)
    # Observation 5: serial codecs dominate wall time despite PCIe modeling
    assert t6.loc["avg. comp", "Gorilla"] > t6.loc["avg. comp", "MPC"]
    write_table("table06", t.text)
