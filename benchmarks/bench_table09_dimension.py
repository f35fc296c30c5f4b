"""Table 9 bench: dimension info influence (md vs 1d) + Mann-Whitney p."""
from benchmarks.conftest import write_table

from repro.core.tables import DIM_METHODS
from repro.run import table09


def test_table09_dimension(benchmark, ctx):
    t = benchmark.pedantic(table09, args=(ctx,), rounds=1, iterations=1)
    t9 = t.frames["table09"]
    assert list(t9.index) == DIM_METHODS
    # Observation 6: compression is 1-d friendly — no significant difference
    assert (t9.p_value.dropna() > 0.05).all()
    write_table("table09", t.text)
