"""Table 11 bench: read + decode + query in the simulated in-memory DB."""
from benchmarks.conftest import write_table

from repro.run import table11


def test_table11_query(benchmark, ctx):
    t = benchmark.pedantic(table11, args=(ctx,), rounds=1, iterations=1)
    raw = t.frames["raw"]
    ok = raw[raw.error.isna()]
    assert len(ok) > 0
    # Observation 9: retrieval cost tracks end-to-end speed — fpzip's slow
    # decode must cost more than the bitshuffle methods'
    per_method = ok.groupby("method").decode_ms.mean()
    assert per_method["fpzip"] > per_method["shf+zstd"]
    write_table("table11", t.text)
