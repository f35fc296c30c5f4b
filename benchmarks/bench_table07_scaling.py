"""Tables 7/8 bench: parallel scaling over Spark partitions."""
from benchmarks.conftest import write_table

from repro.run import table07_08

METHODS = ["pFPC", "shf+zstd"]  # slow + mid-speed; `python -m repro.run table07_08` runs all 4
PARTITIONS = (1, 2, 4, 8, 16, 32)


def test_table07_08_scaling(benchmark, ctx):
    res = benchmark.pedantic(
        table07_08,
        args=(ctx,),
        kwargs={"methods": METHODS, "partitions": PARTITIONS, "scale": 16.0},
        rounds=1,
        iterations=1,
    )
    t = res.frames["table07_08"]
    # Observation 7: parallel compressors scale up with workers
    for m in METHODS:
        sub = t[t.method == m]
        assert sub.comp_speedup.max() > 1.2, m
    write_table("table07_08", res.text)
