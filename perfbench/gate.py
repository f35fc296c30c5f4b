"""The benchmark's correctness gate, run outside the timed region.

Each check returns a list of problems; the run passes only when every
list is empty. ``reference.json`` holds each cell's compressed size as
the program produced it when the benchmark was defined, so a change that
alters any codec's output bytes fails the gate.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd

REFERENCE = Path(__file__).with_name("reference.json")
#: Table 4's best methods by Friedman rank in the paper (Fig. 7b).
TOP_METHODS = {"shf+zstd", "shf+LZ4", "fpzip"}


def cell_key(row) -> str:
    return f"{row.dataset}|{row.method}|{int(row.block_id)}"


def load_reference() -> dict[str, dict[str, int]]:
    return json.loads(REFERENCE.read_text())


def check_cells(cells: pd.DataFrame, reference: dict[str, int]) -> list[str]:
    """Every cell succeeded and compressed to its recorded size."""
    problems = [f"{cell_key(r)} failed: {r.error}" for r in cells.itertuples() if not r.ok]
    got = {cell_key(r): int(r.comp_bytes) for r in cells.itertuples() if r.ok}
    if set(got) != set(reference) and not problems:
        problems.append(f"cells differ from the reference: {sorted(set(got) ^ set(reference))[:5]}")
    for key, n in got.items():
        if key in reference and reference[key] != n:
            problems.append(f"{key}: comp_bytes {n} != reference {reference[key]}")
    return problems


def _metrics_sql() -> str:
    from repro.codecs.base import GPU_METHODS
    from repro.core.devicemodel import PCIE_BYTES_PER_SEC

    gpu = ", ".join(f"'{m}'" for m in sorted(GPU_METHODS))
    xfer = f"(orig_bytes + comp_bytes) / {PCIE_BYTES_PER_SEC!r}"
    return f"""
        WITH agg AS (
            SELECT dataset, domain, method,
                   SUM(orig_bytes) AS orig_bytes, SUM(comp_bytes) AS comp_bytes,
                   SUM(comp_ns) / 1e9 AS comp_s, SUM(decomp_ns) / 1e9 AS decomp_s
            FROM res WHERE ok GROUP BY dataset, domain, method)
        SELECT dataset, domain, method, orig_bytes, comp_bytes,
               CAST(orig_bytes AS DOUBLE) / comp_bytes AS cr,
               orig_bytes / comp_s / 1e9 AS ct_gbs,
               orig_bytes / decomp_s / 1e9 AS dt_gbs,
               CASE WHEN method IN ({gpu}) THEN (comp_s + {xfer}) * 1e3
                    ELSE comp_s * 1e3 END AS comp_wall_ms,
               CASE WHEN method IN ({gpu}) THEN (decomp_s + {xfer}) * 1e3
                    ELSE decomp_s * 1e3 END AS decomp_wall_ms
        FROM agg"""


def check_sweep(spark, result) -> list[str]:
    """``per_dataset_metrics`` agrees with DuckDB over the raw results."""
    from repro.oracle import assert_equivalent

    try:
        assert_equivalent(
            spark.createDataFrame(result.metrics), _metrics_sql(), res=result.cells
        )
    except AssertionError as e:
        return [f"per_dataset_metrics differs from DuckDB: {e}"]
    return []


def check_ranking(result) -> list[str]:
    """The sweep's Friedman ranking is led by one of the paper's top methods."""
    top = result.ranking.order[0]
    if top not in TOP_METHODS:
        return [f"ranking top is {top}, not one of {sorted(TOP_METHODS)}"]
    return []


def _scan_counts(col: np.ndarray) -> list[int]:
    # read_decode_query's scans: df.A <= v for the 10-bin histogram edges
    return [int((col <= v).sum()) for v in np.histogram_bin_edges(col, bins=10)[1:]]


def check_dbsim(spec, cells: pd.DataFrame) -> list[str]:
    """Each pair's ``n_rows`` and the rows its scans select match a NumPy
    count over the generated dataset; the scans are re-run over the blob
    file read back and decoded."""
    from repro.codecs.base import load_codec
    from repro.data.corpus import generate, get_spec

    problems = []
    for r in cells[cells.ok].itertuples():
        arr = generate(get_spec(r.dataset), spec.scale)
        mat = arr.reshape(arr.shape[0], -1)
        if r.n_rows != mat.shape[0]:
            problems.append(f"{r.dataset}|{r.method}: n_rows {r.n_rows} != {mat.shape[0]}")
        stored = pd.read_parquet(r.path).sort_values("chunk_id")
        codec = load_codec(r.method)
        flat = np.concatenate([codec.decompress(bytes(p)) for p in stored.payload])
        got = flat.reshape(-1, mat.shape[1])[:, 0]
        if _scan_counts(got) != _scan_counts(mat[:, 0]):
            problems.append(f"{r.dataset}|{r.method}: scan row counts differ")
    return problems


def classify(error: str) -> str:
    """The failure class of a harness ``error`` text."""
    if error.startswith("-: "):
        return "declined"
    if error == "roundtrip mismatch":
        return "mismatch"
    return "runtime"
