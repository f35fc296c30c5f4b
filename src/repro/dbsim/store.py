"""Simulated in-memory database for query-overhead microbenchmarks (§5.1.2).

The paper's tool reads compressed chunks from HDF5 files into pandas
dataframes and scans them in one process. h5py is unavailable offline, so
the container format is a single Parquet file of (chunk_id, dtype, payload)
rows on local disk, written and read with pyarrow in the calling process
(DESIGN.md substitution #6) — both are chunked binary columnar containers,
and the three timed primitives are identical:

1. **file I/O** — read the compressed chunks from disk;
2. **data decoding** — decompress chunks into a pandas dataframe;
3. **full table scan query** — ``df.loc[df.A <= v_i]`` for the 10
   histogram bin edges of column A (footnote 14 of the paper).
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.codecs.base import load_codec
from repro.data.corpus import blocks, corpus, generate, get_spec

_DEFAULT_CHUNK = 64 * 1024  # compression block = 64 KiB page (§6.2)

_BLOB_SCHEMA = pa.schema(
    [("chunk_id", pa.int64()), ("dtype", pa.string()), ("payload", pa.binary())]
)


def _columns(arr: np.ndarray) -> list[str]:
    ncols = arr.shape[1] if arr.ndim > 1 else 1
    return [chr(ord("A") + i % 26) + ("" if i < 26 else str(i)) for i in range(ncols)]


def store_compressed(
    spark,
    path: str,
    dataset: str,
    method: str,
    *,
    scale: float = 1.0,
    chunk_bytes: int = _DEFAULT_CHUNK,
) -> dict:
    """Compress a corpus dataset and write its chunks as one Parquet blob file.

    Whatever is at ``path`` is replaced, including a directory of part
    files, and missing parent directories are created. ``spark`` is unused;
    it stays in the signature for callers that pass a session.
    """
    spec = get_spec(dataset)
    arr = generate(spec, scale)
    codec = load_codec(method)
    payloads = [codec.compress(b) for b in blocks(arr, chunk_bytes)]
    n = len(payloads)
    table = pa.table(
        {"chunk_id": range(n), "dtype": [str(arr.dtype)] * n, "payload": payloads},
        schema=_BLOB_SCHEMA,
    )
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    pq.write_table(table, path)
    return {
        "orig_bytes": int(arr.nbytes),
        "comp_bytes": sum(map(len, payloads)),
        "n_chunks": n,
        "shape": arr.shape,
    }


@dataclass
class QueryTiming:
    dataset: str
    method: str
    read_ms: float
    decode_ms: float
    query_ms: float
    n_rows: int


def read_decode_query(spark, path: str, dataset: str, method: str) -> QueryTiming:
    """Time the three primitives of Fig. 4 on a stored dataset.

    ``spark`` is unused; it stays in the signature for callers that pass a
    session.
    """
    spec = get_spec(dataset)
    codec = load_codec(method)

    t0 = time.perf_counter()
    # file I/O: chunks into memory. ParquetFile, not read_table, which would
    # load the pyarrow.dataset layer and raise peak memory for one file.
    table = pq.ParquetFile(path).read()
    t1 = time.perf_counter()

    # store_compressed writes one file in chunk_id order, so rows come back in it
    parts = [codec.decompress(p) for p in table.column("payload").to_pylist()]
    flat = np.concatenate(parts) if parts else np.zeros(0, spec.dtype)
    ncols = spec.extent[1] if len(spec.extent) > 1 else 1
    mat = flat.reshape(-1, ncols) if ncols > 1 else flat.reshape(-1, 1)
    df = pd.DataFrame(mat, columns=_columns(mat))
    t2 = time.perf_counter()

    # footnote 14: full scans df.loc[df.A <= v_i], v_i from a 10-bin histogram
    edges = np.histogram_bin_edges(df["A"], bins=10)[1:]
    n = 0
    t3 = time.perf_counter()
    for v in edges:
        n += len(df.loc[df["A"] <= v])
    t4 = time.perf_counter()

    return QueryTiming(
        dataset=dataset,
        method=method,
        read_ms=(t1 - t0) * 1e3,
        decode_ms=(t2 - t1) * 1e3,
        query_ms=(t4 - t3) * 1e3 / len(edges),
        n_rows=len(df),
    )


def table11(
    workdir: str,
    methods,
    *,
    scale: float = 1.0,
    datasets=None,
) -> pd.DataFrame:
    """Table 11: read + decode time per method and the shared query time."""
    datasets = datasets or [s.name for s in corpus() if s.domain == "DB"]
    rows = []
    for ds in datasets:
        for m in methods:
            path = os.path.join(workdir, f"{ds}__{m.replace(':', '_').replace('+', '_')}")
            try:
                store_compressed(None, path, ds, m, scale=scale)
                t = read_decode_query(None, path, ds, m)
            except Exception as e:  # the paper's "-" cells
                rows.append(
                    {"name": ds, "method": m, "read_ms": np.nan,
                     "decode_ms": np.nan, "query_ms": np.nan,
                     "error": f"{type(e).__name__}: {e}"}
                )
                continue
            rows.append(
                {"name": ds, "method": m, "read_ms": t.read_ms,
                 "decode_ms": t.decode_ms, "query_ms": t.query_ms, "error": None}
            )
    return pd.DataFrame(rows)


def format_table11(raw: pd.DataFrame, methods) -> pd.DataFrame:
    """Pivot to the paper's layout: 'read+decode' per method, query column."""
    out = {}
    for ds, sub in raw.groupby("name", sort=False):
        row = {}
        for m in methods:
            r = sub[sub.method == m]
            if len(r) == 0 or not np.isfinite(r.read_ms.iloc[0]):
                row[m] = "-"
            else:
                row[m] = f"{r.read_ms.iloc[0]:.0f}+{r.decode_ms.iloc[0]:.0f}"
        row["query"] = f"{sub.query_ms.mean():.2f}"
        out[ds] = row
    return pd.DataFrame(out).T
