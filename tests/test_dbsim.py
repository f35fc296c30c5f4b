"""Simulated in-memory database (§5.1.2) tests, oracle-checked queries."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro import run
from repro.codecs.base import load_codec, parse_envelope
from repro.core import tables
from repro.data.corpus import corpus, generate, get_spec
from repro.dbsim.store import _columns, read_decode_query, store_compressed
from repro.oracle import assert_equivalent


def _decoded(path, method):
    stored = pd.read_parquet(path).sort_values("chunk_id")
    codec = load_codec(method)
    return np.concatenate([codec.decompress(bytes(p)) for p in stored.payload])


class TestStore:
    def test_store_and_retrieve(self, tmp_path):
        path = str(tmp_path / "t")
        info = store_compressed(
            None, path, "tpcDS-web", "shf+zstd", scale=0.05, chunk_bytes=4096
        )
        assert info["n_chunks"] > 1
        assert info["comp_bytes"] > 0
        t = read_decode_query(None, path, "tpcDS-web", "shf+zstd")
        arr = generate(get_spec("tpcDS-web"), 0.05)
        assert t.n_rows == arr.shape[0]
        assert t.read_ms > 0 and t.decode_ms > 0 and t.query_ms > 0

    def test_decode_reconstructs_exact_frame(self, tmp_path):
        path = str(tmp_path / "t2")
        store_compressed(None, path, "gas-price", "MPC", scale=0.05)
        arr = generate(get_spec("gas-price"), 0.05)
        np.testing.assert_array_equal(_decoded(path, "MPC"), arr.reshape(-1))


class TestStoreFiles:
    """The blob file's location, overwrite behaviour and schema."""

    def test_creates_missing_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "blob")
        store_compressed(None, path, "tpcDS-web", "shf+zstd", scale=0.05)
        t = read_decode_query(None, path, "tpcDS-web", "shf+zstd")
        assert t.n_rows == generate(get_spec("tpcDS-web"), 0.05).shape[0]

    def test_store_twice_same_path(self, tmp_path):
        path = str(tmp_path / "blob")
        store_compressed(None, path, "tpcDS-web", "shf+zstd", scale=0.05)
        info = store_compressed(
            None, path, "gas-price", "MPC", scale=0.05, chunk_bytes=4096
        )
        assert len(pd.read_parquet(path)) == info["n_chunks"]
        arr = generate(get_spec("gas-price"), 0.05)
        np.testing.assert_array_equal(_decoded(path, "MPC"), arr.reshape(-1))

    def test_schema(self, tmp_path):
        path = str(tmp_path / "blob")
        store_compressed(None, path, "tpcDS-web", "shf+zstd", scale=0.05)
        assert pq.ParquetFile(path).schema_arrow == pa.schema(
            [("chunk_id", pa.int64()), ("payload", pa.binary())]
        )
        # each payload records its dtype in its envelope
        dtype = generate(get_spec("tpcDS-web"), 0.05).dtype
        assert {parse_envelope(p)[0] for p in pd.read_parquet(path).payload} == {dtype}

    def test_equal_chunks_are_each_stored(self, tmp_path, monkeypatch):
        # a constant dataset: every 4 KiB chunk compresses to the same payload
        arr = np.full(64 * 512, 1.5)
        monkeypatch.setattr("repro.dbsim.store.generate", lambda spec, scale: arr)
        path = str(tmp_path / "blob")
        info = store_compressed(None, path, "tpcH-order", "MPC", chunk_bytes=4096)
        codec = load_codec("MPC")
        payloads = [codec.compress(arr[i : i + 512]) for i in range(0, len(arr), 512)]
        assert len(set(payloads)) == 1
        assert info["comp_bytes"] == sum(map(len, payloads))
        col = pq.ParquetFile(path).metadata.row_group(0).column(1)  # payload
        assert not col.has_dictionary_page
        assert os.path.getsize(path) >= info["comp_bytes"]
        np.testing.assert_array_equal(_decoded(path, "MPC"), arr)

    def test_payload_is_stored_uncompressed(self, tmp_path):
        path = str(tmp_path / "blob")
        store_compressed(None, path, "tpcH-order", "pFPC", scale=0.05)
        meta = pq.ParquetFile(path).metadata
        names = meta.schema.to_arrow_schema().names
        for g in range(meta.num_row_groups):
            col = meta.row_group(g).column(names.index("payload"))
            assert col.compression == "UNCOMPRESSED"


class TestQueryCorrectness:
    def test_scan_matches_duckdb(self, spark):
        """The full-table-scan predicate must agree with DuckDB."""
        arr = generate(get_spec("tpcDS-web"), 0.05)
        df = pd.DataFrame(arr, columns=_columns(arr))
        v = float(np.histogram_bin_edges(df.A, bins=10)[5])
        got = df.loc[df.A <= v][["A"]].reset_index(drop=True)
        got_spark = spark.createDataFrame(got)
        assert_equivalent(
            got_spark, f"SELECT A FROM t WHERE A <= {v!r}", t=df
        )

    def test_query_count_independent_of_codec(self, tmp_path):
        counts = []
        for m in ("shf+zstd", "nv::btcomp"):
            path = str(tmp_path / m.replace(":", "_"))
            store_compressed(None, path, "tpcDS-web", m, scale=0.05)
            counts.append(read_decode_query(None, path, "tpcDS-web", m).n_rows)
        assert counts[0] == counts[1]


class TestTable11:
    """``run.table11`` over every DB dataset, at a small scale, for the
    methods it is given through ``tables.TABLE11_METHODS``."""

    def _table11(self, monkeypatch, methods):
        monkeypatch.setattr(tables, "TABLE11_METHODS", methods)
        return run.table11(run.Context(scale=0.05)).frames

    def test_small_run(self, monkeypatch):
        frames = self._table11(monkeypatch, ["MPC", "shf+zstd"])
        raw, fmt = frames["raw"], frames["table11"]
        db = [s.name for s in corpus() if s.domain == "DB"]
        assert list(raw.name.unique()) == db
        assert raw.error.isna().all()
        assert list(fmt.index) == db
        assert list(fmt.columns) == ["MPC", "shf+zstd", "query"]
        assert all("+" in c for c in fmt[["MPC", "shf+zstd"]].to_numpy().ravel())

    def test_failed_cell_names_error_type(self, monkeypatch):
        frames = self._table11(monkeypatch, ["no-such-codec"])
        raw, fmt = frames["raw"], frames["table11"]
        assert raw.error.str.startswith("KeyError: ").all()
        assert raw.error.str.contains("unknown codec").all()
        assert (fmt["no-such-codec"] == "-").all()
