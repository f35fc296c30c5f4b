"""Simulated in-memory database (§5.1.2) tests, oracle-checked queries."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.codecs.base import load_codec
from repro.data.corpus import generate, get_spec
from repro.dbsim.store import (
    _columns,
    format_table11,
    read_decode_query,
    store_compressed,
    table11,
)
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

    def test_replaces_directory_of_part_files(self, tmp_path):
        path = tmp_path / "blob"
        path.mkdir()
        stale = pa.table(
            {"chunk_id": [99], "dtype": ["float64"], "payload": [b"stale"]}
        )
        pq.write_table(stale, str(path / "part-00000-stale.snappy.parquet"))
        (path / "_SUCCESS").touch()

        info = store_compressed(
            None, str(path), "gas-price", "MPC", scale=0.05, chunk_bytes=4096
        )
        assert path.is_file()
        assert list(pd.read_parquet(str(path)).chunk_id) == list(range(info["n_chunks"]))
        arr = generate(get_spec("gas-price"), 0.05)
        np.testing.assert_array_equal(_decoded(str(path), "MPC"), arr.reshape(-1))

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
            [("chunk_id", pa.int64()), ("dtype", pa.string()), ("payload", pa.binary())]
        )
        dtype = str(generate(get_spec("tpcDS-web"), 0.05).dtype)
        assert set(pd.read_parquet(path).dtype) == {dtype}


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
    def test_small_run(self, tmp_path):
        raw = table11(
            str(tmp_path), ["MPC", "shf+zstd"], scale=0.05,
            datasets=["tpcDS-web", "tpcH-order"],
        )
        assert set(raw.name) == {"tpcDS-web", "tpcH-order"}
        assert raw.error.isna().all()
        fmt = format_table11(raw, ["MPC", "shf+zstd"])
        assert "query" in fmt.columns
        assert "+" in fmt.loc["tpcDS-web", "MPC"]

    def test_failed_cell_names_error_type(self, tmp_path):
        raw = table11(str(tmp_path), ["no-such-codec"], scale=0.05, datasets=["tpcDS-web"])
        (err,) = raw.error
        assert err.startswith("KeyError: ") and "unknown codec" in err
        fmt = format_table11(raw, ["no-such-codec"])
        assert fmt.loc["tpcDS-web", "no-such-codec"] == "-"
