"""Unit tests for the LZ4-style LZ77 substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.lz77 import frame_chunks, lz_compress, lz_decompress, unframe_chunks


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abc",
            b"aaaaaaaaaaaaaaaaaaaaaaa",
            b"abcabcabcabcabcabcabcabc",
            b"the quick brown fox " * 50,
            bytes(range(256)) * 8,
            b"\x00" * 10000,
        ],
        ids=["empty", "one", "short", "runs", "period3", "text", "cycle", "zeros"],
    )
    def test_fixed_cases(self, data):
        assert lz_decompress(lz_compress(data)) == data

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_long_overlapping_matches(self, period):
        data = bytes(range(7, 7 + period)) * (3000 // period) + b"tail" * 300
        blob = lz_compress(data)
        assert len(blob) < 100  # one long match at offset ``period``
        assert lz_decompress(blob) == data

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_decodes_hand_built_overlap(self, period):
        # literals, then a 1000+ byte match at offset ``period``
        lit = b"xyz"[:period]
        ml = 1234
        ext = ml - 4 - 15
        token = bytes([(period << 4) | 15])
        blob = (
            token + lit + period.to_bytes(2, "little")
            + b"\xff" * (ext // 255) + bytes([ext % 255]) + b"\x10!"
        )
        assert lz_decompress(blob) == (lit * 2000)[: period + ml] + b"!"

    @pytest.mark.parametrize("off", [0, 4], ids=["zero", "past_output"])
    def test_corrupt_offset_raises(self, off):
        # three literals, then a 19-byte match at an impossible offset
        blob = bytes([0x3F]) + b"abc" + off.to_bytes(2, "little") + b"\x00" + b"\x10!"
        with pytest.raises(ValueError, match="offset"):
            lz_decompress(blob)

    def test_stream_ending_in_a_bare_zero_literal_token(self):
        # a match that runs to the last byte leaves a final sequence of
        # one token with no literals, read where no literals were copied
        data = bytes(range(1, 9)) * 2
        blob = lz_compress(data)
        assert blob == bytes([0x84]) + data[:8] + b"\x08\x00" + b"\x00"
        assert lz_decompress(blob) == data
        # the same after a match with no literals before it
        assert lz_decompress(bytes([0x40]) + b"abcd" + b"\x04\x00" + b"\x00\x04\x00\x00") == b"abcd" * 3

    def test_every_prefix_decodes_or_raises_value_error(self):
        # 300+ literals (extension 255, 31), a ~700-byte run of zeros
        # (match extension 255, 255, …), then literals: cuts land inside
        # both kinds of length extension
        g = np.random.default_rng(7)
        head, tail = (g.integers(0, 256, n, dtype=np.uint8).tobytes() for n in (300, 20))
        data = head + b"\x00" * 700 + tail
        blob = lz_compress(data)
        assert lz_decompress(blob) == data
        raised = 0
        for cut in range(len(blob)):
            try:
                lz_decompress(blob[:cut])
            except ValueError:
                raised += 1
        assert raised > 0

    def test_random_incompressible(self):
        g = np.random.default_rng(0)
        data = g.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
        assert lz_decompress(lz_compress(data)) == data

    def test_float_data(self):
        g = np.random.default_rng(1)
        data = np.cumsum(g.normal(size=20000)).astype(np.float64).tobytes()
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2000))
    def test_hypothesis(self, data):
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=20), st.integers(1, 500))
    def test_hypothesis_repeats(self, unit, reps):
        data = unit * reps
        assert lz_decompress(lz_compress(data)) == data


class TestRatioProperties:
    def test_compresses_repetitive(self):
        data = b"sensor_reading:42.0;" * 500
        assert len(lz_compress(data)) < len(data) / 5

    def test_long_match_far_offset(self):
        # A repeat just inside the 64 KiB window must still be found.
        g = np.random.default_rng(2)
        chunk = g.integers(0, 256, 30_000, dtype=np.uint8).tobytes()
        data = chunk + b"x" * 100 + chunk
        comp = lz_compress(data)
        assert lz_decompress(comp) == data
        assert len(comp) < len(data)

    def test_expansion_bounded_on_random(self):
        g = np.random.default_rng(3)
        data = g.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        # literal-run overhead is a few bytes per 64 KiB, not per byte
        assert len(lz_compress(data)) < len(data) * 1.01 + 64


class TestFraming:
    @pytest.mark.parametrize("n", [0, 1, 99, 100, 101, 250])
    def test_roundtrip(self, n):
        data = bytes(range(256))[:n]
        assert unframe_chunks(frame_chunks(data, 100, lz_compress), lz_decompress, 100) == data

    @pytest.mark.parametrize(
        "sizes", [[99, 100], [100, 0, 100], [100, 101]], ids=["short-inner", "empty-inner", "long-last"]
    )
    def test_misframed_chunk_raises_value_error(self, sizes):
        frame = b"".join(len(c).to_bytes(4, "little") + c for c in (lz_compress(bytes(n)) for n in sizes))
        with pytest.raises(ValueError):
            unframe_chunks(frame, lz_decompress, 100)
