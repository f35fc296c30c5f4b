"""Unit tests for the vectorized bit/byte stream primitives."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitio import (
    bit_length_u64,
    bitshuffle_bits,
    bitunshuffle_bits,
    leading_zeros,
    pack_bits,
    pack_bytes,
    trailing_zeros,
    unpack_bits,
    unpack_bytes,
)


class TestBitLength:
    def test_zero(self):
        assert bit_length_u64(np.array([0], dtype=np.uint64))[0] == 0

    @pytest.mark.parametrize("v", [1, 2, 3, 255, 256, 2**31, 2**32, 2**52 + 1, 2**63, 2**64 - 1])
    def test_matches_python(self, v):
        assert bit_length_u64(np.array([v], dtype=np.uint64))[0] == v.bit_length()

    @pytest.mark.parametrize(
        "v", [0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**63, 2**64 - 1],
        ids=["0", "1", "2^32-1", "2^32", "2^53+1", "2^63", "2^64-1"],
    )
    def test_half_word_edges(self, v):
        assert bit_length_u64(np.array([v], dtype=np.uint64))[0] == v.bit_length()

    def test_vectorized_random(self):
        g = np.random.default_rng(0)
        vals = g.integers(0, 2**63, 1000, dtype=np.uint64)
        got = bit_length_u64(vals)
        want = [int(v).bit_length() for v in vals]
        assert got.tolist() == want

    def test_above_2_53_not_float_rounded(self):
        # float64 rounding would misreport these; the binary search must not.
        vals = np.array([2**53 + 1, 2**62 - 1, 2**63 + 1], dtype=np.uint64)
        assert bit_length_u64(vals).tolist() == [54, 62, 64]


class TestLeadingTrailing:
    def test_leading_zeros_64(self):
        vals = np.array([0, 1, 2**63, 2**32], dtype=np.uint64)
        assert leading_zeros(vals, 64).tolist() == [64, 63, 0, 31]

    def test_leading_zeros_32(self):
        vals = np.array([0, 1, 2**31], dtype=np.uint64)
        assert leading_zeros(vals, 32).tolist() == [32, 31, 0]

    def test_trailing_zeros(self):
        vals = np.array([0, 1, 2, 8, 2**63], dtype=np.uint64)
        assert trailing_zeros(vals, 64).tolist() == [64, 0, 1, 3, 63]

    def test_trailing_zeros_width32(self):
        vals = np.array([0, 4], dtype=np.uint64)
        assert trailing_zeros(vals, 32).tolist() == [32, 2]


class TestPackUnpackBits:
    def test_roundtrip_fixed_width(self):
        g = np.random.default_rng(1)
        vals = g.integers(0, 2**17, 500, dtype=np.uint64)
        nbits = np.full(500, 17)
        buf = pack_bits(vals, nbits)
        assert len(buf) == (500 * 17 + 7) // 8
        out = unpack_bits(buf, nbits)
        np.testing.assert_array_equal(out, vals)

    def test_roundtrip_variable_width(self):
        g = np.random.default_rng(2)
        nbits = g.integers(0, 65, 2000)
        vals = g.integers(0, 2**64, 2000, dtype=np.uint64)
        masked = np.array(
            [v & ((1 << n) - 1) for v, n in zip(vals.tolist(), nbits.tolist())],
            dtype=np.uint64,
        )
        buf = pack_bits(vals, nbits)
        out = unpack_bits(buf, nbits)
        np.testing.assert_array_equal(out, masked)

    def test_empty(self):
        assert pack_bits(np.zeros(0, np.uint64), np.zeros(0, np.int64)) == b""
        assert unpack_bits(b"", np.zeros(0, np.int64)).size == 0

    def test_msb_first_layout(self):
        # 0b101 in 3 bits then 0b11111 in 5 bits -> byte 0b10111111
        buf = pack_bits(np.array([0b101, 0b11111], np.uint64), np.array([3, 5]))
        assert buf == bytes([0b10111111])

    def test_start_bit_offset(self):
        buf = pack_bits(np.array([0b1, 0b1010], np.uint64), np.array([1, 4]))
        out = unpack_bits(buf, np.array([4]), start_bit=1)
        assert out[0] == 0b1010

    def test_64bit_values(self):
        vals = np.array([2**64 - 1, 2**63 + 5], dtype=np.uint64)
        buf = pack_bits(vals, np.array([64, 64]))
        np.testing.assert_array_equal(unpack_bits(buf, np.array([64, 64])), vals)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", np.array([16]))

    def test_zero_width_fields_emit_nothing(self):
        vals = np.array([0b101, 2**64 - 1, 0b11, 7], np.uint64)
        nbits = np.array([3, 0, 2, 0])
        buf = pack_bits(vals, nbits)
        assert buf == pack_bits(np.array([0b101, 0b11], np.uint64), np.array([3, 2]))
        assert unpack_bits(buf, nbits).tolist() == [0b101, 0, 0b11, 0]

    def test_only_zero_widths(self):
        nbits = np.zeros(5, np.int64)
        assert pack_bits(np.arange(5, dtype=np.uint64), nbits) == b""
        assert unpack_bits(b"", nbits).tolist() == [0] * 5

    @pytest.mark.parametrize("lead", [1, 17, 63])
    def test_fields_straddle_words(self, lead):
        # a lead-bit field, then 64- and 37-bit fields that cross 64-bit
        # word boundaries at every offset the lead puts them on
        vals = np.array([1, 0xDEADBEEFCAFEF00D, 2**64 - 1, 0x1ABCDEF012, 0], np.uint64)
        nbits = np.array([lead, 64, 64, 37, 64])
        buf = pack_bits(vals, nbits)
        bits = "1".rjust(lead, "0") + "".join(
            format(int(v) & ((1 << int(n)) - 1), f"0{int(n)}b") for v, n in zip(vals[1:], nbits[1:])
        )
        bits += "0" * (-len(bits) % 8)
        assert buf == int(bits, 2).to_bytes(len(bits) // 8, "big")
        np.testing.assert_array_equal(unpack_bits(buf, nbits), vals)

    def test_64bit_fields_with_zero_widths_between(self):
        vals = np.array([2**63 + 1, 9, 2**64 - 2, 5, 3], np.uint64)
        nbits = np.array([64, 0, 64, 0, 3])
        out = unpack_bits(pack_bits(vals, nbits), nbits)
        assert out.tolist() == [2**63 + 1, 0, 2**64 - 2, 0, 3]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 64)), max_size=50))
    def test_hypothesis_roundtrip(self, pairs):
        if not pairs:
            return
        vals = np.array([v for v, _ in pairs], dtype=np.uint64)
        nbits = np.array([n for _, n in pairs], dtype=np.int64)
        mask = np.where(nbits == 64, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << nbits.astype(np.uint64)) - np.uint64(1))
        out = unpack_bits(pack_bits(vals, nbits), nbits)
        np.testing.assert_array_equal(out, vals & mask)


class TestPackUnpackBytes:
    def test_roundtrip(self):
        g = np.random.default_rng(3)
        vals = g.integers(0, 2**63, 300, dtype=np.uint64)
        nbytes = g.integers(0, 9, 300)
        mask = np.where(nbytes == 8, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << (nbytes.astype(np.uint64) * np.uint64(8))) - np.uint64(1))
        buf = pack_bytes(vals, nbytes)
        assert len(buf) == nbytes.sum()
        np.testing.assert_array_equal(unpack_bytes(buf, nbytes), vals & mask)

    def test_byte_order_msb_first(self):
        buf = pack_bytes(np.array([0x0102], np.uint64), np.array([2]))
        assert buf == bytes([0x01, 0x02])

    def test_start_byte(self):
        buf = b"\xff" + pack_bytes(np.array([0xAB], np.uint64), np.array([1]))
        assert unpack_bytes(buf, np.array([1]), start_byte=1)[0] == 0xAB


class TestBitShuffleBits:
    @pytest.mark.parametrize("elem_bits", [8, 16, 32, 64])
    def test_roundtrip(self, elem_bits):
        g = np.random.default_rng(5)
        raw = g.integers(0, 256, 64 * elem_bits // 8, dtype=np.uint8)
        out = bitunshuffle_bits(bitshuffle_bits(raw, elem_bits), elem_bits)
        np.testing.assert_array_equal(out, raw)

    def test_groups_msb_bits(self):
        # Two identical bytes 0xF0: transposed stream has the high-bit plane
        # first => first byte is 0b11...
        raw = np.array([0xF0, 0xF0], dtype=np.uint8)
        shuffled = bitshuffle_bits(raw, 8)
        assert np.unpackbits(shuffled)[:2].tolist() == [1, 1]
