"""Unit tests for the canonical Huffman substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.huffman import Huffman, code_lengths


class TestCodeLengths:
    def test_empty(self):
        assert code_lengths(np.zeros(4)).tolist() == [0, 0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths(np.array([0, 7, 0])).tolist() == [0, 1, 0]

    def test_uniform_four_symbols(self):
        assert code_lengths(np.array([1, 1, 1, 1])).tolist() == [2, 2, 2, 2]

    def test_skewed(self):
        # classic {8,4,2,1,1}: depths 1,2,3,4,4
        lens = code_lengths(np.array([8, 4, 2, 1, 1]))
        assert sorted(lens.tolist()) == [1, 2, 3, 4, 4]

    def test_kraft_inequality_tight(self):
        g = np.random.default_rng(0)
        freqs = g.integers(0, 100, 40)
        lens = code_lengths(freqs)
        used = lens[lens > 0].astype(np.int64)
        if used.size:
            assert np.isclose(np.sum(2.0 ** -used), 1.0)


class TestHuffmanRoundtrip:
    def _roundtrip(self, symbols, alphabet):
        h = Huffman.from_symbols(symbols, alphabet)
        buf = h.encode(symbols)
        h2 = Huffman.deserialize(h.serialize())
        out = h2.decode(buf, len(symbols))
        np.testing.assert_array_equal(out, symbols)
        return buf

    def test_basic(self):
        g = np.random.default_rng(1)
        syms = g.integers(0, 10, 5000)
        self._roundtrip(syms, 16)

    def test_single_distinct_symbol(self):
        self._roundtrip(np.full(100, 3), 8)

    def test_two_symbols(self):
        self._roundtrip(np.array([0, 1, 0, 0, 1]), 2)

    def test_near_entropy_on_skewed(self):
        g = np.random.default_rng(2)
        syms = g.choice(8, 20000, p=[0.5, 0.25, 0.125, 0.06, 0.03, 0.02, 0.01, 0.005])
        buf = self._roundtrip(syms, 8)
        p = np.bincount(syms, minlength=8) / syms.size
        ent = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert len(buf) * 8 <= (ent + 0.2) * syms.size  # within 0.2 bit/sym

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_hypothesis(self, xs):
        self._roundtrip(np.array(xs), 31)

    def test_long_codes_across_blocks(self):
        # Fibonacci frequencies give codes up to 24 bits; the stream spans
        # several decode blocks, so codes straddle the block edges
        fib = [1, 1]
        while len(fib) < 25:
            fib.append(fib[-1] + fib[-2])
        syms = np.repeat(np.arange(25), fib[::-1])
        np.random.default_rng(4).shuffle(syms)
        buf = self._roundtrip(syms, 25)
        assert Huffman.from_symbols(syms, 25).lengths.max() == 24
        assert len(buf) * 8 > 3 * 65536


class TestHuffmanRejects:
    def test_over_full_lengths(self):
        with pytest.raises(ValueError):
            Huffman(np.array([1, 1, 1]))

    def test_length_over_64(self):
        with pytest.raises(ValueError):
            Huffman(np.array([1, 65]))

    def test_empty_table_buffer(self):
        with pytest.raises(ValueError):
            Huffman.deserialize(b"")

    def test_short_table_buffer(self):
        with pytest.raises(ValueError):
            Huffman.deserialize(bytes([3, 1, 2]))

    def test_more_symbols_than_bits(self):
        with pytest.raises(ValueError):
            Huffman(np.array([1, 1])).decode(b"\x00", 9)

    def test_code_running_past_the_end(self):
        # codes 0, 10, 11: the last byte ends inside a two-bit code
        h = Huffman(np.array([1, 2, 2]))
        assert h.decode(b"\x00", 8).tolist() == [0] * 8
        with pytest.raises(ValueError):
            h.decode(b"\x01", 8)

    def test_unmatched_code_in_a_later_block(self):
        # codes 0 and 10 leave 11 unmatched; it follows 72000 zero symbols
        h = Huffman(np.array([1, 2]))
        buf = bytes(9000) + b"\xc0"
        assert h.decode(buf, 72000).tolist() == [0] * 72000
        with pytest.raises(ValueError, match="corrupt"):
            h.decode(buf, 72001)
