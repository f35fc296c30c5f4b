"""Canonical Huffman coding over small symbol alphabets.

Substitutes the fast range coder used by fpzip (DESIGN.md substitution #7):
for the ≤65-symbol residual-length alphabets involved, Huffman is within a
few percent of arithmetic coding's ratio while keeping encode fully
vectorized (table lookup + ``pack_bits``). Decode is table-driven, the
trick GPU Huffman decoders use (Weißenberger & Schmidt, ICPP 2018): it
decodes one symbol and its length at *every* bit offset of a block at
once, then a Python walk follows the lengths from offset 0 to find the
real symbol starts. Fixed-size blocks keep the tables' memory constant.
"""
from __future__ import annotations

import heapq
from itertools import count

import numpy as np

from repro.core.bitio import be_words, pack_bits, read_bits_at

#: Bit offsets decoded per table block; caps decode's scratch memory.
_BLOCK_BITS = 1 << 16
_NO_CODE = 1 << 62


def code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code length per symbol (0 for absent symbols)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    present = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    tie = count()  # heap tiebreaker so ties never compare the tree tuples
    heap = [(int(freqs[s]), next(tie), (int(s),)) for s in present]
    heapq.heapify(heap)
    depth = {int(s): 0 for s in present}
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        for s in a + b:
            depth[s] += 1
        heapq.heappush(heap, (fa + fb, next(tie), a + b))
    for s, d in depth.items():
        lengths[s] = d
    return lengths


class Huffman:
    """Canonical Huffman codec built from per-symbol code lengths."""

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        used = [int(L) for L in self.lengths if L]
        # Kraft: the codes must fit, or canonical assignment overflows
        if used and (max(used) > 64 or sum(1 << (64 - L) for L in used) > 1 << 64):
            raise ValueError("invalid Huffman code lengths")
        order = np.lexsort((np.arange(self.lengths.size), self.lengths))
        order = order[self.lengths[order] > 0]
        self.sorted_syms = order
        self.codes = np.zeros(self.lengths.size, dtype=np.uint64)
        # canonical assignment: increasing (length, symbol)
        code = 0
        prev_len = 0
        for s in order:
            L = int(self.lengths[s])
            code <<= L - prev_len
            self.codes[s] = code
            code += 1
            prev_len = L

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet: int) -> "Huffman":
        freqs = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=alphabet)
        return cls(code_lengths(freqs))

    def encode(self, symbols: np.ndarray) -> bytes:
        s = np.asarray(symbols, dtype=np.int64)
        return pack_bits(self.codes[s], self.lengths[s].astype(np.int64))

    def decode(self, buf: bytes, n: int) -> np.ndarray:
        """The first ``n`` symbols of the bitstream ``buf``.

        Raises ``ValueError`` if ``buf`` cannot hold ``n`` symbols, if the
        table is empty, and if the walk meets a bit pattern that no code
        matches or runs past ``buf``.
        """
        total = len(buf) * 8
        if n > total:  # every code is at least one bit
            raise ValueError(f"{n} symbols exceed {total} Huffman bits")
        if self.sorted_syms.size == 0:
            raise ValueError("empty Huffman table")
        # Canonical codes, left-justified to the longest length, increase
        # with their canonical index, and code j owns the window range
        # [first[j], first[j] + 2**shift[j]). One search per bit offset
        # finds the code that each offset's window starts with.
        lengths = self.lengths[self.sorted_syms].astype(np.int64)
        maxlen = int(lengths[-1])
        shift = (maxlen - lengths).astype(np.uint64)
        first = self.codes[self.sorted_syms] << shift
        out = []
        got = 0
        p = 0  # the next symbol's offset, relative to the block start
        words = be_words(buf)
        for lo in range(0, total, _BLOCK_BITS):
            if got >= n:
                break
            hi = min(lo + _BLOCK_BITS, total)
            offsets = np.arange(hi - lo)
            window = read_bits_at(words, lo + offsets, maxlen)
            index = np.searchsorted(first, window, side="right") - 1  # first[0] == 0
            # past the last code's range (an incomplete table) is no code
            hit = (window - first[index]) >> shift[index] == 0
            # offset -> next symbol's offset; _NO_CODE marks no match or a
            # code running past the end, and stops the walk
            ends = offsets + lengths[index]
            nxt = np.where(hit & (ends <= total - lo), ends, _NO_CODE).tolist()
            starts = []
            m = hi - lo
            while p < m:
                starts.append(p)
                p = nxt[p]
            out.append(self.sorted_syms[index[starts]])
            got += len(starts)
            if p == _NO_CODE:
                # only a symbol among the first n must decode
                if got <= n:
                    raise ValueError("corrupt Huffman stream")
                break
            p -= m
        if got < n:
            raise ValueError("corrupt Huffman stream")
        return np.concatenate(out)[:n] if out else self.sorted_syms[:0]

    def serialize(self) -> bytes:
        return bytes([self.lengths.size]) + self.lengths.tobytes()

    @classmethod
    def deserialize(cls, buf: bytes) -> "Huffman":
        if not buf:
            raise ValueError("Huffman table truncated")
        return cls(np.frombuffer(buf, dtype=np.uint8, count=buf[0], offset=1))
