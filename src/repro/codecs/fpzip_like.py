"""fpzip — Lorenzo-predictive compressor for scientific data (§3.1).

Workflow reproduced from Lindstrom & Isenburg 2006:

1. The **Lorenzo predictor** estimates each value from its previously
   encoded hypercube-corner neighbours. Implemented as the separable
   integer finite difference over the whole grid: applying a lag-1 delta
   along every axis yields exactly ``x − Lorenzo(x)`` (the d-dimensional
   mixed difference), and its inverse is a cumsum per axis — both fully
   vectorized.
2. Values are first mapped to **order-preserving sign-magnitude
   integers** (``floatmap.to_ordered``) so integer residuals of nearby
   floats are small.
3. The residual's **sign and significant-bit count are entropy-coded**
   (canonical Huffman standing in for fpzip's range coder — DESIGN.md
   substitution #7; sign is folded in via zigzag).
4. The remaining non-zero residual bits below the leading 1 are **copied
   verbatim** into a separate bit stream, unpacked vectorized at decode.

Like fpzip, the predictor quality depends on being given the correct
dimensionality (§3.1 Insights) — compressing a 3-D grid as 1-D degrades
the Lorenzo predictor to a plain delta, which Table 9 measures. Serial
in the original; here the only sequential loop is the entropy decode's
walk from one symbol start to the next over a table that decodes every
bit offset at once.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.codecs.huffman import Huffman
from repro.core.bitio import bit_length_u64, pack_bits, unpack_bits
from repro.core.floatmap import from_ordered, lag_diff, lag_sum, to_ordered, unzigzag, zigzag


class FpzipLike(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        width = words.dtype.itemsize * 8
        if words.size == 0:
            return b""
        shape = tuple(dims) if len(dims) <= 3 else (words.size,)
        arr = to_ordered(words).reshape(shape)
        res = lag_diff(arr, 1, range(arr.ndim)).reshape(-1)
        zz = zigzag(res).astype(np.uint64, copy=False)
        sym = bit_length_u64(zz).astype(np.int64)  # 0..width significant bits
        huff = Huffman.from_symbols(sym, width + 1)
        hstream = huff.encode(sym)
        # verbatim bits: everything below the implicit leading 1
        rem_bits = np.maximum(sym - 1, 0)
        bstream = pack_bits(zz, rem_bits)
        table = huff.serialize()
        return (
            len(table).to_bytes(2, "little")
            + len(hstream).to_bytes(8, "little")
            + table
            + hstream
            + bstream
        )

    def _decode(self, payload, wdt, count, dims):
        tlen = int.from_bytes(payload[:2], "little")
        hlen = int.from_bytes(payload[2:10], "little")
        if len(payload) < 10 or 10 + tlen + hlen > len(payload):
            raise ValueError("fpzip stream truncated")
        huff = Huffman.deserialize(payload[10 : 10 + tlen])
        sym = huff.decode(payload[10 + tlen : 10 + tlen + hlen], count)
        rem_bits = np.maximum(sym - 1, 0)
        rem = unpack_bits(payload[10 + tlen + hlen :], rem_bits)
        top = np.where(
            sym > 0, np.uint64(1) << np.maximum(sym - 1, 0).astype(np.uint64), np.uint64(0)
        )
        zz = top | rem
        res = unzigzag(zz.astype(wdt, copy=False)).view(wdt)
        shape = tuple(dims) if len(dims) <= 3 else (count,)
        arr = lag_sum(res.reshape(shape), 1, range(len(shape)))
        return from_ordered(arr.reshape(-1))
