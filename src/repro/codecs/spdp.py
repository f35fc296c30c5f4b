"""SPDP — synthesized dictionary-based compressor (§3.2, Claggett et al. 2018).

The four components selected by the authors' 9.4M-combination search,
applied to the input as a raw byte stream (SPDP is precision-agnostic):

1. **LNVs2** — residual against the value two positions back, applied at
   8-byte-word granularity. (Applied at single-byte granularity the delta
   mixes mantissa noise into the exponent bytes and destroys exactly the
   structure DIM8 needs to group — measured CR drops to ~1.0 everywhere —
   so the word-granularity reading of "last 2nd value" is used, which
   lands SPDP's ratios in the paper's reported range.)
2. **DIM8**  — groups most-significant bytes of the 8-byte words together,
   then second-most-significant, etc. (a byte-level transpose that puts
   exponent bytes into consecutive runs).
3. **LNVs1** — difference between consecutive bytes of the grouped stream.
4. **LZa6**  — a fast LZ77 variant encoding positions/lengths of matches
   (this repo's `lz77.py`; DESIGN.md substitution #2).

All transforms are vectorized; only the LZ stage is sequential, which is
also where the real SPDP spends its time (its ratio/throughput trade-off
lives in the sliding-window search, §3.2 Insights).
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.codecs.lz77 import lz_compress, lz_decompress
from repro.core.floatmap import lag_diff, lag_sum

_GROUP = 8  # DIM8 byte-transpose word width (also the LNVs2 word size)


def _whole_words(b: np.ndarray, stage) -> np.ndarray:
    """``stage`` applied to ``b``'s whole 8-byte words; a trailing partial
    word passes through unchanged."""
    n = b.size - b.size % _GROUP
    return np.concatenate([stage(b[:n]), b[n:]])


class SPDP(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        # LNVs2 on 8-byte words, DIM8, LNVs1 on bytes, LZa6
        b = np.ascontiguousarray(words).view(np.uint8)
        r = _whole_words(b, lambda w: lag_diff(w.view(np.uint64), 2, (0,)).view(np.uint8))
        g = _whole_words(r, lambda w: w.reshape(-1, _GROUP).T.reshape(-1))
        f = lag_diff(g, 1, (0,))
        return lz_compress(f.tobytes())

    def _decode(self, payload, wdt, count, dims):
        # the stages' inverses in reverse order
        f = np.frombuffer(lz_decompress(payload), dtype=np.uint8)
        g = lag_sum(f, 1, (0,))
        r = _whole_words(g, lambda w: w.reshape(_GROUP, -1).T.reshape(-1))
        b = _whole_words(r, lambda w: lag_sum(w.view(np.uint64), 2, (0,)).view(np.uint8))
        return np.frombuffer(b.tobytes(), dtype=wdt, count=count)
