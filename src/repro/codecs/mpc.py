"""MPC — Massively Parallel Compression (§4.2, Yang et al. 2015).

Synthesized four-component pipeline over independent chunks of 1024
elements (one chunk per GPU thread block):

1. **LNV6s** — residual = value − 6th prior value in the same chunk
   (the first six values of a chunk are their own residuals).
2. **BIT**   — bit transpose at word-width granularity: each group of
   `width` words becomes `width` bit-plane words, most significant plane
   first (same operation as bitshuffle). Plane k of one group is adjacent
   to plane k−1, which is what makes the next stage effective.
3. **LNV1s** — difference between consecutive words of the transposed
   chunk (first word kept verbatim). Sign-extension planes of small
   negative residuals are identical word-to-word, so they difference to
   zero and the ZE stage removes them.
4. **ZE**    — a bitmap marks zero words; only non-zero words are copied.

All four stages are whole-array NumPy (the GPU simulation of DESIGN.md
substitution #3); chunks are processed as the rows of one matrix, so the
implementation is data-parallel exactly where the CUDA kernels are.
Word size follows the input precision (LNV6s needs it, §4.2).
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.core.bitio import bit_transpose, drop_zero_words, restore_zero_words
from repro.core.floatmap import lag_diff, lag_sum

_CHUNK = 1024
_LAG = 6


def _pad_to_chunks(w: np.ndarray) -> np.ndarray:
    pad = (-w.size) % _CHUNK
    if pad:
        w = np.concatenate([w, np.zeros(pad, dtype=w.dtype)])
    return w.reshape(-1, _CHUNK)


class MPC(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        if words.size == 0:
            return b""
        dt = words.dtype
        width = dt.itemsize * 8
        mat = _pad_to_chunks(words)
        res = lag_diff(mat, _LAG, (1,))  # LNV6s
        # BIT: each group of `width` words is a width x width bit matrix
        tw = bit_transpose(res.reshape(-1, width).view(np.uint8), width, width)
        tw = lag_diff(tw.view(dt).reshape(res.shape), 1, (1,))  # LNV1s
        return drop_zero_words(tw)  # ZE

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        padded = -(-count // _CHUNK) * _CHUNK
        tw = lag_sum(restore_zero_words(payload, padded, wdt).reshape(-1, _CHUNK), 1, (1,))
        res = bit_transpose(tw.reshape(-1, width).view(np.uint8), width, width)
        mat = lag_sum(res.view(wdt).reshape(tw.shape), _LAG, (1,))
        return mat.reshape(-1)[:count]
