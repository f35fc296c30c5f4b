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

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import transpose_groups
from repro.core.floatmap import lag_diff, lag_sum

_CHUNK = 1024
_LAG = 6


def _pad_to_chunks(w: np.ndarray) -> np.ndarray:
    pad = (-w.size) % _CHUNK
    if pad:
        w = np.concatenate([w, np.zeros(pad, dtype=w.dtype)])
    return w.reshape(-1, _CHUNK)


@register
class MPC(Codec):
    info = MethodInfo(
        name="MPC", year=2015, domain="HPC", precision="S,D", arch="GPU",
        parallel="SIMT", trait="transform+delta", group="delta",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        if words.size == 0:
            return b""
        dt = words.dtype
        width = dt.itemsize * 8
        mat = _pad_to_chunks(words)
        res = lag_diff(mat, _LAG, (1,))  # LNV6s
        nchunks = mat.shape[0]
        # BIT: bit transpose per width-sized group of words
        tw = transpose_groups(res.reshape(-1, width), width).reshape(nchunks, -1)
        tw = lag_diff(tw, 1, (1,))  # LNV1s on transposed words
        flat = tw.reshape(-1)
        # ZE: zero-word bitmap + copied non-zeros
        nonzero = flat != 0
        bitmap = np.packbits(nonzero)
        body = np.ascontiguousarray(flat[nonzero])
        return bitmap.tobytes() + body.tobytes()

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        padded = -(-count // _CHUNK) * _CHUNK
        nchunks = padded // _CHUNK
        nmap = (padded + 7) // 8
        nonzero = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=nmap), count=padded
        ).astype(bool)
        nz_words = np.frombuffer(
            payload, dtype=wdt, count=int(nonzero.sum()), offset=nmap
        )
        flat = np.zeros(padded, dtype=wdt)
        flat[nonzero] = nz_words
        tw = lag_sum(flat.reshape(nchunks, -1), 1, (1,))
        res = transpose_groups(tw.reshape(-1, width), width).reshape(nchunks, _CHUNK)
        mat = lag_sum(res, _LAG, (1,))
        return mat.reshape(-1)[:count]
