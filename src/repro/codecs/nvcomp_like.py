"""nvCOMP stand-ins — nv::LZ4 and nv::btcomp (§4.3).

nvCOMP has been proprietary since v2.3 and publishes no workflow, so these
are behavioural simulations (DESIGN.md substitution #4) matching what the
paper reports:

* **nv::LZ4** — the LZ4 algorithm parallelized over independent 64 KiB
  chunks (that is how GPU LZ4 batches work). Dictionary-based: highest CR
  among the GPU methods, slowest GPU compression (branch divergence),
  much faster decompression than compression.
* **nv::btcomp** — bitcomp's profile is "delta + bit-packing, fastest
  method, lowest CR". Simulated as: per 512-value block, wrapping delta,
  zigzag, then fixed-width packing at the block's max significant width
  rounded to whole bytes (pure ndarray masking — the fastest codec here,
  as bitcomp is on the GPU — at the cost of a slightly lower CR, which is
  also bitcomp's trade-off), with all-zero blocks elided.

Neither takes dimensionality parameters, as the paper notes.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.codecs.lz77 import frame_chunks, lz_compress, lz_decompress, unframe_chunks
from repro.core.bitio import bit_length_u64
from repro.core.floatmap import unzigzag, zigzag

_LZ_CHUNK = 64 * 1024
_BC_BLOCK = 512  # packing-width granularity; small enough to elide zero runs


class NvLZ4(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        return frame_chunks(words.tobytes(), _LZ_CHUNK, lz_compress)

    def _decode(self, payload, wdt, count, dims):
        return np.frombuffer(unframe_chunks(payload, lz_decompress, _LZ_CHUNK), dtype=wdt, count=count)


class NvBitcomp(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        n = words.size
        if n == 0:
            return b""
        delta = words.copy()
        delta[1:] = words[1:] - words[:-1]  # wrapping delta
        zz = zigzag(delta).astype(np.uint64, copy=False)
        pad = (-n) % _BC_BLOCK
        zzp = np.concatenate([zz, np.zeros(pad, dtype=np.uint64)]).reshape(-1, _BC_BLOCK)
        # each block's first value is stored raw (it carries the cross-block
        # delta, often large); only the 511 intra-block residuals drive the
        # byte-rounded packing width — a constant block packs to width 0
        kbytes = (bit_length_u64(zzp[:, 1:].max(axis=1)).astype(np.int64) + 7) // 8
        residuals, keep = _packed_bytes(zzp, kbytes, n)
        # C order: block by block, value by value, each value's low k bytes
        return kbytes.astype(np.uint8).tobytes() + zzp[:, 0].tobytes() + residuals[keep].tobytes()

    def _decode(self, payload, wdt, count, dims):
        nblocks = -(-count // _BC_BLOCK)
        kbytes = np.frombuffer(payload, dtype=np.uint8, count=nblocks).astype(np.int64)
        if kbytes.max() > 8:
            raise ValueError(f"nv::btcomp block width {kbytes.max()} exceeds 8 bytes")
        zz = np.zeros((nblocks, _BC_BLOCK), dtype=np.uint64)
        zz[:, 0] = np.frombuffer(payload, dtype=np.uint64, count=nblocks, offset=nblocks)
        residuals, keep = _packed_bytes(zz, kbytes, count)
        residuals[keep] = np.frombuffer(payload, np.uint8, np.count_nonzero(keep), 9 * nblocks)
        res = unzigzag(zz.reshape(-1)[:count].astype(wdt, copy=False)).view(wdt)
        return np.cumsum(res, dtype=np.uint64)


#: Per byte width k, a uint64 whose low k bytes are 1 (as bools: bytes kept).
_KEEP_BYTES = np.array([0x0101010101010101 >> (64 - 8 * k) for k in range(9)], np.uint64)


def _packed_bytes(zz: np.ndarray, kbytes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``(nblocks, 511, 8)`` view of the little-endian bytes of ``zz``'s block
    residuals, and the mask of those stored: the low ``kbytes`` of each within n values."""
    keep = np.repeat(_KEEP_BYTES[kbytes], _BC_BLOCK - 1)
    keep[n - kbytes.size :] = 0  # the last block's padding
    residuals = zz.view(np.uint8).reshape(-1, _BC_BLOCK, 8)[:, 1:]
    return residuals, keep.view(bool).reshape(residuals.shape)
