"""nvCOMP stand-ins — nv::LZ4 and nv::btcomp (§4.3).

nvCOMP has been proprietary since v2.3 and publishes no workflow, so these
are behavioural simulations (DESIGN.md substitution #4) matching what the
paper reports:

* **nv::LZ4** — the LZ4 algorithm parallelized over independent 64 KiB
  chunks (that is how GPU LZ4 batches work). Dictionary-based: highest CR
  among the GPU methods, slowest GPU compression (branch divergence),
  much faster decompression than compression.
* **nv::btcomp** — bitcomp's profile is "delta + bit-packing, fastest
  method, lowest CR". Simulated as: per 4096-value block, wrapping delta,
  zigzag, then fixed-width packing at the block's max significant width
  rounded to whole bytes (pure ndarray slicing — the fastest codec here,
  as bitcomp is on the GPU — at the cost of a slightly lower CR, which is
  also bitcomp's trade-off), with all-zero blocks elided.

Neither takes dimensionality parameters, as the paper notes.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.codecs.lz77 import frame_chunks, lz_compress, lz_decompress, unframe_chunks
from repro.core.bitio import bit_length_u64
from repro.core.floatmap import unzigzag, zigzag

_LZ_CHUNK = 64 * 1024
_BC_BLOCK = 512  # packing-width granularity; small enough to elide zero runs


@register
class NvLZ4(Codec):
    info = MethodInfo(
        name="nv::LZ4", year=2020, domain="general", precision="S,D", arch="GPU",
        parallel="SIMT", trait="transform + dict.", group="dictionary",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        return frame_chunks(words.tobytes(), _LZ_CHUNK, lz_compress)

    def _decode(self, payload, wdt, count, dims):
        return np.frombuffer(unframe_chunks(payload, lz_decompress), dtype=wdt, count=count)


@register
class NvBitcomp(Codec):
    info = MethodInfo(
        name="nv::btcomp", year=2020, domain="general", precision="S,D", arch="GPU",
        parallel="SIMT", trait="transform + prediction", group="delta",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        delta = w.copy()
        delta[1:] = w[1:] - w[:-1]  # wrapping delta
        if width == 32:
            zz = zigzag(delta.astype(np.uint32).view(np.int32), 32).astype(np.uint64)
        else:
            zz = zigzag(delta.view(np.int64), 64)
        pad = (-n) % _BC_BLOCK
        zzp = np.concatenate([zz, np.zeros(pad, dtype=np.uint64)]).reshape(-1, _BC_BLOCK)
        nblocks = zzp.shape[0]
        # each block's first value is stored raw (it carries the cross-block
        # delta, often large); only the 4095 intra-block residuals drive the
        # byte-rounded packing width — a constant block packs to width 0
        rest = zzp[:, 1:]
        bits = bit_length_u64(rest.max(axis=1)).astype(np.int64)
        kbytes = (bits + 7) // 8
        parts = [kbytes.astype(np.uint8).tobytes(), zzp[:, 0].tobytes()]
        lebytes = np.ascontiguousarray(rest).view(np.uint8).reshape(
            nblocks, _BC_BLOCK - 1, 8
        )
        for b in range(nblocks):
            k = int(kbytes[b])
            nvals = min(_BC_BLOCK, n - b * _BC_BLOCK) - 1  # rest values in block
            if k and nvals > 0:
                parts.append(np.ascontiguousarray(lebytes[b, :nvals, :k]).tobytes())
        return b"".join(parts)

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        nblocks = -(-count // _BC_BLOCK)
        kbytes = np.frombuffer(payload, dtype=np.uint8, count=nblocks).astype(np.int64)
        firsts = np.frombuffer(payload, dtype=np.uint64, count=nblocks, offset=nblocks)
        zz = np.zeros(nblocks * _BC_BLOCK, dtype=np.uint64)
        zz[:: _BC_BLOCK][:nblocks] = firsts
        off = nblocks + 8 * nblocks
        for b in range(nblocks):
            k = int(kbytes[b])
            nvals = min(_BC_BLOCK, count - b * _BC_BLOCK) - 1
            if not k or nvals <= 0:
                continue
            chunk = np.frombuffer(payload, np.uint8, nvals * k, off).reshape(nvals, k)
            block = np.zeros((nvals, 8), dtype=np.uint8)
            block[:, :k] = chunk
            zz[b * _BC_BLOCK + 1 : b * _BC_BLOCK + 1 + nvals] = (
                np.ascontiguousarray(block).view(np.uint64).reshape(-1)
            )
            off += nvals * k
        return np.cumsum(unzigzag(zz[:count], width).view(wdt), dtype=np.uint64)
