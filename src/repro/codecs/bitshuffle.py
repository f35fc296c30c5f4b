"""bitshuffle::LZ4 and bitshuffle::zstd (§3.7, Masui et al. 2015).

Workflow: the input is split into blocks (4096 bytes, the default chosen by
the original to fit L1 cache); within each block the element bits are
arranged as an (m × elem_bits) matrix and transposed so the i-th bits of
all elements land in consecutive bytes; a downstream dictionary coder
(LZ4 or zstd) then compresses each transposed block.

Backends (DESIGN.md substitution #2): "LZ4" is this repo's LZ4-style LZ77
(`lz77.py`); "zstd" is stdlib zlib at level 9 (DEFLATE: LZ77 + Huffman,
the same match+entropy-coding family as zstd). The SSE2/AVX2 transpose of
the original is the vectorized `bitio.bit_transpose` here; Spark
partitions provide the thread-level parallelism in the harness.
"""
from __future__ import annotations

import zlib
from functools import partial
from typing import Callable

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.codecs.lz77 import frame_chunks, lz_compress, lz_decompress, unframe_chunks
from repro.core.bitio import bit_transpose

_BLOCK_BYTES = 4096


class _BitshuffleBase(Codec):
    # the dictionary coder applied to each shuffled block
    _backend_compress: Callable[[bytes], bytes]
    _backend_decompress: Callable[[bytes], bytes]

    def _encode(self, words: np.ndarray, dims) -> bytes:
        width = words.dtype.itemsize * 8

        def compress(block: bytes) -> bytes:
            # transpose the block's (elements x element bits) matrix
            raw = np.frombuffer(block, np.uint8)
            shuffled = bit_transpose(raw, raw.size * 8 // width, width)
            return self._backend_compress(shuffled.tobytes())

        return frame_chunks(words.tobytes(), _BLOCK_BYTES, compress)

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8

        def decompress(comp: bytes) -> bytes:
            shuffled = np.frombuffer(self._backend_decompress(comp), np.uint8)
            return bit_transpose(shuffled, width, shuffled.size * 8 // width).tobytes()

        return np.frombuffer(unframe_chunks(payload, decompress), dtype=wdt, count=count)


def _inflate(comp: bytes) -> bytes:
    try:
        return zlib.decompress(comp)
    except zlib.error as e:  # decoders report a malformed blob as ValueError
        raise ValueError(f"corrupt zstd block: {e}") from None


@register
class BitshuffleLZ4(_BitshuffleBase):
    info = MethodInfo(
        name="shf+LZ4", year=2015, domain="HPC", precision="S,D", arch="CPU",
        parallel="SIMD + threads", trait="transform + dict.", group="dictionary",
    )
    _backend_compress = staticmethod(lz_compress)
    _backend_decompress = staticmethod(lz_decompress)


@register
class BitshuffleZstd(_BitshuffleBase):
    info = MethodInfo(
        name="shf+zstd", year=2015, domain="HPC", precision="S,D", arch="CPU",
        parallel="SIMD + threads", trait="transform + dict.", group="dictionary",
    )
    _backend_compress = staticmethod(partial(zlib.compress, level=9))
    _backend_decompress = staticmethod(_inflate)
