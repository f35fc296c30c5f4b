"""bitshuffle::LZ4 and bitshuffle::zstd (§3.7, Masui et al. 2015).

Workflow: the input is split into blocks (4096 bytes, the default chosen by
the original to fit L1 cache); within each block the element bits are
arranged as an (m × elem_bits) matrix and transposed so the i-th bits of
all elements land in consecutive bytes; a downstream dictionary coder
(LZ4 or zstd) then compresses each transposed block.

Backends (DESIGN.md substitution #2): "LZ4" is this repo's LZ4-style LZ77
(`lz77.py`); "zstd" is stdlib zlib at level 9 (DEFLATE: LZ77 + Huffman,
the same match+entropy-coding family as zstd). The original's SSE2/AVX2
transpose works on 8×8 bit tiles, and so does `bitio.bit_transpose` here,
with uint64 delta swaps; one call transposes all of a buffer's full blocks.
Spark partitions provide the thread-level parallelism in the harness. The
decoder raises ``ValueError`` when a block other than the last does not
decompress to exactly 4096 bytes.
"""
from __future__ import annotations

import zlib
from functools import partial
from typing import Callable

import numpy as np

from repro.codecs.base import Codec
from repro.codecs.lz77 import frame_chunks, lz_compress, lz_decompress, unframe_chunks
from repro.core.bitio import bit_transpose

_BLOCK_BYTES = 4096


class _BitshuffleBase(Codec):
    # the dictionary coder applied to each shuffled block
    _backend_compress: Callable[[bytes], bytes]
    _backend_decompress: Callable[[bytes], bytes]

    def _encode(self, words: np.ndarray, dims) -> bytes:
        shuffled = _shuffle(words.view(np.uint8), words.dtype.itemsize * 8, False)
        return frame_chunks(shuffled, _BLOCK_BYTES, self._backend_compress)

    def _decode(self, payload, wdt, count, dims):
        shuffled = unframe_chunks(payload, self._backend_decompress, _BLOCK_BYTES)
        data = _shuffle(np.frombuffer(shuffled, np.uint8), wdt.itemsize * 8, True)
        return np.frombuffer(data, dtype=wdt, count=count)


def _shuffle(data: np.ndarray, width: int, inverse: bool) -> bytes:
    """Transpose the (elements x ``width`` bits) matrix of each block of
    ``data``, or undo it: all full blocks in one batched call, then the
    partial last one."""
    full = data.size - data.size % _BLOCK_BYTES
    out = []
    for part in (data[:full].reshape(-1, _BLOCK_BYTES), data[full:]):
        if part.size:
            shape = (part.shape[-1] * 8 // width, width)
            out.append(bit_transpose(part, *(shape[::-1] if inverse else shape)).tobytes())
    return b"".join(out)


def _inflate(comp: bytes) -> bytes:
    try:
        return zlib.decompress(comp)
    except zlib.error as e:  # decoders report a malformed blob as ValueError
        raise ValueError(f"corrupt zstd block: {e}") from None


class BitshuffleLZ4(_BitshuffleBase):
    _backend_compress = staticmethod(lz_compress)
    _backend_decompress = staticmethod(lz_decompress)


class BitshuffleZstd(_BitshuffleBase):
    _backend_compress = staticmethod(partial(zlib.compress, level=9))
    _backend_decompress = staticmethod(_inflate)
