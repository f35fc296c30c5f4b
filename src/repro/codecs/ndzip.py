"""ndzip — high-throughput Lorenzo-transform compressor (§3.8 CPU, §4.4 GPU).

Workflow reproduced from Knorr et al. 2021:

1. Divide the grid into hypercube **blocks of 4096 elements**
   (4096 / 64×64 / 16×16×16 for 1/2/3-D data). Cells not covered by a full
   block (grid remainders) are stored verbatim, as in the original.
2. Within each block, the **integer Lorenzo transform**: a separable
   forward difference over the order-preserving integer codes, applied
   along each axis in turn (the multidimensional Lorenzo predictor's
   residual computation).
3. Residuals are mapped sign-to-LSB (zigzag — standing in for ndzip's
   residual rotation, which serves the same purpose: keeping small
   negative residuals from filling the high bit planes with sign-extension
   ones), then grouped into chunks of 32 (single) or 64 (double) values
   and **bit-transposed** so equal-significance bits share words.
4. **Zero words are removed**: a bitmap with one bit per transposed word
   (32/64 bits per chunk) marks the non-zero words, which follow it.

CPU and GPU implementations share this exact pipeline in the paper (§4.4:
"the algorithm remains the same"), so both rows of `base.METHODS`, ndzip-C
and ndzip-G, name this one class; only their Table-1 fields differ.
`harness.per_dataset_metrics` adds modeled host↔device transfers to the
end-to-end times of the methods in `base.GPU_METHODS`, which lists ndzip-G
and not ndzip-C (DESIGN.md substitution #3).
"""
from __future__ import annotations

import math

import numpy as np

from repro.codecs.base import Codec
from repro.core.bitio import bit_transpose, drop_zero_words, restore_zero_words
from repro.core.floatmap import from_ordered, lag_diff, lag_sum, to_ordered, unzigzag, zigzag

_SIDE = {1: (4096,), 2: (64, 64), 3: (16, 16, 16)}


def _tile_info(dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Block side lengths and full-tile counts per dimension."""
    if len(dims) not in _SIDE:
        dims = (int(np.prod(dims)),)
    side = _SIDE[len(dims)]
    tiles = tuple(d // s for d, s in zip(dims, side))
    covered = np.prod([t * s for t, s in zip(tiles, side)]) if all(tiles) else 0
    # awkward grids (an extent below the block side, or poor coverage)
    # degrade to the 1-D blocking the CLI tool applies to raw streams
    if covered < 0.5 * np.prod(dims) and len(dims) > 1:
        return _tile_info((int(np.prod(dims)),))
    return side, tiles


def _layout(dims: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Block side, then the flat indices of the tiled cells (tile by tile,
    each tile in C order) and of the untiled tail cells (in C order)."""
    side, tiles = _tile_info(dims)
    shape = tuple(dims) if len(side) == len(dims) else (math.prod(dims),)
    idx = np.arange(math.prod(shape)).reshape(shape)
    crop = idx[tuple(slice(0, t * s) for t, s in zip(tiles, side))]
    d = len(side)
    # (t0, s0, t1, s1, ...) -> (t0, t1, ..., s0, s1, ...)
    split = crop.reshape([n for ts in zip(tiles, side) for n in ts])
    tiled = split.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))).reshape(-1)
    return side, tiled, np.delete(idx.reshape(-1), tiled)


class Ndzip(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        if words.size == 0:
            return b""
        dt = words.dtype
        width = dt.itemsize * 8
        side, tiled, tail = _layout(dims)
        ordered = to_ordered(words)
        blocks = ordered[tiled].reshape((-1,) + side)
        res = lag_diff(blocks, 1, range(1, blocks.ndim)).reshape(-1)
        zz = zigzag(res)
        # each group of `width` residuals is a width x width bit matrix
        tw = bit_transpose(zz.reshape(-1, width).view(np.uint8), width, width)
        enc = drop_zero_words(tw.view(dt))
        return len(enc).to_bytes(8, "little") + enc + ordered[tail].tobytes()

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        enc_len = int.from_bytes(payload[:8], "little")
        enc = payload[8 : 8 + enc_len]
        tail_buf = payload[8 + enc_len :]
        # a tiled cell takes at least its bitmap bit, a tail cell its word;
        # checked before the index map of ``count`` cells is built
        if math.prod(dims) != count or count > 8 * len(enc) + len(tail_buf) // wdt.itemsize:
            raise ValueError(f"count {count} exceeds what {len(payload)} ndzip bytes hold")
        side, tiled, tail = _layout(dims)
        tw = restore_zero_words(enc, tiled.size, wdt).reshape(-1, width)
        zz = bit_transpose(tw.view(np.uint8), width, width).view(wdt)
        res = unzigzag(zz).view(wdt).reshape((-1,) + side)
        out = np.empty(count, dtype=wdt)
        out[tiled] = lag_sum(res, 1, range(1, res.ndim)).reshape(-1)
        out[tail] = np.frombuffer(tail_buf, dtype=wdt, count=tail.size)
        return from_ordered(out)
