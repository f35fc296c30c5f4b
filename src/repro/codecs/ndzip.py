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
4. **Zero words are removed**: each chunk gets a 32/64-bit bitmap header
   marking which transposed words are non-zero; non-zero words follow.

CPU and GPU implementations share this exact pipeline in the paper (§4.4:
"the algorithm remains the same"); here both registry entries call the
same vectorized NumPy kernels and differ only in the `arch` metadata the
end-to-end harness uses to model host↔device transfers (DESIGN.md
substitution #3).
"""
from __future__ import annotations

import math

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import transpose_groups
from repro.core.floatmap import from_ordered, lag_diff, lag_sum, to_ordered, unzigzag, zigzag

_BLOCK = 4096
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


def _split_blocks(arr: np.ndarray, side, tiles):
    """Extract full hypercube tiles -> (nblocks, *side); return tail mask too."""
    mask = np.zeros(arr.shape, dtype=bool)
    crop = tuple(slice(0, t * s) for t, s in zip(tiles, side))
    mask[crop] = True
    if not all(tiles):
        blocks = np.zeros((0,) + tuple(side), dtype=arr.dtype)
        mask[...] = False
        return blocks, mask
    sub = arr[crop]
    d = len(side)
    shape = []
    for t, s in zip(tiles, side):
        shape += [t, s]
    sub = sub.reshape(shape)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    blocks = sub.transpose(order).reshape((-1,) + tuple(side))
    return np.ascontiguousarray(blocks), mask


def _join_blocks(blocks: np.ndarray, side, tiles, out: np.ndarray) -> None:
    """Inverse of :func:`_split_blocks` into the cropped region of ``out``."""
    if not all(tiles):
        return
    d = len(side)
    shape = tuple(tiles) + tuple(side)
    arr = blocks.reshape(shape)
    order = []
    for i in range(d):
        order += [i, d + i]
    arr = arr.transpose(order).reshape(tuple(t * s for t, s in zip(tiles, side)))
    crop = tuple(slice(0, t * s) for t, s in zip(tiles, side))
    out[crop] = arr


class _NdzipBase(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        if words.size == 0:
            return b""
        dt = words.dtype
        width = dt.itemsize * 8
        side, tiles = _tile_info(dims)
        arr = to_ordered(words).reshape(tuple(dims) if len(side) == len(dims) else (-1,))
        blocks, mask = _split_blocks(arr, side, tiles)
        tail = arr[~mask]
        if blocks.shape[0]:
            res = lag_diff(blocks, 1, range(1, blocks.ndim)).reshape(-1)
            signed = res.view(np.int32 if width == 32 else np.int64)
            res = zigzag(signed, width).reshape(-1, width)
            tw = transpose_groups(res, width)
            nonzero = tw != 0
            bitmaps = np.packbits(nonzero, axis=1)
            body = np.ascontiguousarray(tw[nonzero])
            enc = bitmaps.tobytes() + body.tobytes()
        else:
            enc = b""
        return len(enc).to_bytes(8, "little") + enc + tail.tobytes()

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        side, tiles = _tile_info(dims)
        shape = tuple(dims) if len(side) == len(dims) else (int(np.prod(dims)),)
        enc_len = int.from_bytes(payload[:8], "little")
        enc = payload[8 : 8 + enc_len]
        tail_buf = payload[8 + enc_len :]
        nblocks = math.prod(tiles) if all(tiles) else 0
        groups = nblocks * (_BLOCK // width)
        mapbytes = groups * (width // 8)  # one bitmap bit per transposed word
        tail_n = math.prod(shape) - nblocks * _BLOCK
        if math.prod(shape) != count or mapbytes > len(enc) or tail_n * wdt.itemsize > len(tail_buf):
            raise ValueError(f"count {count} exceeds what {len(payload)} ndzip bytes hold")
        out = np.zeros(shape, dtype=wdt)
        mask = np.zeros(shape, dtype=bool)
        if nblocks:
            bitmaps = np.frombuffer(enc, dtype=np.uint8, count=mapbytes)
            nonzero = np.unpackbits(bitmaps.reshape(groups, -1), axis=1).astype(bool)
            nz = np.frombuffer(
                enc, dtype=wdt, count=int(nonzero.sum()), offset=mapbytes
            )
            tw = np.zeros((groups, width), dtype=wdt)
            tw[nonzero] = nz
            zz = transpose_groups(tw, width).reshape(-1)
            res = (
                unzigzag(zz, width).view(wdt).reshape((nblocks,) + tuple(side))
            )
            blocks = lag_sum(res, 1, range(1, res.ndim))
            crop = tuple(slice(0, t * s) for t, s in zip(tiles, side))
            mask[crop] = True
            _join_blocks(blocks, side, tiles, out)
        tail = np.frombuffer(tail_buf, dtype=wdt, count=tail_n)
        out[~mask] = tail
        return from_ordered(out.reshape(-1))


@register
class NdzipCPU(_NdzipBase):
    info = MethodInfo(
        name="ndzip-C", year=2021, domain="HPC", precision="S,D", arch="CPU",
        parallel="SIMD + threads", trait="transform+Lorenzo", group="lorenzo",
    )


@register
class NdzipGPU(_NdzipBase):
    info = MethodInfo(
        name="ndzip-G", year=2021, domain="HPC", precision="S,D", arch="GPU",
        parallel="SIMT", trait="transform + Lorenzo", group="lorenzo",
    )
