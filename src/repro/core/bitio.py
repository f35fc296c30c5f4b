"""Vectorized bit-stream and layout primitives shared by all codecs.

Conventions
-----------
* Bitstreams are MSB-first: the first bit written is the most significant
  bit of the first byte. ``np.packbits``/``np.unpackbits`` use the same
  convention.
* ``pack_bits``/``unpack_bits`` are fully vectorized. Formats whose widths
  are only discovered during decode (Gorilla, Chimp, Huffman) first find
  where every field starts, then extract them all with ``read_bits_at``
  from the buffer's ``be_words``, built once per decode.
  Byte-aligned fields (GFC's and pFPC's significant residual bytes) are
  ``pack_bits`` fields of ``8 * nbytes`` bits.
* The shared layout stages have one copy each: ``bit_transpose`` and the
  ``drop_zero_words``/``restore_zero_words`` pair.
* ``previous_same_key`` is the one hash-table lookup of the vectorized
  encoders: Chimp's window index and pFPC's FCM/DFCM tables.
* Values are carried as ``uint64`` regardless of the source precision.
"""
from __future__ import annotations

import struct

import numpy as np

_U64 = np.uint64
_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_LE64 = np.dtype("<u8")
#: The 8x8 tile transpose's three delta swaps: (shift, mask of the upper
#: bit of each swapped pair), for 4x4 blocks, 2x2 blocks and bits.
_TILE_SWAPS = tuple(
    (_U64(s), _U64(m))
    for s, m in ((36, 0xF0F0F0F000000000), (18, 0xCCCC0000CCCC0000), (9, 0xAA00AA00AA00AA00))
)
#: Inputs up to this size take bit_transpose's unpack/pack path.
_TILE_MIN_BYTES = 4096

#: ``read_be32(buf, i)[0]`` is the big-endian 32-bit word at byte ``i`` of
#: ``buf``: the scalar read of the Gorilla and Chimp header walks, which
#: pad ``buf`` so that it never runs past the end.
read_be32 = struct.Struct(">I").unpack_from


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of a uint64 array (0 for 0), exact for all 64 bits.

    ``np.frexp`` on each 32-bit half: a half is below 2**32, so its float64
    conversion is exact (a float of the whole word would round above 2**53).
    """
    v = np.asarray(x, dtype=_U64)
    hi = (v >> _U64(32)).astype(np.float64)
    lo = (v & _U64(0xFFFFFFFF)).astype(np.float64)
    n = np.where(hi > 0, np.frexp(hi)[1] + 32, np.frexp(lo)[1])
    return n.astype(np.uint8)


def trailing_zeros(x: np.ndarray, width: int) -> np.ndarray:
    """Count of trailing zero bits in ``width``-bit words (width for x==0)."""
    x = np.ascontiguousarray(x, dtype=_U64)
    low = x & (~x + _ONE)  # isolate lowest set bit (two's complement trick)
    tz = bit_length_u64(low).astype(np.int64) - 1
    tz[x == 0] = width
    return tz


def _mask(nbits: np.ndarray) -> np.ndarray:
    """Per-element mask of the low ``nbits`` bits (nbits in [0, 64])."""
    nb = np.asarray(nbits, dtype=_U64)
    with np.errstate(all="ignore"):
        m = _FULL >> (_U64(64) - nb)  # undefined for nb==0, fixed below
    return np.where(nb == 0, _U64(0), m)


def pack_bits(vals: np.ndarray, nbits: np.ndarray) -> bytes:
    """Concatenate, MSB-first, the low ``nbits[i]`` bits of each ``vals[i]``.

    The result is zero-padded to a whole number of bytes. Bits of ``vals``
    above ``nbits`` are ignored. Each field lands in at most two big-endian
    64-bit words: its part in the word it starts in is summed per word
    (fields never overlap, so the sum is their OR) and the part that
    crosses into the next word is added there.
    """
    vals = np.ascontiguousarray(vals, dtype=_U64)
    nb = np.ascontiguousarray(nbits, dtype=np.int64)
    if vals.size == 0:
        return b""
    ends = np.cumsum(nb)
    total = int(ends[-1])
    starts = ends - nb
    word = starts >> 6
    # bits left free in the start word after the field; negative = spill
    room = 64 - (starts & 63) - nb
    v = vals & _mask(nb)
    fits = room >= 0
    head = np.where(fits, v << room.clip(0).astype(_U64), v >> (-room).clip(0).astype(_U64))
    words = np.zeros((total + 63) // 64 + 1, dtype=_U64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.add.reduceat(head, first)
    spill = np.flatnonzero(~fits)
    words[word[spill] + 1] += v[spill] << (64 + room[spill]).astype(_U64)
    return words.astype(">u8").tobytes()[: (total + 7) // 8]


def be_words(buf: bytes) -> np.ndarray:
    """``buf`` as the big-endian 64-bit words that :func:`read_bits_at`
    reads, zero-padded so that every bit of ``buf`` has a next word.

    A decoder that reads one buffer many times builds this once.
    """
    padded = np.zeros((len(buf) + 7) // 8 * 8 + 16, dtype=np.uint8)
    padded[: len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    return padded.view(">u8").astype(_U64)


def read_bits_at(words: np.ndarray, starts: np.ndarray, nbits) -> np.ndarray:
    """The ``nbits``-bit fields (0..64 each) that begin at bit ``starts`` of
    the buffer that :func:`be_words` turned into ``words``.

    Bits past the end of the buffer read as zero; callers check bounds.
    Each field is two word gathers and a funnel shift.
    """
    starts = np.asarray(starts, dtype=np.int64)
    nb = np.asarray(nbits, dtype=_U64)
    word = starts >> 6
    off = (starts & 63).astype(_U64)
    # the 64 bits from the start bit; the second word's shift is split in
    # two so that it never reaches 64
    aligned = (words[word] << off) | ((words[word + 1] >> _ONE) >> (_U64(63) - off))
    with np.errstate(all="ignore"):
        res = aligned >> (_U64(64) - nb)  # undefined for nb==0
    return np.where(nb == 0, _U64(0), res)


def unpack_bits(buf: bytes, nbits: np.ndarray) -> np.ndarray:
    """Vectorized inverse of :func:`pack_bits` for known per-value widths.

    Reads ``len(nbits)`` values from the start of ``buf``.
    """
    nb = np.ascontiguousarray(nbits, dtype=np.int64)
    if nb.size == 0:
        return np.zeros(0, dtype=_U64)
    ends = np.cumsum(nb)
    if int(ends[-1]) > len(buf) * 8:
        raise ValueError("bitstream truncated")
    return read_bits_at(be_words(buf), ends - nb, nb)


def previous_same_key(key: np.ndarray) -> np.ndarray:
    """For each position, the latest earlier position with the same key (-1
    if none): what a table indexed by ``key`` and written at every position
    holds when position ``i`` reads it.

    A stable sort puts equal keys next to each other in position order.
    Pass keys of 16 bits or fewer as ``uint16``, which NumPy sorts stably
    by radix.
    """
    key = np.asarray(key)
    order = np.argsort(key, kind="stable")
    same = key[order[1:]] == key[order[:-1]]
    prev = np.full(key.size, -1)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def bit_transpose(rows_u8: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Transpose the ``rows x cols`` bit matrix each uint8 row holds, MSB-first.

    The last axis of ``rows_u8`` is one matrix of ``rows * cols`` bits (a
    multiple of 8); leading axes batch matrices. Bit ``(i, j)`` moves to
    ``(j, i)``, so ``bit_transpose(out, cols, rows)`` is the inverse. This
    is the bit transpose of bitshuffle (elements x element bits), of MPC's
    BIT stage and of ndzip (``width`` words of ``width`` bits each).
    Raises ``ValueError`` if a row does not hold ``rows * cols`` bits.

    Inputs over 4 KiB whose ``rows`` and ``cols`` are multiples of 8 go
    through :func:`_transpose_tiles`. The others (bitshuffle's partial last
    block, and small inputs, where the tiles' fixed cost of about 10 µs
    outweighs their per-byte saving) expand every bit to a byte and pack
    the transposed bytes back.
    """
    a = np.asarray(rows_u8, dtype=np.uint8)
    if a.shape[-1] * 8 != rows * cols:
        raise ValueError(f"a row of {a.shape[-1]} bytes is not a {rows} x {cols} bit matrix")
    if rows % 8 == 0 and cols % 8 == 0 and a.size > _TILE_MIN_BYTES:
        return _transpose_tiles(a, rows, cols)
    lead = a.shape[:-1]
    bits = np.unpackbits(a, axis=-1).reshape(lead + (rows, cols))
    return np.packbits(bits.swapaxes(-1, -2).reshape(lead + (rows * cols,)), axis=-1)


def _transpose_tiles(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """:func:`bit_transpose` for ``rows`` and ``cols`` that are multiples of
    8, on 8x8 bit tiles, as the original bitshuffle does (Masui et al.
    2015). Each tile's 8 row bytes form one little-endian uint64 (row k in
    byte k, column j at bit ``8k + 7 - j``), in which the transpose is a
    flip about the anti-diagonal: three delta swaps, of 4x4 blocks, 2x2
    blocks and bits (``_TILE_SWAPS``). Tile (I, J) then lands at (J, I)."""
    lead = a.shape[:-1]
    r8, c8 = rows // 8, cols // 8
    t = a.reshape(lead + (r8, 8, c8)).swapaxes(-1, -2).copy().view(_LE64)  # swapped in place
    u = np.empty_like(t)
    for shift, mask in _TILE_SWAPS:  # d = (t ^ t << s) & m; t ^= d ^ d >> s
        np.left_shift(t, shift, out=u)
        u ^= t
        u &= mask
        t ^= u
        u >>= shift
        t ^= u
    tiles = t.view(np.uint8).reshape(lead + (r8, c8, 8))
    return tiles.swapaxes(-3, -2).swapaxes(-2, -1).reshape(lead + (rows * cols // 8,))


def drop_zero_words(words: np.ndarray) -> bytes:
    """Zero-word elision: an MSB-first bitmap marking the non-zero entries
    of ``words`` (in C order), then those words. MPC's ZE stage and
    ndzip's zero-word removal."""
    nonzero = words != 0
    return np.packbits(nonzero).tobytes() + words[nonzero].tobytes()


def restore_zero_words(buf: bytes, n: int, dtype) -> np.ndarray:
    """The ``n`` words that :func:`drop_zero_words` wrote to ``buf``.

    Raises ``ValueError`` if ``buf`` cannot hold the bitmap or the words
    it marks; the bitmap is checked first, so a forged ``n`` cannot make
    this allocate more than ``8 * len(buf)`` words.
    """
    nmap = (n + 7) // 8
    if nmap > len(buf):
        raise ValueError(f"{n} words need a {nmap}-byte bitmap; {len(buf)} bytes given")
    nonzero = np.unpackbits(np.frombuffer(buf, np.uint8, count=nmap), count=n).astype(bool)
    out = np.zeros(n, dtype=dtype)
    out[nonzero] = np.frombuffer(buf, dtype=dtype, count=int(nonzero.sum()), offset=nmap)
    return out
