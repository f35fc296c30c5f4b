"""Vectorized bit- and byte-stream primitives shared by all codecs.

Conventions
-----------
* Bitstreams are MSB-first: the first bit written is the most significant
  bit of the first byte. ``np.packbits``/``np.unpackbits`` use the same
  convention.
* ``pack_bits``/``unpack_bits`` are fully vectorized. Formats whose widths
  are only discovered during decode (Gorilla, Chimp, Huffman) first find
  where every field starts, then extract them all with ``read_bits_at``.
* Values are carried as ``uint64`` regardless of the source precision.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


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


def leading_zeros(x: np.ndarray, width: int) -> np.ndarray:
    """Count of leading zero bits in ``width``-bit words (width for x==0)."""
    return (width - bit_length_u64(x)).astype(np.int64)


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


def read_bits_at(buf: bytes, starts: np.ndarray, nbits) -> np.ndarray:
    """The ``nbits``-bit fields (0..64 each) that begin at bit ``starts``.

    Bits past the end of ``buf`` read as zero; callers check bounds. The
    buffer is read as big-endian 64-bit words, as :func:`pack_bits` wrote
    it, so each field is two word gathers and a funnel shift.
    """
    starts = np.asarray(starts, dtype=np.int64)
    nb = np.asarray(nbits, dtype=_U64)
    padded = np.zeros((len(buf) + 7) // 8 * 8 + 16, dtype=np.uint8)
    padded[: len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    words = padded.view(">u8").astype(_U64)
    word = starts >> 6
    off = (starts & 63).astype(_U64)
    # the 64 bits from the start bit; the second word's shift is split in
    # two so that it never reaches 64
    aligned = (words[word] << off) | ((words[word + 1] >> _ONE) >> (_U64(63) - off))
    with np.errstate(all="ignore"):
        res = aligned >> (_U64(64) - nb)  # undefined for nb==0
    return np.where(nb == 0, _U64(0), res)


def unpack_bits(buf: bytes, nbits: np.ndarray, start_bit: int = 0) -> np.ndarray:
    """Vectorized inverse of :func:`pack_bits` for known per-value widths.

    Reads ``len(nbits)`` values from ``buf`` starting at ``start_bit``.
    """
    nb = np.ascontiguousarray(nbits, dtype=np.int64)
    if nb.size == 0:
        return np.zeros(0, dtype=_U64)
    ends = start_bit + np.cumsum(nb)
    if int(ends[-1]) > len(buf) * 8:
        raise ValueError("bitstream truncated")
    return read_bits_at(buf, ends - nb, nb)


def pack_bytes(vals: np.ndarray, nbytes: np.ndarray) -> bytes:
    """Concatenate the low ``nbytes[i]`` bytes of each value, MSB-first."""
    vals = np.ascontiguousarray(vals, dtype=_U64)
    nb = np.ascontiguousarray(nbytes, dtype=np.int64)
    if vals.size == 0:
        return b""
    total = int(nb.sum())
    out = np.zeros(total, dtype=np.uint8)
    pos = 0
    j = np.arange(8, dtype=np.int64)
    chunk = 1 << 17
    for s in range(0, vals.size, chunk):
        v = vals[s : s + chunk][:, None]
        n = nb[s : s + chunk][:, None]
        sh = (np.maximum(n - 1 - j[None, :], 0) * 8).astype(_U64)
        bts = ((v >> sh) & _U64(0xFF)).astype(np.uint8)
        valid = j[None, :] < n
        picked = bts[valid]
        out[pos : pos + picked.size] = picked
        pos += picked.size
    return out.tobytes()


def unpack_bytes(buf: bytes, nbytes: np.ndarray, start_byte: int = 0) -> np.ndarray:
    """Vectorized inverse of :func:`pack_bytes` for known per-value byte counts."""
    nb = np.ascontiguousarray(nbytes, dtype=np.int64)
    if nb.size == 0:
        return np.zeros(0, dtype=_U64)
    ends = start_byte + np.cumsum(nb)
    starts = ends - nb
    if int(ends[-1]) > len(buf):
        raise ValueError("bytestream truncated")
    b = np.frombuffer(buf, dtype=np.uint8)
    bp = np.concatenate([b, np.zeros(8, dtype=np.uint8)])
    window = bp[starts[:, None] + np.arange(8)].astype(_U64)
    acc = np.zeros(nb.size, dtype=_U64)
    for k in range(8):
        acc |= window[:, k] << _U64(56 - 8 * k)
    with np.errstate(all="ignore"):
        res = acc >> ((_U64(8) - nb.astype(_U64)) * _U64(8))
    return np.where(nb == 0, _U64(0), res)


def bitshuffle_bits(raw: np.ndarray, elem_bits: int) -> np.ndarray:
    """Bit-level transpose of a uint8 buffer holding fixed-width elements.

    The buffer is an ``(m, elem_bits)`` bit matrix (m elements, in memory
    byte order); the transpose groups the i-th bit of every element into
    consecutive bytes. ``m`` must make ``m * elem_bits`` divisible by 8,
    which all callers guarantee by padding blocks. Self-inverse apart from
    the matrix shape, so :func:`bitunshuffle_bits` is the paired inverse.
    """
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    total_bits = raw.size * 8
    m = total_bits // elem_bits
    bits = np.unpackbits(raw).reshape(m, elem_bits)
    return np.packbits(bits.T.reshape(-1))


def bitunshuffle_bits(shuffled: np.ndarray, elem_bits: int) -> np.ndarray:
    """Inverse of :func:`bitshuffle_bits`."""
    shuffled = np.ascontiguousarray(shuffled, dtype=np.uint8)
    total_bits = shuffled.size * 8
    m = total_bits // elem_bits
    bits = np.unpackbits(shuffled).reshape(elem_bits, m)
    return np.packbits(bits.T.reshape(-1))


def transpose_groups(vals: np.ndarray, width: int) -> np.ndarray:
    """Batched bit transpose of (G, width) word groups (self-inverse).

    The bit-transpose stage of ndzip and of MPC's BIT component.
    """
    g = vals.shape[0]
    if g == 0:
        return vals
    bits = np.unpackbits(vals.view(np.uint8).reshape(g, -1), axis=1)
    bits = bits.reshape(g, width, width)
    bits = bits.transpose(0, 2, 1)
    packed = np.packbits(bits.reshape(g, -1), axis=1)
    return np.ascontiguousarray(packed).view(vals.dtype).reshape(g, width)
