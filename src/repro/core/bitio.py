"""Vectorized bit- and byte-stream primitives shared by all codecs.

Conventions
-----------
* Bitstreams are MSB-first: the first bit written is the most significant
  bit of the first byte. ``np.packbits``/``np.unpackbits`` use the same
  convention, which keeps the vectorized and sequential paths compatible.
* ``pack_bits``/``unpack_bits`` are fully vectorized (used by codecs whose
  per-value bit widths are known up front). ``BitReader`` is the sequential
  fallback for formats whose widths are only discovered during decode
  (Gorilla, Chimp, Huffman).
* Values are carried as ``uint64`` regardless of the source precision.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of a uint64 array (0 for 0), exact for all 64 bits.

    Uses a 6-step binary search instead of float tricks, which silently
    misreport lengths for integers above 2**53.
    """
    v = np.ascontiguousarray(x, dtype=_U64).copy()
    n = np.zeros(v.shape, dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        s = _U64(shift)
        ge = v >= (_ONE << s)
        n[ge] += shift
        v[ge] >>= s
    n[np.asarray(x, dtype=_U64) > 0] += 1
    return n


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
    above ``nbits`` are ignored. Vectorized by grouping values of equal
    width (≤65 distinct widths) and scattering their dense (k, w) bit
    matrices into the output bit array — O(total bits) work with no
    64-wide masked intermediates.
    """
    vals = np.ascontiguousarray(vals, dtype=_U64)
    nb = np.ascontiguousarray(nbits, dtype=np.int64)
    if vals.size == 0:
        return b""
    ends = np.cumsum(nb)
    starts = ends - nb
    total = int(ends[-1]) if ends.size else 0
    out = np.zeros(total, dtype=np.uint8)
    chunk = 1 << 18  # bound per-group intermediates to ~tens of MB
    for w in np.unique(nb):
        w = int(w)
        if w == 0:
            continue
        idx = np.flatnonzero(nb == w)
        shifts = np.arange(w - 1, -1, -1, dtype=_U64)
        offs = np.arange(w, dtype=np.int64)
        for s in range(0, idx.size, chunk // max(w, 1) + 1):
            ii = idx[s : s + chunk // max(w, 1) + 1]
            bits = ((vals[ii][:, None] >> shifts[None, :]) & _ONE).astype(np.uint8)
            pos = starts[ii][:, None] + offs[None, :]
            out[pos.reshape(-1)] = bits.reshape(-1)
    return np.packbits(out).tobytes()


def unpack_bits(buf: bytes, nbits: np.ndarray, start_bit: int = 0) -> np.ndarray:
    """Vectorized inverse of :func:`pack_bits` for known per-value widths.

    Reads ``len(nbits)`` values from ``buf`` starting at ``start_bit``.
    """
    nb = np.ascontiguousarray(nbits, dtype=np.int64)
    if nb.size == 0:
        return np.zeros(0, dtype=_U64)
    ends = start_bit + np.cumsum(nb)
    starts = ends - nb
    if int(ends[-1]) > len(buf) * 8:
        raise ValueError("bitstream truncated")
    b = np.frombuffer(buf, dtype=np.uint8)
    bp = np.concatenate([b, np.zeros(16, dtype=np.uint8)])
    byte_off = (starts >> 3).astype(np.int64)
    bit_off = (starts & 7).astype(_U64)
    window = bp[byte_off[:, None] + np.arange(9)].astype(_U64)
    hi = np.zeros(nb.size, dtype=_U64)
    for k in range(8):
        hi |= window[:, k] << _U64(56 - 8 * k)
    lo = window[:, 8]
    # 72-bit window starting at the byte boundary; align to the start bit.
    win = (hi << bit_off) | (lo >> (_U64(8) - bit_off))
    with np.errstate(all="ignore"):
        res = win >> (_U64(64) - nb.astype(_U64))  # undefined for nb==0
    return np.where(nb == 0, _U64(0), res)


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


class BitReader:
    """Sequential MSB-first bit reader over a bytes buffer.

    Each read slices only the bytes it needs, so cost is O(bits read), not
    O(buffer) — fast enough for per-value decode loops (Gorilla/Chimp).
    """

    def __init__(self, buf: bytes, start_bit: int = 0) -> None:
        self.buf = bytes(buf)
        self.pos = start_bit

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        pos, end = self.pos, self.pos + n
        b0, b1 = pos >> 3, (end + 7) >> 3
        if b1 > len(self.buf):
            raise ValueError("bitstream truncated")
        v = int.from_bytes(self.buf[b0:b1], "big")
        v >>= b1 * 8 - end
        self.pos = end
        return v & ((1 << n) - 1)

    def peek(self, n: int) -> int:
        """Read up to ``n`` bits without advancing; zero-pads past the end."""
        pos, end = self.pos, self.pos + n
        b0, b1 = pos >> 3, (end + 7) >> 3
        chunk = self.buf[b0 : min(b1, len(self.buf))]
        chunk = chunk + b"\x00" * (b1 - b0 - len(chunk))
        v = int.from_bytes(chunk, "big")
        v >>= b1 * 8 - end
        return v & ((1 << n) - 1)

    def remaining(self) -> int:
        return len(self.buf) * 8 - self.pos


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
