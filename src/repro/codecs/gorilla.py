"""Gorilla — Facebook's in-memory TSDB value compressor (§3.4, VLDB 2015).

Only the floating-point *value* stream scheme is implemented (the paper's
datasets are value streams; Gorilla's delta-of-delta timestamp coding has
no timestamps to act on here, which matches how the benchmark applied it).

Per value, XOR with the previous value, then:

* ``0``            — the XOR is zero (value repeats);
* ``10``           — the meaningful (non-zero) bits of the XOR fall inside
  the previous ``[leading, trailing]`` window: store just the meaningful
  bits using the stored window lengths;
* ``11``           — store 5 bits of leading-zero count, 6 bits of
  meaningful-bit length (width encoded as 0), then the meaningful bits,
  and remember this window for subsequent ``10`` codes.

Compression precomputes XOR/LZ/TZ vectorized. The window changes only at
``11`` records (at most 2.9% of values on the corpus), so Python visits
only those: from each one, a NumPy search over growing spans finds the
next XOR outside its window. Every ``10`` record takes the window of the
latest ``11`` record by a forward fill, and one vectorized ``pack_bits``
emits all fields. Decode walks the record headers in Python, to find where
each record starts. A ``10`` record is exactly ``2 + mlen`` bits and
``mlen`` changes only at an ``11`` record, so after 32 ``10`` records in a
row the walk gallops: it reads the 2-bit headers at ``pos + k * (2 + mlen)``
by NumPy over spans of 32, 128, 512, ... records, up to the first that is
not ``10`` (on six of the seven DB datasets, over 99.98% of the records
are ``10``). A gallop that finds fewer than 32 records doubles the run the
next one waits for, so streams of short runs stay on the scalar walk.
Vectorized reads then extract every field and an XOR prefix scan rebuilds
the values. Gorilla is serial in the original too — this is the class of
method the paper finds slowest.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.core.bitio import (
    be_words,
    bit_length_u64,
    pack_bits,
    read_be32,
    read_bits_at,
    trailing_zeros,
)

_MAX_LZ = 31  # 5-bit leading-zero field
#: A run of this many 10 records starts a gallop over the rest of the run.
_GALLOP_AFTER = 32


class Gorilla(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        xor = w.copy()
        xor[1:] = w[1:] ^ w[:-1]
        # a zero XOR has lz 31 and tz width, so it never leaves a window
        lz = np.minimum(width - bit_length_u64(xor).astype(np.int64), _MAX_LZ)
        tz = trailing_zeros(xor, width)
        # Python visits only the 11 records: the first nonzero XOR, then
        # each next XOR outside the window the previous one set
        new_window = np.zeros(n, dtype=bool)
        i = _next_outside(lz, tz, 1, 0, width)
        while i < n:
            new_window[i] = True
            i = _next_outside(lz, tz, i + 1, lz[i], tz[i])
        # every 10 record uses the window of the latest 11 record
        latest = np.maximum.accumulate(np.where(new_window, np.arange(n), 0))
        win_lz, win_tz = lz[latest], tz[latest]
        mlen = width - win_lz - win_tz
        zero = xor == 0
        # two fields per value: the control bits, then the meaningful bits
        # (fused they could exceed pack_bits' 64-bit field); the window's
        # layout is 11 | lz:5 | mlen:6 (width stored as 0) | bits
        head = np.where(new_window, (0b11 << 5 | win_lz) << 6 | (mlen & 63), 0b10)
        head_bits = np.where(new_window, 2 + 5 + 6, 2)
        body = xor >> win_tz.astype(np.uint64)
        head[zero], head_bits[zero], mlen[zero] = 0, 1, 0
        head = head.astype(np.uint64)
        head[0], head_bits[0], mlen[0] = w[0], width, 0
        return pack_bits(
            np.stack([head, body], axis=1).reshape(-1),
            np.stack([head_bits, mlen], axis=1).reshape(-1),
        )

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        if width + count - 1 > len(payload) * 8:  # every record is at least one bit
            raise ValueError(f"count {count} exceeds what {len(payload)} Gorilla bytes hold")
        words = be_words(payload)
        return _values(words, width, _record_starts(payload, words, width, count))


def _record_starts(payload: bytes, words: np.ndarray, width: int, count: int) -> np.ndarray:
    """The start bit of each of the ``count`` records in ``payload`` (whose
    ``be_words`` are ``words``), from the 13 header bits there (read
    through a 32-bit window) and the stored window width; long runs of 10
    records are galloped over (:func:`_run_of_10s`).

    Raises ``ValueError`` if the records run past the end.
    """
    total = len(payload) * 8
    # past the end the walk reads zeros, 0 records of one bit each, so
    # count bits of padding keep every read in the buffer
    buf = bytes(payload) + bytes(len(payload) + 16)
    pieces = []  # arrays of record starts
    starts = [0]
    append = starts.append
    pos = width
    mlen = width
    trigger = _GALLOP_AFTER
    gallop_at = trigger  # a 10 record here starts a gallop
    i = 1
    while i < count:
        for i in range(i, count):
            append(pos)
            head = read_be32(buf, pos >> 3)[0] >> (19 - (pos & 7)) & 0x1FFF
            if head < 0x1000:  # 0: the value repeats
                pos += 1
                gallop_at = i + trigger
            elif head < 0x1800:  # 10: the stored window
                pos += 2 + mlen
                if i >= gallop_at:
                    break
            else:  # 11 | lz:5 | mlen:6 (64 stored as 0), a new window
                mlen = head & 63 or 64
                pos += 13 + mlen
                gallop_at = i + trigger
        else:
            break
        # a run of trigger 10 records ends at i: gallop over its rest
        step = 2 + mlen
        run = _run_of_10s(words, pos, step, min(count - 1 - i, (total - pos) // step))
        pieces += [np.array(starts, np.int64), run]
        starts = []
        append = starts.append
        i += 1 + run.size
        pos += step * run.size
        # a gallop costs about as much as a few dozen scalar records:
        # after one that found fewer, wait twice as long for the next
        trigger = _GALLOP_AFTER if run.size >= _GALLOP_AFTER else 2 * trigger
        gallop_at = i + trigger
    if pos > total:
        raise ValueError("Gorilla stream truncated")
    pieces.append(np.array(starts, np.int64))
    return np.concatenate(pieces)


def _run_of_10s(words: np.ndarray, pos: int, step: int, limit: int) -> np.ndarray:
    """The starts of the run of ``10`` records that begins at bit ``pos``
    (``step`` bits each, at most ``limit`` of them): the 2 header bits at
    ``pos + k * step`` are read for 32 records, then 4 times as many each
    round, up to the first header that is not ``10``.
    """
    found = []
    size = 32
    while limit > 0:
        at = np.arange(pos, pos + step * min(size, limit), step)
        other = np.flatnonzero(read_bits_at(words, at, 2) != 0b10)
        if other.size:
            found.append(at[: other[0]])
            break
        found.append(at)
        pos += step * at.size
        limit -= at.size
        size *= 4
    return np.concatenate(found) if found else np.zeros(0, np.int64)


def _next_outside(lz: np.ndarray, tz: np.ndarray, start: int, win_lz: int, win_tz: int) -> int:
    """The first position from ``start`` whose XOR falls outside the window
    (``lz < win_lz`` or ``tz < win_tz``), or ``lz.size`` if none does.

    The search looks at 64 positions, then 4 times as many each round, so
    a near record costs one short scan and a far one a few long ones.
    """
    size = 64
    while start < lz.size:
        out = (lz[start : start + size] < win_lz) | (tz[start : start + size] < win_tz)
        j = int(np.argmax(out))
        if out[j]:
            return start + j
        start += size
        size *= 4
    return lz.size


def _values(words: np.ndarray, width: int, starts: np.ndarray) -> np.ndarray:
    """Rebuild the values from the record start bits found by the parse."""
    u = np.uint64
    head = read_bits_at(words, starts, 13).astype(np.int64)
    new_window = head >= 0x1800
    new_window[0] = False
    lz = head >> 6 & _MAX_LZ
    mlen = np.where(head & 63, head & 63, 64)
    # every 10 record uses the window of the latest 11 record (or the
    # initial full-width one)
    latest = np.maximum.accumulate(np.where(new_window, np.arange(starts.size), 0))
    tz = np.where(new_window, width - lz - mlen, 0)[latest]
    mlen = np.where(new_window, mlen, width)[latest]
    if (tz < 0).any():
        raise ValueError("corrupt Gorilla stream: window wider than the word")
    meaningful = head >= 0x1000
    x = read_bits_at(words, starts + np.where(new_window, 13, 2), np.where(meaningful, mlen, 0))
    x = x << tz.astype(u)
    x[0] = read_bits_at(words, 0, width)
    return np.bitwise_xor.accumulate(x)
