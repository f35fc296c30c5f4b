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

Compression precomputes XOR/LZ/TZ vectorized, walks the control-bit state
machine in a Python loop (the window carries sequential state), and packs
all emitted fields in one vectorized ``pack_bits``. Decode walks only the
record headers in Python, to find where each record starts; vectorized
reads then extract every field and an XOR prefix scan rebuilds the
values. Gorilla is serial in the original too — this is the class of
method the paper finds slowest.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import leading_zeros, pack_bits, read_bits_at, trailing_zeros

_MAX_LZ = 31  # 5-bit leading-zero field


@register
class Gorilla(Codec):
    info = MethodInfo(
        name="Gorilla", year=2015, domain="Database", precision="D", arch="CPU",
        parallel="serial", trait="delta", group="delta",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        xor = w.copy()
        xor[1:] = w[1:] ^ w[:-1]
        lz = np.minimum(leading_zeros(xor, width), _MAX_LZ).tolist()
        tz = trailing_zeros(xor, width).tolist()
        xor_l = xor.tolist()
        vals: list[int] = [int(w[0])]
        nbits: list[int] = [width]
        prev_lz, prev_tz = -1, -1
        for i in range(1, n):
            x = xor_l[i]
            if x == 0:
                vals.append(0)
                nbits.append(1)
                continue
            l, t = lz[i], tz[i]
            # control fields and payload are separate pack entries: a fused
            # field could exceed 64 bits (2+5+6+mlen), beyond pack_bits' word
            if prev_lz >= 0 and l >= prev_lz and t >= prev_tz:
                mlen = width - prev_lz - prev_tz
                vals.append(0b10)
                nbits.append(2)
                vals.append(x >> prev_tz)
                nbits.append(mlen)
            else:
                mlen = width - l - t
                # field layout: 11 | lz:5 | mlen:6 (width stored as 0) | bits
                vals.append((0b11 << 5 | l) << 6 | (mlen & 63))
                nbits.append(2 + 5 + 6)
                vals.append(x >> t)
                nbits.append(mlen)
                prev_lz, prev_tz = l, t
        return pack_bits(
            np.array(vals, dtype=np.uint64), np.array(nbits, dtype=np.int64)
        )

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        total = len(payload) * 8
        if width + count - 1 > total:  # every record is at least one bit
            raise ValueError(f"count {count} exceeds what {len(payload)} Gorilla bytes hold")
        # parse only: find where each record starts from the 13 header bits
        # there (read through a 32-bit window) and the stored window width
        buf = bytes(payload) + bytes(4)
        from_bytes = int.from_bytes
        starts = [0] * count
        pos = width
        mlen = width
        for i in range(1, count):
            starts[i] = pos
            head = from_bytes(buf[pos >> 3 : (pos >> 3) + 4], "big") >> (19 - (pos & 7)) & 0x1FFF
            if head < 0x1000:  # 0: the value repeats
                pos += 1
            elif head < 0x1800:  # 10: the stored window
                pos += 2 + mlen
            else:  # 11 | lz:5 | mlen:6 (64 stored as 0), a new window
                mlen = head & 63 or 64
                pos += 13 + mlen
        if pos > total:
            raise ValueError("Gorilla stream truncated")
        return _values(payload, width, np.array(starts))


def _values(payload: bytes, width: int, starts: np.ndarray) -> np.ndarray:
    """Rebuild the values from the record start bits found by the parse."""
    u = np.uint64
    head = read_bits_at(payload, starts, 13).astype(np.int64)
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
    x = read_bits_at(payload, starts + np.where(new_window, 13, 2), np.where(meaningful, mlen, 0))
    x = x << tz.astype(u)
    x[0] = int.from_bytes(payload[: width // 8], "big")
    return np.bitwise_xor.accumulate(x)
