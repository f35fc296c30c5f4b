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
all emitted fields in one vectorized ``pack_bits``. Decode is the
sequential BitReader walk the format requires. Gorilla is serial in the
original too — this is the class of method the paper finds slowest.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import BitReader, leading_zeros, pack_bits, trailing_zeros

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
        r = BitReader(payload)
        out = np.empty(count, dtype=np.uint64)
        prev = r.read(width)
        out[0] = prev
        prev_lz = prev_tz = 0
        read = r.read
        for i in range(1, count):
            if read(1) == 0:
                out[i] = prev
                continue
            if read(1) == 0:  # reuse previous window
                mlen = width - prev_lz - prev_tz
                x = read(mlen) << prev_tz
            else:
                lz = read(5)
                mlen = read(6)
                if mlen == 0:  # 64 is stored as 0 (6-bit field); mlen >= 1 always
                    mlen = 64
                tz = width - lz - mlen
                x = read(mlen) << tz
                prev_lz, prev_tz = lz, tz
            prev ^= x
            out[i] = prev
        return out
