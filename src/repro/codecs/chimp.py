"""Chimp (Chimp128) — time-series float compressor (§3.5, VLDB 2022).

Redesign of Gorilla's control codes plus a 128-value sliding window: an
index keyed on the 14 low bits of each value proposes the previous value
whose XOR yields the most trailing zeros. Control codes:

* ``00`` — XOR with the indexed previous value is zero: store the 7-bit
  window index only;
* ``01`` — indexed previous value, trailing zeros > threshold: store
  7-bit index, 3-bit rounded leading-zero code, 6-bit center length, and
  the center bits (XOR with its trailing zeros stripped);
* ``10`` — XOR with the *immediately* previous value whose leading-zero
  count matches the stored one: store the (width − lz) low bits directly;
* ``11`` — same but a new 3-bit leading-zero code precedes the bits.

Leading zeros are rounded down to {0,8,12,16,18,20,22,24} as in Chimp.
The sliding-window search is what buys Chimp its ratio over Gorilla at
the cost of compression throughput (§3.5 Insights) — visible here too,
since the index maintenance runs per value.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import BitReader, leading_zeros, pack_bits, trailing_zeros

_PREV = 128  # window size (Chimp128)
_PREV_LOG = 7
_KEY_BITS = 14
_THRESHOLD = 6 + _PREV_LOG
_LEAD_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]


def _round_lead(lz: int) -> int:
    """3-bit code of the largest table entry <= lz."""
    code = 0
    for i, v in enumerate(_LEAD_ROUND):
        if lz >= v:
            code = i
    return code


@register
class Chimp(Codec):
    info = MethodInfo(
        name="Chimp", year=2022, domain="Database", precision="S,D", arch="CPU",
        parallel="serial", trait="delta", group="dictionary",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w_arr = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w_arr.size
        if n == 0:
            return b""
        w = w_arr.tolist()
        key_mask = (1 << _KEY_BITS) - 1
        indices = [-(10**9)] * (1 << _KEY_BITS)
        stored = [0] * _PREV
        vals: list[int] = [w[0]]
        nbits: list[int] = [width]
        indices[w[0] & key_mask] = 0
        stored[0] = w[0]
        stored_lz = -1
        for i in range(1, n):
            v = w[i]
            key = v & key_mask
            cand_idx = indices[key]
            if i - cand_idx < _PREV:
                cand = stored[cand_idx % _PREV]
                x = v ^ cand
                tz = (x & -x).bit_length() - 1 if x else width
            else:
                cand_idx = i - 1
                cand = stored[cand_idx % _PREV]
                x = v ^ cand
                tz = 0
            if x == 0:
                # 00 | index:7
                vals.append((0b00 << _PREV_LOG) | (cand_idx % _PREV))
                nbits.append(2 + _PREV_LOG)
                stored_lz = -1
            elif tz > _THRESHOLD:
                # 01 | index:7 | lead:3 | center_len:6 | center bits
                # (head and payload are separate pack entries; fused they
                # could exceed pack_bits' 64-bit word)
                lz = _LEAD_ROUND[_round_lead(width - x.bit_length())]
                center = x >> tz
                clen = width - lz - tz
                head = (0b01 << _PREV_LOG | (cand_idx % _PREV)) << 3 | _round_lead(
                    width - x.bit_length()
                )
                vals.append((head << 6) | (clen & 63))
                nbits.append(2 + _PREV_LOG + 3 + 6)
                vals.append(center)
                nbits.append(clen)
                stored_lz = -1
            else:
                prev = stored[(i - 1) % _PREV]
                x = v ^ prev
                if x == 0:
                    vals.append((0b00 << _PREV_LOG) | ((i - 1) % _PREV))
                    nbits.append(2 + _PREV_LOG)
                    stored_lz = -1
                else:
                    lz = _LEAD_ROUND[_round_lead(width - x.bit_length())]
                    blen = width - lz
                    if lz == stored_lz:
                        # 10 | bits
                        vals.append(0b10)
                        nbits.append(2)
                    else:
                        # 11 | lead:3 | bits
                        vals.append(0b11 << 3 | _round_lead(lz))
                        nbits.append(2 + 3)
                        stored_lz = lz
                    vals.append(x)
                    nbits.append(blen)
            idx = i % _PREV
            stored[idx] = v
            indices[key] = i
        return pack_bits(
            np.array(vals, dtype=np.uint64), np.array(nbits, dtype=np.int64)
        )

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        r = BitReader(payload)
        read = r.read
        out = np.empty(count, dtype=np.uint64)
        stored = [0] * _PREV
        first = read(width)
        out[0] = first
        stored[0] = first
        stored_lz = -1
        for i in range(1, count):
            flag = read(2)
            if flag == 0b00:
                idx = read(_PREV_LOG)
                v = stored[idx]
                stored_lz = -1
            elif flag == 0b01:
                idx = read(_PREV_LOG)
                lz = _LEAD_ROUND[read(3)]
                clen = read(6)
                if clen == 0:
                    clen = 64
                tz = width - lz - clen
                x = read(clen) << tz
                v = stored[idx] ^ x
                stored_lz = -1
            elif flag == 0b10:
                blen = width - stored_lz
                x = read(blen)
                v = stored[(i - 1) % _PREV] ^ x
            else:
                stored_lz = _LEAD_ROUND[read(3)]
                blen = width - stored_lz
                x = read(blen)
                v = stored[(i - 1) % _PREV] ^ x
            out[i] = v
            stored[i % _PREV] = v
        return out
