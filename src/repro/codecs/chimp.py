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
the cost of compression throughput (§3.5 Insights). Here the encoder is
vectorized: a stable sort by key gives every value its index candidate,
and the stored leading-zero count only depends on the previous value's
record. Decode walks only the record headers in Python, to find where
each record starts; vectorized reads then extract every field, and
pointer jumping along each value's reference (the previous value or a
window slot) rebuilds the values.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import bit_length_u64, pack_bits, read_bits_at, trailing_zeros

_PREV = 128  # window size (Chimp128)
_PREV_LOG = 7
_KEY_BITS = 14
_THRESHOLD = 6 + _PREV_LOG
_LEAD_ROUND = np.array([0, 8, 12, 16, 18, 20, 22, 24])
_MIN_RECORD_BITS = 2 + _PREV_LOG  # the shortest record is ``00 | index``


def _round_lead(lz: np.ndarray) -> np.ndarray:
    """3-bit code of the largest table entry <= lz."""
    return np.searchsorted(_LEAD_ROUND, lz, side="right") - 1


@register
class Chimp(Codec):
    info = MethodInfo(
        name="Chimp", year=2022, domain="Database", precision="S,D", arch="CPU",
        parallel="serial", trait="delta", group="dictionary",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        i = np.arange(n)
        # the index's candidate: the latest earlier value with the same key
        key = w & np.uint64((1 << _KEY_BITS) - 1)
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]
        last_same = np.full(n, -1)
        last_same[order[1:][same]] = order[:-1][same]
        in_window = (last_same >= 0) & (i - last_same < _PREV)
        cand = np.where(in_window, last_same, i - 1)
        x = w ^ w[cand]  # value 0's fields are garbage, set raw below
        tz = np.where(in_window, trailing_zeros(x, width), 0)
        x_prev = w ^ w[i - 1]
        center = (x != 0) & (tz > _THRESHOLD)
        xor = (x != 0) & ~center & (x_prev != 0)
        center[0] = xor[0] = False
        slot = np.where((x == 0) | center, cand, i - 1) % _PREV
        center_lead = _round_lead(width - bit_length_u64(x))
        xor_lead = _round_lead(width - bit_length_u64(x_prev))
        # value i reuses the stored leading-zero count iff value i-1 took
        # 10/11, which stores it, and both round to the same count
        reuse = xor & np.concatenate(([False], xor[:-1])) & (
            xor_lead == np.concatenate(([-1], xor_lead[:-1]))
        )
        clen = width - _LEAD_ROUND[center_lead] - tz
        # two fields per value: the control bits, then the value bits
        # (fused they could exceed pack_bits' 64-bit field)
        u = np.uint64
        head = np.select(
            [center, reuse, xor],
            [
                (((0b01 << _PREV_LOG | slot) << 3 | center_lead) << 6) | (clen & 63),
                0b10,
                0b11 << 3 | xor_lead,
            ],
            slot,  # 00 | index: the XOR with a window value is zero
        ).astype(u)
        head_bits = np.select([center, reuse, xor], [2 + _PREV_LOG + 3 + 6, 2, 2 + 3], 2 + _PREV_LOG)
        body = np.where(center, x >> tz.astype(u), np.where(xor, x_prev, u(0)))
        body_bits = np.where(center, clen, np.where(xor, width - _LEAD_ROUND[xor_lead], 0))
        head[0], head_bits[0], body[0], body_bits[0] = w[0], width, 0, 0
        return pack_bits(
            np.stack([head, body], axis=1).reshape(-1),
            np.stack([head_bits, body_bits], axis=1).reshape(-1),
        )

    def _decode(self, payload, wdt, count, dims):
        width = wdt.itemsize * 8
        total = len(payload) * 8
        if width + (count - 1) * _MIN_RECORD_BITS > total:
            raise ValueError(f"count {count} exceeds what {len(payload)} Chimp bytes hold")
        # parse only: find where each record starts from the 18 header bits
        # there (read through a 32-bit window) and the stored count
        buf = bytes(payload) + bytes(4)
        from_bytes = int.from_bytes
        lead = _LEAD_ROUND.tolist()
        starts = [0] * count
        pos = width
        body = -1  # value bits of a 10 record, set by the latest 11 record
        for i in range(1, count):
            starts[i] = pos
            head = from_bytes(buf[pos >> 3 : (pos >> 3) + 4], "big") >> (14 - (pos & 7)) & 0x3FFFF
            if head < 0x10000:  # 00 | index
                pos += 9
                body = -1
            elif head < 0x20000:  # 01 | index | lead | center_len | center
                pos += 18 + (head & 63 or 64)
                body = -1
            elif head < 0x30000:  # 10 | bits
                if body < 0:
                    raise ValueError("corrupt Chimp stream: 10 record without a stored count")
                pos += 2 + body
            else:  # 11 | lead | bits
                body = width - lead[head >> 13 & 7]
                pos += 5 + body
        if pos > total:
            raise ValueError("Chimp stream truncated")
        return _values(payload, width, np.array(starts))


def _values(payload: bytes, width: int, starts: np.ndarray) -> np.ndarray:
    """Rebuild the values from the record start bits found by the parse."""
    n = starts.size
    i = np.arange(n)
    head = read_bits_at(payload, starts, 18).astype(np.int64)
    flag = head >> 16
    flag[0] = -1  # the first value, stored raw
    # value i = value[ref[i]] ^ x[i]; ref is i-1, or for 00/01 the absolute
    # index of the window slot
    slot = head >> 9 & (_PREV - 1)
    windowed = (flag == 0b00) | (flag == 0b01)
    ref = np.where(windowed, i - 1 - (i - 1 - slot) % _PREV, i - 1)
    clen = np.where(head & 63, head & 63, 64)
    tz = np.where(flag == 0b01, width - _LEAD_ROUND[head >> 6 & 7] - clen, 0)
    if (ref[1:] < 0).any() or (tz < 0).any():
        raise ValueError("corrupt Chimp stream: bad window index or center width")
    # a 10 record has the value width of the latest 11 record
    new_lead = flag == 0b11
    latest = np.maximum.accumulate(np.where(new_lead, i, 0))
    xor_bits = np.where(new_lead, width - _LEAD_ROUND[head >> 13 & 7], 0)[latest]
    body_bits = np.select([flag == 0b01, flag >= 0b10], [clen, xor_bits], 0)
    body_at = starts + np.select([flag == 0b01, flag == 0b10, flag == 0b11], [18, 2, 5], 0)
    x = read_bits_at(payload, body_at, body_bits) << tz.astype(np.uint64)
    x[0] = int.from_bytes(payload[: width // 8], "big")
    ref[0] = n  # the root points at a zero sentinel
    return _xor_chain(x, ref)


def _xor_chain(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``out[i] = out[ref[i]] ^ x[i]`` with ``ref[i] < i``, ``ref[root] = n``.

    Pointer jumping: after k rounds each entry holds the XOR of its 2**k
    nearest ancestors, so a chain of length n takes log2(n) rounds.
    """
    n = x.size
    acc = np.append(x, np.uint64(0))
    ptr = np.append(ref, n)
    while ptr.min() < n:
        acc ^= acc[ptr]
        ptr = ptr[ptr]
    return acc[:n]
