"""BUFF — decomposed bounded floats (§3.3, Liu et al. VLDB 2021).

Workflow: split each value into integer and fractional parts, keep only
the mantissa bits the target decimal precision needs (Table 2), subtract
the minimum, and store the fixed-width results byte-padded as
*sub-columns* (byte 0 of every value contiguous, then byte 1, …), the
layout BUFF evaluates predicates on without decoding. FCBench measures
compression only, so no query on the encoded bytes is implemented here.

Lossless operation requires the data's decimal precision: the encoder
scans for the smallest precision 0–10 that represents every value
exactly and verifies bit-exact reconstruction before committing. Inputs
that exceed precision 10 fall back to verbatim storage (CR slightly
below 1 — the sub-1.0 BUFF entries of Table 4), and non-finite values
raise :class:`CodecFailure` (the paper's "-" entries: BUFF cannot bound
NaN/Inf). Value-range outliers widen every record, the sensitivity noted
in §3.3 Insights.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, CodecFailure
from repro.core.bitio import bit_length_u64
from repro.core.floatmap import from_words, to_words

#: Table 2 of the paper — fraction bits needed per decimal precision,
#: i.e. ceil(log2(10^p)) + 1 (precision 0 = integer data needs none).
BITS_FOR_PRECISION = {0: 0, 1: 5, 2: 8, 3: 11, 4: 15, 5: 18, 6: 21, 7: 25, 8: 28, 9: 31, 10: 35}

_RAW, _PACKED = 0, 1


def _detect_precision(x: np.ndarray) -> int | None:
    top = float(np.max(np.abs(x), initial=0.0))
    for p in range(0, 11):
        # no later p fits the encoder's 2^62 bound (2^f ≥ 10^p): stop before overflow
        if top * 10.0**p >= 2.0**62:
            return None
        r = np.round(x, p)
        if np.array_equal(r, x):  # bitwise-equal for floats without NaN
            return p
    return None


class BUFF(Codec):
    def _encode(self, words: np.ndarray, dims) -> bytes:
        dtype = np.float32 if words.dtype.itemsize == 4 else np.float64
        x = from_words(words, dtype)
        if x.size == 0:
            return b""
        if not np.all(np.isfinite(x)):
            raise CodecFailure("BUFF cannot bound non-finite values")
        xd = x.astype(np.float64)
        # detect precision in the source dtype so e.g. float32 decimals
        # (whose float64 image is not round(p)-stable) are still caught
        p = _detect_precision(x)
        if p is not None:
            f = BITS_FOR_PRECISION[p]
            scale = float(1 << f) if f else 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                q = np.rint(xd * scale)
            if np.all(np.abs(q) < 2**62):
                qi = q.astype(np.int64)
                qmin = int(qi.min())
                delta = (qi - qmin).astype(np.uint64)
                wbits = int(bit_length_u64(np.array([delta.max()], np.uint64))[0])
                k = max(1, (wbits + 7) // 8)
                rec = self._reconstruct(delta, qmin, f, p, dtype)
                # bit-exactness exceptions (e.g. -0.0, whose sign the
                # scale-round path cannot carry) are patched verbatim;
                # only a handful are tolerated before falling back to raw
                exc = np.flatnonzero(to_words(rec) != words)
                if exc.size <= max(16, x.size // 64):
                    # the low k bytes of each value, most significant first
                    cols = delta.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - k :]
                    header = bytes([_PACKED, p, f, k]) + np.int64(qmin).tobytes()
                    patch = (
                        np.uint32(exc.size).tobytes()
                        + exc.astype(np.uint32).tobytes()
                        + np.ascontiguousarray(words[exc]).tobytes()
                    )
                    # column-major sub-columns; a contiguous copy, as tobytes
                    # of the transposed view takes several times longer
                    return header + patch + np.ascontiguousarray(cols.T).tobytes()
        # verbatim fallback: full-precision data BUFF cannot bound losslessly
        return bytes([_RAW, 0, 0, 0]) + b"\x00" * 8 + np.ascontiguousarray(words).tobytes()

    @staticmethod
    def _reconstruct(delta: np.ndarray, qmin: int, f: int, p: int, dtype) -> np.ndarray:
        q = delta.astype(np.int64) + qmin
        v = q.astype(np.float64) / (float(1 << f) if f else 1.0)
        return np.round(v, p).astype(dtype)

    def _decode(self, payload, wdt, count, dims):
        if len(payload) < 12:
            raise ValueError(f"BUFF payload of {len(payload)} bytes is shorter than its header")
        mode, p, f, k = payload[0], payload[1], payload[2], payload[3]
        if mode == _RAW:
            return np.frombuffer(payload, dtype=wdt, count=count, offset=12)
        qmin = int(np.frombuffer(payload, np.int64, 1, 4)[0])
        nexc = int(np.frombuffer(payload, np.uint32, 1, 12)[0])
        exc_idx = np.frombuffer(payload, np.uint32, nexc, 16).astype(np.int64)
        if nexc and exc_idx.max() >= count:
            raise ValueError(f"BUFF patch index {exc_idx.max()} is past the {count} values")
        exc_words = np.frombuffer(payload, wdt, nexc, 16 + 4 * nexc)
        data_off = 16 + (4 + wdt.itemsize) * nexc
        if not 1 <= k <= 8:
            raise ValueError(f"BUFF sub-column count {k} is not 1-8")
        cols = np.frombuffer(payload, np.uint8, count * k, data_off).reshape(k, count)
        be = np.zeros((count, 8), dtype=np.uint8)
        for j in range(k):  # by sub-column: one 2-D transposed copy takes ~3x longer
            be[:, 8 - k + j] = cols[j]
        delta = be.view(">u8").reshape(-1)
        rec = self._reconstruct(delta, qmin, f, p, np.dtype(f"f{wdt.itemsize}"))
        out = to_words(rec).copy()
        out[exc_idx] = exc_words
        return out

