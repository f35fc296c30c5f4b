"""BUFF — decomposed bounded floats (§3.3, Liu et al. VLDB 2021).

Workflow: split each value into integer and fractional parts, keep only
the mantissa bits the target decimal precision needs (Table 2), subtract
the minimum, and store the fixed-width results byte-padded as
*sub-columns* (byte 0 of every value contiguous, then byte 1, …), which
enables predicate evaluation directly on the encoded bytes with
early-exit per sub-column (the paper's 35–50× selective-filter speedup).

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

from repro.codecs.base import Codec, CodecFailure, MethodInfo, parse_envelope, register
from repro.core.bitio import bit_length_u64
from repro.core.floatmap import from_words, to_words

#: Table 2 of the paper — fraction bits needed per decimal precision,
#: i.e. ceil(log2(10^p)) + 1 (precision 0 = integer data needs none).
BITS_FOR_PRECISION = {0: 0, 1: 5, 2: 8, 3: 11, 4: 15, 5: 18, 6: 21, 7: 25, 8: 28, 9: 31, 10: 35}

_RAW, _PACKED = 0, 1


def _detect_precision(x: np.ndarray) -> int | None:
    for p in range(0, 11):
        r = np.round(x, p)
        if np.array_equal(r, x):  # bitwise-equal for floats without NaN
            return p
    return None


@register
class BUFF(Codec):
    info = MethodInfo(
        name="BUFF", year=2021, domain="Database", precision="S,D", arch="CPU",
        parallel="serial", trait="delta", group="delta",
    )

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
                    cols = np.empty((x.size, k), dtype=np.uint8)
                    for j in range(k):  # big-endian sub-columns
                        cols[:, j] = (delta >> np.uint64(8 * (k - 1 - j))).astype(np.uint8)
                    header = bytes([_PACKED, p, f, k]) + np.int64(qmin).tobytes()
                    patch = (
                        np.uint32(exc.size).tobytes()
                        + exc.astype(np.uint32).tobytes()
                        + np.ascontiguousarray(words[exc]).tobytes()
                    )
                    return header + patch + cols.T.tobytes()  # column-major sub-columns
        # verbatim fallback: full-precision data BUFF cannot bound losslessly
        return bytes([_RAW, 0, 0, 0]) + b"\x00" * 8 + np.ascontiguousarray(words).tobytes()

    @staticmethod
    def _reconstruct(delta: np.ndarray, qmin: int, f: int, p: int, dtype) -> np.ndarray:
        q = delta.astype(np.int64) + qmin
        v = q.astype(np.float64) / (float(1 << f) if f else 1.0)
        return np.round(v, p).astype(dtype)

    def _decode(self, payload, wdt, count, dims):
        mode, p, f, k = payload[0], payload[1], payload[2], payload[3]
        if mode == _RAW:
            return np.frombuffer(payload, dtype=wdt, count=count, offset=12)
        qmin = int(np.frombuffer(payload, np.int64, 1, 4)[0])
        nexc = int(np.frombuffer(payload, np.uint32, 1, 12)[0])
        exc_idx = np.frombuffer(payload, np.uint32, nexc, 16).astype(np.int64)
        exc_words = np.frombuffer(payload, wdt, nexc, 16 + 4 * nexc)
        data_off = 16 + (4 + wdt.itemsize) * nexc
        delta = self._gather(payload, count, k, data_off)
        rec = self._reconstruct(delta, qmin, f, p, np.dtype(f"f{wdt.itemsize}"))
        out = to_words(rec).copy()
        out[exc_idx] = exc_words
        return out

    @staticmethod
    def _gather(payload: bytes, count: int, k: int, off: int = 12) -> np.ndarray:
        cols = np.frombuffer(payload, np.uint8, count * k, off).reshape(k, count)
        delta = np.zeros(count, dtype=np.uint64)
        for j in range(k):
            delta |= cols[j].astype(np.uint64) << np.uint64(8 * (k - 1 - j))
        return delta

    # --- query on encoded data (the paper's byte-column pattern match) ---
    def query_eq(self, blob: bytes, value: float) -> np.ndarray:
        """Evaluate ``x == value`` directly on sub-columns with early skip."""
        mask, cols, target = self._query_setup(blob, value)
        if mask is None:
            return cols  # raw-mode fallback already produced the answer
        for j in range(cols.shape[0]):  # sub-column at a time, skipping
            alive = np.flatnonzero(mask)
            if alive.size == 0:
                break
            mask[alive] = cols[j, alive] == target[j]
        return mask

    def query_le(self, blob: bytes, value: float) -> np.ndarray:
        """Evaluate ``x <= value`` on the big-endian sub-columns."""
        setup = self._query_setup(blob, value, allow_oob="le")
        mask, cols, target = setup
        if mask is None:
            return cols
        n = cols.shape[1]
        lt = np.zeros(n, dtype=bool)
        eq = np.ones(n, dtype=bool)
        for j in range(cols.shape[0]):  # lexicographic compare, short-circuit
            alive = eq & ~lt
            lt[alive] = cols[j, alive] < target[j]
            eq[alive] &= cols[j, alive] == target[j]
        return lt | eq

    def _query_setup(self, blob: bytes, value: float, allow_oob: str = "eq"):
        dtype, count, _, payload = parse_envelope(blob)
        if count == 0 or payload[0] == _RAW:  # nothing packed: decode and compare
            arr = self.decompress(blob)
            op = np.equal if allow_oob == "eq" else np.less_equal
            return None, op(arr, np.array(value).astype(dtype)), None
        f, k = payload[2], payload[3]
        qmin = int(np.frombuffer(payload, np.int64, 1, 4)[0])
        nexc = int(np.frombuffer(payload, np.uint32, 1, 12)[0])
        data_off = 16 + (4 + dtype.itemsize) * nexc
        cols = np.frombuffer(payload, np.uint8, count * k, data_off).reshape(k, count)
        scale = float(1 << f) if f else 1.0
        qv = int(np.rint(value * scale)) - qmin
        limit = (1 << (8 * k)) - 1
        if qv < 0 or qv > limit:  # out of encoded range
            full = np.zeros(count, dtype=bool)
            if allow_oob == "le" and qv > limit:
                full[:] = True
            return None, full, None
        target = np.array(
            [(qv >> (8 * (k - 1 - j))) & 0xFF for j in range(k)], dtype=np.uint8
        )
        return np.ones(count, dtype=bool), cols, target
