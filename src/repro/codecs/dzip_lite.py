"""Dzip-lite — stand-in for the RNN-based Dzip compressor (§4.5).

Dzip trains recurrent models to predict the conditional distribution of
each symbol and arithmetic-codes it. PyTorch is unavailable offline, and
the paper itself excludes Dzip from every result table because its KB/s
throughput "is still not practical" — so this stand-in keeps only the
architectural essence: an **adaptive order-1 context model** (the
learned-predictor substitute, updated online exactly like Dzip's
bootstrap model is trained in one pass during both encode and decode)
driving a **CACM-style arithmetic coder**. It is evaluated only in unit
tests and a tiny throughput demo that reproduces the KB/s observation
(DESIGN.md substitution #5).
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register

_TOP = 1 << 32
_HALF = 1 << 31
_QUARTER = 1 << 30
_MAX_TOTAL = 1 << 16


class _Model:
    """Adaptive order-1 byte model with periodic halving."""

    def __init__(self) -> None:
        self.counts = np.ones((256, 256), dtype=np.int64)

    def dist(self, ctx: int) -> tuple[np.ndarray, int]:
        c = self.counts[ctx]
        cum = np.concatenate([[0], np.cumsum(c)])
        return cum, int(cum[-1])

    def update(self, ctx: int, sym: int) -> None:
        self.counts[ctx, sym] += 32
        if self.counts[ctx].sum() >= _MAX_TOTAL:
            self.counts[ctx] = (self.counts[ctx] + 1) // 2


class _BitWriter:
    def __init__(self) -> None:
        self.bits: list[int] = []

    def put(self, bit: int, pending: int) -> None:
        self.bits.append(bit)
        self.bits.extend([bit ^ 1] * pending)

    def getvalue(self) -> bytes:
        arr = np.array(self.bits, dtype=np.uint8)
        return np.packbits(arr).tobytes() if arr.size else b""


@register
class DzipLite(Codec):
    info = MethodInfo(
        name="Dzip", year=2021, domain="general", precision="S,D", arch="GPU",
        parallel="SIMT", trait="prediction", group="dictionary",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        data = np.ascontiguousarray(words).view(np.uint8).tolist()
        model = _Model()
        out = _BitWriter()
        low, high, pending = 0, _TOP - 1, 0
        ctx = 0
        for sym in data:
            cum, total = model.dist(ctx)
            span = high - low + 1
            high = low + span * int(cum[sym + 1]) // total - 1
            low = low + span * int(cum[sym]) // total
            while True:
                if high < _HALF:
                    out.put(0, pending)
                    pending = 0
                elif low >= _HALF:
                    out.put(1, pending)
                    pending = 0
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < 3 * _QUARTER:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
            model.update(ctx, sym)
            ctx = sym
        pending += 1
        out.put(0 if low < _QUARTER else 1, pending)
        return out.getvalue()

    def _decode(self, payload, wdt, count, dims):
        nbytes = count * wdt.itemsize
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).tolist()
        bits += [0] * 64  # zero padding past the stream end
        model = _Model()
        low, high = 0, _TOP - 1
        value = 0
        pos = 0
        for _ in range(32):
            value = (value << 1) | bits[pos]
            pos += 1
        out = bytearray()
        ctx = 0
        for _ in range(nbytes):
            cum, total = model.dist(ctx)
            span = high - low + 1
            scaled = ((value - low + 1) * total - 1) // span
            sym = int(np.searchsorted(cum, scaled, side="right")) - 1
            high = low + span * int(cum[sym + 1]) // total - 1
            low = low + span * int(cum[sym]) // total
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    low -= _HALF
                    high -= _HALF
                    value -= _HALF
                elif low >= _QUARTER and high < 3 * _QUARTER:
                    low -= _QUARTER
                    high -= _QUARTER
                    value -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
                value = (value << 1) | bits[pos]
                pos += 1
            model.update(ctx, sym)
            out.append(sym)
            ctx = sym
        return np.frombuffer(bytes(out), dtype=wdt, count=count)
