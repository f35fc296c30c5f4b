"""pFPC — parallel FCM/DFCM prediction compressor (§3.6, Burtscher 2009).

Workflow per chunk ("thread" in the original — the data is partitioned
into chunks distributed across pthreads, default 8):

1. Two hash-table predictors over the 64-bit value history: **FCM**
   (finite context) and **DFCM** (differential finite context).
2. The residual is the XOR of the actual value with whichever predictor
   was closer (more leading-zero bytes).
3. A 4-bit code per value: 1 bit selects the predictor, 3 bits encode the
   leading-zero-byte count (the rare count 4 is stored as 3, as in FPC,
   so 0–8 significant bytes fit a 3-bit field).
4. The non-zero residual bytes are copied verbatim.

pFPC is double-only; single-precision input is reinterpreted as 64-bit
words like the original does with raw streams. The hash-table recurrence
is inherently sequential, so each chunk runs a Python loop over native
ints (the original is serial per thread too). The chunks are independent,
but nothing here runs them in parallel: the harness parallelizes across
(dataset, method) cells, and Tables 7/8 parallelize across fixed-size
chunks of one dataset, each compressed as a whole pFPC stream.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import pack_bits, unpack_bits
from repro.core.floatmap import as_u64_stream, u64_stream_to_words

_TBITS = 16  # 2^16-entry predictor tables, as FPC's default scale
_TSIZE = 1 << _TBITS
_TMASK = _TSIZE - 1
_M64 = (1 << 64) - 1


def _compress_chunk(vals: list[int]) -> tuple[list[int], list[int], list[int]]:
    """FCM/DFCM encode one chunk -> (codes, residuals, nzb per value)."""
    fcm = [0] * _TSIZE
    dfcm = [0] * _TSIZE
    fhash = dhash = 0
    last = 0
    codes: list[int] = []
    resids: list[int] = []
    nzbs: list[int] = []
    for v in vals:
        pf = fcm[fhash]
        pd = (dfcm[dhash] + last) & _M64
        xf = v ^ pf
        xd = v ^ pd
        if xf <= xd:
            sel, x = 0, xf
        else:
            sel, x = 1, xd
        nzb = (x.bit_length() + 7) >> 3
        if nzb == 4:  # FPC: count 4 is stored as 3 (writes one extra byte)
            nzb = 5
        lzb = 8 - nzb
        code = lzb if lzb < 4 else lzb - 1  # {0,1,2,3,5,6,7,8} -> 3 bits
        codes.append((sel << 3) | code)
        resids.append(x)
        nzbs.append(nzb)
        # table updates (FPC hash functions)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & _TMASK
        delta = (v - last) & _M64
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & _TMASK
        last = v
    return codes, resids, nzbs


def _decompress_chunk(codes: np.ndarray, resids: np.ndarray) -> np.ndarray:
    fcm = [0] * _TSIZE
    dfcm = [0] * _TSIZE
    fhash = dhash = 0
    last = 0
    out = []
    for c, x in zip(codes.tolist(), resids.tolist()):
        pf = fcm[fhash]
        pd = (dfcm[dhash] + last) & _M64
        v = x ^ (pd if (c >> 3) & 1 else pf)
        out.append(v)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & _TMASK
        delta = (v - last) & _M64
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & _TMASK
        last = v
    return np.array(out, dtype=np.uint64)


@register
class PFPC(Codec):
    info = MethodInfo(
        name="pFPC", year=2009, domain="HPC", precision="D", arch="CPU",
        parallel="threads", trait="prediction", group="delta",
    )

    def __init__(self, n_threads: int = 8) -> None:
        self.n_threads = n_threads

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = as_u64_stream(words)
        n = w.size
        if n == 0:
            return b""
        bounds = np.linspace(0, n, self.n_threads + 1).astype(np.int64)
        out = bytearray()
        out += np.uint32(self.n_threads).tobytes()
        vals = w.tolist()
        for t in range(self.n_threads):
            lo, hi = int(bounds[t]), int(bounds[t + 1])
            codes, resids, nzbs = _compress_chunk(vals[lo:hi])
            head = pack_bits(
                np.array(codes, dtype=np.uint64), np.full(len(codes), 4, np.int64)
            )
            body = pack_bits(
                np.array(resids, dtype=np.uint64), 8 * np.array(nzbs, dtype=np.int64)
            )
            out += np.uint64(hi - lo).tobytes()
            out += np.uint64(len(head)).tobytes()
            out += np.uint64(len(body)).tobytes()
            out += head
            out += body
        return bytes(out)

    def _decode(self, payload, wdt, count, dims):
        n = (count * wdt.itemsize + 7) // 8  # uint64 word count incl. padded tail
        nthreads = int(np.frombuffer(payload, np.uint32, 1)[0])
        p = 4
        parts = []
        total = 0
        for _ in range(nthreads):
            cn, hlen, blen = (int(x) for x in np.frombuffer(payload, np.uint64, 3, p))
            p += 24
            total += cn
            # 4-bit codes: hlen bytes hold at most 2 * hlen values
            if total > n or cn > 2 * hlen or p + hlen + blen > len(payload):
                raise ValueError(f"pFPC chunk of {cn} values does not fit count {count}")
            head = payload[p : p + hlen]
            body = payload[p + hlen : p + hlen + blen]
            p += hlen + blen
            codes = unpack_bits(head, np.full(cn, 4, np.int64)).astype(np.int64)
            lzb3 = (codes & 7).astype(np.int64)
            lzb = np.where(lzb3 >= 4, lzb3 + 1, lzb3)
            resids = unpack_bits(body, 8 * (8 - lzb))
            parts.append(_decompress_chunk(codes, resids))
        if total != n:
            raise ValueError(f"pFPC chunks hold {total} words, not the {n} of count {count}")
        stream = np.concatenate(parts)
        return u64_stream_to_words(stream, wdt, count)
