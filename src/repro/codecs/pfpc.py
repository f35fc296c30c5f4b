"""pFPC — parallel FCM/DFCM prediction compressor (§3.6, Burtscher 2009).

Workflow per chunk ("thread" in the original — the data is partitioned
into chunks distributed across pthreads, default 8):

1. Two hash-table predictors over the 64-bit value history: **FCM**
   (finite context) and **DFCM** (differential finite context).
2. The residual is the XOR of the actual value with whichever predictor
   was closer (more leading-zero bytes).
3. A 4-bit code per value: 1 bit selects the predictor, 3 bits encode the
   leading-zero-byte count (a residual of 4 significant bytes is stored
   with 5, as in FPC, so the counts 0–3 and 5–8 fit a 3-bit field).
4. The non-zero residual bytes are copied verbatim.

pFPC is double-only; single-precision input is reinterpreted as 64-bit
words like the original does with raw streams. The encoder is whole-array
NumPy: FPC's hashes are shift-XOR windows of the chunk's last 3 values
(FCM) and last 8 deltas (DFCM), so they follow from the input alone, and a
table read at hash ``h`` returns what the latest earlier position of the
chunk with hash ``h`` wrote (a stable sort by hash finds it). The decoder
is a Python loop over native ints, because there the hashes depend on the
decoded values (the original is serial per thread too). Each chunk starts
with empty tables: dicts for chunks under 2048 values, since a fresh
2**16-entry list costs as much as decoding a few hundred values, and lists
from there, which are faster per value. The chunks are
independent, but nothing here runs them in parallel: the harness
parallelizes across (dataset, method) cells, and Tables 7/8 parallelize
across fixed-size chunks of one dataset, each compressed as a whole pFPC
stream.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec
from repro.core.bitio import bit_length_u64, pack_bits, previous_same_key, unpack_bits
from repro.core.floatmap import as_u64_stream, u64_stream_to_words

_TBITS = 16  # 2^16-entry predictor tables, as FPC's default scale
_TSIZE = 1 << _TBITS
_TMASK = _TSIZE - 1
_M64 = (1 << 64) - 1
_LIST_TABLES_FROM = 2048


def _window_hash(terms: np.ndarray, local: np.ndarray, k_max: int, shift: int) -> np.ndarray:
    """FPC's shift-XOR hash before each value, from the chunk's earlier terms.

    ``h = ((h << shift) ^ term) & mask`` after every value makes the hash
    before value ``i`` the XOR of ``terms[i-k] << shift*(k-1)`` over the
    ``k_max`` terms that survive the mask, counting only those in the same
    chunk (``local`` is each value's index within its chunk).
    """
    h = np.zeros(terms.size, dtype=np.uint64)
    for k in range(1, k_max + 1):
        term = terms[:-k] << np.uint64(shift * (k - 1))
        h[k:] ^= np.where(local[k:] >= k, term, np.uint64(0))
    return (h & np.uint64(_TMASK)).astype(np.uint16)


def _table_read(hashes: np.ndarray, written: np.ndarray, chunk_start: np.ndarray) -> np.ndarray:
    """What a fresh 2**16-entry table per chunk, written ``written[j]`` at
    ``hashes[j]`` after each value, holds at ``hashes[i]`` before value ``i``.

    Chunks are contiguous, so an earlier write with the same hash lies in
    the same chunk iff it is at or after the chunk's first value.
    """
    prev = previous_same_key(hashes)
    return np.where(prev >= chunk_start, written[prev], np.uint64(0))


def _decompress_chunk(codes: np.ndarray, resids: np.ndarray) -> np.ndarray:
    """One chunk's values from its codes and residuals, with empty tables.

    A 2**16-entry list table is fastest to read and write but costs about
    0.1 ms to build and free (a reference count per entry), as much as
    decoding a few hundred values; a dict starts empty for free but costs
    more per value. Chunks shorter than ``_LIST_TABLES_FROM`` values use
    dicts.
    """
    use_dfcm = (codes >> 3 & 1).tolist()
    resids = resids.tolist()
    if len(resids) >= _LIST_TABLES_FROM:
        return np.array(_values_list_tables(use_dfcm, resids), dtype=np.uint64)
    return np.array(_values_dict_tables(use_dfcm, resids), dtype=np.uint64)


# The two loops below differ only in how a table is read. Each value reads
# only the selected predictor's table and writes both. Deltas stay signed:
# a prediction masks ``delta + last`` to 64 bits, and the hash takes bits
# 40-55, which are the same for ``delta`` and ``delta mod 2**64``.


def _values_list_tables(use_dfcm: list, resids: list) -> list:
    fcm, dfcm = [0] * _TSIZE, [0] * _TSIZE
    m64, tmask = _M64, _TMASK
    fhash = dhash = last = 0
    out = []
    append = out.append
    for d, x in zip(use_dfcm, resids):
        v = x ^ ((dfcm[dhash] + last) & m64) if d else x ^ fcm[fhash]
        append(v)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & tmask
        delta = v - last
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & tmask
        last = v
    return out


def _values_dict_tables(use_dfcm: list, resids: list) -> list:
    fcm, dfcm = {}, {}
    fget, dget = fcm.get, dfcm.get
    m64, tmask = _M64, _TMASK
    fhash = dhash = last = 0
    out = []
    append = out.append
    for d, x in zip(use_dfcm, resids):
        v = x ^ ((dget(dhash, 0) + last) & m64) if d else x ^ fget(fhash, 0)
        append(v)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & tmask
        delta = v - last
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & tmask
        last = v
    return out


class PFPC(Codec):
    def __init__(self, n_threads: int = 8) -> None:
        self.n_threads = n_threads

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = as_u64_stream(words)
        n = w.size
        if n == 0:
            return b""
        bounds = np.linspace(0, n, self.n_threads + 1).astype(np.int64)
        # the FCM/DFCM recurrences, whole-array: both hashes are windows of
        # the chunk's earlier values, so every table read is the value that
        # an earlier position with the same hash wrote
        chunk_start = np.repeat(bounds[:-1], np.diff(bounds))
        local = np.arange(n) - chunk_start
        last = np.concatenate(([np.uint64(0)], w[:-1]))
        last[local == 0] = 0
        delta = w - last
        pf = _table_read(_window_hash(w >> np.uint64(48), local, 3, 6), w, chunk_start)
        dhash = _window_hash(delta >> np.uint64(40), local, 8, 2)
        pd = _table_read(dhash, delta, chunk_start) + last
        xf, xd = w ^ pf, w ^ pd
        sel = xd < xf
        x = np.where(sel, xd, xf)
        nzb = (bit_length_u64(x).astype(np.int64) + 7) >> 3
        nzb[nzb == 4] = 5  # FPC: count 4 is stored as 5 (one extra byte)
        lzb = 8 - nzb
        codes = sel * 8 + np.where(lzb < 4, lzb, lzb - 1)  # {0,1,2,3,5,6,7,8} -> 3 bits
        out = bytearray()
        out += np.uint32(self.n_threads).tobytes()
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            head = pack_bits(codes[lo:hi], np.full(hi - lo, 4, np.int64))
            body = pack_bits(x[lo:hi], 8 * nzb[lo:hi])
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
