"""Greedy hash-table LZ77 with an LZ4-style token format and skip acceleration.

This is the dictionary-coding substrate standing in for the external LZ4
library (bitshuffle::LZ4, nvCOMP::LZ4) and for SPDP's LZa6 component, which
is itself described as "a fast variant of LZ77" (§3.2). The format is
LZ4-like:

    sequence := token [lit-len ext*] literals [offset u16le [match-len ext*]]
    token    := (literal_len:4 | match_len-4:4), 15 in a nibble = extended
    ext      := 255-continuation bytes, final byte < 255

The last sequence carries literals only (stream ends after them), exactly
like the LZ4 block format. Offsets are bounded by a 64 KiB window.

Pure Python by design — the container has no LZ4/zstd wheels and no
network; see DESIGN.md substitution #2. Skip acceleration (step grows on
successive misses) keeps throughput tolerable on incompressible float data.
"""
from __future__ import annotations

from typing import Callable

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
_SKIP_TRIGGER = 6  # the search step grows by one every 2**6 misses


def _write_varnib(out: bytearray, v: int) -> None:
    """Write the extension bytes for a nibble value of 15 (LZ4 style)."""
    v -= 15
    while v >= 255:
        out.append(255)
        v -= 255
    out.append(v)


def lz_compress(data: bytes) -> bytes:
    """Compress ``data``; always round-trips through :func:`lz_decompress`."""
    data = bytes(data)
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    table: dict[bytes, int] = {}
    anchor = 0
    i = 0
    search = 1 << _SKIP_TRIGGER
    while i < n - _MIN_MATCH:
        key = data[i : i + 4]
        j = table.get(key, -1)
        table[key] = i
        if j >= 0 and i - j <= _MAX_OFFSET:
            # extend the guaranteed 4-byte match (8-byte strides, then bytes)
            l = 4
            maxl = n - i
            while l + 8 <= maxl and data[i + l : i + l + 8] == data[j + l : j + l + 8]:
                l += 8
            while l < maxl and data[i + l] == data[j + l]:
                l += 1
            _emit(out, data, anchor, i, i - j, l)
            i += l
            anchor = i
            search = 1 << _SKIP_TRIGGER
        else:
            i += search >> _SKIP_TRIGGER
            search += 1
    # final literal-only sequence
    ll = n - anchor
    token = min(ll, 15) << 4
    out.append(token)
    if ll >= 15:
        _write_varnib(out, ll)
    out += data[anchor:n]
    return bytes(out)


def _emit(out: bytearray, data: bytes, anchor: int, i: int, off: int, mlen: int) -> None:
    ll = i - anchor
    ml = mlen - _MIN_MATCH
    out.append((min(ll, 15) << 4) | min(ml, 15))
    if ll >= 15:
        _write_varnib(out, ll)
    out += data[anchor:i]
    out += off.to_bytes(2, "little")
    if ml >= 15:
        _write_varnib(out, ml)


def lz_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`lz_compress`."""
    blob = bytes(blob)
    n = len(blob)
    out = bytearray()
    p = 0
    while p < n:
        token = blob[p]
        p += 1
        ll = token >> 4
        if ll == 15:
            while True:
                b = blob[p]
                p += 1
                ll += b
                if b < 255:
                    break
        out += blob[p : p + ll]
        p += ll
        if p >= n:  # final literal-only sequence
            break
        off = int.from_bytes(blob[p : p + 2], "little")
        p += 2
        ml = (token & 0xF) + _MIN_MATCH
        if (token & 0xF) == 15:
            while True:
                b = blob[p]
                p += 1
                ml += b
                if b < 255:
                    break
        if not 0 < off <= len(out):
            raise ValueError(f"LZ77 match offset {off} outside the {len(out)} bytes decoded")
        start = len(out) - off
        # an overlapping copy repeats the last ``off`` bytes: append all
        # that lies past ``start``, doubling it, until the rest fits
        while ml > off:
            out += out[start:]
            ml -= off
            off *= 2
        out += out[start : start + ml]
    return bytes(out)


def frame_chunks(data: bytes, size: int, compress: Callable[[bytes], bytes]) -> bytes:
    """Compress ``data`` in independent ``size``-byte chunks.

    Each compressed chunk is prefixed by its u32 little-endian length.
    Empty ``data`` still yields one (empty) chunk.
    """
    out = bytearray()
    for off in range(0, max(len(data), 1), size):
        comp = compress(data[off : off + size])
        out += len(comp).to_bytes(4, "little")
        out += comp
    return bytes(out)


def unframe_chunks(payload: bytes, decompress: Callable[[bytes], bytes]) -> bytes:
    """Inverse of :func:`frame_chunks`: the decompressed chunks, concatenated."""
    out = bytearray()
    p = 0
    while p < len(payload):
        clen = int.from_bytes(payload[p : p + 4], "little")
        p += 4
        out += decompress(payload[p : p + clen])
        p += clen
    return bytes(out)
