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

Pure Python by design — no LZ4/zstd bindings are assumed; see DESIGN.md
substitution #2. Skip acceleration (step grows on successive misses) keeps
throughput tolerable on incompressible float data.

Both loops have a fast path for the common sequence, whose literal run is
under 15 bytes and whose match is under 19, so it needs no extension
bytes: the encoder writes its token, literals and offset inline, and the
decoder copies no literals when there are none. Most matches on the
corpus stop at 4 bytes, so the encoder tests the fifth byte before it
extends a match by 8-byte strides. Sequences with extension bytes go
through ``_emit``; the bytes are those of the plain greedy parse.
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
    # the loop reads only locals: a global lookup per miss is measurable
    get = table.get
    put = out.append
    limit = n - _MIN_MATCH
    max_off = _MAX_OFFSET
    skip = _SKIP_TRIGGER
    reset = 1 << skip
    anchor = 0
    i = 0
    search = reset
    while i < limit:
        key = data[i : i + 4]
        j = get(key, -1)
        table[key] = i
        if j >= 0 and i - j <= max_off:
            # extend the guaranteed 4-byte match: most stop at 4, so test
            # the fifth byte before the 8-byte strides, then bytes
            l = 4
            if data[i + 4] == data[j + 4]:
                l = 5
                maxl = n - i
                while l + 8 <= maxl and data[i + l : i + l + 8] == data[j + l : j + l + 8]:
                    l += 8
                while l < maxl and data[i + l] == data[j + l]:
                    l += 1
            ll = i - anchor
            if ll < 15 and l < 19:
                # no length extension bytes: the token, literals, offset
                off = i - j
                put(ll << 4 | l - 4)
                if ll:
                    out += data[anchor:i]
                put(off & 0xFF)
                put(off >> 8)
            else:
                _emit(out, data, anchor, i, i - j, l)
            i += l
            anchor = i
            search = reset
        else:
            i += search >> skip
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
    """Write a sequence whose literal or match length needs extension bytes."""
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
    """Inverse of :func:`lz_compress`.

    Raises ``ValueError`` for a stream cut inside an offset or a length
    extension and for a match offset outside the bytes decoded so far.
    """
    blob = bytes(blob)
    n = len(blob)
    out = bytearray()
    p = 0
    try:  # no bounds check per byte: a cut stream indexes past its end
        while p < n:
            token = blob[p]
            p += 1
            ll = token >> 4
            if ll:  # most sequences carry no literals
                if ll == 15:
                    while True:
                        b = blob[p]
                        p += 1
                        ll += b
                        if b < 255:
                            break
                out += blob[p : p + ll]
                p += ll
            # outside ``if ll``: a zero-literal token may end the stream too
            if p >= n:  # final literal-only sequence
                break
            off = blob[p] | blob[p + 1] << 8  # u16le, read without a slice
            p += 2
            ml = (token & 0xF) + _MIN_MATCH
            if ml == 19:  # 15 in the match nibble: extension bytes follow
                while True:
                    b = blob[p]
                    p += 1
                    ml += b
                    if b < 255:
                        break
            size = len(out)
            if not 0 < off <= size:
                raise ValueError(f"LZ77 match offset {off} outside the {size} bytes decoded")
            start = size - off
            # an overlapping copy repeats the last ``off`` bytes: append all
            # that lies past ``start``, doubling it, until the rest fits
            while ml > off:
                out += out[start:]
                ml -= off
                off *= 2
            out += out[start : start + ml]
    except IndexError:
        raise ValueError("LZ77 stream ends inside an offset or a length extension") from None
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


def unframe_chunks(payload: bytes, decompress: Callable[[bytes], bytes], size: int) -> bytes:
    """Inverse of :func:`frame_chunks` with the same ``size``: the
    decompressed chunks, concatenated.

    Raises ``ValueError`` if a chunk other than the last does not decompress
    to exactly ``size`` bytes, or the last one to more, so chunk ``i`` of
    the output starts at byte ``i * size``.
    """
    out = bytearray()
    last = size  # the previous chunk's length
    p = 0
    while p < len(payload):
        if last != size:
            raise ValueError(f"inner chunk of {last} bytes, not {size}")
        clen = int.from_bytes(payload[p : p + 4], "little")
        p += 4
        chunk = decompress(payload[p : p + clen])
        if len(chunk) > size:
            raise ValueError(f"chunk of {len(chunk)} bytes exceeds {size}")
        last = len(chunk)
        out += chunk
        p += clen
    return bytes(out)
