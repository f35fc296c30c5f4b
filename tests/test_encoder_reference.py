"""The whole-array pFPC and Gorilla encoders against the per-value loops
they replaced, and the LZ77 loops against the ones before their fast path
for the common sequence, which stay here as the reference: the blobs must
be equal."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.gorilla import Gorilla
from repro.codecs.lz77 import lz_compress, lz_decompress
from repro.codecs.pfpc import PFPC
from repro.core.bitio import pack_bits

_M64 = (1 << 64) - 1
_TMASK = (1 << 16) - 1


def _pfpc_chunk(vals: list[int]) -> tuple[list[int], list[int], list[int]]:
    """FPC's FCM/DFCM recurrence, one value at a time."""
    fcm = [0] * (1 << 16)
    dfcm = [0] * (1 << 16)
    fhash = dhash = last = 0
    codes, resids, nzbs = [], [], []
    for v in vals:
        xf = v ^ fcm[fhash]
        xd = v ^ ((dfcm[dhash] + last) & _M64)
        sel, x = (0, xf) if xf <= xd else (1, xd)
        nzb = (x.bit_length() + 7) >> 3
        nzb = 5 if nzb == 4 else nzb
        lzb = 8 - nzb
        codes.append(sel << 3 | (lzb if lzb < 4 else lzb - 1))
        resids.append(x)
        nzbs.append(nzb)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & _TMASK
        delta = (v - last) & _M64
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & _TMASK
        last = v
    return codes, resids, nzbs


def _pfpc_reference(words: np.ndarray, n_threads: int) -> bytes:
    n = words.size
    if n == 0:
        return b""
    bounds = np.linspace(0, n, n_threads + 1).astype(np.int64).tolist()
    out = bytearray(np.uint32(n_threads).tobytes())
    vals = words.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        codes, resids, nzbs = _pfpc_chunk(vals[lo:hi])
        head = pack_bits(np.array(codes, np.uint64), np.full(len(codes), 4, np.int64))
        body = pack_bits(np.array(resids, np.uint64), 8 * np.array(nzbs, np.int64))
        out += np.array([hi - lo, len(head), len(body)], np.uint64).tobytes() + head + body
    return bytes(out)


def _gorilla_reference(words: np.ndarray) -> bytes:
    width = words.dtype.itemsize * 8
    w = [int(v) for v in words]
    if not w:
        return b""
    vals, nbits = [w[0]], [width]
    prev_lz = prev_tz = -1
    for a, b in zip(w, w[1:]):
        x = a ^ b
        if x == 0:
            vals.append(0)
            nbits.append(1)
            continue
        lz = min(width - x.bit_length(), 31)
        tz = (x & -x).bit_length() - 1
        if prev_lz >= 0 and lz >= prev_lz and tz >= prev_tz:
            vals += [0b10, x >> prev_tz]
            nbits += [2, width - prev_lz - prev_tz]
        else:
            mlen = width - lz - tz
            vals += [(0b11 << 5 | lz) << 6 | (mlen & 63), x >> tz]
            nbits += [13, mlen]
            prev_lz, prev_tz = lz, tz
    return pack_bits(np.array(vals, np.uint64), np.array(nbits, np.int64))


def _words(seed: int, n: int, pool: int, dtype) -> np.ndarray:
    """``n`` words drawn from ``pool`` random words (repeats make equal
    hashes and zero XORs), with one random low bit flipped in some."""
    g = np.random.default_rng(seed)
    bits = dtype().itemsize * 8
    base = g.integers(0, 1 << 62, pool, dtype=np.uint64) << np.uint64(g.integers(0, 3))
    w = base[g.integers(0, pool, n)] >> np.uint64(64 - bits)
    flip = g.random(n) < 0.3
    w[flip] ^= np.uint64(1) << g.integers(0, bits // 2, int(flip.sum())).astype(np.uint64)
    return w.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    pool=st.integers(1, 12),
    n_threads=st.sampled_from([1, 3, 8, 64]),
)
def test_pfpc_encoder_matches_the_loop(seed, n, pool, n_threads):
    words = _words(seed, n, pool, np.uint64)
    assert PFPC(n_threads)._encode(words, None) == _pfpc_reference(words, n_threads)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 1500),
    pool=st.integers(1, 12),
    dtype=st.sampled_from([np.uint64, np.uint32]),
)
def test_gorilla_encoder_matches_the_loop(seed, n, pool, dtype):
    words = _words(seed, n, pool, dtype)
    assert Gorilla()._encode(words, None) == _gorilla_reference(words)


def _lz_write_varnib(out: bytearray, v: int) -> None:
    v -= 15
    while v >= 255:
        out.append(255)
        v -= 255
    out.append(v)


def _lz_emit(out: bytearray, data: bytes, anchor: int, i: int, off: int, mlen: int) -> None:
    ll = i - anchor
    ml = mlen - 4
    out.append((min(ll, 15) << 4) | min(ml, 15))
    if ll >= 15:
        _lz_write_varnib(out, ll)
    out += data[anchor:i]
    out += off.to_bytes(2, "little")
    if ml >= 15:
        _lz_write_varnib(out, ml)


def _lz_compress_reference(data: bytes) -> bytes:
    """The greedy parse, every sequence written by one ``_lz_emit`` call."""
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    table: dict[bytes, int] = {}
    anchor = 0
    i = 0
    search = 1 << 6
    while i < n - 4:
        key = data[i : i + 4]
        j = table.get(key, -1)
        table[key] = i
        if j >= 0 and i - j <= 0xFFFF:
            l = 4
            maxl = n - i
            while l + 8 <= maxl and data[i + l : i + l + 8] == data[j + l : j + l + 8]:
                l += 8
            while l < maxl and data[i + l] == data[j + l]:
                l += 1
            _lz_emit(out, data, anchor, i, i - j, l)
            i += l
            anchor = i
            search = 1 << 6
        else:
            i += search >> 6
            search += 1
    ll = n - anchor
    out.append(min(ll, 15) << 4)
    if ll >= 15:
        _lz_write_varnib(out, ll)
    out += data[anchor:n]
    return bytes(out)


def _lz_decompress_reference(blob: bytes) -> bytes:
    """The decoder that copies each sequence's literals, even none."""
    n = len(blob)
    out = bytearray()
    p = 0
    try:
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
            if p >= n:
                break
            off = blob[p] | blob[p + 1] << 8
            p += 2
            ml = (token & 0xF) + 4
            if (token & 0xF) == 15:
                while True:
                    b = blob[p]
                    p += 1
                    ml += b
                    if b < 255:
                        break
            if not 0 < off <= len(out):
                raise ValueError("offset")
            start = len(out) - off
            while ml > off:
                out += out[start:]
                ml -= off
                off *= 2
            out += out[start : start + ml]
    except IndexError:
        raise ValueError("cut") from None
    return bytes(out)


def _decoded(decode, blob: bytes) -> bytes | type:
    try:
        return decode(blob)
    except ValueError:
        return ValueError


def _check_lz(data: bytes) -> bytes:
    """Both encoders give one blob; both decoders agree on it and on its
    prefixes, returning the same bytes or both raising ``ValueError``."""
    blob = lz_compress(data)
    assert blob == _lz_compress_reference(data)
    assert lz_decompress(blob) == _lz_decompress_reference(blob) == data
    for cut in range(0, len(blob), max(len(blob) // 16, 1)):
        assert _decoded(lz_decompress, blob[:cut]) == _decoded(_lz_decompress_reference, blob[:cut])
    return blob


_UNIQUE = bytes(range(1, 9))  # eight distinct nonzero bytes: no 4-byte repeat within
_TAIL = b"\xfa\xfb\xfc\xfd\xfe"


def _after_literals(lit: int, mlen: int) -> bytes:
    """``lit`` distinct bytes, then a match of ``mlen`` at offset ``lit``
    repeating them, then bytes that end the match and match nothing."""
    head = bytes(range(100, 100 + lit))
    return head + (head * (mlen // lit + 1))[:mlen] + _TAIL


def _at_offset(off: int) -> bytes:
    """A repeat of ``_UNIQUE`` ``off`` bytes back: the zeros between them
    match at offset 1 and end just before the repeat, which starts a
    sequence of its own."""
    return _UNIQUE + bytes(off - len(_UNIQUE)) + _UNIQUE + _TAIL


@pytest.mark.parametrize("mlen", [18, 19, 20])
@pytest.mark.parametrize("lit", [14, 15, 16])
def test_lz_sequence_lengths_at_the_nibble_bounds(lit, mlen):
    blob = _check_lz(_after_literals(lit, mlen))
    # the first sequence is the one under test: its token, literals, offset
    ext = 1 if lit >= 15 else 0
    assert blob[0] == min(lit, 15) << 4 | min(mlen - 4, 15)
    assert blob[1 + ext + lit : 3 + ext + lit] == lit.to_bytes(2, "little")


@pytest.mark.parametrize("off", [255, 256, 65535, 65536])
def test_lz_offsets_at_the_byte_and_window_bounds(off):
    blob = _check_lz(_at_offset(off))
    if off <= 0xFFFF:  # an 8-byte match at ``off``, then the tail as literals
        assert blob.endswith(b"\x04" + off.to_bytes(2, "little") + b"\x50" + _TAIL)
    else:  # outside the window: the repeat is literals too
        assert blob.endswith(b"\xd0" + _UNIQUE + _TAIL)


@pytest.mark.parametrize(
    "data",
    [
        *(bytes(range(k)) for k in range(10)),
        *(b"\x07" * k for k in range(1, 10)),
        _UNIQUE + _UNIQUE,  # a match that runs to the last byte
        _UNIQUE * 5 + b"x",  # an overlapping match at offset 8
        bytes(5000),  # one match at offset 1, with extension bytes
        b"\x00" * 300 + _UNIQUE + b"\x00" * 3000,
        *(bytes(range(256)) * k for k in (1, 2, 7)),
    ],
)
def test_lz_boundary_inputs_match_the_loops(data):
    _check_lz(data)


_LZ_PIECES = st.lists(
    st.tuples(st.binary(min_size=1, max_size=24), st.integers(1, 40)), max_size=12
)


@settings(max_examples=150, deadline=None)
@given(pieces=_LZ_PIECES, noise=st.binary(max_size=300))
def test_lz_matches_the_loops(pieces, noise):
    data = b"".join(unit * reps for unit, reps in pieces)
    _check_lz(data + noise + data[: len(data) // 2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 255]), max_size=3000).map(bytes))
def test_lz_matches_the_loops_on_few_symbols(data):
    _check_lz(data)
