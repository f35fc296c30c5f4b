"""The whole-array pFPC and Gorilla encoders against the per-value loops
they replaced, which stay here as the reference: the blobs must be equal."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.gorilla import Gorilla
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
