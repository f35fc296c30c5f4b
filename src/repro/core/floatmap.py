"""Bit-level views and order-preserving integer mappings for IEEE 754 data.

All codecs operate on the raw bit patterns of the input floats (lossless
compression never interprets values numerically except through predictors),
so the canonical representation is an unsigned integer array of the same
width, widened to uint64 for shared bit machinery.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

_WORD = {np.dtype("float32"): np.uint32, np.dtype("float64"): np.uint64}


def to_words(arr: np.ndarray) -> np.ndarray:
    """Reinterpret a float array as same-width unsigned words (no copy)."""
    dt = np.dtype(arr.dtype)
    if dt not in _WORD:
        raise TypeError(f"unsupported dtype {dt}; expected float32/float64")
    return np.ascontiguousarray(arr).view(_WORD[dt])

def from_words(words: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`to_words`."""
    dt = np.dtype(dtype)
    return np.ascontiguousarray(words, dtype=_WORD[dt]).view(dt)


def to_ordered(words: np.ndarray) -> np.ndarray:
    """Map raw IEEE words to an order-preserving unsigned integer code.

    Positive floats map to ``word | sign_bit``; negatives to ``~word``. The
    mapping is a bijection, so predictors (Lorenzo, delta) can subtract in
    integer space and small numeric prediction errors stay small integers.
    """
    w = np.ascontiguousarray(words)
    bits = w.dtype.itemsize * 8
    sign = w.dtype.type(1) << w.dtype.type(bits - 1)
    neg = (w & sign) != 0
    return np.where(neg, ~w, w | sign)


def from_ordered(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_ordered`."""
    c = np.ascontiguousarray(codes)
    bits = c.dtype.itemsize * 8
    sign = c.dtype.type(1) << c.dtype.type(bits - 1)
    pos = (c & sign) != 0
    return np.where(pos, c & ~sign, ~c)


def as_u64_stream(words: np.ndarray) -> np.ndarray:
    """View a word array's raw bytes as uint64 words, zero-padding the tail.

    Double-only compressors (GFC, pFPC) reinterpret single-precision input
    as 64-bit words, exactly as their CLI originals do with raw files.
    """
    raw = np.ascontiguousarray(words).view(np.uint8)
    pad = (-raw.size) % 8
    if pad:
        raw = np.concatenate([raw, np.zeros(pad, dtype=np.uint8)])
    return raw.view(np.uint64)


def u64_stream_to_words(stream: np.ndarray, wdt: np.dtype, count: int) -> np.ndarray:
    """Inverse of :func:`as_u64_stream`: trim padding, view as ``count`` ``wdt`` words."""
    raw = np.ascontiguousarray(stream).view(np.uint8)[: count * wdt.itemsize]
    return np.ascontiguousarray(raw).view(wdt)


def lag_diff(a: np.ndarray, lag: int, axes: Iterable[int]) -> np.ndarray:
    """Wrapping residual ``a[i] - a[i - lag]`` along each axis in ``axes``.

    The first ``lag`` entries along an axis are kept as they are. This is
    the "last n-th value" (LNV) component of SPDP and MPC at lag n on one
    axis, and, at lag 1 over every axis of a grid, the Lorenzo residual of
    fpzip and ndzip (the separable mixed difference). Unsigned integer
    input wraps, so :func:`lag_sum` inverts it exactly.
    """
    out = np.array(a, copy=True)
    for ax in axes:
        v = np.moveaxis(out, ax, -1)
        v[..., lag:] = v[..., lag:] - v[..., :-lag]
    return out


def lag_sum(r: np.ndarray, lag: int, axes: Iterable[int]) -> np.ndarray:
    """Inverse of :func:`lag_diff`: a cumulative sum per residue class mod ``lag``."""
    out = np.array(r, copy=True)
    for ax in axes:
        v = np.moveaxis(out, ax, -1)
        for c in range(lag):
            np.cumsum(v[..., c::lag], axis=-1, dtype=out.dtype, out=v[..., c::lag])
    return out


def zigzag(x: np.ndarray, width: int) -> np.ndarray:
    """Map signed residuals to unsigned so magnitude ~ |value| (0,-1,1,-2,…)."""
    dt_i = np.int64 if width == 64 else np.int32
    dt_u = np.uint64 if width == 64 else np.uint32
    xs = np.ascontiguousarray(x).astype(dt_i, copy=False)
    return ((xs << 1) ^ (xs >> (width - 1))).view(dt_u)


def unzigzag(u: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    dt_i = np.int64 if width == 64 else np.int32
    dt_u = np.uint64 if width == 64 else np.uint32
    ut = np.ascontiguousarray(u).astype(dt_u, copy=False)
    one = dt_u(1)
    return ((ut >> one) ^ (~(ut & one) + one)).view(dt_i)
