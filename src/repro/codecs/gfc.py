"""GFC — GPU delta compressor for double-precision scientific data (§4.1).

Workflow reproduced from O'Neil & Burtscher 2011: the input is divided into
chunks (one per GPU warp), each chunk into subchunks of 32 values. The
residual of every value in a subchunk is the difference from the *last
value of the previous subchunk* (that is GFC's accuracy-sacrificing
predictor — all 32 lanes share one base so the warp runs lock-step).
Each residual is encoded as a 4-bit nibble (1 sign bit + 3 bits of
leading-zero-byte count, clamped to 7 so every value writes at least one
magnitude byte) followed by its significant magnitude bytes.

GFC is double-only; single-precision input is reinterpreted as 64-bit
words (pairs of floats), as the original does with raw byte streams. The
GPU kernel is simulated as whole-array NumPy (DESIGN.md substitution #3);
the subchunk-base recurrence collapses to a strided cumsum, so compression
and decompression are both fully data-parallel, as on the GPU. The
original's 512 MB input limit is kept.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, CodecFailure, MethodInfo, register
from repro.core.bitio import bit_length_u64, pack_bits, pack_bytes, unpack_bits, unpack_bytes
from repro.core.floatmap import as_u64_stream, u64_stream_to_words

_SUB = 32  # values per subchunk == GPU warp width
_LIMIT = 512 * 1024 * 1024  # original GFC cannot exceed 512 MB input


@register
class GFC(Codec):
    info = MethodInfo(
        name="GFC", year=2011, domain="HPC", precision="D", arch="GPU",
        parallel="SIMT", trait="delta", group="delta",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        if words.size * words.dtype.itemsize > _LIMIT:
            raise CodecFailure("GFC input limit is 512 MB")
        w = as_u64_stream(words)
        n = w.size
        if n == 0:
            return b""
        # residual base: last value of the previous subchunk (0 for the first)
        bases = np.zeros(n, dtype=np.uint64)
        if n > _SUB:
            prev_last = w[_SUB - 1 :: _SUB][: (n - 1) // _SUB]
            reps = np.minimum(n - _SUB * np.arange(1, prev_last.size + 1), _SUB)
            bases[_SUB:] = np.repeat(prev_last, reps)
        r = (w - bases).view(np.int64)  # wrapping subtraction
        sign = (r < 0).astype(np.uint64)
        with np.errstate(over="ignore"):
            mag = np.abs(r).view(np.uint64)  # INT64_MIN wraps to itself: still exact
        sig = (bit_length_u64(mag).astype(np.int64) + 7) // 8  # significant bytes
        lzb = np.minimum(8 - sig, 7)  # 3-bit field; >=1 byte out
        nzb = 8 - lzb
        nibble = (sign << np.uint64(3)) | lzb.astype(np.uint64)
        head = pack_bits(nibble, np.full(n, 4, dtype=np.int64))
        body = pack_bytes(mag, nzb)
        return len(head).to_bytes(4, "little") + head + body

    def _decode(self, payload, wdt, count, dims):
        n = (count * wdt.itemsize + 7) // 8  # uint64 word count incl. padded tail
        hlen = int.from_bytes(payload[:4], "little")
        head = payload[4 : 4 + hlen]
        nibbles = unpack_bits(head, np.full(n, 4, dtype=np.int64))
        sign = ((nibbles >> np.uint64(3)) & np.uint64(1)).astype(bool)
        lzb = (nibbles & np.uint64(7)).astype(np.int64)
        mag = unpack_bytes(payload[4 + hlen :], 8 - lzb)
        with np.errstate(over="ignore"):
            r = np.where(sign, (~mag + np.uint64(1)), mag)  # two's-complement negate
        # invert the shared-base recurrence: within subchunk k every value is
        # base_k + r; bases advance via the last lane: base_{k+1} = base_k + r_last
        last_r = r[_SUB - 1 :: _SUB][: (n - 1) // _SUB]
        bases = np.zeros(n, dtype=np.uint64)
        if last_r.size:
            cum = np.cumsum(last_r.astype(np.uint64), dtype=np.uint64)
            reps = np.minimum(n - _SUB * np.arange(1, last_r.size + 1), _SUB)
            bases[_SUB:] = np.repeat(cum, reps)
        return u64_stream_to_words(bases + r, wdt, count)
