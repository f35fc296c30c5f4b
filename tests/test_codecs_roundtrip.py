"""Bit-exact roundtrip tests for every codec on every data shape.

This is the core lossless-compression contract: compress→decompress must
reproduce the input bit pattern exactly, including NaN payloads, signed
zeros, infinities, and denormals. Corrupt blobs must decode or raise
``ValueError``; run as a script (``python tests/test_codecs_roundtrip.py``),
this module decodes every codec's fuzz cases in a process of its own.
"""
import os
import resource
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.codecs.base import TABLE4_METHODS, CodecFailure, load_codec, parse_envelope


def _cases():
    g = np.random.default_rng(42)
    smooth1d = np.cumsum(g.normal(size=5000)) / 7.0
    cases = {
        "empty": np.zeros(0, dtype=np.float64),
        "single": np.array([3.14159]),
        "constant": np.full(700, 2.5),
        "smooth-1d": smooth1d,
        "random-f64": g.random(3000) * 1e6,
        "random-f32": (g.random(3000) * 1e6).astype(np.float32),
        "smooth-f32": smooth1d.astype(np.float32),
        "low-precision": np.round(g.random(2500) * 100, 2),
        "integers": np.floor(g.random(1000) * 1000),
        "odd-length": g.random(4097),
        "tiny": g.random(3),
        "denormals": g.random(500) * 5e-324 * 10,
        "negatives": -g.random(1000) * 1e3,
    }
    return cases


def _special_cases():
    g = np.random.default_rng(7)
    x = g.random(512)
    x[::17] = np.nan
    x[1::29] = np.inf
    x[2::31] = -np.inf
    x[3::37] = -0.0
    return {
        "specials-f64": x,
        "specials-f32": x.astype(np.float32),
    }


CASES = _cases()
SPECIALS = _special_cases()


def _assert_roundtrip(name, arr, dims=None):
    codec = load_codec(name)
    blob = codec.compress(arr, dims=dims)
    out = codec.decompress(blob)
    assert out.dtype == arr.dtype
    assert out.shape == arr.reshape(-1).shape
    np.testing.assert_array_equal(
        out.view(np.uint8), np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
    )
    return blob


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_roundtrip_1d(name, case):
    _assert_roundtrip(name, CASES[case])


@pytest.mark.parametrize("case", sorted(SPECIALS))
@pytest.mark.parametrize("name", [m for m in TABLE4_METHODS if m != "BUFF"])
def test_roundtrip_specials(name, case):
    _assert_roundtrip(name, SPECIALS[case])


def test_buff_rejects_non_finite():
    codec = load_codec("BUFF")
    with pytest.raises(CodecFailure):
        codec.compress(SPECIALS["specials-f64"])


@pytest.mark.parametrize("name", TABLE4_METHODS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_roundtrip_2d(name, dtype):
    g = np.random.default_rng(3)
    base = np.add.outer(np.sin(np.linspace(0, 9, 100)), np.cos(np.linspace(0, 7, 90)))
    arr = (base + g.normal(scale=1e-3, size=base.shape)).astype(dtype)
    _assert_roundtrip(name, arr)


@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_roundtrip_3d(name):
    g = np.random.default_rng(4)
    t = np.linspace(0, 4, 24)
    arr = (
        np.sin(t)[:, None, None] + np.cos(t * 2)[None, :, None] + t[None, None, :]
    ) + g.normal(scale=1e-4, size=(24, 24, 24))
    _assert_roundtrip(name, arr)


@pytest.mark.parametrize("name", ["fpzip", "ndzip-C", "ndzip-G", "MPC", "GFC"])
def test_dims_passed_separately(name):
    """dims metadata (Table 9's 'md' configuration) must not break decode."""
    g = np.random.default_rng(5)
    arr = np.cumsum(np.cumsum(g.normal(size=(64, 64)), axis=0), axis=1) / 1e3
    flat = arr.reshape(-1)
    codec = load_codec(name)
    blob = codec.compress(flat, dims=(64, 64))
    np.testing.assert_array_equal(codec.decompress(blob), flat)


@pytest.mark.parametrize("name", ["fpzip", "ndzip-C"])
def test_dims_help_structured_data(name):
    """On a smooth 2-D field the md configuration should not lose to 1d badly."""
    x = np.linspace(0, 10, 128)
    arr = np.add.outer(np.sin(x), np.cos(x))  # very smooth, separable
    codec = load_codec(name)
    md = len(codec.compress(arr, dims=arr.shape))
    one_d = len(codec.compress(arr.reshape(-1)))
    assert md <= one_d * 1.15


def test_unknown_codec_raises():
    with pytest.raises(KeyError):
        load_codec("nope")


@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_compression_actually_happens_on_constant(name):
    """Every method must beat CR=1 on the easiest possible input."""
    arr = np.full(4096, 1.5)
    blob = _assert_roundtrip(name, arr)
    assert len(blob) < arr.nbytes


@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_envelope_dtype_preserved(name):
    arr = np.array([1.5, 2.5, -3.5], dtype=np.float32)
    codec = load_codec(name)
    out = codec.decompress(codec.compress(arr))
    assert out.dtype == np.float32


@pytest.mark.parametrize("name", TABLE4_METHODS)
@pytest.mark.parametrize("dtype", [np.int64, np.float16], ids=["i64", "f16"])
def test_unsupported_dtype_raises_type_error(name, dtype):
    with pytest.raises(TypeError):
        load_codec(name).compress(np.arange(6, dtype=dtype))


@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_malformed_envelope_raises_value_error(name):
    codec = load_codec(name)
    blob = codec.compress(np.arange(12.0).reshape(3, 4))
    bad = {
        "empty": b"",
        "short-header": blob[:7],
        "short-dims": blob[:13],
        "bad-magic": b"\x00" + blob[1:],
        "unknown-dtype": blob[:1] + b"\x07" + blob[2:],
    }
    for kind, data in bad.items():
        with pytest.raises(ValueError):
            codec.decompress(data)


def _blob(count: int, payload: bytes) -> bytes:
    """A float64 1-D envelope around a hand-built payload."""
    return b"\xfc\x01\x00" + count.to_bytes(8, "little") + payload


def _bits(s: str) -> bytes:
    s += "0" * (-len(s) % 8)
    return int(s, 2).to_bytes(len(s) // 8, "big")


# A record no encoder writes: Chimp ``10`` before any stored leading-zero
# count; Gorilla ``11`` with lz 31 + 63 meaningful bits > 64; an fpzip
# Huffman table with codes 00 and 01 only, so the fourth symbol's ``11``
# matches none (stream 00 01 00 11); a shf+zstd frame whose two bytes are
# no zlib stream; an nv::btcomp block packed 9 bytes wide; a packed BUFF
# blob of 2 values whose one exception word is patched in at index 5.
_BAD_RECORD = {
    "BUFF": _blob(
        2, bytes([1, 0, 0, 1]) + bytes(8) + (1).to_bytes(4, "little") + (5).to_bytes(4, "little") + bytes(10)
    ),
    "Chimp": _blob(2, _bits("0" * 64 + "10" + "0" * 70)),
    "Gorilla": _blob(2, _bits("0" * 64 + "11" + "11111" + "111111" + "1" * 63)),
    "fpzip": _blob(
        4, (3).to_bytes(2, "little") + (1).to_bytes(8, "little") + bytes([2, 2, 2]) + _bits("00010011")
    ),
    "shf+zstd": _blob(2, (2).to_bytes(4, "little") + b"\xff\xff"),
    "nv::btcomp": _blob(2, bytes([9]) + bytes(8) + bytes(9)),
}


WALK = np.cumsum(np.random.default_rng(11).normal(size=4096))

# Every codec meets forged counts (2^40, and 2^64 - 1, which no array can
# hold), a half-truncated blob and its header followed by only 1-4 payload
# bytes; the codecs with a hand-built bad record meet that too.
_CORRUPT = [
    (n, k)
    for n in sorted(TABLE4_METHODS)
    for k in ("forged-count", "half-truncated", "short-payload")
]
_CORRUPT += [(n, "bad-record") for n in sorted(_BAD_RECORD)]


@pytest.mark.parametrize("name,kind", _CORRUPT, ids=[f"{n}-{k}" for n, k in _CORRUPT])
def test_corrupt_bit_stream_raises_value_error(name, kind):
    codec = load_codec(name)
    blob = codec.compress(WALK)
    header = len(blob) - len(parse_envelope(blob)[3])
    bad = {
        "forged-count": [
            blob[:3] + c.to_bytes(8, "little") + blob[11:] for c in (2**40, 2**64 - 1)
        ],
        "half-truncated": [blob[: len(blob) // 2]],
        "short-payload": [blob[: header + m] for m in range(1, 5)],
        "bad-record": [_BAD_RECORD.get(name)],
    }[kind]
    for b in bad:
        with pytest.raises(ValueError):
            codec.decompress(b)


#: Seconds a fuzz case may take before ``SIGALRM`` kills its process.
_FUZZ_ALARM_S = 10
_FUZZ_CASES = 60


def _fuzz_cases(blob: bytes):
    """60 corruptions of ``blob``: 1-20 bit flips, 20 cuts and 20 overwrites.

    Positions are log-uniform over the blob, so the leading fields where
    the codecs keep their widths, tables and counts are hit about as often
    as the bulk of the payload.
    """
    g = np.random.default_rng(13)

    def at(size):
        return (len(blob) ** g.random(size)).astype(int) - 1

    for k in range(1, 21):
        b = bytearray(blob)
        for pos, bit in zip(at(k), g.integers(0, 8, size=k)):
            b[pos] ^= 1 << bit
        yield f"flip{k}", bytes(b)
    for cut in at(20):
        yield f"cut@{cut}", blob[:cut]
    for pos, byte in zip(at(20), g.integers(0, 256, size=20)):
        b = bytearray(blob)
        b[pos] = byte
        yield f"byte@{pos}={byte}", bytes(b)


def _fuzz() -> None:
    """Decode every codec's fuzz cases of its blob of WALK, one line each.

    Runs in a process of its own, under an address-space limit of its size
    after imports plus 1 GiB, so a huge allocation raises ``MemoryError``
    here instead of taking memory from the test run. Each line is the codec,
    the case and ``ok`` (``ValueError``, or as many values as the blob
    declares) or what went wrong; a line cut short names the case that a
    crash or a hang stopped at.
    """
    pages = int(open("/proc/self/statm").read().split()[0])
    limit = pages * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    for name in TABLE4_METHODS:
        codec = load_codec(name)
        for case, blob in _fuzz_cases(codec.compress(WALK)):
            print(name, case, end=" ", flush=True)
            signal.alarm(_FUZZ_ALARM_S)
            try:
                n = len(codec.decompress(blob))
                count = parse_envelope(blob)[1]
                verdict = "ok" if n == count else f"{n} values, blob declares {count}"
            except ValueError:
                verdict = "ok"
            except Exception as e:  # MemoryError included
                verdict = f"{type(e).__name__}: {e}"
            signal.alarm(0)
            print(verdict, flush=True)


def test_fuzzed_blobs_decode_or_raise_value_error():
    """Bit flips, cuts and byte overwrites of every codec's blob, decoded by
    one child process, so no case can crash, hang or exhaust the run."""
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, f"child exited {proc.returncode} at {lines[-1:]}: {proc.stderr}"
    assert len(lines) == len(TABLE4_METHODS) * _FUZZ_CASES
    assert [ln for ln in lines if not ln.endswith(" ok")] == []


if __name__ == "__main__":
    _fuzz()
