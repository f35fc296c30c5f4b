"""Bit-exact roundtrip tests for every codec on every data shape.

This is the core lossless-compression contract: compress→decompress must
reproduce the input bit pattern exactly, including NaN payloads, signed
zeros, infinities, and denormals.
"""
import numpy as np
import pytest

from repro.codecs.base import TABLE4_METHODS, CodecFailure, load_codec

ALL_METHODS = TABLE4_METHODS + ["Dzip"]


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
@pytest.mark.parametrize("name", ALL_METHODS)
def test_roundtrip_1d(name, case):
    arr = CASES[case]
    if name == "Dzip" and arr.size > 600:
        arr = arr[:600]  # Dzip-lite is KB/s by design (§4.5)
    _assert_roundtrip(name, arr)


@pytest.mark.parametrize("case", sorted(SPECIALS))
@pytest.mark.parametrize("name", [m for m in ALL_METHODS if m != "BUFF"])
def test_roundtrip_specials(name, case):
    arr = SPECIALS[case]
    if name == "Dzip":
        arr = arr[:300]
    _assert_roundtrip(name, arr)


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


@pytest.mark.parametrize("name", ALL_METHODS)
def test_compression_actually_happens_on_constant(name):
    """Every method must beat CR=1 on the easiest possible input."""
    arr = np.full(4096, 1.5)
    blob = _assert_roundtrip(name, arr)
    assert len(blob) < arr.nbytes


@pytest.mark.parametrize("name", ALL_METHODS)
def test_envelope_dtype_preserved(name):
    arr = np.array([1.5, 2.5, -3.5], dtype=np.float32)
    codec = load_codec(name)
    out = codec.decompress(codec.compress(arr))
    assert out.dtype == np.float32


@pytest.mark.parametrize("name", ALL_METHODS)
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
# no zlib stream.
_BAD_RECORD = {
    "Chimp": _blob(2, _bits("0" * 64 + "10" + "0" * 70)),
    "Gorilla": _blob(2, _bits("0" * 64 + "11" + "11111" + "111111" + "1" * 63)),
    "fpzip": _blob(
        4, (3).to_bytes(2, "little") + (1).to_bytes(8, "little") + bytes([2, 2, 2]) + _bits("00010011")
    ),
    "shf+zstd": _blob(2, (2).to_bytes(4, "little") + b"\xff\xff"),
}


@pytest.mark.parametrize("kind", ["forged-count", "half-truncated", "bad-record"])
@pytest.mark.parametrize("name", sorted(_BAD_RECORD))
def test_corrupt_bit_stream_raises_value_error(name, kind):
    codec = load_codec(name)
    walk = np.cumsum(np.random.default_rng(11).normal(size=4096))
    blob = codec.compress(walk)
    bad = {
        "forged-count": blob[:3] + (2**40).to_bytes(8, "little") + blob[11:],
        "half-truncated": blob[: len(blob) // 2],
        "bad-record": _BAD_RECORD[name],
    }[kind]
    with pytest.raises(ValueError):
        codec.decompress(bad)
