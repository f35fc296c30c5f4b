"""Golden bytes: every codec's blob on fixed inputs is pinned by SHA-256.

A refactor of the codecs must leave every compressed byte unchanged; this
test shows it does rather than assuming it. Each (codec, input) cell
compresses a seeded input, compares the blob's SHA-256 with the value in
``golden_bytes.json`` and checks the bit-exact round trip. A codec that
declines an input records ``CodecFailure`` instead of a hash.

The hashes change only with a deliberate format change. Running this
module as a script (``PYTHONPATH=src python tests/test_golden_bytes.py``)
rewrites ``golden_bytes.json`` from the current code.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.base import TABLE4_METHODS, CodecFailure, load_codec
from repro.data.corpus import corpus, generate

GOLDEN_PATH = Path(__file__).with_name("golden_bytes.json")


def _specials(g: np.random.Generator) -> np.ndarray:
    x = g.random(512)
    x[::17] = np.nan
    x[1::29] = np.inf
    x[2::31] = -np.inf
    x[3::37] = -0.0
    return x


def _window_edge(g: np.random.Generator) -> np.ndarray:
    """Recurrences at distance 127 (inside Chimp's window) and 128 (just out).

    The third copy of ``a`` flips one high bit, so its XOR with the value
    127 back has many trailing zeros; a long constant run follows.
    """
    a = g.random(127)
    b = g.random(128)
    a_flip = (a.view(np.uint64) ^ np.uint64(1 << 40)).view(np.float64)
    return np.concatenate([a, a, a_flip, b, b, np.full(700, 2.5), g.random(40)])


def _centre_64(g: np.random.Generator) -> np.ndarray:
    """Gorilla XORs of 0x8000000000000001: 64 meaningful bits, stored as 0."""
    pair = np.array([1.0000000000000002, -1.0])
    return np.concatenate([np.tile(pair, 200), g.random(100)])


def _pfpc_key_runs(g: np.random.Generator) -> np.ndarray:
    """Runs of repeated values that cross pFPC's chunk boundaries.

    800 doubles make 8 chunks of 100. Values drawn from a pool of four
    repeat both the FCM and the DFCM hash keys, and the long runs of 0.0
    (hash 0, a fresh table's key) and 2.5 span the boundaries at 100,
    200 and 500, so a prediction must not reach into the previous chunk.
    """
    pool = g.random(4)
    x = pool[g.integers(0, 4, 800)]
    x[90:215] = 0.0
    x[480:530] = 2.5
    return x


def _gorilla_gaps(g: np.random.Generator, gaps, width: int) -> np.ndarray:
    """Gorilla ``11`` records exactly ``gaps[k]`` values apart.

    XORs alternate between two windows: A (top bit set, at least a quarter
    of the width in trailing zeros) and B (odd, with 31 leading zeros, or
    29 in 32-bit words). Each new window opens with an XOR outside the
    current one; the values between take ``10`` records inside it, or
    ``0``.
    """
    u = np.uint64
    quarter = width // 4
    low = 33 if width == 64 else 3
    xs = [int(g.integers(1, 1 << 62)) >> (64 - width)]
    for k, gap in enumerate(gaps):
        if k % 2 == 0:  # A: top bit set, exactly tz in [quarter, width/2)
            tz = int(g.integers(quarter, width // 2))
            head = int(g.integers(0, 1 << (width - 1 - tz)))
            xs.append((1 << (width - 1 - tz) | head | 1) << tz)
            fill = [(int(g.integers(1, 1 << (width - tz))) << tz) for _ in range(gap - 1)]
        else:  # B: odd, exactly ``low`` bits long
            xs.append(1 << (low - 1) | int(g.integers(0, 1 << (low - 2))) << 1 | 1)
            fill = [int(g.integers(1, 1 << low)) for _ in range(gap - 1)]
        zero = g.random(len(fill)) < 0.2
        xs += [0 if z else f for f, z in zip(fill, zero)]
    words = np.bitwise_xor.accumulate(np.array(xs, dtype=u))
    if width == 32:
        return words.astype(np.uint32).view(np.float32)
    return words.view(np.float64)


#: Gaps between Gorilla ``11`` records: at the first search windows'
#: edges (64, then 64 + 256 and 64 + 256 + 1024) and on consecutive values.
GORILLA_GAPS = [1, 64, 65, 320, 321, 1344, 1345] + [1] * 40 + [2, 63, 1, 1]


def _fib_skew(g: np.random.Generator) -> np.ndarray:
    """fpzip residual bit lengths with Fibonacci counts 1, 1, 2, …, 10946,
    so its Huffman table holds codes of 20 bits.

    Lengths 0..19 take counts F21..F2; the first value, coded raw, is the
    last count of 1. The doubles stay positive, so their order-preserving
    codes differ by exactly the chosen residuals.
    """
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    lengths = np.repeat(np.arange(20), fib[:0:-1])
    g.shuffle(lengths)
    low = np.where(lengths > 0, np.int64(1) << np.maximum(lengths - 1, 0), 0)
    zz = low + (g.integers(0, 1 << 62, lengths.size) & np.maximum(low - 1, 0))
    residual = (zz >> 1) ^ -(zz & 1)
    start = np.array([1.5]).view(np.int64)[0]
    return (start + np.cumsum(np.concatenate([[0], residual]))).view(np.float64)


def _inputs() -> dict[str, tuple[np.ndarray, tuple[int, ...] | None]]:
    g = np.random.default_rng(20240417)
    walk = np.cumsum(g.normal(size=3000)) / 7.0
    specials = _specials(g)
    t = np.linspace(0, 6, 130)
    grid2 = np.add.outer(np.sin(t), np.cos(np.linspace(0, 5, 70)))
    grid2 = grid2 + g.normal(scale=1e-3, size=grid2.shape)
    u = np.linspace(0, 3, 20)
    grid3 = (
        np.sin(u)[:, None, None]
        + np.cos(np.linspace(0, 2, 18))[None, :, None]
        + np.linspace(0, 1, 17)[None, None, :]
    )
    grid3 = (grid3 + g.normal(scale=1e-4, size=grid3.shape)).astype(np.float32)
    cases = {
        "empty-f64": (np.zeros(0, dtype=np.float64), None),
        "empty-f32": (np.zeros(0, dtype=np.float32), None),
        "single": (np.array([3.14159]), None),
        "walk-f64": (walk, None),
        "walk-f32": (walk.astype(np.float32), None),
        "decimals2": (np.round(g.random(2500) * 100, 2), None),
        "odd-4097": (g.random(4097), None),
        "specials-f64": (specials, None),
        "specials-f32": (specials.astype(np.float32), None),
        "grid-130x70-f64": (grid2, grid2.shape),
        "grid-20x18x17-f32": (grid3, grid3.shape),
    }
    cases["chimp-window-127-128"] = (_window_edge(np.random.default_rng(127)), None)
    cases["gorilla-centre-64"] = (_centre_64(np.random.default_rng(64)), None)
    cases["fpzip-fib-skew"] = (_fib_skew(np.random.default_rng(20)), None)
    # pFPC's 8 chunks of 5 and of 13 values: shorter than its 8-term DFCM
    # hash window; an odd float32 count pads the last 64-bit word
    cases["pfpc-chunks-5"] = (walk[:40], None)
    cases["pfpc-chunks-13"] = (walk[:104], None)
    cases["pfpc-odd-f32"] = (walk[:41].astype(np.float32), None)
    cases["pfpc-key-runs"] = (_pfpc_key_runs(np.random.default_rng(16)), None)
    cases["gorilla-gaps-f64"] = (_gorilla_gaps(np.random.default_rng(11), GORILLA_GAPS, 64), None)
    cases["gorilla-gaps-f32"] = (_gorilla_gaps(np.random.default_rng(32), GORILLA_GAPS, 32), None)
    for spec in corpus():
        arr = generate(spec, 0.05)
        cases[f"corpus/{spec.name}"] = (arr, arr.shape if arr.ndim > 1 else None)
    return cases


INPUTS = _inputs()


def _digest(name: str, arr: np.ndarray, dims) -> tuple[str, bytes | None]:
    try:
        blob = load_codec(name).compress(arr, dims=dims)
    except CodecFailure:
        return "CodecFailure", None
    return hashlib.sha256(blob).hexdigest(), blob


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(TABLE4_METHODS)
    for name in TABLE4_METHODS:
        assert sorted(golden[name]) == sorted(INPUTS), name


@pytest.mark.parametrize("case", list(INPUTS))
@pytest.mark.parametrize("name", TABLE4_METHODS)
def test_blob_bytes_and_roundtrip(golden, name, case):
    arr, dims = INPUTS[case]
    digest, blob = _digest(name, arr, dims)
    assert digest == golden[name][case]
    if blob is not None:
        out = load_codec(name).decompress(blob)
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(
            out.view(np.uint8), np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
        )


if __name__ == "__main__":
    table = {
        name: {case: _digest(name, *INPUTS[case])[0] for case in INPUTS}
        for name in TABLE4_METHODS
    }
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} hashes to {GOLDEN_PATH}")
