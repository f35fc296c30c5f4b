"""The Gorilla and Chimp header walks and pFPC's chunk decoder against the
plain per-record loops they replaced, which stay here as the reference:
record starts and decoded words must be equal."""
import numpy as np
import pytest

from repro.codecs import chimp, gorilla, pfpc
from repro.codecs.base import load_codec, parse_envelope
from repro.core.bitio import be_words, unpack_bits
from repro.data.corpus import blocks, corpus, generate

_M64 = (1 << 64) - 1
_TMASK = (1 << 16) - 1
_LEAD_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]


def _gorilla_starts(payload: bytes, width: int, count: int) -> list[int]:
    """Gorilla's header walk, one record at a time."""
    buf = bytes(payload) + bytes(4)
    starts = [0] * count
    pos = width
    mlen = width
    for i in range(1, count):
        starts[i] = pos
        head = int.from_bytes(buf[pos >> 3 : (pos >> 3) + 4], "big") >> (19 - (pos & 7)) & 0x1FFF
        if head < 0x1000:
            pos += 1
        elif head < 0x1800:
            pos += 2 + mlen
        else:
            mlen = head & 63 or 64
            pos += 13 + mlen
    if pos > len(payload) * 8:
        raise ValueError("Gorilla stream truncated")
    return starts


def _chimp_starts(payload: bytes, width: int, count: int) -> list[int]:
    """Chimp's header walk, one record at a time."""
    buf = bytes(payload) + bytes(4)
    starts = [0] * count
    pos = width
    body = -1
    for i in range(1, count):
        starts[i] = pos
        head = int.from_bytes(buf[pos >> 3 : (pos >> 3) + 4], "big") >> (14 - (pos & 7)) & 0x3FFFF
        if head < 0x10000:
            pos += 9
            body = -1
        elif head < 0x20000:
            pos += 18 + (head & 63 or 64)
            body = -1
        elif head < 0x30000:
            if body < 0:
                raise ValueError("corrupt Chimp stream: 10 record without a stored count")
            pos += 2 + body
        else:
            body = width - _LEAD_ROUND[head >> 13 & 7]
            pos += 5 + body
    if pos > len(payload) * 8:
        raise ValueError("Chimp stream truncated")
    return starts


def _pfpc_chunk(codes: np.ndarray, resids: np.ndarray) -> list[int]:
    """FPC's FCM/DFCM recurrence with fresh 2**16-entry list tables."""
    fcm = [0] * (1 << 16)
    dfcm = [0] * (1 << 16)
    fhash = dhash = last = 0
    out = []
    for c, x in zip(codes.tolist(), resids.tolist()):
        pf = fcm[fhash]
        pd = (dfcm[dhash] + last) & _M64
        v = x ^ (pd if (c >> 3) & 1 else pf)
        out.append(v)
        fcm[fhash] = v
        fhash = ((fhash << 6) ^ (v >> 48)) & _TMASK
        delta = (v - last) & _M64
        dfcm[dhash] = delta
        dhash = ((dhash << 2) ^ (delta >> 40)) & _TMASK
        last = v
    return out


def _pfpc_chunks(blob: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (codes, residuals) of each chunk of a pFPC blob."""
    payload = parse_envelope(blob)[3]
    p = 4
    out = []
    for _ in range(int(np.frombuffer(payload, np.uint32, 1)[0])):
        cn, hlen, blen = (int(x) for x in np.frombuffer(payload, np.uint64, 3, p))
        p += 24
        codes = unpack_bits(payload[p : p + hlen], np.full(cn, 4, np.int64)).astype(np.int64)
        lzb = codes & 7
        lzb = np.where(lzb >= 4, lzb + 1, lzb)
        out.append((codes, unpack_bits(payload[p + hlen : p + hlen + blen], 8 * (8 - lzb))))
        p += hlen + blen
    return out


def _walks_agree(method: str, arr: np.ndarray) -> None:
    blob = load_codec(method).compress(arr)
    wdt, count, _, payload = parse_envelope(blob)
    width = wdt.itemsize * 8
    if method == "Gorilla":
        got = gorilla._record_starts(payload, be_words(payload), width, count)
        want = _gorilla_starts(payload, width, count)
    else:
        got = chimp._record_starts(payload, width, count)
        want = _chimp_starts(payload, width, count)
    assert got.tolist() == want


_CORPUS = [s.name for s in corpus()]


@pytest.mark.parametrize("block_bytes", [None, 64 * 1024], ids=["whole", "64K"])
@pytest.mark.parametrize("name", _CORPUS)
def test_walks_and_chunks_match_the_loops_on_the_corpus(name, block_bytes):
    spec = next(s for s in corpus() if s.name == name)
    for block in blocks(generate(spec, 0.25), block_bytes):
        _walks_agree("Gorilla", block)
        _walks_agree("Chimp", block)
        for codes, resids in _pfpc_chunks(load_codec("pFPC").compress(block)):
            assert pfpc._decompress_chunk(codes, resids).tolist() == _pfpc_chunk(codes, resids)


# --- crafted Gorilla streams ---------------------------------------------------

#: Two windows, each outside the other: an 11 record's XOR alternates
#: between them, and a 10 record's XOR is the lowest bit of the current one.
_WINDOWS = (0xFF << 8, 0xFF << 40)


def _gorilla_words(records: str) -> np.ndarray:
    """Words whose Gorilla stream has the given records after the first
    value: ``0`` (repeat), ``1`` (a 10 record) or ``w`` (an 11 record)."""
    v, window, out = 0, 0, [0]
    for r in records:
        if r == "w":
            window = _WINDOWS[window == _WINDOWS[0]]
            v ^= window
        elif r == "1":
            v ^= window & -window
        out.append(v)
    return np.array(out, dtype=np.uint64)


#: A gallop starts after 32 records of a run, then reads 32, 128, 512,
#: 2048 headers: runs that end on either side of each of those edges.
_EDGES = [n + d for n in (32, 64, 128, 192, 512, 704, 2048, 2752) for d in (-1, 0, 1)]


@pytest.mark.parametrize("run", _EDGES)
@pytest.mark.parametrize("breaker", ["0", "w"])
def test_gorilla_runs_broken_at_span_edges(run, breaker):
    records = "w" + ("1" * run + breaker) * 3 + "1" * 40
    words = _gorilla_words(records)
    blob = gorilla.Gorilla()._encode(words, None)
    assert gorilla._record_starts(blob, be_words(blob), 64, words.size).tolist() == (
        _gorilla_starts(blob, 64, words.size)
    )
    out = load_codec("Gorilla").decompress(load_codec("Gorilla").compress(words.view(np.float64)))
    assert out.view(np.uint64).tolist() == words.tolist()


@pytest.mark.parametrize("run", [33, 64, 192, 704, 2752, 3000])
def test_gorilla_run_that_ends_at_count(run):
    words = _gorilla_words("w" + "1" * run)
    blob = gorilla.Gorilla()._encode(words, None)
    starts = gorilla._record_starts(blob, be_words(blob), 64, words.size)
    assert starts.tolist() == _gorilla_starts(blob, 64, words.size)


def test_gorilla_short_runs_back_off_and_still_match():
    # runs just past the gallop threshold find little: the walk must keep
    # matching as it waits longer between gallops, and after a long run
    rng = np.random.default_rng(7)
    records = "w" + "".join("1" * int(n) + "0w"[int(b)] for n, b in zip(
        rng.integers(28, 40, 200), rng.integers(0, 2, 200)
    )) + "1" * 5000 + "0"
    words = _gorilla_words(records)
    blob = gorilla.Gorilla()._encode(words, None)
    assert gorilla._record_starts(blob, be_words(blob), 64, words.size).tolist() == (
        _gorilla_starts(blob, 64, words.size)
    )


@pytest.mark.parametrize("keep", [0.3, 0.5, 0.9, 0.999])
def test_gorilla_stream_cut_mid_run_raises_value_error(keep):
    codec = load_codec("Gorilla")
    blob = codec.compress(_gorilla_words("w" + "1" * 5000).view(np.float64))
    head = len(blob) - len(parse_envelope(blob)[3])
    cut = blob[: head + int((len(blob) - head) * keep)]
    with pytest.raises(ValueError):
        codec.decompress(cut)


# --- pFPC tables -----------------------------------------------------------------


@pytest.mark.parametrize("chunk", [100, 2047, 2048, 2049], ids=lambda n: f"chunk{n}")
def test_pfpc_chunks_do_not_see_each_others_tables(chunk):
    # eight identical chunks write the same table slots; a table carried
    # over from the previous chunk would predict differently
    rng = np.random.default_rng(chunk)
    one = np.cumsum(rng.normal(size=chunk)).round(2)
    arr = np.tile(one, 8)
    codec = load_codec("pFPC")
    blob = codec.compress(arr)
    parts = _pfpc_chunks(blob)
    assert [c.size for c, _ in parts] == [chunk] * 8
    for codes, resids in parts:
        assert pfpc._decompress_chunk(codes, resids).tolist() == _pfpc_chunk(codes, resids)
    np.testing.assert_array_equal(codec.decompress(blob), arr)
