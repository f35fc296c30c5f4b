"""Codec-specific behaviours beyond the roundtrip contract."""
import numpy as np
import pytest

from repro.codecs.base import CodecFailure, load_codec
from repro.codecs.gfc import _LIMIT
from repro.codecs.pfpc import PFPC
from repro.codecs.spdp import _dim8_forward, _dim8_inverse


class TestGFC:
    def test_input_size_limit(self):
        """Paper §4.1: GFC cannot exceed 512 MB of input."""
        codec = load_codec("GFC")
        fake = np.lib.stride_tricks.as_strided(
            np.zeros(8), shape=((_LIMIT // 8) + 1,), strides=(0,)
        )
        with pytest.raises(CodecFailure):
            codec.compress(fake)

    def test_f32_reinterpreted_as_u64_pairs(self):
        g = np.random.default_rng(0)
        x = g.random(1001).astype(np.float32)  # odd count exercises padding
        codec = load_codec("GFC")
        out = codec.decompress(codec.compress(x))
        np.testing.assert_array_equal(out.view(np.uint8), x.view(np.uint8))


class TestPFPC:
    def test_thread_count_changes_layout_not_result(self):
        g = np.random.default_rng(1)
        x = np.cumsum(g.normal(size=7000))
        blobs = []
        for t in (1, 4, 8, 16):
            c = PFPC(n_threads=t)
            blob = c.compress(x)
            np.testing.assert_array_equal(c.decompress(blob), x)
            blobs.append(len(blob))
        assert len(set(blobs)) > 1  # chunking affects predictor warmup

    def test_more_threads_can_reduce_ratio(self):
        """Paper §3.6: big thread counts mix dimensions and hurt CR."""
        g = np.random.default_rng(2)
        x = np.cumsum(g.normal(size=8192))
        small = len(PFPC(n_threads=1).compress(x))
        big = len(PFPC(n_threads=64).compress(x))
        assert big >= small * 0.98  # warmup cost per chunk never helps


class TestSPDPTransforms:
    def test_dim8_roundtrip(self):
        g = np.random.default_rng(4)
        for n in (0, 1, 7, 8, 9, 800, 805):
            b = g.integers(0, 256, n, dtype=np.uint8)
            np.testing.assert_array_equal(_dim8_inverse(_dim8_forward(b)), b)

    def test_dim8_groups_msb(self):
        b = np.arange(16, dtype=np.uint8)
        out = _dim8_forward(b)
        np.testing.assert_array_equal(out[:2], [0, 8])  # byte 0 of each word


class TestChimpVsGorilla:
    def test_chimp_beats_gorilla_on_noisy_lowprec(self):
        """Paper §3.5: the 128-value window wins when values are more random."""
        g = np.random.default_rng(5)
        x = np.round(g.normal(size=20000) * 10, 1)
        chimp = len(load_codec("Chimp").compress(x))
        gorilla = len(load_codec("Gorilla").compress(x))
        assert chimp < gorilla

    def test_gorilla_single_bit_for_repeats(self):
        x = np.full(10000, 42.5)
        blob = load_codec("Gorilla").compress(x)
        # first value 64 bits + ~1 bit per repeat + envelope
        assert len(blob) < 11 + 8 + 10000 // 8 + 16


class TestNdzipDims:
    def test_3d_beats_1d_on_separable_field(self):
        t = np.linspace(0, 3, 48)
        arr = np.sin(t)[:, None, None] * np.cos(t)[None, :, None] + t[None, None, :]
        codec = load_codec("ndzip-C")
        md = len(codec.compress(arr, dims=arr.shape))
        oned = len(codec.compress(arr.reshape(-1)))
        assert md < oned * 1.1

    def test_awkward_grid_degrades_to_1d(self):
        """Extent below the block side must not produce an all-verbatim blob."""
        g = np.random.default_rng(6)
        arr = np.cumsum(g.normal(size=(4, 40, 40)), axis=2)  # dim0 < 16
        codec = load_codec("ndzip-C")
        blob = codec.compress(arr, dims=arr.shape)
        np.testing.assert_array_equal(codec.decompress(blob), arr.reshape(-1))


class TestDzipLite:
    def test_compresses_text_like_bytes(self):
        x = np.frombuffer((b"3.14159 " * 512)[:4096], dtype=np.float64)
        blob = load_codec("Dzip").compress(x)
        assert len(blob) < x.nbytes / 2

    def test_kbs_class_throughput(self):
        """Reproduces §4.5: NN-class methods are KB/s, not practical."""
        import time

        g = np.random.default_rng(7)
        x = g.random(2048)
        t0 = time.perf_counter()
        load_codec("Dzip").compress(x)
        dt = time.perf_counter() - t0
        assert x.nbytes / dt < 5e6  # well under MB/s-class codecs
