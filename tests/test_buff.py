"""BUFF-specific behaviour: Table 2, sub-column queries, fallbacks."""
import numpy as np
import pytest

from repro.codecs.base import CodecFailure
from repro.codecs.buff import BITS_FOR_PRECISION, BUFF, _detect_precision


class TestTable2:
    def test_matches_paper_exactly(self):
        # Table 2 of the paper: precision 1..10 -> bits needed
        paper = {1: 5, 2: 8, 3: 11, 4: 15, 5: 18, 6: 21, 7: 25, 8: 28, 9: 31, 10: 35}
        for p, bits in paper.items():
            assert BITS_FOR_PRECISION[p] == bits

    def test_formula(self):
        # bits = ceil(log2(10^p)) + 1
        for p in range(1, 11):
            assert BITS_FOR_PRECISION[p] == int(np.ceil(p * np.log2(10))) + 1


class TestPrecisionDetection:
    def test_integers(self):
        assert _detect_precision(np.array([1.0, 2.0, -7.0])) == 0

    def test_two_decimals(self):
        assert _detect_precision(np.array([1.25, 2.50, -7.07])) == 2

    def test_full_precision_none(self):
        g = np.random.default_rng(0)
        assert _detect_precision(g.random(100)) is None

    def test_float32_decimals(self):
        x = np.round(np.random.default_rng(1).random(50) * 10, 1).astype(np.float32)
        assert _detect_precision(x) is not None


class TestCompression:
    def test_low_precision_compresses_well(self):
        g = np.random.default_rng(2)
        x = np.round(g.normal(size=10000) * 50, 2)
        blob = BUFF().compress(x)
        assert x.nbytes / len(blob) > 2.0  # 8 bytes -> ~3 per value

    def test_outlier_widens_everything(self):
        """Paper §3.3: BUFF's CR is sensitive to value ranges and outliers."""
        g = np.random.default_rng(3)
        x = np.round(g.random(5000), 2)
        y = x.copy()
        y[17] = 1e9  # single outlier
        assert len(BUFF().compress(y)) > len(BUFF().compress(x)) * 1.5

    def test_raw_fallback_on_full_precision(self):
        g = np.random.default_rng(4)
        x = g.random(1000)
        blob = BUFF().compress(x)
        assert np.array_equal(BUFF().decompress(blob), x)
        assert len(blob) >= x.nbytes  # raw + envelope: CR slightly below 1

    def test_non_finite_raises(self):
        with pytest.raises(CodecFailure):
            BUFF().compress(np.array([1.0, np.nan]))
        with pytest.raises(CodecFailure):
            BUFF().compress(np.array([1.0, np.inf]))

    def test_negative_zero_patched(self):
        x = np.array([0.5, -0.0, 0.0, 1.25])
        out = BUFF().decompress(BUFF().compress(x))
        np.testing.assert_array_equal(out.view(np.uint64), x.view(np.uint64))


class TestEncodedQueries:
    """The paper's byte-column pattern-match query (§3.3 Insights)."""

    def setup_method(self):
        g = np.random.default_rng(5)
        self.x = np.round(g.random(4000) * 100, 1)
        self.codec = BUFF()
        self.blob = self.codec.compress(self.x)

    def test_query_eq(self):
        target = self.x[123]
        mask = self.codec.query_eq(self.blob, float(target))
        np.testing.assert_array_equal(mask, self.x == target)

    def test_query_eq_absent_value(self):
        mask = self.codec.query_eq(self.blob, 12345.6)
        assert not mask.any()

    def test_query_le(self):
        for v in [0.0, 17.3, 50.0, 99.9, 200.0]:
            mask = self.codec.query_le(self.blob, v)
            np.testing.assert_array_equal(mask, self.x <= v, err_msg=f"v={v}")

    def test_query_le_below_range(self):
        mask = self.codec.query_le(self.blob, -5.0)
        assert not mask.any()

    def test_packed_queries_do_not_decode(self, monkeypatch):
        """§3.3: predicates run on the sub-columns without decompressing."""

        def no_decode(blob):
            raise AssertionError("packed-mode query decoded the blob")

        monkeypatch.setattr(self.codec, "decompress", no_decode)
        target = float(self.x[123])
        np.testing.assert_array_equal(
            self.codec.query_eq(self.blob, target), self.x == target
        )
        np.testing.assert_array_equal(self.codec.query_le(self.blob, 50.0), self.x <= 50.0)

    def test_query_on_empty_blob(self):
        blob = self.codec.compress(np.zeros(0))
        assert self.codec.query_eq(blob, 1.0).size == 0
        assert self.codec.query_le(blob, 1.0).size == 0

    def test_query_on_raw_mode(self):
        g = np.random.default_rng(6)
        x = g.random(500)
        blob = self.codec.compress(x)
        np.testing.assert_array_equal(self.codec.query_le(blob, 0.5), x <= 0.5)
        target = float(x[7])
        np.testing.assert_array_equal(self.codec.query_eq(blob, target), x == target)
