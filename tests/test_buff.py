"""BUFF-specific behaviour: Table 2, sub-column queries, fallbacks."""
import warnings

import numpy as np
import pytest

from repro.codecs.base import CodecFailure
from repro.codecs.buff import _PACKED, BITS_FOR_PRECISION, BUFF, _detect_precision
from tests.test_golden_bytes import INPUTS


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

    def test_near_max_doubles_probe_without_overflow(self):
        # values up to 3.5e307: no precision fits the 2^62 bound, and the
        # probe must say so before np.round overflows
        arr, _ = INPUTS["gorilla-gaps-f64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            blob = BUFF().compress(arr)
        assert np.array_equal(BUFF().decompress(blob).view(np.uint64), arr.view(np.uint64))


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


class TestForgedCount:
    @pytest.mark.parametrize("count", [2**40, 2**64 - 1], ids=["2^40", "2^64-1"])
    def test_packed_sub_columns_raise_value_error(self, count):
        # decimal input takes the packed path, whose sub-columns are read
        # before any buffer of ``count`` values is allocated
        x = np.round(np.random.default_rng(5).random(500) * 100, 2)
        blob = BUFF().compress(x)
        assert blob[11] == _PACKED
        with pytest.raises(ValueError):
            BUFF().decompress(blob[:3] + count.to_bytes(8, "little") + blob[11:])
