"""Unit tests for IEEE-754 bit views and order-preserving mappings."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floatmap import (
    from_ordered,
    from_words,
    lag_diff,
    lag_sum,
    to_ordered,
    to_words,
    unzigzag,
    zigzag,
)

SPECIALS64 = np.array(
    [0.0, -0.0, 1.0, -1.0, np.pi, -np.pi, np.inf, -np.inf, np.nan, 5e-324, 1e308],
    dtype=np.float64,
)
with np.errstate(over="ignore"):  # 1e308 overflows to inf in f32, intentionally
    SPECIALS32 = SPECIALS64.astype(np.float32)


class TestWords:
    @pytest.mark.parametrize("arr", [SPECIALS64, SPECIALS32], ids=["f64", "f32"])
    def test_roundtrip_bit_exact(self, arr):
        back = from_words(to_words(arr), arr.dtype)
        np.testing.assert_array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_word_dtype(self):
        assert to_words(SPECIALS32).dtype == np.uint32
        assert to_words(SPECIALS64).dtype == np.uint64

    def test_rejects_ints(self):
        with pytest.raises(TypeError):
            to_words(np.arange(3))


class TestOrdered:
    @pytest.mark.parametrize("arr", [SPECIALS64, SPECIALS32], ids=["f64", "f32"])
    def test_bijection(self, arr):
        w = to_words(arr)
        np.testing.assert_array_equal(from_ordered(to_ordered(w)), w)

    def test_order_preserving_f64(self):
        vals = np.array([-1e300, -2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 7.25, 1e300])
        codes = to_ordered(to_words(vals))
        assert np.all(np.diff(codes.astype(object)) >= 0)

    def test_order_preserving_f32(self):
        vals = np.array([-3e38, -1.5, 0.0, 2.0, 3e38], dtype=np.float32)
        codes = to_ordered(to_words(vals))
        assert np.all(np.diff(codes.astype(object)) >= 0)


class TestZigzag:
    @pytest.mark.parametrize("width", [32, 64])
    def test_small_values(self, width):
        x = np.array([0, -1, 1, -2, 2], dtype=f"i{width // 8}")
        z = zigzag(x)
        assert z.dtype == np.dtype(f"u{width // 8}")
        assert z.tolist() == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(unzigzag(z), x)

    @pytest.mark.parametrize("width", [32, 64])
    def test_unsigned_words_read_as_signed(self, width):
        # a wrapping difference of unsigned words: -1 is the all-ones word
        x = np.array([0, -1, 1, -2, 2], dtype=f"i{width // 8}")
        u = x.view(f"u{width // 8}")
        np.testing.assert_array_equal(zigzag(u), zigzag(x))
        np.testing.assert_array_equal(unzigzag(zigzag(u)), x)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=30))
    def test_roundtrip64(self, xs):
        x = np.array(xs, dtype=np.int64)
        np.testing.assert_array_equal(unzigzag(zigzag(x)), x)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-(2**30), 2**30), max_size=30))
    def test_roundtrip32(self, xs):
        x = np.array(xs, dtype=np.int32)
        np.testing.assert_array_equal(unzigzag(zigzag(x)), x)


class TestLagDifference:
    """The LNV residual of SPDP/MPC and the Lorenzo residual of fpzip/ndzip."""

    @pytest.mark.parametrize(
        "dtype, shape, lag, axes",
        [
            (np.uint8, (1000,), 1, (0,)),  # SPDP LNVs1
            (np.uint8, (1000,), 2, (0,)),  # SPDP LNVs2
            (np.uint32, (5, 1024), 6, (-1,)),  # MPC LNV6s, per chunk
            (np.uint64, (9, 10, 11), 1, (0, 1, 2)),  # fpzip Lorenzo
            (np.uint64, (4, 16, 16), 1, (1, 2)),  # ndzip Lorenzo within blocks
        ],
        ids=["spdp-lag1", "spdp-lag2", "mpc-lag6", "fpzip-all-axes", "ndzip-axes-1.."],
    )
    def test_roundtrip(self, dtype, shape, lag, axes):
        g = np.random.default_rng(3)
        a = g.integers(0, np.iinfo(dtype).max, shape, dtype=dtype, endpoint=True)
        r = lag_diff(a, lag, axes)
        assert r.dtype == a.dtype
        np.testing.assert_array_equal(lag_sum(r, lag, axes), a)

    def test_lag2_residual(self):
        a = np.array([5, 7, 4, 10, 3], dtype=np.uint8)
        assert lag_diff(a, 2, (0,)).tolist() == [5, 7, 255, 3, 255]
