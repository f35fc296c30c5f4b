"""Corpus (Table 3 analog) structural and statistical properties."""
import numpy as np
import pytest

from repro.core.metrics import harmonic_mean, value_entropy
from repro.data.corpus import (
    DOMAINS,
    blocks,
    corpus,
    corpus_table,
    generate,
    get_spec,
    tpc_numeric_matrix,
)

SPECS = corpus()


class TestSpecs:
    def test_thirty_three_datasets(self):
        assert len(SPECS) == 33

    def test_domain_counts_match_table3(self):
        counts = {d: sum(1 for s in SPECS if s.domain == d) for d in DOMAINS}
        assert counts == {"HPC": 10, "TS": 8, "OBS": 8, "DB": 7}

    def test_precision_mix(self):
        d = {s.name: s.dtype_code for s in SPECS}
        assert d["msg-bt"] == "D" and d["rsim"] == "S"
        assert d["tpcH-lineitem"] == "S" and d["tpcH-order"] == "D"

    def test_dimensionality_classes(self):
        assert len(get_spec("astro-mhd").extent) == 3
        assert len(get_spec("acs-wht").extent) == 2
        assert len(get_spec("msg-bt").extent) == 1

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("nope")


class TestGeneration:
    def test_deterministic(self):
        s = get_spec("citytemp")
        a = generate(s, scale=0.1)
        b = generate(s, scale=0.1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", [s.name for s in SPECS])
    def test_dtype_and_shape(self, name):
        s = get_spec(name)
        arr = generate(s, scale=0.05)
        assert arr.dtype == s.dtype
        assert arr.shape == s.scaled_extent(0.05)
        assert np.isfinite(arr).all() or name == "hurricane"

    def test_scale_changes_leading_dim(self):
        s = get_spec("phone-gyro")
        assert generate(s, 0.5).shape[0] == pytest.approx(s.extent[0] * 0.5, abs=1)

    def test_astro_mhd_is_low_entropy(self):
        """astro-mhd is the corpus's entropy floor (paper: 0.97 bits)."""
        ent = value_entropy(generate(get_spec("astro-mhd"), 0.25))
        assert ent < 4.0
        assert ent < value_entropy(generate(get_spec("citytemp"), 0.25))

    def test_random_datasets_are_high_entropy(self):
        arr = generate(get_spec("jane-street"), 1.0)
        assert value_entropy(arr) > 15.0

    def test_db_domain_lacks_spatial_structure(self):
        """Fig. 6a/analysis: DB columns lack the neighbour correlation that
        Lorenzo-class predictors exploit on HPC fields."""
        from repro.codecs.base import load_codec

        codec = load_codec("ndzip-C")

        def cr(name):
            a = generate(get_spec(name), 0.25)
            return a.nbytes / len(codec.compress(a, dims=a.shape if a.ndim > 1 else None))

        assert cr("miranda3d") > cr("tpcDS-catalog")


class TestCorpusTable:
    def test_columns(self):
        tab = corpus_table(scale=0.05)
        assert {"domain", "name", "type", "size_bytes", "entropy", "extent"} <= set(
            tab.columns
        )
        assert len(tab) == 33

    def test_paper_reference_carried(self):
        tab = corpus_table(scale=0.05)
        row = tab[tab.name == "astro-mhd"].iloc[0]
        assert row.paper_size_bytes == 548458560
        assert row.paper_entropy == 0.97


class TestTpcNumericMatrix:
    def test_tpc_numeric_matrix_kinds(self):
        for kind in ("order", "store", "web", "catalog", "lineitem"):
            m = tpc_numeric_matrix(kind, 100, 4, seed=1)
            assert m.shape == (100, 4)
            assert np.isfinite(m).all()

    def test_tpc_numeric_matrix_unknown_kind(self):
        with pytest.raises(ValueError):
            tpc_numeric_matrix("nope", 10, 2, seed=0)

    def test_money_columns_two_decimals(self):
        m = tpc_numeric_matrix("order", 500, 1, seed=2)
        np.testing.assert_array_equal(np.round(m, 2), m)


class TestBlocks:
    def test_whole_is_one_flat_block(self):
        arr = np.arange(12.0).reshape(3, 4)
        (block,) = blocks(arr, None)
        np.testing.assert_array_equal(block, arr.reshape(-1))

    @pytest.mark.parametrize("nbytes,sizes", [(20, [2, 2, 1]), (3, [1] * 5), (64, [5])])
    def test_whole_elements_per_block(self, nbytes, sizes):
        arr = np.arange(5.0)
        parts = blocks(arr, nbytes)
        assert [p.size for p in parts] == sizes
        np.testing.assert_array_equal(np.concatenate(parts), arr)

    def test_empty_gives_one_empty_block(self):
        assert [p.size for p in blocks(np.zeros(0, np.float32), 4096)] == [0]

    def test_read_only_views_leave_input_writable(self):
        arr = np.arange(8.0)
        assert not any(p.flags.writeable for p in blocks(arr, 16))
        assert arr.flags.writeable


class TestMetrics:
    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4 / 3)

    def test_harmonic_mean_skips_nan(self):
        assert harmonic_mean([2.0, float("nan")]) == 2.0

    def test_value_entropy_constant(self):
        assert value_entropy(np.full(100, 7.5)) == 0.0

    def test_value_entropy_uniform(self):
        arr = np.arange(1024, dtype=np.float64)
        assert value_entropy(arr) == pytest.approx(10.0)
