import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptext.errors import ContractError
from dptext.metrics import (
    MetricReport,
    coherence,
    diversity,
    levenshtein,
    ngram_uniqueness,
)


def levenshtein_oracle(a, b):
    """Independent full-matrix dynamic program."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[m][n]


class TestDiversity:
    def test_all_unique_ngrams(self):
        tokens = ["a", "b", "c", "d", "e", "f"]
        assert diversity(tokens, "product") == 1.0
        assert diversity(tokens, "sum") == 3.0

    def test_repeated_token_hand_count(self):
        # "a a a a a": one unique n-gram per order; totals 4, 3, 2
        tokens = ["a"] * 5
        assert ngram_uniqueness(tokens, 2) == pytest.approx(1 / 4)
        assert ngram_uniqueness(tokens, 3) == pytest.approx(1 / 3)
        assert ngram_uniqueness(tokens, 4) == pytest.approx(1 / 2)
        assert diversity(tokens, "product") == pytest.approx(1 / 24, abs=1e-15)
        assert diversity(tokens, "sum") == pytest.approx(1 / 4 + 1 / 3 + 1 / 2, abs=1e-15)

    def test_short_input_skips_undefined_orders(self):
        # three tokens: only 2- and 3-grams exist
        tokens = ["x", "y", "x"]
        r2 = ngram_uniqueness(tokens, 2)
        r3 = ngram_uniqueness(tokens, 3)
        assert ngram_uniqueness(tokens, 4) is None
        assert diversity(tokens, "product") == pytest.approx(r2 * r3)

    def test_empty_input_contract(self):
        with pytest.raises(ContractError):
            diversity([])

    def test_bad_formula_contract(self):
        with pytest.raises(ContractError):
            diversity(["a", "b"], formula="mean")

    def test_sum_equals_sum_of_ratios_exactly(self):
        tokens = ["a", "b", "a", "b", "a", "c", "a"]
        expected = sum(ngram_uniqueness(tokens, n) for n in (2, 3, 4))
        assert diversity(tokens, "sum") == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=4, max_size=40))
    def test_product_in_unit_interval(self, tokens):
        value = diversity(tokens, "product")
        assert 0.0 < value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=40))
    def test_sum_in_range(self, tokens):
        assert 0.0 <= diversity(tokens, "sum") <= 3.0


class TestCoherence:
    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 0.5])
        assert coherence(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert coherence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_cosine(self):
        assert coherence([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            1.0 / math.sqrt(2), abs=1e-12
        )
        assert coherence([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.7071, abs=5e-5)

    def test_opposite_vectors(self):
        assert coherence([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_contract(self):
        with pytest.raises(ContractError):
            coherence([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_contract(self):
        with pytest.raises(ContractError):
            coherence([1.0], [1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            base = coherence(a, b)
            assert abs(coherence(3.7 * a, b) - base) <= 1e-9
            assert abs(coherence(a, 0.004 * b) - base) <= 1e-9
            assert -1.0 - 1e-12 <= base <= 1.0 + 1e-12


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("same", "same") == 0

    def test_kitten_sitting(self):
        assert levenshtein_oracle("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_side(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(10)
        letters = "abcde"
        for _ in range(300):
            a = "".join(rng.choice(list(letters), size=rng.integers(0, 30)))
            b = "".join(rng.choice(list(letters), size=rng.integers(0, 30)))
            assert levenshtein(a, b) == levenshtein_oracle(a, b)

    def test_token_level_mode(self):
        a = ["the", "quick", "fox"]
        b = ["the", "slow", "fox", "ran"]
        assert levenshtein(a, b) == 2
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.text("abc", max_size=25), st.text("abc", max_size=25))
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @settings(max_examples=50, deadline=None)
    @given(
        st.text("ab", max_size=15),
        st.text("ab", max_size=15),
        st.text("ab", max_size=15),
    )
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda size: st.tuples(st.text("abc"[:size], max_size=40), st.text("abc"[:size], max_size=40))
    ))
    def test_matches_oracle_over_small_alphabets(self, pair):
        a, b = pair
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(["a", "b", "1"]), st.integers(0, 2)), max_size=70),
        st.lists(st.one_of(st.sampled_from(["a", "b", "1"]), st.integers(0, 2)), max_size=70),
    )
    def test_matches_oracle_on_mixed_token_lists(self, a, b):
        # the string "1" and the int 1 are different tokens
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
        assert levenshtein(tuple(a), b) == levenshtein(a, b)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_lengths_around_word_boundaries(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        a = "".join(rng.choice(list("ab"), size=m))
        b = "".join(rng.choice(list("ab"), size=n))
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
        # every element matches or none does: the carry through the top bit
        assert levenshtein("a" * m, "a" * n) == abs(m - n)
        assert levenshtein("a" * m, "b" * n) == max(m, n)

    def test_kilobyte_pair_matches_oracle(self):
        rng = np.random.default_rng(20)
        letters = list("etaoin shrdlu")
        a = "".join(rng.choice(letters, size=1024))
        b = "".join(rng.choice(letters, size=1031))
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    def test_unhashable_elements_are_contract_error(self):
        with pytest.raises(ContractError, match="hashable"):
            levenshtein([[1]], [[2]])
        with pytest.raises(ContractError, match="hashable"):
            levenshtein(["a"], [["a"], "b"])


class TestMetricReport:
    def test_to_dict_round_trip_fields(self):
        report = MetricReport(
            diversity=0.5,
            diversity_formula="product",
            coherence=0.9,
            edit_distance=12,
            token_count=40,
            char_count=200,
        )
        data = report.to_dict()
        assert data["diversity"] == 0.5
        assert data["mauve"] is None

    def test_mauve_only_when_supplied(self):
        report = MetricReport(diversity=1.0, diversity_formula="product", mauve=0.66)
        assert report.to_dict()["mauve"] == 0.66

    def test_range_validation(self):
        with pytest.raises(ContractError):
            MetricReport(diversity=1.5, diversity_formula="product")
        with pytest.raises(ContractError):
            MetricReport(diversity=3.5, diversity_formula="sum")
