"""Elementary symmetric polynomials and the two growth-factor formulations."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelinear import (
    e2_positive,
    esp_all,
    esp_naive,
    expected_growth_esp,
    expected_growth_product,
)


class TestEspAll:
    def test_two_weight_example(self):
        table = esp_all([0.3, 0.5])
        assert table[0] == 1.0
        assert table[1] == pytest.approx(0.8, abs=1e-15)
        assert table[2] == pytest.approx(0.15, abs=1e-15)

    def test_all_ones(self):
        # e_j of k ones is the binomial coefficient C(k, j)
        table = esp_all([1.0, 1.0, 1.0])
        assert [table[j] for j in (1, 2, 3)] == [3.0, 3.0, 1.0]

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            esp_all([0.5])[2]

    @pytest.mark.parametrize("weights", [[0.3], [0.3, 0.0, 0.5], np.zeros(7), np.ones(40)])
    def test_shape_is_k_plus_one_from_e0(self, weights):
        table = esp_all(weights)
        assert table.shape == (len(weights) + 1,)
        assert table[0] == 1.0

    @pytest.mark.parametrize("weights", [[1e300, 1e300, 0.0], [0.0, 1e300, 1e300]])
    def test_zero_weight_leaves_no_nan_wherever_it_sits(self, weights):
        # e_3 of two positive weights is exactly 0; inf * 0.0 must not reach it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert esp_all(weights).tolist() == [1.0, 2e300, np.inf, 0.0]
            assert esp_naive(weights, 3) == 0.0

    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError, match="nonempty"):
            esp_all([])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            esp_all([0.5, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            esp_all,
            lambda w: esp_naive(w, 2),
            lambda w: expected_growth_product(w, 0.1, "+"),
            lambda w: expected_growth_esp(esp_all(w), 0.1, "+"),
            e2_positive,
        ],
        ids=["esp_all", "esp_naive", "expected_growth_product", "expected_growth_esp", "e2_positive"],
    )
    def test_rejects_non_finite_weights(self, call, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            call([0.5, bad, 0.3])

    @pytest.mark.parametrize("grid", [[0.1, 0.2], np.array([0.1, 0.2])], ids=["list", "array"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda mu: expected_growth_product([0.5, 0.5], mu, "+"),
            lambda mu: expected_growth_esp(esp_all([0.5, 0.5]), mu, "+"),
        ],
        ids=["expected_growth_product", "expected_growth_esp"],
    )
    def test_rejects_a_drift_grid(self, call, grid):
        # check_mu passes a grid of valid drifts; these take one drift
        with pytest.raises(TypeError):
            call(grid)

    def test_large_weights_stay_admissible(self):
        # verification device: no upper bound on the weights
        assert esp_all([2.0, 1e300])[1] == 1e300

    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_enumeration(self, weights):
        table = esp_all(weights)
        for j in range(1, len(weights) + 1):
            expected = esp_naive(weights, j)
            scale = max(abs(expected), 1.0)
            assert abs(table[j] - expected) <= 1e-14 * scale


class TestE2Positive:
    def test_exhaustive_zero_positive_patterns(self):
        # e2 > 0 iff at least two weights are strictly positive, checked
        # over every on/off pattern of six slots with random magnitudes
        rng = np.random.default_rng(7)
        for pattern in itertools.product([0, 1], repeat=6):
            w = np.where(pattern, rng.uniform(0.05, 1.0, 6), 0.0)
            assert e2_positive(w) == (sum(pattern) >= 2)

    def test_needs_two_weights(self):
        with pytest.raises(ValueError):
            e2_positive([0.5])


class TestGrowthFormulations:
    def test_plus_sign_example(self):
        table = esp_all([0.5, 0.5])
        assert expected_growth_esp(table, 0.1, "+") == pytest.approx(1.1025, abs=1e-15)

    def test_minus_sign_example(self):
        table = esp_all([0.3, 0.5])
        value = expected_growth_esp(table, -0.2, "-")
        assert value == pytest.approx(1.166, abs=1e-12)
        assert expected_growth_product([0.3, 0.5], -0.2, "-") == pytest.approx(
            1.166, abs=1e-12
        )

    @pytest.mark.parametrize("sign", ["+", "-", 1, -1])
    def test_sign_spellings(self, sign):
        table = esp_all([0.4, 0.2, 0.7])
        assert expected_growth_esp(table, 0.15, sign) == pytest.approx(
            expected_growth_product([0.4, 0.2, 0.7], 0.15, sign), rel=1e-14
        )

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            expected_growth_product([0.5], 0.1, 0)

    def test_mu_domain(self):
        with pytest.raises(ValueError):
            expected_growth_product([0.5], 1.0, "+")

    @given(
        k=st.integers(1, 30),
        mu=st.sampled_from([-0.9, -0.5, -0.3, -0.1, -0.01, 0.01, 0.1, 0.3, 0.5, 0.9]),
        sign=st.sampled_from(["+", "-"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=500, deadline=None)
    def test_esp_equals_product_both_parities(self, k, mu, sign, seed):
        # The expansion's terms alternate when sign*mu < 0, so agreement
        # is bounded relative to the term mass sum_j e_j|mu|^j (which
        # equals the product at |mu|); plain relative error is not
        # attainable in f64 once the product nearly cancels to 0.
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, size=k)
        via_product = expected_growth_product(w, mu, sign)
        via_esp = expected_growth_esp(esp_all(w), mu, sign)
        mass = expected_growth_product(w, abs(mu), "+")
        assert abs(via_esp - via_product) <= 1e-12 * mass

    @given(
        k=st.integers(1, 30),
        mu=st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.9]),
        sign=st.sampled_from(["+", "-"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=300, deadline=None)
    def test_esp_equals_product_strict_when_terms_do_not_cancel(self, k, mu, sign, seed):
        # sign*mu > 0 keeps every expansion term nonnegative, so plain
        # relative agreement at 1e-12 is attainable and required
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, size=k)
        mu_signed = mu if sign == "+" else -mu
        via_product = expected_growth_product(w, mu_signed, sign)
        via_esp = expected_growth_esp(esp_all(w), mu_signed, sign)
        assert via_esp == pytest.approx(via_product, rel=1e-12)

    @pytest.mark.parametrize(
        "table", [np.ones((2, 2)), np.array([]), np.array([0.5, 0.3]), [2.0, 1.0]],
        ids=["2-d", "empty", "e0-not-1", "list-e0-not-1"],
    )
    def test_esp_refuses_a_table_that_is_not_e0_to_ek(self, table):
        with pytest.raises(ValueError, match="e_0 = 1"):
            expected_growth_esp(table, 0.1, "+")

    @pytest.mark.parametrize("mu", [0.0, -0.0, np.float64(0.0)], ids=["0", "-0", "float64"])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_zero_drift_is_exactly_one_beside_huge_coefficients(self, mu, sign):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_growth_esp(esp_all([1e300, 1e300]), mu, sign) == 1.0

    def test_table_is_reusable_across_mu(self):
        w = [0.2, 0.6, 0.4, 0.9]
        table = esp_all(w)
        for mu in (-0.4, 0.25):
            assert expected_growth_esp(table, mu, "+") == pytest.approx(
                expected_growth_product(w, mu, "+"), rel=1e-12
            )
