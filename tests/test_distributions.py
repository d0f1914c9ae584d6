import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyivar import (
    Alpha,
    DimensionMismatchError,
    Dist,
    InputValidationError,
    InvalidAlphaError,
    InvalidDistributionError,
    abs_cont,
    rel_entropy,
    renyi_div,
    renyi_via_reference,
)

HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)  # two-term sums done by hand

ALPHAS = st.sampled_from([-3.0, -1.0, -0.25, 0.25, 0.5, 0.9, 1.1, 2.0, 5.0])


def weights(min_size=1, max_size=6):
    return st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    ).filter(lambda w: sum(w) > 1e-6)


def paired_dists():
    # two weight vectors over one alphabet, zeros allowed on either side
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.tuples(weights(d, d), weights(d, d))
    )


class TestDistConstruction:
    def test_normalizes(self):
        d = Dist([2.0, 6.0])
        np.testing.assert_allclose(d.weights, [0.25, 0.75], rtol=0, atol=1e-15)
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            Dist([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidDistributionError):
            Dist([0.0, 0.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidDistributionError):
            Dist([math.nan, 1.0])
        with pytest.raises(InvalidDistributionError):
            Dist([math.inf, 1.0])

    def test_rejects_overflowing_total(self):
        # the total is inf: dividing by it used to leave an all-zero "distribution"
        with pytest.raises(InvalidDistributionError):
            Dist([1e308, 1e308])

    def test_weights_read_only(self):
        d = Dist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.weights[0] = 1.0


class TestAlpha:
    @pytest.mark.parametrize("bad", [0.0, 1.0, 1e-13, 1.0 + 1e-13, -5e-13])
    def test_rejects_excluded_points(self, bad):
        with pytest.raises(InvalidAlphaError):
            Alpha(bad)

    def test_rejects_huge_magnitude(self):
        with pytest.raises(InvalidAlphaError):
            Alpha(2e6)

    def test_regimes(self):
        assert Alpha(2.0).regime == "alpha_gt_1"
        assert Alpha(0.5).regime == "alpha_in_01"
        assert Alpha(-1.0).regime == "alpha_lt_0"
        with pytest.raises(InputValidationError):
            Alpha(math.nan)


class TestAbsCont:
    def test_identical(self):
        d = Dist([0.5, 0.5])
        assert abs_cont(d, d)

    def test_charges_null_point(self):
        assert not abs_cont(Dist([0.5, 0.5]), Dist([1.0, 0.0]))

    def test_support_containment(self):
        assert abs_cont(Dist([1.0, 0.0]), Dist([0.5, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            abs_cont(Dist([1.0]), Dist([0.5, 0.5]))


class TestRelEntropy:
    def test_self_is_zero(self):
        d = Dist([0.3, 0.7])
        assert rel_entropy(d, d).raw == 0.0

    def test_not_abs_cont_is_infinite(self):
        assert rel_entropy(Dist([0.5, 0.5]), Dist([1.0, 0.0])).is_pos_inf

    def test_two_term_value(self):
        got = rel_entropy(Dist([0.5, 0.5]), Dist([0.25, 0.75]))
        assert got.raw == pytest.approx(HALF_LOG_4_3, abs=1e-15)

    def test_zero_entries_no_nan(self):
        got = rel_entropy(Dist([0.0, 1.0]), Dist([0.5, 0.5]))
        assert got.raw == pytest.approx(math.log(2.0), abs=1e-15)


class TestRenyiDiv:
    def test_self_is_zero(self):
        d = Dist([0.2, 0.3, 0.5])
        for a in (-3.0, -0.25, 0.5, 1.1, 5.0):
            assert renyi_div(Alpha(a), d, d).raw == pytest.approx(0.0, abs=1e-14)

    def test_order_two_value(self):
        got = renyi_div(Alpha(2.0), Dist([0.5, 0.5]), Dist([0.25, 0.75]))
        assert got.raw == pytest.approx(HALF_LOG_4_3, abs=1e-15)

    def test_disjoint_supports_infinite(self):
        assert renyi_div(Alpha(0.5), Dist([1.0, 0.0]), Dist([0.0, 1.0])).is_pos_inf

    def test_above_one_needs_domination(self):
        assert renyi_div(Alpha(2.0), Dist([0.5, 0.5]), Dist([1.0, 0.0])).is_pos_inf

    def test_below_zero_swaps_arguments(self):
        nu, th = Dist([0.6, 0.4]), Dist([0.2, 0.8])
        direct = renyi_div(Alpha(-2.0), nu, th)
        swapped = renyi_div(Alpha(3.0), th, nu)
        assert direct.raw == swapped.raw

    def test_large_order_no_overflow(self):
        got = renyi_div(Alpha(100.0), Dist([0.5, 0.5]), Dist([0.25, 0.75]))
        assert got.is_finite and got.raw > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            renyi_div(Alpha(2.0), Dist([1.0]), Dist([0.5, 0.5]))


class TestReference:
    def test_value_via_reference(self):
        nu, th = Dist([0.5, 0.5]), Dist([0.25, 0.75])
        eta = Dist([0.5, 0.5])
        got = renyi_via_reference(Alpha(2.0), nu, th, eta)
        assert got.raw == pytest.approx(HALF_LOG_4_3, abs=1e-12)

    def test_invariance_across_references(self):
        nu, th = Dist([0.1, 0.2, 0.7]), Dist([0.4, 0.4, 0.2])
        mix = Dist(0.5 * nu.weights + 0.5 * th.weights)
        uniform = Dist([1.0, 1.0, 1.0])
        for a in (-1.0, 0.5, 2.0):
            v1 = renyi_via_reference(Alpha(a), nu, th, mix)
            v2 = renyi_via_reference(Alpha(a), nu, th, uniform)
            v3 = renyi_div(Alpha(a), nu, th)
            assert abs(v1.raw - v2.raw) <= 1e-10
            assert abs(v1.raw - v3.raw) <= 1e-10

    def test_precondition_enforced(self):
        nu, th = Dist([0.5, 0.5]), Dist([0.5, 0.5])
        with pytest.raises(InputValidationError):
            renyi_via_reference(Alpha(2.0), nu, th, Dist([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(ALPHAS, paired_dists())
def test_nonnegative_for_all_orders(a, pair):
    w_nu, w_th = pair
    value = renyi_div(Alpha(a), Dist(w_nu), Dist(w_th))
    assert value.is_pos_inf or value.raw >= -1e-12


@settings(max_examples=200)
@given(ALPHAS, paired_dists())
def test_skew_symmetry(a, pair):
    w_nu, w_th = pair
    nu, th = Dist(w_nu), Dist(w_th)
    lhs = renyi_div(Alpha(a), nu, th)
    rhs = renyi_div(Alpha(1.0 - a), th, nu)
    if lhs.is_finite and rhs.is_finite:
        assert abs(lhs.raw - rhs.raw) <= 1e-10
    else:
        assert lhs.is_pos_inf == rhs.is_pos_inf


@settings(max_examples=200)
@given(ALPHAS, paired_dists())
def test_never_nan(a, pair):
    w_nu, w_th = pair
    value = renyi_div(Alpha(a), Dist(w_nu), Dist(w_th))
    assert value.is_pos_inf or not math.isnan(value.raw)
    entropy = rel_entropy(Dist(w_nu), Dist(w_th))
    assert entropy.is_pos_inf or not math.isnan(entropy.raw)


@settings(max_examples=100)
@given(paired_dists())
def test_reference_invariance_property(pair):
    w_nu, w_th = pair
    nu, th = Dist(w_nu), Dist(w_th)
    eta = Dist(0.5 * nu.weights + 0.5 * th.weights)
    for a in (0.5, 2.0):
        direct = renyi_div(Alpha(a), nu, th)
        via = renyi_via_reference(Alpha(a), nu, th, eta)
        if direct.is_finite:
            assert abs(direct.raw - via.raw) <= 1e-10
        else:
            assert via.is_pos_inf


def test_order_one_limit_full_support():
    rng = np.random.default_rng(7)
    for _ in range(5):
        nu = Dist(rng.gamma(1.0, 1.0, size=4) + 0.05)
        th = Dist(rng.gamma(1.0, 1.0, size=4) + 0.05)
        target = rel_entropy(nu, th).raw
        for a in (1.0 - 1e-6, 1.0 + 1e-6):
            got = renyi_div(Alpha(a), nu, th).raw
            assert abs(got - target) <= 1e-4
            assert abs(a * (a - 1.0) * got) <= 1e-4
