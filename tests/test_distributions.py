import dataclasses
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
from renyivar import distributions, numerics
from conftest import ALPHA_GRID

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

    def test_log_weights_are_np_log_on_the_support(self):
        # lengths 1-70 cover the vector loops of np.log and their scalar tails
        rng = np.random.default_rng(7)
        specials = [0.0, 5e-324, 1e-310, 1e-300]
        for d in range(1, 71):
            w = rng.gamma(1.0, size=d)
            w /= w.sum()  # a total near 1 keeps the subnormal weights below
            w[rng.random(d) < 0.25] = 0.0
            w[rng.integers(d, size=min(d, len(specials)))] = specials[: min(d, len(specials))]
            w[rng.integers(d)] = 0.5
            dist = Dist(w)
            mask = dist.support
            assert np.array_equal(mask, dist.weights > 0)
            assert dist.log_weights[mask].tobytes() == np.log(dist.weights[mask]).tobytes()
            assert np.all(dist.log_weights[~mask] == -math.inf)
            sub = mask & (rng.random(d) < 0.5)  # what the divergences gather
            assert dist.log_weights[sub].tobytes() == np.log(dist.weights[sub]).tobytes()
        assert Dist([1.0, 5e-324]).log_weights[1] == math.log(5e-324)

    def test_support_and_log_weights_read_only(self):
        d = Dist([0.5, 0.0, 0.5])
        for derived in (d.support, d.log_weights):
            with pytest.raises(ValueError):
                derived[0] = derived[1]
        assert d.log_weights is d.log_weights  # built once
        assert [field.name for field in dataclasses.fields(Dist)] == ["weights"]


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


class TestRenyiMemo:
    """``renyi_div`` is memoised on the order and the bytes of both weight vectors."""

    def _pairs(self, rng):
        for d in (1, 2, 3, 7, 30):
            nu, theta = rng.gamma(1.0, size=(2, d))
            nu[rng.random(d) < 0.3] = 0.0
            theta[rng.integers(d)] = 1e-310
            nu[rng.integers(d)] = 1.0
            yield Dist(nu), Dist(theta)

    def test_hit_equals_cold_computation(self, rng):
        pairs = list(self._pairs(rng))
        orders = [Alpha(a) for a in ALPHA_GRID]

        def values(clear):
            out = []
            for nu, theta in pairs:
                for alpha in orders:
                    if clear:
                        distributions._renyi.cache_clear()
                    out.append(repr(renyi_div(alpha, nu, theta).raw))
                    out.append(repr(renyi_div(alpha, theta, nu).raw))
            return out

        cold = values(clear=True)
        distributions._renyi.cache_clear()
        values(clear=False)  # fill the memo
        hits = distributions._renyi.cache_info().hits
        assert values(clear=False) == cold
        assert distributions._renyi.cache_info().hits > hits
        # a copy of the weights hits the memo too: the key is the bytes, not the object
        nu, theta = pairs[-1]
        copy = Dist(nu.weights.copy())
        assert renyi_div(orders[0], copy, theta) is renyi_div(orders[0], nu, theta)

    def test_memo_is_bounded_and_bypassed_above_the_state_cap(self, rng):
        distributions._renyi.cache_clear()
        big = Dist(rng.gamma(1.0, size=numerics.MEMO_MAX_STATES + 1))
        renyi_div(Alpha(2.0), big, big)
        assert distributions._renyi.cache_info().currsize == 0
        nu, theta = Dist([0.5, 0.5]), Dist([0.25, 0.75])
        for k in range(numerics.MEMO_ENTRIES + 5):
            renyi_div(Alpha(2.0 + k), nu, theta)
        assert distributions._renyi.cache_info().currsize == numerics.MEMO_ENTRIES


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
