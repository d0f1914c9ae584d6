import math

import numpy as np
import pytest

from renyivar import (
    Alpha,
    BalanceError,
    DimensionMismatchError,
    Dist,
    InvalidDistributionError,
    PairMeasure,
    PathSpaceError,
    abs_cont_pair,
    check_abs_cont_lift,
    kernel,
    path_distribution,
    rel_entropy,
    rel_entropy_rate,
    renyi_rate,
    support,
)
from conftest import random_pair

UNIFORM = [[0.25, 0.25], [0.25, 0.25]]
TWO_CYCLE = [[0.0, 0.5], [0.5, 0.0]]


def coin_pair(p: float) -> PairMeasure:
    """Pair measure of an i.i.d. chain with marginal (p, 1-p)."""
    marginal = np.array([p, 1.0 - p])
    return PairMeasure(np.outer(marginal, marginal))


class TestPairMeasure:
    def test_normalizes_total_mass(self):
        pm = PairMeasure([[1.0, 1.0], [1.0, 1.0]])
        assert pm.entries.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_imbalance(self):
        with pytest.raises(BalanceError):
            PairMeasure([[0.0, 0.8], [0.1, 0.1]])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            PairMeasure([[0.5, -0.1], [0.3, 0.3]])

    def test_rejects_overflowing_total(self):
        with pytest.raises(InvalidDistributionError):
            PairMeasure([[1e308, 1e308], [1e308, 1e308]])

    def test_state_marginal(self):
        pm = PairMeasure(TWO_CYCLE)
        np.testing.assert_allclose(pm.state_marginal, [0.5, 0.5], atol=1e-15)


class TestSupportAndKernel:
    def test_full_support(self):
        assert support(PairMeasure(UNIFORM)) == (0, 1)

    def test_point_mass(self):
        assert support(PairMeasure([[1.0, 0.0], [0.0, 0.0]])) == (0,)

    def test_cycle_support(self):
        assert support(PairMeasure(TWO_CYCLE)) == (0, 1)

    def test_iid_coin_kernel(self):
        k = kernel(PairMeasure(UNIFORM))
        np.testing.assert_allclose(k.rows, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert k.support_states == (0, 1)

    def test_point_mass_kernel_zero_rows(self):
        k = kernel(PairMeasure([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(k.rows, [[1.0, 0.0], [0.0, 0.0]], atol=0)
        assert k.support_states == (0,)

    def test_cycle_kernel_is_permutation(self):
        k = kernel(PairMeasure(TWO_CYCLE))
        np.testing.assert_allclose(k.rows, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_rows_sum_to_one_on_support(self, rng):
        pm = random_pair(rng, 4)
        rows = kernel(pm).rows
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(4), atol=1e-12)

    def test_kernel_computed_once_per_measure(self, rng):
        pm = random_pair(rng, 4)
        first = kernel(pm)
        assert kernel(pm) is first and not first.rows.flags.writeable
        assert kernel(PairMeasure(pm.entries)) is not first


class TestAbsContPair:
    def test_examples(self):
        delta = PairMeasure([[1.0, 0.0], [0.0, 0.0]])
        full = PairMeasure(UNIFORM)
        assert abs_cont_pair(delta, full)
        assert not abs_cont_pair(full, delta)
        assert abs_cont_pair(full, full)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            abs_cont_pair(PairMeasure([[1.0]]), PairMeasure(UNIFORM))


class TestRelEntropyRate:
    def test_self_rate_zero(self, rng):
        pm = random_pair(rng, 3)
        assert rel_entropy_rate(pm, pm).raw == pytest.approx(0.0, abs=1e-14)

    def test_coin_pair_value(self):
        p = 0.3
        got = rel_entropy_rate(coin_pair(0.5), coin_pair(p))
        want = 0.5 * math.log(1.0 / (2.0 * p)) + 0.5 * math.log(1.0 / (2.0 * (1.0 - p)))
        assert got.raw == pytest.approx(want, abs=1e-14)

    def test_not_abs_cont_infinite(self):
        assert rel_entropy_rate(PairMeasure(UNIFORM), PairMeasure(TWO_CYCLE)).is_pos_inf

    def test_nonnegative(self, rng):
        for _ in range(20):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            assert rel_entropy_rate(nu, th).raw >= -1e-12


class TestPathDistribution:
    def test_two_step_is_flattened_pair(self, rng):
        pm = random_pair(rng, 3)
        np.testing.assert_allclose(
            path_distribution(pm, 2).weights, pm.entries.reshape(-1), atol=1e-15
        )

    def test_iid_coin_three_steps_uniform(self):
        paths = path_distribution(PairMeasure(UNIFORM), 3)
        np.testing.assert_allclose(paths.weights, np.full(8, 0.125), atol=1e-15)

    def test_cycle_three_steps(self):
        paths = path_distribution(PairMeasure(TWO_CYCLE), 3)
        # only 010 and 101 survive, each with mass 1/2
        want = np.zeros(8)
        want[0b010] = 0.5
        want[0b101] = 0.5
        np.testing.assert_allclose(paths.weights, want, atol=1e-15)

    def test_sums_to_one(self, rng):
        pm = random_pair(rng, 3)
        for n in (2, 3, 4, 5):
            assert abs(path_distribution(pm, n).weights.sum() - 1.0) <= 1e-10

    def test_marginal_consistency(self, rng):
        pm = random_pair(rng, 3)
        for n in (2, 3, 4):
            longer = path_distribution(pm, n + 1).weights.reshape([3] * (n + 1))
            shorter = path_distribution(pm, n).weights.reshape([3] * n)
            np.testing.assert_allclose(longer.sum(axis=-1), shorter, atol=1e-14)
            # stationarity also allows summing out the first coordinate
            np.testing.assert_allclose(longer.sum(axis=0), shorter, atol=1e-14)

    def test_size_guard(self):
        pm = random_pair(np.random.default_rng(1), 10)
        with pytest.raises(PathSpaceError):
            path_distribution(pm, 8)


class TestAbsContLift:
    def test_random_pairs(self, rng):
        for _ in range(3):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            assert check_abs_cont_lift(nu, th, 3)
            assert check_abs_cont_lift(nu, th, 4)

    def test_violating_pair(self):
        assert check_abs_cont_lift(PairMeasure(UNIFORM), PairMeasure(TWO_CYCLE), 3)


class TestRenyiRate:
    def test_self_rate_zero(self, rng):
        pm = random_pair(rng, 3)
        for a in (-1.0, 0.5, 2.0):
            assert renyi_rate(Alpha(a), pm, pm).raw == pytest.approx(0.0, abs=1e-12)

    def test_iid_coin_closed_form(self):
        p = 0.3
        got = renyi_rate(Alpha(2.0), coin_pair(0.5), coin_pair(p))
        want = 0.5 * math.log(0.25 * (1.0 / p + 1.0 / (1.0 - p)))
        assert got.raw == pytest.approx(want, abs=1e-12)

    def test_above_one_needs_domination(self):
        assert renyi_rate(Alpha(2.0), PairMeasure(UNIFORM), PairMeasure(TWO_CYCLE)).is_pos_inf

    def test_cycle_free_overlap_is_infinite(self):
        # supports intersect only in the edge (0,1), which carries no cycle
        nu = PairMeasure(
            [[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.5]]
        )  # 0<->1 plus a self-loop at 2
        th = PairMeasure(
            [[0.0, 1 / 3, 0.0], [0.0, 0.0, 1 / 3], [1 / 3, 0.0, 0.0]]
        )  # the 3-cycle 0->1->2->0
        assert renyi_rate(Alpha(0.5), nu, th).is_pos_inf
        # fully disjoint supports are infinite as well
        disjoint = PairMeasure([[0.5, 0.0], [0.0, 0.5]])
        cycle = PairMeasure([[0.0, 0.5], [0.5, 0.0]])
        assert renyi_rate(Alpha(0.5), disjoint, cycle).is_pos_inf

    def test_negative_order_swaps(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        direct = renyi_rate(Alpha(-2.0), nu, th)
        swapped = renyi_rate(Alpha(3.0), th, nu)
        assert direct.raw == swapped.raw

    def test_skew_symmetry(self, rng):
        for _ in range(10):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            for a in (-1.0, 0.25, 2.0):
                lhs = renyi_rate(Alpha(a), nu, th).raw
                rhs = renyi_rate(Alpha(1.0 - a), th, nu).raw
                assert abs(lhs - rhs) <= 1e-10

    def test_nonnegative(self, rng):
        for _ in range(10):
            nu, th = random_pair(rng, 4), random_pair(rng, 4)
            for a in (-3.0, 0.5, 1.1, 5.0):
                value = renyi_rate(Alpha(a), nu, th)
                assert value.is_pos_inf or value.raw >= -1e-12


class TestTelescoping:
    def test_relative_entropy_steps(self, rng):
        # the n-step relative entropies grow by exactly the rate each step
        for _ in range(3):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            rate = rel_entropy_rate(nu, th).raw
            levels = []
            for n in (2, 3, 4, 5):
                nu_paths = path_distribution(nu, n)
                th_paths = path_distribution(th, n)
                levels.append(rel_entropy(nu_paths, th_paths).raw)
            for lower, higher in zip(levels, levels[1:]):
                assert abs((higher - lower) - rate) <= 1e-10

    def test_initial_level_is_pair_entropy(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        flat_nu = Dist(nu.entries.reshape(-1))
        flat_th = Dist(th.entries.reshape(-1))
        got = rel_entropy(path_distribution(nu, 2), path_distribution(th, 2)).raw
        assert got == pytest.approx(rel_entropy(flat_nu, flat_th).raw, abs=1e-12)
