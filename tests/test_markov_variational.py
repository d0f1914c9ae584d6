import math
import time

import numpy as np
import pytest

from renyivar import (
    Alpha,
    EdgeFn,
    InfeasiblePointError,
    PairMeasure,
    certify_markov_acd,
    certify_markov_inequality,
    markov_acd_inf,
    markov_acd_sup,
    markov_objective,
    rel_entropy_rate,
    renyi_rate,
    rho_identities_check,
    solve_markov_variational,
    varadhan_growth,
    varadhan_solve,
)
from renyivar import markov, markov_variational, numerics
from renyivar.config import TOL
from renyivar.markov import _tilted_log_kernel
from renyivar.spectral import dominant_class, growth_rate_from_log, perron_from_log
from conftest import ALPHA_GRID, arrays_in, clear_memos, feasible_edge_mask, random_pair, random_pair_on

FAIR_COIN = PairMeasure([[0.25, 0.25], [0.25, 0.25]])
TWO_CYCLE = PairMeasure([[0.0, 0.5], [0.5, 0.0]])


def coin_pair(p: float) -> PairMeasure:
    marginal = np.array([p, 1.0 - p])
    return PairMeasure(np.outer(marginal, marginal))


def balance_error(pm: PairMeasure) -> float:
    return float(np.abs(pm.entries.sum(axis=1) - pm.entries.sum(axis=0)).max())


class TestMarkovObjective:
    def test_all_equal_is_zero(self, rng):
        pm = random_pair(rng, 3)
        assert markov_objective(Alpha(2.0), pm, pm, pm).raw == pytest.approx(0.0, abs=1e-14)

    def test_mu_equals_nu(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        got = markov_objective(Alpha(2.0), nu, nu, th)
        assert got.raw == pytest.approx(0.5 * rel_entropy_rate(nu, th).raw, abs=1e-12)

    def test_coin_pairs_hand_sum(self):
        p = 0.3
        mu, nu, th = FAIR_COIN, coin_pair(p), coin_pair(0.6)
        want = 0.5 * rel_entropy_rate(mu, th).raw - rel_entropy_rate(mu, nu).raw
        assert markov_objective(Alpha(2.0), mu, nu, th).raw == pytest.approx(want, abs=1e-13)


class TestSolveMarkovVariational:
    def test_identical_measures(self, rng):
        pm = random_pair(rng, 3)
        sol = solve_markov_variational(Alpha(2.0), pm, pm)
        assert sol.value.raw == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.optimizer.entries, pm.entries, atol=1e-9)

    def test_iid_coins_geometric_mixture(self):
        p, q = 0.5, 0.3
        nu, th = coin_pair(p), coin_pair(q)
        sol = solve_markov_variational(Alpha(2.0), nu, th)
        assert sol.value.raw == pytest.approx(renyi_rate(Alpha(2.0), nu, th).raw, abs=1e-12)
        mixture = np.array([p * p / q, (1 - p) ** 2 / (1 - q)])
        mixture /= mixture.sum()
        np.testing.assert_allclose(sol.optimizer.entries, np.outer(mixture, mixture), atol=1e-10)

    def test_above_one_without_domination(self):
        sol = solve_markov_variational(Alpha(2.0), FAIR_COIN, TWO_CYCLE)
        assert sol.value.is_pos_inf
        np.testing.assert_allclose(sol.optimizer.entries, FAIR_COIN.entries, atol=0)
        assert sol.residual == 0.0

    def test_cycle_free_overlap_inside_unit_interval(self):
        nu = PairMeasure([[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.5]])
        th = PairMeasure([[0.0, 1 / 3, 0.0], [0.0, 0.0, 1 / 3], [1 / 3, 0.0, 0.0]])
        sol = solve_markov_variational(Alpha(0.5), nu, th)
        assert sol.value.is_pos_inf
        assert sol.optimizer is None
        assert sol.residual == 0.0

    def test_singleton_class_degenerates_to_point_mass(self):
        nu = PairMeasure([[0.7, 0.0], [0.0, 0.3]])  # two self-loops
        th = random_pair(np.random.default_rng(5), 2)
        sol = solve_markov_variational(Alpha(2.0), nu, th)
        assert sol.value.raw == pytest.approx(renyi_rate(Alpha(2.0), nu, th).raw, abs=1e-12)
        # the optimizer is a point mass on the winning self-loop
        assert sorted(sol.class_used) in ([0], [1])
        winner = sol.class_used[0]
        want = np.zeros((2, 2))
        want[winner, winner] = 1.0
        np.testing.assert_allclose(sol.optimizer.entries, want, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_twist_beyond_the_float_range_is_certified(self):
        # A valid pair measure whose order-4 tilt pushes the left Perron vector
        # past the largest double and the right one to zero.  The twist is built
        # from their logs, so it is formed and certified; its two self-loop
        # masses, about 1e-450 of the others, underflow to zero.
        nu = PairMeasure([[1e300, 1.0], [1.0, 1.0]])
        th = PairMeasure(np.full((2, 2), 0.25))
        sol = solve_markov_variational(Alpha(-3.0), nu, th)
        # The tilted matrix has entries below one on its diagonal, and 2^-4 (1e300 + 1)^3
        # and 1/2 off it, so its log root is half the sum of the off-diagonal logs,
        # far below an ulp; the rate divides it by 4 * 3.
        want = (5.0 * math.log(0.5) + 3.0 * math.log(1e300)) / 2.0 / 12.0
        assert sol.value.raw == pytest.approx(want, rel=1e-14)
        assert sol.residual <= TOL.attainment_markov
        np.testing.assert_array_equal(PairMeasure(sol.optimizer.entries).entries, [[0.0, 0.5], [0.5, 0.0]])
        assert np.isfinite(sol.perron.log_left).all() and np.isfinite(sol.perron.log_right).all()
        assert sol.perron.left[1] == math.inf and sol.perron.right[1] == 0.0  # read without a warning

    @pytest.mark.filterwarnings("error")
    def test_large_orders_certify(self, rng):
        """At |a| = 1e3, 1e4 and 1e6, dense pairs of 2 to 5 states get certified twists, with no warning."""
        start = time.perf_counter()
        for a in (1e3, -1e3, 1e4, -1e4, 1e6, -1e6):
            for d in (2, 3, 4, 5):
                for _ in range(20):
                    nu, th = random_pair(rng, d), random_pair(rng, d)
                    sol = solve_markov_variational(Alpha(a), nu, th)
                    assert sol.value.raw == pytest.approx(renyi_rate(Alpha(a), nu, th).raw, rel=1e-12)
                    assert sol.residual <= TOL.attainment_markov  # the optimizer passed PairMeasure's checks
        assert time.perf_counter() - start < 5.0

    def test_tied_disjoint_classes_pick_the_first(self, rng):
        # One 2-state chain copied onto states {0, 2} and {1, 3}: every class root ties.
        def spread(block: np.ndarray) -> np.ndarray:
            out = np.zeros((4, 4))
            for states in ((0, 2), (1, 3)):
                out[np.ix_(states, states)] = block
            return out

        nu = PairMeasure(spread(random_pair(rng, 2).entries))
        th = PairMeasure(spread(random_pair(rng, 2).entries))
        for a in ALPHA_GRID:
            assert solve_markov_variational(Alpha(a), nu, th).class_used == (0, 2)
        log_m = _tilted_log_kernel(2.0, nu, th)
        located = dominant_class(log_m)
        assert located[:2] == (0, (0, 2))
        assert growth_rate_from_log(log_m).raw == located[2]
        g = EdgeFn(spread(rng.uniform(-2.0, 2.0, size=(2, 2))))
        assert varadhan_solve(g, nu).class_used == (0, 2)

    def test_exactly_tied_cycle_loses_to_the_self_loop(self):
        # A self-loop and a 2-cycle, each a deterministic kernel under both
        # measures: both tilted roots are exactly 0, so class (0,) wins the tie
        # and the rate is exactly zero.  A power iteration put the 2-cycle's
        # root about 1e-15 above 0, which handed it the win.
        nu = PairMeasure([[0.6, 0.0, 0.0], [0.0, 0.0, 0.2], [0.0, 0.2, 0.0]])
        th = PairMeasure([[0.2, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.4, 0.0]])
        for a in (0.25, 0.5, 0.9):
            solution = solve_markov_variational(Alpha(a), nu, th)
            assert solution.class_used == (0,)
            assert solution.value.raw == 0.0

    def test_attainment_and_balance_across_grid(self, rng):
        for a in ALPHA_GRID:
            for _ in range(5):
                d = int(rng.integers(2, 6))
                nu, th = random_pair(rng, d), random_pair(rng, d)
                sol = solve_markov_variational(Alpha(a), nu, th)
                assert abs(sol.value.raw - renyi_rate(Alpha(a), nu, th).raw) <= 1e-8
                assert sol.residual <= 1e-8
                assert balance_error(sol.optimizer) <= 1e-10

    def test_subset_support_optimizer_confined(self, rng):
        mask = np.array(
            [
                [True, True, False],
                [True, True, False],
                [False, False, True],
            ]
        )
        nu = random_pair_on(rng, mask)
        th = random_pair(rng, 3)
        sol = solve_markov_variational(Alpha(2.0), nu, th)
        cls = set(sol.class_used)
        outside = [i for i in range(3) if i not in cls]
        if outside:
            assert sol.optimizer.entries[outside, :].sum() == 0.0
            assert sol.optimizer.entries[:, outside].sum() == 0.0
        assert sol.residual <= 1e-8


class TestCertifyMarkov:
    def test_optimizer_slack_zero(self, rng):
        for a in (2.0, 0.5, -1.0):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            sol = solve_markov_variational(Alpha(a), nu, th)
            res = certify_markov_inequality(Alpha(a), sol.optimizer, nu, th)
            assert res.passed and abs(res.slack) <= 1e-8

    def test_mu_equals_nu_above_one(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        res = certify_markov_inequality(Alpha(2.0), nu, nu, th)
        assert res.passed and res.slack >= -1e-10

    def test_random_feasible_never_beats(self, rng):
        for a in (-1.0, 0.5, 2.0):
            nu, th = random_pair(rng, 4), random_pair(rng, 4)
            mask = feasible_edge_mask(a, nu, th)
            for _ in range(20):
                mu = random_pair_on(rng, mask)
                res = certify_markov_inequality(Alpha(a), mu, nu, th)
                assert res.slack >= -1e-8

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasiblePointError):
            certify_markov_inequality(Alpha(2.0), FAIR_COIN, TWO_CYCLE, FAIR_COIN)


class TestVaradhan:
    def test_zero_function(self, rng):
        pm = random_pair(rng, 3)
        assert varadhan_growth(EdgeFn(np.zeros((3, 3))), pm).raw == pytest.approx(0.0, abs=1e-12)

    def test_constant_function(self, rng):
        pm = random_pair(rng, 3)
        got = varadhan_growth(EdgeFn(np.full((3, 3), 2.5)), pm)
        assert got.raw == pytest.approx(2.5, abs=1e-12)

    def test_diagonal_reward_on_fair_coin(self):
        g = EdgeFn([[1.0, 0.0], [0.0, 1.0]])
        got = varadhan_growth(g, FAIR_COIN)
        assert got.raw == pytest.approx(math.log((math.e + 1.0) / 2.0), abs=1e-12)

    def test_solve_attains(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            pm = random_pair(rng, d)
            g = EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
            sol = varadhan_solve(g, pm)
            assert sol.residual <= 1e-8
            assert balance_error(sol.optimizer) <= 1e-10
            # optimizer dominated by mu
            assert not (sol.optimizer.entries[pm.entries == 0.0] > 0).any()

    def test_two_state_closed_form_residual(self):
        g = EdgeFn([[0.7, 0.0], [0.0, -0.3]])
        sol = varadhan_solve(g, FAIR_COIN)
        assert sol.residual <= 1e-10

    def test_one_sidedness(self, rng):
        pm = random_pair(rng, 3)
        g = EdgeFn(rng.uniform(-2.0, 2.0, size=(3, 3)))
        value = varadhan_growth(g, pm).raw
        for _ in range(25):
            th = random_pair_on(rng, pm.entries > 0)
            gain = float((g.values * th.entries).sum())
            assert gain - rel_entropy_rate(th, pm).raw <= value + 1e-8


class TestMarkovACD:
    def test_sup_zero_function(self, rng):
        th = random_pair(rng, 3)
        sol = markov_acd_sup(Alpha(2.0), EdgeFn(np.zeros((3, 3))), th)
        assert sol.value.raw == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.optimizer.entries, th.entries, atol=1e-9)

    def test_sup_constant_function(self, rng):
        th = random_pair(rng, 3)
        sol = markov_acd_sup(Alpha(0.5), EdgeFn(np.full((3, 3), 1.7)), th)
        assert sol.value.raw == pytest.approx(1.7, abs=1e-12)

    def test_two_state_closed_form(self):
        a = 2.0
        g = EdgeFn([[1.0, 0.0], [0.0, 1.0]])
        sol = markov_acd_sup(Alpha(a), g, FAIR_COIN)
        want = (1.0 / a) * math.log((math.exp(a) + 1.0) / 2.0)
        assert sol.value.raw == pytest.approx(want, abs=1e-12)
        # the twist of M = [e^g theta(j|i)] is symmetric here
        m = np.array([[math.e / 2, 0.5], [0.5, math.e / 2]])
        np.testing.assert_allclose(sol.optimizer.entries, m / m.sum(), atol=1e-10)

    def test_sup_attainment_residual(self, rng):
        for a in ALPHA_GRID:
            for _ in range(3):
                d = int(rng.integers(2, 5))
                th = random_pair(rng, d)
                g = EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
                sol = markov_acd_sup(Alpha(a), g, th)
                assert sol.residual <= 1e-8
                assert balance_error(sol.optimizer) <= 1e-10

    def test_inf_duality_round_trip(self, rng):
        for a in ALPHA_GRID:
            d = int(rng.integers(2, 5))
            nu = random_pair(rng, d)
            g = EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
            direct = markov_acd_inf(Alpha(a), g, nu)
            via_sup = markov_acd_sup(Alpha(1.0 - a), EdgeFn(-g.values), nu)
            assert direct.value.raw == -via_sup.value.raw
            assert np.array_equal(direct.optimizer.entries, via_sup.optimizer.entries)
            assert direct.class_used == via_sup.class_used

    def test_rho_identities_trivial_cases(self, rng):
        th = random_pair(rng, 3)
        assert rho_identities_check(Alpha(2.0), EdgeFn(np.zeros((3, 3))), th).passed
        assert rho_identities_check(Alpha(0.5), EdgeFn(np.full((3, 3), 1.2)), th).passed

    def test_rho_identities_random(self, rng):
        for a in (-1.0, 0.25, 2.0, 5.0):
            for _ in range(5):
                th = random_pair(rng, 3)
                g = EdgeFn(rng.uniform(-2.0, 2.0, size=(3, 3)))
                report = rho_identities_check(Alpha(a), g, th)
                assert report.passed
                assert abs(report.mixture_drift) <= 1e-8
                assert abs(report.recentred_drift) <= 1e-8

    def test_rho_identities_read_m_on_the_twist_class(self, rng):
        """The identities hold with M's root on N's class where M's growth rate lives on another class.

        theta has classes {0}, {1, 2} and {3}, and g is drawn until
        M = [e^g theta(j|i)] grows fastest on another class than
        N = [e^{a g} theta(j|i)].
        """
        for a in (0.5, 2.0, 5.0, -1.0):
            found = 0
            while found < 3:
                entries = np.zeros((4, 4))
                entries[1:3, 1:3] = random_pair(rng, 2).entries
                entries[[0, 3], [0, 3]] = rng.uniform(0.1, 1.0, size=2)
                theta = PairMeasure(entries)
                g = EdgeFn(rng.uniform(-2.0, 2.0, size=(4, 4)))
                rows = markov.kernel(theta).rows
                with np.errstate(divide="ignore"):
                    log_m = np.where(rows > 0, g.values + np.log(rows), -math.inf)
                cls = markov_acd_sup(Alpha(a), g, theta).class_used
                m_class = dominant_class(log_m)
                if m_class[1] == cls:
                    continue
                found += 1
                report = rho_identities_check(Alpha(a), g, theta)
                assert report.passed
                assert report.rho_m == perron_from_log(log_m, cls).log_lam
                assert report.rho_m < m_class[2]  # the growth rate of M is another class's root

    def test_certify_at_optimizer(self, rng):
        for a in (2.0, 0.5, -1.0):
            th = random_pair(rng, 3)
            g = EdgeFn(rng.uniform(-2.0, 2.0, size=(3, 3)))
            nu_star = markov_acd_sup(Alpha(a), g, th).optimizer
            res = certify_markov_acd(Alpha(a), g, nu_star, th)
            assert res.passed and abs(res.slack) <= 1e-8

    def test_certify_cycle_disjoint_trivial(self):
        g = EdgeFn(np.zeros((2, 2)))
        res = certify_markov_acd(Alpha(2.0), g, FAIR_COIN, TWO_CYCLE)
        assert res.passed and res.slack == math.inf

    def test_certify_random_all_pass(self, rng):
        for a in (-3.0, -0.25, 0.9, 1.1, 5.0):
            for _ in range(10):
                d = int(rng.integers(2, 5))
                nu, th = random_pair(rng, d), random_pair(rng, d)
                g = EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
                assert certify_markov_acd(Alpha(a), g, nu, th).passed


# The memos of the Markov stack: each one's arguments for the k-th distinct
# input on pair measures of ``d`` states, keyed on the order or the factor.
def _memo_cases(d):
    rng = np.random.default_rng(d)
    nu, theta = random_pair(rng, d), random_pair(rng, d)
    g = EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
    return {
        "_tilted_log_kernel": (markov._tilted_log_kernel, lambda k: (2.0 + k, nu, theta)),
        "_edge_tilt": (markov_variational._edge_tilt, lambda k: (g, theta, 0.5 + k)),
        "_acd_sup": (markov_variational._acd_sup, lambda k: (2.0 + k, g, theta)),
    }


class TestMarkovMemos:
    @pytest.mark.parametrize("name", _memo_cases(2))
    def test_memo_holds_a_bounded_number_of_small_inputs(self, name):
        memo, args = _memo_cases(3)[name]
        clear_memos()
        for k in range(numerics.MEMO_ENTRIES + 5):
            memo(*args(k))
        assert memo.cache_info().currsize == numerics.MEMO_ENTRIES

    @pytest.mark.parametrize("name", _memo_cases(2))
    def test_measures_above_the_state_cap_bypass_the_memo(self, name):
        memo, args = _memo_cases(numerics.MEMO_MAX_STATES + 1)[name]
        clear_memos()
        first = memo(*args(0))
        assert memo(*args(0)) is not first
        assert memo.cache_info().currsize == 0

    @pytest.mark.parametrize("name", _memo_cases(2))
    def test_memo_returns_read_only_results(self, name):
        memo, args = _memo_cases(3)[name]
        clear_memos()
        miss = memo(*args(0))
        hit = memo(*args(0))
        assert hit is miss and memo.cache_info().hits == 1
        arrays = arrays_in(hit)
        assert arrays and not any(a.flags.writeable for a in arrays)

    def test_identities_after_the_sup_equal_a_cold_check(self, rng):
        """The check reuses the sup's twist, and reads the same bits as when it solves it alone."""
        fields = ("rho_n", "rho_m", "mixture_growth", "mixture_drift", "recentred_growth", "recentred_drift")
        for a in ALPHA_GRID:
            for d in (2, 3, 5):
                theta = random_pair(rng, d) if d != 5 else random_pair_on(rng, rng.random((d, d)) < 0.5)
                if theta is None:
                    continue
                g = EdgeFn(rng.uniform(-3.0, 3.0, size=(d, d)))
                clear_memos()
                cold = rho_identities_check(Alpha(a), g, theta)
                clear_memos()
                markov_acd_sup(Alpha(a), g, theta)
                warm = rho_identities_check(Alpha(a), g, theta)
                assert markov_variational._acd_sup.cache_info().hits == 1
                assert [getattr(warm, f).hex() for f in fields] == [getattr(cold, f).hex() for f in fields]
                assert warm.passed == cold.passed
