import math
import warnings

import numpy as np
import pytest

from renyivar import (
    Alpha,
    BoundedFn,
    Dist,
    ExtRealArithmeticError,
    InfeasiblePointError,
    InputValidationError,
    acd_certify,
    acd_inf,
    acd_sup,
    certify_inequality,
    dv_solve,
    log_exp_integral,
    objective,
    renyi_div,
    solve_variational,
    truncated_optimizer,
    truncation_caps,
)
from conftest import ALPHA_GRID, feasible_iid_mask, random_dist, random_dist_on

HALF_LOG_4_3 = 0.5 * math.log(4.0 / 3.0)


class TestObjective:
    def test_all_equal_is_zero(self):
        d = Dist([0.5, 0.5])
        assert objective(Alpha(2.0), d, d, d).raw == 0.0

    def test_mu_equals_nu(self):
        nu = Dist([0.5, 0.5])
        th = Dist([0.25, 0.75])
        got = objective(Alpha(2.0), nu, nu, th)
        assert got.raw == pytest.approx(0.5 * HALF_LOG_4_3, abs=1e-15)

    def test_infinite_entropy_cases_combine(self):
        # mu not dominated by theta while dominated by nu: the theta term is
        # infinite and the objective inherits the infinity with 1/alpha's sign.
        mu = Dist([1.0, 0.0])
        nu = Dist([0.5, 0.5])
        th = Dist([0.0, 1.0])
        assert objective(Alpha(2.0), mu, nu, th).is_pos_inf
        # for negative order the 1/alpha coefficient is negative, so the same
        # infinite theta-entropy drags the objective to minus infinity
        assert objective(Alpha(-1.0), mu, nu, th).is_neg_inf

    def test_opposing_infinities_raise(self):
        mu = Dist([0.5, 0.5])
        point = Dist([1.0, 0.0])
        with pytest.raises(ExtRealArithmeticError):
            objective(Alpha(2.0), mu, point, point)


class TestSolveVariational:
    def test_identical_measures(self):
        d = Dist([0.3, 0.7])
        sol = solve_variational(Alpha(2.0), d, d)
        assert sol.value.raw == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(sol.optimizer.weights, d.weights, atol=1e-15)

    def test_above_one_without_domination(self):
        sol = solve_variational(Alpha(2.0), Dist([0.5, 0.5]), Dist([1.0, 0.0]))
        assert sol.value.is_pos_inf
        # witness: point mass on the smallest theta-null, nu-positive state
        np.testing.assert_array_equal(sol.optimizer.weights, [0.0, 1.0])
        assert sol.residual == 0.0

    def test_inside_unit_interval_value(self):
        nu, th = Dist([0.5, 0.5]), Dist([0.25, 0.75])
        sol = solve_variational(Alpha(0.5), nu, th)
        direct = (1.0 / (0.5 * -0.5)) * math.log(
            math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75)
        )
        assert sol.value.raw == pytest.approx(direct, abs=1e-14)
        assert sol.value.raw == pytest.approx(renyi_div(Alpha(0.5), nu, th).raw, abs=1e-14)
        mixture = np.sqrt(nu.weights * th.weights)
        np.testing.assert_allclose(sol.optimizer.weights, mixture / mixture.sum(), atol=1e-15)

    def test_disjoint_support_infimum_unattained(self):
        sol = solve_variational(Alpha(0.5), Dist([1.0, 0.0]), Dist([0.0, 1.0]))
        assert sol.value.is_pos_inf
        assert sol.optimizer is None
        assert sol.residual == 0.0

    def test_negative_order_swap(self):
        nu, th = Dist([0.6, 0.4]), Dist([0.2, 0.8])
        sol = solve_variational(Alpha(-2.0), nu, th)
        assert sol.value.raw == renyi_div(Alpha(-2.0), nu, th).raw
        assert sol.residual <= 1e-9

    def test_regime_labels(self):
        nu, th = Dist([0.6, 0.4]), Dist([0.2, 0.8])
        assert solve_variational(Alpha(2.0), nu, th).regime == "alpha_gt_1"
        assert solve_variational(Alpha(0.5), nu, th).regime == "alpha_in_01"
        assert solve_variational(Alpha(-1.0), nu, th).regime == "alpha_lt_0"

    def test_attainment_across_grid(self, rng):
        for a in ALPHA_GRID:
            for _ in range(10):
                nu, th = random_dist(rng, 5), random_dist(rng, 5)
                sol = solve_variational(Alpha(a), nu, th)
                assert abs(sol.value.raw - renyi_div(Alpha(a), nu, th).raw) <= 1e-9
                assert sol.residual <= 1e-9


class TestCertify:
    def test_optimizer_has_zero_slack(self, rng):
        for a in (2.0, 0.5, -1.0):
            nu, th = random_dist(rng, 4), random_dist(rng, 4)
            sol = solve_variational(Alpha(a), nu, th)
            res = certify_inequality(Alpha(a), sol.optimizer, nu, th)
            assert res.passed
            assert abs(res.slack) <= 1e-9

    def test_mu_equals_nu_above_one(self, rng):
        nu, th = random_dist(rng, 4), random_dist(rng, 4)
        res = certify_inequality(Alpha(2.0), nu, nu, th)
        assert res.passed and res.slack >= -1e-12

    def test_infeasible_candidate_rejected(self):
        nu = Dist([0.5, 0.5, 0.0])
        th = Dist([0.3, 0.3, 0.4])
        mu = Dist([0.0, 0.0, 1.0])  # not dominated by nu
        with pytest.raises(InfeasiblePointError):
            certify_inequality(Alpha(2.0), mu, nu, th)

    def test_infinite_value_passes_trivially(self):
        nu, th = Dist([0.5, 0.5]), Dist([1.0, 0.0])
        # mu below both marginals keeps the objective finite while the
        # divergence is infinite: the certificate passes with infinite slack
        res = certify_inequality(Alpha(2.0), Dist([1.0, 0.0]), nu, th)
        assert res.passed and res.slack == math.inf
        # mu = nu drives the objective to the same infinity: slack collapses to 0
        res_matched = certify_inequality(Alpha(2.0), nu, nu, th)
        assert res_matched.passed and res_matched.slack == 0.0

    def test_random_feasible_points_never_beat(self, rng):
        for a in ALPHA_GRID:
            nu, th = random_dist(rng, 5), random_dist(rng, 5)
            mask = feasible_iid_mask(a, nu, th)
            for _ in range(30):
                mu = random_dist_on(rng, mask)
                assert certify_inequality(Alpha(a), mu, nu, th).slack >= -1e-9


class TestTruncationFamily:
    def test_objective_equals_log_truncated_mass(self):
        nu = Dist([0.6, 0.3, 0.1])
        th = Dist([0.2, 0.3, 0.5])
        for a in (2.0, 0.5, 5.0):
            alpha = Alpha(a)
            for cap in truncation_caps(alpha, nu, th):
                mu_k, log_zk = truncated_optimizer(alpha, nu, th, cap)
                want = log_zk / (a * (a - 1.0))
                got = objective(alpha, mu_k, nu, th)
                assert abs(got.raw - want) <= 1e-10

    def test_converges_once_cap_dominates(self):
        nu = Dist([0.6, 0.3, 0.1])
        th = Dist([0.2, 0.3, 0.5])
        alpha = Alpha(2.0)
        target = renyi_div(alpha, nu, th).raw
        caps = truncation_caps(alpha, nu, th)
        values = [
            objective(alpha, truncated_optimizer(alpha, nu, th, cap)[0], nu, th).raw
            for cap in caps
        ]
        ratios = (nu.weights / th.weights) ** 2  # order-two density ratios
        final = [v for cap, v in zip(caps, values) if cap >= ratios.max()]
        assert final, "cap grid must extend past the largest density ratio"
        for v in final:
            assert abs(v - target) <= 1e-12
        gaps = [abs(v - target) for v in values]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_overflowing_ratio_is_rejected_without_warnings(self):
        # order-5 ratio at state 1 is about e^2761: no float cap can reach it
        nu, th = Dist([0.5, 0.5]), Dist([1.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputValidationError, match="largest density ratio overflows"):
                truncation_caps(Alpha(5.0), nu, th)

    def test_caps_stay_finite_or_the_grid_is_rejected(self):
        nu = Dist([0.5, 0.5, 0.5])
        alpha = Alpha(5.0)
        # largest ratio near 1e305: the grid reaches it with finite caps, the last one usable
        th = Dist([1.0, 1e-76, 1e-76])
        caps = truncation_caps(alpha, nu, th)
        assert all(math.isfinite(cap) for cap in caps)
        mu, _ = truncated_optimizer(alpha, nu, th, caps[-1])
        np.testing.assert_allclose(mu.weights, solve_variational(alpha, nu, th).optimizer.weights, rtol=1e-12, atol=0)
        # largest ratio near 1e308 is finite, but doubling the median past it is not
        with pytest.raises(InputValidationError, match="grid of caps overflows"):
            truncation_caps(alpha, nu, Dist([1.0, 1e-77, 1e-77]))


class TestDonskerVaradhan:
    def test_constant_function(self):
        mu = Dist([0.4, 0.6])
        sol = dv_solve(BoundedFn([3.0, 3.0]), mu)
        assert sol.value.raw == pytest.approx(3.0, abs=1e-15)
        np.testing.assert_allclose(sol.optimizer.weights, mu.weights, atol=1e-15)

    def test_two_point_example(self):
        sol = dv_solve(BoundedFn([0.0, math.log(2.0)]), Dist([0.5, 0.5]))
        assert sol.value.raw == pytest.approx(math.log(1.5), abs=1e-14)
        np.testing.assert_allclose(sol.optimizer.weights, [1 / 3, 2 / 3], atol=1e-14)

    def test_identity_within_tight_tolerance(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 7))
            g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
            mu = random_dist(rng, d)
            sol = dv_solve(g, mu)
            assert sol.residual <= 1e-12
            assert sol.value.raw == pytest.approx(log_exp_integral(g, mu), abs=0.0)

    def test_one_sidedness(self, rng):
        for _ in range(10):
            d = 4
            g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
            mu = random_dist(rng, d)
            value = dv_solve(g, mu).value.raw
            for _ in range(50):
                th = random_dist_on(rng, mu.support)
                gain = float(g.values @ th.weights)
                from renyivar import rel_entropy

                assert gain - rel_entropy(th, mu).raw <= value + 1e-12

    def test_extreme_magnitudes(self):
        sol = dv_solve(BoundedFn([500.0, -500.0]), Dist([0.5, 0.5]))
        assert math.isfinite(sol.value.raw)
        assert sol.value.raw == pytest.approx(500.0 + math.log(0.5), abs=1e-9)


class TestACD:
    def test_sup_zero_function(self):
        th = Dist([0.3, 0.7])
        sol = acd_sup(Alpha(2.0), BoundedFn([0.0, 0.0]), th)
        assert sol.value.raw == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(sol.optimizer.weights, th.weights, atol=1e-15)

    def test_sup_constant_function(self):
        th = Dist([0.3, 0.7])
        sol = acd_sup(Alpha(0.5), BoundedFn([2.0, 2.0]), th)
        assert sol.value.raw == pytest.approx(2.0, abs=1e-14)

    def test_sup_two_point_example(self):
        sol = acd_sup(Alpha(2.0), BoundedFn([0.0, math.log(2.0)]), Dist([0.5, 0.5]))
        assert sol.value.raw == pytest.approx(0.5 * math.log(2.5), abs=1e-14)
        np.testing.assert_allclose(sol.optimizer.weights, [1 / 3, 2 / 3], atol=1e-14)

    def test_sup_attainment_residual(self, rng):
        for a in ALPHA_GRID:
            for _ in range(5):
                d = int(rng.integers(2, 7))
                g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
                th = random_dist(rng, d)
                assert acd_sup(Alpha(a), g, th).residual <= 1e-9

    def test_inf_zero_function(self):
        nu = Dist([0.3, 0.7])
        sol = acd_inf(Alpha(0.5), BoundedFn([0.0, 0.0]), nu)
        assert sol.value.raw == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(sol.optimizer.weights, nu.weights, atol=1e-15)

    def test_duality_round_trip_is_exact(self, rng):
        # the inf form at (order, g) is minus the sup form at (1-order, -g),
        # with the same optimizer; both sides are built by the same tilt
        # expressions, so value and optimizer agree bit for bit.
        for a in ALPHA_GRID:
            for _ in range(10):
                d = int(rng.integers(2, 7))
                g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
                nu = random_dist(rng, d)
                direct = acd_inf(Alpha(a), g, nu)
                beta = Alpha(1.0 - a)
                h = BoundedFn(-g.values)
                via_sup = acd_sup(beta, h, nu)
                assert direct.value.raw == -via_sup.value.raw
                assert np.array_equal(direct.optimizer.weights, via_sup.optimizer.weights)

    def test_certify_at_optimizer(self, rng):
        for a in (2.0, 0.5, -1.0):
            d = 4
            g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
            th = random_dist(rng, d)
            nu_star = acd_sup(Alpha(a), g, th).optimizer
            res = acd_certify(Alpha(a), g, nu_star, th)
            assert res.passed and abs(res.slack) <= 1e-9

    def test_certify_disjoint_supports_trivial(self):
        g = BoundedFn([1.0, -1.0])
        res = acd_certify(Alpha(2.0), g, Dist([1.0, 0.0]), Dist([0.0, 1.0]))
        assert res.passed and res.slack == math.inf

    def test_certify_random_all_pass(self, rng):
        for a in ALPHA_GRID:
            for _ in range(20):
                d = int(rng.integers(2, 6))
                g = BoundedFn(rng.uniform(-5.0, 5.0, size=d))
                nu, th = random_dist(rng, d), random_dist(rng, d)
                assert acd_certify(Alpha(a), g, nu, th).passed

    def test_order_one_bridge(self, rng):
        th = random_dist(rng, 4)
        g = BoundedFn(rng.uniform(-2.0, 2.0, size=4))
        target = log_exp_integral(g, th)
        for a in (1.0 - 1e-6, 1.0 + 1e-6):
            assert abs(acd_sup(Alpha(a), g, th).value.raw - target) <= 1e-4
