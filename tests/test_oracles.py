import math

import numpy as np
import pytest

from renyivar import (
    Alpha,
    DimensionMismatchError,
    Dist,
    EdgeFn,
    ExtReal,
    IIDVariationalProblem,
    InputValidationError,
    InvalidDistributionError,
    MarkovVariationalProblem,
    PairMeasure,
    easyvar_finite_n_oracle,
    easyvar_oracle_report,
    kernel,
    oracles,
    random_search_extremum,
    rel_entropy,
    rel_entropy_rate,
    rel_entropy_rate_oracle,
    renyi_div,
    renyi_rate,
    renyi_rate_oracle,
    truncated_optimizer,
    truncation_caps,
    varadhan_growth,
)
from conftest import ALPHA_GRID, random_pair, random_pair_on

FAIR_COIN = PairMeasure([[0.25, 0.25], [0.25, 0.25]])
TWO_CYCLE = PairMeasure([[0.0, 0.5], [0.5, 0.0]])


def coin_pair(p: float) -> PairMeasure:
    marginal = np.array([p, 1.0 - p])
    return PairMeasure(np.outer(marginal, marginal))


class TestRenyiRateOracle:
    def test_identical_chains_all_zero(self, rng):
        pm = random_pair(rng, 3)
        report = renyi_rate_oracle(Alpha(2.0), pm, pm, n_max=50)
        assert report.final_gap <= 1e-12
        assert all(abs(v) <= 1e-12 for _, v in report.sequence)

    def test_iid_coins_constant_in_both_modes(self):
        nu, th = coin_pair(0.5), coin_pair(0.3)
        rate = renyi_rate(Alpha(2.0), nu, th).raw
        for mode in ("difference", "cesaro"):
            report = renyi_rate_oracle(Alpha(2.0), nu, th, n_max=40, mode=mode)
            assert report.mode == mode
            assert all(abs(v - rate) <= 1e-12 for _, v in report.sequence)

    def test_above_one_without_domination_all_infinite(self):
        report = renyi_rate_oracle(Alpha(2.0), FAIR_COIN, TWO_CYCLE, n_max=10)
        assert report.limit_claim.is_pos_inf
        assert report.final_gap == 0.0
        assert all(v == math.inf for _, v in report.sequence)

    def test_difference_mode_converges_full_support(self, rng):
        for a in (-1.0, 0.5, 2.0):
            nu, th = random_pair(rng, 3), random_pair(rng, 3)
            report = renyi_rate_oracle(Alpha(a), nu, th, n_max=500)
            assert report.final_gap <= 1e-6

    def test_cesaro_mode_slower(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        diff = renyi_rate_oracle(Alpha(2.0), nu, th, n_max=200, mode="difference")
        ces = renyi_rate_oracle(Alpha(2.0), nu, th, n_max=200, mode="cesaro")
        assert diff.final_gap <= ces.final_gap

    def test_claim_override(self):
        nu, th = coin_pair(0.5), coin_pair(0.3)
        report = renyi_rate_oracle(Alpha(2.0), nu, th, n_max=20, claim=ExtReal(0.0))
        rate = renyi_rate(Alpha(2.0), nu, th).raw
        assert report.final_gap == pytest.approx(rate, abs=1e-10)

    def test_rejects_tiny_horizon(self):
        with pytest.raises(InputValidationError):
            renyi_rate_oracle(Alpha(2.0), FAIR_COIN, FAIR_COIN, n_max=2)


class TestRelEntropyRateOracle:
    def test_telescoping_every_difference_equals_rate(self, rng):
        nu, th = random_pair(rng, 4), random_pair(rng, 4)
        rate = rel_entropy_rate(nu, th).raw
        report = rel_entropy_rate_oracle(nu, th, n_max=100)
        assert len(report.sequence) == 98  # differences for n = 2..99
        for n, v in report.sequence:
            assert abs(v - rate) <= 1e-10, f"difference at n={n} drifted"

    def test_non_dominated_infinite(self):
        report = rel_entropy_rate_oracle(FAIR_COIN, TWO_CYCLE, n_max=10)
        assert report.limit_claim.is_pos_inf and report.final_gap == 0.0

    def test_cesaro_mode_has_initial_bias(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        report = rel_entropy_rate_oracle(nu, th, n_max=200, mode="cesaro")
        # O(1/n) from the initial-distribution term, not exact
        assert report.final_gap <= 10.0 / 200.0


class TestEasyvarFiniteN:
    def test_zero_function_is_zero(self, rng):
        pm = random_pair(rng, 3)
        for n in (1, 2, 7, 50):
            assert easyvar_finite_n_oracle(np.zeros((3, 3)), pm, n) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_constant_function_exact(self, rng):
        pm = random_pair(rng, 3)
        c = 1.7
        for n in (1, 2, 5, 40):
            want = c * (n - 1) / n  # n - 1 edges on a length-n path
            got = easyvar_finite_n_oracle(np.full((3, 3), c), pm, n)
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_growth_at_large_horizon(self, rng):
        pm = random_pair(rng, 3)
        g = rng.uniform(-2.0, 2.0, size=(3, 3))
        limit = varadhan_growth(EdgeFn(g), pm).raw
        assert abs(easyvar_finite_n_oracle(g, pm, 500) - limit) <= 1e-2

    def test_report_difference_mode_tight(self, rng):
        pm = random_pair(rng, 3)
        g = rng.uniform(-2.0, 2.0, size=(3, 3))
        report = easyvar_oracle_report(g, pm, n_max=500)
        assert report.final_gap <= 1e-6
        assert report.limit_claim.raw == pytest.approx(varadhan_growth(EdgeFn(g), pm).raw)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(InputValidationError):
            easyvar_finite_n_oracle(np.zeros((2, 2)), random_pair(rng, 3), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_edge_function_rejected(self, bad):
        g = np.zeros((2, 2))
        g[0, 0] = bad
        for call in (lambda: easyvar_finite_n_oracle(g, FAIR_COIN, 3), lambda: easyvar_oracle_report(g, FAIR_COIN, 5)):
            with pytest.raises(InputValidationError, match="edge-function values must be finite"):
                call()

    def test_bad_horizon_rejected(self, rng):
        with pytest.raises(InputValidationError):
            easyvar_finite_n_oracle(np.zeros((3, 3)), random_pair(rng, 3), 0)


class TestConvergenceReportShape:
    def test_sequence_strictly_increasing_n(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        for mode in ("difference", "cesaro"):
            report = renyi_rate_oracle(Alpha(0.5), nu, th, n_max=30, mode=mode)
            ns = [n for n, _ in report.sequence]
            assert ns == sorted(set(ns))

    def test_final_gap_is_last_entry_distance(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        report = renyi_rate_oracle(Alpha(2.0), nu, th, n_max=30)
        last = report.sequence[-1][1]
        assert report.final_gap == pytest.approx(abs(last - report.limit_claim.raw), abs=0)


class TestRandomSearch:
    def test_iid_identical_target_zero(self):
        nu = Dist([0.4, 0.6])
        problem = IIDVariationalProblem(Alpha(2.0), nu, nu)
        report = random_search_extremum(problem, trials=300, hill_steps=40)
        assert report.target.raw == pytest.approx(0.0, abs=1e-12)
        assert report.passed and report.margin <= 1e-8

    def test_iid_coin_hill_climb_reaches_target(self):
        problem = IIDVariationalProblem(Alpha(2.0), Dist([0.5, 0.5]), Dist([0.3, 0.7]))
        report = random_search_extremum(problem, trials=500, hill_steps=100)
        assert report.passed
        assert report.refinement_gap <= 1e-3

    def test_iid_inf_regime_never_undercut(self, rng):
        nu = Dist(rng.uniform(0.1, 1.0, size=3))
        th = Dist(rng.uniform(0.1, 1.0, size=3))
        problem = IIDVariationalProblem(Alpha(0.5), nu, th)
        report = random_search_extremum(problem, trials=500, hill_steps=100)
        assert report.passed and report.margin <= 1e-8
        # inf regime: sampled values sit above the closed-form infimum
        assert report.best_refined >= report.target.raw - 1e-8

    def test_iid_negative_alpha(self, rng):
        nu = Dist(rng.uniform(0.1, 1.0, size=3))
        th = Dist(rng.uniform(0.1, 1.0, size=3))
        problem = IIDVariationalProblem(Alpha(-1.0), nu, th)
        report = random_search_extremum(problem, trials=400, hill_steps=80)
        assert report.passed
        assert report.refinement_gap <= 1e-3

    def test_markov_search_respects_closed_form(self, rng):
        nu, th = random_pair(rng, 3), random_pair(rng, 3)
        for a in (0.5, 2.0):
            problem = MarkovVariationalProblem(Alpha(a), nu, th)
            report = random_search_extremum(problem, trials=60, hill_steps=12)
            assert report.passed and report.margin <= 1e-8

    def test_markov_hill_climb_near_target(self):
        nu, th = coin_pair(0.5), coin_pair(0.3)
        problem = MarkovVariationalProblem(Alpha(2.0), nu, th)
        report = random_search_extremum(problem, trials=80, hill_steps=60)
        assert report.refinement_gap <= 1e-3

    def test_report_round_trips_inputs(self):
        nu = Dist([0.4, 0.6])
        problem = IIDVariationalProblem(Alpha(2.0), nu, nu)
        report = random_search_extremum(problem, trials=123, seed=7, hill_steps=5)
        assert report.trials == 123 and report.seed == 7

    def test_deterministic_given_seed(self):
        problem = IIDVariationalProblem(Alpha(2.0), Dist([0.5, 0.5]), Dist([0.3, 0.7]))
        a = random_search_extremum(problem, trials=200, seed=3, hill_steps=20)
        b = random_search_extremum(problem, trials=200, seed=3, hill_steps=20)
        assert a.best_sampled == b.best_sampled and a.best_refined == b.best_refined

    def test_rejects_measures_of_different_sizes(self):
        with pytest.raises(DimensionMismatchError):
            IIDVariationalProblem(Alpha(2.0), Dist([0.5, 0.5]), Dist([0.2, 0.3, 0.5]))
        with pytest.raises(DimensionMismatchError):
            MarkovVariationalProblem(Alpha(2.0), FAIR_COIN, PairMeasure([[1.0]]))

    def test_rejects_zero_trials(self):
        nu = Dist([0.4, 0.6])
        with pytest.raises(InputValidationError):
            random_search_extremum(IIDVariationalProblem(Alpha(2.0), nu, nu), trials=0)


def _reference_iid(a: float, weights: np.ndarray, nu: Dist, theta: Dist) -> tuple[float, np.ndarray]:
    """The scoring route the search took before it scored plain arrays."""
    mu = Dist(weights)
    return rel_entropy(mu, theta).raw / a - rel_entropy(mu, nu).raw / (a - 1.0), mu.weights


def _reference_markov(a: float, mu: PairMeasure, nu: PairMeasure, theta: PairMeasure) -> float:
    return rel_entropy_rate(mu, theta).raw / a - rel_entropy_rate(mu, nu).raw / (a - 1.0)


def _sparse_weights(rng: np.random.Generator, d: int) -> np.ndarray:
    """Gamma weights with zeros and subnormal entries, never all zero."""
    w = rng.gamma(float(rng.choice((0.3, 1.0, 3.0))), size=d)
    w[rng.random(d) < 0.3] = 0.0
    w[rng.random(d) < 0.1] *= 1e-310
    if not w.any():
        w[rng.integers(d)] = 1.0
    return w


def _block_pair(rng: np.random.Generator, d: int, n_blocks: int) -> tuple[np.ndarray, PairMeasure]:
    """A reducible edge pattern of irreducible blocks, and a stationary mixture over its blocks."""
    mask = np.zeros((d, d), dtype=bool)
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False))
    entries = np.zeros((d, d))
    for block in np.split(rng.permutation(d), cuts):
        mask[block, np.roll(block, -1)] = True  # a cycle through every state of the block
        mask[np.ix_(block, block)] |= rng.random((block.size, block.size)) < 0.3
        sub = np.zeros_like(mask)
        sub[np.ix_(block, block)] = mask[np.ix_(block, block)]
        entries += rng.gamma(1.0) * random_pair_on(rng, sub).entries
    return mask, PairMeasure(entries)


class TestCandidateScorers:
    """The searches score candidates on plain arrays with the floats of Dist + rel_entropy."""

    def test_iid_scorer_matches_the_dist_route_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        infinite = 0
        for _ in range(2000):
            d = int(rng.integers(1, 71))  # past the 8-element blocks of numpy's pairwise sums
            nu, theta = Dist(_sparse_weights(rng, d)), Dist(_sparse_weights(rng, d))
            weights = _sparse_weights(rng, d)
            a = float(rng.choice(ALPHA_GRID))
            want, want_w = _reference_iid(a, weights, nu, theta)
            got, got_w = oracles._iid_candidate(a, weights, theta.log_weights, nu.log_weights)
            assert got.hex() == want.hex()
            assert got_w.tobytes() == want_w.tobytes() == (weights / weights.sum()).tobytes()
            infinite += not math.isfinite(want)
        assert infinite > 200  # candidates off a reference's support are covered

    @pytest.mark.parametrize(
        "weights", [[0.5, -0.1], [0.5, math.nan], [math.inf, 1.0], [0.0, 0.0], [-math.inf, 1.0]]
    )
    def test_iid_scorer_keeps_the_dist_check(self, weights):
        nu = Dist([0.5, 0.5])
        with pytest.raises(InvalidDistributionError):
            oracles._iid_candidate(2.0, np.array(weights), nu.log_weights, nu.log_weights)

    def test_markov_scorer_matches_the_rate_route_bit_for_bit(self):
        rng = np.random.default_rng(2025)
        scored = infinite = 0
        while scored < 400:
            d = int(rng.integers(2, 9))
            if scored % 2:
                nu, theta = random_pair(rng, d), random_pair(rng, d)
                edge_mask = np.ones((d, d), dtype=bool)
            else:
                mask_nu, nu = _block_pair(rng, d, int(rng.integers(1, d + 1)))
                mask_theta, theta = _block_pair(rng, d, int(rng.integers(1, d + 1)))
                edge_mask = mask_nu | mask_theta
            with np.errstate(divide="ignore"):
                log_k_theta, log_k_nu = np.log(kernel(theta).rows), np.log(kernel(nu).rows)
            pool = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            mu = oracles._random_stationary(rng, edge_mask, float(rng.choice((0.3, 1.0, 3.0))), pool)
            if mu is None:
                continue
            a = float(rng.choice(ALPHA_GRID))
            want = _reference_markov(a, mu, nu, theta)
            got = oracles._markov_objective_value(a, mu, log_k_theta, log_k_nu)
            assert got.hex() == want.hex()
            scored += 1
            infinite += not math.isfinite(want)
        assert infinite > 40

    def test_candidate_scoring_uses_no_closed_form_entropy(self):
        assert not hasattr(oracles, "rel_entropy")


_D2, _D3 = Dist([0.5, 0.5]), Dist([0.2, 0.3, 0.5])
_P2, _P3 = PairMeasure(np.full((2, 2), 0.25)), PairMeasure(np.full((3, 3), 1.0 / 9.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: truncation_caps(Alpha(2.0), _D2, _D3),
        lambda: truncation_caps(Alpha(2.0), _D2, _D2, reference=_D3),
        lambda: truncated_optimizer(Alpha(0.5), _D2, _D2, 1.0, reference=_D3),
        lambda: renyi_rate_oracle(Alpha(0.5), _P2, _P3, claim=ExtReal(0.0)),
        lambda: easyvar_oracle_report(np.zeros((2, 2)), _P3),
    ],
    ids=["caps-operands", "caps-reference", "optimizer-reference", "rate-oracle-claimed", "easyvar-report"],
)
def test_operand_sizes_checked_on_entry(call):
    with pytest.raises(DimensionMismatchError):
        call()
