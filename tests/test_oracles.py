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
    NonnegMatrix,
    PairMeasure,
    RenyiVarError,
    classes,
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


def _support_rows(rng: np.random.Generator, d: int, idx: np.ndarray, k: int) -> np.ndarray:
    """``k`` nonzero rows of ``_sparse_weights`` on the letters ``idx``, zero elsewhere."""
    rows = np.zeros((k, d))
    for r in range(k):
        rows[r, idx] = _sparse_weights(rng, idx.size)
    return rows


class TestBatchedIidScorer:
    """``_iid_scores`` gives each row the floats of ``_iid_candidate``."""

    def test_rows_match_the_one_candidate_scorer_bit_for_bit(self):
        rng = np.random.default_rng(2026)
        fallbacks = 0
        for d in range(1, 71):  # past the 8-element blocks of numpy's pairwise sums
            for _ in range(3):
                nu, theta = Dist(_sparse_weights(rng, d)), Dist(_sparse_weights(rng, d))
                idx = np.flatnonzero(rng.random(d) < 0.8)  # gaps: the gather is not a slice
                if idx.size == 0:
                    idx = np.array([int(rng.integers(d))])
                rows = _support_rows(rng, d, idx, int(rng.integers(1, 12)))
                a = float(rng.choice(ALPHA_GRID))
                vals, normalised = oracles._iid_scores(a, rows, idx, theta.log_weights, nu.log_weights)
                assert len(vals) == rows.shape[0] and normalised.shape == rows.shape
                for r, weights in enumerate(rows):
                    want, want_w = oracles._iid_candidate(a, weights, theta.log_weights, nu.log_weights)
                    assert vals[r].hex() == want.hex()
                    assert normalised[r].tobytes() == want_w.tobytes()
                    fallbacks += not (weights[idx] / weights.sum() > 0).all()
        assert fallbacks > 100  # zero and underflowed masses are covered

    def test_a_zero_row_keeps_the_dist_check(self):
        nu = Dist([0.5, 0.5])
        rows = np.array([[0.3, 0.7], [0.0, 0.0]])
        with pytest.raises(InvalidDistributionError):
            oracles._iid_scores(2.0, rows, np.array([0, 1]), nu.log_weights, nu.log_weights)


# Frozen copies of the searches as they scored one candidate at a time, built
# every Markov candidate row by row and found classes through NonnegMatrix.
# The batched searches must reproduce them bit for bit.

def _frozen_search_iid(problem, trials, seed, hill_steps):
    a = problem.alpha.value
    regime = problem.alpha.regime
    nu, theta = problem.nu, problem.theta
    mask = oracles._feasible_support(regime, nu.support, theta.support)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InputValidationError("the feasible set of the descriptor is empty")
    target = renyi_div(problem.alpha, nu, theta)
    better = max if regime != "alpha_in_01" else min
    log_theta, log_nu = theta.log_weights, nu.log_weights
    rng = np.random.default_rng(seed)
    shapes = oracles._GAMMA_SHAPES
    best_val = best_weights = None
    for t in range(trials):
        chosen = idx
        if idx.size > 1 and rng.random() < 0.3:
            size = int(rng.integers(1, idx.size + 1))
            chosen = rng.choice(idx, size=size, replace=False)
        weights = np.zeros(nu.d)
        weights[chosen] = rng.gamma(shapes[t % len(shapes)], size=chosen.size)
        if weights.sum() <= 0:
            continue
        val, normalised = oracles._iid_candidate(a, weights, log_theta, log_nu)
        if best_val is None or better(val, best_val) == val:
            best_val, best_weights = val, normalised
    assert best_val is not None and best_weights is not None
    best_sampled = best_val
    weights = np.zeros(nu.d)
    weights[idx] = np.maximum(best_weights[idx], 1e-12)
    current, _ = oracles._iid_candidate(a, weights, log_theta, log_nu)
    step = 0.5
    for _ in range(hill_steps):
        improved = False
        for x in idx:
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial_w = weights.copy()
                trial_w[x] *= factor
                val, normalised = oracles._iid_candidate(a, trial_w, log_theta, log_nu)
                if better(val, current) == val and val != current:
                    current, weights = val, normalised
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return target, best_sampled, better(best_sampled, current)


def _frozen_stationary_law(rows, states):
    block = rows[np.ix_(states, states)]
    n = states.size
    system = np.eye(n) - block.T
    system[0] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = np.linalg.solve(system, rhs)
    for _ in range(3):
        residual = rhs - system @ pi
        if float(np.max(np.abs(residual))) <= 1e-16:
            break
        pi += np.linalg.solve(system, residual)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    full = np.zeros(rows.shape[0])
    full[states] = pi
    return full


def _frozen_random_stationary(rng, edge_mask, shape, state_pool):
    d = edge_mask.shape[0]
    sub_mask = np.zeros_like(edge_mask)
    sub_mask[np.ix_(state_pool, state_pool)] = edge_mask[np.ix_(state_pool, state_pool)]
    cyclic = classes(NonnegMatrix(sub_mask.astype(float))).cyclic_classes()
    if not cyclic:
        return None
    picked = [cyclic[int(rng.integers(len(cyclic)))]] if rng.random() < 0.7 else cyclic
    entries = np.zeros((d, d))
    mix = rng.gamma(1.0, size=len(picked))
    mix /= mix.sum()
    for lam, cls in zip(mix, picked):
        states = np.asarray(cls, dtype=int)
        rows = np.zeros((d, d))
        for i in states:
            outs = np.flatnonzero(sub_mask[i][states])
            rows[i, states[outs]] = rng.gamma(shape, size=outs.size)
            total = rows[i].sum()
            if total <= 0:
                return None
            rows[i] /= total
        if len(classes(NonnegMatrix(rows[np.ix_(states, states)])).classes) > 1:
            return None  # zero entries made the kernel reducible
        try:
            pi = _frozen_stationary_law(rows, states)
        except np.linalg.LinAlgError:
            return None  # a solve singular in floats
        if np.isnan(pi).any():
            return None  # the same, without a zero pivot
        entries += lam * (pi[:, None] * rows)
    return PairMeasure(entries)


def _frozen_search_markov(problem, trials, seed, hill_steps):
    a = problem.alpha.value
    regime = problem.alpha.regime
    nu, theta = problem.nu, problem.theta
    edge_mask = oracles._feasible_support(regime, nu.edge_support, theta.edge_support)
    all_cyclic = classes(NonnegMatrix(edge_mask.astype(float))).cyclic_classes()
    if not all_cyclic:
        raise InputValidationError("the descriptor admits no stationary feasible candidate")
    target = renyi_rate(problem.alpha, nu, theta)
    better = max if regime != "alpha_in_01" else min
    with np.errstate(divide="ignore"):
        log_k_theta, log_k_nu = np.log(kernel(theta).rows), np.log(kernel(nu).rows)
    score = oracles._markov_objective_value
    rng = np.random.default_rng(seed)
    all_states = np.arange(nu.d)
    shapes = oracles._GAMMA_SHAPES
    best_val = best_mu = None
    for t in range(trials):
        pool = all_states
        if nu.d > 1 and rng.random() < 0.5:
            size = int(rng.integers(1, nu.d + 1))
            pool = np.sort(rng.choice(all_states, size=size, replace=False))
        candidate = _frozen_random_stationary(rng, edge_mask, shapes[t % len(shapes)], pool)
        if candidate is None:
            candidate = _frozen_random_stationary(rng, edge_mask, shapes[t % len(shapes)], all_states)
            if candidate is None:
                continue
        val = score(a, candidate, log_k_theta, log_k_nu)
        if best_val is None or better(val, best_val) == val:
            best_val, best_mu = val, candidate
    assert best_val is not None and best_mu is not None
    best_sampled = best_val
    cls = max(all_cyclic, key=len)
    states = np.asarray(cls, dtype=int)
    rows = np.zeros((nu.d, nu.d))
    for i in states:
        outs = np.flatnonzero(edge_mask[i][states])
        rows[i, states[outs]] = 1.0 / outs.size
    current_mu = PairMeasure(_frozen_stationary_law(rows, states)[:, None] * rows)
    current = score(a, current_mu, log_k_theta, log_k_nu)
    if better(best_sampled, current) == best_sampled and best_mu.d == nu.d:
        sampled_rows = kernel(best_mu).rows
        if np.array_equal(sampled_rows > 0, rows > 0):
            rows = sampled_rows.copy()
            current = best_sampled
    step = 0.5
    edges = [(int(i), int(j)) for i in states for j in states if edge_mask[i, j]]
    for _ in range(hill_steps):
        improved = False
        for (i, j) in edges:
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial_rows = rows.copy()
                trial_rows[i, j] *= factor
                trial_rows[i] /= trial_rows[i].sum()
                mu_try = PairMeasure(_frozen_stationary_law(trial_rows, states)[:, None] * trial_rows)
                val = score(a, mu_try, log_k_theta, log_k_nu)
                if better(val, current) == val and val != current:
                    current, rows = val, trial_rows
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return target, best_sampled, better(best_sampled, current)


def _search_outcome(search, problem, trials, seed, hill_steps):
    """The hex of a search's floats, or the type of what it raised."""
    try:
        target, sampled, refined = search(problem, trials, seed, hill_steps)
    except (RenyiVarError, AssertionError) as exc:  # an empty feasible set, or no candidate drawn
        return type(exc).__name__
    return repr(target), sampled.hex(), refined.hex()


def _iid_problems(rng: np.random.Generator, count: int):
    for k in range(count):
        d = int(rng.integers(1, 13)) if k % 4 else int(rng.integers(13, 41))
        nu, theta = Dist(_sparse_weights(rng, d)), Dist(_sparse_weights(rng, d))
        yield IIDVariationalProblem(Alpha(float(rng.choice(ALPHA_GRID))), nu, theta)


def _markov_problems(rng: np.random.Generator, count: int):
    for k in range(count):
        d = int(rng.integers(2, 7))
        if k % 2:
            nu, theta = random_pair(rng, d), random_pair(rng, d)
        else:
            nu = _block_pair(rng, d, int(rng.integers(1, d + 1)))[1]
            theta = _block_pair(rng, d, int(rng.integers(1, d + 1)))[1]
        yield MarkovVariationalProblem(Alpha(float(rng.choice(ALPHA_GRID))), nu, theta)


class TestSearchesMatchTheFrozenLoops:
    """Batching changes no draw and no float of either search."""

    @pytest.mark.parametrize("terms", [oracles._SCORE_TERMS, 40, 1])
    def test_iid_search(self, monkeypatch, terms):
        monkeypatch.setattr(oracles, "_SCORE_TERMS", terms)  # small blocks split trials and sweeps
        rng = np.random.default_rng(19)
        outcomes = set()
        for k, problem in enumerate(_iid_problems(rng, 200 if terms == oracles._SCORE_TERMS else 40)):
            args = (problem, int(rng.integers(1, 120)), k, int(rng.integers(0, 25)))
            got = _search_outcome(oracles._search_iid, *args)
            assert got == _search_outcome(_frozen_search_iid, *args)
            outcomes.add(type(got))
        assert outcomes == {tuple, str}  # empty feasible sets are covered

    def test_markov_search(self):
        rng = np.random.default_rng(20)
        scored = 0
        for k, problem in enumerate(_markov_problems(rng, 200)):
            args = (problem, int(rng.integers(1, 25)), k, int(rng.integers(0, 4)))
            got = _search_outcome(oracles._search_markov, *args)
            assert got == _search_outcome(_frozen_search_markov, *args)
            scored += type(got) is tuple
        assert scored > 150

    def test_markov_search_through_zero_rows(self, monkeypatch):
        # Shapes this small draw exact zeros and entries far below their rows'
        # rounding: rows come out empty (the generator is rewound to the row
        # where the frozen loop stopped), kernels reducible or singular in
        # floats.  Each such candidate is skipped, and every search completes.
        monkeypatch.setattr(oracles, "_GAMMA_SHAPES", (0.0005, 0.002, 1.0))
        rng = np.random.default_rng(21)
        scored = 0
        for k, problem in enumerate(_markov_problems(rng, 40)):
            args = (problem, int(rng.integers(1, 25)), k, int(rng.integers(0, 3)))
            with np.errstate(invalid="ignore"):  # a solve singular in floats, short of a zero pivot
                got = _search_outcome(oracles._search_markov, *args)
                assert got == _search_outcome(_frozen_search_markov, *args)
            scored += type(got) is tuple
        assert scored == 40

    def test_a_search_that_draws_no_candidate_says_so(self, monkeypatch):
        # With these shapes a draw of one letter or one kernel row is often
        # exactly zero, so a search of one or two trials can end with no
        # candidate at all; it names its trial count in a library error.
        monkeypatch.setattr(oracles, "_GAMMA_SHAPES", (0.0005, 0.002, 1.0))
        rng = np.random.default_rng(23)
        empty = {IIDVariationalProblem: 0, MarkovVariationalProblem: 0}
        for k, problem in enumerate([*_iid_problems(rng, 60), *_markov_problems(rng, 60)]):
            trials = int(rng.integers(1, 3))
            try:
                with np.errstate(invalid="ignore"):  # a solve singular in floats, short of a zero pivot
                    random_search_extremum(problem, trials=trials, seed=k, hill_steps=0)
            except InvalidDistributionError as exc:
                assert str(exc).startswith(f"none of the {trials} trials drew ")
                empty[type(problem)] += 1
            except InputValidationError as exc:
                assert "empty" in str(exc) or "no stationary" in str(exc)
        assert min(empty.values()) >= 3

    def test_random_rows_rewind_to_the_failing_row(self):
        def built(build, seed, *args):
            rng = np.random.default_rng(seed)
            with np.errstate(invalid="ignore"):  # a solve singular in floats, short of a zero pivot
                mu = build(rng, *args)
            return (None if mu is None else mu.entries.tobytes()), rng.bit_generator.state

        rng = np.random.default_rng(22)
        empty = kept = 0
        for _ in range(300):
            d = int(rng.integers(2, 8))
            full = rng.random() < 0.5
            mask = np.ones((d, d), dtype=bool) if full else _block_pair(rng, d, int(rng.integers(1, d + 1)))[0]
            args = (mask, float(rng.choice((0.0005, 0.002, 0.3))), np.arange(d))  # every pattern has a class
            seed = int(rng.integers(2**32))
            got = built(oracles._random_stationary, seed, *args)
            assert got == built(_frozen_random_stationary, seed, *args)  # same measure and generator state
            empty += got[0] is None
            kept += type(got[0]) is bytes
        assert empty > 50 and kept > 50

    def test_kernel_builds_no_support_tuple_until_asked(self):
        mu = PairMeasure([[0.5, 0.0], [0.0, 0.5]])
        k = kernel(mu)
        assert "support_states" not in vars(k)
        assert k.support_states == (0, 1)


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
