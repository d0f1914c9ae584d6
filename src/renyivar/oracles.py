"""Independent finite-horizon oracles and random-search stress tests.

The closed-form machinery elsewhere in the library reduces limits to spectral
quantities.  This module approaches the same limits the slow, definitional
way -- explicit recursions over path space and blind random search over the
feasible sets -- so agreement between the two routes is meaningful evidence
rather than a tautology.  What they share with the closed forms is the
input side: ``Dist`` and ``PairMeasure`` with their checks
(``_check_dims``, ``_feasible_support``, ``abs_cont_pair``), the ``kernel``
accessor, class finding (``_classes_of``, behind ``classes``), the class
gather ``_block`` and the log-domain primitives of
:mod:`renyivar.numerics`; and the claims they are held against, which come
from ``renyi_div``, ``renyi_rate``, ``rel_entropy_rate`` and
``growth_rate_from_log``.  The path recursions and the scoring of every
random-search candidate are this module's own code.

Two convergence modes are reported for every rate:

* ``"cesaro"``: the values ``f(n) / n``, converging like O(1/n);
* ``"difference"``: the increments ``f(n+1) - f(n)``, converging
  geometrically for primitive tilted matrices (and *exactly* from the first
  step for the relative entropy rate -- the telescoping property).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Alpha, Dist, _check_dims, _feasible_support, renyi_div
from .errors import DimensionMismatchError, InputValidationError, InvalidDistributionError
from .extreal import ExtReal
from .markov import PairMeasure, abs_cont_pair, kernel, rel_entropy_rate, renyi_rate
from .numerics import checked_array, log_vecmat, logsumexp
from .spectral import _block, _classes_of, growth_rate_from_log

__all__ = [
    "ConvergenceReport",
    "renyi_rate_oracle",
    "rel_entropy_rate_oracle",
    "easyvar_finite_n_oracle",
    "easyvar_oracle_report",
    "IIDVariationalProblem",
    "MarkovVariationalProblem",
    "RandomSearchReport",
    "random_search_extremum",
]


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """A finite-horizon approach to a claimed limit.

    ``sequence`` holds ``(n, value)`` pairs in increasing ``n``; ``final_gap``
    is the distance from the last value to ``limit_claim``, with agreement at
    the same infinity counting as gap zero.
    """

    sequence: list[tuple[int, float]]
    limit_claim: ExtReal
    final_gap: float
    mode: str


def _gap(value: float, claim: ExtReal) -> float:
    if math.isfinite(value) and claim.is_finite:
        return abs(value - claim.raw)
    if value == claim.raw:
        return 0.0
    return math.inf


def _difference(later: float, earlier: float) -> float:
    """A sequence increment that treats two equal infinities as that infinity."""
    if math.isinf(later) and later == earlier:
        return later
    return later - earlier


def _mode_series(values: dict[int, float], mode: str) -> list[tuple[int, float]]:
    ns = sorted(values)
    if mode == "cesaro":
        return [(n, values[n] / n) for n in ns]
    if mode == "difference":
        return [(n, _difference(values[n + 1], values[n])) for n in ns[:-1]]
    raise InputValidationError(f"unknown mode {mode!r}; use 'cesaro' or 'difference'")


def _report(values: dict[int, float], claim: ExtReal, mode: str) -> ConvergenceReport:
    sequence = _mode_series(values, mode)
    return ConvergenceReport(sequence, claim, _gap(sequence[-1][1], claim), mode)


def renyi_rate_oracle(
    alpha: Alpha,
    nu: PairMeasure,
    theta: PairMeasure,
    n_max: int = 200,
    mode: str = "difference",
    claim: ExtReal | None = None,
) -> ConvergenceReport:
    """Approach the Renyi divergence rate through explicit path power sums.

    Computes ``R_a(nu_n || theta_n)`` for ``n = 2..n_max`` by a log-domain
    vector recursion over the tilted pair/kernel weights (cost ``O(n d^2)``,
    no spectral machinery), then reports the requested convergence mode
    against the claimed limit (default: what :func:`renyi_rate` returns).
    """
    _check_dims(nu, theta)
    if n_max < 3:
        raise InputValidationError("need n_max >= 3 for a nontrivial report")
    if claim is None:
        claim = renyi_rate(alpha, nu, theta)
    a = alpha.value
    if a < 0:  # definitional swap; the finite-n divergences agree exactly
        a, nu, theta = 1.0 - a, theta, nu
    if a > 1 and not abs_cont_pair(nu, theta):
        # Some path carries nu-mass outside theta's support already at n = 2,
        # so every finite-n divergence is infinite, matching the claim.
        values = {n: math.inf for n in range(2, n_max + 1)}
        return _report(values, claim, mode)
    scale = a * (a - 1.0)
    pair_mask = nu.edge_support & theta.edge_support
    log_pair = np.full(nu.entries.shape, -math.inf)
    log_pair[pair_mask] = a * np.log(nu.entries[pair_mask]) + (1.0 - a) * np.log(
        theta.entries[pair_mask]
    )
    k_nu = kernel(nu).rows
    k_theta = kernel(theta).rows
    step_mask = (k_nu > 0) & (k_theta > 0)
    log_step = np.full(k_nu.shape, -math.inf)
    log_step[step_mask] = a * np.log(k_nu[step_mask]) + (1.0 - a) * np.log(k_theta[step_mask])
    v = logsumexp(log_pair, axis=0)
    values = {2: logsumexp(v) / scale}
    for n in range(3, n_max + 1):
        v = log_vecmat(v, log_step)
        values[n] = logsumexp(v) / scale
    return _report(values, claim, mode)


def rel_entropy_rate_oracle(
    nu: PairMeasure,
    theta: PairMeasure,
    n_max: int = 200,
    mode: str = "difference",
    claim: ExtReal | None = None,
) -> ConvergenceReport:
    """Approach the relative entropy rate through exact finite-n entropies.

    ``D(nu_n || theta_n)`` is accumulated state by state: ``c_n(j)`` tracks
    the contribution of paths ending at ``j``, and one linear pass extends it
    to ``n + 1``.  In difference mode the increments equal the rate exactly
    (telescoping), up to roundoff.
    """
    if n_max < 3:
        raise InputValidationError("need n_max >= 3 for a nontrivial report")
    if claim is None:
        claim = rel_entropy_rate(nu, theta)
    if not abs_cont_pair(nu, theta):
        values = {n: math.inf for n in range(2, n_max + 1)}
        return _report(values, claim, mode)
    mask = nu.edge_support
    k_nu = kernel(nu).rows
    k_theta = kernel(theta).rows
    pair_ratio = np.zeros_like(nu.entries)
    pair_ratio[mask] = np.log(nu.entries[mask]) - np.log(theta.entries[mask])
    step_ratio = np.zeros_like(nu.entries)
    step_ratio[mask] = np.log(k_nu[mask]) - np.log(k_theta[mask])
    per_edge = nu.entries * step_ratio  # nu(i,j) log(nu(j|i)/theta(j|i))
    c = (nu.entries * pair_ratio).sum(axis=0)
    values = {2: float(c.sum())}
    for n in range(3, n_max + 1):
        c = k_nu.T @ c + per_edge.sum(axis=0)
        values[n] = float(c.sum())
    return _report(values, claim, mode)


def _tilt_matrix(g_values: np.ndarray, mu: PairMeasure) -> np.ndarray:
    rows = kernel(mu).rows
    out = np.full(rows.shape, -math.inf)
    on = rows > 0
    out[on] = g_values[on] + np.log(rows[on])
    return out


def _easyvar_recursion(
    g_values: np.ndarray, mu: PairMeasure, n_max: int
) -> tuple[np.ndarray, dict[int, float]]:
    """The tilted log kernel, and log E[exp(sum of g along a length-n path)] for n = 1..n_max."""
    g_values = checked_array(g_values, "edge-function values", square=True)
    if g_values.shape != mu.entries.shape:
        raise DimensionMismatchError("edge-function shape must match the pair measure")
    marginal = mu.state_marginal
    v = np.full(mu.d, -math.inf)
    on = marginal > 0
    v[on] = np.log(marginal[on])
    log_step = _tilt_matrix(g_values, mu)
    values = {1: logsumexp(v)}
    for n in range(2, n_max + 1):
        v = log_vecmat(v, log_step)
        values[n] = logsumexp(v)
    return log_step, values


def easyvar_finite_n_oracle(g_values: np.ndarray, mu: PairMeasure, n: int) -> float:
    """(1/n) log E[exp(sum of g along a length-n path)] under the chain of mu."""
    if n < 1:
        raise InputValidationError("need n >= 1")
    _, values = _easyvar_recursion(g_values, mu, n)
    return values[n] / n


def easyvar_oracle_report(
    g_values: np.ndarray,
    mu: PairMeasure,
    n_max: int = 200,
    mode: str = "difference",
) -> ConvergenceReport:
    """Finite-horizon approach to the growth rate of [e^{g} mu(j|i)].

    The claim is recomputed spectrally from the same tilted matrix; the
    sequence comes from the independent path recursion that also backs
    :func:`easyvar_finite_n_oracle`.
    """
    if n_max < 2:
        raise InputValidationError("need n_max >= 2 for a nontrivial report")
    log_step, values = _easyvar_recursion(g_values, mu, n_max)
    return _report(values, growth_rate_from_log(log_step), mode)


# ---------------------------------------------------------------------------
# Random search over the feasible sets
# ---------------------------------------------------------------------------

_GAMMA_SHAPES = (1.0, 0.3, 3.0)  # trial t draws its weights with shape _GAMMA_SHAPES[t % 3]
_SCORE_TERMS = 2**16  # floats in one block of iid candidates (one row of d letters at the least)


@dataclass(frozen=True)
class IIDVariationalProblem:
    """Descriptor of a single-letter variational problem."""

    alpha: Alpha
    nu: Dist
    theta: Dist

    def __post_init__(self) -> None:
        _check_dims(self.nu, self.theta)


@dataclass(frozen=True)
class MarkovVariationalProblem:
    """Descriptor of a per-step variational problem."""

    alpha: Alpha
    nu: PairMeasure
    theta: PairMeasure

    def __post_init__(self) -> None:
        _check_dims(self.nu, self.theta)


@dataclass(frozen=True)
class RandomSearchReport:
    """What blind search found, versus the closed-form extremum.

    ``margin`` measures how far the search *beat* the claimed extremum
    (positive = the closed form was wrong somewhere); ``refinement_gap`` is
    the distance of the hill-climbed best from the claimed extremum.
    """

    target: ExtReal
    best_sampled: float
    best_refined: float
    margin: float
    refinement_gap: float
    trials: int
    seed: int
    passed: bool


def _beaten_by(regime: str, candidate: float, target: ExtReal) -> float:
    if not target.is_finite:
        # An infinite extremum cannot be beaten (sup) / is never undercut (inf).
        return -math.inf
    if regime == "alpha_in_01":
        return target.raw - candidate
    return candidate - target.raw


def _objective(
    a: float, mask: np.ndarray, masses: np.ndarray, log_masses: np.ndarray,
    log_theta: np.ndarray, log_nu: np.ndarray,
) -> float:
    """J_a(mu) = D(mu || theta) / a - D(mu || nu) / (a - 1), from mu's own arrays.

    ``masses`` are the candidate's masses on its support ``mask`` (letters,
    or edges), and ``log_masses`` the logs of what each entropy compares
    there: the weights for a distribution, the kernel entries for a chain.
    ``log_theta`` and ``log_nu`` are the references' logs of the same,
    ``-inf`` off their supports.  Where ``mask`` leaves a reference's
    support, a term and so that entropy is ``+inf``.
    """
    d_theta = float(np.add.reduce(masses * (log_masses - log_theta[mask])))
    d_nu = float(np.add.reduce(masses * (log_masses - log_nu[mask])))
    return d_theta / a - d_nu / (a - 1.0)


def _iid_candidate(
    a: float, weights: np.ndarray, log_theta: np.ndarray, log_nu: np.ndarray
) -> tuple[float, np.ndarray]:
    """The objective of the candidate with these weights, and the weights normalised.

    Weights must be finite and nonnegative with a finite positive total, as
    for a :class:`Dist`.
    """
    total = float(np.add.reduce(weights))
    if not (weights.min() >= 0.0 and 0.0 < total < math.inf):  # a NaN fails both
        raise InvalidDistributionError(
            "candidate weights must be finite and nonnegative with a finite positive total"
        )
    w = weights / total
    mask = w > 0
    masses = w[mask]
    return _objective(a, mask, masses, np.log(masses), log_theta, log_nu), w


def _iid_scores(
    a: float, weights: np.ndarray, idx: np.ndarray, log_theta: np.ndarray, log_nu: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """:func:`_iid_candidate` of every row of ``weights``, in one row-wise pass.

    Rows are finite and nonnegative, and zero off the letters ``idx``.  A row
    whose normalised support is exactly ``idx`` goes through the same IEEE
    operations on the same layout: the full row is summed, and its masses
    are gathered into a C-contiguous block (a strided gather would change
    the pairwise order of the sums from eight letters on).  Any other row,
    with a zero or underflowed mass or a total out of range, goes through
    :func:`_iid_candidate` itself.  Returns the objectives and the rows
    normalised.
    """
    totals = np.add.reduce(weights, axis=1)
    # Silent, as the Python floats of the objective are; a log 0 or a 0/0
    # reaches only the rows scored again below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = weights / totals[:, None]
        masses = w.take(idx, axis=1)
        logs = np.log(masses)
        d_theta = np.add.reduce(masses * (logs - log_theta[idx]), axis=1)
        d_nu = np.add.reduce(masses * (logs - log_nu[idx]), axis=1)
        vals = (d_theta / a - d_nu / (a - 1.0)).tolist()
    for r in np.flatnonzero(~(masses > 0).all(axis=1)):
        vals[r], w[r] = _iid_candidate(a, weights[r], log_theta, log_nu)
    return vals, w


def _search_iid(
    problem: IIDVariationalProblem, trials: int, seed: int, hill_steps: int
) -> tuple[ExtReal, float, float]:
    a = problem.alpha.value
    regime = problem.alpha.regime
    nu, theta = problem.nu, problem.theta
    mask = _feasible_support(regime, nu.support, theta.support)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InputValidationError("the feasible set of the descriptor is empty")
    target = renyi_div(problem.alpha, nu, theta)
    better = max if regime != "alpha_in_01" else min
    log_theta, log_nu = theta.log_weights, nu.log_weights
    rng = np.random.default_rng(seed)
    block = max(1, _SCORE_TERMS // nu.d)
    best_val: float | None = None
    best_weights: np.ndarray | None = None
    for start in range(0, trials, block):
        # Draw a block of trials, score its full-support ones together, then
        # take the best in trial order.
        n = min(block, trials - start)
        full = np.zeros((n, nu.d))
        found: list[tuple[float, np.ndarray] | None] = [None] * n
        for r in range(n):
            shape = _GAMMA_SHAPES[(start + r) % len(_GAMMA_SHAPES)]
            if idx.size > 1 and rng.random() < 0.3:
                size = int(rng.integers(1, idx.size + 1))
                chosen = rng.choice(idx, size=size, replace=False)
                weights = np.zeros(nu.d)
                weights[chosen] = rng.gamma(shape, size=chosen.size)
                if weights.sum() > 0:
                    found[r] = _iid_candidate(a, weights, log_theta, log_nu)
            else:
                full[r, idx] = rng.gamma(shape, size=idx.size)
        scored = np.flatnonzero(full.any(axis=1))  # a trial whose draws are all zero is skipped
        vals, normalised = _iid_scores(a, full[scored], idx, log_theta, log_nu)
        for r, val, w in zip(scored.tolist(), vals, normalised):
            found[r] = (val, w)
        for candidate in found:
            if candidate is not None and (best_val is None or better(candidate[0], best_val) == candidate[0]):
                best_val, best_weights = candidate
    if best_val is None or best_weights is None:
        raise InvalidDistributionError(f"none of the {trials} trials drew weights that normalise to a candidate")
    best_sampled = best_val
    # Coordinate tilts with step halving, restricted to the full feasible support.
    weights = np.zeros(nu.d)
    weights[idx] = np.maximum(best_weights[idx], 1e-12)
    current, _ = _iid_candidate(a, weights, log_theta, log_nu)
    moves = np.repeat(idx, 2)  # each letter tilted up, then down
    step = 0.5
    for _ in range(hill_steps):
        improved = False
        factors = np.array((1.0 + step, 1.0 / (1.0 + step)) * idx.size)
        # Score the sweep's moves from the same weights; after the first
        # improving one, score the moves after it from the new weights.
        pos = 0
        while pos < moves.size:
            n = min(block, moves.size - pos)
            tilted = np.repeat(weights[None, :], n, axis=0)
            tilted[np.arange(n), moves[pos:pos + n]] *= factors[pos:pos + n]
            vals, normalised = _iid_scores(a, tilted, idx, log_theta, log_nu)
            k = next((k for k, val in enumerate(vals) if better(val, current) == val and val != current), None)
            if k is None:
                pos += n
            else:
                current, weights = vals[k], normalised[k]
                improved = True
                pos += k + 1
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return target, best_sampled, better(best_sampled, current)


def _stationary_law(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible kernel block, by direct linear solve.

    Solves ``pi (I - K) = 0`` with the first equation replaced by the
    normalization, then polishes with iterative refinement; power iteration
    is avoided because slowly mixing kernels can stall it far from balance.
    """
    block = _block(rows, states)
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


def _random_rows(
    rng: np.random.Generator, sub_mask: np.ndarray, states: np.ndarray, shape: float
) -> np.ndarray | None:
    """Random kernel rows on a class's edges: gamma weights, each row normalised.

    The edges are drawn in one call, row by row in state order, which is the
    stream of one call per row.  ``None`` if a row's draws are all zero; the
    generator is then rewound and draws again only up to that row, where a
    row-by-row loop would have stopped.  Also ``None``, with every draw kept,
    if entries of exactly zero (a zero draw, or one that underflows when its
    row is normalised) leave the kernel reducible on the class: it then has
    no unique stationary law.  Without such an entry the kernel has the
    class's own edges, so the classes are found only after one.
    """
    rows = np.zeros(sub_mask.shape)
    src, dst = np.nonzero(_block(sub_mask, states))
    saved = rng.bit_generator.state
    rows[states[src], states[dst]] = rng.gamma(shape, size=src.size)
    totals = rows.sum(axis=1)[states]
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        rng.bit_generator.state = saved
        rng.gamma(shape, size=int(np.searchsorted(src, empty[0], side="right")))
        return None
    rows[states] /= totals[:, None]
    if np.count_nonzero(rows) < src.size and len(_classes_of(_block(rows, states) > 0).classes) > 1:
        return None
    return rows


def _random_stationary(
    rng: np.random.Generator, edge_mask: np.ndarray, shape: float, state_pool: np.ndarray
) -> PairMeasure | None:
    """A random stationary pair measure on a random cyclic subgraph of the mask.

    ``None`` when a class's drawn kernel has no stationary law this solve can
    find: a row drew only zeros, zero entries made the kernel reducible, or
    the solve is singular in floats.
    """
    d = edge_mask.shape[0]
    in_pool = np.zeros(d, dtype=bool)
    in_pool[state_pool] = True
    sub_mask = edge_mask & in_pool[:, None] & in_pool
    cyclic = _classes_of(sub_mask).cyclic_classes()
    if not cyclic:
        return None
    picked = [cyclic[int(rng.integers(len(cyclic)))]] if rng.random() < 0.7 else cyclic
    entries = np.zeros((d, d))
    mix = rng.gamma(1.0, size=len(picked))
    mix /= mix.sum()
    for lam, cls in zip(mix, picked):
        states = np.asarray(cls, dtype=int)
        rows = _random_rows(rng, sub_mask, states, shape)
        if rows is None:
            return None
        try:
            pi = _stationary_law(rows, states)
        except np.linalg.LinAlgError:
            pi = None
        if pi is None or np.isnan(pi).any():
            # the solve is singular in floats: a set of states leaks mass only below its rows' rounding
            return None
        entries += lam * (pi[:, None] * rows)
    return PairMeasure(entries)


def _markov_objective_value(
    a: float, mu: PairMeasure, log_k_theta: np.ndarray, log_k_nu: np.ndarray
) -> float:
    mask = mu.entries > 0
    log_k = np.log(kernel(mu).rows[mask])
    return _objective(a, mask, mu.entries[mask], log_k, log_k_theta, log_k_nu)


def _search_markov(
    problem: MarkovVariationalProblem, trials: int, seed: int, hill_steps: int
) -> tuple[ExtReal, float, float]:
    a = problem.alpha.value
    regime = problem.alpha.regime
    nu, theta = problem.nu, problem.theta
    edge_mask = _feasible_support(regime, nu.edge_support, theta.edge_support)
    all_cyclic = _classes_of(edge_mask).cyclic_classes()
    if not all_cyclic:
        raise InputValidationError("the descriptor admits no stationary feasible candidate")
    target = renyi_rate(problem.alpha, nu, theta)
    better = max if regime != "alpha_in_01" else min
    with np.errstate(divide="ignore"):  # log 0 = -inf off the edge supports
        log_k_theta, log_k_nu = np.log(kernel(theta).rows), np.log(kernel(nu).rows)
    rng = np.random.default_rng(seed)
    all_states = np.arange(nu.d)
    best_val: float | None = None
    best_mu: PairMeasure | None = None
    for t in range(trials):
        pool = all_states
        if nu.d > 1 and rng.random() < 0.5:
            size = int(rng.integers(1, nu.d + 1))
            pool = np.sort(rng.choice(all_states, size=size, replace=False))
        shape = _GAMMA_SHAPES[t % len(_GAMMA_SHAPES)]
        candidate = _random_stationary(rng, edge_mask, shape, pool)
        if candidate is None:
            candidate = _random_stationary(rng, edge_mask, shape, all_states)
            if candidate is None:
                continue
        val = _markov_objective_value(a, candidate, log_k_theta, log_k_nu)
        if best_val is None or better(val, best_val) == val:
            best_val, best_mu = val, candidate
    if best_val is None or best_mu is None:
        raise InvalidDistributionError(f"none of the {trials} trials drew a kernel with a stationary law")
    best_sampled = best_val
    # Hill climb on kernel rows over the largest feasible class.
    cls = max(all_cyclic, key=len)
    states = np.asarray(cls, dtype=int)
    rows = np.zeros((nu.d, nu.d))
    for i in states:
        outs = np.flatnonzero(edge_mask[i][states])
        rows[i, states[outs]] = 1.0 / outs.size
    current_mu = PairMeasure(_stationary_law(rows, states)[:, None] * rows)
    current = _markov_objective_value(a, current_mu, log_k_theta, log_k_nu)
    if better(best_sampled, current) == best_sampled and best_mu.d == nu.d:
        # Prefer the sampled best as a starting point when it lives on the full class.
        sampled_rows = kernel(best_mu).rows
        if np.array_equal(sampled_rows > 0, rows > 0):
            rows = sampled_rows.copy()
            current_mu = best_mu
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
                mu_try = PairMeasure(_stationary_law(trial_rows, states)[:, None] * trial_rows)
                val = _markov_objective_value(a, mu_try, log_k_theta, log_k_nu)
                if better(val, current) == val and val != current:
                    current, rows = val, trial_rows
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return target, best_sampled, better(best_sampled, current)


def random_search_extremum(
    problem: IIDVariationalProblem | MarkovVariationalProblem,
    trials: int = 10_000,
    seed: int = 0,
    hill_steps: int = 200,
    tol: float = 1e-8,
) -> RandomSearchReport:
    """Stress a closed-form extremum with blind random search plus hill climbing.

    Candidates are sampled from the regime's feasible set (Dirichlet-style
    points on random sub-supports; for chains, random kernels on random
    cyclic subgraphs converted to stationary pair measures via their
    stationary laws), then the best candidate is refined by coordinate tilts
    with step halving.  The report records whether anything beat the closed
    form beyond ``tol``.

    The seed fixes every random draw and their order, so a search is
    reproducible.  The iid search scores its full-support candidates and
    each sweep's tilts in blocks, and the Markov search draws each class's
    kernel rows in one call; neither changes a candidate or a float of what
    scoring one candidate at a time, row by row, would give.
    """
    if trials < 1:
        raise InputValidationError("need at least one trial")
    if isinstance(problem, IIDVariationalProblem):
        target, best_sampled, best_refined = _search_iid(problem, trials, seed, hill_steps)
    elif isinstance(problem, MarkovVariationalProblem):
        target, best_sampled, best_refined = _search_markov(problem, trials, seed, hill_steps)
    else:
        raise InputValidationError(f"unknown problem descriptor {type(problem).__name__}")
    margin = _beaten_by(problem.alpha.regime, best_refined, target)
    return RandomSearchReport(
        target=target,
        best_sampled=best_sampled,
        best_refined=best_refined,
        margin=margin,
        refinement_gap=_gap(best_refined, target),
        trials=trials,
        seed=seed,
        passed=margin <= tol,
    )
