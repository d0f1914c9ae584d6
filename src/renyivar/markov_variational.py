"""Variational characterizations of Markov divergence rates.

Everything single-letter in :mod:`renyivar.variational` has a per-step
analogue in which distributions become stationary pair measures, relative
entropies become relative entropy rates, and power sums become spectral
growth rates of tilted kernel matrices.  The candidate functional is::

    J_a(mu) = (1/a) * rate(mu || theta) - (1/(a-1)) * rate(mu || nu)

with the same three regimes (sup over mu << nu for a > 1, inf over doubly
dominated mu for 0 < a < 1, sup over mu << theta for a < 0), and the
divergence rate of order ``a`` is the extremal value.

Attaining measures are *eigenvector twists*, all built by one route,
``_locate_and_twist``: locate the cyclic class on which a matrix ``N`` grows
fastest (classes in smallest-state order, the first with the largest Perron
root wins), and there form ``mu*(i, j) = u(i) M(i, j) w(j) / Z``, stationary
for ``u, w`` the left and right Perron vectors of a matrix ``M``.  The twist
itself is built by ``spectral._twist``, which ``spectral.maximal_abs_cont``
shares.  The completion of such a twist to the other classes of a reducible
reference measure, where the problem needs mass on each of them, belongs in
this route, built on ``spectral._twist``.

``N = M`` is the tilted kernel matrix for the divergence rate, and
``[e^{g} mu(j|i)]`` for :func:`varadhan_solve`.  The order-``a`` tilt pair
(:func:`markov_acd_sup`, :func:`markov_acd_inf`, :func:`certify_markov_acd`)
links ``(1/a) rho(N)``, ``N = [e^{a g} theta(j|i)]``, with ``(1/(a-1))
rho([e^{(a-1) g} nu(j|i)])`` through the divergence rate, the sup side
twisting ``M = [e^{g} theta(j|i)]``; two growth-rate identities tie that
twist back to both ambient matrices (:func:`rho_identities_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .distributions import Alpha, _check_dims, _feasible_support
from .errors import InfeasiblePointError, InputValidationError
from .extreal import POS_INF, ExtReal
from .markov import (
    PairMeasure,
    _rate,
    _tilted_log_kernel,
    abs_cont_pair,
    kernel,
    rel_entropy_rate,
)
from .numerics import checked_array, memoised
from .spectral import PerronData, _growth, _locate_dominant, _twist
from .variational import CertResult, _attainment_residual, _signed_gap

__all__ = [
    "EdgeFn",
    "MarkovVarSolution",
    "RhoIdentityReport",
    "markov_objective",
    "solve_markov_variational",
    "certify_markov_inequality",
    "varadhan_growth",
    "varadhan_solve",
    "markov_acd_sup",
    "markov_acd_inf",
    "rho_identities_check",
    "certify_markov_acd",
]


@dataclass(frozen=True, eq=False)
class EdgeFn:
    """A real-valued function on edges (i, j), given by a finite d x d array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", checked_array(self.values, "edge-function values", square=True))

    @property
    def d(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class MarkovVarSolution:
    """Outcome of a per-step variational problem.

    ``optimizer`` is the attaining stationary pair measure when one exists;
    ``class_used`` names the cyclic class carrying it and ``perron`` the
    eigendata of the twisted matrix on that class.  ``residual`` is the
    verified attainment defect ``|value - J(optimizer)|`` (zero by convention
    when both sides agree at infinity).
    """

    value: ExtReal
    optimizer: PairMeasure | None
    class_used: tuple[int, ...] | None
    perron: PerronData | None
    residual: float


@dataclass(frozen=True)
class RhoIdentityReport:
    """Growth-rate identities satisfied by the twisted optimizer.

    With ``N = [e^{a g} theta(j|i)]``, ``M = [e^{g} theta(j|i)]`` and ``nu*``
    the twisted measure, the report rechecks

        rho([nu*(j|i)^a theta(j|i)^(1-a)]) = rho(N) - a rho(M)
        rho([e^{(a-1) g} nu*(j|i)])        = rho(N) - rho(M)

    with each growth rate taken from its own tilted matrix.  The twist and
    the tilts are those the solvers built for the same ``g`` and ``theta``
    objects, read from their memos where present; a memo hit gives the bits
    a recomputation would.
    """

    rho_n: float
    rho_m: float
    mixture_growth: float
    mixture_drift: float
    recentred_growth: float
    recentred_drift: float
    passed: bool


def _objective(a: float, mu: PairMeasure, nu: PairMeasure, theta: PairMeasure) -> ExtReal:
    return rel_entropy_rate(mu, theta).scale(1.0 / a) - rel_entropy_rate(mu, nu).scale(1.0 / (a - 1.0))


def markov_objective(alpha: Alpha, mu: PairMeasure, nu: PairMeasure, theta: PairMeasure) -> ExtReal:
    """The candidate functional (1/a) rate(mu||theta) - (1/(a-1)) rate(mu||nu).

    Finiteness of both rates is classified before they are combined, and the
    undefined ``inf - inf`` raises.
    """
    _check_dims(mu, nu, theta)
    return _objective(alpha.value, mu, nu, theta)


def _locate_and_twist(
    log_locate: np.ndarray, log_twist: np.ndarray, divisor: float = 1.0
) -> tuple[ExtReal, PairMeasure, tuple[int, ...], PerronData] | None:
    """``(root of N / divisor, twist of M, class, Perron data of M)`` by the module docstring's
    route, for ``N = exp(log_locate)`` and ``M = exp(log_twist)``; None if N is acyclic."""
    located = _locate_dominant(log_locate)
    if located is None:
        return None
    class_index, cls, root = located
    entries, data = _twist(log_twist, cls, class_index)
    return ExtReal.finite(root / divisor), PairMeasure(entries), cls, data


def _solve(a: float, nu: PairMeasure, theta: PairMeasure) -> MarkovVarSolution:
    if a < 0:
        # Order a < 0 is order 1 - a with the measures swapped; the candidate
        # functionals of the two problems agree term by term, so the solution
        # (value, optimizer, residual) transfers unchanged.
        return _solve(1.0 - a, theta, nu)
    if a > 1 and not abs_cont_pair(nu, theta):
        # Unbounded regime: nu itself is feasible and already gives +inf.
        residual = _attainment_residual(POS_INF, _objective(a, nu, nu, theta))
        return MarkovVarSolution(POS_INF, nu, None, None, residual)
    log_m = _tilted_log_kernel(a, nu, theta)
    twisted = _locate_and_twist(log_m, log_m, a * (a - 1.0))
    if twisted is None:
        # 0 < a < 1 with no common cycle: the feasible set of doubly
        # dominated stationary measures is empty, the infimum is +inf.
        return MarkovVarSolution(POS_INF, None, None, None, 0.0)
    value, mu_star, cls, data = twisted
    residual = _attainment_residual(value, _objective(a, mu_star, nu, theta))
    return MarkovVarSolution(value, mu_star, cls, data, residual)


def solve_markov_variational(alpha: Alpha, nu: PairMeasure, theta: PairMeasure) -> MarkovVarSolution:
    """Solve the per-step three-regime variational problem in closed form.

    The value always equals the divergence rate of order ``alpha``; when it
    is finite the optimizer is the eigenvector twist of the tilted kernel
    matrix on its maximizing class and the attainment residual is reported.
    """
    _check_dims(nu, theta)
    return _solve(alpha.value, nu, theta)


def certify_markov_inequality(
    alpha: Alpha,
    mu: PairMeasure,
    nu: PairMeasure,
    theta: PairMeasure,
    tol: float = TOL.attainment_markov,
) -> CertResult:
    """Check that a feasible stationary candidate never beats the rate.

    Sup regimes report ``rate - J(mu)``, the inf regime ``J(mu) - rate``;
    infeasible candidates (wrong support) are rejected, and an infinite rate
    against a finite candidate certifies trivially.
    """
    _check_dims(mu, nu, theta)
    regime = alpha.regime
    if np.any(mu.edge_support & ~_feasible_support(regime, nu.edge_support, theta.edge_support)):
        raise InfeasiblePointError(f"candidate violates the support constraint of regime {regime}")
    value = _rate(alpha.value, nu, theta)
    candidate = _objective(alpha.value, mu, nu, theta)
    if regime == "alpha_in_01":
        slack = _signed_gap(candidate, value)
    else:
        slack = _signed_gap(value, candidate)
    return CertResult(passed=slack >= -tol, slack=slack)


@memoised
def _edge_tilt(g: EdgeFn, pair: PairMeasure, factor: float) -> np.ndarray:
    """Elementwise log of [e^{factor * g(i,j)} pair(j|i)], -inf off the edge support.

    A tilt that overflows on a supported edge would silently add or delete
    that edge, so it is rejected instead.  Memoised on the factor and the
    identities of ``g`` and ``pair``, read-only: one order's certificates
    tilt the same pair by the same factor several times.
    """
    rows = kernel(pair).rows
    out = np.full(rows.shape, -math.inf)
    on = rows > 0
    tilted = factor * g.values[on] + np.log(rows[on])
    if not np.isfinite(tilted).all():
        raise InputValidationError(f"the tilt {factor!r} * g leaves the float range on a supported edge")
    out[on] = tilted
    out.flags.writeable = False
    return out


def varadhan_growth(g: EdgeFn, mu: PairMeasure) -> ExtReal:
    """Growth rate of the tilted kernel matrix [e^{g(i,j)} mu(j|i)].

    Always finite: the support of a stationary pair measure decomposes into
    cyclic classes, so the tilted matrix is never nilpotent.
    """
    _check_dims(g, mu)
    return _growth(_edge_tilt(g, mu, 1.0))


def varadhan_solve(g: EdgeFn, mu: PairMeasure) -> MarkovVarSolution:
    """The per-step exponential-tilt identity with its attaining twist.

    The growth rate of ``[e^{g} mu(j|i)]`` equals the supremum over
    stationary ``theta << mu`` of ``sum g dtheta - rate(theta || mu)``,
    attained by the eigenvector twist of the tilted matrix on its maximizing
    class.  The reported residual evaluates that attainment independently.
    """
    _check_dims(g, mu)
    log_m = _edge_tilt(g, mu, 1.0)
    twisted = _locate_and_twist(log_m, log_m)
    assert twisted is not None  # stationary supports always carry a cycle
    value, theta_star, cls, data = twisted
    attained_mean = float(np.sum(theta_star.entries * g.values))
    rate = rel_entropy_rate(theta_star, mu)
    attained = ExtReal.finite(attained_mean) - rate
    residual = _attainment_residual(value, attained)
    return MarkovVarSolution(value, theta_star, cls, data, residual)


def markov_acd_sup(alpha: Alpha, g: EdgeFn, theta: PairMeasure) -> MarkovVarSolution:
    """Maximize (1/(a-1)) rho([e^{(a-1)g} nu(j|i)]) - rate_a(nu || theta) over nu.

    The maximum is ``(1/a) rho(N)`` with ``N = [e^{a g} theta(j|i)]``.  The
    attaining measure twists ``M = [e^{g} theta(j|i)]`` with its own Perron
    vectors on the class where ``N`` grows fastest.
    """
    _check_dims(g, theta)
    return _acd_sup(alpha.value, g, theta)


@memoised
def _acd_sup(a: float, g: EdgeFn, theta: PairMeasure) -> MarkovVarSolution:
    """:func:`markov_acd_sup` at order ``a``, memoised on ``a`` and the identities of ``g`` and ``theta``.

    :func:`rho_identities_check` reads the same solution, optimizer and all.
    """
    twisted = _locate_and_twist(_edge_tilt(g, theta, a), _edge_tilt(g, theta, 1.0), a)
    assert twisted is not None
    value, nu_star, cls, data = twisted
    recentred = _growth(_edge_tilt(g, nu_star, a - 1.0))
    attained = recentred.scale(1.0 / (a - 1.0)) - _rate(a, nu_star, theta)
    residual = _attainment_residual(value, attained)
    return MarkovVarSolution(value, nu_star, cls, data, residual)


def markov_acd_inf(alpha: Alpha, g: EdgeFn, nu: PairMeasure) -> MarkovVarSolution:
    """Minimize (1/a) rho([e^{a g} theta(j|i)]) + rate_a(nu || theta) over theta.

    The minimum is ``(1/(a-1)) rho([e^{(a-1) g} nu(j|i)])``, i.e. the sup
    problem at order ``1 - a`` with tilt ``-g``; the attaining measure is the
    twist of ``[e^{-g} nu(j|i)]`` on the class maximizing that same matrix.
    """
    _check_dims(g, nu)
    a = alpha.value
    twisted = _locate_and_twist(_edge_tilt(g, nu, a - 1.0), _edge_tilt(g, nu, -1.0), a - 1.0)
    assert twisted is not None
    value, theta_star, cls, data = twisted
    ambient = _growth(_edge_tilt(g, theta_star, a))
    attained = ambient.scale(1.0 / a) + _rate(a, nu, theta_star)
    residual = _attainment_residual(value, attained)
    return MarkovVarSolution(value, theta_star, cls, data, residual)


def rho_identities_check(
    alpha: Alpha, g: EdgeFn, theta: PairMeasure, tol: float = TOL.attainment_markov
) -> RhoIdentityReport:
    """Recheck the two growth-rate identities tying the twist to its ambients.

    The twist is :func:`markov_acd_sup`'s, reused when that already ran on
    the same ``g`` and ``theta`` objects at the same order (see
    :class:`RhoIdentityReport`).
    """
    a = alpha.value
    solution = markov_acd_sup(alpha, g, theta)
    nu_star = solution.optimizer
    assert nu_star is not None
    rho_n = _growth(_edge_tilt(g, theta, a)).raw
    rho_m = _growth(_edge_tilt(g, theta, 1.0)).raw
    mixture_growth = _growth(_tilted_log_kernel(a, nu_star, theta)).raw
    recentred_growth = _growth(_edge_tilt(g, nu_star, a - 1.0)).raw
    mixture_drift = abs(mixture_growth - (rho_n - a * rho_m))
    recentred_drift = abs(recentred_growth - (rho_n - rho_m))
    return RhoIdentityReport(
        rho_n=rho_n,
        rho_m=rho_m,
        mixture_growth=mixture_growth,
        mixture_drift=mixture_drift,
        recentred_growth=recentred_growth,
        recentred_drift=recentred_drift,
        passed=mixture_drift <= tol and recentred_drift <= tol,
    )


def certify_markov_acd(
    alpha: Alpha,
    g: EdgeFn,
    nu: PairMeasure,
    theta: PairMeasure,
    tol: float = TOL.attainment_markov,
) -> CertResult:
    """One-sidedness of the per-step order-a tilt inequality for any pair.

    slack = (1/a) rho([e^{a g} theta(j|i)])
            - (1/(a-1)) rho([e^{(a-1) g} nu(j|i)]) + rate_a(nu || theta) >= 0,

    with an infinite rate certifying trivially.
    """
    _check_dims(g, nu, theta)
    a = alpha.value
    lhs = _growth(_edge_tilt(g, theta, a)).raw / a
    rhs = _growth(_edge_tilt(g, nu, a - 1.0)).raw / (a - 1.0)
    rate = _rate(a, nu, theta)
    if not rate.is_finite:
        return CertResult(passed=True, slack=math.inf)
    slack = lhs - rhs + rate.raw
    return CertResult(passed=slack >= -tol, slack=slack)
