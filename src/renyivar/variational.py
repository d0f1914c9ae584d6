"""Variational characterizations of the Renyi divergence on one letter.

The divergence of order ``a`` admits an entropic variational form built from
the two relative entropies of a candidate measure ``mu``::

    J_a(mu) = (1/a) D(mu || theta) - (1/(a-1)) D(mu || nu)

* ``a > 1``:    R_a(nu || theta) = sup over mu << nu of J_a(mu)
* ``0 < a < 1``: R_a(nu || theta) = inf over mu << nu, mu << theta of J_a(mu)
* ``a < 0``:    R_a(nu || theta) = sup over mu << theta of J_a(mu)

In every regime with a finite value the extremum is attained by the
*geometric mixture* ``mu* ∝ nu^a theta^(1-a)`` on the common support, and the
solvers here return that optimizer together with an attainment residual
``|value - J_a(mu*)|``.  Infinite values come with an explicit witness:
a point mass on a smallest-index state violating the required domination.

The same module houses the scalar exponential-tilt identities:

* ``log sum e^g dmu = sup_theta (sum g dtheta - D(theta || mu))``, attained
  by the tilt ``theta* ∝ e^g mu`` (:func:`dv_solve`), and
* the order-``a`` tilt pair linking ``(1/a) log sum e^{a g} dtheta`` and
  ``(1/(a-1)) log sum e^{(a-1) g} dnu`` through ``R_a`` (:func:`acd_sup`,
  :func:`acd_inf`, :func:`acd_certify`); the inf-form is the sup-form at
  order ``1 - a`` with tilt ``-g``: both are built by one tilt helper, so
  they agree bit for bit in value and optimizer, though not in the residual.

All candidate evaluations classify the finiteness of both entropies before
combining them -- the undefined combination ``inf - inf`` raises, and no
floating infinity ever propagates through arithmetic silently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .distributions import Alpha, Dist, _abs_cont, _check_dims, _feasible_support, _rel_entropy, _renyi
from .errors import InfeasiblePointError, InputValidationError
from .extreal import POS_INF, ExtReal
from .numerics import checked_array, logsumexp

__all__ = [
    "BoundedFn",
    "VarSolution",
    "CertResult",
    "objective",
    "solve_variational",
    "certify_inequality",
    "truncated_optimizer",
    "truncation_caps",
    "log_exp_integral",
    "dv_solve",
    "acd_sup",
    "acd_inf",
    "acd_certify",
]


@dataclass(frozen=True, eq=False)
class BoundedFn:
    """A real-valued function on the alphabet, given by its (finite) values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", checked_array(self.values, "function values"))

    @property
    def d(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class VarSolution:
    """Outcome of a scalar variational problem.

    ``optimizer`` is ``None`` when the value is ``+inf`` without an attaining
    measure (empty feasible set); ``residual`` is the verified attainment gap
    ``|value - objective(optimizer)|``, zero by convention when both sides
    are the same infinity.  ``regime`` records which of the three order
    regimes produced the solution (``None`` for order-free problems such as
    the plain exponential-tilt identity).
    """

    value: ExtReal
    optimizer: Dist | None
    regime: str | None
    residual: float


@dataclass(frozen=True)
class CertResult:
    """A one-sidedness check: signed slack, and whether it clears -tolerance.

    ``slack`` is how far the claimed extremum dominates the candidate value
    (``+inf`` when the extremum is infinite and the candidate finite; 0 when
    both sides agree at infinity).  Negative slack beyond tolerance means the
    claimed extremum was beaten -- certification failure.
    """

    passed: bool
    slack: float


def objective(alpha: Alpha, mu: Dist, nu: Dist, theta: Dist) -> ExtReal:
    """The candidate functional J_a(mu) = (1/a) D(mu||theta) - (1/(a-1)) D(mu||nu).

    Extended-real arithmetic is explicit: each entropy is classified as
    finite or +inf before the weighted combination, and the undefined
    ``inf - inf`` raises instead of returning NaN.
    """
    _check_dims(mu, nu, theta)
    return _objective(alpha.value, mu, nu, theta)


def _objective(a: float, mu: Dist, nu: Dist, theta: Dist) -> ExtReal:
    return _rel_entropy(mu, theta).scale(1.0 / a) - _rel_entropy(mu, nu).scale(1.0 / (a - 1.0))


def _geometric_mixture(a: float, nu: Dist, theta: Dist) -> Dist | None:
    """The tilt mu* ∝ nu^a theta^(1-a) on the common support; None if empty."""
    mask = nu.support & theta.support
    if not mask.any():
        return None
    log_w = np.full(nu.d, -math.inf)
    log_w[mask] = a * nu.log_weights[mask] + (1.0 - a) * theta.log_weights[mask]
    log_z = logsumexp(log_w)
    weights = np.zeros(nu.d)
    weights[mask] = np.exp(log_w[mask] - log_z)
    return Dist(weights)


def _point_mass(d: int, x: int) -> Dist:
    weights = np.zeros(d)
    weights[x] = 1.0
    return Dist(weights)


def _attainment_residual(value: ExtReal, attained: ExtReal) -> float:
    if value.is_finite and attained.is_finite:
        return abs(value.raw - attained.raw)
    if value.raw == attained.raw:
        return 0.0
    return math.inf


def solve_variational(alpha: Alpha, nu: Dist, theta: Dist) -> VarSolution:
    """Solve the three-regime variational problem in closed form.

    Returns the extremal value (which always equals the Renyi divergence),
    the attaining measure when one exists, and the attainment residual.  When
    the value is ``+inf`` because a domination constraint fails, the
    optimizer is a point mass on the smallest-index violating state, which
    makes the objective infinite as well.
    """
    _check_dims(nu, theta)
    a = alpha.value
    regime = alpha.regime
    if a > 1 and not _abs_cont(nu, theta):
        witness = int(np.flatnonzero(nu.support & ~theta.support)[0])
        mu = _point_mass(nu.d, witness)
        return VarSolution(POS_INF, mu, regime, _attainment_residual(POS_INF, _objective(a, mu, nu, theta)))
    if a < 0 and not _abs_cont(theta, nu):
        witness = int(np.flatnonzero(theta.support & ~nu.support)[0])
        mu = _point_mass(nu.d, witness)
        return VarSolution(POS_INF, mu, regime, _attainment_residual(POS_INF, _objective(a, mu, nu, theta)))
    mu_star = _geometric_mixture(a, nu, theta)
    value = _renyi(a, nu.weights, theta.weights)
    if mu_star is None:
        # Disjoint supports in the inf regime: the feasible set is empty and
        # the infimum over it is +inf by convention, with nothing attaining it.
        return VarSolution(value, None, regime, 0.0)
    return VarSolution(value, mu_star, regime, _attainment_residual(value, _objective(a, mu_star, nu, theta)))


def _signed_gap(upper: ExtReal, lower: ExtReal) -> float:
    """upper - lower as a float slack, +-inf if one side is; equal infinities count as zero gap."""
    if upper.raw == lower.raw and not upper.is_finite:
        return 0.0
    return upper.raw - lower.raw


def certify_inequality(
    alpha: Alpha, mu: Dist, nu: Dist, theta: Dist, tol: float = TOL.attainment_iid
) -> CertResult:
    """Check that a feasible candidate never beats the closed-form extremum.

    For the sup regimes the slack is ``R_a - J_a(mu)``; for the inf regime it
    is ``J_a(mu) - R_a``.  Candidates violating the regime's support
    constraint are rejected as infeasible rather than certified.
    """
    _check_dims(mu, nu, theta)
    regime = alpha.regime
    if (mu.support & ~_feasible_support(regime, nu.support, theta.support)).any():
        raise InfeasiblePointError(f"candidate violates the support constraint of regime {regime}")
    value = _renyi(alpha.value, nu.weights, theta.weights)
    candidate = _objective(alpha.value, mu, nu, theta)
    if regime == "alpha_in_01":
        slack = _signed_gap(candidate, value)
    else:
        slack = _signed_gap(value, candidate)
    return CertResult(passed=slack >= -tol, slack=slack)


# Density ratios with a larger log overflow to inf.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log_density_ratio(a: float, nu: Dist, theta: Dist, reference: Dist) -> np.ndarray:
    """log of (dnu/deta)^a (dtheta/deta)^(1-a) where defined, -inf elsewhere."""
    mask = nu.support & theta.support
    out = np.full(nu.d, -math.inf)
    log_eta = reference.log_weights[mask]
    out[mask] = (
        a * (nu.log_weights[mask] - log_eta)
        + (1.0 - a) * (theta.log_weights[mask] - log_eta)
    )
    return out


def truncation_caps(
    alpha: Alpha, nu: Dist, theta: Dist, reference: Dist | None = None, doublings: int = 12
) -> list[float]:
    """A doubling grid of ratio caps, starting at the median positive ratio.

    The grid is guaranteed to eventually exceed the largest ratio, at which
    point the truncated optimizer coincides with the full geometric mixture.
    Every cap is a finite float: when the largest ratio or the grid reaching
    it would overflow, ``InputValidationError`` says so.
    """
    _check_dims(nu, theta, nu if reference is None else reference)
    if doublings < 1:
        raise InputValidationError("need at least one cap")
    eta = reference if reference is not None else Dist(0.5 * (nu.weights + theta.weights))
    log_ratio = _log_density_ratio(alpha.value, nu, theta, eta)
    finite = log_ratio[log_ratio > -math.inf]
    if finite.size == 0:
        raise InputValidationError("no state carries a positive density ratio")
    log_largest = np.max(finite)
    if log_largest > _LOG_FLOAT_MAX:
        raise InputValidationError(
            f"the largest density ratio overflows a float: its log {float(log_largest)!r} "
            f"exceeds {_LOG_FLOAT_MAX!r}"
        )
    start = float(np.exp(np.median(finite)))
    largest = float(np.exp(log_largest))
    caps = [start * (2.0**k) for k in range(doublings)]
    while caps[-1] < largest:
        caps.append(caps[-1] * 2.0)
    if caps[-1] == math.inf:
        raise InputValidationError("the doubling grid of caps overflows a float")
    return caps


def truncated_optimizer(
    alpha: Alpha, nu: Dist, theta: Dist, cap: float, reference: Dist | None = None
) -> tuple[Dist, float]:
    """The capped geometric mixture mu_K ∝ ratio * 1(ratio <= K) * reference.

    ``ratio`` is the order-``a`` density ratio w.r.t. the reference measure
    (default: the even mixture of ``nu`` and ``theta``).  Returns the
    truncated measure together with ``log Z_K``; the candidate functional at
    ``mu_K`` equals ``log Z_K / (a (a-1))`` identically, and ``Z_K``
    increases to the full power sum as the cap grows -- the mechanism that
    drives the sup regime when the optimizer cannot be attained directly.
    For ``a > 1`` this requires ``nu << theta`` so the ratio stays finite.
    """
    _check_dims(nu, theta, nu if reference is None else reference)
    a = alpha.value
    if a < 0:
        raise InputValidationError("the truncated family is for positive orders; swap arguments for a < 0")
    if cap <= 0 or not math.isfinite(cap):
        raise InputValidationError("cap must be a positive finite number")
    if a > 1 and not _abs_cont(nu, theta):
        raise InputValidationError("for orders above 1 the truncated family needs nu << theta")
    eta = reference if reference is not None else Dist(0.5 * (nu.weights + theta.weights))
    log_ratio = _log_density_ratio(a, nu, theta, eta)
    keep = log_ratio <= math.log(cap)
    keep &= log_ratio > -math.inf
    if not keep.any():
        raise InputValidationError("cap lies below the smallest positive density ratio")
    log_terms = np.full(nu.d, -math.inf)
    log_terms[keep] = log_ratio[keep] + eta.log_weights[keep]
    log_z = logsumexp(log_terms)
    weights = np.zeros(nu.d)
    weights[keep] = np.exp(log_terms[keep] - log_z)
    return Dist(weights), float(log_z)


def _log_tilt_sum(g: BoundedFn, factor: float, ref: Dist, mask: np.ndarray) -> float:
    """log sum over ``mask`` of e^{factor * g(x)} ref(x)."""
    return logsumexp(factor * g.values[mask] + ref.log_weights[mask])


def _tilt(g: BoundedFn, factor: float, ref: Dist) -> tuple[Dist, float]:
    """The tilt ∝ e^{factor * g} ref on the support of ``ref``, and its log normalizer."""
    mask = ref.support
    log_w = factor * g.values[mask] + ref.log_weights[mask]
    log_z = logsumexp(log_w)
    weights = np.zeros(ref.d)
    weights[mask] = np.exp(log_w - log_z)
    return Dist(weights), log_z


def log_exp_integral(g: BoundedFn, mu: Dist) -> float:
    """log sum_x e^{g(x)} mu(x), evaluated stably in log space."""
    _check_dims(g, mu)
    return _log_tilt_sum(g, 1.0, mu, mu.support)


def dv_solve(g: BoundedFn, mu: Dist) -> VarSolution:
    """The exponential-tilt identity: value, optimizer, and its residual.

    ``log sum e^g dmu`` equals ``sup_theta (sum g dtheta - D(theta || mu))``,
    attained by ``theta* ∝ e^g mu``.  The returned residual is the defect of
    that attainment, evaluated independently.
    """
    _check_dims(g, mu)
    tilt, value = _tilt(g, 1.0, mu)
    attained = float(tilt.weights @ g.values) - _rel_entropy(tilt, mu).raw
    return VarSolution(ExtReal.finite(value), tilt, None, abs(value - attained))


def acd_sup(alpha: Alpha, g: BoundedFn, theta: Dist) -> VarSolution:
    """Maximize (1/(a-1)) log sum e^{(a-1) g} dnu - R_a(nu || theta) over nu.

    The maximum equals ``(1/a) log sum e^{a g} dtheta`` and is attained by the
    plain tilt ``nu* ∝ e^g theta`` (for every admissible order -- the tilt
    shares its support with ``theta``, so no domination subtleties arise).
    """
    _check_dims(g, theta)
    a = alpha.value
    mask = theta.support
    value = _log_tilt_sum(g, a, theta, mask) / a
    nu_star, _ = _tilt(g, 1.0, theta)
    attained = _log_tilt_sum(g, a - 1.0, nu_star, mask) / (a - 1.0) - _renyi(a, nu_star.weights, theta.weights).raw
    return VarSolution(ExtReal.finite(value), nu_star, alpha.regime, abs(value - attained))


def acd_inf(alpha: Alpha, g: BoundedFn, nu: Dist) -> VarSolution:
    """Minimize (1/a) log sum e^{a g} dtheta + R_a(nu || theta) over theta.

    The minimum equals ``(1/(a-1)) log sum e^{(a-1) g} dnu`` and is attained
    by the reverse tilt ``theta* ∝ e^{-g} nu``; this is the sup problem at
    order ``1 - a`` with tilt ``-g``, and the optimizer is that problem's
    tilt, bit for bit.
    """
    _check_dims(g, nu)
    a = alpha.value
    value = _log_tilt_sum(g, a - 1.0, nu, nu.support) / (a - 1.0)
    theta_star, _ = _tilt(g, -1.0, nu)
    attained = _log_tilt_sum(g, a, theta_star, nu.support) / a + _renyi(a, nu.weights, theta_star.weights).raw
    return VarSolution(ExtReal.finite(value), theta_star, alpha.regime, abs(value - attained))


def acd_certify(
    alpha: Alpha, g: BoundedFn, nu: Dist, theta: Dist, tol: float = TOL.attainment_iid
) -> CertResult:
    """One-sidedness of the order-a tilt inequality for an arbitrary pair.

    slack = (1/a) log sum e^{a g} dtheta - (1/(a-1)) log sum e^{(a-1) g} dnu
            + R_a(nu || theta),

    which is nonnegative for every ``nu``; an infinite divergence certifies
    trivially.
    """
    _check_dims(g, nu, theta)
    a = alpha.value
    lhs = _log_tilt_sum(g, a, theta, theta.support) / a
    rhs = _log_tilt_sum(g, a - 1.0, nu, nu.support) / (a - 1.0)
    divergence = _renyi(a, nu.weights, theta.weights)
    if not divergence.is_finite:
        return CertResult(passed=True, slack=math.inf)
    slack = lhs - rhs + divergence.raw
    return CertResult(passed=slack >= -tol, slack=slack)
