"""Probability distributions on finite alphabets and their divergences.

Conventions, fixed once for the whole library (natural logarithm throughout):

* relative entropy::

      D(nu || theta) = sum_{x : nu(x) > 0} nu(x) log(nu(x) / theta(x)),

  which is ``+inf`` unless ``nu`` is absolutely continuous with respect to
  ``theta``; the term convention is ``0 * log 0 = 0``.

* Renyi divergence of order ``a`` (``a`` outside ``{0, 1}``)::

      R_a(nu || theta) = (1 / (a (a - 1))) * log sum_x nu(x)^a theta(x)^(1-a),

  where the sum runs over ``nu(x) * theta(x) > 0`` only; no smoothing is ever
  applied.  For ``a > 1`` the value is ``+inf`` whenever ``nu`` is not
  absolutely continuous with respect to ``theta``.  For negative orders the
  skew identity ``R_a(nu || theta) = R_{1-a}(theta || nu)`` serves as the
  definition.  An empty sum (distributions with disjoint supports) gives
  ``+inf`` for every admissible order.  The chosen normalization keeps the
  divergence nonnegative for all admissible orders, including negative ones.

All order-``a`` power sums are evaluated in log space (see
:mod:`renyivar.numerics`), so extreme orders and tiny weights do not overflow.

Each :class:`Dist` builds its support mask once and its log-weights at first
use; the Renyi divergence is memoised on the order and the exact bytes of the
two weight vectors (:func:`renyivar.numerics.memoised`), because the
certificates evaluate it on the same pair many times over.  A cached logarithm
is the very ``np.log`` of the same float, and a memo hit returns what a
recomputation would, so neither changes a bit of any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import (
    AbsoluteContinuityError,
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidDistributionError,
)
from .extreal import POS_INF, ExtReal
from .numerics import checked_array, logsumexp, memoised

__all__ = [
    "Dist",
    "Alpha",
    "abs_cont",
    "rel_entropy",
    "renyi_div",
    "renyi_via_reference",
]


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution on the alphabet {0, ..., d-1}.

    Construction accepts any nonnegative, not identically zero weight vector
    and normalizes it to total mass one (so distributions survive a JSON
    round-trip without accumulating drift).  Entries exactly zero stay
    exactly zero: support questions are answered by equality with 0, never by
    thresholding.  The stored array is read-only, and so are the derived
    ``support`` mask (built at construction) and ``log_weights`` (built at
    first use).  Neither is a dataclass field.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = checked_array(self.weights, "weights", InvalidDistributionError, nonneg=True, normalise=True)
        support = w > 0
        support.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "support", support)

    @property
    def d(self) -> int:
        """Alphabet size."""
        return int(self.weights.shape[0])

    @cached_property
    def log_weights(self) -> np.ndarray:
        """Natural log of the weights: ``np.log`` on the support, ``-inf`` off it.

        Built at first use and kept (the random searches build many
        distributions that never need it).
        """
        out = np.full(self.weights.shape, -math.inf)
        np.log(self.weights, out=out, where=self.support)
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dist({np.array2string(self.weights, max_line_width=70)})"


@dataclass(frozen=True)
class Alpha:
    """A Renyi order: any real outside small excluded neighborhoods of 0 and 1.

    Orders within ``1e-12`` of the degenerate points 0 and 1 are rejected --
    the divergence formulas divide by ``a`` and ``a - 1``, and silently
    computing near-0/0 expressions would return garbage.  Magnitudes beyond
    ``1e6`` are rejected for the same conditioning reason.
    """

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        v = self.value
        if not math.isfinite(v):
            raise InvalidAlphaError("order must be finite")
        if abs(v) < TOL.alpha_excluded or abs(v - 1.0) < TOL.alpha_excluded:
            raise InvalidAlphaError(f"order {v!r} is too close to the excluded points 0 and 1")
        if abs(v) > TOL.alpha_max:
            raise InvalidAlphaError(f"order {v!r} exceeds the supported magnitude {TOL.alpha_max:g}")

    @property
    def regime(self) -> str:
        """Which of the three variational regimes this order falls in."""
        if self.value > 1.0:
            return "alpha_gt_1"
        if self.value > 0.0:
            return "alpha_in_01"
        return "alpha_lt_0"


def _check_dims(*operands) -> None:
    """Raise unless all operands (anything with a size ``.d``) share one size."""
    d = operands[0].d
    for operand in operands:
        if operand.d != d:
            sizes = {operand.d for operand in operands}
            raise DimensionMismatchError(f"operands live on spaces of different sizes: {sorted(sizes)}")


def _feasible_support(regime: str, nu_support: np.ndarray, theta_support: np.ndarray) -> np.ndarray:
    """Boolean mask of where a candidate may carry mass in the given order regime.

    The support constraint of the variational problems: inside ``nu`` for
    ``a > 1``, inside both for ``0 < a < 1``, inside ``theta`` for ``a < 0``.
    """
    if regime == "alpha_gt_1":
        return nu_support
    if regime == "alpha_in_01":
        return nu_support & theta_support
    return theta_support


def _abs_cont(nu: Dist, theta: Dist) -> bool:
    return bool((nu.support <= theta.support).all())


def abs_cont(nu: Dist, theta: Dist) -> bool:
    """True when nu is absolutely continuous w.r.t. theta (support containment)."""
    _check_dims(nu, theta)
    return _abs_cont(nu, theta)


def _rel_entropy(nu: Dist, theta: Dist) -> ExtReal:
    if not _abs_cont(nu, theta):
        return POS_INF
    mask = nu.support
    n = nu.weights[mask]
    return ExtReal.finite(float((n * (nu.log_weights[mask] - theta.log_weights[mask])).sum()))


def rel_entropy(nu: Dist, theta: Dist) -> ExtReal:
    """Relative entropy D(nu || theta); +inf unless nu << theta."""
    _check_dims(nu, theta)
    return _rel_entropy(nu, theta)


@memoised
def _renyi(a: float, nu: np.ndarray, theta: np.ndarray) -> ExtReal:
    """R_a between the normalized weight vectors ``nu`` and ``theta``."""
    if a < 0:
        a, nu, theta = 1.0 - a, theta, nu
    nu_support, theta_support = nu > 0, theta > 0
    if a > 1 and not (nu_support <= theta_support).all():
        return POS_INF
    mask = nu_support & theta_support
    if not mask.any():
        return POS_INF
    log_terms = a * np.log(nu[mask]) + (1.0 - a) * np.log(theta[mask])
    return ExtReal.finite(logsumexp(log_terms) / (a * (a - 1.0)))


def renyi_div(alpha: Alpha, nu: Dist, theta: Dist) -> ExtReal:
    """Renyi divergence R_alpha(nu || theta) under the library conventions."""
    _check_dims(nu, theta)
    return _renyi(alpha.value, nu.weights, theta.weights)


def renyi_via_reference(alpha: Alpha, nu: Dist, theta: Dist, eta: Dist) -> ExtReal:
    """Renyi divergence computed through densities w.r.t. a common reference.

    Evaluates (1/(a(a-1))) log sum (dnu/deta)^a (dtheta/deta)^(1-a) deta.  The
    result does not depend on the choice of ``eta`` as long as both measures
    are dominated by it; the direct formula is recovered with the counting
    reference.  Requires ``nu << eta`` and ``theta << eta``.
    """
    _check_dims(nu, theta, eta)
    if not _abs_cont(nu, eta):
        raise AbsoluteContinuityError("nu is not absolutely continuous w.r.t. the reference")
    if not _abs_cont(theta, eta):
        raise AbsoluteContinuityError("theta is not absolutely continuous w.r.t. the reference")
    return _renyi_via_reference(alpha.value, nu, theta, eta)


def _renyi_via_reference(a: float, nu: Dist, theta: Dist, eta: Dist) -> ExtReal:
    if a < 0:
        return _renyi_via_reference(1.0 - a, theta, nu, eta)
    if a > 1 and not _abs_cont(nu, theta):
        return POS_INF
    mask = nu.support & theta.support
    if not mask.any():
        return POS_INF
    log_eta = eta.log_weights[mask]
    log_nu_density = nu.log_weights[mask] - log_eta
    log_theta_density = theta.log_weights[mask] - log_eta
    log_terms = a * log_nu_density + (1.0 - a) * log_theta_density + log_eta
    return ExtReal.finite(logsumexp(log_terms) / (a * (a - 1.0)))
