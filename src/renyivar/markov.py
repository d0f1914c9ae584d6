"""Stationary pair measures, their kernels, and Markov divergence rates.

A stationary Markov chain on ``{0, ..., d-1}`` observed through consecutive
pairs is described by its *pair measure*: the joint law ``nu(i, j)`` of two
successive states.  Stationarity makes the two marginals agree, and that
balance is the defining constraint here.  Everything per-step about the chain
(its transition kernel, its entropy rates) is a function of the pair measure.

Rates are per-step limits along the induced path distributions ``nu_n`` on
``S^n``:

* relative entropy rate::

      lim (1/n) D(nu_n || theta_n)
          = sum_{nu(i,j) > 0} nu(i, j) log(nu(j|i) / theta(j|i)),

  with ``+inf`` exactly when the pair measure ``nu`` is not absolutely
  continuous w.r.t. ``theta`` (the finite-n relative entropies are then
  already infinite).

* Renyi divergence rate of order ``a``::

      lim (1/n) R_a(nu_n || theta_n)
          = (1 / (a (a-1))) * rho([ nu(j|i)^a theta(j|i)^(1-a) ]),

  where ``rho`` is the spectral growth rate of the elementwise-tilted kernel
  matrix (zero whenever either factor vanishes).  For ``a > 1`` the rate is
  ``+inf`` when ``nu`` is not dominated by ``theta``; negative orders reduce
  to the order ``1 - a`` rate with the arguments swapped.

Kernels use the zero-row convention: rows of states outside the support of
the pair measure are identically zero, and no rate formula ever reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .distributions import Alpha, Dist, _check_dims
from .errors import (
    BalanceError,
    InvalidDistributionError,
    PathSpaceError,
)
from .extreal import POS_INF, ExtReal
from .numerics import checked_array, memoised
from .spectral import _growth

__all__ = [
    "PairMeasure",
    "Kernel",
    "support",
    "kernel",
    "abs_cont_pair",
    "rel_entropy_rate",
    "path_distribution",
    "check_abs_cont_lift",
    "renyi_rate",
]

_PATH_SPACE_CAP = 10**7


@dataclass(frozen=True, eq=False)
class PairMeasure:
    """The two-step joint law of a stationary chain on {0, ..., d-1}.

    Construction normalizes the total mass to one (division by the sum, so
    JSON round-trips cannot accumulate drift) and then *validates* the
    stationarity balance: if any row marginal differs from the matching
    column marginal by more than ``1e-9`` the input is rejected rather than
    silently projected onto the balanced set.  Entries must be finite and
    nonnegative; exact zeros encode the support.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = checked_array(
            self.entries, "pair-measure entries", InvalidDistributionError, square=True, nonneg=True, normalise=True
        )
        imbalance = float(np.max(np.abs(m.sum(axis=1) - m.sum(axis=0))))
        if imbalance > TOL.balance:
            raise BalanceError(
                f"row and column marginals disagree by {imbalance:.3e} (limit {TOL.balance:.0e}); "
                "not a stationary pair measure"
            )
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return int(self.entries.shape[0])

    @property
    def state_marginal(self) -> np.ndarray:
        """The common one-step marginal (row sums)."""
        return self.entries.sum(axis=1)

    @property
    def edge_support(self) -> np.ndarray:
        """Boolean adjacency of edges carrying positive mass."""
        return self.entries > 0

    @cached_property
    def _kernel(self) -> "Kernel":
        marginal = self.state_marginal[:, None]
        rows = np.divide(self.entries, marginal, out=np.zeros_like(self.entries), where=marginal > 0)
        rows.flags.writeable = False
        return Kernel(rows=rows)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Transition probabilities of a pair measure, rows on the support only.

    ``rows[i]`` is the conditional law of the next state given state ``i``
    when ``i`` is in the support; rows of unsupported states are identically
    zero and must never be consulted.
    """

    rows: np.ndarray

    @cached_property
    def support_states(self) -> tuple[int, ...]:
        """The states with a nonzero row: those of positive marginal, as :func:`support` lists them."""
        return tuple(np.flatnonzero(self.rows.any(axis=1)).tolist())


def support(nu: PairMeasure) -> tuple[int, ...]:
    """States visited by the stationary chain (positive marginal mass)."""
    return tuple(int(i) for i in np.flatnonzero(nu.state_marginal > 0))


def kernel(nu: PairMeasure) -> Kernel:
    """Conditional next-state law nu(j | i) = nu(i, j) / nu(i, +) on the support.

    Computed once per pair measure and kept on it: both are immutable.
    """
    return nu._kernel


def abs_cont_pair(nu: PairMeasure, theta: PairMeasure) -> bool:
    """Edge-support containment: nu(i, j) > 0 implies theta(i, j) > 0."""
    _check_dims(nu, theta)
    return not nu.entries[theta.entries == 0].any()


def rel_entropy_rate(nu: PairMeasure, theta: PairMeasure) -> ExtReal:
    """Per-step relative entropy of nu w.r.t. theta; +inf unless nu << theta."""
    if not abs_cont_pair(nu, theta):
        return POS_INF
    mask = nu.edge_support
    k_nu = kernel(nu).rows[mask]
    k_theta = kernel(theta).rows[mask]
    return ExtReal.finite(float(np.sum(nu.entries[mask] * (np.log(k_nu) - np.log(k_theta)))))


def path_distribution(nu: PairMeasure, n: int) -> Dist:
    """The law of (X_1, ..., X_n) as an explicit distribution on S^n.

    States are flattened in row-major order, so the weight of the path
    ``(i_1, ..., i_n)`` sits at index ``sum_k i_k d^(n-k)``.  Requests whose
    explicit alphabet would exceed 10^7 points are refused.
    """
    if n < 2:
        raise PathSpaceError("path distributions start at n = 2 (the pair measure itself)")
    d = nu.d
    if d**n > _PATH_SPACE_CAP:
        raise PathSpaceError(f"path space of size {d}^{n} exceeds the cap {_PATH_SPACE_CAP:.0e}")
    rows = kernel(nu).rows
    probs = nu.entries.reshape(-1)
    for _ in range(n - 2):
        probs = (probs.reshape(-1, d)[:, :, None] * rows[None, :, :]).reshape(-1)
    return Dist(probs)


def check_abs_cont_lift(nu: PairMeasure, theta: PairMeasure, n: int) -> bool:
    """Verify that pair-level domination matches path-level domination at length n."""
    _check_dims(nu, theta)
    nu_n = path_distribution(nu, n)
    theta_n = path_distribution(theta, n)
    path_level = bool(np.all(nu_n.weights[theta_n.weights == 0] == 0))
    return abs_cont_pair(nu, theta) == path_level


@memoised
def _tilted_log_kernel(a: float, nu: PairMeasure, theta: PairMeasure) -> np.ndarray:
    """Elementwise log of [ nu(j|i)^a * theta(j|i)^(1-a) ], -inf off the common support.

    Memoised on the order and the two measures' identities, read-only: the
    rate, the solver and the certificates ask for it on the same pair.
    """
    k_nu = kernel(nu).rows
    k_theta = kernel(theta).rows
    both = (k_nu > 0) & (k_theta > 0)
    out = np.full(k_nu.shape, -math.inf)
    out[both] = a * np.log(k_nu[both]) + (1.0 - a) * np.log(k_theta[both])
    out.flags.writeable = False
    return out


def _rate(a: float, nu: PairMeasure, theta: PairMeasure) -> ExtReal:
    if a < 0:
        return _rate(1.0 - a, theta, nu)
    if a > 1 and not abs_cont_pair(nu, theta):
        return POS_INF
    growth = _growth(_tilted_log_kernel(a, nu, theta))
    return growth.scale(1.0 / (a * (a - 1.0)))


def renyi_rate(alpha: Alpha, nu: PairMeasure, theta: PairMeasure) -> ExtReal:
    """Per-step Renyi divergence rate of order alpha between two stationary chains."""
    _check_dims(nu, theta)
    return _rate(alpha.value, nu, theta)
