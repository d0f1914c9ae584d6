"""Central numeric tolerances.

All default tolerances used across the library live in one frozen record so
that tests, the command-line driver, and library internals agree on what
"equal" means.  Individual operations accept an explicit override where a
caller may legitimately want a different threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Default numeric thresholds.

    Attributes:
        balance: largest row/column marginal disagreement accepted when a
            square array is interpreted as a stationary pair measure.
        attainment_iid: attainment residual certified by the single-letter
            variational solvers.
        attainment_markov: attainment residual certified by the Markov
            variational solvers (eigenvector accuracy enters here).
        perron_resid: relative eigen-residual guaranteed on returned
            Perron data, measured in the scaled class block.
        alpha_excluded: half-width of the excluded neighborhoods around the
            divergence orders 0 and 1.
        alpha_max: largest |order| accepted.
    """

    balance: float = 1e-9
    attainment_iid: float = 1e-9
    attainment_markov: float = 1e-8
    perron_resid: float = 1e-10
    alpha_excluded: float = 1e-12
    alpha_max: float = 1e6


TOL = Tolerances()
