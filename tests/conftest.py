"""Shared generators for randomized sweeps.

Pair measures are built stationary by construction: draw a random kernel on
the allowed edge set, find its stationary law by power iteration, and form
mu(i, j) = pi(i) * k(i, j).  That guarantees exact marginal balance up to the
fixed point's rounding, far inside the PairMeasure tolerance.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from renyivar import Dist, NonnegMatrix, PairMeasure, classes

ALPHA_GRID = (-3.0, -1.0, -0.25, 0.25, 0.5, 0.9, 1.1, 2.0, 5.0)

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def library_memos() -> list:
    """Every memo of the library: each function of a renyivar module with a ``cache_clear``."""
    memos = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("renyivar."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    memos[id(obj)] = obj
    return list(memos.values())


def clear_memos() -> None:
    for memo in library_memos():
        memo.cache_clear()


def arrays_in(result) -> list:
    """Every numpy array in a memo result: tuples and dataclass fields, recursively."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return [a for item in result for a in arrays_in(item)]
    if hasattr(result, "__dataclass_fields__"):
        return [a for field in result.__dataclass_fields__ for a in arrays_in(getattr(result, field))]
    return []


def random_dist(rng: np.random.Generator, d: int, shape: float = 1.0) -> Dist:
    return Dist(rng.gamma(shape, 1.0, size=d) + 1e-12)


def random_dist_on(rng: np.random.Generator, mask: np.ndarray) -> Dist:
    weights = np.zeros(mask.size)
    weights[mask] = rng.gamma(1.0, 1.0, size=int(mask.sum())) + 1e-12
    return Dist(weights)


def stationary_law(kernel_rows: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix via a linear solve."""
    d = kernel_rows.shape[0]
    system = np.eye(d) - kernel_rows.T
    system[0, :] = 1.0  # replace one redundant equation by the normalization
    rhs = np.zeros(d)
    rhs[0] = 1.0
    pi = np.linalg.solve(system, rhs)
    for _ in range(3):  # iterative refinement against the unmodified system
        residual = rhs - system @ pi
        if np.abs(residual).max() <= 1e-16:
            break
        pi = pi + np.linalg.solve(system, residual)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def random_pair(rng: np.random.Generator, d: int) -> PairMeasure:
    """Full-support stationary pair measure."""
    k = rng.gamma(1.0, 1.0, size=(d, d)) + 1e-6
    k /= k.sum(axis=1, keepdims=True)
    pi = stationary_law(k)
    return PairMeasure(pi[:, None] * k)


def random_pair_on(rng: np.random.Generator, edge_mask: np.ndarray) -> PairMeasure | None:
    """Random stationary pair measure supported inside the given edge set.

    Picks one cyclic class of the restricted digraph (uniformly at random),
    draws a kernel on its internal edges, and converts it to its stationary
    edge measure.  Returns None when the edge set carries no cycle.
    """
    d = edge_mask.shape[0]
    decomposition = classes(NonnegMatrix(edge_mask.astype(float)))
    cyclic = decomposition.cyclic_classes()
    if not cyclic:
        return None
    cls = cyclic[int(rng.integers(len(cyclic)))]
    idx = np.asarray(cls, dtype=int)
    block_mask = edge_mask[np.ix_(idx, idx)]
    k_block = np.where(block_mask, rng.gamma(1.0, 1.0, size=block_mask.shape) + 1e-9, 0.0)
    k_block /= k_block.sum(axis=1, keepdims=True)
    pi = stationary_law(k_block)
    entries = np.zeros((d, d))
    entries[np.ix_(idx, idx)] = pi[:, None] * k_block
    return PairMeasure(entries)


def feasible_iid_mask(alpha: float, nu: Dist, theta: Dist) -> np.ndarray:
    if alpha > 1.0:
        return nu.support.copy()
    if alpha > 0.0:
        return nu.support & theta.support
    return theta.support.copy()


def feasible_edge_mask(alpha: float, nu: PairMeasure, theta: PairMeasure) -> np.ndarray:
    if alpha > 1.0:
        return nu.edge_support.copy()
    if alpha > 0.0:
        return nu.edge_support & theta.edge_support
    return theta.edge_support.copy()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
