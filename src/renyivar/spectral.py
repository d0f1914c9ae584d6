"""Structure and growth of nonnegative matrices.

The support digraph of a nonnegative d x d matrix ``M`` has an edge
``i -> j`` exactly when ``M[i, j] > 0`` (self-loops allowed).  The growth
rate

    rho(M) = lim_n (1/n) log sum_{i,j} (M^n)[i, j]

is ``-inf`` exactly when that digraph has no directed cycle (M is nilpotent),
and otherwise equals the log of the largest Perron root over the cyclic
strongly connected components.  This module computes the class structure (by
boolean reachability: the transitive closure of the support, grouped by
mutual reachability), the Perron data of a class (by shifted power iteration,
certified by an explicit eigen-residual), the growth rate both spectrally and
by brute-force matrix powers, and the maximal stationary edge measure
supported inside the cyclic classes.

The eigenvector twist ``u(i) M(i, j) w(j) / Z`` of a cyclic class, with
``u, w`` its left and right Perron vectors, is a stationary edge measure
on the edges inside the class.  It is built in one place, :func:`_twist`,
which serves the Markov optimizers (through
``markov_variational._locate_and_twist``) and :func:`maximal_abs_cont`.

Matrices produced by exponential tilts are passed around as elementwise logs
(``-inf`` marking structural zeros); the ``*_from_log`` entry points rescale
by a tropical (max-plus) diagonal balancing before exponentiating, so the
linear-algebra kernels only ever see blocks whose largest entry and Perron
root are both of order one, whatever the dynamic range of the input.  The
public entry points (``growth_rate_from_log``, ``dominant_class``,
``perron_from_log``) validate their input with
:func:`renyivar.numerics.checked_array`; the library's own callers, which
build their log-matrices themselves, call the private ``_growth``,
``_locate_dominant`` and ``_perron`` directly.

Class finding on a support pattern, the dominant class of a log-matrix, and
the balancing with the right and the left power iteration of a class block are
memoised on the exact bytes of their input (:func:`renyivar.numerics.memoised`):
the Markov certificates repeat them on the same matrices many times over.
Each step is deterministic and returns read-only results, so a hit gives the
very floats a recomputation would.  Each memo holds at most 64 arrays of at
most 64 rows.  As an exact fast path, a complete support digraph is one cyclic
class at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import TOL
from .errors import (
    ClassStructureError,
    DimensionMismatchError,
    InputValidationError,
    PerronConvergenceError,
)
from .extreal import NEG_INF, ExtReal
from .numerics import checked_array, log_matmul, log_matrix_power, logsumexp, memoised, safe_log

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .markov import PairMeasure

__all__ = [
    "NonnegMatrix",
    "ClassDecomposition",
    "PerronData",
    "classes",
    "has_cycle",
    "perron",
    "perron_from_log",
    "growth_rate",
    "growth_rate_from_log",
    "growth_rate_bruteforce",
    "log_mass_sequence",
    "compatible",
    "maximal_abs_cont",
]

_POWER_ITER_CAP = 10**6
_RAYLEIGH_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class NonnegMatrix:
    """A square matrix with finite nonnegative entries (stored read-only)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", checked_array(self.entries, "entries", square=True, nonneg=True))

    @property
    def d(self) -> int:
        return int(self.entries.shape[0])

    @property
    def support(self) -> np.ndarray:
        """Boolean adjacency of the support digraph."""
        return self.entries > 0


@dataclass(frozen=True, eq=False)
class ClassDecomposition:
    """Strongly connected components ("classes") of a support digraph.

    ``classes`` lists each component as a sorted tuple of states; components
    are ordered by their smallest state, which makes every downstream
    "maximizing class" selection deterministic.  ``class_of[i]`` is the index
    of the component containing state ``i`` (-1 for states outside the
    decomposed subset).  ``cyclic[k]`` says whether component k contains a
    directed cycle, i.e. has more than one state or carries a self-loop.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    cyclic: tuple[bool, ...]

    def cyclic_classes(self) -> list[tuple[int, ...]]:
        return [cls for cls, flag in zip(self.classes, self.cyclic) if flag]


@dataclass(frozen=True, eq=False)
class PerronData:
    """Certified dominant eigendata of one cyclic class.

    ``log_lam`` is the log of the Perron root of the matrix restricted to the
    class (kept in log form so exponentially tilted matrices cannot overflow
    it); ``lam`` exponentiates on demand.  ``left`` and ``right`` are full
    d-vectors, zero off the class, normalized so that ``sum(right) == 1`` and
    ``dot(left, right) == 1``.  The eigen-residuals of both vectors, measured
    on the rescaled class block, are at most ``1e-10`` relative to the root.
    """

    log_lam: float
    left: np.ndarray
    right: np.ndarray
    class_index: int

    @property
    def lam(self) -> float:
        return math.exp(self.log_lam)


def _decompose(support: np.ndarray, nodes: Sequence[int]) -> ClassDecomposition:
    """Classes of a boolean support digraph restricted to ``nodes`` (given in increasing order).

    Reachability within ``nodes`` is the transitive closure of ``I | S``,
    found by squaring until it stops changing; two states share a class
    exactly when each reaches the other.  Classes come in smallest-state order.
    """
    idx = np.fromiter(nodes, dtype=int)
    inside = support[idx[:, None], idx]
    class_of = np.full(support.shape[0], -1, dtype=int)
    if idx.size and inside.all():  # a complete digraph is one cyclic class
        class_of[idx] = 0
        class_of.flags.writeable = False
        return ClassDecomposition((tuple(idx.tolist()),), class_of, (True,))
    reach = inside | np.eye(idx.size, dtype=bool)
    while True:
        steps = reach.astype(float)  # float products use BLAS; path counts up to d are exact
        closed = steps @ steps > 0
        if np.count_nonzero(closed) == np.count_nonzero(reach):  # closed contains reach
            break
        reach = closed
    mutual = reach & reach.T
    # the smallest state sharing each state's class names that class
    first = mutual.argmax(axis=1) if idx.size else idx
    leaders = (first == np.arange(idx.size)).nonzero()[0]
    class_of[idx] = np.searchsorted(leaders, first)
    class_of.flags.writeable = False
    members = mutual[leaders]
    ordered = tuple(tuple(idx[row].tolist()) for row in members)
    cyclic = (members.sum(axis=1) > 1) | inside.diagonal()[leaders]
    return ClassDecomposition(ordered, class_of, tuple(cyclic.tolist()))


def classes(m: NonnegMatrix, states: Sequence[int] | None = None) -> ClassDecomposition:
    """Decompose the support digraph (restricted to ``states``) into classes."""
    if states is None:
        return _classes_of(m.support)
    node_list = sorted(set(int(s) for s in states))
    if node_list and (node_list[0] < 0 or node_list[-1] >= m.d):
        raise InputValidationError("states outside the matrix index range")
    return _decompose(m.support, node_list)


def has_cycle(m: NonnegMatrix) -> bool:
    """True when the support digraph contains a directed cycle."""
    return any(classes(m).cyclic)


def _power_iteration(block: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of an irreducible nonnegative block.

    The block is shifted by ``c I`` with ``c = 1 + max diagonal entry``, which
    makes it primitive, so plain power iteration converges.  The iterate
    sequence is thinned eight-fold by stepping with the precomputed eighth
    power of the shifted block (the same sequence, sampled every eighth
    element), which cuts the step count without changing the limit.
    Convergence is declared when successive Rayleigh quotients along the
    thinned sequence differ by at most 1e-14 relatively; the returned pair
    additionally satisfies an explicit eigen-residual bound on the original
    unshifted block no looser than 1e-10 relative to the root.  Returns
    ``(lam, vector, residual)`` for the *unshifted* block.  A block with an
    infinite or NaN entry (a balanced block whose exponential overflowed)
    can never certify, so it is rejected before the first step.
    """
    if not block.max() < math.inf:  # the max of the nonnegative block is NaN if an entry is
        raise PerronConvergenceError(
            "the balanced class block overflows the float range (inf or NaN entries)"
        )
    n = block.shape[0]
    shift = 1.0 + float(block.diagonal().max())
    shifted = block.copy()  # finite and >= 0, so adding c I changes the diagonal only
    shifted.flat[:: n + 1] += shift
    squared = shifted.dot(shifted)
    fourth = squared.dot(squared)
    stepper = fourth.dot(fourth)
    x = np.full(n, 1.0 / math.sqrt(n))
    previous = math.inf
    best_resid = math.inf
    best: tuple[float, np.ndarray] | None = None
    stable = 0
    window_resid = math.inf
    for _ in range(_POWER_ITER_CAP):
        y = stepper.dot(x)
        quotient = float(x.dot(y))
        if abs(quotient - previous) <= _RAYLEIGH_RTOL * abs(quotient):
            stable += 1
            z = block.dot(x)
            lam = float(x.dot(z))
            residual = float(abs(z - lam * x).max())
            if lam > 0 and residual <= best_resid:
                best_resid = residual
                best = (lam, x)
            if lam > 0 and residual <= 1e-13 * lam:
                return lam, x, residual
            if stable % 32 == 0:
                # Rounding floor reached: accept the best certified pair if it
                # meets the guaranteed bound instead of burning the iteration cap.
                if residual > 0.9 * window_resid and best is not None:
                    if best_resid <= TOL.perron_resid * best[0]:
                        return best[0], best[1], best_resid
                window_resid = residual
        else:
            stable = 0
        previous = quotient
        norm = math.sqrt(float(y.dot(y)))
        if norm == 0.0:  # impossible for an irreducible block, defensive only
            raise PerronConvergenceError("iteration collapsed to the zero vector")
        x = y / norm
    if best is not None and best_resid <= TOL.perron_resid * best[0]:
        return best[0], best[1], best_resid
    raise PerronConvergenceError(
        f"power iteration did not certify an eigenpair within {_POWER_ITER_CAP} iterations"
    )


def _tropical_balance(block_log: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-plus eigendata of an irreducible class block given entrywise logs.

    Returns ``(mu, p)`` where ``mu`` is the maximum cycle mean of the log
    entries (Karp's recursion) and ``p`` are node potentials satisfying
    ``block_log[i, j] + p[j] - p[i] <= mu`` with equality along some cycle.
    Rescaling by ``exp(p)`` and ``exp(-mu)`` therefore yields a matrix with
    maximum entry one whose Perron root lies in ``[1, n]`` — the conditioning
    needed for power iteration to certify tiny relative residuals even when
    the original entries span hundreds of orders of magnitude.
    """
    n = block_log.shape[0]
    # walks[k, v]: heaviest walk of length k ending at v, from anywhere
    walks = np.zeros((n + 1, n))
    for k in range(n):
        (walks[k, :, None] + block_log).max(axis=0, out=walks[k + 1])
    final = walks[n]
    # an unreached walks[k, v] gives the gap +inf, which the min ignores; the
    # columns of an unreached final[v] (NaN or -inf) are left out of mu
    with np.errstate(invalid="ignore"):
        means = ((final - walks[:n]) / np.arange(n, 0, -1)[:, None]).min(axis=0)
    mu = float(means[final > -math.inf].max(initial=-math.inf))
    if not math.isfinite(mu):
        raise ClassStructureError("max cycle mean undefined: the block carries no cycle")
    # longest-walk potentials for the zero-max-cycle-mean weights
    weights = block_log - mu
    p = np.zeros(n)
    for _ in range(2 * n + 2):
        relaxed = np.maximum(p, (weights + p).max(axis=1))
        # no NaN or -0.0 ever enters p, so equal bytes mean equal entries
        if relaxed.tobytes() == p.tobytes():
            break
        p = relaxed
    return mu, p


def _validate_cyclic_class(log_block: np.ndarray, states: Sequence[int]) -> None:
    decomposition = _classes_of(log_block > -math.inf)
    shown = tuple(int(s) for s in states)
    if len(decomposition.classes) != 1:
        raise ClassStructureError(f"states {shown} do not form a single irreducible class")
    if not decomposition.cyclic[0]:
        raise ClassStructureError(f"singleton class {shown} has no self-loop, hence no cycle")


def _balanced_exp(block_log: np.ndarray, mu: float, pot: np.ndarray) -> np.ndarray:
    """A class block rescaled by its max-plus eigendata ``(mu, pot)``, exponentiated."""
    return np.exp(block_log + pot[None, :] - pot[:, None] - mu)


@memoised
def _classes_of(support: np.ndarray) -> ClassDecomposition:
    """Classes of a whole boolean support digraph."""
    return _decompose(support, range(support.shape[0]))


@memoised
def _class_step(block_log: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
    """``(mu, pot, lam, right)``: balance a class block, then iterate on the right."""
    mu, pot = _tropical_balance(block_log)
    lam, right, _ = _power_iteration(_balanced_exp(block_log, mu, pot))
    pot.flags.writeable = False
    right.flags.writeable = False
    return mu, pot, lam, right


@memoised
def _left_step(block_log: np.ndarray, mu: float, pot: np.ndarray) -> tuple[float, np.ndarray]:
    """``(lam, left)``: the left iteration on the block balanced by ``(mu, pot)`` of :func:`_class_step`."""
    lam, left, _ = _power_iteration(_balanced_exp(block_log, mu, pot).T)
    left.flags.writeable = False
    return lam, left


def perron_from_log(log_entries: np.ndarray, cls: Sequence[int], class_index: int = 0) -> PerronData:
    """Perron data of a cyclic class given the elementwise log (finite or ``-inf``) of the matrix.

    The class block is diagonally rescaled by its max-plus potentials before
    exponentiating (see :func:`_tropical_balance`), so arbitrarily tilted
    matrices stay in range and keep the Perron root of the same order as the
    largest entry; the rescaling is undone on the eigendata in log space.
    """
    return _perron(checked_array(log_entries, "entries", square=True, log=True), cls, class_index)


def _perron(log_entries: np.ndarray, cls: Sequence[int], class_index: int) -> PerronData:
    """:func:`perron_from_log` on a log-matrix the library built itself, unchecked."""
    d = log_entries.shape[0]
    idx = np.asarray(sorted(int(i) for i in cls), dtype=int)
    if idx.size == 0 or idx[0] < 0 or idx[-1] >= d:
        raise ClassStructureError("class states outside the matrix index range")
    block_log = log_entries[np.ix_(idx, idx)]
    _validate_cyclic_class(block_log, idx)
    mu, pot, lam_r, right_block = _class_step(block_log)
    lam_l, left_block = _left_step(block_log, mu, pot)
    lam = 0.5 * (lam_r + lam_l)
    log_lam = math.log(lam) + mu
    # undo the balancing in log space: right picks up +pot, left picks up -pot
    log_right = pot + safe_log(np.abs(right_block))
    log_right -= logsumexp(log_right)
    log_left = -pot + safe_log(np.abs(left_block))
    log_left -= logsumexp(log_left + log_right)
    right = np.zeros(d)
    left = np.zeros(d)
    right[idx] = np.exp(log_right)
    left[idx] = np.exp(log_left)
    right.flags.writeable = False
    left.flags.writeable = False
    return PerronData(log_lam=log_lam, left=left, right=right, class_index=class_index)


def _twist(log_entries: np.ndarray, cls: Sequence[int], class_index: int = 0) -> tuple[np.ndarray, PerronData]:
    """The eigenvector twist of a cyclic class and its Perron data.

    For ``M = exp(log_entries)`` with Perron vectors ``u, w`` on ``cls``, the
    twist is ``u(i) M(i, j) w(j) / Z``, of total mass one: a stationary edge
    measure on the edges of ``M`` inside the class, of which those with a
    mass below the float range get zero.  It is returned as a full d x d
    array, zero off the class block.
    """
    data = _perron(log_entries, cls, class_index)
    idx = np.asarray(cls, dtype=int)
    block = log_entries[np.ix_(idx, idx)]
    log_u = np.log(data.left[idx])
    log_w = np.log(data.right[idx])
    log_weights = log_u[:, None] + block + log_w[None, :]
    log_z = logsumexp(log_weights)
    entries = np.zeros_like(log_entries)
    finite = block > -math.inf
    sub = np.zeros_like(block)
    sub[finite] = np.exp(log_weights[finite] - log_z)
    if not np.isfinite(sub).all():
        raise PerronConvergenceError(f"the Perron vectors of class {cls} leave the float range")
    entries[np.ix_(idx, idx)] = sub
    return entries, data


def perron(m: NonnegMatrix, cls: Sequence[int], class_index: int = 0) -> PerronData:
    """Certified Perron root and left/right eigenvectors of one cyclic class."""
    return _perron(safe_log(m.entries), cls, class_index)


def dominant_class(log_entries: np.ndarray) -> tuple[int, tuple[int, ...], float] | None:
    """The dominant cyclic class of the matrix whose elementwise log (finite or ``-inf``) is given.

    Returns ``(class_index, states, log_root)`` for the first class, in
    smallest-state order, with the strictly largest log Perron root (right
    iteration only, no eigendata); ``None`` when the support is acyclic.
    """
    return _locate_dominant(checked_array(log_entries, "entries", square=True, log=True))


@memoised
def _locate_dominant(log_entries: np.ndarray) -> tuple[int, tuple[int, ...], float] | None:
    decomposition = _classes_of(log_entries > -math.inf)
    best: tuple[int, tuple[int, ...], float] | None = None
    for k, cls in enumerate(decomposition.classes):
        if not decomposition.cyclic[k]:
            continue
        whole = len(cls) == log_entries.shape[0]  # one class over all states: no gather
        mu, _, lam, _ = _class_step(log_entries if whole else log_entries[np.ix_(cls, cls)])
        root = math.log(lam) + mu
        if best is None or root > best[2]:
            best = (k, cls, root)
    return best


def growth_rate_from_log(log_entries: np.ndarray) -> ExtReal:
    """Growth rate of the matrix whose elementwise log (finite or ``-inf``) is given."""
    return _growth(checked_array(log_entries, "entries", square=True, log=True))


def _growth(log_entries: np.ndarray) -> ExtReal:
    """:func:`growth_rate_from_log` on a log-matrix the library built itself, unchecked."""
    located = _locate_dominant(log_entries)
    return NEG_INF if located is None else ExtReal.finite(located[2])


def growth_rate(m: NonnegMatrix) -> ExtReal:
    """Spectral growth rate rho(M); -inf exactly when the support is acyclic."""
    return _growth(safe_log(m.entries))


def growth_rate_bruteforce(m: NonnegMatrix, n: int) -> ExtReal:
    """(1/n) log sum of the entries of M^n, in log space by repeated squaring."""
    if n < 1:
        raise InputValidationError("brute-force growth needs n >= 1")
    power = log_matrix_power(safe_log(m.entries), n)
    total = logsumexp(power)
    if total == -math.inf:
        return NEG_INF
    return ExtReal.finite(total / n)


def log_mass_sequence(m: NonnegMatrix, n_max: int) -> np.ndarray:
    """log sum of the entries of M^n for n = 1..n_max, by direct iteration.

    Entries are ``-inf`` once the matrix power vanishes (nilpotent supports).
    This is the successive-difference work horse: differences of consecutive
    entries approach the growth rate in aperiodic cases.
    """
    if n_max < 1:
        raise InputValidationError("need n_max >= 1")
    log_m = safe_log(m.entries)
    current = log_m
    out = np.empty(n_max)
    out[0] = logsumexp(current)
    for k in range(1, n_max):
        current = log_matmul(current, log_m)
        out[k] = logsumexp(current)
    return out


def compatible(m: NonnegMatrix, pair: "PairMeasure | np.ndarray") -> bool:
    """True when the pair measure's support equals the matrix support exactly."""
    entries = np.asarray(getattr(pair, "entries", pair), dtype=float)
    if entries.shape != m.entries.shape:
        raise DimensionMismatchError("support comparison needs identical shapes")
    return bool(np.array_equal(m.support, entries > 0))


def maximal_abs_cont(m: NonnegMatrix) -> "PairMeasure | None":
    """The stationary edge measure with the largest support dominated by M.

    Every stationary pair measure dominated by ``M`` lives on the cyclic
    classes.  On each cyclic class this takes the eigenvector twist of the
    class's 0/1 support block (:func:`_twist`), its Parry measure, i.e. its
    measure of maximal entropy (Parry 1964).  As the Perron vectors are
    positive on the class, the twist charges every edge inside it.  The
    twists are averaged with equal weight, so each cyclic class carries mass
    ``1 / K`` for ``K`` cyclic classes.  The support of the result is exactly
    the union of intra-cyclic-class edges, a maximum element for the
    absolute-continuity order.  Returns ``None`` when the support digraph is
    acyclic (no stationary measure is dominated at all).

    A Parry mass can lie below the float range (a class of Perron root ``r``
    charges a return path of ``L`` states about ``r^-L``); then this raises
    :class:`PerronConvergenceError` rather than return a smaller support.
    The cost is the power iteration's on each class, slow for long sparse
    classes (a ring of ``d`` states with one chord has a gap of order ``1 / d^2``).
    """
    from .markov import PairMeasure  # deferred: markov depends on this module

    cyclic = classes(m).cyclic_classes()
    if not cyclic:
        return None
    log_support = safe_log(m.support)
    accumulated = sum(_twist(log_support, cls)[0] for cls in cyclic)
    if np.count_nonzero(accumulated) < sum(np.count_nonzero(m.support[np.ix_(c, c)]) for c in cyclic):
        raise PerronConvergenceError("a Parry measure has edge masses below the float range")
    return PairMeasure(accumulated / len(cyclic))
