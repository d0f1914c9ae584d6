"""Structure and growth of nonnegative matrices.

The support digraph of a nonnegative d x d matrix ``M`` has an edge
``i -> j`` exactly when ``M[i, j] > 0`` (self-loops allowed).  The growth
rate

    rho(M) = lim_n (1/n) log sum_{i,j} (M^n)[i, j]

is ``-inf`` exactly when that digraph has no directed cycle (M is nilpotent),
and otherwise equals the log of the largest Perron root over the cyclic
strongly connected components.  This module computes the class structure (by
boolean reachability: the transitive closure of the support, grouped by
mutual reachability), the Perron data of a class, the growth rate both
spectrally and by brute-force matrix powers, and the maximal stationary edge
measure supported inside the cyclic classes (from an integer circulation,
:func:`maximal_abs_cont`).

The Perron pair of a class comes from one route: repeated squaring of its
balanced block plus ``I``, which subtracts nothing, so small entries keep
their relative accuracy; the row sums of the power are the right vector and
its column sums the left one (:func:`_perron_pair`).  Blocks of one and two
states take closed forms; a two-state one that fails its bracket is squared.
A vector is certified by its Collatz--Wielandt bracket (Collatz 1942;
Wielandt 1950): for a positive ``x``, the ratios ``(B x)_i / x_i`` enclose
the Perron root of ``B``, and they must agree to ``1e-13`` relative.  Where
the bracket stalls at the rounding floor, or the squarings run out, the last
row and column sums are accepted by their eigen-residual, at most
``TOL.perron_resid`` times the root for the unit-norm vector; a class block
that meets neither bound raises :class:`PerronConvergenceError` after at most
46 squarings.

The eigenvector twist ``u(i) M(i, j) w(j) / Z`` of a cyclic class, with
``u, w`` its left and right Perron vectors, is a stationary edge measure on
the edges inside the class.  It is built in one place, :func:`_twist`, from
the logs of ``u`` and ``w`` that :class:`PerronData` keeps, and serves the
Markov optimizers (through ``markov_variational._locate_and_twist``).

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

The dominant class needs an exact root only for the class that wins.  With
two or more cyclic classes, :func:`_root_bounds` first bounds every class's
log root from above by the Collatz--Wielandt inequality: three pivoted
log-space steps of the intra-class matrix from the all-ones vector, the first
of which is the largest row sum.  Classes are then balanced and solved in
order of decreasing bound, and the search stops at the first class whose
bound falls below the best root found by a margin of ``1e-9 (1 + |best|)``.
Ties go to the smallest class index, and a bound that overflowed (NaN) never
stops the search.  So the result is the one a visit of every class returns,
float for float, as long as the error of each bound and computed root stays
inside the margin (see :func:`_locate_dominant`).  A skipped class is never
balanced, so one whose max-plus walks overflow raises only when it is
visited.

Class finding on a support pattern, the dominant class of a log-matrix and
the balancing with the Perron pair of a class block are memoised on the exact
bytes of their input (:func:`renyivar.numerics.memoised`):
the Markov certificates repeat them on the same matrices many times over.
One layer up, the log-matrices are themselves memoised on the identities of
the measures they tilt (``markov._tilted_log_kernel``,
``markov_variational._edge_tilt``), so a repeated certificate hands these
steps the very array it built before; here the key stays the bytes, which
also matches a matrix rebuilt from other objects.  Each step is
deterministic and returns read-only results, so a hit gives the very floats
a recomputation would.  Each memo holds at most 64 arrays of at most 64 rows.
As an exact fast path, a complete support digraph is one cyclic class at
once.
"""

from __future__ import annotations

import itertools
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

# The Perron pair by repeated squaring: the relative Collatz--Wielandt bracket
# a vector must reach, the squarings before the first check and the checked
# ones at most, and the relative move of the row sums below which a squaring
# has reached the rounding floor.
_BRACKET_RTOL = 1e-13
_UNCHECKED_SQUARINGS = 6
_SQUARING_CAP = 40
_STALL_RTOL = 1e-14


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
    """Certified dominant eigendata of one cyclic class, in log form.

    ``log_lam`` is the log of the Perron root of the matrix restricted to the
    class, and ``log_left``, ``log_right`` the logs of its left and right
    Perron vectors: read-only full d-vectors, ``-inf`` off the class,
    normalized so that ``sum(right) == 1`` and ``dot(left, right) == 1``.
    Logs keep exponentially tilted matrices from overflowing them; ``lam``,
    ``left`` and ``right`` exponentiate on demand, so a vector entry beyond
    the float range reads ``inf`` or ``0`` there.  Both vectors are
    certified on the rescaled class block (see :func:`_perron_pair`): by a
    Collatz--Wielandt bracket of relative width at most ``1e-13``, which
    contains the root and bounds the eigen-residual of the unit-norm vector
    by ``1e-13`` times the root, or, where that bracket stalls at the
    rounding floor, by an eigen-residual of the unit-norm vector of at most
    ``TOL.perron_resid`` (``1e-10``) times the root.
    """

    log_lam: float
    log_left: np.ndarray
    log_right: np.ndarray
    class_index: int

    @property
    def lam(self) -> float:
        return math.exp(self.log_lam)

    @property
    @np.errstate(over="ignore")
    def left(self) -> np.ndarray:
        return np.exp(self.log_left)

    @property
    @np.errstate(over="ignore")
    def right(self) -> np.ndarray:
        return np.exp(self.log_right)


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


def _tropical_balance(block_log: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-plus eigendata of an irreducible class block given entrywise logs.

    Returns ``(mu, p)`` where ``mu`` is the maximum cycle mean of the log
    entries and ``p`` are node potentials satisfying
    ``block_log[i, j] + p[j] - p[i] <= mu`` with equality along some cycle.
    Rescaling by ``exp(p)`` and ``exp(-mu)`` therefore yields a matrix with
    maximum entry one whose Perron root lies in ``[1, n]``, the conditioning
    the Perron solve needs to certify tiny relative errors even when the
    original entries span hundreds of orders of magnitude.

    One table serves both: ``walks[k, i]``, the heaviest walk of length ``k``
    *starting* at ``i``.  These are Karp's walks on the reversed digraph,
    which has the same cycle means, so Karp's formula on the table gives
    ``mu``.  The potentials are the heaviest walks of the weights
    ``block_log - mu``, ``p = max_k (walks[k] - k mu)``: every cycle of those
    weights is at most zero, so a heaviest walk needs no more than ``n``
    steps, and ``p[i] >= block_log[i, j] - mu + p[j]`` holds for every edge
    (up to rounding).  A class whose walks leave the float range (log entries
    near ``-1e308`` on a cycle of a few states) raises
    :class:`ClassStructureError`.
    """
    n = block_log.shape[0]
    walks = np.zeros((n + 1, n))
    sums = np.empty((n, n))  # one scratch array for every step's sums
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            np.add(block_log, walks[k], out=sums)
            np.maximum.reduce(sums, axis=1, out=walks[k + 1])
        final = walks[n]
        # an unreached walks[k, v] gives the gap +inf, which the min ignores; the
        # columns of an unreached final[v] (NaN or -inf) are left out of mu
        means = np.minimum.reduce((final - walks[:n]) / np.arange(n, 0, -1)[:, None], axis=0)
        mu = float(np.maximum.reduce(means[final > -math.inf], initial=-math.inf))
        if not math.isfinite(mu):
            raise ClassStructureError("the max-plus walks of the class leave the float range")
        pot = np.maximum.reduce(walks - np.arange(n + 1)[:, None] * mu, axis=0)
    return mu, pot


def _balance(block_log: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`_tropical_balance` of a class block, in closed form for one or two states.

    One state: ``mu`` is its log self-loop and ``p = 0``.  Two states (both
    edges between them are present): ``mu = max(L00, L11, (L01 + L10) / 2)``,
    with the halves taken first so that two log entries near ``1e308`` do not
    overflow their sum, and ``p[i] = max(0, L[i, j] - mu)`` for the other
    state ``j``.  That is the heaviest walk of the weights ``L - mu`` from
    ``i``, as in :func:`_tropical_balance`: going around a cycle gains
    nothing.  An edge out of a state with ``p > 0`` is balanced to weight
    one, so where a self-loop outweighs the cycle by hundreds of log units
    only the other edge underflows, and the right vector stays accurate.
    Potentials that balanced both edges alike would underflow both and lose
    the right vector as well.
    """
    n = block_log.shape[0]
    if n == 1:
        return float(block_log[0, 0]), np.zeros(1)
    if n == 2:
        (l00, l01), (l10, l11) = block_log.tolist()
        mu = max(l00, l11, 0.5 * l01 + 0.5 * l10)
        return mu, np.array([max(0.0, l01 - mu), max(0.0, l10 - mu)])
    return _tropical_balance(block_log)


def _tight(lo: float, hi: float) -> bool:
    """True when a Collatz--Wielandt bracket ``[lo, hi]`` is at most ``_BRACKET_RTOL`` wide, relatively."""
    return hi - lo <= _BRACKET_RTOL * lo


def _bracketed(image: np.ndarray, x: np.ndarray) -> bool:
    """True when ``x > 0`` and the ratios ``image / x`` (``image = B x``) bracket the root tightly.

    The ratios are compared as Python floats.  ``min`` and ``max`` may pass
    over a NaN ratio, but it makes their sum NaN, so it still fails.
    """
    if not x.min() > 0:
        return False
    ratios = (image / x).tolist()
    return _tight(min(ratios), max(ratios)) and not math.isnan(sum(ratios))


def _small_residual(image: np.ndarray, x: np.ndarray, lam: float) -> bool:
    """True when ``image = B x`` (or ``x B``) gives the unit-norm ``x`` a residual of at most ``perron_resid lam``.

    A vector whose maximum is not positive (zero, or NaN) fails: the zero
    vector has no residual but is no eigenvector.
    """
    if not x.max() > 0.0:
        return False
    return float(abs(image - lam * x).max()) <= TOL.perron_resid * lam * math.sqrt(float(x.dot(x)))


def _two_state_pair(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The Perron pair of a 2 x 2 block ``[[a, b], [c, d]]`` in closed form, in Python floats.

    ``lam = (a + d) / 2 + sqrt(((a - d) / 2)^2 + b c)``; each vector takes the
    formula that subtracts nothing but the input difference ``a - d``:
    right ``(lam - d, c)`` and left ``(lam - d, b)`` when ``a >= d``, else
    right ``(b, lam - a)`` and left ``(c, lam - a)``.  Both are checked by the
    Collatz--Wielandt bracket like any other pair; ``None`` when one fails.
    """
    (a, b), (c, d) = block.tolist()
    half_gap = 0.5 * (a - d)
    root = math.sqrt(half_gap * half_gap + b * c)
    lam = 0.5 * (a + d) + root
    if half_gap >= 0.0:
        right, left = (half_gap + root, c), (half_gap + root, b)
    else:
        right, left = (b, root - half_gap), (c, root - half_gap)

    def bracketed(x0: float, x1: float, y0: float, y1: float) -> bool:
        if not min(x0, x1) > 0.0:
            return False
        q0, q1 = y0 / x0, y1 / x1
        return _tight(min(q0, q1), max(q0, q1))

    if not bracketed(*right, a * right[0] + b * right[1], c * right[0] + d * right[1]):
        return None
    if not bracketed(*left, a * left[0] + c * left[1], b * left[0] + d * left[1]):
        return None
    return lam, np.array(right), np.array(left)


def _squared_pair(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The Perron pair of an irreducible nonnegative block by repeated squaring.

    ``P`` starts as the block plus ``I`` and is squared, which subtracts
    nothing.  The shift maps each eigenvalue ``z`` to ``1 + z``, so ``P`` is
    primitive with a gap that rounding keeps; a tiny positive diagonal entry
    makes a nearly periodic block primitive only in exact arithmetic, and
    squarings of it stall.  ``P`` tends to a multiple of ``r l^T`` for the
    right and left Perron vectors ``r, l``, so its row sums are the right
    vector and its column sums the left one.  The first
    ``_UNCHECKED_SQUARINGS`` squarings are not rescaled: a balanced block has
    entries at most one, so those of ``P`` stay below ``(n + 1)^64``.  Each
    later squaring follows a rescaling by the maximum, and checks both vectors
    by their Collatz--Wielandt brackets on the block itself, at most
    ``_SQUARING_CAP`` times, until both are tight.  The root is
    ``l . B r / l . r``, a weighted mean of the right ratios, hence inside
    their bracket.  A squaring that moves no row sum by more than
    ``_STALL_RTOL`` relatively has reached the rounding floor and ends the
    search, as does the cap: then the last column sums, and the last
    bracketed right vector and root or else the last row sums and their root,
    are returned if both vectors pass :func:`_small_residual`, else ``None``.
    """
    n = block.shape[0]
    ones = np.ones(n)
    power = block + np.eye(n)
    for _ in range(_UNCHECKED_SQUARINGS):
        power = power.dot(power)
    previous = bracketed = None
    for _ in range(_SQUARING_CAP):
        power /= power.max()
        power = power.dot(power)
        right = power.dot(ones)
        image = block.dot(right)
        if _bracketed(image, right):
            left = ones.dot(power)
            lam = float(left.dot(image)) / float(left.dot(right))
            if _bracketed(left.dot(block), left):
                return lam, right, left
            bracketed = lam, right, image
        if previous is not None and (np.abs(right - previous) <= _STALL_RTOL * right).all():
            break
        previous = right
    left = ones.dot(power)
    if bracketed is None:
        lam = float(left.dot(image)) / float(left.dot(right))
    else:
        lam, right, image = bracketed
    if _small_residual(image, right, lam) and _small_residual(left.dot(block), left, lam):
        return lam, right, left
    return None


def _perron_pair(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The certified Perron pair ``(lam, right, left)`` of a balanced class block.

    One state is exact: ``lam`` is the entry and both vectors are ``[1]``.
    Two states take :func:`_two_state_pair`, and :func:`_squared_pair` where
    that fails its bracket; more states take :func:`_squared_pair`.  A vector
    is certified by its Collatz--Wielandt bracket ``[lo, hi]`` with
    ``hi - lo <= _BRACKET_RTOL lo`` (the left one on the transpose), which
    gives the unit-norm vector ``r`` a residual
    ``max |B r - lam r| <= _BRACKET_RTOL lam``; where the bracket stalls, by
    that residual bound loosened to ``TOL.perron_resid``.  A block with an
    infinite or NaN entry, or a pair that meets neither bound, raises
    :class:`PerronConvergenceError`.
    """
    n = block.shape[0]
    if not block.max() < math.inf:  # the max of the nonnegative block is NaN if an entry is
        raise PerronConvergenceError("the balanced class block overflows the float range (inf or NaN entries)")
    if n == 1:
        return float(block[0, 0]), np.ones(1), np.ones(1)
    pair = _two_state_pair(block) if n == 2 else None
    if pair is None:
        pair = _squared_pair(block)
    if pair is None:
        raise PerronConvergenceError(
            f"the Perron pair of a {n}-state class block meets neither its Collatz--Wielandt bracket"
            " nor its eigen-residual bound"
        )
    return pair


def _validate_cyclic_class(log_block: np.ndarray, states: Sequence[int]) -> None:
    decomposition = _classes_of(log_block > -math.inf)
    shown = tuple(int(s) for s in states)
    if len(decomposition.classes) != 1:
        raise ClassStructureError(f"states {shown} do not form a single irreducible class")
    if not decomposition.cyclic[0]:
        raise ClassStructureError(f"singleton class {shown} has no self-loop, hence no cycle")


def _block(a: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """The class block ``a[np.ix_(idx, idx)]``, as a C-contiguous copy with the same bytes."""
    return a.take(idx, axis=0).take(idx, axis=1)


def _balanced_exp(block_log: np.ndarray, mu: float, pot: np.ndarray) -> np.ndarray:
    """A class block rescaled by its max-plus eigendata ``(mu, pot)``, exponentiated."""
    return np.exp(block_log + pot[None, :] - pot[:, None] - mu)


@memoised
def _classes_of(support: np.ndarray) -> ClassDecomposition:
    """Classes of a whole boolean support digraph."""
    return _decompose(support, range(support.shape[0]))


@memoised
def _class_step(block_log: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray, np.ndarray]:
    """``(mu, pot, lam, right, left)``: balance a class block, then find its Perron pair (:func:`_perron_pair`)."""
    mu, pot = _balance(block_log)
    lam, right, left = _perron_pair(_balanced_exp(block_log, mu, pot))
    for vector in (pot, right, left):
        vector.flags.writeable = False
    return mu, pot, lam, right, left


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
    block_log = _block(log_entries, idx)
    _validate_cyclic_class(block_log, idx)
    mu, pot, lam, right_block, left_block = _class_step(block_log)
    # undo the balancing in log space: right picks up +pot, left picks up -pot;
    # the vectors are nonnegative, and only an entry that underflowed has log -inf
    with np.errstate(divide="ignore"):
        log_right = pot + np.log(right_block)
        log_left = -pot + np.log(left_block)
    log_right -= logsumexp(log_right)
    log_left -= logsumexp(log_left + log_right)
    full = np.full((2, d), -math.inf)  # rows: the full log vectors, -inf off the class
    full[:, idx] = log_left, log_right
    full.flags.writeable = False
    return PerronData(math.log(lam) + mu, full[0], full[1], class_index)


def _twist(log_entries: np.ndarray, cls: Sequence[int], class_index: int = 0) -> tuple[np.ndarray, PerronData]:
    """The eigenvector twist of a cyclic class and its Perron data.

    For ``M = exp(log_entries)`` with Perron vectors ``u, w`` on ``cls``, the
    twist is ``u(i) M(i, j) w(j) / Z``, of total mass one: a stationary edge
    measure on the edges of ``M`` inside the class.  Its log weights are
    formed from the logs of :class:`PerronData` and normalised before they
    are exponentiated, so no mass exceeds one, and only a mass below the
    float range is lost (it gets zero).  It is returned as a full d x d
    array, zero off the class block.
    """
    data = _perron(log_entries, cls, class_index)
    log_weights = data.log_left[:, None] + log_entries + data.log_right  # -inf off the class's edges
    log_weights -= logsumexp(log_weights)
    return np.exp(log_weights, out=log_weights), data


def perron(m: NonnegMatrix, cls: Sequence[int], class_index: int = 0) -> PerronData:
    """Certified Perron root and left/right eigenvectors of one cyclic class."""
    return _perron(safe_log(m.entries), cls, class_index)


def dominant_class(log_entries: np.ndarray) -> tuple[int, tuple[int, ...], float] | None:
    """The dominant cyclic class of the matrix whose elementwise log (finite or ``-inf``) is given.

    Returns ``(class_index, states, log_root)`` for the first class, in
    smallest-state order, with the strictly largest log Perron root (the root
    of the class step, no eigendata); ``None`` when the support is acyclic.

    Only the classes whose upper bound reaches the best root are balanced
    (see :func:`_locate_dominant`).  So a class whose max-plus walks leave the
    float range (log entries near ``-1e308`` on a cycle of a few states)
    raises :class:`ClassStructureError` when it is visited, and is passed
    over without error when another class's root lies above its bound.
    """
    return _locate_dominant(checked_array(log_entries, "entries", square=True, log=True))


def _root_bounds(log_entries: np.ndarray, members: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Upper bounds on the log Perron roots of the given cyclic classes.

    ``inside`` keeps only the intra-class entries of the classes, in class
    order, so it is block diagonal.  Three steps of
    ``log x <- logsumexp_j(inside[i, j] + log x[j])`` from ``x = 1``, each
    row pivoted at its maximum, give ``x_0 .. x_3``; by the Collatz--Wielandt
    inequality ``rho(A) <= max_i (A x)_i / x_i`` for any positive ``x``, so
    each step bounds every class by the largest log ratio over its states,
    and the bound is the least of the three (the first is the largest row
    sum).  A state whose step leaves the float range gives its class a NaN or
    ``+inf`` ratio, and a NaN bound is returned as ``+inf``.  The state then
    restarts at ``x = 1`` (any positive ``x`` gives a bound), so the NaN never
    reaches the rows of the other classes, whose bounds stay finite.
    """
    sizes = [len(cls) for cls in members]
    idx = np.fromiter((s for cls in members for s in cls), dtype=int)
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    label = np.repeat(np.arange(len(members)), sizes)
    inside = _block(log_entries, idx)
    inside[label[:, None] != label] = -math.inf
    log_x = np.zeros(idx.size)
    bound = np.full(len(members), math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            terms = inside + log_x
            pivot = terms.max(axis=1)
            terms -= pivot[:, None]
            log_y = pivot + np.log(np.exp(terms).sum(axis=1))
            # np.minimum and np.maximum keep NaN, so a NaN step leaves a NaN bound
            bound = np.minimum(bound, np.maximum.reduceat(log_y - log_x, starts))
            # any positive x gives a bound, so a state that left the float range
            # restarts at x = 1: a NaN there would reach every row through -inf + NaN
            log_x = np.where(np.isfinite(log_y), log_y, 0.0)
    bound[np.isnan(bound)] = math.inf
    return bound


@memoised
def _locate_dominant(log_entries: np.ndarray) -> tuple[int, tuple[int, ...], float] | None:
    """:func:`dominant_class` on a log-matrix the library built itself, unchecked.

    With two or more cyclic classes, every class is first bounded from above
    by :func:`_root_bounds`, and classes are visited by decreasing bound,
    equal bounds in index order; a lone cyclic class is visited without a
    bound.  A visited class is balanced and solved (:func:`_class_step`) for
    its log root.  The visit stops at the first class whose bound ``U``
    satisfies ``U + 1e-9 (1 + |best|) < best`` for the best root so far:
    every class after it has a bound no larger.  Its computed root then lies
    strictly below ``best`` as long as the error of the bound and of the
    computed root stays inside that margin.  The bound rounds at relative
    errors near 1e-14.  The root lies in a Collatz--Wielandt bracket of
    relative width at most 1e-13, well inside the margin; only where the
    bracket stalls at the rounding floor does the last squaring's
    eigen-residual of at most ``TOL.perron_resid`` certify it, and that
    bounds its error only up to the condition number of the class's Perron
    vector, so there the margin is an assumption, not a proof.  A NaN
    or ``+inf`` bound never stops the visit: both are visited first.  Among
    equal largest roots the smallest class index wins.  Within the margin
    the result is therefore the one an index-order visit of every class
    returns, float for float.
    """
    decomposition = _classes_of(log_entries > -math.inf)
    cyclic = [k for k, flag in enumerate(decomposition.cyclic) if flag]
    members = [decomposition.classes[k] for k in cyclic]
    # a lone cyclic class has nothing to lose to, so it is not bounded
    upper = _root_bounds(log_entries, members).tolist() if len(members) > 1 else [math.inf] * len(members)
    best: tuple[int, tuple[int, ...], float] | None = None
    for c in sorted(range(len(members)), key=lambda c: -upper[c]):  # stable: equal bounds in index order
        if best is not None and upper[c] + 1e-9 * (1.0 + abs(best[2])) < best[2]:
            break
        k, cls = cyclic[c], members[c]
        whole = len(cls) == log_entries.shape[0]  # one class over all states: no gather
        mu, _, lam, _, _ = _class_step(log_entries if whole else _block(log_entries, cls))
        root = math.log(lam) + mu
        if best is None or root > best[2] or (root == best[2] and k < best[0]):
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


def _circulation(support: np.ndarray) -> np.ndarray:
    """An integer circulation on an irreducible boolean digraph of ``n`` states that charges every edge.

    Each edge ``(u, v)`` closes a walk of at most ``2n - 1`` edges: from state
    0 to ``u`` along a breadth-first out-tree, ``u -> v``, then back to 0
    along a breadth-first in-tree (the out-tree of the reversed digraph).  The
    walks' summed edge counts are a circulation with every count at least one.
    A tree edge into ``x`` is walked once for each edge leaving (in-tree:
    entering) a state of the subtree of ``x``, so subtree sums of the degrees
    give every count in ``O(n + E)``.
    """
    flow = support.astype(np.int64)  # each edge once, as the middle step of its own walk
    for adjacent, counts in ((support, flow), (support.T, flow.T)):  # flow.T is a view: in-tree edges reversed
        successors = [np.flatnonzero(row).tolist() for row in adjacent]
        parent = [-1] * len(successors)
        parent[0] = 0
        order = [0]
        for u in order:  # the loop also visits the states appended below
            for v in successors[u]:
                if parent[v] < 0:
                    parent[v] = u
                    order.append(v)
        load = [len(out) for out in successors]
        for x in reversed(order[1:]):  # a subtree is summed before its parent reads it
            load[parent[x]] += load[x]
            counts[parent[x], x] += load[x]
    return flow


def maximal_abs_cont(m: NonnegMatrix) -> "PairMeasure | None":
    """A stationary edge measure with the largest support dominated by M.

    That support is the union of the edges inside the cyclic classes, a
    maximum element for the absolute-continuity order.  Each of the ``K``
    cyclic classes, of ``d_c`` states and ``E_c`` edges, carries its
    :func:`_circulation` normalised to mass ``1 / K``, so each edge gets at
    least ``1 / (K E_c (2 d_c - 1))``, whatever the class's Perron root and
    path lengths.  ``None`` when the support digraph is acyclic.
    """
    from .markov import PairMeasure  # deferred: markov depends on this module

    cyclic = classes(m).cyclic_classes()
    if not cyclic:
        return None
    entries = np.zeros((m.d, m.d))
    for cls in cyclic:
        idx = np.asarray(cls)
        flow = _circulation(_block(m.support, idx))
        entries[idx[:, None], idx] = flow / float(flow.sum() * len(cyclic))
    return PairMeasure(entries)
