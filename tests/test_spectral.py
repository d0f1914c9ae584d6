import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyivar import (
    ClassStructureError,
    InputValidationError,
    NonnegMatrix,
    PairMeasure,
    PerronConvergenceError,
    classes,
    compatible,
    growth_rate,
    growth_rate_bruteforce,
    growth_rate_from_log,
    has_cycle,
    log_mass_sequence,
    maximal_abs_cont,
    perron,
    perron_from_log,
)
from renyivar import numerics, spectral
from renyivar.config import TOL
from renyivar.numerics import safe_log
from conftest import arrays_in, clear_memos


def random_matrix(rng, d, density=0.7, scale=2.0):
    m = rng.uniform(0.0, scale, size=(d, d))
    m *= rng.random((d, d)) < density
    return m


class TestNonnegMatrix:
    def test_rejects_negative(self):
        with pytest.raises(InputValidationError):
            NonnegMatrix([[1.0, -0.1], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputValidationError):
            NonnegMatrix([[1.0, math.inf], [0.0, 1.0]])
        with pytest.raises(InputValidationError):
            NonnegMatrix([[math.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InputValidationError):
            NonnegMatrix([[1.0, 2.0, 3.0]])


class TestClasses:
    def test_two_cycle_single_class(self):
        dec = classes(NonnegMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert dec.classes == ((0, 1),)
        assert dec.cyclic == (True,)

    def test_acyclic_chain(self):
        dec = classes(NonnegMatrix([[0.0, 1.0], [0.0, 0.0]]))
        assert dec.classes == ((0,), (1,))
        assert dec.cyclic == (False, False)
        assert not has_cycle(NonnegMatrix([[0.0, 1.0], [0.0, 0.0]]))

    def test_self_loop_is_cyclic(self):
        dec = classes(NonnegMatrix([[1.0, 1.0], [0.0, 0.0]]))
        assert dec.cyclic == (True, False)

    def test_block_structure(self):
        m = NonnegMatrix(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        dec = classes(m)
        assert dec.classes == ((0, 1), (2, 3))
        assert dec.cyclic == (True, True)
        assert dec.class_of[0] == dec.class_of[1] == 0
        assert dec.class_of[2] == dec.class_of[3] == 1

    def test_restriction_to_states(self):
        m = NonnegMatrix([[1.0, 1.0], [1.0, 1.0]])
        dec = classes(m, states=[0])
        assert dec.classes == ((0,),)
        assert dec.class_of[1] == -1

    def test_classes_are_plain_ints(self):
        dec = classes(NonnegMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert all(type(s) is int for cls in dec.classes for s in cls)

    def test_empty_state_set(self):
        dec = classes(NonnegMatrix([[1.0, 1.0], [1.0, 1.0]]), states=[])
        assert dec.classes == () and dec.cyclic == ()
        assert list(dec.class_of) == [-1, -1]


def _mutual_reachability_classes(support, nodes):
    """Brute force: depth-first reachability from every node, inside ``nodes``."""
    inside = set(nodes)
    reach = {}
    for v in nodes:
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for w in np.flatnonzero(support[u]):
                if int(w) in inside and int(w) not in seen:
                    seen.add(int(w))
                    todo.append(int(w))
        reach[v] = seen
    found = {tuple(sorted(u for u in nodes if u in reach[v] and v in reach[u])) for v in nodes}
    ordered = sorted(found)
    cyclic = tuple(len(c) > 1 or bool(support[c[0], c[0]]) for c in ordered)
    return tuple(ordered), cyclic


@st.composite
def digraphs_with_nodes(draw):
    """A boolean digraph with a node subset, mixing cycles, transient states and loops."""
    d = draw(st.integers(min_value=1, max_value=9))
    cells = draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))
    support = np.array(cells, dtype=bool).reshape(d, d)
    nodes = draw(st.lists(st.integers(min_value=0, max_value=d - 1), unique=True))
    return support, sorted(nodes) if draw(st.booleans()) else list(range(d))


@settings(max_examples=300)
@given(digraphs_with_nodes())
@example((np.ones((4, 4), dtype=bool), [0, 1, 2, 3]))  # complete: the one-class fast path
@example((np.array([[1, 0, 1], [1, 0, 0], [1, 1, 1]], dtype=bool), [0, 2]))  # complete on the subset only
@example((np.ones((1, 1), dtype=bool), [0]))  # d = 1 with a self-loop
def test_decompose_matches_mutual_reachability(graph):
    support, nodes = graph
    dec = spectral._decompose(support, nodes)
    want_classes, want_cyclic = _mutual_reachability_classes(support, nodes)
    assert dec.classes == want_classes
    assert dec.cyclic == want_cyclic
    assert all(type(s) is int for cls in dec.classes for s in cls)
    want_of = np.full(support.shape[0], -1)
    for k, cls in enumerate(want_classes):
        want_of[list(cls)] = k
    np.testing.assert_array_equal(dec.class_of, want_of)
    assert not dec.class_of.flags.writeable


def test_decompose_singletons_with_and_without_self_loop():
    support = np.array([[True, True, False], [False, False, True], [False, False, False]])
    dec = spectral._decompose(support, range(3))
    assert dec.classes == ((0,), (1,), (2,))
    assert dec.cyclic == (True, False, False)


class TestPerron:
    def test_two_cycle_eigendata(self):
        m = NonnegMatrix([[0.0, 1.0], [1.0, 0.0]])
        data = perron(m, (0, 1))
        assert data.lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(data.right, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(data.left, [1.0, 1.0], atol=1e-10)

    def test_normalization_and_residual(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 9))
            block = rng.gamma(1.0, 1.0, size=(d, d)) + 0.05  # strictly positive
            m = NonnegMatrix(block)
            data = perron(m, tuple(range(d)))
            assert data.right.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(data.left @ data.right) == pytest.approx(1.0, abs=1e-12)
            lam = data.lam
            assert np.max(np.abs(block @ data.right - lam * data.right)) <= 1e-10 * lam
            assert np.max(np.abs(data.left @ block - lam * data.left)) <= 1e-10 * lam

    def test_matches_eigvals_oracle(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 9))
            block = rng.gamma(1.0, 1.0, size=(d, d)) + 0.05
            lam = perron(NonnegMatrix(block), tuple(range(d))).lam
            want = max(abs(np.linalg.eigvals(block)))
            assert lam == pytest.approx(want, rel=1e-10)

    def test_singleton_self_loop(self):
        m = NonnegMatrix([[3.0, 1.0], [0.0, 0.0]])
        data = perron(m, (0,))
        assert data.lam == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(data.right, [1.0, 0.0], atol=0)

    def test_rejects_non_irreducible_class(self):
        m = NonnegMatrix([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ClassStructureError):
            perron(m, (0, 1))

    def test_rejects_loopless_singleton(self):
        m = NonnegMatrix([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ClassStructureError):
            perron(m, (0,))

    def test_class_errors_show_plain_int_states(self):
        for log_entries, cls in [([[-math.inf]], [0]), ([[0.0, 0.0], [-math.inf, 0.0]], [0, 1])]:
            with pytest.raises(ClassStructureError) as exc:
                perron_from_log(np.array(log_entries), cls)
            assert "np." not in str(exc.value) and "(0" in str(exc.value)

    def test_log_domain_handles_extreme_tilts(self):
        # entries e^{+-800} overflow doubles; the log-form entry point must not
        log_entries = np.array([[800.0, 790.0], [795.0, -800.0]])
        data = perron_from_log(log_entries, (0, 1))
        want = 800.0 + math.log(
            max(abs(np.linalg.eigvals(np.exp(log_entries - 800.0))))
        )
        assert data.log_lam == pytest.approx(want, abs=1e-10)

    def test_masses_spanning_22_decades_are_bracketed(self):
        # A shifted power iteration stopped on a Rayleigh quotient returned a
        # right vector whose smallest mass was off by 8 decades here (a bracket
        # of 2.2e7, a mass range of 8e-15); the true range is 2.6e-23.
        log_entries = np.array([[32.0, -25.0, -22.0, -math.inf], [-math.inf, -40.0, 15.0, -math.inf],
                                [-3.0, -math.inf, -18.0, -24.0], [-10.0, -math.inf, -math.inf, -math.inf]])
        data = perron_from_log(log_entries, range(4))
        assert data.right.min() < 1e-22 * data.right.max()
        assert _log_bracket_width(log_entries, data.right) <= 1e-13
        assert _log_bracket_width(log_entries.T, data.left) <= 1e-13

    def test_two_states_keep_the_right_vector_beside_an_underflowing_edge(self):
        # The self-loop at 0 outweighs the 2-cycle by about 1730 log units, so
        # the balanced edge 0 -> 1 underflows; the right vector is still
        # exact: right[1] / right[0] = M10 / (lam - M11).
        log_entries = np.array([[4.58, -3459.7], [8.06, -2.12]])
        data = perron_from_log(log_entries, (0, 1))
        assert data.log_lam == 4.58
        want = math.exp(8.06) / (math.exp(4.58) - math.exp(-2.12))
        assert data.right[1] / data.right[0] == pytest.approx(want, rel=1e-14)

    def test_overflowing_balanced_block_fails_before_iterating(self):
        # Karp's mean of the 9e299 self-loop rounds about 3e284 low, so the
        # balanced block holds exp(+3e284) = inf: no iteration can certify it,
        # and the error says so at once instead of after the iteration cap.
        log_entries = np.zeros((3, 3))
        log_entries[0, 0] = 9e299
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PerronConvergenceError, match="overflows the float range"):
                growth_rate_from_log(log_entries)


# Malformed log-matrices: not a nonempty square matrix, or holding NaN or +inf
# (-inf, the log of zero, is the only non-finite entry a log-matrix may hold).
_BAD_LOG_MATRICES = [
    np.zeros((2, 3)),
    np.zeros(2),
    np.zeros((0, 0)),
    np.array([[0.0, math.nan], [math.nan, 0.0]]),
    np.array([[math.nan]]),
    np.array([[math.inf]]),
    np.array([[0.0, math.inf], [-math.inf, 0.0]]),
]


@pytest.mark.parametrize("log_entries", _BAD_LOG_MATRICES)
@pytest.mark.parametrize(
    "entry_point", [lambda m: perron_from_log(m, (0,)), growth_rate_from_log], ids=["perron", "growth"]
)
def test_from_log_entry_points_reject_malformed_matrices(entry_point, log_entries):
    with pytest.raises(InputValidationError) as caught:
        entry_point(log_entries)
    assert type(caught.value) is InputValidationError
    assert str(caught.value).startswith("entries must ")


class TestGrowthRate:
    def test_nilpotent_is_minus_infinity(self):
        m = NonnegMatrix([[0.0, 1.0], [0.0, 0.0]])
        assert growth_rate(m).is_neg_inf
        assert growth_rate_bruteforce(m, 2).is_neg_inf

    def test_identity_is_zero(self):
        assert growth_rate(NonnegMatrix(np.eye(3))).raw == pytest.approx(0.0, abs=1e-12)

    def test_scalar(self):
        assert growth_rate(NonnegMatrix([[2.0]])).raw == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_eigvals_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            m = random_matrix(rng, d, density=float(rng.uniform(0.3, 1.0)))
            got = growth_rate(NonnegMatrix(m))
            radius = max(abs(np.linalg.eigvals(m)))
            if got.is_neg_inf:
                assert radius <= 1e-12
            else:
                assert got.raw == pytest.approx(math.log(radius), abs=1e-8)

    def test_matches_successive_differences_aperiodic(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = rng.uniform(0.2, 2.0, size=(d, d))  # positive, hence aperiodic
            got = growth_rate(NonnegMatrix(m)).raw
            seq = log_mass_sequence(NonnegMatrix(m), 200)
            assert abs(got - (seq[-1] - seq[-2])) <= 1e-8

    def test_bruteforce_cesaro_converges_slowly(self, rng):
        d = 4
        m = rng.uniform(0.2, 2.0, size=(d, d))
        got = growth_rate(NonnegMatrix(m)).raw
        brute = growth_rate_bruteforce(NonnegMatrix(m), 4096).raw
        assert abs(got - brute) <= 10.0 / 4096

    def test_periodic_cesaro_bound(self):
        # hand-built period-2 and period-3 cycles with non-unit weights
        for m, n in [
            (np.array([[0.0, 2.0], [0.5, 0.0]]), 4096),
            (np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]]), 4096),
        ]:
            rate = growth_rate(NonnegMatrix(m)).raw
            log_mass = log_mass_sequence(NonnegMatrix(m), n)[-1]
            assert abs(rate - log_mass / n) <= 10.0 / n

    def test_monotone_under_entrywise_increase(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            lo = random_matrix(rng, d)
            hi = lo + rng.uniform(0.0, 1.0, size=(d, d))
            g_lo, g_hi = growth_rate(NonnegMatrix(lo)), growth_rate(NonnegMatrix(hi))
            if g_lo.is_neg_inf:
                continue
            assert g_hi.raw >= g_lo.raw - 1e-10

    def test_log_form_agrees_with_plain_form(self, rng):
        m = random_matrix(rng, 5)
        got = growth_rate_from_log(safe_log(m))
        want = growth_rate(NonnegMatrix(m))
        assert got.raw == pytest.approx(want.raw, abs=1e-12)


class TestMaximalAbsCont:
    def test_no_cycle_returns_none(self):
        assert maximal_abs_cont(NonnegMatrix([[0.0, 1.0], [0.0, 0.0]])) is None

    def test_irreducible_full_support(self):
        tau = maximal_abs_cont(NonnegMatrix([[1.0, 1.0], [1.0, 1.0]]))
        assert (tau.entries > 0).all()

    def test_transient_edge_carries_no_mass(self):
        tau = maximal_abs_cont(NonnegMatrix([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(tau.entries, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_support_is_exactly_intra_class_edges(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            m = random_matrix(rng, d, density=0.5)
            tau = maximal_abs_cont(NonnegMatrix(m))
            if tau is None:
                assert not has_cycle(NonnegMatrix(m))
                continue
            dec = classes(NonnegMatrix(m))
            expected = np.zeros((d, d), dtype=bool)
            for k, cls in enumerate(dec.classes):
                if not dec.cyclic[k]:
                    continue
                idx = np.asarray(cls)
                expected[np.ix_(idx, idx)] = m[np.ix_(idx, idx)] > 0
            np.testing.assert_array_equal(tau.entries > 0, expected)

    def test_every_compatible_pair_is_dominated(self, rng):
        from conftest import random_pair_on

        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_matrix(rng, d, density=0.6)
            tau = maximal_abs_cont(NonnegMatrix(m))
            if tau is None:
                continue
            for _ in range(5):
                nu = random_pair_on(rng, m > 0)
                assert nu is not None
                assert not (nu.entries[tau.entries == 0] > 0).any()

    def test_restriction_preserves_growth_rate(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_matrix(rng, d, density=0.6)
            tau = maximal_abs_cont(NonnegMatrix(m))
            if tau is None:
                continue
            restricted = np.where(tau.entries > 0, m, 0.0)
            assert growth_rate(NonnegMatrix(restricted)).raw == pytest.approx(
                growth_rate(NonnegMatrix(m)).raw, abs=1e-10
            )

    def test_each_class_carries_its_parry_measure(self, rng):
        # On a 0/1 support the measure of maximal entropy of a cyclic class has
        # entropy rate log(Perron root) of the class block; with equal class
        # shares the entropy rate of the whole measure is the mean of those.
        checked = 0
        for _ in range(300):
            d = int(rng.integers(1, 9))
            support = (rng.random((d, d)) < rng.uniform(0.15, 0.6)).astype(float)
            tau = maximal_abs_cont(NonnegMatrix(support))
            cyclic = classes(NonnegMatrix(support)).cyclic_classes()
            if tau is None:
                assert not cyclic
                continue
            checked += 1
            conditional = tau.entries / tau.entries.sum(axis=1, keepdims=True).clip(min=1e-300)
            on = tau.entries > 0
            entropy_rate = -float(np.sum(tau.entries[on] * np.log(conditional[on])))
            roots = [growth_rate(NonnegMatrix(support[np.ix_(cls, cls)])).raw for cls in cyclic]
            assert entropy_rate == pytest.approx(np.mean(roots), abs=1e-12)
            for cls in cyclic:
                assert tau.entries[np.ix_(cls, cls)].sum() == pytest.approx(1.0 / len(cyclic), abs=1e-12)
        assert checked >= 200

    @staticmethod
    def _with_return_path(core, length):
        # The 0/1 block ``core`` plus a path of ``length`` new states from its
        # last state back to its state 0: one cyclic class.
        k = core.shape[0]
        support = np.zeros((k + length, k + length))
        support[:k, :k] = core
        path = [k - 1, *range(k, k + length), 0]
        support[path[:-1], path[1:]] = 1.0
        return support

    def test_large_sparse_classes_keep_every_edge(self):
        # A 30-state clique with self-loops (root about 30) and a return path
        # of 250 states: the Parry mass of the path, about 30^-251, is below
        # the float range, but the certified Perron vectors do not resolve it
        # relatively and stay positive there, so every edge is charged.
        lollipop = self._with_return_path(np.ones((30, 30)), 250)
        # A ring of 200 states with one chord: a long sparse class, whose
        # spectral gap for the power iteration is of order 1/d^2.
        ring = np.roll(np.eye(200), 1, axis=1)
        ring[0, 100] = 1.0
        for support in (lollipop, ring):
            tau = maximal_abs_cont(NonnegMatrix(support))
            np.testing.assert_array_equal(tau.entries > 0, support > 0)
            assert tau.entries.sum() == pytest.approx(1.0, abs=1e-12)

    def _bipartite_with_long_path(self):
        # Two complete bipartite layers of 30 states (root 30, period 2) and a
        # return path of 250 states: the power iteration runs long enough to
        # resolve the path's Parry mass, about 30^-251, which underflows.
        layers = np.kron([[0.0, 1.0], [1.0, 0.0]], np.ones((30, 30)))
        return self._with_return_path(layers, 250)

    def test_parry_mass_below_float_range_raises(self):
        # A measure missing the path's edges would break the exact-support promise.
        with pytest.raises(PerronConvergenceError, match="below the float range"):
            maximal_abs_cont(NonnegMatrix(self._bipartite_with_long_path()))

    def test_parry_mass_below_float_range_raises_without_warnings(self):
        support = self._bipartite_with_long_path()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PerronConvergenceError, match="below the float range"):
                maximal_abs_cont(NonnegMatrix(support))


class TestCompatible:
    def test_accepts_dominated_pair(self):
        m = NonnegMatrix([[1.0, 1.0], [1.0, 1.0]])
        nu = PairMeasure([[0.25, 0.25], [0.25, 0.25]])
        assert compatible(m, nu)

    def test_rejects_charging_zero_entry(self):
        m = NonnegMatrix([[1.0, 0.0], [1.0, 1.0]])
        nu = PairMeasure([[0.25, 0.25], [0.25, 0.25]])
        assert not compatible(m, nu)


def _reference_max_cycle_mean(block_log):
    """Karp's recursion as plain loops over states, on walks ending at each state."""
    n = block_log.shape[0]
    walk = np.zeros(n)
    history = [walk]
    for _ in range(n):
        walk = np.max(walk[:, None] + block_log, axis=0)
        history.append(walk)
    final = history[n]
    means = np.full(n, -math.inf)
    for v in range(n):
        if final[v] == -math.inf:
            continue
        best = math.inf
        for k in range(n):
            if history[k][v] == -math.inf:
                continue
            best = min(best, (final[v] - history[k][v]) / (n - k))
        means[v] = best
    return float(np.max(means))


def _reference_power_iteration(block):
    """The shifted power iteration with ``@`` products, kept as a fixed reference."""
    if not np.isfinite(block).all():
        raise PerronConvergenceError("overflow")
    n = block.shape[0]
    shift = 1.0 + float(block.diagonal().max())
    shifted = block.copy()
    shifted.flat[:: n + 1] += shift
    squared = shifted @ shifted
    fourth = squared @ squared
    stepper = fourth @ fourth
    x = np.full(n, 1.0 / math.sqrt(n))
    previous = math.inf
    best_resid = math.inf
    best = None
    stable = 0
    window_resid = math.inf
    for _ in range(spectral._POWER_ITER_CAP):
        y = stepper @ x
        quotient = float(x @ y)
        if abs(quotient - previous) <= spectral._RAYLEIGH_RTOL * abs(quotient):
            stable += 1
            z = block @ x
            lam = float(x @ z)
            residual = float(np.max(np.abs(z - lam * x)))
            if lam > 0 and residual <= best_resid:
                best_resid = residual
                best = (lam, x)
            if lam > 0 and residual <= 1e-13 * lam:
                return lam, x, residual
            if stable % 32 == 0:
                if residual > 0.9 * window_resid and best is not None:
                    if best_resid <= TOL.perron_resid * best[0]:
                        return best[0], best[1], best_resid
                window_resid = residual
        else:
            stable = 0
        previous = quotient
        norm = math.sqrt(float(y @ y))
        x = y / norm
    if best is not None and best_resid <= TOL.perron_resid * best[0]:
        return best[0], best[1], best_resid
    raise PerronConvergenceError("cap")


# Every memoised step of ``spectral``: its k-th distinct small input, and how
# many arrays its result holds.
MEMO_USERS = {
    "_classes_of": (lambda k: np.array([(k >> b) & 1 for b in range(9)], dtype=bool).reshape(3, 3), 1),
    "_locate_dominant": (lambda k: np.array([[float(k)]]), 0),
    "_class_step": (lambda k: np.array([[float(k)]]), 3),
    "_left_step": (lambda k: np.array([[float(k)]]), 1),
}


def _memo_args(name, block):
    """The arguments of a memoised step for one input block."""
    if name == "_left_step":  # the left iteration takes the balancing of the block
        return (block, *spectral._balance(block))
    return (block,)


def _bracket_width(block, vector):
    """The relative width ``(hi - lo) / lo`` of the Collatz--Wielandt ratios of a positive vector."""
    ratios = block @ vector / vector
    return (ratios.max() - ratios.min()) / ratios.min()


def _log_bracket_width(log_entries, vector):
    """:func:`_bracket_width` on ``exp(log_entries)``, summed in log space so that no entry overflows."""
    terms = log_entries + np.log(vector)[None, :]
    top = terms.max(axis=1)
    log_ratios = top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - np.log(vector)
    return math.expm1(log_ratios.max() - log_ratios.min())


def _count_calls(monkeypatch, *names):
    """Count the calls of the named functions of ``spectral`` (each takes one argument)."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(block, name=name, original=getattr(spectral, name)):
            calls[name] += 1
            return original(block)
        monkeypatch.setattr(spectral, name, counted)
    return calls


def _clear_memos(clear=True):
    if clear:
        clear_memos()


# Its class step certifies the right vector only: the left one comes from _left_step.
_LEFT_BY_POWER_ITERATION = np.exp([[-math.inf, -25.0, -math.inf, -36.0], [13.0, -math.inf, -24.0, 34.0],
                                   [-math.inf, 0.0, -math.inf, -26.0], [-35.0, -math.inf, -math.inf, 32.0]])


class TestClassStep:
    def _class_blocks(self, rng, count):
        """Log-blocks of cyclic classes of random sparse matrices, entries in +-60."""
        blocks = []
        while len(blocks) < count:
            d = int(rng.integers(1, 10))
            log_m = rng.uniform(-60.0, 60.0, size=(d, d))
            log_m[rng.random((d, d)) < float(rng.uniform(0.2, 0.7))] = -math.inf
            dec = spectral._decompose(log_m > -math.inf, range(d))
            for cls, cyclic in zip(dec.classes, dec.cyclic):
                if cyclic:
                    blocks.append(log_m[np.ix_(cls, cls)])
        return blocks

    def test_tropical_balance_matches_karp_and_balances(self, rng):
        """Karp's mean of the loops, potentials that bound every edge, and a cycle that meets the bound.

        ``_balance`` (closed forms for one or two states) and
        ``_tropical_balance`` both hold all three, up to a few ulps of the
        heaviest walk of ``n`` steps.
        """
        for block in self._class_blocks(rng, 400):
            n = block.shape[0]
            finite = block > -math.inf
            ulp = math.ulp(n * float(np.abs(block[finite]).max()))
            want_mu = _reference_max_cycle_mean(block)
            for balance in (spectral._tropical_balance, spectral._balance):
                mu, p = balance(block)
                assert abs(mu - want_mu) <= 4 * ulp
                slack = np.where(finite, block + p[None, :] - p[:, None] - mu, -math.inf)
                assert slack.max() <= 8 * ulp
                tight = slack >= -8 * ulp
                assert any(spectral._decompose(tight, range(n)).cyclic), (block, balance)

    @staticmethod
    def _hamiltonian_blocks(rng):
        """Log-blocks of 1 to 70 states and 130 more of up to 9, each one class through a Hamiltonian cycle."""
        sizes = list(range(1, 71)) + [int(k) for k in rng.integers(1, 10, size=130)]
        for n in sizes:
            block_log = rng.uniform(-60.0, 60.0, size=(n, n))
            block_log[rng.random((n, n)) < float(rng.uniform(0.0, 0.5))] = -math.inf
            block_log[np.arange(n), (np.arange(n) + 1) % n] = 0.0
            yield block_log

    def test_power_iteration_bit_identical_to_reference(self, rng):
        """Balanced class blocks of 1 to 70 states, C-order and transposed (as the left step)."""
        for block_log in self._hamiltonian_blocks(rng):
            balanced = spectral._balanced_exp(block_log, *spectral._tropical_balance(block_log))
            for block in (balanced, balanced.T):
                lam, vector, residual = spectral._power_iteration(block)
                want_lam, want_vector, want_residual = _reference_power_iteration(block)
                assert (lam.hex(), residual.hex()) == (want_lam.hex(), want_residual.hex())
                assert vector.tobytes() == want_vector.tobytes()

    def test_perron_pairs_are_bracketed(self, rng):
        """The blocks of the power-iteration pin, C-order and transposed: every vector the squaring or a
        closed form returns has a Collatz--Wielandt bracket of at most 1e-13, and so has its residual."""
        pairs = lefts = 0
        for block_log in self._hamiltonian_blocks(rng):
            balanced = spectral._balanced_exp(block_log, *spectral._balance(block_log))
            for block in (balanced, balanced.T):
                pair = spectral._perron_pair(block)
                if pair is None:
                    continue
                pairs += 1
                lam, right, left = pair
                assert _bracket_width(block, right) <= 1e-13
                unit = right / np.linalg.norm(right)
                assert np.abs(block @ unit - lam * unit).max() <= 1e-13 * lam
                if left is not None:
                    lefts += 1
                    assert _bracket_width(block.T, left) <= 1e-13
        assert pairs == 400 and lefts >= 390

    def test_closed_forms_match_eigvals(self, rng):
        """One state is exact; two states give the root of ``np.linalg.eigvals`` and vectors it brackets."""
        for x in (0.0, -3.5, 7e307, -5e-324):
            mu, pot, lam, right, left = spectral._class_step(np.array([[x]]))
            assert (mu, lam) == (x, 1.0)
            assert pot.tolist() == [0.0] and right.tolist() == left.tolist() == [1.0]
        lefts = 0
        for _ in range(300):
            block_log = rng.uniform(-30.0, 30.0, size=(2, 2))
            block_log[np.diag_indices(2)] = np.where(rng.random(2) < 0.3, -math.inf, block_log.diagonal())
            mu, pot, lam, right, left = spectral._class_step(block_log)
            block = spectral._balanced_exp(block_log, mu, pot)
            assert lam == pytest.approx(max(np.linalg.eigvals(block).real), rel=1e-14)
            for matrix, vector in ((block, right), (block.T, left)):
                if vector is not None:
                    ratios = matrix @ vector / vector
                    assert np.abs(ratios - lam).max() <= 1e-13 * lam
            lefts += left is not None
        assert lefts >= 290

    def test_large_class_is_balanced_once(self, rng, monkeypatch):
        """Above the memo bound, one class step balances the block and returns both vectors."""
        calls = _count_calls(monkeypatch, "_class_step", "_tropical_balance", "_power_iteration")
        n = numerics.MEMO_MAX_STATES + 1
        data = perron_from_log(rng.uniform(-1.0, 1.0, size=(n, n)), range(n))
        assert calls == {"_class_step": 1, "_tropical_balance": 1, "_power_iteration": 0}
        assert data.right.sum() == pytest.approx(1.0, abs=1e-12)

    def test_memo_hits_equal_recomputation(self, rng):
        """Cold and warm memos give the same bytes, interleaved with other matrices."""
        ms = [random_matrix(rng, int(rng.integers(2, 8)), density=0.6 if k % 3 else 1.0) for k in range(30)]
        ms.append(_LEFT_BY_POWER_ITERATION)

        def outputs(m, cold):
            log_m = safe_log(m)
            _clear_memos(cold)
            dec = classes(NonnegMatrix(m))
            found = dec.classes, dec.cyclic, dec.class_of.tobytes()
            _clear_memos(cold)
            located = spectral.dominant_class(log_m)
            if located is None:
                return found, None
            _clear_memos(cold)
            data = perron_from_log(log_m, located[1], located[0])
            index, states, root = located
            return found, (index, states, root.hex(), data.log_lam.hex(), data.left.tobytes(),
                           data.right.tobytes(), data)

        cold = [outputs(m, cold=True) for m in ms]
        warm = [outputs(m, cold=False) for m in ms + ms[::-1]]
        assert all(getattr(spectral, name).cache_info().hits > 0 for name in MEMO_USERS)
        for (got_found, got), (want_found, want) in zip(warm, cold + cold[::-1]):
            assert got_found == want_found
            assert (got is None) == (want is None)
            if got is not None:
                assert got[:6] == want[:6]
                assert not got[6].left.flags.writeable and not got[6].right.flags.writeable

    @pytest.mark.parametrize("name", MEMO_USERS)
    def test_memo_returns_read_only_arrays(self, name):
        memo = getattr(spectral, name)
        _clear_memos()
        block = np.array([[0.0, 1.0], [2.0, -math.inf]])
        for _ in range(2):  # a miss, then a hit
            arrays = arrays_in(memo(*_memo_args(name, block > -math.inf if name == "_classes_of" else block)))
            assert len(arrays) == MEMO_USERS[name][1]
            assert not any(a.flags.writeable for a in arrays)
        assert memo.cache_info().hits == 1

    @pytest.mark.parametrize("name", MEMO_USERS)
    def test_memo_holds_a_bounded_number_of_small_blocks(self, name):
        memo, (make, _) = getattr(spectral, name), MEMO_USERS[name]
        _clear_memos()
        memo(*_memo_args(name, np.zeros((numerics.MEMO_MAX_STATES + 1,) * 2, dtype=make(0).dtype)))
        assert memo.cache_info().currsize == 0
        for k in range(numerics.MEMO_ENTRIES + 5):
            memo(*_memo_args(name, make(k)))
        assert memo.cache_info().currsize == numerics.MEMO_ENTRIES


def test_memo_users_are_every_memo_of_spectral():
    memos = {name for name, obj in vars(spectral).items() if hasattr(obj, "cache_clear")}
    assert memos == set(MEMO_USERS)


def _reference_locate_dominant(log_entries):
    """The dominant class by balancing and iterating every cyclic class, in index order."""
    decomposition = spectral._classes_of(log_entries > -math.inf)
    best = None
    for k, cls in enumerate(decomposition.classes):
        if not decomposition.cyclic[k]:
            continue
        whole = len(cls) == log_entries.shape[0]
        mu, _, lam, _, _ = spectral._class_step(log_entries if whole else log_entries[np.ix_(cls, cls)])
        root = math.log(lam) + mu
        if best is None or root > best[2]:
            best = (k, cls, root)
    return best


def _reducible_log_matrix(rng):
    """2 to 6 irreducible blocks (some acyclic singletons) joined by upper-triangular edges, states shuffled.

    Each block carries a Hamiltonian cycle and entries within 5 of its own
    offset; the offsets lie in +-700 or in +-3.  In about a third of the
    matrices the last block repeats the first, so two classes have equal roots.
    """
    sizes = [int(n) for n in rng.integers(1, 7, size=int(rng.integers(2, 7)))]
    duplicate = rng.random() < 0.35
    if duplicate:
        sizes[-1] = sizes[0]
    offsets = rng.uniform(-700.0, 700.0, size=len(sizes)) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0, size=len(sizes))
    blocks = []
    for n, offset in zip(sizes, offsets):
        block = offset + rng.uniform(-5.0, 5.0, size=(n, n))
        block[rng.random((n, n)) < 0.5] = -math.inf
        if n > 1 or rng.random() < 0.7:
            block[np.arange(n), (np.arange(n) + 1) % n] = offset
        blocks.append(block)
    if duplicate:
        blocks[-1] = blocks[0]
    d = sum(sizes)
    log_m = rng.uniform(-700.0, 700.0, size=(d, d))
    log_m[~np.triu(rng.random((d, d)) < 0.2, 1)] = -math.inf
    start = 0
    for n, block in zip(sizes, blocks):
        log_m[start:start + n, start:start + n] = block
        start += n
    perm = rng.permutation(d)
    return log_m[np.ix_(perm, perm)]


# Log entries near the top and bottom of the float range: the bounds of the
# huge classes overflow to NaN, which must never skip a class, and the other
# classes keep finite bounds.  In the first only the third step overflows; in
# the second and the fourth an earlier one does.
_EXTREME_LOG_MATRICES = [
    [[7e307, 0.0, -math.inf, -math.inf], [-math.inf, 1.0, 2.0, 0.0],
     [-math.inf, 2.0, 1.0, -math.inf], [-math.inf, -math.inf, -math.inf, -5.0]],
    [[9e307, 0.0, -math.inf], [-math.inf, 8e307, 2.0], [-math.inf, -math.inf, 1.0]],
    [[-math.inf, 1.7e308, 0.0, -math.inf], [-1.7e308, -math.inf, -math.inf, -math.inf],
     [-math.inf, -math.inf, 1.0, 3.0], [-math.inf, -math.inf, 3.0, 1.0]],
    [[-1e308, 0.0, -math.inf], [-math.inf, 1.0, 2.0], [-math.inf, 2.0, 1.0]],
]


def _tie_behind_a_looser_bound():
    """Class 0, a self-loop, ties with class 1, whose looser bound puts it first in the visit."""
    pair = np.array([[0.0, 0.0], [0.0, -math.inf]])  # root log((1 + sqrt 5) / 2), bound log 2
    mu, _, lam, _, _ = spectral._class_step(pair)
    log_m = np.full((3, 3), -math.inf)
    log_m[0, 0] = math.log(lam) + mu
    log_m[0, 1] = 0.0
    log_m[1:, 1:] = pair
    return log_m


class TestLocateDominant:
    def _cyclic_members(self, log_m):
        dec = spectral._classes_of(log_m > -math.inf)
        return [cls for cls, cyclic in zip(dec.classes, dec.cyclic) if cyclic]

    def test_matches_visiting_every_class(self, rng):
        matrices = [_reducible_log_matrix(rng) for _ in range(600)]
        matrices += [np.array(m) for m in _EXTREME_LOG_MATRICES] + [_tie_behind_a_looser_bound()]
        ties = 0
        for log_m in matrices:
            clear_memos()
            got = spectral._locate_dominant(log_m)
            want = _reference_locate_dominant(log_m)
            if want is None:
                assert got is None
                continue
            assert (got[0], got[1], got[2].hex()) == (want[0], want[1], want[2].hex())
            roots = [math.log(step[2]) + step[0] for step in map(
                spectral._class_step, (log_m[np.ix_(c, c)] for c in self._cyclic_members(log_m)))]
            ties += roots.count(want[2]) > 1
        assert ties >= 50  # duplicated blocks: the smallest index must win

    def test_bounds_cover_every_class_root(self, rng):
        for _ in range(300):
            log_m = _reducible_log_matrix(rng)
            members = self._cyclic_members(log_m)
            if len(members) < 2:  # a lone cyclic class is never bounded
                continue
            bound = spectral._root_bounds(log_m, members)
            for cls, upper in zip(members, bound):
                mu, _, lam, _, _ = spectral._class_step(log_m[np.ix_(cls, cls)])
                root = math.log(lam) + mu
                # a bound can be tight (a single cycle) and round an ulp below the
                # root; the search skips only with a margin of 1e-9 (1 + |best|)
                assert upper >= root - 1e-12 * (1.0 + abs(root))

    def test_an_overflowing_bound_stays_in_its_class(self):
        overflowed = 0
        for log_m in map(np.array, _EXTREME_LOG_MATRICES):
            members = self._cyclic_members(log_m)
            bound = spectral._root_bounds(log_m, members)
            for cls, upper in zip(members, bound):
                block = log_m[np.ix_(cls, cls)]
                if np.abs(block[block > -math.inf]).max() < 1e3:
                    assert math.isfinite(upper), (log_m, cls)
                else:
                    overflowed += upper == math.inf
        assert overflowed == 4

    def _four_below_one(self):
        """Five 2-state classes joined by transient edges; class 2 dominates by e^37."""
        log_m = np.full((10, 10), -math.inf)
        for k, offset in enumerate([0.0, 1.0, 40.0, 2.0, 3.0]):
            log_m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = offset + np.array([[0.5, 1.0], [1.0, -0.5]])
            if k:
                log_m[2 * k - 1, 2 * k] = 3.0  # a transient edge into the next class
        return log_m

    def test_classes_below_the_winner_are_not_balanced(self, monkeypatch):
        """One dominant class and four far below it: only the dominant one gets a class step."""
        calls = _count_calls(monkeypatch, "_class_step")
        clear_memos()
        located = spectral.dominant_class(self._four_below_one())
        assert located[:2] == (2, (4, 5))
        assert calls == {"_class_step": 1}

    def test_an_overflowing_winner_still_skips_the_others(self, monkeypatch):
        """A self-loop at 9e307 overflows its own bound, not those of the four classes below it."""
        log_m = np.full((11, 11), -math.inf)
        log_m[1:, 1:] = self._four_below_one()
        log_m[0, 0] = 9e307
        log_m[0, 1] = 0.0
        calls = _count_calls(monkeypatch, "_class_step")
        clear_memos()
        assert spectral.dominant_class(log_m) == (0, (0,), 9e307)
        assert calls == {"_class_step": 1}

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_ring_raises_only_when_visited(self):
        """A ring whose max-plus walks overflow is skipped below a self-loop at 0, and visited above one at -6e307."""
        log_m = np.full((5, 5), -math.inf)
        log_m[np.arange(4), (np.arange(4) + 1) % 4] = -5e307  # bound -5e307; 4 steps leave the float range
        log_m[0, 4] = 0.0
        with pytest.raises(ClassStructureError, match="max-plus walks of the class leave the float range"):
            spectral._class_step(log_m[:4, :4])
        log_m[4, 4] = 0.0
        clear_memos()
        assert spectral.dominant_class(log_m) == (1, (4,), 0.0)
        log_m[4, 4] = -6e307
        clear_memos()
        with pytest.raises(ClassStructureError):
            spectral.dominant_class(log_m)


# Frozen copies of the Perron and twist kernels before their numpy calls were
# trimmed; the library's must return the same bits.  Helpers whose code did not
# change (``_balance`` of one or two states, ``_balanced_exp``,
# ``_two_state_pair``, ``_power_iteration``) are the library's own.
def _frozen_tropical_balance(block_log):
    n = block_log.shape[0]
    walks = np.zeros((n + 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            (block_log + walks[k]).max(axis=1, out=walks[k + 1])
        final = walks[n]
        means = ((final - walks[:n]) / np.arange(n, 0, -1)[:, None]).min(axis=0)
        mu = float(means[final > -math.inf].max(initial=-math.inf))
        if not math.isfinite(mu):
            raise ClassStructureError("the max-plus walks of the class leave the float range")
        pot = (walks - np.arange(n + 1)[:, None] * mu).max(axis=0)
    return mu, pot


def _frozen_bracketed(image, x):
    if not x.min() > 0:
        return False
    ratios = image / x
    return spectral._tight(ratios.min(), ratios.max())


def _frozen_squared_pair(block):
    n = block.shape[0]
    ones = np.ones(n)
    power = block + np.eye(n)
    for _ in range(spectral._UNCHECKED_SQUARINGS):
        power = power.dot(power)
    previous = right_only = None
    for _ in range(spectral._SQUARING_CAP):
        power /= power.max()
        power = power.dot(power)
        right = power.dot(ones)
        image = block.dot(right)
        if _frozen_bracketed(image, right):
            left = ones.dot(power)
            lam = float(left.dot(image)) / float(left.dot(right))
            if _frozen_bracketed(left.dot(block), left):
                return lam, right, left
            right_only = lam, right, None
        if previous is not None and (np.abs(right - previous) <= spectral._STALL_RTOL * right).all():
            break
        previous = right
    return right_only


def _frozen_perron_pair(block):
    n = block.shape[0]
    if not block.max() < math.inf:
        return None
    if n == 1:
        return float(block[0, 0]), np.ones(1), np.ones(1)
    if n == 2:
        return spectral._two_state_pair(block)
    return _frozen_squared_pair(block)


def _frozen_perron(log_entries, cls):
    """``(log_lam, left, right)`` of a cyclic class, with the class step unrolled and unmemoised."""
    d = log_entries.shape[0]
    idx = np.asarray(sorted(int(i) for i in cls), dtype=int)
    block_log = log_entries[np.ix_(idx, idx)]
    mu, pot = spectral._balance(block_log) if idx.size <= 2 else _frozen_tropical_balance(block_log)
    block = spectral._balanced_exp(block_log, mu, pot)
    pair = _frozen_perron_pair(block)
    if pair is None:
        lam, right_block, _ = spectral._power_iteration(block)
        left_block = None
    else:
        lam, right_block, left_block = pair
    if left_block is None:
        _, left_block, _ = spectral._power_iteration(spectral._balanced_exp(block_log, mu, pot).T)
    log_lam = math.log(lam) + mu
    log_right = pot + safe_log(np.abs(right_block))
    log_right -= numerics.logsumexp(log_right)
    log_left = -pot + safe_log(np.abs(left_block))
    log_left -= numerics.logsumexp(log_left + log_right)
    right = np.zeros(d)
    left = np.zeros(d)
    right[idx] = np.exp(log_right)
    left[idx] = np.exp(log_left)
    return log_lam, left, right


def _frozen_twist(log_entries, cls):
    log_lam, left, right = _frozen_perron(log_entries, cls)
    idx = np.asarray(cls, dtype=int)
    block = log_entries[np.ix_(idx, idx)]
    with np.errstate(divide="ignore"):
        log_u = np.log(left[idx])
        log_w = np.log(right[idx])
    log_weights = log_u[:, None] + block + log_w[None, :]
    log_z = numerics.logsumexp(log_weights)
    entries = np.zeros_like(log_entries)
    finite = block > -math.inf
    sub = np.zeros_like(block)
    sub[finite] = np.exp(log_weights[finite] - log_z)
    if not np.isfinite(sub).all():
        raise PerronConvergenceError(f"the Perron vectors of class {cls} leave the float range")
    entries[np.ix_(idx, idx)] = sub
    return entries, (log_lam, left, right)


def _bits(result):
    """Floats as hex and arrays as dtype, shape and bytes, through tuples."""
    if isinstance(result, tuple):
        return tuple(_bits(item) for item in result)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return result.hex()
    return result


def _outcome(kernel, *args):
    """The bits of what ``kernel`` returns, or the type and message of the library error it raises."""
    try:
        return _bits(kernel(*args))
    except (ClassStructureError, PerronConvergenceError) as exc:
        return type(exc).__name__, str(exc)


def _library_perron(log_entries, cls):
    data = spectral._perron(log_entries, cls, 0)
    return data.log_lam, data.left, data.right


def _library_twist(log_entries, cls):
    entries, data = spectral._twist(log_entries, cls)
    return entries, (data.log_lam, data.left, data.right)


def test_trimmed_kernels_match_their_frozen_copies(rng):
    """About 300 seeded log-matrices of 1 to 12 states, entries within +-40 or +-700, with -inf patterns.

    On every cyclic class: ``_tropical_balance`` of the class block,
    ``_perron_pair`` of its balanced block and of the transpose, ``_perron``
    and ``_twist``, each bit for bit, cold memos for every matrix.
    """
    pairs, twists = collections.Counter(), 0
    for k in range(300):
        n = k % 12 + 1
        scale = 40.0 if k % 2 else 700.0
        log_m = rng.uniform(-scale, scale, size=(n, n))
        log_m[rng.random((n, n)) < float(rng.uniform(0.0, 0.6))] = -math.inf
        clear_memos()
        dec = spectral._decompose(log_m > -math.inf, range(n))
        for cls in dec.cyclic_classes():
            block_log = log_m[np.ix_(cls, cls)]
            assert _outcome(spectral._tropical_balance, block_log) == _outcome(_frozen_tropical_balance, block_log)
            balanced = spectral._balanced_exp(block_log, *spectral._balance(block_log))
            for block in (balanced, balanced.T):
                got = _outcome(spectral._perron_pair, block)
                assert got == _outcome(_frozen_perron_pair, block)
                pairs["none" if got is None else "right only" if got[2] is None else "both"] += 1
            assert _outcome(_library_perron, log_m, cls) == _outcome(_frozen_perron, log_m, cls)
            got = _outcome(_library_twist, log_m, cls)
            assert got == _outcome(_frozen_twist, log_m, cls)
            twists += len(got) == 2 and isinstance(got[1], tuple)
    # the power iteration stands in for both vectors, and for the left one alone
    assert pairs["both"] >= 400 and pairs["none"] >= 20 and pairs["right only"] >= 20 and twists >= 150


def test_bracket_fails_on_a_nan_ratio():
    """``min`` and ``max`` of Python floats may pass over a NaN, which must still fail the bracket."""
    x = np.ones(3)
    for image in ([math.nan, 1.0, 1.0], [1.0, math.nan, 1.0], [1.0, 1.0, math.nan]):
        assert not spectral._bracketed(np.array(image), x)
    assert spectral._bracketed(np.ones(3), x)
