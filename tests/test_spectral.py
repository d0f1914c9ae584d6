import math

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
from conftest import clear_memos


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

    def test_parry_mass_below_float_range_raises(self):
        # Two complete bipartite layers of 30 states (root 30, period 2) and a
        # return path of 250 states: the power iteration runs long enough to
        # resolve the path's Parry mass, about 30^-251, which underflows.  A
        # measure missing those edges would break the exact-support promise.
        layers = np.kron([[0.0, 1.0], [1.0, 0.0]], np.ones((30, 30)))
        support = self._with_return_path(layers, 250)
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


def _reference_tropical_balance(block_log):
    """Karp's recursion and the potential relaxation as plain loops over states."""
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
    mu = float(np.max(means))
    weights = block_log - mu
    p = np.zeros(n)
    for _ in range(2 * n + 2):
        relaxed = np.maximum(p, np.max(weights + p[None, :], axis=1))
        if np.array_equal(relaxed, p):
            break
        p = relaxed
    return mu, p


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
    "_class_step": (lambda k: np.array([[float(k)]]), 2),
    "_left_step": (lambda k: np.array([[float(k)]]), 1),
}


def _memo_args(name, block):
    """The arguments of a memoised step for one input block."""
    if name == "_left_step":  # the left iteration takes the balancing of the block
        return (block, *spectral._tropical_balance(block))
    return (block,)


def _clear_memos(clear=True):
    if clear:
        clear_memos()


def _arrays_in(result):
    """Every numpy array in a memo result: tuples and dataclass fields, recursively."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return [a for item in result for a in _arrays_in(item)]
    if hasattr(result, "__dataclass_fields__"):
        return [a for field in result.__dataclass_fields__ for a in _arrays_in(getattr(result, field))]
    return []


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

    def test_tropical_balance_bit_identical_to_loops(self, rng):
        for block in self._class_blocks(rng, 400):
            mu, p = spectral._tropical_balance(block)
            want_mu, want_p = _reference_tropical_balance(block)
            assert mu.hex() == want_mu.hex()
            assert p.tobytes() == want_p.tobytes()

    def test_power_iteration_bit_identical_to_reference(self, rng):
        """Balanced class blocks of 1 to 70 states, C-order and transposed (as the left step)."""
        sizes = list(range(1, 71)) + [int(k) for k in rng.integers(1, 10, size=130)]
        for n in sizes:
            block_log = rng.uniform(-60.0, 60.0, size=(n, n))
            block_log[rng.random((n, n)) < float(rng.uniform(0.0, 0.5))] = -math.inf
            block_log[np.arange(n), (np.arange(n) + 1) % n] = 0.0  # a Hamiltonian cycle: one class
            balanced = spectral._balanced_exp(block_log, *spectral._tropical_balance(block_log))
            for block in (balanced, balanced.T):
                lam, vector, residual = spectral._power_iteration(block)
                want_lam, want_vector, want_residual = _reference_power_iteration(block)
                assert (lam.hex(), residual.hex()) == (want_lam.hex(), want_residual.hex())
                assert vector.tobytes() == want_vector.tobytes()

    def test_large_class_is_balanced_once(self, rng, monkeypatch):
        """Above the memo bound, the left step reuses the balancing of the right step."""
        calls = {"_tropical_balance": 0, "_power_iteration": 0}
        for name in calls:
            def counted(block, name=name, original=getattr(spectral, name)):
                calls[name] += 1
                return original(block)
            monkeypatch.setattr(spectral, name, counted)
        n = numerics.MEMO_MAX_STATES + 1
        data = perron_from_log(rng.uniform(-1.0, 1.0, size=(n, n)), range(n))
        assert calls == {"_tropical_balance": 1, "_power_iteration": 2}
        assert data.right.sum() == pytest.approx(1.0, abs=1e-12)

    def test_memo_hits_equal_recomputation(self, rng):
        """Cold and warm memos give the same bytes, interleaved with other matrices."""
        ms = [random_matrix(rng, int(rng.integers(2, 8)), density=0.6 if k % 3 else 1.0) for k in range(30)]

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
            arrays = _arrays_in(memo(*_memo_args(name, block > -math.inf if name == "_classes_of" else block)))
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
