import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from renyivar import (
    BoundedFn,
    Dist,
    EdgeFn,
    InputValidationError,
    InvalidDistributionError,
    NonnegMatrix,
    PairMeasure,
    numerics,
)
from renyivar.numerics import checked_array, log_matmul, log_matrix_power, logsumexp, memoised, safe_log
from conftest import library_memos


def test_safe_log_zero():
    assert safe_log(np.array([0.0, 1.0]))[0] == -math.inf
    assert safe_log(np.array([0.0, 1.0]))[1] == 0.0


def test_logsumexp_empty_and_all_neg_inf():
    assert logsumexp(np.array([])) == -math.inf
    assert logsumexp(np.array([-math.inf, -math.inf])) == -math.inf


def test_logsumexp_extreme_magnitudes():
    # e^900 overflows a double; the log-domain sum must not.
    v = np.array([900.0, 900.0 + math.log(2.0)])
    assert math.isfinite(logsumexp(v))
    assert logsumexp(v) == pytest.approx(900.0 + math.log(3.0), abs=1e-12)
    assert logsumexp(np.array([-900.0, -900.0])) == pytest.approx(
        -900.0 + math.log(2.0), abs=1e-12
    )


def test_logsumexp_axis():
    a = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(np.exp(logsumexp(a, axis=1)), [3.0, 7.0], rtol=1e-15)
    np.testing.assert_allclose(np.exp(logsumexp(a, axis=0)), [4.0, 6.0], rtol=1e-15)


@given(
    st.lists(
        st.floats(min_value=-600.0, max_value=600.0, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
def test_logsumexp_matches_shifted_direct_sum(values):
    v = np.array(values)
    m = v.max()
    expected = m + math.log(np.exp(v - m).sum())
    assert abs(logsumexp(v) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_log_matmul_matches_dense():
    rng = np.random.default_rng(3)
    a = rng.gamma(1.0, 1.0, size=(4, 4)) * (rng.random((4, 4)) < 0.8)
    b = rng.gamma(1.0, 1.0, size=(4, 4)) * (rng.random((4, 4)) < 0.8)
    got = np.exp(log_matmul(safe_log(a), safe_log(b)))
    np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-300)


def _one_shot_log_matmul(a, b):
    """The unblocked form of log_matmul, kept as the reference for its blocks."""
    return logsumexp(a[:, :, None] + b[None, :, :], axis=1)


def _random_log_matrix(rng, shape):
    m = rng.normal(scale=50.0, size=shape)
    m[rng.random(shape) < rng.uniform(0.0, 0.9)] = -math.inf
    return m


@pytest.mark.parametrize("terms", [1, 5, 64, 1000])
def test_log_matmul_blocks_match_one_shot_bytes(monkeypatch, terms):
    monkeypatch.setattr(numerics, "_MATMUL_TERMS", terms)
    rng = np.random.default_rng(terms)
    for _ in range(40):
        d, k, m = rng.integers(1, 40, size=3)
        a, b = _random_log_matrix(rng, (d, k)), _random_log_matrix(rng, (k, m))
        want = _one_shot_log_matmul(a, b)
        got = log_matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_log_matmul_default_blocks_match_one_shot_bytes():
    rng = np.random.default_rng(11)
    a, b = _random_log_matrix(rng, (300, 64)), _random_log_matrix(rng, (64, 200))
    assert b.size * a.shape[0] > numerics._MATMUL_TERMS  # several blocks
    assert log_matmul(a, b).tobytes() == _one_shot_log_matmul(a, b).tobytes()


def test_log_matmul_memory_stays_bounded():
    # The one-shot form holds three 200**3 float temporaries (184 MiB).
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(200, 200)), rng.normal(size=(200, 200))
    tracemalloc.start()
    try:
        log_matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_log_matrix_power_matches_repeated_multiplication():
    rng = np.random.default_rng(4)
    a = rng.gamma(1.0, 1.0, size=(3, 3)) * (rng.random((3, 3)) < 0.7)
    log_a = safe_log(a)
    direct = log_a
    for _ in range(6):
        direct = log_matmul(direct, log_a)
    via_power = log_matrix_power(log_a, 7)
    finite = direct > -math.inf
    np.testing.assert_array_equal(finite, via_power > -math.inf)
    np.testing.assert_allclose(via_power[finite], direct[finite], rtol=0, atol=1e-10)


def test_log_matrix_power_huge_exponent_no_overflow():
    # Entries of the 4096-step power of a matrix with spectral radius 2 are
    # astronomically large; the log-domain pipeline keeps them finite.
    log_a = safe_log(np.array([[2.0, 2.0], [2.0, 2.0]]))
    out = log_matrix_power(log_a, 4096)
    assert np.isfinite(out).all()
    assert out.max() > 2000.0


def _memo_probe():
    """A memoised function of a scalar and two arrays that counts its evaluations."""
    evaluations = []

    @memoised
    def probe(scale, x, y):
        evaluations.append((scale, x.tobytes(), y.tobytes()))
        out = scale * x + y
        out.flags.writeable = False
        return out

    return probe, evaluations


def test_memoised_keys_on_scalars_and_array_bytes():
    probe, evaluations = _memo_probe()
    x, y = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
    first = probe(2.0, x, y)
    assert probe(2.0, x.copy(), y.copy()) is first  # equal bytes: a hit
    assert probe(2.0, np.asfortranarray(x), y) is first  # the key is the C-order bytes
    assert len(evaluations) == 1
    probe(3.0, x, y)  # another scalar
    probe(2.0, x, np.nextafter(y, 2.0))  # y moved by one ulp
    probe(2.0, x.reshape(2, 3), y.reshape(2, 3))  # same bytes, other shape
    assert len(evaluations) == 4
    assert probe.cache_info().hits == 2
    assert first.tobytes() == (2.0 * x + y).tobytes()


def test_memoised_is_bounded_and_bypassed_above_the_state_cap():
    probe, evaluations = _memo_probe()
    small, big = np.zeros((1, 1)), np.zeros((numerics.MEMO_MAX_STATES + 1, 1))
    for args in ((1.0, big, big), (1.0, small, big), (1.0, big, small)):  # broadcast to big
        probe(*args)
        probe(*args)
    assert probe.cache_info().currsize == 0 and len(evaluations) == 6
    for k in range(numerics.MEMO_ENTRIES + 5):
        probe(float(k), small, small)
    assert probe.cache_info().currsize == numerics.MEMO_ENTRIES


class _Sized:
    """An immutable object with a size ``d``, hashed and compared by identity."""

    def __init__(self, d):
        self.d = d


def test_memoised_keys_objects_by_identity_and_bypasses_large_ones():
    evaluations = []

    @memoised
    def probe(obj, scale):
        evaluations.append(obj)
        return scale * obj.d

    small, twin = _Sized(3), _Sized(3)
    assert probe(small, 2.0) == probe(small, 2.0) == 6.0
    probe(twin, 2.0)  # an equal object of another identity: a miss
    assert evaluations == [small, twin] and probe.cache_info().hits == 1
    big = _Sized(numerics.MEMO_MAX_STATES + 1)
    probe(big, 1.0)
    probe(big, 1.0)
    assert evaluations[2:] == [big, big] and probe.cache_info().currsize == 2


def test_every_library_memo_is_bounded():
    memos = library_memos()
    assert len(memos) >= 5  # four spectral steps and the Renyi divergence
    assert all(memo.cache_info().maxsize == numerics.MEMO_ENTRIES for memo in memos)


# Every rejection of the five value types, with the exact error class each raises.
_NAN, _INF = math.nan, math.inf
_REJECTED = [
    # empty, wrong rank or not square
    (Dist, [], InvalidDistributionError),
    (Dist, [[0.5, 0.5]], InvalidDistributionError),
    (BoundedFn, [], InputValidationError),
    (BoundedFn, [[1.0]], InputValidationError),
    (NonnegMatrix, np.zeros((0, 0)), InputValidationError),
    (NonnegMatrix, [1.0, 2.0], InputValidationError),
    (NonnegMatrix, [[1.0, 2.0, 3.0]], InputValidationError),
    (PairMeasure, np.zeros((0, 0)), InvalidDistributionError),
    (PairMeasure, [0.5, 0.5], InvalidDistributionError),
    (PairMeasure, [[0.5, 0.5]], InvalidDistributionError),
    (EdgeFn, np.zeros((0, 0)), InputValidationError),
    (EdgeFn, [1.0], InputValidationError),
    (EdgeFn, [[1.0, 2.0]], InputValidationError),
    # NaN and +-inf
    (Dist, [_NAN, 1.0], InvalidDistributionError),
    (Dist, [_INF, 1.0], InvalidDistributionError),
    (BoundedFn, [_NAN, 1.0], InputValidationError),
    (BoundedFn, [1.0, _INF], InputValidationError),
    (BoundedFn, [-_INF, 1.0], InputValidationError),
    (NonnegMatrix, [[_NAN, 0.0], [0.0, 1.0]], InputValidationError),
    (NonnegMatrix, [[1.0, _INF], [0.0, 1.0]], InputValidationError),
    (PairMeasure, [[_NAN, 0.0], [0.0, 0.5]], InvalidDistributionError),
    (PairMeasure, [[_INF, 0.0], [0.0, 0.5]], InvalidDistributionError),
    (EdgeFn, [[_NAN, 0.0], [0.0, 1.0]], InputValidationError),
    (EdgeFn, [[0.0, _INF], [0.0, 1.0]], InputValidationError),
    (EdgeFn, [[0.0, -_INF], [0.0, 1.0]], InputValidationError),
    # negative entries
    (Dist, [0.5, -0.1], InvalidDistributionError),
    (NonnegMatrix, [[1.0, -0.1], [0.0, 1.0]], InputValidationError),
    (PairMeasure, [[0.5, -0.1], [0.3, 0.3]], InvalidDistributionError),
    # a zero or an overflowing total
    (Dist, [0.0, 0.0], InvalidDistributionError),
    (Dist, [1e308, 1e308], InvalidDistributionError),
    (PairMeasure, np.zeros((2, 2)), InvalidDistributionError),
    (PairMeasure, np.full((2, 2), 1e308), InvalidDistributionError),
    # not convertible to an array of floats
    (Dist, ["a"], InvalidDistributionError),
    (Dist, [[1], [2, 3]], InvalidDistributionError),
    (Dist, {}, InvalidDistributionError),
    (Dist, [10**400], InvalidDistributionError),
    (PairMeasure, [[0.5, 0.5], [0.5]], InvalidDistributionError),
    (EdgeFn, [[1.0], [0.0, 1.0]], InputValidationError),
]


# What each value type calls its array in its messages.
_WHAT = {
    Dist: "weights",
    BoundedFn: "function values",
    NonnegMatrix: "entries",
    PairMeasure: "pair-measure entries",
    EdgeFn: "edge-function values",
}


@pytest.mark.parametrize(
    "value_type, raw, error", _REJECTED, ids=[f"{t.__name__}-{i}" for i, (t, _, _) in enumerate(_REJECTED)]
)
def test_value_types_reject_invalid_arrays(value_type, raw, error):
    with pytest.raises(InputValidationError) as caught:
        value_type(raw)
    assert type(caught.value) is error
    assert _WHAT[value_type] in str(caught.value)


def test_checked_array_returns_a_read_only_copy():
    raw = np.array([[0.0, -math.inf], [1.0, 2.0]])
    out = checked_array(raw, "entries", square=True, log=True)
    assert out is not raw and np.array_equal(out, raw) and not out.flags.writeable
    assert raw.flags.writeable
    normalised = checked_array([2.0, 6.0], "weights", nonneg=True, normalise=True)
    assert normalised.tobytes() == (np.array([2.0, 6.0]) / 8.0).tobytes()
    with pytest.raises(InputValidationError, match="entries must be finite or -inf"):
        checked_array([[math.inf]], "entries", square=True, log=True)
