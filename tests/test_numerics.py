import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from renyivar import numerics
from renyivar.numerics import log_matmul, log_matrix_power, logsumexp, safe_log


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
