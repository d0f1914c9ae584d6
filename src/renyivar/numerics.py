"""Log-domain building blocks.

Sums of products like sum_x nu(x)^a theta(x)^(1-a) and entries of high matrix
powers overflow or underflow quickly, so every reduction in this library runs
in log space.  The convention throughout: ``-inf`` is the logarithm of zero.
Such entries drop out of log-sum-exp reductions and never turn into NaN.

It also holds :func:`checked_array`, the one rule for a valid input array, and
:func:`memoised`, the one cache of the library: it keys a deterministic
function on the exact bytes of its array arguments and on its other
arguments themselves (immutable library objects by identity).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputValidationError


def checked_array(
    x,
    what: str,
    error: type[Exception] = InputValidationError,
    *,
    square: bool = False,
    nonneg: bool = False,
    normalise: bool = False,
    log: bool = False,
) -> np.ndarray:
    """``x`` as a read-only float64 copy, if it is a valid input array; else ``error``.

    Valid: convertible to float64, nonempty and 1-d, or with ``square`` a
    nonempty square matrix, of finite entries, none negative with ``nonneg``.
    With ``log`` the entries are logs: ``-inf`` is allowed, NaN and ``+inf``
    are not, the sign is free.  With ``normalise`` the array is divided by its
    total, which must be finite and positive.  Messages read ``"{what} must
    ..."``, or ``"the total of the {what} overflows"``.
    """
    try:
        a = np.asarray(x, dtype=float)
    except (ValueError, TypeError, OverflowError):  # strings, ragged rows, mappings, huge ints
        raise error(f"{what} must be an array of real numbers") from None
    if square:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise error(f"{what} must form a nonempty square matrix")
    elif a.ndim != 1 or a.size == 0:
        raise error(f"{what} must be a nonempty 1-d array")
    if not a.max() < math.inf:  # the max is NaN if an entry is, and no comparison with NaN holds
        raise error(f"{what} must be finite or -inf" if log else f"{what} must be finite")
    if not log:
        lo = a.min()
        if not lo > -math.inf:
            raise error(f"{what} must be finite")
        if nonneg and lo < 0:
            raise error(f"{what} must be nonnegative")
    if normalise:
        with np.errstate(over="ignore"):
            total = float(a.sum())
        if not math.isfinite(total):
            raise error(f"the total of the {what} overflows")
        if total <= 0.0:
            raise error(f"{what} must not be identically zero")
    a = a / total if normalise else a.copy()
    a.flags.writeable = False
    return a


def safe_log(x: np.ndarray | float) -> np.ndarray:
    """Elementwise natural log with log(0) = -inf and no warnings.

    Negative inputs are a caller bug; they are rejected loudly rather than
    silently masked.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("safe_log expects nonnegative input")
    out = np.full(arr.shape, -np.inf)
    np.log(arr, out=out, where=arr > 0)
    return out


def logsumexp(a: np.ndarray | list, axis: int | None = None):
    """Stable log(sum(exp(a))) that tolerates -inf entries and empty input.

    With ``axis=None`` returns a float; otherwise an array with that axis
    reduced.  An all ``-inf`` (or empty) reduction yields ``-inf``, matching
    log of an empty sum.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        if a.size == 0:
            return -math.inf
        m = float(a.max())
        if m == -math.inf:
            return -math.inf
        return m + math.log(float(np.exp(a - m).sum()))
    m = np.max(a, axis=axis, keepdims=True)
    # Replace -inf pivots by 0 so the subtraction below never forms inf-inf.
    pivot = np.where(np.isneginf(m), 0.0, m)
    s = np.sum(np.exp(a - pivot), axis=axis)
    out = np.full(s.shape, -np.inf)
    np.log(s, out=out, where=s > 0)
    return np.squeeze(pivot, axis=axis) + out


# Terms a[i, k] + b[k, j] that log_matmul aims to hold at once (8 MiB of floats).
_MATMUL_TERMS = 2**20


def log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product in log space: out[i, j] = LSE_k (a[i, k] + b[k, j]).

    The terms are formed for a block of rows of ``a`` at a time, at most
    ``max(_MATMUL_TERMS, b.size)`` of them (one row of ``a`` at the least), so
    memory stays linear in the size of ``b``.  Each entry is reduced on its
    own, so the blocks change no bit of the result.
    """
    rows = max(1, _MATMUL_TERMS // max(1, b.size))
    out = np.empty((a.shape[0], b.shape[1]))
    for start in range(0, a.shape[0], rows):
        block = slice(start, start + rows)
        out[block] = logsumexp(a[block, :, None] + b[None, :, :], axis=1)
    return out


def log_vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-vector times matrix in log space: out[j] = LSE_i (v[i] + m[i, j])."""
    return logsumexp(v[:, None] + m, axis=0)


def log_matrix_power(log_m: np.ndarray, n: int) -> np.ndarray:
    """Log-domain n-th matrix power by binary exponentiation (n >= 1)."""
    if n < 1:
        raise ValueError("matrix power needs n >= 1")
    result: np.ndarray | None = None
    base = np.asarray(log_m, dtype=float)
    while True:
        if n & 1:
            result = base if result is None else log_matmul(result, base)
        n >>= 1
        if n == 0:
            break
        base = log_matmul(base, base)
    assert result is not None
    return result


# With these bounds a memo's array keys take at most 64 entries x 64 x 64 floats x 8 bytes = 2 MiB
# per array argument.
MEMO_ENTRIES = 64
MEMO_MAX_STATES = 64

# Heads the key of an array argument: (_ARRAY, shape, dtype, bytes).  A plain tuple is
# built faster than a named tuple on every call, and no scalar argument can pose as one.
_ARRAY = object()


def memoised(f):
    """``f(*args)`` memoised on the exact bytes of its arrays and the hash of its other arguments.

    Each array argument is keyed on its shape, dtype and C-order bytes, and
    ``f`` sees a read-only array rebuilt from those bytes.  Any other argument
    is its own key: a scalar by value, and an immutable library object (an
    ``eq=False`` dataclass such as a pair measure) by identity.  The memo
    holds a strong reference to each key, so no identity is reused while its
    entry lives.  ``f`` is deterministic and returns immutable or read-only
    results, so a hit gives what a recomputation would.  A call with an array
    of more than ``MEMO_MAX_STATES`` rows, or an argument whose ``.d`` exceeds
    ``MEMO_MAX_STATES``, calls ``f`` directly, on C-contiguous copies of its
    arrays.  At most ``MEMO_ENTRIES`` results are kept, least recently used
    first out.
    """
    @functools.lru_cache(maxsize=MEMO_ENTRIES)
    def by_key(*key):
        return f(*[
            np.frombuffer(k[3], dtype=k[2]).reshape(k[1]) if type(k) is tuple and k and k[0] is _ARRAY else k
            for k in key
        ])

    @functools.wraps(f)
    def wrapper(*args):
        key = []
        for x in args:
            if isinstance(x, np.ndarray):
                if x.ndim and x.shape[0] > MEMO_MAX_STATES:
                    break
                x = (_ARRAY, x.shape, x.dtype.str, x.tobytes())
            elif getattr(x, "d", 0) > MEMO_MAX_STATES:
                break
            key.append(x)
        else:
            return by_key(*key)
        return f(*[np.ascontiguousarray(y) if isinstance(y, np.ndarray) else y for y in args])

    wrapper.cache_clear, wrapper.cache_info = by_key.cache_clear, by_key.cache_info
    return wrapper
