#!/usr/bin/env python3
"""Pin the values of every solver and certificate with one digest.

Runs a deterministic sweep of library calls against the ``renyivar`` package
found under ``--src`` and prints the number of hashed results and one SHA-256
over all of them.  A result is hashed exactly: floats by ``repr``, arrays by
dtype, shape and raw bytes, and a raised library error by its type and
message.  Two source trees with the same digest return the same bits, from
every call of the sweep, for values, residuals, optimizers, Perron data,
``class_used``, slacks and rejections.

Every call runs twice and both results are hashed: first cold, after
``cache_clear()`` on every memo of every ``renyivar`` submodule (any module
attribute that has one, such as the spectral steps and the Renyi
divergence), then warm.  Equal digests therefore also mean that a memo hit
returns the same bits as a recomputation, in both trees.

Example (compare a change against its parent checkout):

    python3 scripts/solver_digest.py --src src
    python3 scripts/solver_digest.py --src ../parent/src

Each seed draws single-letter pairs on 1 to 12 states, with full supports,
supports with zeros and weights near the bottom of the float range, and
Markov pairs from ``perfbench/workloads.py`` (imported, not modified): dense
pairs on 2 to 5 states, reducible pairs on the irreducible blocks of
``block_pattern``, pairs on a strict sub-pattern of their reference, and
pairs with one block carrying mass near 1e-300.  Every pair is swept over
the nine orders of the acceptance tests and three more (see ``ORDERS``)
through every public solver and certificate, ``rho_identities_check``, ``perron_from_log`` on each cyclic
class, and a small ``random_search_extremum`` run.  Each pair also goes
through the order-free functions (absolute continuity, relative entropy
and its rate, kernels, path distributions, the spectral functions of the
reference's matrix) and, at three orders, the finite-horizon oracles.  Each
seed ends with one 128-state matrix, large enough that ``log_matmul``
splits it into blocks of rows.

After the sweep the script exits 1, naming them, if any public function of
``renyivar.__all__`` was never called.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The nine orders of the acceptance tests, then three at which (1 - a) - 1 != -a
# in floating point, so that a solver evaluated through its dual at order
# 1 - a rounds differently from one evaluated directly.
ORDERS = (-3.0, -1.0, -0.25, 0.25, 0.5, 0.9, 1.1, 2.0, 5.0, -0.6, 0.3, 0.45)
SEEDS = range(24)
IID_SIZES = (1, 2, 3, 5, 8, 12)
# Small enough that the searches take a few seconds in all.
SEARCH = {"trials": 12, "hill_steps": 3}
# Orders at which the random searches and the finite-horizon oracles run.
SLOW_ORDERS = (-1.0, 0.5, 2.0)
ORACLE_STEPS = 12
LARGE_D = 128


def encode(x) -> bytes:
    """Exact bytes of a result: floats by repr, arrays by raw bytes, dataclasses field by field."""
    if isinstance(x, np.ndarray):
        return b"array(%s,%s,%s)" % (x.dtype.str.encode(), repr(x.shape).encode(), x.tobytes().hex().encode())
    if dataclasses.is_dataclass(x):
        parts = [f.name.encode() + b"=" + encode(getattr(x, f.name)) for f in dataclasses.fields(x)]
        return type(x).__name__.encode() + b"(" + b",".join(parts) + b")"
    if isinstance(x, (tuple, list)):
        return b"[" + b",".join(encode(v) for v in x) + b"]"
    if isinstance(x, (float, np.floating)):
        return repr(float(x)).encode()
    return repr(x).encode()


class Digest:
    """A running SHA-256 over hashed call results, and their count."""

    def __init__(self, errors: type, memos: list) -> None:
        self.sha = hashlib.sha256()
        self.count = 0
        self.errors = errors
        self.memos = memos
        self.called: set = set()

    def call(self, tag: str, fn, *args, **kwargs):
        """Hash ``fn(*args, **kwargs)`` or the library error it raises, cold then warm.

        Returns the warm result, or None on an error.
        """
        self.called.add(fn)
        for state in (b"cold", b"warm"):
            if state == b"cold":
                for memo in self.memos:
                    memo.cache_clear()
            try:
                result = fn(*args, **kwargs)
                record = encode(result)
            except self.errors as exc:
                result, record = None, f"{type(exc).__name__}: {exc}".encode()
            self.sha.update(state + b" " + tag.encode() + b" " + fn.__name__.encode() + b" " + record + b"\n")
            self.count += 1
        return result


def iid_pairs(rng, rv):
    """(tag, nu, theta, g) single-letter instances of one seed."""
    for d in IID_SIZES:
        full = [rng.gamma(1.0, size=d) + 1e-12 for _ in range(2)]
        zeros = [w * (rng.random(d) < 0.6) for w in full]
        for w in zeros:
            w[rng.integers(d)] = 1.0
        tiny = [w.copy() for w in full]
        for w in tiny:
            w[rng.integers(d)] = rng.choice([1e-300, 1e-310, 1e-320])
        g = rv.BoundedFn(rng.uniform(-5.0, 5.0, size=d))
        for kind, (a, b) in (("full", full), ("zeros", zeros), ("tiny", tiny)):
            yield f"iid d={d} {kind}", rv.Dist(a), rv.Dist(b), g


def markov_pairs(rng, rv, workloads):
    """(tag, nu, theta, d) Markov instances of one seed."""
    for d in (2, 3, 5):
        yield f"dense d={d}", workloads.dense_pair(rng, d), workloads.dense_pair(rng, d), d
    for d, n_blocks in ((4, 2), (6, 3), (9, 3)):
        mask, blocks = workloads.block_pattern(rng, d, n_blocks)
        theta = workloads.pair_on_blocks(rng, mask, blocks)
        yield f"reducible d={d}", workloads.pair_on_blocks(rng, mask, blocks), theta, d
        # nu on the first block only: a strict sub-pattern of theta
        yield f"sub-pattern d={d}", workloads.pair_on_blocks(rng, mask, blocks[:1]), theta, d
        bright = workloads.pair_on_blocks(rng, mask, blocks[:1]).entries
        faint = workloads.pair_on_blocks(rng, mask, blocks[1:]).entries * 1e-300
        yield f"faint block d={d}", rv.PairMeasure(bright + faint), theta, d


def sweep_iid(digest: Digest, rv, tag, nu, theta, g, rng) -> None:
    """Every single-letter solver and certificate on one pair, at every order."""
    mix = rv.Dist(nu.weights + theta.weights)
    for a, b in ((nu, theta), (theta, nu)):
        digest.call(tag, rv.abs_cont, a, b)
        digest.call(tag, rv.rel_entropy, a, b)
    digest.call(tag, rv.log_exp_integral, g, nu)
    digest.call(tag, rv.dv_solve, g, nu)
    digest.call(tag, rv.dv_solve, g, theta)
    for a in ORDERS:
        alpha = rv.Alpha(a)
        at = f"{tag} a={a}"
        solution = digest.call(at, rv.solve_variational, alpha, nu, theta)
        digest.call(at, rv.renyi_div, alpha, nu, theta)
        for eta in (mix, theta):
            digest.call(at, rv.renyi_via_reference, alpha, nu, theta, eta)
        for mu in (solution.optimizer if solution else None, nu, theta):
            if mu is not None:
                digest.call(at, rv.objective, alpha, mu, nu, theta)
                digest.call(at, rv.certify_inequality, alpha, mu, nu, theta)
        caps = digest.call(at, rv.truncation_caps, alpha, nu, theta)
        if caps:
            for cap in (caps[0], caps[-1]):
                digest.call(at, rv.truncated_optimizer, alpha, nu, theta, cap)
        sup = digest.call(at, rv.acd_sup, alpha, g, theta)
        inf = digest.call(at, rv.acd_inf, alpha, g, nu)
        digest.call(at, rv.acd_certify, alpha, g, nu, theta)
        for star in (sup, inf):
            if star is not None:
                digest.call(at, rv.acd_certify, alpha, g, star.optimizer, theta)
                digest.call(at, rv.acd_certify, alpha, g, nu, star.optimizer)
        if nu.d <= 5 and a in SLOW_ORDERS:
            problem = rv.IIDVariationalProblem(alpha, nu, theta)
            digest.call(at, rv.random_search_extremum, problem, seed=int(rng.integers(1000)), **SEARCH)


def sweep_markov(digest: Digest, rv, tag, nu, theta, d, rng) -> None:
    """Every Markov solver and certificate on one pair, at every order."""
    g = rv.EdgeFn(rng.uniform(-2.0, 2.0, size=(d, d)))
    digest.call(tag, rv.varadhan_growth, g, nu)
    digest.call(tag, rv.varadhan_solve, g, nu)
    digest.call(tag, rv.varadhan_solve, g, theta)
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta.entries)
    log_m = np.where(theta.entries > 0, g.values + log_theta, -np.inf)
    digest.call(tag, rv.growth_rate_from_log, log_m)
    m = rv.NonnegMatrix(theta.entries)
    for k, cls in enumerate(digest.call(tag, rv.classes, m).cyclic_classes()):
        digest.call(tag, rv.perron_from_log, log_m, cls, k)
        digest.call(tag, rv.perron, m, cls, k)
    for fn in (rv.has_cycle, rv.growth_rate, rv.maximal_abs_cont):
        digest.call(tag, fn, m)
    digest.call(tag, rv.growth_rate_bruteforce, m, 7)
    digest.call(tag, rv.log_mass_sequence, m, 7)
    for a, b in ((nu, theta), (theta, nu)):
        digest.call(tag, rv.compatible, m, a)
        digest.call(tag, rv.support, a)
        digest.call(tag, rv.kernel, a)
        digest.call(tag, rv.abs_cont_pair, a, b)
        digest.call(tag, rv.rel_entropy_rate, a, b)
        digest.call(tag, rv.check_abs_cont_lift, a, b, 3)
        digest.call(tag, rv.path_distribution, a, 3)
    digest.call(tag, rv.rel_entropy_rate_oracle, nu, theta, ORACLE_STEPS)
    for mode in ("difference", "cesaro"):
        digest.call(tag, rv.easyvar_oracle_report, g.values, nu, ORACLE_STEPS, mode)
    digest.call(tag, rv.easyvar_finite_n_oracle, g.values, theta, ORACLE_STEPS)
    for a in ORDERS:
        alpha = rv.Alpha(a)
        at = f"{tag} a={a}"
        solution = digest.call(at, rv.solve_markov_variational, alpha, nu, theta)
        digest.call(at, rv.renyi_rate, alpha, nu, theta)
        for mu in (solution.optimizer if solution else None, nu, theta):
            if mu is not None:
                digest.call(at, rv.markov_objective, alpha, mu, nu, theta)
                digest.call(at, rv.certify_markov_inequality, alpha, mu, nu, theta)
        sup = digest.call(at, rv.markov_acd_sup, alpha, g, theta)
        inf = digest.call(at, rv.markov_acd_inf, alpha, g, nu)
        digest.call(at, rv.rho_identities_check, alpha, g, theta)
        digest.call(at, rv.certify_markov_acd, alpha, g, nu, theta)
        for star in (sup, inf):
            if star is not None and star.optimizer is not None:
                digest.call(at, rv.certify_markov_acd, alpha, g, star.optimizer, theta)
                digest.call(at, rv.certify_markov_acd, alpha, g, nu, star.optimizer)
        if a in SLOW_ORDERS:
            for mode in ("difference", "cesaro"):
                digest.call(at, rv.renyi_rate_oracle, alpha, nu, theta, ORACLE_STEPS, mode)
        if d <= 4 and a in SLOW_ORDERS:
            problem = rv.MarkovVariationalProblem(alpha, nu, theta)
            digest.call(at, rv.random_search_extremum, problem, seed=int(rng.integers(1000)), **SEARCH)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that contains the renyivar package")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "renyivar" / "__init__.py").is_file():
        print(f"error: no renyivar package under '{src}'", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import renyivar as rv
    import workloads

    warnings.simplefilter("ignore")  # floating-point warnings are not results
    memos = list({
        id(obj): obj
        for name, module in list(sys.modules.items()) if name.startswith("renyivar.")
        for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))
    }.values())
    digest = Digest(rv.RenyiVarError, memos)
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for tag, nu, theta, g in iid_pairs(rng, rv):
            sweep_iid(digest, rv, f"seed={seed} {tag}", nu, theta, g, rng)
        for tag, nu, theta, d in markov_pairs(rng, rv, workloads):
            sweep_markov(digest, rv, f"seed={seed} {tag}", nu, theta, d, rng)
        large = rv.NonnegMatrix(rng.gamma(1.0, size=(LARGE_D, LARGE_D)) * (rng.random((LARGE_D, LARGE_D)) < 0.05))
        tag = f"seed={seed} large d={LARGE_D}"
        digest.call(tag, rv.growth_rate, large)
        digest.call(tag, rv.growth_rate_bruteforce, large, 3)
        digest.call(tag, rv.log_mass_sequence, large, 3)
    never = [
        name for name in rv.__all__
        if callable(obj := getattr(rv, name)) and not isinstance(obj, type) and obj not in digest.called
    ]
    print(f"src: {src}")
    print(f"memos cleared before each cold call: {len(memos)}", file=sys.stderr)
    print(f"results: {digest.count}")
    print(f"sha256: {digest.sha.hexdigest()}")
    if never:
        print(f"error: public functions never called: {', '.join(never)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
