"""Workload generators and op bundles for the renyivar benchmark.

An *op* is one certified answer.  Each workload turns a seeded random stream
into *rounds*: lists of ops that cover the workload's whole size x order grid
once, so every completed round has exactly the same mix.  An op is a
zero-argument callable that runs the library calls and the checks, and
returns the failure tags of the checks that missed their bound (an empty
list when the answer certified).

Library functions are looked up through their module at call time
(``variational.solve_variational``, not a name bound at import), so the tracer in
``spans.py`` sees every call the benchmark makes.  Inputs (``Dist``,
``PairMeasure``, ``Alpha``, ...) are built while a round is generated,
outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import numpy as np

from renyivar import cli, distributions, markov, markov_variational, variational
from renyivar.config import TOL
from renyivar.distributions import Alpha, Dist
from renyivar.markov import PairMeasure
from renyivar.markov_variational import EdgeFn
from renyivar.variational import BoundedFn

Op = Callable[[], list]

# The order grid of the acceptance sweep (tests/conftest.py ALPHA_GRID).
ALPHA_GRID = (-3.0, -1.0, -0.25, 0.25, 0.5, 0.9, 1.1, 2.0, 5.0)

# Failure tags that stand for defects known at the time the benchmark was
# written.  They count in ``failed`` like any other failure; a tag outside
# this table makes the run incorrect.
KNOWN_DEFECTS = {
    "reducible.markov_acd_sup.alpha_lt_0": (
        "markov_acd_sup returns residual = inf on a reducible support at order < 0"
    ),
    "reducible.markov_acd_inf.alpha_gt_1": (
        "markov_acd_inf returns residual = inf on a reducible support at order > 1"
    ),
    "reducible.rho_identities_check": (
        "rho_identities_check misses its tolerance on some reducible supports"
    ),
    "degenerate.markov_acd_sup.residual": (
        "markov_acd_sup misses its residual tolerance when its twisted optimizer is"
        " nearly degenerate (edge masses spanning more than 10 decades)"
    ),
    "degenerate.markov_acd_inf.residual": (
        "markov_acd_inf misses its residual tolerance when its twisted optimizer is"
        " nearly degenerate (edge masses spanning more than 10 decades)"
    ),
    "degenerate.rho_identities_check": (
        "rho_identities_check misses its tolerance when the twisted optimizer is"
        " nearly degenerate (edge masses spanning more than 10 decades)"
    ),
    "cli.traceback.non_numeric": (
        "a non-numeric vector entry escapes cli.main as ValueError (exit 1 + traceback, not 2)"
    ),
    "cli.traceback.ragged_rows": (
        "ragged matrix rows escape cli.main as ValueError (exit 1 + traceback, not 2)"
    ),
    "cli.traceback.non_string_kind": (
        "a non-string kind escapes cli.main as TypeError (exit 1 + traceback, not 2)"
    ),
}

# A twisted optimizer whose smallest edge mass is below this share of its
# largest is "nearly degenerate"; certificates built on it lose precision.
DEGENERATE_RANGE = 1e-10

# Candidates certified per op; fixed so that every op does the same work.
IID_CANDIDATES = 8
MARKOV_CANDIDATES = 3


def _degenerate(pair: PairMeasure) -> bool:
    mass = pair.entries[pair.entries > 0]
    return bool(mass.min() < DEGENERATE_RANGE * mass.max())


def _agree(x, y, tol: float) -> bool:
    """Two ExtReal values agree: equal (infinities included) or within tol."""
    return x.raw == y.raw or abs(x.raw - y.raw) <= tol


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def random_dist(rng: np.random.Generator, d: int) -> Dist:
    return Dist(rng.gamma(1.0, 1.0, size=d) + 1e-12)


def stationary_law(rows: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix by a linear solve."""
    d = rows.shape[0]
    system = np.eye(d) - rows.T
    system[0, :] = 1.0
    rhs = np.zeros(d)
    rhs[0] = 1.0
    pi = np.linalg.solve(system, rhs)
    for _ in range(3):
        residual = rhs - system @ pi
        if np.abs(residual).max() <= 1e-16:
            break
        pi = pi + np.linalg.solve(system, residual)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def pair_on_blocks(
    rng: np.random.Generator, mask: np.ndarray, blocks: list[np.ndarray]
) -> PairMeasure:
    """Stationary pair measure supported on ``mask`` inside the given blocks.

    Each block must be irreducible under ``mask``; it gets a random kernel on
    its edges, that kernel's stationary law, and a random share of the mass.
    """
    d = mask.shape[0]
    entries = np.zeros((d, d))
    shares = rng.dirichlet(np.ones(len(blocks)))
    for share, block in zip(shares, blocks):
        sub = mask[np.ix_(block, block)]
        rows = np.where(sub, rng.gamma(1.0, 1.0, size=sub.shape) + 1e-6, 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
        pi = stationary_law(rows)
        entries[np.ix_(block, block)] = share * pi[:, None] * rows
    return PairMeasure(entries)


def dense_pair(rng: np.random.Generator, d: int) -> PairMeasure:
    full = np.ones((d, d), dtype=bool)
    return pair_on_blocks(rng, full, [np.arange(d)])


def block_pattern(
    rng: np.random.Generator, d: int, n_blocks: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A reducible edge pattern: ``n_blocks`` irreducible blocks on shuffled states.

    Every block carries a directed cycle through all its states (a self-loop
    for a singleton), so it is irreducible, plus random extra edges.
    """
    perm = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False))
    blocks = [np.sort(b) for b in np.split(perm, cuts)]
    mask = np.zeros((d, d), dtype=bool)
    for block in blocks:
        order = rng.permutation(block)
        mask[order, np.roll(order, -1)] = True
        extra = rng.random((block.size, block.size)) < 0.3
        mask[np.ix_(block, block)] |= extra
    return mask, blocks


# ---------------------------------------------------------------------------
# iid: single-letter solve, cross-check, certificates, ACD pair and DV
# ---------------------------------------------------------------------------


def iid_op(alpha: Alpha, dual_alpha: Alpha, nu: Dist, theta: Dist, g: BoundedFn,
           neg_g: BoundedFn, candidates: list[Dist]) -> Op:
    tol = TOL.attainment_iid

    def op() -> list:
        tags = []
        sol = variational.solve_variational(alpha, nu, theta)
        if not sol.residual <= tol:
            tags.append("solve_variational.residual")
        if not _agree(sol.value, distributions.renyi_div(alpha, nu, theta), tol):
            tags.append("solve_variational.value")
        for mu in candidates:
            if not variational.certify_inequality(alpha, mu, nu, theta).passed:
                tags.append("certify_inequality")
        sup = variational.acd_sup(alpha, g, theta)
        if not sup.residual <= tol:
            tags.append("acd_sup.residual")
        inf = variational.acd_inf(alpha, g, nu)
        if not inf.residual <= tol:
            tags.append("acd_inf.residual")
        dual = variational.acd_sup(dual_alpha, neg_g, nu)
        if not abs(inf.value.raw + dual.value.raw) <= tol:
            tags.append("acd_inf.duality")
        for mu in candidates:
            if not variational.acd_certify(alpha, g, mu, theta).passed:
                tags.append("acd_certify")
        dv = variational.dv_solve(g, nu)
        if not dv.residual <= tol:
            tags.append("dv_solve.residual")
        if not abs(dv.value.raw - variational.log_exp_integral(g, nu)) <= tol:
            tags.append("dv_solve.value")
        return tags

    return op


def iid_round(rng: np.random.Generator, sizes=(2, 5, 10, 30)) -> list[Op]:
    ops = []
    for d in sizes:
        for a in ALPHA_GRID:
            g = rng.uniform(-5.0, 5.0, size=d)
            ops.append(iid_op(
                Alpha(a), Alpha(1.0 - a), random_dist(rng, d), random_dist(rng, d),
                BoundedFn(g), BoundedFn(-g),
                [random_dist(rng, d) for _ in range(IID_CANDIDATES)],
            ))
    return ops


# ---------------------------------------------------------------------------
# Markov: the op mix of acceptance criteria 6 and 7, plus varadhan_solve
# ---------------------------------------------------------------------------


def markov_op(alpha: Alpha, nu: PairMeasure, theta: PairMeasure, g: EdgeFn,
              candidates: list[PairMeasure], reducible: bool) -> Op:
    tol = TOL.attainment_markov
    a = alpha.value

    def op() -> list:
        tags = []
        sol = markov_variational.solve_markov_variational(alpha, nu, theta)
        if not sol.residual <= tol:
            tags.append("solve_markov_variational.residual")
        if not _agree(sol.value, markov.renyi_rate(alpha, nu, theta), tol):
            tags.append("solve_markov_variational.value")
        for mu in candidates:
            if not markov_variational.certify_markov_inequality(alpha, mu, nu, theta).passed:
                tags.append("certify_markov_inequality")
        sup = markov_variational.markov_acd_sup(alpha, g, theta)
        if not sup.residual <= tol:
            if reducible and a < 0 and sup.residual == math.inf:
                tags.append("reducible.markov_acd_sup.alpha_lt_0")
            elif _degenerate(sup.optimizer):
                tags.append("degenerate.markov_acd_sup.residual")
            else:
                tags.append("markov_acd_sup.residual")
        inf = markov_variational.markov_acd_inf(alpha, g, nu)
        if not inf.residual <= tol:
            if reducible and a > 1 and inf.residual == math.inf:
                tags.append("reducible.markov_acd_inf.alpha_gt_1")
            elif _degenerate(inf.optimizer):
                tags.append("degenerate.markov_acd_inf.residual")
            else:
                tags.append("markov_acd_inf.residual")
        if not markov_variational.rho_identities_check(alpha, g, theta).passed:
            # The check twists the same optimizer markov_acd_sup returned.
            if reducible:
                tags.append("reducible.rho_identities_check")
            elif _degenerate(sup.optimizer):
                tags.append("degenerate.rho_identities_check")
            else:
                tags.append("rho_identities_check")
        for mu in candidates:
            if not markov_variational.certify_markov_acd(alpha, g, mu, theta).passed:
                tags.append("certify_markov_acd")
        tilt = markov_variational.varadhan_solve(g, nu)
        if not tilt.residual <= tol:
            tags.append("varadhan_solve.residual")
        return tags

    return op


def markov_dense_round(rng: np.random.Generator, sizes=(2, 5, 10)) -> list[Op]:
    ops = []
    for d in sizes:
        for a in ALPHA_GRID:
            nu, theta = dense_pair(rng, d), dense_pair(rng, d)
            g = EdgeFn(rng.uniform(-5.0, 5.0, size=(d, d)))
            candidates = [dense_pair(rng, d) for _ in range(MARKOV_CANDIDATES)]
            ops.append(markov_op(Alpha(a), nu, theta, g, candidates, reducible=False))
    return ops


def markov_sparse_round(rng: np.random.Generator, sizes=(12, 20, 30)) -> list[Op]:
    """Reducible supports; block counts 3..8 in turn, so every round has the same mix.

    Three sizes rather than two keep the median latency inside one size's
    cluster instead of on the gap between two.
    """
    ops = []
    for d in sizes:
        for a in ALPHA_GRID:
            mask, blocks = block_pattern(rng, d, 3 + len(ops) % 6)
            nu = pair_on_blocks(rng, mask, blocks)
            theta = pair_on_blocks(rng, mask, blocks)
            g = EdgeFn(rng.uniform(-5.0, 5.0, size=(d, d)))
            candidates = []
            for _ in range(MARKOV_CANDIDATES):
                keep = rng.random(len(blocks)) < 0.5
                keep[rng.integers(len(blocks))] = True
                chosen = [b for b, k in zip(blocks, keep) if k]
                candidates.append(pair_on_blocks(rng, mask, chosen))
            ops.append(markov_op(Alpha(a), nu, theta, g, candidates, reducible=True))
    return ops


# ---------------------------------------------------------------------------
# cli: fixtures with goldens, generated valid and invalid problems
# ---------------------------------------------------------------------------


def run_main(argv: list[str]) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def cli_golden_op(argv: list[str], golden: bytes) -> Op:
    def op() -> list:
        code, out, err = run_main(argv)
        return [] if code == 0 and out == golden and err == "" else ["cli.golden"]

    return op


def cli_expect_op(argv: list[str], expected_code: int) -> Op:
    """A run whose only contract is its exit code (plus no stdout on rejection)."""
    def op() -> list:
        code, out, err = run_main(argv)
        if code != expected_code:
            return ["cli.exit_code"]
        if code == 2 and (out or not err.startswith("error:")):
            return ["cli.rejection_output"]
        return []

    return op


def cli_valid_op(argv: list[str], raw: bytes) -> Op:
    """A generated valid problem: exit 0, a passing certificate for these bytes."""
    digest = hashlib.sha256(raw).hexdigest()

    def op() -> list:
        code, out, err = run_main(argv)
        if code != 0 or err:
            return ["cli.valid.exit_code"]
        cert = json.loads(out)
        if cert["input_sha256"] != digest or cert["pass"] is not True:
            return ["cli.valid.certificate"]
        return []

    return op


def cli_defect_op(argv: list[str], tag: str) -> Op:
    """Input that must be rejected with exit 2; today it escapes main() instead."""
    def op() -> list:
        try:
            code, out, err = run_main(argv)
        except (ValueError, TypeError):
            return [tag]
        if code != 2 or out or not err.startswith("error:"):
            return ["cli.exit_code"]
        return []

    return op


# (command, fixture, extra flags, golden or None, expected exit code)
FIXTURE_RUNS = (
    ("div", "div_basic.json", (), "div_basic.golden.json", 0),
    ("div", "div_basic.json", ("--csv",), "div_basic.golden.csv", 0),
    ("div", "div_inf.json", (), "div_inf.golden.json", 0),
    ("growth", "growth_cycle.json", (), "growth_cycle.golden.json", 0),
    ("solve", "solve_iid.json", (), "solve_iid.golden.json", 0),
    ("solve", "solve_markov_acd.json", (), "solve_markov_acd.golden.json", 0),
    ("solve", "solve_iid.json", ("--tol", "1e-30"), None, 1),
    ("certify", "certify_iid.json", (), None, 0),
    ("oracle", "oracle_rate.json", (), None, 0),
    ("oracle", "oracle_search.json", ("--seed", "5"), None, 0),
    ("oracle", "oracle_search.json", ("--seed", "9"), None, 0),
    ("div", "alpha_one.json", (), None, 2),
    ("div", "bad_kind.json", (), None, 2),
    ("div", "dim_mismatch.json", (), None, 2),
    ("div", "malformed.json", (), None, 2),
    ("rate", "div_basic.json", (), None, 2),
    ("div", "no_such_file.json", (), None, 2),
)


class CliInputs:
    """Fixture paths and a scratch directory for generated problem files."""

    def __init__(self, data_dir: Path, scratch_dir: Path) -> None:
        self.data = data_dir
        self.scratch = scratch_dir
        self.goldens = {
            golden: (data_dir / golden).read_bytes()
            for *_, golden, _code in FIXTURE_RUNS if golden is not None
        }
        self._count = 0

    def write(self, problem) -> tuple[str, bytes]:
        raw = (problem if isinstance(problem, str) else json.dumps(problem)).encode()
        self._count += 1
        path = self.scratch / f"p{self._count}.json"
        path.write_bytes(raw)
        return str(path), raw


def _vec(x: np.ndarray) -> list:
    return [float(v) for v in x]


def _mat(x: np.ndarray) -> list:
    return [[float(v) for v in row] for row in x]


def _conditioned_pair(rng: np.random.Generator, d: int) -> PairMeasure:
    """Kernel entries bounded away from zero, so finite-horizon oracles converge fast."""
    rows = rng.uniform(0.25, 1.0, size=(d, d))
    rows /= rows.sum(axis=1, keepdims=True)
    return PairMeasure(stationary_law(rows)[:, None] * rows)


def cli_valid_problems(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """One generated valid problem per (command, kind) the CLI accepts.

    Random-search oracles run at two orders each, so that with the two
    fixture searches they make up more than a tenth of a round: the 90th
    latency percentile then falls inside the oracle runs.
    """
    d = int(rng.integers(2, 7))
    a = float(rng.choice(ALPHA_GRID))
    nu, theta, mu = (_vec(random_dist(rng, d).weights) for _ in range(3))
    g = _vec(rng.uniform(-5.0, 5.0, size=d))
    m = int(rng.integers(2, 5))
    pnu, ptheta, pmu = (_mat(dense_pair(rng, m).entries) for _ in range(3))
    pg = _mat(rng.uniform(-5.0, 5.0, size=(m, m)))
    cnu, ctheta = (_mat(_conditioned_pair(rng, m).entries) for _ in range(2))
    growth_m = rng.uniform(0.1, 3.0, size=(m, m))
    growth_m[rng.random((m, m)) < 0.4] = 0.0
    np.fill_diagonal(growth_m, rng.uniform(0.1, 3.0, size=m))
    iid = {"alpha": a, "nu": nu, "theta": theta}
    pair = {"alpha": a, "nu": pnu, "theta": ptheta}
    return [
        ("div", {"kind": "iid_divergence", **iid}),
        ("solve", {"kind": "iid_variational", **iid}),
        ("certify", {"kind": "iid_variational", "mu": mu, **iid}),
        ("solve", {"kind": "iid_acd", "direction": "sup", "g": g, **iid}),
        ("solve", {"kind": "iid_acd", "direction": "inf", "g": g, **iid}),
        ("certify", {"kind": "iid_acd", "g": g, **iid}),
        ("rate", {"kind": "markov_rate", **pair}),
        ("solve", {"kind": "markov_variational", **pair}),
        ("certify", {"kind": "markov_variational", "mu": pmu, **pair}),
        ("solve", {"kind": "markov_acd", "direction": "sup", "g": pg, **pair}),
        ("certify", {"kind": "markov_acd", "g": pg, **pair}),
        ("growth", {"kind": "growth", "m": _mat(growth_m), "options": {"n_max": 32}}),
        ("oracle", {"kind": "markov_rate", "alpha": float(rng.choice((-1.0, 0.5, 2.0))),
                    "nu": cnu, "theta": ctheta, "options": {"n_max": 60}}),
    ] + [
        ("oracle", {"kind": "oracle", "problem": "iid_variational", **iid, "alpha": order,
                    "options": {"trials": 300, "hill_steps": 60}})
        for order in (a, 1.0 - a)
    ] + [
        ("oracle", {"kind": "oracle", "problem": "markov_variational", **pair, "alpha": order,
                    "options": {"trials": 30, "hill_steps": 5}})
        for order in (a, 1.0 - a)
    ]


def cli_round(rng: np.random.Generator, inputs: CliInputs) -> list[Op]:
    ops = []
    for cmd, fixture, flags, golden, code in FIXTURE_RUNS:
        argv = [cmd, str(inputs.data / fixture), *flags]
        if golden is not None:
            ops.append(cli_golden_op(argv, inputs.goldens[golden]))
        else:
            ops.append(cli_expect_op(argv, code))
    for cmd, problem in cli_valid_problems(rng):
        path, raw = inputs.write(problem)
        ops.append(cli_valid_op([cmd, path, "--seed", str(int(rng.integers(1000)))], raw))
    d = int(rng.integers(2, 6))
    nu = _vec(random_dist(rng, d).weights)
    theta = _vec(random_dist(rng, d).weights)
    rejected = [
        ("div", {"kind": "iid_divergence", "alpha": float(rng.choice((0.0, 1.0))), "nu": nu, "theta": theta}),
        ("div", {"kind": "iid_divergence", "alpha": 2.0, "nu": nu, "theta": theta + [0.5]}),
        ("div", {"kind": f"kind_{int(rng.integers(1000))}", "alpha": 2.0}),
        ("rate", {"kind": "iid_divergence", "alpha": 2.0, "nu": nu, "theta": theta}),
        ("solve", {"kind": "iid_variational", "alpha": 2.0, "nu": nu}),
        ("div", json.dumps({"kind": "iid_divergence", "alpha": 2.0, "nu": nu})[:-3]),
    ]
    for cmd, problem in rejected:
        ops.append(cli_expect_op([cmd, inputs.write(problem)[0]], 2))
    defects = [
        ("div", {"kind": "iid_divergence", "alpha": 2.0, "nu": ["x"] + nu[1:], "theta": theta},
         "cli.traceback.non_numeric"),
        ("rate", {"kind": "markov_rate", "alpha": 2.0, "nu": [[0.5, 0.5], [0.5]],
                  "theta": [[0.5, 0.5], [0.5, 0.5]]}, "cli.traceback.ragged_rows"),
        ("div", {"kind": ["iid_divergence"], "alpha": 2.0, "nu": nu, "theta": theta},
         "cli.traceback.non_string_kind"),
    ]
    for cmd, problem, tag in defects:
        ops.append(cli_defect_op([cmd, inputs.write(problem)[0]], tag))
    return ops
