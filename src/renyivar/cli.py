"""Command-line driver.

Reads a JSON problem file, runs the requested computation, and prints a
*certificate*: a deterministic JSON (or CSV) document with a fixed field
order and floats rendered at 17 significant digits, so identical inputs and
flags produce byte-identical output.  Infinite values are rendered as the
strings ``"inf"`` / ``"-inf"``.  The certificate always echoes the SHA-256 of
the input file.

Exit codes, for any input bytes (exits 0 and 1 write nothing to stderr):

* 0 -- the computation ran and every certification in it passed;
* 1 -- the computation ran but a certification failed (negative slack beyond
  tolerance, attainment residual above tolerance, oracle gap too large);
* 2 -- the input was rejected (unreadable file, malformed JSON, schema or
  domain errors, flags out of range) or the command/kind combination is
  unknown; stdout is empty and stderr says why.

Problem files carry a ``kind`` discriminator::

    {"kind": "iid_divergence", "alpha": 2.0,
     "nu": [0.5, 0.5], "theta": [0.25, 0.75]}

Supported kinds: ``iid_divergence``, ``iid_variational``, ``iid_acd``,
``markov_rate``, ``markov_variational``, ``markov_acd``, ``growth``,
``oracle``.  Vectors are lists of numbers, pair measures and edge functions
are lists of rows; JSON strings and booleans are not numbers.  ``options``
holds integers such as ``n_max`` or ``trials``; ``--seed`` (an integer >= 0)
feeds the random-search oracle; ``--tol`` (a finite number >= 0) overrides
the pass threshold of whichever certification the command performs.

The options bound the work of a run: a negative value, or one above its
limit, is rejected (exit 2) before any work starts.  The limits are
``MAX_N_MAX`` = 10000 for ``n_max`` (growth, Markov rate oracle),
``MAX_TRIALS`` = 20000 for ``trials`` and ``MAX_HILL_STEPS`` = 5000 for
``hill_steps`` (random search).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from . import __version__
from .config import TOL
from .distributions import Alpha, Dist, abs_cont, rel_entropy, renyi_div
from .errors import InputValidationError, RenyiVarError
from .markov import PairMeasure, abs_cont_pair, rel_entropy_rate, renyi_rate
from .markov_variational import (
    EdgeFn,
    certify_markov_acd,
    certify_markov_inequality,
    markov_acd_inf,
    markov_acd_sup,
    solve_markov_variational,
)
from .numerics import memoised
from .oracles import (
    IIDVariationalProblem,
    MarkovVariationalProblem,
    random_search_extremum,
    rel_entropy_rate_oracle,
    renyi_rate_oracle,
)
from .spectral import NonnegMatrix, growth_rate, growth_rate_bruteforce
from .variational import (
    BoundedFn,
    acd_certify,
    acd_inf,
    acd_sup,
    certify_inequality,
    solve_variational,
)

MAX_N_MAX = 10_000
MAX_TRIALS = 20_000
MAX_HILL_STEPS = 5_000


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------


def _render_float(x: float) -> str:
    if math.isnan(x):
        raise InputValidationError("certificates never contain NaN")
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(x, ".17g")


def _render_json(value: Any) -> str:
    if value is None or isinstance(value, (str, int)):  # bool is an int subclass
        return json.dumps(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_render_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot render {type(value).__name__} into a certificate")


def _render_csv_value(value: Any) -> str:
    if isinstance(value, (bool, float)):
        return _render_json(value).strip('"')
    return str(value)


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _render_csv_value(value)))


def _render(cert: dict, as_csv: bool) -> str:
    if not as_csv:
        return _render_json(cert) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", cert, rows)
    return "".join(f"{key},{value}\n" for key, value in rows)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _require(problem: dict, field: str) -> Any:
    if field not in problem:
        raise InputValidationError(f"missing required field '{field}'")
    return problem[field]


def _is_number(raw: Any) -> bool:
    """A JSON number: ``bool`` is an ``int`` subclass in Python, but not a number here."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


@dataclass(frozen=True)
class _Family:
    """How the problems of one family read their fields, and what they certify by default."""

    ndim: int
    shape: str
    measure: type  # Dist or PairMeasure
    fn: type  # BoundedFn or EdgeFn
    tol: float  # default attainment tolerance of the family's solvers and certificates

    def array(self, problem: dict, field: str) -> np.ndarray:
        raw = _require(problem, field)
        try:
            arr = np.asarray(raw, dtype=float)
        except (ValueError, TypeError, OverflowError):  # non-numeric, ragged, beyond float range
            arr = None
        if arr is None or arr.ndim != self.ndim:
            raise InputValidationError(f"field '{field}' must be {self.shape}")
        # numpy also converts strings such as "0.5" and booleans: reject those
        entries = raw if self.ndim == 1 else [x for row in raw for x in row]
        if not all(map(_is_number, entries)):
            raise InputValidationError(f"field '{field}' must be {self.shape}")
        return arr

    def read(self, problem: dict, field: str) -> Any:
        """Field ``g`` as the family's function, any other field as its measure."""
        return (self.fn if field == "g" else self.measure)(self.array(problem, field))


_IID = _Family(1, "a flat list of numbers", Dist, BoundedFn, TOL.attainment_iid)
_MARKOV = _Family(
    2, "a list of equal-length rows of numbers", PairMeasure, EdgeFn, TOL.attainment_markov
)


def _as_alpha(problem: dict) -> Alpha:
    raw = _require(problem, "alpha")
    if not _is_number(raw):
        raise InputValidationError("field 'alpha' must be a number")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise InputValidationError("field 'alpha' is beyond the floating-point range") from None
    return Alpha(value)


def _option(problem: dict, name: str, default: int, limit: int) -> int:
    options = problem.get("options", {})
    if not isinstance(options, dict):
        raise InputValidationError("field 'options' must be an object")
    raw = options.get(name, default)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise InputValidationError(f"option '{name}' must be an integer")
    if not 0 <= raw <= limit:
        raise InputValidationError(f"option '{name}' must lie in [0, {limit}]")
    return raw


# ---------------------------------------------------------------------------
# Handlers, one per problem shape; ``_COMMANDS`` binds the family and library
# calls.  Each takes (problem, --tol or None, --seed) and returns the
# certificate body and its pass verdict.
# ---------------------------------------------------------------------------


def _divergences(family: _Family, renyi: Callable, entropy: Callable, cont: Callable,
                 names: tuple[str, str], problem: dict, tol: float | None,
                 seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu, theta = family.read(problem, "nu"), family.read(problem, "theta")
    values = (renyi(alpha, nu, theta).raw, entropy(nu, theta).raw, cont(nu, theta))
    return {"alpha": alpha.value, "results": dict(zip((*names, "abs_cont"), values))}, True


def _values(measure: Dist | PairMeasure) -> np.ndarray:
    return measure.weights if isinstance(measure, Dist) else measure.entries


# The certificate fields a solution may report, by name.
_SOLUTION_FIELDS = {
    "value": lambda s: s.value.raw,
    "regime": lambda s: s.regime,
    "residual": lambda s: s.residual,
    "class_used": lambda s: None if s.class_used is None else list(s.class_used),
    "log_perron_root": lambda s: None if s.perron is None else s.perron.log_lam,
    "optimizer": lambda s: None if s.optimizer is None else _values(s.optimizer).tolist(),
}


def _attained(family: _Family, alpha: Alpha, solution: Any, fields: tuple[str, ...],
              tol: float | None, results: dict) -> tuple[dict, bool]:
    """A solution's fields, in certificate order after ``results``; passes on a small residual."""
    results.update((name, _SOLUTION_FIELDS[name](solution)) for name in fields)
    passed = solution.residual <= (family.tol if tol is None else tol)
    return {"alpha": alpha.value, "results": results}, passed


def _solve(family: _Family, solver: Callable, fields: tuple[str, ...],
           problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu, theta = family.read(problem, "nu"), family.read(problem, "theta")
    return _attained(family, alpha, solver(alpha, nu, theta), fields, tol, {})


def _solve_acd(family: _Family, sup: Callable, inf: Callable, fields: tuple[str, ...],
               problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    direction = problem.get("direction", "sup")
    g = family.read(problem, "g")
    if direction == "sup":
        solution = sup(alpha, g, family.read(problem, "theta"))
    elif direction == "inf":
        solution = inf(alpha, g, family.read(problem, "nu"))
    else:
        raise InputValidationError("field 'direction' must be 'sup' or 'inf'")
    return _attained(family, alpha, solution, fields, tol, {"direction": direction})


def _certify(family: _Family, certifier: Callable, operands: tuple[str, ...],
             problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    effective = family.tol if tol is None else tol
    result = certifier(alpha, *(family.read(problem, field) for field in operands), tol=effective)
    results = {"slack": result.slack, "tolerance": effective}
    return {"alpha": alpha.value, "results": results}, result.passed


def _growth(problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    matrix = NonnegMatrix(_MARKOV.array(problem, "m"))
    n_max = _option(problem, "n_max", 0, MAX_N_MAX)
    spectral_rate = growth_rate(matrix)
    results: dict[str, Any] = {"growth_rate": spectral_rate.raw}
    if n_max:
        brute = growth_rate_bruteforce(matrix, n_max)
        results["bruteforce_n"] = n_max
        results["bruteforce_value"] = brute.raw
        if spectral_rate.raw == brute.raw:
            results["gap"] = 0.0
        else:
            results["gap"] = abs(spectral_rate.raw - brute.raw)
    return {"results": results}, True


def _rate_oracle(problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu, theta = _MARKOV.read(problem, "nu"), _MARKOV.read(problem, "theta")
    n_max = _option(problem, "n_max", 200, MAX_N_MAX)
    effective = tol if tol is not None else 1e-6
    renyi_report = renyi_rate_oracle(alpha, nu, theta, n_max=n_max, mode="difference")
    entropy_report = rel_entropy_rate_oracle(nu, theta, n_max=n_max, mode="difference")
    results = {
        "n_max": n_max,
        "renyi_rate_claim": renyi_report.limit_claim.raw,
        "renyi_rate_final_gap": renyi_report.final_gap,
        "rel_entropy_rate_claim": entropy_report.limit_claim.raw,
        "rel_entropy_rate_final_gap": entropy_report.final_gap,
        "tolerance": effective,
    }
    passed = renyi_report.final_gap <= effective and entropy_report.final_gap <= effective
    return {"alpha": alpha.value, "results": results}, passed


_SEARCH_TARGETS = {
    "iid_variational": (_IID, IIDVariationalProblem),
    "markov_variational": (_MARKOV, MarkovVariationalProblem),
}


def _search_oracle(problem: dict, tol: float | None, seed: int) -> tuple[dict, bool]:
    target_kind = _require(problem, "problem")
    alpha = _as_alpha(problem)
    trials = _option(problem, "trials", 2000, MAX_TRIALS)
    hill_steps = _option(problem, "hill_steps", 200, MAX_HILL_STEPS)
    effective = tol if tol is not None else 1e-8
    if not isinstance(target_kind, str) or target_kind not in _SEARCH_TARGETS:
        raise InputValidationError(
            "field 'problem' must be 'iid_variational' or 'markov_variational'"
        )
    family, descriptor = _SEARCH_TARGETS[target_kind]
    report = random_search_extremum(
        descriptor(alpha, family.read(problem, "nu"), family.read(problem, "theta")),
        trials=trials, seed=seed, hill_steps=hill_steps, tol=effective,
    )
    results = {
        "problem": target_kind,
        "trials": report.trials,
        "seed": report.seed,
        "target": report.target.raw,
        "best_sampled": report.best_sampled,
        "best_refined": report.best_refined,
        "margin": report.margin,
        "refinement_gap": report.refinement_gap,
        "tolerance": effective,
    }
    return {"alpha": alpha.value, "results": results}, report.passed


_VARIATIONAL = ("mu", "nu", "theta")
_ACD = ("g", "nu", "theta")

# command -> kind -> handler: the one place that says which kinds a command accepts.
_COMMANDS: dict[str, dict[str, Callable[[dict, float | None, int], tuple[dict, bool]]]] = {
    "div": {
        "iid_divergence": partial(
            _divergences, _IID, renyi_div, rel_entropy, abs_cont, ("renyi_divergence", "rel_entropy")
        ),
    },
    "rate": {
        "markov_rate": partial(
            _divergences, _MARKOV, renyi_rate, rel_entropy_rate, abs_cont_pair,
            ("renyi_rate", "rel_entropy_rate"),
        ),
    },
    "growth": {"growth": _growth},
    "solve": {
        "iid_variational": partial(
            _solve, _IID, solve_variational, ("value", "regime", "residual", "optimizer")
        ),
        "markov_variational": partial(
            _solve, _MARKOV, solve_markov_variational,
            ("value", "residual", "class_used", "log_perron_root", "optimizer"),
        ),
        "iid_acd": partial(_solve_acd, _IID, acd_sup, acd_inf, ("value", "residual", "optimizer")),
        "markov_acd": partial(
            _solve_acd, _MARKOV, markov_acd_sup, markov_acd_inf,
            ("value", "residual", "class_used", "optimizer"),
        ),
    },
    "certify": {
        "iid_variational": partial(_certify, _IID, certify_inequality, _VARIATIONAL),
        "markov_variational": partial(_certify, _MARKOV, certify_markov_inequality, _VARIATIONAL),
        "iid_acd": partial(_certify, _IID, acd_certify, _ACD),
        "markov_acd": partial(_certify, _MARKOV, certify_markov_acd, _ACD),
    },
    "oracle": {"markov_rate": _rate_oracle, "oracle": _search_oracle},
}

_KINDS = {kind for kinds in _COMMANDS.values() for kind in kinds}


@memoised  # built on the first call, then reused: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyivar",
        description="Divergences, rates, and certified variational optimizers on finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("div", "single-letter divergences"),
        ("rate", "Markov divergence rates"),
        ("growth", "spectral growth rate of a nonnegative matrix"),
        ("solve", "closed-form variational solutions with attainment residuals"),
        ("certify", "one-sidedness certificates for candidate optimizers"),
        ("oracle", "independent finite-horizon and random-search checks"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="JSON problem file")
        cmd.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
        cmd.add_argument("--json", dest="csv", action="store_false", help="emit JSON (default)")
        cmd.add_argument("--tol", type=float, default=None, help="override the pass tolerance")
        cmd.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = _COMMANDS[args.command]
    try:
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise InputValidationError(f"--tol must be a finite number >= 0, not {args.tol!r}")
        if args.seed < 0:
            raise InputValidationError(f"--seed must be an integer >= 0, not {args.seed}")
        with open(args.file, "rb") as fh:
            raw = fh.read()
        try:
            problem = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputValidationError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
            raise InputValidationError(f"invalid JSON: {exc}") from exc
        if not isinstance(problem, dict):
            raise InputValidationError("the problem file must contain a JSON object")
        kind = _require(problem, "kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise InputValidationError(f"unknown kind '{kind}'")
        if kind not in handlers:
            raise InputValidationError(f"command '{args.command}' does not accept kind '{kind}'")
        with np.errstate(all="ignore"):  # overflow shows in the certificate, not on stderr
            body, passed = handlers[kind](problem, args.tol, args.seed)
    except OSError as exc:
        print(f"error: cannot read '{args.file}': {exc.strerror}", file=sys.stderr)
        return 2
    except RenyiVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    certificate: dict[str, Any] = {
        "command": args.command,
        "kind": kind,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
    }
    certificate.update(body)
    certificate["pass"] = bool(passed)
    certificate["version"] = __version__
    sys.stdout.write(_render(certificate, as_csv=args.csv))
    return 0 if passed else 1


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
