"""Command-line driver.

Reads a JSON problem file, runs the requested computation, and prints a
*certificate*: a deterministic JSON (or CSV) document with a fixed field
order and floats rendered at 17 significant digits, so identical inputs and
flags produce byte-identical output.  Infinite values are rendered as the
strings ``"inf"`` / ``"-inf"``.  The certificate always echoes the SHA-256 of
the input file.

Exit codes:

* 0 -- the computation ran and every certification in it passed;
* 1 -- the computation ran but a certification failed (negative slack beyond
  tolerance, attainment residual above tolerance, oracle gap too large);
* 2 -- the input was rejected (unreadable file, malformed JSON, schema or
  domain errors) or the command/kind combination is unknown.

Problem files carry a ``kind`` discriminator::

    {"kind": "iid_divergence", "alpha": 2.0,
     "nu": [0.5, 0.5], "theta": [0.25, 0.75]}

Supported kinds: ``iid_divergence``, ``iid_variational``, ``iid_acd``,
``markov_rate``, ``markov_variational``, ``markov_acd``, ``growth``,
``oracle``.  Vectors are lists of numbers, pair measures and edge functions
are lists of rows; JSON strings and booleans are not numbers.  ``options``
holds integers such as ``n_max`` or ``trials``; ``--seed`` feeds the
random-search oracle; ``--tol`` overrides the pass threshold of whichever
certification the command performs.

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
from typing import Any

import numpy as np

from . import __version__
from .config import TOL
from .distributions import Alpha, Dist, abs_cont, rel_entropy, renyi_div
from .errors import InputValidationError, RenyiVarError
from .extreal import ExtReal
from .markov import PairMeasure, abs_cont_pair, rel_entropy_rate, renyi_rate
from .markov_variational import (
    EdgeFn,
    certify_markov_acd,
    certify_markov_inequality,
    markov_acd_inf,
    markov_acd_sup,
    solve_markov_variational,
)
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

_KINDS = {
    "iid_divergence",
    "iid_variational",
    "iid_acd",
    "markov_rate",
    "markov_variational",
    "markov_acd",
    "growth",
    "oracle",
}


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
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_render_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot render {type(value).__name__} into a certificate")


def _render_csv_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            raise InputValidationError("certificates never contain NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
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


def _as_array(raw: Any, field: str, ndim: int, shape: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):  # non-numeric, ragged, beyond float range
        arr = None
    if arr is None or arr.ndim != ndim:
        raise InputValidationError(f"field '{field}' must be {shape}")
    # numpy also converts strings such as "0.5" and booleans: reject those
    entries = raw if ndim == 1 else [x for row in raw for x in row]
    if not all(map(_is_number, entries)):
        raise InputValidationError(f"field '{field}' must be {shape}")
    return arr


def _as_vector(raw: Any, field: str) -> np.ndarray:
    return _as_array(raw, field, 1, "a flat list of numbers")


def _as_matrix(raw: Any, field: str) -> np.ndarray:
    return _as_array(raw, field, 2, "a list of equal-length rows of numbers")


def _as_alpha(problem: dict) -> Alpha:
    raw = _require(problem, "alpha")
    if not _is_number(raw):
        raise InputValidationError("field 'alpha' must be a number")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise InputValidationError("field 'alpha' is beyond the floating-point range") from None
    return Alpha(value)


def _as_dist(problem: dict, field: str) -> Dist:
    return Dist(_as_vector(_require(problem, field), field))


def _as_pair(problem: dict, field: str) -> PairMeasure:
    return PairMeasure(_as_matrix(_require(problem, field), field))


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


def _ext(value: ExtReal) -> float:
    return value.raw


# ---------------------------------------------------------------------------
# Command handlers (each returns the certificate body and its pass verdict)
# ---------------------------------------------------------------------------


def _cmd_div(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu = _as_dist(problem, "nu")
    theta = _as_dist(problem, "theta")
    results = {
        "renyi_divergence": _ext(renyi_div(alpha, nu, theta)),
        "rel_entropy": _ext(rel_entropy(nu, theta)),
        "abs_cont": abs_cont(nu, theta),
    }
    return {"alpha": alpha.value, "results": results}, True


def _cmd_rate(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu = _as_pair(problem, "nu")
    theta = _as_pair(problem, "theta")
    results = {
        "renyi_rate": _ext(renyi_rate(alpha, nu, theta)),
        "rel_entropy_rate": _ext(rel_entropy_rate(nu, theta)),
        "abs_cont": abs_cont_pair(nu, theta),
    }
    return {"alpha": alpha.value, "results": results}, True


def _cmd_growth(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    matrix = NonnegMatrix(_as_matrix(_require(problem, "m"), "m"))
    n_max = _option(problem, "n_max", 0, MAX_N_MAX)
    spectral_rate = growth_rate(matrix)
    results: dict[str, Any] = {"growth_rate": _ext(spectral_rate)}
    if n_max:
        brute = growth_rate_bruteforce(matrix, n_max)
        results["bruteforce_n"] = n_max
        results["bruteforce_value"] = _ext(brute)
        if spectral_rate.raw == brute.raw:
            results["gap"] = 0.0
        else:
            results["gap"] = abs(spectral_rate.raw - brute.raw)
    return {"results": results}, True


def _solve_iid_variational(problem: dict, tol: float) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu = _as_dist(problem, "nu")
    theta = _as_dist(problem, "theta")
    solution = solve_variational(alpha, nu, theta)
    results = {
        "value": _ext(solution.value),
        "regime": solution.regime,
        "residual": solution.residual,
        "optimizer": None if solution.optimizer is None else solution.optimizer.weights.tolist(),
    }
    passed = solution.residual <= tol
    return {"alpha": alpha.value, "results": results}, passed


def _solve_markov_variational(problem: dict, tol: float) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu = _as_pair(problem, "nu")
    theta = _as_pair(problem, "theta")
    solution = solve_markov_variational(alpha, nu, theta)
    optimizer = solution.optimizer
    results = {
        "value": _ext(solution.value),
        "residual": solution.residual,
        "class_used": None if solution.class_used is None else list(solution.class_used),
        "log_perron_root": None if solution.perron is None else solution.perron.log_lam,
        "optimizer": None if optimizer is None else optimizer.entries.tolist(),
    }
    passed = solution.residual <= tol
    return {"alpha": alpha.value, "results": results}, passed


def _solve_iid_acd(problem: dict, tol: float) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    direction = problem.get("direction", "sup")
    g = BoundedFn(_as_vector(_require(problem, "g"), "g"))
    if direction == "sup":
        solution = acd_sup(alpha, g, _as_dist(problem, "theta"))
    elif direction == "inf":
        solution = acd_inf(alpha, g, _as_dist(problem, "nu"))
    else:
        raise InputValidationError("field 'direction' must be 'sup' or 'inf'")
    results = {
        "direction": direction,
        "value": _ext(solution.value),
        "residual": solution.residual,
        "optimizer": None if solution.optimizer is None else solution.optimizer.weights.tolist(),
    }
    return {"alpha": alpha.value, "results": results}, solution.residual <= tol


def _solve_markov_acd(problem: dict, tol: float) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    direction = problem.get("direction", "sup")
    g = EdgeFn(_as_matrix(_require(problem, "g"), "g"))
    if direction == "sup":
        solution = markov_acd_sup(alpha, g, _as_pair(problem, "theta"))
    elif direction == "inf":
        solution = markov_acd_inf(alpha, g, _as_pair(problem, "nu"))
    else:
        raise InputValidationError("field 'direction' must be 'sup' or 'inf'")
    optimizer = solution.optimizer
    results = {
        "direction": direction,
        "value": _ext(solution.value),
        "residual": solution.residual,
        "class_used": None if solution.class_used is None else list(solution.class_used),
        "optimizer": None if optimizer is None else optimizer.entries.tolist(),
    }
    return {"alpha": alpha.value, "results": results}, solution.residual <= tol


def _cmd_solve(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    kind = problem["kind"]
    handlers = {
        "iid_variational": (_solve_iid_variational, TOL.attainment_iid),
        "markov_variational": (_solve_markov_variational, TOL.attainment_markov),
        "iid_acd": (_solve_iid_acd, TOL.attainment_iid),
        "markov_acd": (_solve_markov_acd, TOL.attainment_markov),
    }
    if kind not in handlers:
        raise InputValidationError(f"command 'solve' does not accept kind '{kind}'")
    handler, default_tol = handlers[kind]
    return handler(problem, tol if tol is not None else default_tol)


def _cmd_certify(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    kind = problem["kind"]
    alpha = _as_alpha(problem)
    if kind == "iid_variational":
        effective = tol if tol is not None else TOL.attainment_iid
        result = certify_inequality(
            alpha,
            _as_dist(problem, "mu"),
            _as_dist(problem, "nu"),
            _as_dist(problem, "theta"),
            tol=effective,
        )
    elif kind == "markov_variational":
        effective = tol if tol is not None else TOL.attainment_markov
        result = certify_markov_inequality(
            alpha,
            _as_pair(problem, "mu"),
            _as_pair(problem, "nu"),
            _as_pair(problem, "theta"),
            tol=effective,
        )
    elif kind == "iid_acd":
        effective = tol if tol is not None else TOL.attainment_iid
        result = acd_certify(
            alpha,
            BoundedFn(_as_vector(_require(problem, "g"), "g")),
            _as_dist(problem, "nu"),
            _as_dist(problem, "theta"),
            tol=effective,
        )
    elif kind == "markov_acd":
        effective = tol if tol is not None else TOL.attainment_markov
        result = certify_markov_acd(
            alpha,
            EdgeFn(_as_matrix(_require(problem, "g"), "g")),
            _as_pair(problem, "nu"),
            _as_pair(problem, "theta"),
            tol=effective,
        )
    else:
        raise InputValidationError(f"command 'certify' does not accept kind '{kind}'")
    results = {"slack": result.slack, "tolerance": effective}
    return {"alpha": alpha.value, "results": results}, result.passed


def _oracle_markov_rate(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    alpha = _as_alpha(problem)
    nu = _as_pair(problem, "nu")
    theta = _as_pair(problem, "theta")
    n_max = _option(problem, "n_max", 200, MAX_N_MAX)
    effective = tol if tol is not None else 1e-6
    renyi_report = renyi_rate_oracle(alpha, nu, theta, n_max=n_max, mode="difference")
    entropy_report = rel_entropy_rate_oracle(nu, theta, n_max=n_max, mode="difference")
    results = {
        "n_max": n_max,
        "renyi_rate_claim": _ext(renyi_report.limit_claim),
        "renyi_rate_final_gap": renyi_report.final_gap,
        "rel_entropy_rate_claim": _ext(entropy_report.limit_claim),
        "rel_entropy_rate_final_gap": entropy_report.final_gap,
        "tolerance": effective,
    }
    passed = renyi_report.final_gap <= effective and entropy_report.final_gap <= effective
    return {"alpha": alpha.value, "results": results}, passed


def _oracle_random_search(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    target_kind = _require(problem, "problem")
    alpha = _as_alpha(problem)
    trials = _option(problem, "trials", 2000, MAX_TRIALS)
    hill_steps = _option(problem, "hill_steps", 200, MAX_HILL_STEPS)
    effective = tol if tol is not None else 1e-8
    if target_kind == "iid_variational":
        descriptor: IIDVariationalProblem | MarkovVariationalProblem = IIDVariationalProblem(
            alpha, _as_dist(problem, "nu"), _as_dist(problem, "theta")
        )
    elif target_kind == "markov_variational":
        descriptor = MarkovVariationalProblem(
            alpha, _as_pair(problem, "nu"), _as_pair(problem, "theta")
        )
    else:
        raise InputValidationError(
            "field 'problem' must be 'iid_variational' or 'markov_variational'"
        )
    report = random_search_extremum(
        descriptor, trials=trials, seed=seed, hill_steps=hill_steps, tol=effective
    )
    results = {
        "problem": target_kind,
        "trials": report.trials,
        "seed": report.seed,
        "target": _ext(report.target),
        "best_sampled": report.best_sampled,
        "best_refined": report.best_refined,
        "margin": report.margin,
        "refinement_gap": report.refinement_gap,
        "tolerance": effective,
    }
    return {"alpha": alpha.value, "results": results}, report.passed


def _cmd_oracle(problem: dict, tol: float, seed: int) -> tuple[dict, bool]:
    kind = problem["kind"]
    if kind == "markov_rate":
        return _oracle_markov_rate(problem, tol, seed)
    if kind == "oracle":
        return _oracle_random_search(problem, tol, seed)
    raise InputValidationError(f"command 'oracle' does not accept kind '{kind}'")


_COMMANDS = {
    "div": (_cmd_div, {"iid_divergence"}),
    "rate": (_cmd_rate, {"markov_rate"}),
    "growth": (_cmd_growth, {"growth"}),
    "solve": (_cmd_solve, {"iid_variational", "markov_variational", "iid_acd", "markov_acd"}),
    "certify": (_cmd_certify, {"iid_variational", "markov_variational", "iid_acd", "markov_acd"}),
    "oracle": (_cmd_oracle, {"markov_rate", "oracle"}),
}


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
    handler, allowed_kinds = _COMMANDS[args.command]
    try:
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
        if kind not in allowed_kinds:
            raise InputValidationError(f"command '{args.command}' does not accept kind '{kind}'")
        body, passed = handler(problem, args.tol, args.seed)
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
