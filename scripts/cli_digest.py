#!/usr/bin/env python3
"""Pin the observable behaviour of the command line with one digest.

Runs a deterministic sweep of in-process ``renyivar.cli.main`` calls against
the ``renyivar`` package found under ``--src`` and prints the number of runs
per exit code and one SHA-256 over the (argv, input, exit code, stdout,
stderr) of every run.  Certificates print floats at 17 significant
digits, so two source trees with the same digest print the same library
values, residuals, optimizers and rejection messages on every input of the
sweep.

Example (compare a change against its parent checkout):

    python3 scripts/cli_digest.py --src src
    python3 scripts/cli_digest.py --src ../parent/src

The sweep covers every (command, kind) pair.  Its problems come from
``perfbench/workloads.py``'s ``cli_valid_problems`` generator, with the
oracle options capped so the sweep takes minutes, not hours.  Each problem
runs as it is (plain, ``--csv``, ``--tol``, ``--seed``), under every other
command, with each field deleted or replaced by junk JSON, and with the first
entry of each vector or matrix field replaced by junk.  Three kinds of input
are left out on purpose: a ``--tol`` that is NaN, infinite or negative, a
negative ``--seed``, a vector or matrix whose total overflows, and a random
search over ``nu`` and ``theta`` of different sizes.

Warnings are caught and counted, not hashed: the command line silences
floating-point warnings, which earlier trees let through.

``--dump PATH`` also writes one JSON line per run, in sweep order, with the
hashed fields by name: ``argv``, ``input``, ``exit``, ``stdout`` and
``stderr``.  Two dumps of the same sweep match line for line, so the runs
that changed between two trees can be listed from them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("div", "rate", "growth", "solve", "certify", "oracle")

# Small enough that every oracle run of the sweep takes milliseconds.
OPTION_CAPS = {"n_max": 24, "trials": 40, "hill_steps": 8}

FLAG_VARIANTS = (
    (),
    ("--csv",),
    ("--tol", "0"),
    ("--tol", "1e-3"),
    ("--seed", "7"),
)

# Replacement values for whole fields.  None of them overflows a total.
FIELD_JUNK = (
    None, True, False, 0, -1, 2, 0.5, 1e300, float("nan"), float("inf"),
    "x", "sup", "inf", "iid_variational", "markov_variational",
    [], [[]], {}, [0.5, 0.5], [1, -1], [0, 0], [[0.5, 0], [0, 0.5]], [[1, 2], [3]],
    [["a"]], {"n_max": 5, "trials": 3, "hill_steps": 2}, {"n_max": -1}, {"trials": "3"},
)

# Replacement values for the first entry of a vector or matrix field.
ENTRY_JUNK = (None, True, "0.5", -0.5, 0, 1e300, float("nan"), float("inf"), [0.5], {})

SEEDS = range(14)

# The names of a run's hashed values in a ``--dump`` line.
DUMP_FIELDS = ("argv", "input", "exit", "stdout", "stderr")


def run(main, argv: list[str], text: str) -> tuple[int | str, str, str, list[str]]:
    """One run on ``text``: exit code (or escaped exception), stdout, stderr, warnings."""
    Path("problem.json").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        except Exception as exc:  # a breach of the exit-code contract
            code = f"traceback {type(exc).__name__}"
            err.write(str(exc))
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue(), shown


def capped(problem: dict) -> dict:
    options = problem.get("options")
    if isinstance(options, dict):
        problem = {**problem, "options": {k: min(v, OPTION_CAPS[k]) for k, v in options.items()}}
    return problem


def changed_on_purpose(problem: dict) -> bool:
    """A random search over measures of different sizes: older trees let a ValueError escape."""
    nu, theta = problem.get("nu"), problem.get("theta")
    sizes = {len(x) for x in (nu, theta) if isinstance(x, list)}
    return problem.get("kind") == "oracle" and len(sizes) > 1


def variants(command: str, problem: dict):
    """(argv, problem) pairs for one valid problem and its mutations."""
    for flags in FLAG_VARIANTS:
        yield [command, "problem.json", *flags], problem
    for other in COMMANDS:
        if other != command:
            yield [other, "problem.json"], problem
    for field, value in problem.items():
        yield [command, "problem.json"], {k: v for k, v in problem.items() if k != field}
        for junk in FIELD_JUNK:
            yield [command, "problem.json"], {**problem, field: junk}
        if isinstance(value, list) and value:
            for junk in ENTRY_JUNK:
                if isinstance(value[0], list):
                    entry = [[junk, *value[0][1:]], *value[1:]]
                else:
                    entry = [junk, *value[1:]]
                yield [command, "problem.json"], {**problem, field: entry}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that contains the renyivar package")
    parser.add_argument("--dump", type=Path, help="also write each run to this file, one JSON line each")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "renyivar" / "cli.py").is_file():
        print(f"error: no renyivar package under '{src}'", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from renyivar import cli

    counts: Counter = Counter()
    warned = 0
    digest = hashlib.sha256()
    with args.dump.open("w") if args.dump else contextlib.nullcontext() as dump, \
            tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for seed in SEEDS:
            for command, problem in workloads.cli_valid_problems(np.random.default_rng(seed)):
                for argv, mutated in variants(command, capped(problem)):
                    if changed_on_purpose(mutated):
                        continue
                    text = json.dumps(mutated)
                    code, out, err, caught = run(cli.main, argv, text)
                    counts[code] += 1
                    warned += bool(caught)
                    record = [argv, text, code, out, err]
                    digest.update(json.dumps(record).encode() + b"\n")
                    if dump is not None:
                        dump.write(json.dumps(dict(zip(DUMP_FIELDS, record))) + "\n")
        os.chdir(ROOT)
    total = sum(counts.values())
    print(f"src: {src}")
    print(f"runs: {total}  " + "  ".join(f"exit {c}: {n}" for c, n in sorted(counts.items(), key=str)))
    print(f"runs with a warning: {warned}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
