#!/usr/bin/env python3
"""Time ``random_search_extremum`` per call, on cli-like problems and on criterion 9.

Imports ``renyivar`` from ``ROOT/src`` and draws its problems with that
checkout's own generators.  The cli-like problems are the random-search
oracles of ``perfbench/workloads.py``'s ``cli_valid_problems`` (imported, not
modified): single-letter problems on 2 to 6 letters with 300 trials and 60
hill steps, and dense pair measures on 2 to 4 states with 30 trials and 5
hill steps, each at two orders.  Every search runs ``--reps`` times; the
script prints the median over repetitions of the mean time per search of
each kind.  With ``--criterion-9`` it also runs the six 10,000-trial
searches of criterion 9 in ``tests/test_acceptance.py`` (the same problems,
drawn by ``tests/conftest.py``) once, and prints their wall time, split into
the single-letter and the Markov searches.

Example (parent and change, in one session)::

    python3 scripts/search_times.py ../parent --criterion-9
    python3 scripts/search_times.py . --criterion-9
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _cli_problems(r, workloads, rounds: int) -> dict[str, list]:
    """The random-search problems of ``rounds`` generated cli rounds, by kind."""
    found = {"iid": [], "markov": []}
    rng = np.random.default_rng(19)
    for _ in range(rounds):
        for command, spec in workloads.cli_valid_problems(rng):
            if command != "oracle" or spec["kind"] != "oracle":
                continue
            alpha, options = r.Alpha(spec["alpha"]), spec["options"]
            if spec["problem"] == "iid_variational":
                problem = r.IIDVariationalProblem(alpha, r.Dist(spec["nu"]), r.Dist(spec["theta"]))
                found["iid"].append((problem, options))
            else:
                problem = r.MarkovVariationalProblem(alpha, r.PairMeasure(spec["nu"]), r.PairMeasure(spec["theta"]))
                found["markov"].append((problem, options))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="root of the checkout to time")
    parser.add_argument("--rounds", type=int, default=11, help="cli rounds whose searches are timed")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--criterion-9", action="store_true", help="also time criterion 9's searches")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]
    import renyivar as r
    import workloads

    for kind, problems in _cli_problems(r, workloads, args.rounds).items():
        per_call = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            for seed, (problem, options) in enumerate(problems):
                r.random_search_extremum(problem, seed=seed, **options)
            per_call.append((time.perf_counter() - t0) / len(problems))
        print(f"{kind} search: {1e3 * statistics.median(per_call):.2f} ms per call "
              f"(median of {args.reps} passes over {len(problems)} problems; "
              f"range {1e3 * min(per_call):.2f}-{1e3 * max(per_call):.2f})")
    if args.criterion_9:
        from conftest import random_dist, random_pair

        rng = np.random.default_rng(9)
        spent = {"iid": 0.0, "markov": 0.0}
        for a in (2.0, 0.5, -1.0):
            problems = [
                ("iid", r.IIDVariationalProblem(r.Alpha(a), random_dist(rng, 4), random_dist(rng, 4))),
                ("markov", r.MarkovVariationalProblem(r.Alpha(a), random_pair(rng, 3), random_pair(rng, 3))),
            ]
            for kind, problem in problems:
                t0 = time.perf_counter()
                r.random_search_extremum(problem, trials=10_000, seed=0)
                spent[kind] += time.perf_counter() - t0
        print(f"criterion 9: {sum(spent.values()):.2f} s "
              f"(iid searches {spent['iid']:.2f} s, Markov searches {spent['markov']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
