#!/usr/bin/env python3
"""Time one benchmark workload op by op on two checkouts in one process.

Loads the ``renyivar`` package and ``perfbench/workloads.py`` of each
checkout as separate module sets, builds the same seeded rounds of ops from
each checkout's own workload generators, and runs every op on both trees
back to back, alternating which tree goes first.  Before each op (and while
a tree builds its round) that tree's ``renyivar`` modules are put into
``sys.modules``, so imports done at call time, such as the deferred ones in
``spectral.py``, resolve inside the same tree.

Example (twelve repetitions of the cli workload, parent against change)::

    python3 scripts/ab_ops.py ../parent . --workload cli --reps 12

Each repetition is one round: one untimed warm-up round per tree comes
first, then every repetition sums each tree's op times over its round.  The
script prints each repetition's time ratio parent / change (above 1 means
the change is faster), their median and range, and the number of
repetitions the change won.  Ops whose failure tags differ between the trees
are counted and printed.  Passing the same checkout twice gives the A/A
control: the ratio of two identical trees.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
OWN_MODULES = ("renyivar", "workloads")


def _own(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in OWN_MODULES)


class Tree:
    """One checkout's ``renyivar`` and ``workloads`` modules, imported apart from any other."""

    def __init__(self, root: Path, scratch: Path) -> None:
        for name in [n for n in sys.modules if _own(n)]:
            del sys.modules[name]
        paths = [str(root / "src"), str(root / "perfbench")]
        sys.path[:0] = paths
        try:
            self.workloads = importlib.import_module("workloads")
        finally:
            del sys.path[: len(paths)]
        package = Path(sys.modules["renyivar"].__file__).resolve()
        if not package.is_relative_to((root / "src").resolve()):
            raise RuntimeError(f"renyivar was imported from {package}, not from {root / 'src'}")
        self.modules = {n: m for n, m in sys.modules.items() if _own(n)}
        self.root = root
        self.scratch = scratch
        self._inputs = None

    def activate(self) -> None:
        sys.modules.update(self.modules)

    def round(self, workload: str, rng: np.random.Generator) -> list:
        self.activate()
        wl = self.workloads
        if workload == "cli":
            if self._inputs is None:
                self._inputs = wl.CliInputs(self.root / "tests" / "data", self.scratch)
            return wl.cli_round(rng, self._inputs)
        return {"iid": wl.iid_round, "markov_dense": wl.markov_dense_round,
                "markov_sparse": wl.markov_sparse_round}[workload](rng)


def run_op(tree: Tree, op) -> tuple[float, list]:
    tree.activate()
    t0 = time.perf_counter()
    try:
        tags = op()
    except Exception as exc:  # an op that raises fails, as in perfbench/run.py
        tags = [f"exception.{type(exc).__name__}"]
    return time.perf_counter() - t0, sorted(set(tags))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=("iid", "markov_dense", "markov_sparse", "cli"))
    parser.add_argument("--reps", type=int, default=8, help="timed rounds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        trees = {}
        for side in SIDES:
            (Path(scratch) / side).mkdir()
            trees[side] = Tree(getattr(args, side).resolve(), Path(scratch) / side)
        ratios, tag_diffs, k = [], 0, 0
        for rep in range(-1, args.reps):  # repetition -1 is the warm-up round
            rounds = {s: trees[s].round(args.workload, np.random.default_rng([args.seed, rep + 1]))
                      for s in SIDES}
            if len(rounds["parent"]) != len(rounds["change"]):
                print("error: the two checkouts build rounds of different sizes", file=sys.stderr)
                return 2
            busy = dict.fromkeys(SIDES, 0.0)
            for ops in zip(rounds["parent"], rounds["change"]):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                k += 1
                tags = {}
                for side in order:
                    elapsed, tags[side] = run_op(trees[side], ops[SIDES.index(side)])
                    busy[side] += elapsed
                if rep >= 0 and tags["parent"] != tags["change"]:
                    tag_diffs += 1
            if rep >= 0:
                ratios.append(busy["parent"] / busy["change"])
                print(f"rep {rep + 1}/{args.reps}: parent {busy['parent']:.3f} s change "
                      f"{busy['change']:.3f} s ratio {ratios[-1]:.3f}")
    wins = sum(r > 1.0 for r in ratios)
    print(f"{args.workload}: ratio parent/change median {statistics.median(ratios):.3f} "
          f"[{min(ratios):.3f}, {max(ratios):.3f}], change faster in {wins} of {len(ratios)}; "
          f"ops with different failure tags: {tag_diffs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
