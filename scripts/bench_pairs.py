#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs the unmodified ``perfbench/run.py`` of each checkout, from that
checkout's root, once per side per pair, for the ``run_seconds`` of the
change's ``BENCHMARK.json``.  Pair ``k`` uses the fresh seed
``--seed + k`` on both sides; even pairs run the parent first, odd pairs the
change.  After the pairs, one ``--trace 1`` run per side (seed ``--seed``)
gives the per-layer split.

Example (ten pairs of 28-second runs on markov_dense)::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload markov_dense --pairs 10 --seed 901 --out BENCH.json

The entry for the workload is written under its name into ``--out``; other
workloads already in that file are kept, so one file can collect several
invocations.  The entry holds every result line of every run, and for each
end-to-end metric of ``BENCHMARK.json`` the median and quartiles of each
side, the pairs the change won (ties count for neither side), the relative
change of the median, and whether the medians differ by more than the
parent's interquartile range.  It also records whether ``attempted`` and
``failed`` were equal in every pair, and for each side the ``git rev-parse
HEAD`` of its checkout and whether its working tree was dirty (``git status
--porcelain`` not empty) before the runs; both are null outside a git
checkout.  A change side that runs uncommitted edits on its parent's commit
shows as that commit, dirty.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def git_state(checkout: Path) -> dict:
    """The HEAD commit of a checkout and whether its working tree differs from it."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        except OSError:  # no git binary
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"), "dirty": None if status is None else status != ""}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its two JSON lines, wall time and exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"seed": seed, "exit": proc.returncode, "wall_s": round(wall, 2),
            "env": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins and the IQR test."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(values["parent"], values["change"]))
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = stats["change"]["median"] - stats["parent"]["median"]
        summary[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: {**stats[side], "values": values[side]} for side in SIDES},
            "change_wins": wins,
            "change_losses": losses,
            "relative_median_change": gap / stats["parent"]["median"],
            "median_gap_exceeds_parent_iqr": abs(gap) > parent_iqr,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=901, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under --{side} '{root}'", file=sys.stderr)
            return 2
    if args.pairs < 2:
        print("error: --pairs must be at least 2", file=sys.stderr)
        return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {side: git_state(root) for side, root in roots.items()}

    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds, trace=0)
        pairs.append(pair)
        shown = {s: pair[s]["result"]["metrics"]["throughput_ops_per_s"]["value"] for s in SIDES}
        print(f"pair {k + 1}/{args.pairs} seed {seed}: throughput parent {shown['parent']:.1f} "
              f"change {shown['change']:.1f}", file=sys.stderr)
    traces = {side: run_once(roots[side], args.workload, args.seed, seconds, trace=1) for side in SIDES}

    entry = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {seconds}",
        "seeds": [p["seed"] for p in pairs],
        "checkouts": checkouts,
        "counts_equal_in_every_pair": all(
            p["parent"]["result"][key] == p["change"]["result"][key]
            for p in pairs for key in ("attempted", "failed", "correct")
        ),
        "summary": summarise(pairs, spec),
        "pairs": pairs,
        "trace": traces,
    }
    collected = json.loads(args.out.read_text()) if args.out.is_file() else {}
    collected[args.workload] = entry
    args.out.write_text(json.dumps(collected, indent=1, sort_keys=True) + "\n")
    for name, row in entry["summary"].items():
        print(f"{args.workload} {name}: parent {row['parent']['median']:.4g} "
              f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}] -> change "
              f"{row['change']['median']:.4g} [{row['change']['q1']:.4g}, {row['change']['q3']:.4g}] "
              f"({row['relative_median_change']:+.1%}), change won {row['change_wins']}/{len(pairs)}")
    print(f"{args.workload} attempted/failed/correct equal in every pair: {entry['counts_equal_in_every_pair']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
