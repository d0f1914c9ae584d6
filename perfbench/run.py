#!/usr/bin/env python3
"""Benchmark for renyivar: certified answers per second, per workload.

Run from the root of a source checkout (the directory holding ``src/`` and
``tests/data/``)::

    python3 perfbench/run.py --workload markov_dense --seed 1 --seconds 10 --trace 0

One process, one closed-loop client: the next op starts only after the last
one returned.  The seed fixes every generated input.  A run takes about
``--seconds`` of wall time, fresh-process samples included.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the failure tags
and the sample counts.  ``attempted`` and ``failed`` count the ops of the
first rounds of the run, a number fixed by the workload and ``--seconds``, so
the same seed always gives the same counts.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

WORKLOADS = ("iid", "markov_dense", "markov_sparse", "cli")

# Fresh interpreters started per run to measure import time and cold CLI
# runs, spread over the run.
FRESH_PROCESSES = 16

# Rounds per second of --seconds whose ops make up ``attempted`` and
# ``failed``: about half of what a slow spell of the host completes, so the
# counted rounds end well inside the run.  A run that has not finished them
# when its time is up goes on until it has.
COUNTED_ROUNDS_PER_S = {"iid": 2.0, "markov_dense": 0.3, "markov_sparse": 0.15, "cli": 0.4}

# Share of --seconds spent on the untraced pass of a --trace 1 run; the
# traced pass replays the same rounds and takes the rest.
UNTRACED_SHARE = 0.3

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import renyivar\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class Checkout:
    """Paths of the source checkout the benchmark runs against."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.data = root / "tests" / "data"
        if not (self.src / "renyivar" / "__init__.py").is_file():
            raise FileNotFoundError(f"no renyivar sources under {self.src}")
        if not self.data.is_dir():
            raise FileNotFoundError(f"no CLI fixtures under {self.data}")

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        return env


# ---------------------------------------------------------------------------
# Fresh-process measurements
# ---------------------------------------------------------------------------


class FreshProbes:
    """Fresh interpreters: import time of numpy and renyivar, and cold CLI runs.

    Each sample appends one value per figure.  ``cold_runs`` holds
    (argv, check) pairs used in turn; ``check(code, stdout)`` says whether a
    cold run printed the right certificate.
    """

    def __init__(self, checkout: Checkout, cold_runs=()) -> None:
        self.checkout = checkout
        self.cold = list(cold_runs)
        self.numpy_s: list[float] = []
        self.renyivar_s: list[float] = []
        self.cold_ms: list[float] = []
        self.cold_ok = True
        self._import()  # warm-up: byte-compiles the package and fills the file cache

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.checkout.root, env=self.checkout.env(),
            capture_output=True, timeout=120,
        )

    def _import(self) -> tuple[float, float]:
        done = self._run(["-c", IMPORT_PROBE])
        done.check_returncode()
        numpy_s, renyivar_s = (float(x) for x in done.stdout.split())
        return numpy_s, renyivar_s

    def sample(self) -> None:
        numpy_s, renyivar_s = self._import()
        self.numpy_s.append(numpy_s)
        self.renyivar_s.append(renyivar_s)
        if self.cold:
            argv, check = self.cold[len(self.cold_ms) % len(self.cold)]
            t0 = time.perf_counter()
            done = self._run(["-m", "renyivar.cli", *argv])
            self.cold_ms.append((time.perf_counter() - t0) * 1e3)
            self.cold_ok = self.cold_ok and check(done.returncode, done.stdout)

    @property
    def count(self) -> int:
        return len(self.numpy_s)


def _certified(code: int, out: bytes) -> bool:
    return code == 0 and json.loads(out)["pass"] is True


def cold_runs(workload: str, seed: int, checkout: Checkout, scratch: Path):
    """The fresh-process CLI runs of a workload: its own kind of problem."""
    import workloads as wl

    rng = np.random.default_rng([seed, 1])
    if workload == "cli":
        runs = []
        for cmd, fixture, flags, golden, _code in wl.FIXTURE_RUNS:
            if golden is not None:
                expected = (checkout.data / golden).read_bytes()
                runs.append(([cmd, str(checkout.data / fixture), *flags],
                             lambda code, out, expected=expected: code == 0 and out == expected))
        return runs
    if workload == "iid":
        d = 30
        problem = {"kind": "iid_variational", "alpha": 2.0,
                   "nu": wl.random_dist(rng, d).weights.tolist(),
                   "theta": wl.random_dist(rng, d).weights.tolist()}
    elif workload == "markov_dense":
        problem = {"kind": "markov_variational", "alpha": 2.0,
                   "nu": wl.dense_pair(rng, 10).entries.tolist(),
                   "theta": wl.dense_pair(rng, 10).entries.tolist()}
    else:
        mask, blocks = wl.block_pattern(rng, 30, 6)
        problem = {"kind": "markov_variational", "alpha": 2.0,
                   "nu": wl.pair_on_blocks(rng, mask, blocks).entries.tolist(),
                   "theta": wl.pair_on_blocks(rng, mask, blocks).entries.tolist()}
    path = scratch / "cold.json"
    path.write_text(json.dumps(problem))
    return [(["solve", str(path)], _certified)]


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Rounds:
    """Endless seeded rounds of ops for one workload, generated on demand and
    kept when ``keep`` is set so a second pass can replay them."""

    def __init__(self, workload: str, rng, checkout: Checkout, scratch: Path,
                 keep: bool) -> None:
        import workloads as wl

        self.rng = rng
        self.keep = keep
        self.kept: list = []
        if workload == "cli":
            inputs = wl.CliInputs(checkout.data, scratch)
            self.make = lambda rng: wl.cli_round(rng, inputs)
        else:
            self.make = {"iid": wl.iid_round, "markov_dense": wl.markov_dense_round,
                         "markov_sparse": wl.markov_sparse_round}[workload]

    def __iter__(self):
        while True:
            ops = self.make(self.rng)
            if self.keep:
                self.kept.append(ops)
            yield ops


def counted_rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds * COUNTED_ROUNDS_PER_S[workload]))


class Tally:
    """Latencies and failure tags of the ops run in one pass.

    ``attempted`` and ``failed`` cover the first ``counted`` rounds only;
    the failure tags cover every op.
    """

    def __init__(self, counted: int) -> None:
        self.counted = counted
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.round_ends: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.tags: Counter = Counter()

    def run(self, op, tracer=None) -> None:
        if tracer is not None:
            tracer.op = len(self.latencies)
        t0 = time.perf_counter()
        try:
            tags = op()
        except Exception as exc:  # an op that raises fails; the run goes on
            tags = [f"exception.{type(exc).__name__}"]
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        self.busy_s += latency
        counted = len(self.round_ends) < self.counted
        self.attempted += counted
        if tags:
            self.failed += counted
            self.tags.update(set(tags))

    def unexpected(self) -> Counter:
        """Failure tags outside the known defects, with their op counts."""
        import workloads as wl

        return Counter({t: n for t, n in self.tags.items() if t not in wl.KNOWN_DEFECTS})


def run_rounds(rounds_iter, budget_s: float, counted: int, tracer=None,
               between=None) -> Tally:
    """Run whole rounds until ``budget_s`` of wall time has passed and the
    first ``counted`` rounds are done.

    ``between(elapsed_s)``, when given, runs before each round, outside the
    timed region; its time counts against the budget.
    """
    tally = Tally(counted)
    start = time.perf_counter()
    for ops in rounds_iter:
        if between is not None:
            between(time.perf_counter() - start)
        for op in ops:
            tally.run(op, tracer)
        tally.round_ends.append(len(tally.latencies))
        if time.perf_counter() - start >= budget_s and len(tally.round_ends) >= counted:
            break
    return tally


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest eighth of the values: robust
    to stray samples, and, unlike the median, it does not jump between host
    speeds."""
    cut = len(values) // 8
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def round_percentile(tally: Tally, q: float) -> float:
    """The q-th latency percentile of each round, averaged over the rounds.

    On a host that switches between a fast and a slow speed, a percentile
    pooled over the whole run jumps from one speed to the other when their
    shares cross; the mean of per-round percentiles moves in proportion.
    """
    latencies = np.asarray(tally.latencies)
    starts = [0] + tally.round_ends[:-1]
    return float(np.mean([np.percentile(latencies[a:b], q)
                          for a, b in zip(starts, tally.round_ends)]))


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(checkout: Checkout, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((checkout.src / "renyivar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (checkout.root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=checkout.root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "clients": 1,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(args, checkout: Checkout, scratch: Path) -> tuple[dict, dict]:
    """Run one benchmark pass; returns (result line, notes)."""
    import workloads as wl

    rounds = Rounds(args.workload, np.random.default_rng([args.seed, 0]), checkout, scratch,
                    keep=bool(args.trace))
    (scratch / "warm").mkdir()
    warm = Rounds(args.workload, np.random.default_rng([args.seed, 2]), checkout,
                  scratch / "warm", keep=False)
    warm_tally = run_rounds(warm, 0.0, 1)  # one round to fill caches before timing
    notes: dict = {}
    unknown = warm_tally.unexpected()

    if args.trace:
        import spans

        probes = FreshProbes(checkout)
        for _ in range(FRESH_PROCESSES):
            probes.sample()
        plain_s = args.seconds * UNTRACED_SHARE
        plain = run_rounds(rounds, plain_s, counted_rounds(args.workload, plain_s))
        with spans.Tracer() as tracer:
            traced = run_rounds(rounds.kept, math.inf, plain.counted, tracer)
        metrics = tracer.summary(len(traced.latencies), traced.busy_s)
        metrics["setup.numpy_import_s"] = statistics.median(probes.numpy_s)
        metrics["setup.renyivar_import_s"] = statistics.median(probes.renyivar_s)
        metrics["trace.overhead_ratio"] = traced.busy_s / plain.busy_s
        tally = traced
        notes["absent_stages"] = tracer.absent
        notes["untraced_ops"] = len(plain.latencies)
        unknown.update(plain.unexpected())
    else:
        probes = FreshProbes(checkout, cold_runs(args.workload, args.seed, checkout, scratch))

        def between(elapsed_s: float) -> None:
            # Spread the fresh-process samples over the run, so their medians
            # see the same machine as the ops do.
            while (probes.count < FRESH_PROCESSES
                   and elapsed_s >= probes.count * args.seconds / FRESH_PROCESSES):
                probes.sample()

        tally = run_rounds(rounds, args.seconds, counted_rounds(args.workload, args.seconds),
                           between=between)
        between(math.inf)
        if not probes.cold_ok:
            unknown["cold_cli.output"] += 1
        setup = [a + b for a, b in zip(probes.numpy_s, probes.renyivar_s)]
        metrics = {
            "throughput_ops_per_s": len(tally.latencies) / tally.busy_s,
            "latency_p50_ms": round_percentile(tally, 50) * 1e3,
            "latency_p90_ms": round_percentile(tally, 90) * 1e3,
            "setup_s": statistics.median(setup),
            "cold_cli_ms": trimmed_mean(probes.cold_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    unknown.update(tally.unexpected())
    notes.update({
        "latency_samples": len(tally.latencies),
        "counted_rounds": tally.counted,
        "failed_ratio": tally.failed / tally.attempted,
        "failure_tags": dict(sorted(tally.tags.items())),
        "unexpected_failures": dict(sorted(unknown.items())),
        "known_defects": {t: wl.KNOWN_DEFECTS[t] for t in sorted(tally.tags) if t in wl.KNOWN_DEFECTS},
    })
    result = {
        "correct": not unknown,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="renyivar benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout = Checkout(Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a renyivar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout.src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=checkout.root) as tmp:
        result, notes = measure(args, checkout, Path(tmp))
    spec = json.loads((checkout.root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps({"env": environment(checkout, args), "notes": notes}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still removes its scratch directory and its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
