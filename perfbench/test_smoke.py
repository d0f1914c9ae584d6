"""Smoke test of the benchmark: every workload at a tiny size, checks on.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(capsys, monkeypatch, workload: str, trace: int) -> tuple[dict, dict]:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "FRESH_PROCESSES", 3)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_reports_every_metric(capsys, monkeypatch, workload, trace):
    record, result = _bench(capsys, monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert record["notes"]["unexpected_failures"] == {}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for key in ("git_sha", "python", "numpy", "nproc", "seed"):
        assert key in record["env"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_cover_the_counted_rounds_only():
    def rounds():
        while True:
            yield [lambda: [], lambda: ["cli.traceback.ragged_rows"]]

    tally = run.run_rounds(rounds(), 0.0, 3)
    assert len(tally.round_ends) == 3
    assert (tally.attempted, tally.failed) == (6, 3)
    longer = run.run_rounds(rounds(), 0.05, 3)
    assert len(longer.round_ends) > 3
    assert (longer.attempted, longer.failed) == (6, 3)


def test_checks_catch_a_wrong_answer(monkeypatch):
    real = workloads.variational.solve_variational

    def off_by_one(alpha, nu, theta):
        solution = real(alpha, nu, theta)
        return dataclasses.replace(solution, residual=1.0)

    monkeypatch.setattr(workloads.variational, "solve_variational", off_by_one)
    ops = workloads.iid_round(np.random.default_rng(0), sizes=(2,))
    assert all("solve_variational.residual" in op() for op in ops)


def test_tracer_reports_a_missing_stage_as_absent():
    stages = dict(spans.STAGES, **{"spectral.gone": ("spectral", "_no_such_stage")})
    original = workloads.markov_variational.solve_markov_variational
    ops = workloads.markov_dense_round(np.random.default_rng(0), sizes=(3,))
    with spans.Tracer(stages=stages) as tracer:
        assert workloads.markov_variational.solve_markov_variational is not original
        for k, op in enumerate(ops):
            tracer.op = k
            assert op() == []
    assert workloads.markov_variational.solve_markov_variational is original
    assert tracer.absent == ["spectral.gone"]
    metrics = tracer.summary(len(ops), 1.0)
    assert metrics["spectral.gone.calls"] == 0
    assert metrics["spectral.power_iteration.calls"] > 0
    assert metrics["spectral.self_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
