"""Smoke test of the benchmark itself, every workload at a tiny size.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
from array import array

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from spans import NullTracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    result = run.bench(ROOT, workload, seed=7, seconds=0, trace=trace, tiny=True)
    line = run.report(result, SPEC)
    printed = capsys.readouterr().out
    assert result["deterministic_inputs"]
    assert result["failures"] == []
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in printed and f" {m['unit']} " in printed
    assert " fail_frac " in printed and result["fail_frac"] == 0


@pytest.mark.parametrize("workload", ["automata-simulate", "automata-construct"])
def test_corrupted_expected_answer_counts_as_failure(workload):
    _, wl, first, _ = run.setup(ROOT, workload, 7, True)
    honest = wl.expected
    corrupted = []

    def expected(item, *rest):
        want = honest(item, *rest)
        if corrupted:
            return want
        corrupted.append(item)
        return not want if isinstance(want, bool) else tuple(not v for v in want)

    wl.expected = expected
    failures = run.run_rounds(wl, first, NullTracer(), rounds=1)["failures"]
    assert len(corrupted) == 1
    assert len(failures) == 1 and "reference" in failures[0]


def test_tail_takes_the_lesser_of_two_timings():
    first = array("f", [1.0] * 200)
    second = array("f", [1.0] * 199 + [math.nan])
    first[:5] = array("f", [9.0] * 5)  # a stall in one timing of five items
    second[199 - 5:199] = array("f", [9.0] * 5)
    phase = {"repeats": {0: (first, second)}, "scaled": array("f"), "unsteady": array("f")}
    assert run.repeat_tail(phase) == (1.0, 199)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
