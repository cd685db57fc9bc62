"""The benchmark's output gate, including its negative controls."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

REPO = Path(__file__).resolve().parents[1]
FIGURE = run.Call("figure", ("figure", "--name", "dl32"))
VERIFY = run.verify_call(*run.DESK_VERIFY)


@pytest.fixture
def client(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return run.Client(run.load_expected(), time.monotonic() + 60)


def test_recorded_outputs_pass(client):
    client.invoke(FIGURE)
    client.invoke(VERIFY)
    assert client.attempted == 2
    assert client.failures == []


def test_wrong_digest_counts_as_failure(client):
    client.expected = {**client.expected, FIGURE.key: "0" * 64}
    client.invoke(FIGURE)
    assert client.attempted == 1
    assert len(client.failures) == 1 and "sha256" in client.failures[0]


def test_wrong_check_status_counts_as_failure(client):
    pairs = [list(pair) for pair in client.expected[VERIFY.key]]
    pairs[0][1] = "fail"
    client.expected = {**client.expected, VERIFY.key: pairs}
    client.invoke(VERIFY)
    assert len(client.failures) == 1 and "report" in client.failures[0]


def test_unrecorded_call_counts_as_failure(client):
    client.invoke(run.Call("stats", ("stats", "-L", "2")))
    assert len(client.failures) == 1


def test_report_pairs_ignore_details():
    first = "[PASS] check_level_condition(layers=6 p=2 q=3)  basepoints=729 pairings=1500711\n"
    second = "[PASS] check_level_condition(layers=6 p=2 q=3)  basepoints=729 pairings=2059\n"
    assert run.report_pairs(first) == run.report_pairs(second) == [["check_level_condition", "pass"]]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
