"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric of ``BENCHMARK.json`` is measured and printed
with its unit, that corrupted outputs are counted as failed operations, and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import canonform as cf  # noqa: E402

import run as launcher  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = {
    "SEARCH_SAMPLES": 3000,
    "SEARCH_MIN_QUERIES": 60,
    "SEARCH_MAX_QUERIES": 300,
    "SEARCH_AUDITS": 20,
    "CKDTREE_QUERIES": 20,
    "TRAIN_EPISODES": 20,  # curve_sha256.json records this size too
    "CANON_EPISODES": 3,
    "CANON_QUERIES": 4,
}

# The per-layer metrics each workload's traced run measures (the map in
# README.md); a metric reads 0 on the workloads that do not measure it.
SEARCH_STATS = {
    "spatial.filter_ns_p50", "spatial.candidates_p50", "spatial.candidates_sum",
    "spatial.results_p50", "spatial.verify_yield", "spatial.reject_ratio_p50",
}
MEASURED_ON = {
    "search-401k": SEARCH_STATS | {
        "envs.generate_s", "spatial.first_query_s", "spatial.query_p99_ms",
        "spatial.query_warm_ms_p50", "spatial.bruteforce_ms_p50",
        "spatial.ckdtree_build_s", "spatial.ckdtree_query_ms_p50", "trace_overhead_frac",
    },
    "train-shaped": {
        "temporal.envelope_update_calls", "temporal.envelope_update_s",
        "temporal.envelope_query_calls", "temporal.envelope_query_s",
        "temporal.breakpoints_final", "qlearn.train_s", "qlearn.self_s",
        "qlearn.train_steps", "qlearn.eval_steps", "trace_overhead_frac",
    },
    "canonize-query": SEARCH_STATS | {
        "serialize.read_raw_s", "core.standardize_s", "core.extend_s", "core.window_reads",
        "temporal.halt_attr_s", "temporal.halts", "spatial.add_attributes_s",
        "serialize.write_s", "serialize.bytes_written", "serialize.read_s",
        "spatial.first_query_s", "spatial.query_warm_ms_p50", "trace_overhead_frac",
    },
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(worker, name, value)


def run_worker(capsys, out_dir: Path, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--out", str(out_dir)]
    assert worker.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def report(parts, workload, trace, out_dir) -> int:
    args = argparse.Namespace(workload=workload, seed=3, seconds=1, trace=trace)
    return launcher.report(args, parts, [] if trace else [0.01, 0.02, 0.03], out_dir)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace):
    processes = 1 if trace else 2
    parts = [run_worker(capsys, tmp_path, workload, trace) for _ in range(processes)]
    for part in parts:
        assert part["failed"] == 0 and part["correct"] and part["attempted"] >= 1

    assert report(parts, workload, trace, tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] == sum(p["attempted"] for p in parts)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        value = final["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.strip().startswith(f"{m['name']} = ")
                   and line.rstrip().endswith(f" {m['unit']}") for line in lines)
        if not trace:
            assert value > 0, m["name"]
        elif m["name"] in MEASURED_ON[workload]:
            assert value != 0, m["name"]


def test_every_per_layer_metric_is_measured_on_some_workload():
    assert set().union(*MEASURED_ON.values()) == {m["name"] for m in BENCH["per_layer"]}


def test_dropped_search_index_is_counted_as_failed(capsys, tmp_path, monkeypatch):
    real = cf.r_neighbor_filtered

    def dropping(dataset, query, **kwargs):
        report = real(dataset, query, **kwargs)
        return dataclasses.replace(report, result_indices=report.result_indices[:-1])

    monkeypatch.setattr(cf, "r_neighbor_filtered", dropping)
    res = run_worker(capsys, tmp_path, "search-401k", 0)
    assert res["failed"] == TINY["SEARCH_AUDITS"]
    assert not res["correct"]
    assert report([res], "search-401k", 0, tmp_path) != 0


def test_changed_curve_byte_is_counted_as_failed(capsys, tmp_path, monkeypatch):
    real = cf.write_curve

    def flipping(result, path):
        real(result, path)
        data = bytearray(Path(path).read_bytes())
        data[-2] ^= 1
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(cf, "write_curve", flipping)
    res = run_worker(capsys, tmp_path, "train-shaped", 0)
    assert res["failed"] == res["attempted"] >= 1
    assert not res["correct"]


def test_sample_lost_on_load_is_counted_as_failed(capsys, tmp_path, monkeypatch):
    real = cf.read_dataset

    def lossy(path):
        dataset = real(path)
        out = cf.CanonicalDataset(dataset.metadata, dataset.anchor_set)
        return out.extend(list(dataset)[:-1])

    monkeypatch.setattr(cf, "read_dataset", lossy)
    res = run_worker(capsys, tmp_path, "canonize-query", 0)
    assert res["failed"] >= 1
    assert not res["correct"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
