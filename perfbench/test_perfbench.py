"""Tests of the benchmark itself: declared metrics, the hash gate, seeds.

They run the benchmark runner on toy-sized versions of the workloads, so they take a
few seconds.  Run with ``python -m pytest perfbench -q`` from the repo root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import steady
from child import payload_digest
from tracer import PER_LAYER

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert set(run.TINY_WORKLOADS) == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.TINY_WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=run.TINY_WORKLOADS)
    assert code == 0
    *lines, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split() for line in lines[1:]}
    for metric, unit in declared.items():
        assert unit in printed[metric]
        assert any(word.startswith("n=") for word in printed[metric])
    assert "fail_ratio" in printed
    if not trace and run.TINY_WORKLOADS[name].sweep:
        assert "s" in printed["warm_call_s"]


def cli_output(argv) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "parafock.cli", *argv],
                          env=run.child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout


def gate_fails(argv, code, text) -> bool:
    meta, sha = payload_digest(text)
    record = {"argv": list(argv), "exit": code, "meta": meta, "sha256": sha}
    return run.call_failed(record, REFERENCE)


def test_hash_gate_fails_on_one_flipped_payload_byte():
    argv = run.TINY_WORKLOADS["gram_cold"].job[0]
    code, text = cli_output(argv)
    assert not gate_fails(argv, code, text)
    payload_start = text.index("\n") + 1
    for pos in (payload_start, (payload_start + len(text)) // 2, len(text) - 2):
        flipped = text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1:]
        assert gate_fails(argv, code, flipped)
    assert gate_fails(argv, 1, text)


def test_hash_gate_checks_only_the_command_name_in_the_meta_record():
    argv = run.TINY_WORKLOADS["gram_cold"].job[0]
    code, text = cli_output(argv)
    meta_line, _, payload = text.partition("\n")
    meta = json.loads(meta_line)
    echoed = dict(meta, seed=7, threads=2)
    assert not gate_fails(argv, code, json.dumps(echoed) + "\n" + payload)
    renamed = dict(meta, meta="matelems")
    assert gate_fails(argv, code, json.dumps(renamed) + "\n" + payload)


def test_seeds_permute_call_order_but_no_per_call_hash():
    workload = run.TINY_WORKLOADS["order_sweep"]
    orders = {seed: run.ordered_job(workload, seed) for seed in (0, 4)}
    assert orders[0] != orders[4]
    assert sorted(orders[0]) == sorted(orders[4]) == sorted(workload.job)
    hashes = {}
    for seed, job in orders.items():
        res = run.run_child(job)
        assert [tuple(rec["argv"]) for rec in res["job"]] == job
        hashes[seed] = {run.call_key(rec["argv"]): rec["sha256"]
                        for rec in res["job"]}
    assert hashes[0] == hashes[4]
    assert hashes[0] == {key: REFERENCE[key]["sha256"] for key in hashes[0]}


def test_traced_counts_repeat_exactly(tmp_path):
    job = run.TINY_WORKLOADS["gram_cold"].job
    counts = []
    for _ in range(2):
        res = run.run_child(job, trace=True, spans_out=tmp_path / "s.jsonl")
        counts.append({metric: res["layers"][metric]
                       for metric, unit, _ in PER_LAYER
                       if unit != "s" and metric in res["layers"]})
    assert counts[0] == counts[1]
    assert counts[0]["verma.gram_block_for_content.calls"] > 0
    spans = [json.loads(line)
             for line in (tmp_path / "s.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent"} == set(spans[0])


def test_steady_clock_reads_a_twice_slower_host_as_half(monkeypatch):
    """A host on which the probe takes twice its reference time advances the
    clock by half the wall time, the probes' own time left out."""
    def slow_probe():
        end = time.perf_counter() + 2 * steady.PROBE_REF_S
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(steady, "probe", slow_probe)
    clock = steady.SteadyClock()
    assert clock.start() == pytest.approx(0.5, rel=0.1)
    start = time.perf_counter()
    while time.perf_counter() < start + 0.3:
        pass
    clock.stop()
    wall = time.perf_counter() - start
    assert clock.probes >= 5
    assert clock.total == pytest.approx(0.5 * (wall - clock.probe_s), rel=0.1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
