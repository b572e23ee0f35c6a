"""Tests of the wall-clock node benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Smoke runs use a sub-second loop (5 blocks); they check the output
contract, not the numbers.  The negative runs corrupt a block or the
store on purpose, in this process, and require the run to fail without
printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import serveloop  # noqa: E402
from layers import Patcher  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = list(serveloop.WORKLOADS)


SMOKE_ARGS = ["--seed", "3", "--seconds", "0.2"]


def run_bench(workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, *SMOKE_ARGS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def test_spec_lists_the_gated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in serveloop.WORKLOADS.values() if w.gated]
    for entry in SPEC["workloads"]:
        assert entry["why"] == serveloop.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = run_bench(workload)
    metrics = result_of(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        entry = metrics[spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert entry["value"] > 0
        # the human-readable table names every metric with its unit too
        assert any(
            line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
            for line in proc.stdout.splitlines()
        )
    context = json.loads(proc.stdout.split("context ", 1)[1].splitlines()[0])
    for key in ("nproc", "python", "backend", "workers", "fsync", "seconds", "block_tail_percentile"):
        assert key in context


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    proc = run_bench(workload, trace=1)
    metrics = result_of(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["evm.apply_ms"]["value"] > 0
    assert 0 <= metrics["unattributed_share"]["value"] < 0.5
    context = json.loads(proc.stdout.split("context ", 1)[1].splitlines()[0])
    for path in context["trace_files"]:
        assert os.path.getsize(os.path.join(ROOT, path)) > 0


def seal_wrong_state_root(monkeypatch):
    """The proposer seals block 2 with a state root it did not compute."""
    from repro.network.node import ProposerNode

    build_block = ProposerNode.build_block

    def tampered(node, *args, **kwargs):
        sealed = build_block(node, *args, **kwargs)
        block = sealed.block
        if block.number != 2:
            return sealed
        header = dataclasses.replace(block.header, state_root=type(block.header.state_root)(b"\x01" * 32))
        return dataclasses.replace(sealed, block=dataclasses.replace(block, header=header))

    monkeypatch.setattr(ProposerNode, "build_block", tampered)


def roll_back_one_block(data_dir):
    """Drop the sealed store's last block, as if its last write was lost.

    The store stays self-consistent (manifest, log and snapshot agree), so
    recovery succeeds, one block short of the pre-shutdown head.
    """
    from repro.store.blocklog import BlockLog
    from repro.store.manifest import Manifest

    manifest = Manifest.load(data_dir)
    log = BlockLog(os.path.join(data_dir, manifest.log_file), fsync=False)
    records = list(log.scan())
    last_offset, _ = records[-1]
    previous = records[-2][1]
    log.truncate_to(last_offset)
    log.close()
    manifest.height = previous.number
    manifest.head_hash = bytes(previous.hash).hex()
    manifest.state_root = bytes(previous.header.state_root).hex()
    manifest.log_bytes = last_offset
    manifest.write(data_dir, fsync=False)


def restart_on_rolled_back_store(monkeypatch):
    recover_and_check = serveloop.recover_and_check
    rolled_back = []

    def tampered(data_dir, *args, **kwargs):
        if not rolled_back:
            roll_back_one_block(data_dir)
            rolled_back.append(data_dir)
        return recover_and_check(data_dir, *args, **kwargs)

    monkeypatch.setattr(serveloop, "recover_and_check", tampered)


@pytest.mark.parametrize("tamper", [seal_wrong_state_root, restart_on_rolled_back_store])
def test_tampered_run_fails_without_numbers(tamper, monkeypatch, capsys):
    tamper(monkeypatch)
    code = run.main(["--workload", "counter-shared", *SMOKE_ARGS, "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "correctness check failed" in err
    assert '"metrics"' not in out


def test_tail_is_the_highest_percentile_with_ten_blocks_beyond():
    latencies = [float(i) for i in range(1, 51)]
    tail = serveloop.tail(latencies)
    assert tail == {"value": 40.0, "percentile": 80.0, "n": 50}
    assert sum(1 for x in latencies if x > tail["value"]) >= 10


def test_patcher_restores_methods_and_functions():
    from repro.chain import block as block_module
    from repro.core import applier
    from repro.exec.backend import ExecutionBackend, SerialBackend
    from repro.store.manifest import Manifest

    original_fn = block_module.receipts_root
    original_map = SerialBackend.map
    original_load = Manifest.__dict__["load"]
    wrap = lambda fn: lambda *a: fn(*a)  # noqa: E731
    patcher = Patcher()
    patcher.target("repro.chain.block:receipts_root", wrap)
    patcher.target("repro.exec.backend:SerialBackend.map", wrap)
    patcher.target("repro.exec.backend:SerialBackend.open", wrap)  # inherited
    patcher.target("repro.store.manifest:Manifest.load", wrap)  # classmethod
    assert block_module.receipts_root is not original_fn
    assert applier.receipts_root is block_module.receipts_root
    assert "open" in SerialBackend.__dict__
    assert isinstance(Manifest.__dict__["load"], classmethod)
    patcher.restore()
    assert block_module.receipts_root is original_fn
    assert applier.receipts_root is original_fn
    assert SerialBackend.map is original_map
    assert "open" not in SerialBackend.__dict__
    assert SerialBackend.open is ExecutionBackend.open
    assert Manifest.__dict__["load"] is original_load
