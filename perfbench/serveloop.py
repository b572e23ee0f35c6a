"""Drive the durable node through one benchmark workload and gate it.

Each measured session is one :class:`repro.store.service.NodeService`
run on a fresh data dir — the same object ``python -m repro serve``
drives.  :class:`BlockLoop` wraps the serve loop's public entry points
from outside (workload generator, ``ProposerNode.build_block``,
``ValidatorNode.receive_blocks`` and the ``open_store`` call that ends
set-up) to time every block.

Closed loop: the node generates block ``h + 1`` only after block ``h``
was validated, committed and appended to disk.  A run of ``seconds``
produces a fixed number of blocks (:func:`loop_blocks`), so every run of
a workload does the same work whatever the host's speed.

Correctness gates (:class:`GateError`, the run reports no numbers):

* every block is accepted by the node's own validator;
* every committed transaction was generated, none twice;
* a cold restart (``open_store``) reaches the pre-shutdown head hash and
  state root;
* the first :data:`CROSS_CHECK_BLOCKS` blocks (all of them in a shorter
  run) are bit-identical when the same seed runs on the other real-core
  backend (serial vs process).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from layers import BLOCK_SPAN, RECOVERY_SPAN, LayerProbe, Patcher, WallClock

#: Snapshot every 10 heights; a timed loop ends on a height ≡ STOP_PHASE
#: (mod 10), so every restart loads one snapshot and replays 5 blocks.
SNAPSHOT_INTERVAL = 10
STOP_PHASE = 5
#: set-up and restart are short, fixed work; each is repeated until it has
#: at least ``least`` samples and ``budget_s`` of measured time (at most
#: ``most`` samples), and the median is reported
SETUP_REPEATS = dict(least=2, budget_s=2.0, most=15)
#: taken twice, before and after the set-up and cross-check sessions, so
#: the samples span more of the host's slow and fast phases
RECOVERY_REPEATS = dict(least=3, budget_s=5.0, most=25)
#: crosses the snapshot at height 10, so the check covers grown state too
CROSS_CHECK_BLOCKS = 15
#: transactions per block (paper-calibrated)
TXS_PER_BLOCK = 132
#: fsync every log append, snapshot and manifest write (the serve default)
FSYNC = True
#: Seed kept out of every tuning run; later performance claims are
#: re-checked on it.
HELD_OUT_SEED = 7919


class GateError(RuntimeError):
    """A correctness check failed; the run must not report numbers."""


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Optional[str]
    backend: str
    workers: int
    #: blocks per second of the timed loop on the reference host (2-core
    #: x86-64 VM, Python 3.11); sets the block count of a run
    blocks_per_s: float
    why: str
    #: listed in BENCHMARK.json, i.e. steady enough to gate a change on
    gated: bool = True

    @property
    def cross_backend(self) -> str:
        return "serial" if self.backend == "process" else "process"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mainnet",
            scenario=None,
            backend="serial",
            workers=1,
            blocks_per_s=4.0,
            why="paper-calibrated mix on a 400-EOA universe: trie, EVM, sealing and snapshots do the work",
        ),
        Workload(
            name="counter-shared",
            scenario="counter-shared",
            backend="serial",
            workers=1,
            blocks_per_s=4.0,
            why="every transfer bumps one shared slot: aborts and proposer re-execution dominate",
        ),
        # Not gated: on a shared 2-vCPU host its throughput moved 151-245
        # tx/s across five seeds (bimodal, whenever a neighbour holds one
        # vCPU), and 176-224 tx/s even with one worker.
        Workload(
            name="mainnet-process",
            scenario=None,
            backend="process",
            workers=worker_count(),
            blocks_per_s=2.2,
            why="same inputs on the process backend: pool start-up, pickling and IPC dominate",
            gated=False,
        ),
    )
}


def loop_blocks(workload: Workload, seconds: float) -> int:
    """Blocks in a timed loop of about ``seconds`` on the reference host.

    Rounded to a height ≡ :data:`STOP_PHASE` (mod :data:`SNAPSHOT_INTERVAL`).
    """
    tens = round((workload.blocks_per_s * seconds - STOP_PHASE) / SNAPSHOT_INTERVAL)
    return SNAPSHOT_INTERVAL * max(0, tens) + STOP_PHASE


@dataclass
class Session:
    """What one NodeService run did, seen from outside."""

    setup_s: float = 0.0
    loop_start: float = 0.0
    loop_end: float = 0.0
    generated: int = 0
    committed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: height -> block hash hex, for the cross-backend check
    hashes: Dict[int, str] = field(default_factory=dict)
    report: Any = None
    metrics: Any = None

    @property
    def blocks(self) -> int:
        return len(self.latencies_s)

    @property
    def loop_wall_s(self) -> float:
        return self.loop_end - self.loop_start

    @property
    def tx_per_s(self) -> float:
        return self.committed / self.loop_wall_s


class BlockLoop:
    """Times one serve session from outside.

    ``setup_only`` stops the node (SIGTERM, as ``serve`` honours it) before
    the first block.  With a ``probe``, every block (generation to commit)
    is one root span.
    """

    def __init__(
        self,
        session: Session,
        *,
        setup_only: bool = False,
        probe: Optional[LayerProbe] = None,
    ) -> None:
        self.session = session
        self.setup_only = setup_only
        self.probe = probe
        self.started = 0.0
        self._depth = 0
        self._block_scope: Any = None
        self._build_start = 0.0
        self._generated: set = set()
        self._committed: set = set()

    def install(self, patcher: Patcher) -> None:
        patcher.target("repro.store.service:open_store", self._wrap_open_store)
        from repro.workload.generator import BlockWorkloadGenerator
        from repro.workload.scenarios import ScenarioStream

        # scenario streams override generation in subclasses of their own
        for cls in [BlockWorkloadGenerator, *_subclasses(ScenarioStream)]:
            if "generate_block_txs" in cls.__dict__:
                patcher.method(cls, "generate_block_txs", self._wrap_generate)
        patcher.target("repro.network.node:ProposerNode.build_block", self._wrap_build)
        patcher.target("repro.network.node:ValidatorNode.receive_blocks", self._wrap_receive)

    def _wrap_open_store(self, fn: Callable) -> Callable:
        def open_store(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            self.session.setup_s = time.perf_counter() - self.started
            if self.setup_only:
                signal.raise_signal(signal.SIGTERM)
            return result

        return open_store

    def _wrap_generate(self, fn: Callable) -> Callable:
        def generate_block_txs(generator: Any, *args: Any, **kwargs: Any) -> Any:
            # a scenario stream delegates to an inner generator: count once
            self._depth += 1
            try:
                if self._depth > 1:
                    return fn(generator, *args, **kwargs)
                now = time.perf_counter()
                if not self.session.loop_start:
                    self.session.loop_start = now
                probe = self.probe
                if probe is None:
                    txs = fn(generator, *args, **kwargs)
                else:
                    self._block_scope = probe.open(BLOCK_SPAN)
                    scope, span = probe.open("workload.gen")
                    try:
                        txs = fn(generator, *args, **kwargs)
                    finally:
                        probe.close(scope, span)
            finally:
                self._depth -= 1
            for tx in txs:
                self._generated.add(bytes(tx.hash))
            self.session.generated += len(txs)
            return txs

        return generate_block_txs

    def _wrap_build(self, fn: Callable) -> Callable:
        def build_block(node: Any, *args: Any, **kwargs: Any) -> Any:
            self._build_start = time.perf_counter()
            return fn(node, *args, **kwargs)

        return build_block

    def _wrap_receive(self, fn: Callable) -> Callable:
        def receive_blocks(node: Any, blocks: Any, *args: Any, **kwargs: Any) -> Any:
            outcome = fn(node, blocks, *args, **kwargs)
            end = time.perf_counter()
            if self._block_scope is not None:
                self.probe.close(*self._block_scope)
                self._block_scope = None
            session = self.session
            session.loop_end = end
            session.latencies_s.append(end - self._build_start)
            if outcome.rejected or len(outcome.accepted) != len(blocks):
                raise GateError(
                    f"block at height {blocks[0].number} rejected by its own validator: "
                    + ", ".join(f.reason.value for f in outcome.failures if f is not None)
                )
            for block in outcome.accepted:
                session.hashes[block.number] = bytes(block.hash).hex()
                for tx in block.transactions:
                    key = bytes(tx.hash)
                    if key not in self._generated or key in self._committed:
                        raise GateError(
                            f"block {block.number} commits a transaction never generated or already committed"
                        )
                    self._committed.add(key)
                session.committed += len(block.transactions)
            return outcome

        return receive_blocks


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def cold_caches() -> None:
    """Empty the process-wide memos, so each session starts like a new node.

    Without this, a session reuses the trie-key hashes an earlier session
    of the same seed left in the keccak memo and runs faster than a fresh
    ``serve`` process would.  A memo the program no longer has is skipped.
    """
    from repro.evm import interpreter
    from repro.state import cache

    memo = getattr(cache, "_keccak_memo", None)
    if memo is not None:
        memo.clear()
    jumpdests = getattr(interpreter, "_valid_jumpdests", None)
    if jumpdests is not None:
        jumpdests.cache_clear()
    gc.collect()


def serve_session(
    workload: Workload,
    *,
    seed: int,
    data_dir: str,
    backend_name: str,
    workers: int,
    max_height: int = 0,
    setup_only: bool = False,
    probe: Optional[LayerProbe] = None,
) -> Session:
    """One NodeService run on a fresh data dir."""
    from repro.exec import get_backend
    from repro.obs import MetricsRegistry
    from repro.store.service import NodeService, ServeConfig

    shutil.rmtree(data_dir, ignore_errors=True)
    session = Session()
    loop = BlockLoop(session, setup_only=setup_only, probe=probe)
    patcher = Patcher()
    loop.install(patcher)
    config = ServeConfig(
        data_dir=data_dir,
        seed=seed,
        txs_per_block=TXS_PER_BLOCK,
        scenario=workload.scenario,
        max_height=max_height,
        snapshot_interval=SNAPSHOT_INTERVAL,
        fsync=FSYNC,
    )
    # like ``python -m repro serve``: the node always carries a registry
    service = NodeService(config, backend=get_backend(backend_name, workers), metrics=MetricsRegistry())
    cold_caches()
    try:
        loop.started = time.perf_counter()
        session.report = service.run(handle_signals=True)
    finally:
        patcher.restore()
        if service.backend is not None:
            service.backend.close()
    session.metrics = service.metrics.snapshot()["counters"]
    return session


def recover_and_check(data_dir: str, session: Session, probe: Optional[LayerProbe] = None) -> float:
    """Cold restart on the run's data dir; returns seconds to the old head."""
    from repro.store import open_store

    report = session.report
    cold_caches()
    scope = probe.open(RECOVERY_SPAN) if probe is not None else None
    started = time.perf_counter()
    chain, store, _ = open_store(data_dir, None, snapshot_interval=SNAPSHOT_INTERVAL, fsync=FSYNC)
    head = chain.head
    elapsed = time.perf_counter() - started
    if scope is not None:
        probe.close(*scope)
    try:
        if bytes(head.hash).hex() != report.head_hash or bytes(head.header.state_root).hex() != report.state_root:
            raise GateError(
                f"restart reached head {bytes(head.hash).hex()[:12]} at height {head.number}, "
                f"expected {report.head_hash[:12]} at height {report.height}"
            )
        store.seal()
    finally:
        store.close()
    return elapsed


def cross_check(workload: Workload, session: Session, cross: Session) -> None:
    for height in range(1, cross.report.height + 1):
        if cross.hashes.get(height) != session.hashes.get(height):
            raise GateError(
                f"height {height}: {workload.backend} and {workload.cross_backend} backends "
                "sealed different blocks for the same seed"
            )


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` × the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def tail(latencies_ms: List[float]) -> Dict[str, float]:
    """Highest whole percentile with at least 10 blocks beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"value": ordered[rank - 1], "percentile": float(pct), "n": n}


def repeat(sample: Callable[[], float], *, least: int, budget_s: float, most: int) -> List[float]:
    samples: List[float] = []
    while len(samples) < most and (len(samples) < least or sum(samples) < budget_s):
        samples.append(sample())
    return samples


def measure(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    work_dir: str,
    traced: bool,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload; returns metrics (end-to-end, or per layer when traced)."""
    node_dir = os.path.join(work_dir, "node")
    common = dict(seed=seed)
    own = dict(backend_name=workload.backend, workers=workload.workers)
    height = loop_blocks(workload, seconds)

    main = serve_session(workload, data_dir=node_dir, **own, max_height=height, **common)
    setups = [main.setup_s]
    result: Dict[str, Any] = {"session": main}
    if not traced:
        recoveries = repeat(lambda: recover_and_check(node_dir, main), **RECOVERY_REPEATS)
        rss = peak_rss_mb(workload.workers if workload.backend == "process" else 0)
        setups += repeat(
            lambda: serve_session(
                workload, data_dir=os.path.join(work_dir, "setup"), **own, setup_only=True, **common
            ).setup_s,
            **SETUP_REPEATS,
        )
    cross = serve_session(
        workload,
        data_dir=os.path.join(work_dir, "cross"),
        backend_name=workload.cross_backend,
        workers=worker_count() if workload.cross_backend == "process" else 1,
        max_height=min(CROSS_CHECK_BLOCKS, height),
        **common,
    )
    cross_check(workload, main, cross)
    setups.append(cross.setup_s)

    if not traced:
        recoveries += repeat(lambda: recover_and_check(node_dir, main), **RECOVERY_REPEATS)
        latencies_ms = [x * 1e3 for x in main.latencies_s]
        result["tail"] = tail(latencies_ms)
        result["metrics"] = {
            "tx_per_s": (main.tx_per_s, "tx/s"),
            "block_p50_ms": (statistics.median(latencies_ms), "ms"),
            "block_tail_ms": (result["tail"]["value"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "recovery_s": (statistics.median(recoveries), "s"),
            "peak_rss_mb": (rss, "MB"),
            "tx_committed_ratio": (main.committed / main.generated, "ratio"),
        }
        return result

    from layers import layer_report, self_time_table
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    tracer.processes[0] = f"perfbench {workload.name}"
    patcher = Patcher()
    probe = LayerProbe(tracer, WallClock(), patcher)
    probe.install()
    try:
        traced_run = serve_session(
            workload, data_dir=node_dir, **own, max_height=height, probe=probe, **common
        )
        recover_and_check(node_dir, traced_run, probe)
    finally:
        patcher.restore()
    layers = layer_report(
        probe,
        committed_txs=traced_run.committed,
        counters=traced_run.metrics,
        loop_wall_s=traced_run.loop_wall_s,
    )
    layers["trace_overhead"] = main.tx_per_s / traced_run.tx_per_s
    result["traced"] = traced_run
    result["metrics"] = {name: (value, LAYER_UNITS[name]) for name, value in layers.items() if name in LAYER_UNITS}
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        stem = os.path.join(trace_dir, f"trace-{workload.name}-s{seed}")
        write_chrome_trace(tracer, stem + ".json")
        with open(stem + "-layers.txt", "w", encoding="utf-8") as fh:
            fh.write(self_time_table(tracer, traced_run.loop_wall_s))
        result["trace_files"] = [stem + ".json", stem + "-layers.txt"]
    return result


LAYER_UNITS: Dict[str, str] = {
    "workload.gen_ms": "ms",
    "txpool.add_ms": "ms",
    "core.propose_ms": "ms",
    "core.commit_ratio": "ratio",
    "core.seal_ms": "ms",
    "core.validate_ms": "ms",
    "core.depgraph_ms": "ms",
    "core.applier_ms": "ms",
    "core.components": "count",
    "core.largest_component_ratio": "ratio",
    "core.serial_fallbacks": "count",
    "exec.map_ms": "ms",
    "exec.map_calls": "count",
    "exec.pool_starts": "count",
    "exec.open_ms": "ms",
    "exec.payload_kb": "KiB",
    "evm.apply_ms": "ms",
    "evm.applies_per_tx": "count",
    "state.commit_ms": "ms",
    "state.root_ms": "ms",
    "state.root_calls": "count",
    "state.genesis_s": "s",
    "chain.add_ms": "ms",
    "chain.receipts_root_calls": "count",
    "store.append_ms": "ms",
    "store.encode_ms": "ms",
    "store.log_bytes": "bytes",
    "store.fsyncs": "count",
    "store.snapshot_ms": "ms",
    "store.snapshot_bytes": "bytes",
    "store.recover_load_s": "s",
    "store.recover_replay_ms": "ms",
    "store.recover_decode_ms": "ms",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}
