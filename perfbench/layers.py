"""Wall-clock layer spans around the node's public callables.

The benchmark never edits the program under test.  :class:`Patcher` swaps
a class method or a module attribute for a wrapper and puts the original
back on :meth:`Patcher.restore`; :class:`LayerProbe` uses it to open one
:class:`repro.obs.Tracer` span, fed wall-clock microseconds, around every
layer entry point in :data:`LAYER_TARGETS`.  Spans nest through the
tracer's scope stack, so each span knows the block (or setup, or recovery)
it ran under.

:func:`layer_report` turns the recorded spans into the per-layer metrics,
and :func:`self_time_table` into the text table written next to the
Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, target).  ``module:Class.method`` patches the class;
#: ``module:function`` patches the function in every loaded ``repro``
#: module that imported it by name.  The span name's prefix is the layer.
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("txpool.add", "repro.txpool.pool:TxPool.add_many"),
    ("core.propose", "repro.core.occ_wsi:OCCWSIProposer.propose"),
    ("core.seal", "repro.core.proposer:seal_block"),
    ("core.validate", "repro.core.pipeline:ValidatorPipeline.process_blocks"),
    ("core.depgraph", "repro.core.depgraph:build_dependency_graph"),
    ("core.applier", "repro.core.applier:Applier.verify_block"),
    ("core.applier", "repro.core.applier:Applier.verify_tx"),
    ("exec.open", "repro.exec.backend:ExecutionBackend.open"),
    ("exec.open", "repro.exec.backend:ProcessBackend.open"),
    ("exec.map", "repro.exec.backend:SerialBackend.map"),
    ("exec.map", "repro.exec.backend:ProcessBackend.map"),
    ("exec.validate_parallel", "repro.exec.validating:execute_block_parallel"),
    ("evm.apply", "repro.evm.interpreter:EVM.apply_transaction"),
    ("state.genesis", "repro.state.statedb:genesis_snapshot"),
    ("state.commit", "repro.state.statedb:StateDB.commit"),
    ("state.root", "repro.state.trie:MPT.root_hash"),
    ("chain.add", "repro.chain.blockchain:Blockchain.add_block"),
    ("chain.receipts_root", "repro.chain.block:receipts_root"),
    ("store.write", "repro.store.backend:DiskStore.on_block"),
    ("store.append", "repro.store.blocklog:BlockLog.append"),
    ("store.encode", "repro.store.codec:encode_block"),
    ("store.encode", "repro.store.codec:verify_roundtrip"),
    ("store.snapshot", "repro.store.snapshots:write_snapshot"),
    ("store.manifest_load", "repro.store.manifest:Manifest.load"),
    ("store.snapshot_load", "repro.store.snapshots:load_snapshot"),
    ("store.decode", "repro.store.codec:decode_block"),
    ("store.replay", "repro.core.baselines:SerialExecutor.execute_block"),
)

#: Root spans the benchmark itself opens (see ``serveloop``).
BLOCK_SPAN = "block"
RECOVERY_SPAN = "recovery"

_INHERITED = object()


class Patcher:
    """Swap attributes for wrappers; :meth:`restore` undoes every swap."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        # an inherited method is not in the class dict: restore deletes it
        self._undo.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.name`` (plain, class- or static method)."""
        raw = cls.__dict__.get(name)
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, name, make(getattr(cls, name)))

    def function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.name`` and every ``from module import name`` copy."""
        original = getattr(module, name)
        wrapped = make(original)
        self._set(module, name, wrapped)
        for mod in list(sys.modules.values()):
            if mod is module or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if mod.__dict__.get(name) is original:
                self._set(mod, name, wrapped)

    def target(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, _, method = attr.partition(".")
            self.method(getattr(module, cls_name), method, make)
        else:
            self.function(module, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


class WallClock:
    """Microseconds since construction (the tracer's time axis)."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def __call__(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6


class LayerProbe:
    """Records one wall-clock span per call of every layer entry point.

    Spans are recorded in the benchmark process only.  Process-backend
    workers inherit the patched classes through ``fork`` and call straight
    through, except for ``evm.apply``: workers add its wall time and call
    count to a shared-memory pair, so EVM work is visible on every backend.
    Bytes crossing the process boundary are counted where
    ``multiprocessing`` pickles and unpickles them, without pickling again.
    """

    def __init__(self, tracer: Any, clock: WallClock, patcher: Patcher) -> None:
        self.tracer = tracer
        self.clock = clock
        self.patcher = patcher
        self.pid = os.getpid()
        #: [seconds, calls] of ``evm.apply`` inside worker processes
        self.worker_evm = multiprocessing.Array("d", 2)
        self.pool_starts = 0
        #: one entry per pickled/unpickled message (list.append is atomic,
        #: and the executor pickles on its own threads)
        self.ipc_bytes: List[int] = []

    def open(self, name: str) -> Tuple[Any, Any]:
        scope = self.tracer.scope(name, self.clock())
        return scope, scope.__enter__()

    def close(self, scope: Any, span: Any) -> None:
        span.end = self.clock()
        scope.__exit__(None, None, None)

    def timed(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any, tuple, Any], None]] = None,
    ) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != probe.pid:
                return fn(*args, **kwargs)
            scope, span = probe.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                probe.close(scope, span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        # lazily imported modules must be loaded before their
        # ``from x import f`` copies can be found and patched
        for module in ("repro.exec.validating", "repro.exec.proposing", "repro.store.recovery"):
            importlib.import_module(module)
        hooks: Dict[str, Callable[[Any, tuple, Any], None]] = {
            "exec.validate_parallel": _after_validate_parallel,
            "core.validate": _after_process_blocks,
            "store.snapshot": _after_snapshot,
        }
        for name, target in LAYER_TARGETS:
            try:
                self.patcher.target(target, functools.partial(self.timed, name, after=hooks.get(name)))
            except (ImportError, AttributeError) as exc:
                # a renamed entry point reads as 0 for its layer; the run goes on
                print(f"perfbench: no span for {name} ({target}): {exc}", file=sys.stderr)
        self.patcher.target("repro.evm.interpreter:EVM.apply_transaction", self._in_workers)
        self.patcher.target("repro.exec.backend:ProcessBackend.open", self._count_pool_starts)
        self.patcher.function(os, "fsync", functools.partial(self.timed, "store.fsync"))
        pickler = importlib.import_module("multiprocessing.reduction").ForkingPickler
        self.patcher.method(pickler, "dumps", self._count_dumps)
        self.patcher.method(pickler, "loads", self._count_loads)

    def _in_workers(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def apply_transaction(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == probe.pid:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with probe.worker_evm.get_lock():
                    probe.worker_evm[0] += elapsed
                    probe.worker_evm[1] += 1

        return apply_transaction

    def _count_pool_starts(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def open(backend: Any, shared: Any) -> Any:
            before = getattr(backend, "_pool", None)
            result = fn(backend, shared)
            if getattr(backend, "_pool", None) is not before:
                probe.pool_starts += 1
            return result

        return open

    def _count_dumps(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def dumps(cls: Any, obj: Any, *args: Any, **kwargs: Any) -> Any:
            data = fn(cls, obj, *args, **kwargs)
            if os.getpid() == probe.pid:
                probe.ipc_bytes.append(len(data))
            return data

        return dumps

    def _count_loads(self, fn: Callable) -> Callable:
        probe = self

        def loads(data: Any, *args: Any, **kwargs: Any) -> Any:
            if os.getpid() == probe.pid:
                probe.ipc_bytes.append(memoryview(data).nbytes)
            return fn(data, *args, **kwargs)

        return staticmethod(loads)


def _after_validate_parallel(span: Any, args: tuple, result: Any) -> None:
    span.attrs["serial_fallback"] = int(result is None)


def _after_process_blocks(span: Any, args: tuple, result: Any) -> None:
    graphs = [r.graph for r in result.results if r is not None and r.graph is not None]
    span.attrs["components"] = sum(len(g.components) for g in graphs)
    span.attrs["largest_ratio"] = sum(g.largest_component_ratio() for g in graphs)
    span.attrs["serial_fallback"] = sum(
        1 for r in result.results if r is not None and r.used_serial_fallback
    )


def _after_snapshot(span: Any, args: tuple, result: Any) -> None:
    data_dir = args[0]
    span.attrs["bytes"] = os.path.getsize(os.path.join(data_dir, result[0]))


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #


class SpanIndex:
    """Parent links, root categories and outermost-of-group queries."""

    def __init__(self, spans: Iterable[Any]) -> None:
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: Dict[Optional[int], List[Any]] = defaultdict(list)
        for s in self.spans:
            self.children[s.parent_id].append(s)
        self._root: Dict[int, Any] = {}

    def root(self, span: Any) -> Any:
        cached = self._root.get(span.id)
        if cached is not None:
            return cached
        node = span
        while node.parent_id is not None:
            node = self.by_id[node.parent_id]
        self._root[span.id] = node
        return node

    def ancestors(self, span: Any) -> Iterable[Any]:
        node = span
        while node.parent_id is not None:
            node = self.by_id[node.parent_id]
            yield node

    def under(self, root_name: str) -> List[Any]:
        """Descendants of every root span named ``root_name``."""
        return [s for s in self.spans if s.parent_id is not None and self.root(s).name == root_name]

    def outermost(self, spans: List[Any], names: Tuple[str, ...]) -> List[Any]:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        return [
            s
            for s in spans
            if s.name in names and not any(a.name in names for a in self.ancestors(s))
        ]


def _ms(spans: List[Any]) -> float:
    return sum(s.duration for s in spans) / 1e3


def layer_report(
    probe: LayerProbe,
    *,
    committed_txs: int,
    counters: Dict[str, float],
    loop_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (per block unless named otherwise)."""
    index = SpanIndex(probe.tracer.spans)
    roots = [s for s in index.spans if s.parent_id is None]
    blocks = [s for s in roots if s.name == BLOCK_SPAN]
    n_blocks = max(1, len(blocks))
    loop = index.under(BLOCK_SPAN)
    setup = [s for s in index.spans if index.root(s).name not in (BLOCK_SPAN, RECOVERY_SPAN)]
    recovery = index.under(RECOVERY_SPAN)
    n_recoveries = max(1, sum(1 for s in roots if s.name == RECOVERY_SPAN))

    def named(spans: List[Any], *names: str) -> List[Any]:
        return index.outermost(spans, names)

    def per_block_ms(*names: str) -> float:
        return _ms(named(loop, *names)) / n_blocks

    def count(spans: List[Any], name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def attr_sum(spans: List[Any], name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    # chain.add minus the store commit nested inside it
    chain_adds = named(loop, "chain.add")
    store_in_chain = [
        s for s in named(loop, "store.write") if any(a.name == "chain.add" for a in index.ancestors(s))
    ]
    snapshots = [s for s in loop if s.name == "store.snapshot"]
    n_snapshots = max(1, len(snapshots))
    replays = [s for s in recovery if s.name == "store.replay"]
    validate = [s for s in loop if s.name == "core.validate"]
    committed = counters.get("proposer.commits", 0.0)
    aborts = counters.get("proposer.aborts", 0.0)
    covered_us = sum(c.duration for b in blocks for c in index.children[b.id])
    worker_evm_s, worker_evm_calls = probe.worker_evm[:]

    return {
        "workload.gen_ms": per_block_ms("workload.gen"),
        "txpool.add_ms": per_block_ms("txpool.add"),
        "core.propose_ms": per_block_ms("core.propose"),
        "core.commit_ratio": committed / max(1.0, committed + aborts),
        "core.seal_ms": per_block_ms("core.seal"),
        "core.validate_ms": per_block_ms("core.validate"),
        "core.depgraph_ms": per_block_ms("core.depgraph"),
        "core.applier_ms": per_block_ms("core.applier"),
        "core.components": attr_sum(validate, "core.validate", "components") / n_blocks,
        "core.largest_component_ratio": attr_sum(validate, "core.validate", "largest_ratio") / n_blocks,
        "core.serial_fallbacks": (
            attr_sum(loop, "exec.validate_parallel", "serial_fallback")
            + attr_sum(validate, "core.validate", "serial_fallback")
        )
        / n_blocks,
        "exec.map_ms": per_block_ms("exec.map"),
        "exec.map_calls": count(loop, "exec.map") / n_blocks,
        "exec.pool_starts": probe.pool_starts / n_blocks,
        "exec.open_ms": per_block_ms("exec.open"),
        "exec.payload_kb": sum(probe.ipc_bytes) / 1024.0 / n_blocks,
        "evm.apply_ms": per_block_ms("evm.apply") + worker_evm_s * 1e3 / n_blocks,
        "evm.applies_per_tx": (count(loop, "evm.apply") + worker_evm_calls) / max(1, committed_txs),
        "state.commit_ms": per_block_ms("state.commit"),
        "state.root_ms": per_block_ms("state.root"),
        "state.root_calls": count(loop, "state.root") / n_blocks,
        "state.genesis_s": _ms(named(setup, "state.genesis")) / 1e3,
        "chain.add_ms": (_ms(chain_adds) - _ms(store_in_chain)) / n_blocks,
        "chain.receipts_root_calls": count(loop, "chain.receipts_root") / n_blocks,
        "store.append_ms": per_block_ms("store.append"),
        "store.encode_ms": per_block_ms("store.encode"),
        "store.log_bytes": counters.get("store.bytes_appended", 0.0) / n_blocks,
        "store.fsyncs": count(loop, "store.fsync") / n_blocks,
        "store.snapshot_ms": _ms(snapshots) / n_snapshots,
        "store.snapshot_bytes": attr_sum(snapshots, "store.snapshot", "bytes") / n_snapshots,
        "store.recover_load_s": _ms(named(recovery, "store.manifest_load", "store.snapshot_load")) / 1e3 / n_recoveries,
        "store.recover_replay_ms": _ms(replays) / max(1, len(replays)),
        "store.recover_decode_ms": _ms(named(recovery, "store.decode")) / n_recoveries,
        "unattributed_share": max(0.0, loop_wall_s * 1e6 - covered_us) / max(1e-9, loop_wall_s * 1e6),
    }


def self_time_table(tracer: Any, loop_wall_s: float) -> str:
    """Per-span-name inclusive and self time over the block loop."""
    index = SpanIndex(tracer.spans)
    loop = index.under(BLOCK_SPAN)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s in loop:
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += s.duration - sum(c.duration for c in index.children[s.id])
    wall_us = max(1e-9, loop_wall_s * 1e6)
    by_layer: Dict[str, float] = defaultdict(float)
    for name, value in own.items():
        by_layer[name.split(".")[0]] += value
    lines = [f"{'span':<24} {'calls':>8} {'total_ms':>11} {'self_ms':>11} {'self_share':>10}"]
    for name in sorted(own, key=lambda n: -own[n]):
        lines.append(
            f"{name:<24} {calls[name]:>8} {total[name] / 1e3:>11.1f} "
            f"{own[name] / 1e3:>11.1f} {own[name] / wall_us:>10.1%}"
        )
    lines.append("")
    lines.append(f"{'layer':<24} {'self_ms':>11} {'self_share':>10}")
    for layer in sorted(by_layer, key=lambda n: -by_layer[n]):
        lines.append(f"{layer:<24} {by_layer[layer] / 1e3:>11.1f} {by_layer[layer] / wall_us:>10.1%}")
    return "\n".join(lines) + "\n"
