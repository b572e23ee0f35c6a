"""Collector hygiene of the serve loop.

``NodeService.run`` moves committed history out of the cyclic
collector's view with ``gc.freeze()``.  That is only safe while the loop
makes no cyclic garbage: a frozen cycle is never collected.  These tests
look through the freeze and hold the loop to zero cyclic garbage per
block, check that a dropped :class:`MultiVersionStore` is freed by its
refcount alone, and check that every exit path of ``run`` leaves the
collector as it found it.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.exec import get_backend
from repro.network.node import ProposerNode, ValidatorNode
from repro.obs.metrics import GcPauseRecorder, MetricsRegistry
from repro.state.versioned import MultiVersionStore, OCCStateView
from repro.store.errors import ConfigMismatchError
from repro.store.manifest import Manifest
from repro.store.service import NodeService, ServeConfig
from repro.store.snapshots import write_snapshot

pytestmark = pytest.mark.store

BLOCKS = 25
#: past the height-10 snapshot and the compaction that follows it
WARM_UP = 11


def _config(tmp_path, **kwargs):
    base = dict(
        data_dir=str(tmp_path / "node"),
        seed=3,
        txs_per_block=40,
        snapshot_interval=10,
        fsync=False,
    )
    base.update(kwargs)
    return ServeConfig(**base)


def _collect_garbage():
    """Full collection that sees frozen objects; returns garbage by type."""
    gc.unfreeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    gc.collect()  # the saved cycles are unreachable again: free them
    return found


@pytest.mark.parametrize("backend_name", ["serial", "process"])
@pytest.mark.parametrize("scenario", [None, "counter-shared"])
def test_steady_state_makes_no_cyclic_garbage(
    tmp_path, monkeypatch, scenario, backend_name
):
    receive = ValidatorNode.receive_blocks
    garbage = {}

    def receive_and_collect(node, blocks, *args, **kwargs):
        outcome = receive(node, blocks, *args, **kwargs)
        garbage[blocks[0].number] = _collect_garbage()
        return outcome

    monkeypatch.setattr(ValidatorNode, "receive_blocks", receive_and_collect)
    gc.collect()
    backend = get_backend(backend_name, 2 if backend_name == "process" else 1)
    try:
        service = NodeService(
            _config(tmp_path, scenario=scenario, max_height=BLOCKS),
            backend=backend,
        )
        report = service.run(handle_signals=False)
    finally:
        backend.close()
    assert report.height == BLOCKS
    leaks = {
        height: dict(found.most_common(5))
        for height, found in garbage.items()
        if height >= WARM_UP and found
    }
    assert leaks == {}


def test_dropped_multiversion_store_is_freed_by_refcount(small_universe):
    base = small_universe.genesis
    address = next(iter(base.accounts))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        store = MultiVersionStore(base)
        view = OCCStateView(store, 0)
        view.get_balance(address)
        view.set_balance(address, 7)
        store.apply(view.buffered_writes, 1)
        assert store.read_at(next(iter(view.buffered_writes)), 1) == 7
        ref = weakref.ref(store)
        del store, view
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_store_writes_make_no_cyclic_garbage(tmp_path, small_universe):
    """The manifest and snapshot writers stay on json's C encoder."""
    gc.collect()
    write_snapshot(str(tmp_path), 0, small_universe.genesis, fsync=False)
    Manifest(height=1, head_hash="ab").write(str(tmp_path), fsync=False)
    assert gc.collect() == 0


class TestRunLeavesTheCollectorAsFound:
    def _assert_restored(self, callbacks_before):
        assert gc.get_freeze_count() == 0
        assert gc.callbacks == callbacks_before

    def test_normal_exit(self, tmp_path):
        before = list(gc.callbacks)
        service = NodeService(_config(tmp_path, max_height=3), metrics=MetricsRegistry())
        service.run(handle_signals=False)
        self._assert_restored(before)

    def test_loop_raises(self, tmp_path, monkeypatch):
        build = ProposerNode.build_block

        def build_then_fail(node, parent_header, *args, **kwargs):
            if parent_header.number == 2:
                raise RuntimeError("proposer died")
            return build(node, parent_header, *args, **kwargs)

        monkeypatch.setattr(ProposerNode, "build_block", build_then_fail)
        before = list(gc.callbacks)
        service = NodeService(_config(tmp_path, max_height=5), metrics=MetricsRegistry())
        with pytest.raises(RuntimeError, match="proposer died"):
            service.run(handle_signals=False)
        self._assert_restored(before)

    def test_set_up_raises(self, tmp_path):
        NodeService(_config(tmp_path, max_height=2)).run(handle_signals=False)
        before = list(gc.callbacks)
        service = NodeService(
            _config(tmp_path, seed=4, max_height=2), metrics=MetricsRegistry()
        )
        with pytest.raises(ConfigMismatchError):
            service.run(handle_signals=False)
        self._assert_restored(before)


class TestGcMetrics:
    def test_pauses_reach_the_registry(self, tmp_path):
        metrics = MetricsRegistry()
        NodeService(_config(tmp_path, max_height=4), metrics=metrics).run(
            handle_signals=False
        )
        snap = metrics.snapshot()
        counters, histograms = snap["counters"], snap["histograms"]
        for gen in range(3):
            assert histograms[f"gc.pause_us.gen.{gen}"]["count"] == (
                counters[f"gc.collections.gen.{gen}"]
            )
        assert counters["gc.collections.gen.0"] > 0
        assert counters["gc.pause_us_total.gen.0"] > 0

    def test_live_metrics_show_collector_time(self, tmp_path, monkeypatch):
        texts = []
        build = NodeService._build_telemetry

        def build_and_scrape(service):
            telemetry = build(service)
            refresh = telemetry.refresh

            def refresh_and_scrape(**kwargs):
                refresh(**kwargs)
                texts.append(telemetry.metrics_text())

            telemetry.refresh = refresh_and_scrape
            return telemetry

        monkeypatch.setattr(NodeService, "_build_telemetry", build_and_scrape)
        NodeService(_config(tmp_path, max_height=3, events=True)).run(
            handle_signals=False
        )
        assert "repro_gc_pause_us_total_gen_0_total" in texts[-1]
        assert "repro_gc_pause_us_gen_2_count" in texts[-1]

    def test_null_registry_installs_no_hook(self, tmp_path, monkeypatch):
        seen = []
        receive = ValidatorNode.receive_blocks

        def receive_and_look(node, blocks, *args, **kwargs):
            seen.append(any(isinstance(cb, GcPauseRecorder) for cb in gc.callbacks))
            return receive(node, blocks, *args, **kwargs)

        monkeypatch.setattr(ValidatorNode, "receive_blocks", receive_and_look)
        NodeService(_config(tmp_path, max_height=2)).run(handle_signals=False)
        assert seen == [False, False]

    def test_recorder_counts_a_forced_collection(self):
        metrics = MetricsRegistry()
        recorder = GcPauseRecorder(metrics)
        gc.callbacks.append(recorder)
        try:
            gc.collect()
        finally:
            gc.callbacks.remove(recorder)
        counters = metrics.snapshot()["counters"]
        assert counters["gc.collections.gen.2"] >= 1
