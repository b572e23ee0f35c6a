"""The append-only block log.

File layout::

    +----------+----------------------------- ... -+
    | magic 8B | record | record | record |        |
    +----------+----------------------------- ... -+

    record := u32-le payload length | u32-le crc32(payload) | payload

The payload is one block's canonical encoding
(:func:`repro.store.codec.encode_block`).  Appends are
``write → flush → fsync`` before the caller may advance its manifest, so
the durable prefix of the log is always a valid record sequence — the
only damage a crash can do is a *torn tail* (an incomplete final
record), which :meth:`BlockLog.scan` reports as
:class:`~repro.store.errors.TornTailError` and recovery heals by
truncating.  A checksum failure *before* the final record cannot be
crash damage and raises :class:`~repro.store.errors.BlockLogCorruptError`
instead.
"""

from __future__ import annotations

import io
import os
import struct
import time
import zlib
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.chain.block import Block
from repro.store.codec import decode_block, encode_block
from repro.store.errors import BlockLogCorruptError, TornTailError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["BlockLog", "LOG_MAGIC", "RECORD_HEADER", "IO_US_EDGES"]

LOG_MAGIC = b"RPBLKLG1"
RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: Histogram edges (µs) for ``store.append_us`` / ``store.fsync_us`` —
#: spans SSD sync latencies up to pathological seconds-long stalls.
IO_US_EDGES = (0.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

#: Hard ceiling on one record — a length field above this is corruption,
#: not a block (the biggest benchmark blocks encode to well under 1 MiB).
MAX_RECORD_BYTES = 256 * 1024 * 1024


def _fsync_dir(path: str) -> None:
    """fsync the directory so a rename/creation itself is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(payload: bytes) -> bytes:
    """One record: length and CRC header, then the payload."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _publish(
    path: str, records: List[Tuple[int, bytes]], *, fsync: bool
) -> List[Tuple[int, int]]:
    """Atomically replace ``path`` with a log of ``(height, record)`` pairs.

    The records are fully written (and fsynced) to a temp file which is
    then renamed over ``path`` — any remnant there from a crashed earlier
    attempt (e.g. a torn, half-written compaction generation) is
    discarded rather than appended to.  Returns the new file's
    ``(height, offset)`` index.
    """
    tmp_path = path + ".tmp"
    index: List[Tuple[int, int]] = []
    offset = len(LOG_MAGIC)
    with open(tmp_path, "wb") as fh:
        fh.write(LOG_MAGIC)
        for height, record in records:
            fh.write(record)
            index.append((height, offset))
            offset += len(record)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")
    return index


class BlockLog:
    """Append-only, length-prefixed, checksummed block storage."""

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.metrics = metrics
        fresh = not os.path.exists(path)
        #: ``(height, offset)`` of every record in file order, kept by
        #: appends, rewrites and full scans so compaction can pick its
        #: survivors without decoding a block; ``None`` while unknown (an
        #: existing file not yet scanned)
        self._index: Optional[List[Tuple[int, int]]] = [] if fresh else None
        self._fh: Optional[io.BufferedRandom] = open(  # noqa: SIM115 - long-lived
            path, "a+b"
        )
        if fresh:
            self._fh.write(LOG_MAGIC)
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())
                _fsync_dir(os.path.dirname(path) or ".")
        else:
            self._check_magic()
        self._fh.seek(0, os.SEEK_END)

    def _check_magic(self) -> None:
        assert self._fh is not None
        self._fh.seek(0)
        magic = self._fh.read(len(LOG_MAGIC))
        if magic != LOG_MAGIC:
            raise BlockLogCorruptError(
                f"bad log magic {magic!r} in {self.path}", offset=0
            )

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current file length in bytes (the next append offset)."""
        assert self._fh is not None
        return self._fh.seek(0, os.SEEK_END)

    def append(
        self,
        block: Block,
        *,
        payload: Optional[bytes] = None,
        tear_after: Optional[int] = None,
    ) -> int:
        """Append one block; returns the offset the record starts at.

        The record is flushed and (by default) fsynced before returning,
        so a successful ``append`` means the block is durable.
        ``payload`` is ``encode_block(block)`` when the caller already
        holds it (the store's write path encodes once, round-trip checks
        those bytes, and appends exactly them).

        ``tear_after`` is the fault-injection hook: write only the first
        ``tear_after`` bytes of the record, make *that* durable, and
        return — simulating the exact on-disk state of a crash mid-append.
        Only the storage-fault tests use it.
        """
        assert self._fh is not None
        metrics = self.metrics
        started = time.perf_counter() if metrics is not None else 0.0
        if payload is None:
            payload = encode_block(block)
        record = _frame(payload)
        offset = self._fh.seek(0, os.SEEK_END)
        if tear_after is not None:
            record = record[: max(0, min(tear_after, len(record) - 1))]
        elif self._index is not None:
            self._index.append((block.number, offset))
        self._fh.write(record)
        self._fh.flush()
        if self.fsync:
            sync_started = time.perf_counter() if metrics is not None else 0.0
            os.fsync(self._fh.fileno())
            if metrics is not None:
                metrics.histogram("store.fsync_us", IO_US_EDGES).observe(
                    (time.perf_counter() - sync_started) * 1e6
                )
                metrics.counter("store.fsyncs").inc()
        if metrics is not None:
            metrics.histogram("store.append_us", IO_US_EDGES).observe(
                (time.perf_counter() - started) * 1e6
            )
        return offset

    def truncate_to(self, offset: int) -> None:
        """Discard everything at and after ``offset`` (torn-tail healing)."""
        assert self._fh is not None
        if offset < len(LOG_MAGIC):
            raise ValueError(f"cannot truncate into the log magic ({offset})")
        self._fh.truncate(offset)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._fh.seek(0, os.SEEK_END)
        if self._index is not None:
            self._index = [(h, o) for h, o in self._index if o < offset]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BlockLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def scan(self, *, start: int = 0) -> Iterator[Tuple[int, Block]]:
        """Yield ``(offset, block)`` for every intact record.

        Raises :class:`TornTailError` when the final record is incomplete
        or checksum-broken (carries the offset to truncate back to), and
        :class:`BlockLogCorruptError` for damage anywhere earlier.  A full
        scan (``start`` 0) that reaches the end also records the log's
        ``(height, offset)`` index.
        """
        assert self._fh is not None
        self._fh.flush()
        with open(self.path, "rb") as fh:
            data = fh.read()
        if data[: len(LOG_MAGIC)] != LOG_MAGIC:
            raise BlockLogCorruptError(
                f"bad log magic in {self.path}", offset=0
            )
        pos = max(start, len(LOG_MAGIC))
        index: Optional[List[Tuple[int, int]]] = (
            [] if pos == len(LOG_MAGIC) else None
        )
        end = len(data)
        while pos < end:
            record_start = pos
            if pos + RECORD_HEADER.size > end:
                raise TornTailError(
                    "record header runs past end of log", offset=record_start
                )
            length, crc = RECORD_HEADER.unpack_from(data, pos)
            pos += RECORD_HEADER.size
            if length > MAX_RECORD_BYTES:
                # an absurd length field: torn if it is the last record's
                # header, corruption otherwise
                raise TornTailError(
                    f"implausible record length {length}", offset=record_start
                )
            if pos + length > end:
                raise TornTailError(
                    "record payload runs past end of log", offset=record_start
                )
            payload = data[pos : pos + length]
            pos += length
            if zlib.crc32(payload) != crc:
                if pos >= end:
                    raise TornTailError(
                        "final record fails checksum", offset=record_start
                    )
                raise BlockLogCorruptError(
                    "record fails checksum", offset=record_start
                )
            try:
                block = decode_block(payload)
            except ValueError as exc:
                raise BlockLogCorruptError(
                    f"record does not decode: {exc}", offset=record_start
                ) from exc
            if index is not None:
                index.append((block.number, record_start))
            yield record_start, block
        if index is not None:
            self._index = index

    def read_all(self) -> List[Block]:
        """Every intact block in append order (strict: any tail damage raises)."""
        return [block for _, block in self.scan()]

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #

    def compact_into(self, path: str, horizon: int) -> "BlockLog":
        """Publish the records above ``horizon`` as a new log at ``path``.

        Survivors are copied as framed bytes, each CRC re-checked, and
        never decoded or re-encoded; the new file is written to a temp
        file and renamed into place (see :func:`_publish`).  Returns the
        opened new log.
        """
        assert self._fh is not None
        if self._index is None:
            for _ in self.scan():  # a full scan seeds the index
                pass
        assert self._index is not None
        self._fh.flush()
        survivors = [
            (height, self._read_record(offset))
            for height, offset in self._index
            if height > horizon
        ]
        index = _publish(path, survivors, fsync=self.fsync)
        log = BlockLog(path, fsync=self.fsync)
        log._index = index
        return log

    def _read_record(self, offset: int) -> bytes:
        """The framed record at ``offset``, its CRC re-checked."""
        assert self._fh is not None
        fd = self._fh.fileno()
        header = os.pread(fd, RECORD_HEADER.size, offset)
        if len(header) == RECORD_HEADER.size:
            length, crc = RECORD_HEADER.unpack(header)
            payload = os.pread(fd, length, offset + RECORD_HEADER.size)
            if len(payload) == length and zlib.crc32(payload) == crc:
                return header + payload
        raise BlockLogCorruptError(
            "record fails checksum during compaction", offset=offset
        )

    def rewrite(self, blocks: List[Block]) -> int:
        """Atomically replace the log's contents with ``blocks``.

        The records go to a temp file, fsynced, and renamed over the live
        log, so a crash leaves either the old log or the new one — never a
        hybrid.  Returns the new file size.
        """
        if self._fh is not None:
            self._fh.close()
        self._index = _publish(
            self.path,
            [(block.number, _frame(encode_block(block))) for block in blocks],
            fsync=self.fsync,
        )
        self._fh = open(self.path, "a+b")
        return self._fh.seek(0, os.SEEK_END)
