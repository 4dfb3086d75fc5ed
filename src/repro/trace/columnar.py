"""v3 columnar trace format: struct-packed parallel arrays per event field.

The streaming JSONL format (v2) made traces larger than RAM checkable,
but left the sharded pipeline decode-bound: every worker pays a JSON
parse per line it keeps, and a regex scan per line it drops.  The v3
format stores events as *columns* instead of rows, so readers slice the
fields they need with bulk :mod:`struct` unpacks and route whole frames
without touching JSON at all.

On-disk layout::

    MAGIC                     8-byte format signature (sniffable prefix)
    header block              u32 length + JSON {"format", "version", "dpst"}
    frame*                    u8 flags | u32 n_events | u32 payload_len | payload
    footer block              u32 length + JSON (interned tables, frame index)
    trailer                   u64 footer offset + 8-byte tail magic

Each frame's payload holds up to ``frame_events`` events as parallel
arrays, concatenated column-by-column:

========  ======  =====================================================
column    type    content
========  ======  =====================================================
``type``  u8      event-type tag (:data:`EVENT_TAGS` order)
``seq``   i64     global observation order
``f0-f4`` i32     type-specific fields (task/step ids, table indexes)
========  ======  =====================================================

Variable-width values never appear in the columns: locations, lock
names, and locksets are interned once into footer tables and referenced
by index.  The footer also carries each interned location's
:func:`~repro.trace.serialize.location_shard_key`, so a shard worker
filters a frame by comparing small ints -- no location decode, no JSON,
no regex.  The DPST lives in the *header* (as in v2) because every
checker needs the complete tree before the first event replays.

Frames are optionally zlib-compressed (``compress=True``, the default,
at :data:`COMPRESS_LEVEL`); the flag travels per frame, so mixed files
are legal.  Readers inflate a frame no further than one byte past its
declared size, so a hostile frame cannot make them allocate more.  The
frame index is checked once at open (offsets increasing and inside the
frame region, counts at most :data:`MAX_FRAME_EVENTS` and summing to the
footer's total), and a frame's ``payload_len`` must end before the next
frame starts, so no header field can size a read past the file.

Writers follow the crash-safe discipline of the shard checkpoint store:
the header is built *before* any file is opened, all bytes go to a
temporary sibling, and :meth:`ColumnarTraceWriter.close` publishes the
finished file with :func:`os.replace` -- an interrupted write never
leaves a half-trace at the target path.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dpst.base import DPSTBase
from repro.errors import TraceError
from repro.report import READ, WRITE
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.trace.serialize import (
    JSONL_FORMAT,
    LocationTable,
    decode_location,
    dpst_from_dict,
    dpst_to_dict,
)
from repro.trace.trace import Trace

#: Byte prefix of every v3 file.  Sniffing is a fixed-bytes comparison --
#: deliberately *not* derived from any JSON rendering, so the v2 sniffing
#: trap (exact-separator dependence) cannot be rebuilt here.
COLUMNAR_MAGIC = b"RPTRC3\x00\n"

#: Tail signature closing the trailer; its absence means a torn write.
_TAIL_MAGIC = b"RPT3TAIL"

COLUMNAR_VERSION = 3

#: Events per frame; bounds writer and reader memory to O(frame).
DEFAULT_FRAME_EVENTS = 4096

#: Most events one frame may hold.  Writers refuse larger frames and
#: readers refuse a frame index that declares one, so a hostile count
#: cannot size an allocation.
MAX_FRAME_EVENTS = 1 << 16

#: zlib level of compressed frames.  On the benchmark's traces, level 3
#: compresses 3-5x faster than zlib's default of 6, for frames 11-14%
#: larger (files 1-9% larger, as the footer tables dominate them) and
#: the same decompression time.  Level 1 saves little more time and
#: makes lock-heavy frames half again as large.
COMPRESS_LEVEL = 3

#: Event classes in tag order; a tag is an index into this tuple.
EVENT_TAGS: Tuple[type, ...] = (
    TaskSpawnEvent,
    TaskBeginEvent,
    TaskEndEvent,
    SyncEvent,
    MemoryEvent,
    AcquireEvent,
    ReleaseEvent,
)
_TAG_OF = {cls: tag for tag, cls in enumerate(EVENT_TAGS)}
_MEMORY_TAG = _TAG_OF[MemoryEvent]

#: Names of the packed columns after ``type``, with their struct codes.
_PACKED_COLUMNS = (("seq", "q"),) + tuple((f"f{k}", "i") for k in range(5))

_BLOCK_LEN = struct.Struct("<I")
_FRAME_HEADER = struct.Struct("<BII")  # flags, n_events, payload_len
_TRAILER_OFFSET = struct.Struct("<Q")
_TRAILER_SIZE = _TRAILER_OFFSET.size + len(_TAIL_MAGIC)
_FLAG_COMPRESSED = 0x01

#: Per-event payload bytes: 1 (type) + 8 (seq) + 5 * 4 (f0..f4).
_ROW_BYTES = 1 + 8 + 5 * 4


def is_columnar_trace(path: str) -> bool:
    """Does *path* start with the v3 magic prefix?"""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(COLUMNAR_MAGIC)) == COLUMNAR_MAGIC
    except OSError:
        return False


def _dump_block(payload: Dict[str, Any]) -> bytes:
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _BLOCK_LEN.pack(len(raw)) + raw


def _read_block(handle, path: str, what: str) -> Dict[str, Any]:
    """Read one length-prefixed JSON block, wrapping failures in
    :class:`TraceError` (the path always lands in the message)."""
    head = handle.read(_BLOCK_LEN.size)
    if len(head) != _BLOCK_LEN.size:
        raise TraceError(f"truncated columnar trace {path!r}: no {what} block")
    (length,) = _BLOCK_LEN.unpack(head)
    raw = handle.read(length)
    if len(raw) != length:
        raise TraceError(
            f"truncated columnar trace {path!r}: {what} block cut short"
        )
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceError(
            f"cannot parse {what} of columnar trace {path!r}: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise TraceError(
            f"malformed {what} of columnar trace {path!r}: "
            f"expected an object, got {type(data).__name__}"
        )
    return data


class ColumnarTraceWriter:
    """Streaming columnar (v3) trace writer.

    Mirrors :class:`~repro.trace.serialize.TraceWriter`: supply the DPST
    up front, append events one at a time (buffered into frames of
    ``frame_events``), and ``close()`` -- or use as a context manager,
    which *discards* the temporary file if the body raised, so failed
    recordings never publish a truncated trace.  A ``close()`` that fails
    (a field value that does not fit its column, a full disk) discards
    the temporary file too, and raises.

    Recording pays per event only for the columns: a memory access costs
    one ``repr`` (its location's intern key), one lockset dict hit and
    seven appends.  Out-of-range fields are caught when a frame is
    packed, not per event.
    """

    def __init__(
        self,
        path: str,
        dpst: Optional[DPSTBase] = None,
        frame_events: int = DEFAULT_FRAME_EVENTS,
        compress: bool = True,
    ) -> None:
        if not 1 <= frame_events <= MAX_FRAME_EVENTS:
            raise TraceError(
                f"frame_events must be in [1, {MAX_FRAME_EVENTS}], "
                f"got {frame_events}"
            )
        self.path = os.fspath(path)
        self.frame_events = frame_events
        self.compress = bool(compress)
        # Header bytes are built *before* any file is opened: a DPST that
        # fails to flatten raises here with nothing on disk.
        header = _dump_block(
            {
                "format": JSONL_FORMAT,
                "version": COLUMNAR_VERSION,
                "dpst": None if dpst is None else dpst_to_dict(dpst),
            }
        )
        # Interned tables.
        self._locations = LocationTable()
        self._lock_ids: Dict[str, int] = {}
        self._lock_names: List[str] = []
        self._lockset_ids: Dict[Tuple[str, ...], int] = {}
        self._lockset_rows: List[List[int]] = []
        # Current frame buffers (parallel arrays), emptied in place by
        # _flush_frame so write_all can hold them in locals.
        self._types = bytearray()
        self._seqs: List[int] = []
        self._cols: Tuple[List[int], ...] = ([], [], [], [], [])
        self._frames: List[List[int]] = []  # [offset, n_events]
        self._flushed = 0  # events in frames already written
        self._tmp_path: Optional[str] = f"{self.path}.tmp.{os.getpid()}"
        self._handle = open(self._tmp_path, "wb")
        self._handle.write(COLUMNAR_MAGIC)
        self._handle.write(header)

    # -- interning ---------------------------------------------------------

    def _lock_id(self, name: str) -> int:
        ident = self._lock_ids.get(name)
        if ident is None:
            ident = len(self._lock_names)
            self._lock_ids[name] = ident
            self._lock_names.append(name)
        return ident

    def _lockset_id(self, lockset: Tuple[str, ...]) -> int:
        ident = self._lockset_ids.get(lockset)
        if ident is None:
            ident = len(self._lockset_rows)
            self._lockset_ids[lockset] = ident
            self._lockset_rows.append([self._lock_id(name) for name in lockset])
        return ident

    def _fields(self, event: object) -> Tuple[int, int, int, int, int, int]:
        """Tag and ``f0``-``f4`` of any event but a :class:`MemoryEvent`."""
        tag = _TAG_OF.get(type(event))
        if tag is None:
            raise TraceError(f"unknown event type {type(event).__name__!r}")
        if isinstance(event, TaskSpawnEvent):
            return tag, event.parent, event.child, event.async_node, 0, 0
        if isinstance(event, (TaskBeginEvent, TaskEndEvent)):
            return tag, event.task, 0, 0, 0, 0
        if isinstance(event, SyncEvent):
            return tag, event.task, event.finish_node, 0, 0, 0
        # Acquire / Release
        name = self._lock_id(event.name)
        versioned = self._lock_id(event.versioned_name)
        return tag, event.task, event.step, name, versioned, 0

    # -- writing -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of events written so far."""
        return self._flushed + len(self._seqs)

    def write(self, event: object) -> None:
        """Append one event."""
        self.write_all((event,))

    def write_all(self, events: Iterable[object]) -> None:
        """Append every event of *events* (any iterable)."""
        if self._handle is None:
            raise TraceError(f"ColumnarTraceWriter for {self.path!r} is closed")
        types, seqs = self._types, self._seqs
        c0, c1, c2, c3, c4 = self._cols
        location_ids = self._locations.ids
        add_location = self._locations.add
        lockset_ids = self._lockset_ids
        memory, memory_tag = MemoryEvent, _MEMORY_TAG
        events = iter(events)
        while True:
            # Each pass fills the current frame from a bounded slice of
            # the input, so the loop body never tests for a full frame.
            for event in islice(events, self.frame_events - len(seqs)):
                if type(event) is memory:
                    # Every lookup before the first append: an event that
                    # raises leaves the columns aligned.
                    key = repr(event.location)
                    location = location_ids.get(key)
                    if location is None:
                        location = add_location(key, event.location)
                    lockset = lockset_ids.get(event.lockset)
                    if lockset is None:
                        lockset = self._lockset_id(event.lockset)
                    types.append(memory_tag)
                    seqs.append(event.seq)
                    c0.append(event.task)
                    c1.append(event.step)
                    c2.append(location)
                    c3.append(event.access_type == WRITE)
                    c4.append(lockset)
                else:
                    tag, f0, f1, f2, f3, f4 = self._fields(event)
                    types.append(tag)
                    seqs.append(event.seq)
                    c0.append(f0)
                    c1.append(f1)
                    c2.append(f2)
                    c3.append(f3)
                    c4.append(f4)
            if len(seqs) < self.frame_events:
                return  # input exhausted
            self._flush_frame()

    def _flush_frame(self) -> None:
        seqs = self._seqs
        n = len(seqs)
        if not n:
            return
        parts = [bytes(self._types)]
        for (name, code), column in zip(_PACKED_COLUMNS, (seqs, *self._cols)):
            try:
                parts.append(struct.pack(f"<{n}{code}", *column))
            except struct.error as exc:
                raise TraceError(
                    f"cannot write columnar trace {self.path!r}: column "
                    f"{name!r} holds a value that does not fit: {exc}"
                ) from exc
        payload = b"".join(parts)
        flags = 0
        if self.compress:
            packed = zlib.compress(payload, COMPRESS_LEVEL)
            if len(packed) < len(payload):
                payload = packed
                flags |= _FLAG_COMPRESSED
        self._frames.append([self._handle.tell(), n])
        self._handle.write(_FRAME_HEADER.pack(flags, n, len(payload)))
        self._handle.write(payload)
        self._flushed += n
        self._types.clear()
        seqs.clear()
        for column in self._cols:
            column.clear()

    def close(self) -> None:
        """Flush, write footer + trailer, and publish the file (idempotent).

        Publication is atomic: the bytes move from the temporary sibling
        to :attr:`path` with :func:`os.replace`, so readers only ever see
        a complete trace or no trace at all.  If anything here fails, the
        write is discarded before the error propagates.
        """
        if self._handle is None:
            return
        try:
            self._flush_frame()
            footer_offset = self._handle.tell()
            self._handle.write(
                _dump_block(
                    {
                        "locations": self._locations.encoded,
                        "location_sk": self._locations.shard_keys,
                        "locks": self._lock_names,
                        "locksets": self._lockset_rows,
                        "frames": self._frames,
                        "events": self.count,
                    }
                )
            )
            self._handle.write(
                _TRAILER_OFFSET.pack(footer_offset) + _TAIL_MAGIC
            )
            self._handle.close()
            os.replace(self._tmp_path, self.path)
        except BaseException:
            self.discard()
            raise
        self._handle = None
        self._tmp_path = None

    def discard(self) -> None:
        """Abandon the write: close and delete the temporary file
        without touching :attr:`path` (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._tmp_path is not None:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass
            self._tmp_path = None

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self.discard()
        else:
            self.close()


class ColumnarTraceReader:
    """Streaming reader over one v3 columnar trace file.

    Construction parses the header (DPST) and the footer (interned
    tables + frame index); :meth:`events` / :meth:`memory_events` then
    stream frames with a fresh tracked handle per pass, exactly like
    :class:`~repro.trace.serialize.TraceReader` -- which wraps this class
    for v3 files, so most callers never see it directly.

    Lenient mode (``strict=False``): a frame that fails to decode is
    skipped as a unit and its event count (known from the frame index)
    lands on :attr:`lines_skipped`; the header, footer, and trailer must
    always decode (the DPST and the tables live there).
    """

    def __init__(self, path: str, strict: bool = True) -> None:
        self.path = os.fspath(path)
        self.strict = bool(strict)
        #: Events lost to undecodable frames (lenient mode only).
        self.lines_skipped = 0
        self._closed = False
        self._live_handles: set = set()
        self.version = COLUMNAR_VERSION
        with open(self.path, "rb") as handle:
            if handle.read(len(COLUMNAR_MAGIC)) != COLUMNAR_MAGIC:
                raise TraceError(f"{self.path!r} is not a columnar trace")
            header = _read_block(handle, self.path, "header")
            if (
                header.get("format") != JSONL_FORMAT
                or header.get("version") != COLUMNAR_VERSION
            ):
                raise TraceError(
                    f"unsupported columnar trace header in {self.path!r}: "
                    f"{header!r}"
                )
            raw_dpst = header.get("dpst")
            self.dpst: Optional[DPSTBase] = (
                None if raw_dpst is None else dpst_from_dict(raw_dpst)
            )
            header_end = handle.tell()
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size < _TRAILER_SIZE:
                raise TraceError(
                    f"truncated columnar trace {self.path!r}: no trailer"
                )
            handle.seek(size - _TRAILER_SIZE)
            trailer = handle.read(_TRAILER_SIZE)
            if trailer[_TRAILER_OFFSET.size:] != _TAIL_MAGIC:
                raise TraceError(
                    f"truncated or corrupt columnar trace {self.path!r}: "
                    "trailer signature missing (interrupted write?)"
                )
            (footer_offset,) = _TRAILER_OFFSET.unpack(
                trailer[: _TRAILER_OFFSET.size]
            )
            if footer_offset >= size:
                raise TraceError(
                    f"corrupt columnar trace {self.path!r}: footer offset "
                    f"{footer_offset} beyond file size {size}"
                )
            handle.seek(footer_offset)
            footer = _read_block(handle, self.path, "footer")
        try:
            self._locations = [
                decode_location(row) for row in footer["locations"]
            ]
            self._location_sk = [int(sk) for sk in footer["location_sk"]]
            self._lock_table = [str(name) for name in footer["locks"]]
            self._locksets = [
                tuple(self._lock_table[index] for index in row)
                for row in footer["locksets"]
            ]
            self._frames = [
                (int(offset), int(n)) for offset, n in footer["frames"]
            ]
            self.count = int(footer["events"])
        except (KeyError, TypeError, ValueError, IndexError, TraceError) as exc:
            raise TraceError(
                f"malformed footer of columnar trace {self.path!r}: {exc}"
            ) from exc
        self._frame_end = self._check_frame_index(header_end, footer_offset)

    # -- lifecycle ---------------------------------------------------------

    def _open_stream(self):
        if self._closed:
            raise TraceError(
                f"ColumnarTraceReader for {self.path!r} is closed"
            )
        handle = open(self.path, "rb")
        self._live_handles.add(handle)
        return handle

    def _release(self, handle) -> None:
        self._live_handles.discard(handle)
        if not handle.closed:
            handle.close()

    def close(self) -> None:
        """Close every handle still open from streaming passes."""
        self._closed = True
        for handle in list(self._live_handles):
            self._release(handle)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ColumnarTraceReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- frame decode ------------------------------------------------------

    def _check_frame_index(
        self, header_end: int, footer_offset: int
    ) -> Dict[int, int]:
        """Validate the footer's frame index; map each frame's offset to
        the byte its payload must end by (the next frame, or the footer
        for the last one)."""
        where = f"columnar trace {self.path!r}"
        previous = -1
        for offset, n in self._frames:
            if not header_end <= offset < footer_offset:
                raise TraceError(
                    f"corrupt frame index of {where}: frame at offset "
                    f"{offset} lies outside [{header_end}, {footer_offset})"
                )
            if offset <= previous:
                raise TraceError(
                    f"corrupt frame index of {where}: frame at offset "
                    f"{offset} does not follow the frame at {previous}"
                )
            if not 1 <= n <= MAX_FRAME_EVENTS:
                raise TraceError(
                    f"corrupt frame index of {where}: frame at offset "
                    f"{offset} declares {n} events (1 to {MAX_FRAME_EVENTS})"
                )
            previous = offset
        total = sum(n for _, n in self._frames)
        if total != self.count:
            raise TraceError(
                f"corrupt footer at offset {footer_offset} of {where}: "
                f"{self.count} events declared, frames hold {total}"
            )
        offsets = [offset for offset, _ in self._frames]
        return dict(zip(offsets, offsets[1:] + [footer_offset]))

    def _frame_payload(self, handle, offset: int, n: int) -> bytes:
        handle.seek(offset)
        head = handle.read(_FRAME_HEADER.size)
        if len(head) != _FRAME_HEADER.size:
            raise TraceError(
                f"truncated columnar trace {self.path!r}: frame at "
                f"offset {offset} cut short"
            )
        flags, n_events, payload_len = _FRAME_HEADER.unpack(head)
        if offset + _FRAME_HEADER.size + payload_len > self._frame_end[offset]:
            raise TraceError(
                f"corrupt frame at offset {offset} in {self.path!r}: "
                f"payload of {payload_len} bytes runs past the frame's end"
            )
        payload = handle.read(payload_len)
        if len(payload) != payload_len or n_events != n:
            raise TraceError(
                f"corrupt frame at offset {offset} in {self.path!r}"
            )
        expected = n * _ROW_BYTES
        if flags & _FLAG_COMPRESSED:
            # Inflate no further than one byte past the declared size: a
            # frame that inflates to gigabytes costs O(frame) to reject.
            inflater = zlib.decompressobj()
            try:
                payload = inflater.decompress(payload, expected + 1)
            except zlib.error as exc:
                raise TraceError(
                    f"corrupt compressed frame at offset {offset} in "
                    f"{self.path!r}: {exc}"
                ) from exc
            if len(payload) > expected:
                raise TraceError(
                    f"corrupt compressed frame at offset {offset} in "
                    f"{self.path!r}: inflates past its {expected} "
                    "column bytes"
                )
            if not inflater.eof:
                raise TraceError(
                    f"corrupt compressed frame at offset {offset} in "
                    f"{self.path!r}: incomplete or truncated stream"
                )
        if len(payload) != expected:
            raise TraceError(
                f"corrupt frame at offset {offset} in {self.path!r}: "
                f"expected {expected} column bytes, got {len(payload)}"
            )
        return payload

    @staticmethod
    def _columns(payload: bytes, n: int):
        """Slice one frame payload into its parallel arrays."""
        types = payload[:n]
        seqs = struct.unpack_from(f"<{n}q", payload, n)
        base = n + 8 * n
        cols = [
            struct.unpack_from(f"<{n}i", payload, base + k * 4 * n)
            for k in range(5)
        ]
        return types, seqs, cols

    def _build_event(self, tag: int, seq: int, cols, index: int) -> object:
        f0 = cols[0][index]
        f1 = cols[1][index]
        f2 = cols[2][index]
        if tag == _MEMORY_TAG:
            return MemoryEvent(
                seq,
                f0,
                f1,
                self._locations[f2],
                WRITE if cols[3][index] else READ,
                self._locksets[cols[4][index]],
            )
        if tag == 0:
            return TaskSpawnEvent(seq, f0, f1, f2)
        if tag == 1:
            return TaskBeginEvent(seq, f0)
        if tag == 2:
            return TaskEndEvent(seq, f0)
        if tag == 3:
            return SyncEvent(seq, f0, f1)
        if tag == 5:
            return AcquireEvent(
                seq, f0, f1, self._lock_table[f2], self._lock_table[cols[3][index]]
            )
        if tag == 6:
            return ReleaseEvent(
                seq, f0, f1, self._lock_table[f2], self._lock_table[cols[3][index]]
            )
        raise TraceError(f"unknown event tag {tag} in {self.path!r}")

    # -- streaming views ---------------------------------------------------

    def events(self) -> Iterator[object]:
        """Yield every event in file order (a fresh pass per call)."""
        handle = self._open_stream()
        try:
            for offset, n in self._frames:
                try:
                    payload = self._frame_payload(handle, offset, n)
                    types, seqs, cols = self._columns(payload, n)
                except (TraceError, struct.error, OSError):
                    if self.strict:
                        raise
                    self.lines_skipped += n
                    continue
                for index in range(n):
                    try:
                        event = self._build_event(
                            types[index], seqs[index], cols, index
                        )
                    except (TraceError, IndexError):
                        if self.strict:
                            raise
                        self.lines_skipped += 1
                        continue
                    yield event
        finally:
            self._release(handle)

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def memory_events(
        self, shard: Optional[int] = None, jobs: Optional[int] = None
    ) -> Iterator[MemoryEvent]:
        """Yield the memory accesses, optionally one shard's worth.

        The shard filter compares the footer's per-location shard keys
        against interned location *ids* straight out of the column, so a
        foreign-shard frame costs one bulk unpack and a few integer
        comparisons -- no location decode, no JSON, no event objects.
        """
        filtering = shard is not None and jobs is not None and jobs > 1
        sk = self._location_sk
        handle = self._open_stream()
        try:
            for offset, n in self._frames:
                try:
                    payload = self._frame_payload(handle, offset, n)
                except (TraceError, struct.error, OSError):
                    if self.strict:
                        raise
                    self.lines_skipped += n
                    continue
                types = payload[:n]
                if _MEMORY_TAG not in types:
                    continue
                base = n + 8 * n
                locs = struct.unpack_from(f"<{n}i", payload, base + 2 * 4 * n)
                try:
                    if filtering:
                        selected = [
                            i
                            for i in range(n)
                            if types[i] == _MEMORY_TAG
                            and sk[locs[i]] % jobs == shard
                        ]
                    else:
                        selected = [
                            i for i in range(n) if types[i] == _MEMORY_TAG
                        ]
                except IndexError:
                    if self.strict:
                        raise TraceError(
                            f"corrupt frame at offset {offset} in "
                            f"{self.path!r}: location id out of range"
                        )
                    self.lines_skipped += n
                    continue
                if not selected:
                    continue
                seqs = struct.unpack_from(f"<{n}q", payload, n)
                tasks = struct.unpack_from(f"<{n}i", payload, base)
                steps = struct.unpack_from(f"<{n}i", payload, base + 4 * n)
                writes = struct.unpack_from(
                    f"<{n}i", payload, base + 3 * 4 * n
                )
                sets = struct.unpack_from(f"<{n}i", payload, base + 4 * 4 * n)
                for i in selected:
                    try:
                        event = MemoryEvent(
                            seqs[i],
                            tasks[i],
                            steps[i],
                            self._locations[locs[i]],
                            WRITE if writes[i] else READ,
                            self._locksets[sets[i]],
                        )
                    except IndexError:
                        if self.strict:
                            raise TraceError(
                                f"corrupt frame at offset {offset} in "
                                f"{self.path!r}: table index out of range"
                            )
                        self.lines_skipped += 1
                        continue
                    yield event
        finally:
            self._release(handle)

    def read(self) -> Trace:
        """Materialize the full :class:`Trace` (events + DPST)."""
        return Trace(list(self.events()), dpst=self.dpst)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ColumnarTraceReader {self.path!r} v{self.version}>"


def dump_trace_columnar(
    trace: Trace,
    path: str,
    frame_events: int = DEFAULT_FRAME_EVENTS,
    compress: bool = True,
) -> None:
    """Write *trace* to *path* in the columnar v3 format."""
    with ColumnarTraceWriter(
        path, dpst=trace.dpst, frame_events=frame_events, compress=compress
    ) as writer:
        writer.write_all(trace.events)
