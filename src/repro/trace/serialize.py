"""Trace (de)serialization: save an execution, replay it anywhere.

The paper's artifact workflows (and ours) need executions to be portable:
record once, then replay through different checkers, permute orders, or
archive as regression goldens.  This module round-trips a
:class:`~repro.trace.trace.Trace` *including its DPST* to disk.

Two on-disk formats are supported:

* **v2 (streaming JSONL)** -- a one-line header
  ``{"format": "repro-trace", "version": 2, "dpst": ...}`` followed
  by one event per line.  :class:`TraceWriter` appends events with bounded
  buffering and :class:`TraceReader` yields them as a generator, so traces
  larger than RAM can be produced and checked.  The DPST lives in the
  header because every checker needs the *complete* tree before the first
  event is replayed.
* **v3 (binary columnar)** -- struct-packed parallel arrays per event
  field with interned location/lock tables and optional zlib frames; the
  sharded pipeline's fast path.  See :mod:`repro.trace.columnar`.
  :class:`TraceReader` transparently wraps v3 files, so downstream code
  is format-agnostic.

:func:`load_trace` / :func:`open_trace` sniff the format, so callers never
care which variant a file uses: v3 is detected by a magic byte prefix and
v2 by *parsing* the first line's JSON (never by matching an exact byte
rendering, which would break on compact separators or reordered keys).

Location encoding: locations are hashable Python values (strings, ints,
or tuples thereof).  JSON has no tuples, so locations are wrapped as
``{"t": [...]}`` for tuples and ``{"v": scalar}`` otherwise, recursively —
lossless for the location vocabulary the runtime produces.
"""

from __future__ import annotations

import io
import json
import os
import re
import zlib
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.dpst import ArrayDPST, NodeKind, ROOT_ID
from repro.dpst.base import DPSTBase
from repro.errors import TraceError
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.trace.trace import Trace

Location = Hashable

_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        TaskSpawnEvent,
        TaskBeginEvent,
        TaskEndEvent,
        SyncEvent,
        MemoryEvent,
        AcquireEvent,
        ReleaseEvent,
    )
}


def encode_location(location: Location) -> Dict[str, Any]:
    """Encode a location value as a JSON-safe tagged dict."""
    if isinstance(location, tuple):
        return {"t": [encode_location(item) for item in location]}
    if location is None or isinstance(location, (str, int, float, bool)):
        return {"v": location}
    raise TraceError(f"unserializable location {location!r}")


def location_shard_key(location: Location) -> int:
    """Process-stable integer key of *location* for shard partitioning.

    CRC-32 of the location's ``repr`` rather than builtin ``hash``: string
    hashing is randomized per process (PYTHONHASHSEED), and the sharded
    driver's worker processes must all agree on the partition.  The v2
    writer stamps this key on every memory-event line (``"sk"``) so readers
    can route a line to its shard without decoding the JSON.
    """
    return zlib.crc32(repr(location).encode("utf-8"))


class LocationTable:
    """The distinct locations of a trace being written, each interned once.

    Both writers key locations on ``repr``: ``1``, ``1.0`` and ``True``
    compare and hash alike but must round-trip as themselves, and
    ``repr`` is injective over the serializable location vocabulary.  A
    location is encoded (rejecting unserializable values) and given its
    :func:`location_shard_key` when first seen; every later occurrence
    costs one ``repr`` and one dict lookup.

    ``ids`` maps the ``repr`` key to an index into the parallel lists
    ``encoded`` and ``shard_keys``.
    """

    __slots__ = ("ids", "encoded", "shard_keys")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.encoded: List[Dict[str, Any]] = []
        self.shard_keys: List[int] = []

    def add(self, key: str, location: Location) -> int:
        """Intern *location*, not yet seen, whose ``repr`` is *key*."""
        encoded = encode_location(location)
        ident = len(self.encoded)
        self.encoded.append(encoded)
        # location_shard_key, from the repr already in hand.
        self.shard_keys.append(zlib.crc32(key.encode("utf-8")))
        self.ids[key] = ident
        return ident

    def index(self, location: Location) -> int:
        """Index of *location*, interning it on first sight."""
        key = repr(location)
        ident = self.ids.get(key)
        if ident is None:
            ident = self.add(key, location)
        return ident


def decode_location(encoded: Dict[str, Any]) -> Location:
    """Inverse of :func:`encode_location`."""
    if "t" in encoded:
        return tuple(decode_location(item) for item in encoded["t"])
    if "v" in encoded:
        return encoded["v"]
    raise TraceError(f"malformed encoded location {encoded!r}")


def dpst_to_dict(tree: DPSTBase) -> Dict[str, Any]:
    """Flatten a DPST to its defining arrays (kind + parent per node)."""
    return {
        "layout": tree.layout_name,
        "kinds": [int(tree.kind(node)) for node in tree.nodes()],
        "parents": [tree.parent(node) for node in tree.nodes()],
    }


def dpst_from_dict(data: Dict[str, Any]) -> DPSTBase:
    """Rebuild a DPST (always as the array layout) from its arrays."""
    kinds = data["kinds"]
    parents = data["parents"]
    if not kinds or NodeKind(kinds[ROOT_ID]) is not NodeKind.FINISH:
        raise TraceError("serialized DPST must start with a finish root")
    tree = ArrayDPST()
    for node in range(1, len(kinds)):
        created = tree.add_node(parents[node], NodeKind(kinds[node]))
        if created != node:
            raise TraceError("serialized DPST nodes must be in insertion order")
    return tree


def event_to_dict(event: object) -> Dict[str, Any]:
    """Encode one event as a tagged dict."""
    row: Dict[str, Any] = {"type": type(event).__name__}
    for name in event.__dataclass_fields__:  # type: ignore[attr-defined]
        value = getattr(event, name)
        if name == "location":
            row[name] = encode_location(value)
        elif name == "lockset":
            row[name] = list(value)
        else:
            row[name] = value
    return row


def event_from_dict(row: Dict[str, Any]) -> object:
    """Inverse of :func:`event_to_dict`."""
    kind = row.get("type")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise TraceError(f"unknown event type {kind!r}")
    kwargs = {k: v for k, v in row.items() if k not in ("type", "sk")}
    if "location" in kwargs:
        kwargs["location"] = decode_location(kwargs["location"])
    if "lockset" in kwargs:
        kwargs["lockset"] = tuple(kwargs["lockset"])
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# v2: streaming JSONL
# ---------------------------------------------------------------------------

JSONL_FORMAT = "repro-trace"
JSONL_VERSION = 2

#: Events buffered between writes / sniff window for format detection.
DEFAULT_CHUNK_SIZE = 4096

#: Shard-key stamp at the tail of a v2 memory-event line (bytes: the
#: sharded readers scan raw lines in binary mode).
_SK_TAIL = re.compile(rb'"sk": (\d+)\}\s*$')


class TraceWriter:
    """Streaming JSONL trace writer (v2 format).

    Writes the header line at construction, then appends one JSON line per
    event.  Lines are buffered and flushed every ``chunk_size`` events, so
    the writer holds O(chunk_size) events regardless of trace length.
    Usable as a context manager::

        with TraceWriter("run.jsonl", dpst=trace.dpst) as writer:
            for event in events:
                writer.write(event)

    The DPST must be supplied up front (it sits in the header so readers
    can rebuild the tree before streaming any event); pass ``None`` for
    DPST-free traces.

    Crash safety: all bytes go to a temporary sibling of :attr:`path`;
    :meth:`close` publishes the finished file with :func:`os.replace`.  A
    write that dies mid-stream (or exits a ``with`` block on an exception,
    which calls :meth:`discard`) never leaves a half-trace at the target.

    Each distinct location is encoded and shard-keyed once
    (:class:`LocationTable`), so the writer also holds O(locations).
    """

    def __init__(
        self,
        path: str,
        dpst: Optional[DPSTBase] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        self.path = os.fspath(path)
        self.chunk_size = chunk_size
        #: Number of events written so far.
        self.count = 0
        self._buffer: List[str] = []
        self._locations = LocationTable()
        # The header is rendered *before* any file is opened: a DPST that
        # fails to flatten raises with nothing on disk and no open handle.
        header = json.dumps(
            {
                "format": JSONL_FORMAT,
                "version": JSONL_VERSION,
                "dpst": None if dpst is None else dpst_to_dict(dpst),
            }
        )
        self._tmp_path: Optional[str] = f"{self.path}.tmp.{os.getpid()}"
        self._handle: Optional[io.TextIOWrapper] = open(
            self._tmp_path, "w", encoding="utf-8"
        )
        self._handle.write(header + "\n")

    def write(self, event: object) -> None:
        """Append one event."""
        if self._handle is None:
            raise TraceError(f"TraceWriter for {self.path!r} is closed")
        if isinstance(event, MemoryEvent):
            locations = self._locations
            ident = locations.index(event.location)
            # event_to_dict's row, with the shard key stamped last so
            # readers can shard-filter the raw line tail without decoding
            # the JSON (see TraceReader.memory_events).
            row = {
                "type": "MemoryEvent",
                "seq": event.seq,
                "task": event.task,
                "step": event.step,
                "location": locations.encoded[ident],
                "access_type": event.access_type,
                "lockset": list(event.lockset),
                "sk": locations.shard_keys[ident],
            }
        else:
            row = event_to_dict(event)
        self._buffer.append(json.dumps(row))
        self.count += 1
        if len(self._buffer) >= self.chunk_size:
            self._flush()

    def write_all(self, events: Iterable[object]) -> None:
        """Append every event of *events* (any iterable)."""
        for event in events:
            self.write(event)

    def _flush(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer = []

    def close(self) -> None:
        """Flush buffered events and publish the file (idempotent).

        Publication is atomic: the temporary sibling moves to
        :attr:`path` via :func:`os.replace`, so readers only ever see a
        complete trace or no trace at all.  If anything here fails, the
        write is discarded before the error propagates.
        """
        if self._handle is None:
            return
        try:
            self._flush()
            self._handle.close()
            os.replace(self._tmp_path, self.path)
        except BaseException:
            self.discard()
            raise
        self._handle = None
        self._tmp_path = None

    def discard(self) -> None:
        """Abandon the write: delete the temporary file without touching
        :attr:`path` (idempotent; a no-op after :meth:`close`)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._tmp_path is not None:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass
            self._tmp_path = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self.discard()
        else:
            self.close()


#: Sentinel yielded internally for lines the lenient reader skipped.
_SKIPPED = object()


class TraceReader:
    """Streaming reader over a serialized trace file (v2 or v3).

    Construction parses only the header (v2) or the header + footer tables
    (v3, which it wraps transparently via
    :class:`repro.trace.columnar.ColumnarTraceReader`); :meth:`events` then
    yields decoded events as a generator.  Each call to :meth:`events` opens a fresh
    handle, so a reader supports any number of passes -- exactly what the
    sharded pipeline's workers need when each filters out its own shard.

    Lifecycle: the reader tracks every handle its streaming passes open,
    and :meth:`close` (or use as a context manager) closes any that an
    abandoned generator left behind -- so a checker raising mid-replay
    never leaks a file descriptor.

    Lenient mode (``strict=False``): undecodable or truncated JSONL event
    lines are *counted and skipped* (:attr:`lines_skipped`) instead of
    raising mid-stream -- never silently; callers surface the count as
    the ``trace.lines_skipped`` metric.  The header must always decode
    (the DPST lives there), so a damaged header still raises.  Files in
    neither format -- including the retired v1 monolithic JSON -- raise a
    :class:`TraceError` naming the path.  Soundness caveat: a skipped line is
    a memory access the checker never sees, so a lenient run can miss
    violations on the affected locations; it can never invent them.
    """

    def __init__(self, path: str, strict: bool = True) -> None:
        self.path = os.fspath(path)
        #: ``False`` skips (and counts) undecodable event lines.
        self.strict = bool(strict)
        self._lines_skipped = 0
        self._closed = False
        self._live_handles: set = set()
        self._v3 = None
        # Imported lazily: columnar.py builds on this module's primitives.
        from repro.trace.columnar import ColumnarTraceReader, is_columnar_trace

        if is_columnar_trace(self.path):
            self._v3 = ColumnarTraceReader(self.path, strict=self.strict)
            self.version = self._v3.version
            self.dpst: Optional[DPSTBase] = self._v3.dpst
        elif is_jsonl_trace(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                first = handle.readline()
            try:
                header = json.loads(first)
            except ValueError as exc:
                raise TraceError(
                    f"cannot parse trace header of {self.path!r}: {exc}"
                ) from exc
            version = header.get("version")
            if header.get("format") != JSONL_FORMAT or version != JSONL_VERSION:
                raise TraceError(
                    f"unsupported trace header in {self.path!r}: {header!r}"
                )
            self.version = version
            raw_dpst = header.get("dpst")
            self.dpst = None if raw_dpst is None else dpst_from_dict(raw_dpst)
        else:
            # Empty files, truncated headers, binary garbage and v1
            # monolithic JSON alike: a TraceError with the path, never a
            # bare json.JSONDecodeError.
            if not os.path.isfile(self.path):
                raise TraceError(f"no trace file at {self.path!r}")
            raise TraceError(
                f"cannot parse {self.path!r} as a trace: not a v2 JSONL or "
                "v3 columnar trace file (the v1 monolithic-JSON format is "
                "no longer read; re-record the trace)"
            )

    @property
    def lines_skipped(self) -> int:
        """Undecodable lines (v2) or frame events (v3) skipped so far,
        cumulative across passes (lenient mode only)."""
        if self._v3 is not None:
            return self._v3.lines_skipped
        return self._lines_skipped

    # -- lifecycle ---------------------------------------------------------

    def _open_stream(self, binary: bool = False):
        """Open (and track) one streaming pass over the file."""
        if self._closed:
            raise TraceError(f"TraceReader for {self.path!r} is closed")
        if binary:
            handle = open(self.path, "rb")
        else:
            handle = open(
                self.path,
                "r",
                encoding="utf-8",
                errors="strict" if self.strict else "replace",
            )
        self._live_handles.add(handle)
        return handle

    def _release(self, handle) -> None:
        self._live_handles.discard(handle)
        if not handle.closed:
            handle.close()

    def close(self) -> None:
        """Close every handle still open from streaming passes (idempotent).

        Generators abandoned mid-stream (a checker raised during replay)
        keep their file handle until garbage collection; ``close`` frees
        them deterministically.  Further passes raise :class:`TraceError`.
        """
        self._closed = True
        if self._v3 is not None:
            self._v3.close()
        for handle in list(self._live_handles):
            self._release(handle)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- streaming views ---------------------------------------------------

    def _decode_line(self, line) -> object:
        """Decode one event line.  A bad line raises a :class:`TraceError`
        naming the file; in lenient mode it becomes :data:`_SKIPPED` (and
        is counted) instead."""
        try:
            return event_from_dict(json.loads(line))
        except (ValueError, TypeError, KeyError, TraceError) as exc:
            if self.strict:
                raise TraceError(
                    f"undecodable event line in {self.path!r}: {exc}"
                ) from exc
            self._lines_skipped += 1
            return _SKIPPED

    def events(self) -> Iterator[object]:
        """Yield every event in file order (a fresh pass per call)."""
        if self._closed:
            raise TraceError(f"TraceReader for {self.path!r} is closed")
        if self._v3 is not None:
            yield from self._v3.events()
            return
        handle = self._open_stream()
        try:
            handle.readline()  # header
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = self._decode_line(line)
                if event is not _SKIPPED:
                    yield event
        finally:
            self._release(handle)

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def memory_events(
        self, shard: Optional[int] = None, jobs: Optional[int] = None
    ) -> Iterator[MemoryEvent]:
        """Yield just the memory accesses, in file order.

        With ``shard``/``jobs``, yield only events whose location falls in
        that shard (``location_shard_key(location) % jobs == shard``).  On
        v2 files the filter reads the ``"sk"`` stamp off each raw line's
        tail, so foreign-shard lines are skipped *without* JSON decoding --
        this is what lets N streaming workers split the parse cost of one
        file instead of each paying it in full.  Lines without a stamp
        (externally produced v2 files) fall back to decode-then-filter,
        so the result is identical either way.  On v3 files the filter
        runs over the columnar frames directly (see
        :meth:`repro.trace.columnar.ColumnarTraceReader.memory_events`).
        """
        if self._v3 is not None:
            if self._closed:
                raise TraceError(f"TraceReader for {self.path!r} is closed")
            yield from self._v3.memory_events(shard=shard, jobs=jobs)
            return
        if shard is None or jobs is None or jobs <= 1:
            for event in self.events():
                if isinstance(event, MemoryEvent):
                    yield event
            return
        # Binary mode: foreign-shard lines are dropped after a bounded
        # bytes scan, without UTF-8 decoding or JSON parsing them.
        handle = self._open_stream(binary=True)
        try:
            handle.readline()  # header
            for line in handle:
                # The stamp sits in the last ~20 bytes; bound the scan.
                match = _SK_TAIL.search(line, max(0, len(line) - 32))
                if match is not None:
                    if int(match.group(1)) % jobs != shard:
                        continue
                    event = self._decode_line(line)
                    if event is not _SKIPPED:
                        yield event
                else:
                    if not line.strip():
                        continue
                    event = self._decode_line(line)
                    if (
                        event is not _SKIPPED
                        and isinstance(event, MemoryEvent)
                        and location_shard_key(event.location) % jobs == shard
                    ):
                        yield event
        finally:
            self._release(handle)

    def read(self) -> Trace:
        """Materialize the full :class:`Trace` (events + DPST) in memory."""
        if self._v3 is not None:
            return self._v3.read()
        return Trace(list(self.events()), dpst=self.dpst)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<TraceReader {self.path!r} v{self.version}>"


#: Sniff window for format detection: enough for any realistic first line
#: short of a header whose DPST alone tops a mebibyte.
_SNIFF_BYTES = 1 << 20

#: Prefix fallback for first lines larger than the sniff window.  Only our
#: own writer produces such headers, and it always leads with the format
#: key; tolerating arbitrary whitespace keeps compact separators working.
_HEADER_PREFIX = re.compile(
    rb'\{\s*"format"\s*:\s*"' + re.escape(JSONL_FORMAT.encode()) + rb'"'
)


def is_jsonl_trace(path: str) -> bool:
    """Does *path* hold a v2 JSONL trace (vs. v3 columnar or anything else)?

    Decides by *parsing* the first line's JSON (bounded read) and checking
    its ``format`` field -- never by matching an exact byte rendering, so
    v2 files written with compact separators, reordered keys, or extra
    whitespace are all recognized.  Detection works regardless of file
    extension and never reads a multi-GB file just to decide.
    """
    from repro.trace.columnar import COLUMNAR_MAGIC

    try:
        with open(path, "rb") as handle:
            head = handle.read(_SNIFF_BYTES)
    except OSError:
        return False
    if head.startswith(COLUMNAR_MAGIC):
        return False
    stripped = head.lstrip()
    if not stripped.startswith(b"{"):
        return False
    newline = stripped.find(b"\n")
    if newline >= 0:
        first = stripped[:newline]
    elif len(head) < _SNIFF_BYTES:
        first = stripped  # whole file in hand: single-line candidate
    else:
        # First line exceeds the window (huge header DPST, or a one-line
        # multi-GB JSON file we must not read in full): a bounded prefix
        # scan decides.
        return _HEADER_PREFIX.match(stripped) is not None
    try:
        header = json.loads(first.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return False
    return isinstance(header, dict) and header.get("format") == JSONL_FORMAT


def open_trace(path: str, strict: bool = True) -> TraceReader:
    """Open *path* (either format) as a streaming :class:`TraceReader`.

    ``strict=False`` turns on lenient ingestion: undecodable JSONL event
    lines are counted on ``reader.lines_skipped`` and skipped instead of
    raising mid-stream.
    """
    return TraceReader(path, strict=strict)


def dump_trace_jsonl(
    trace: Trace, path: str, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> None:
    """Write *trace* to *path* in the streaming v2 JSONL format."""
    with TraceWriter(path, dpst=trace.dpst, chunk_size=chunk_size) as writer:
        writer.write_all(trace.events)


# ---------------------------------------------------------------------------
# Front doors
# ---------------------------------------------------------------------------


def dump_trace(trace: Trace, path: str, format: str = "auto") -> None:
    """Write a trace to *path*.

    ``format="auto"`` (default) picks binary columnar v3 for ``.trc`` /
    ``.v3`` paths and v2 JSONL for every other path; ``"jsonl"`` and
    ``"columnar"`` force a variant.
    """
    if format == "auto":
        suffix = os.path.splitext(os.fspath(path))[1].lower()
        format = "columnar" if suffix in (".trc", ".v3") else "jsonl"
    if format == "jsonl":
        dump_trace_jsonl(trace, path)
    elif format == "columnar":
        from repro.trace.columnar import dump_trace_columnar

        dump_trace_columnar(trace, path)
    else:
        raise TraceError(
            f"unknown trace format {format!r} "
            "(expected 'auto', 'jsonl' or 'columnar')"
        )


def load_trace(path: str) -> Trace:
    """Read a trace previously written by :func:`dump_trace` (either format)."""
    return TraceReader(path).read()
