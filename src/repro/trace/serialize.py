"""Trace (de)serialization: save an execution, replay it anywhere.

The paper's artifact workflows (and ours) need executions to be portable:
record once, then replay through different checkers, permute orders, or
archive as regression goldens.  This module round-trips a
:class:`~repro.trace.trace.Trace` *including its DPST* to disk.

Two on-disk formats are supported, each with one writer and one reader:

* **v2 (streaming JSONL)** -- a one-line header
  ``{"format": "repro-trace", "version": 2, "dpst": ...}`` followed
  by one event per line.  :class:`TraceWriter` appends events with bounded
  buffering and :class:`JsonlTraceReader` yields them as a generator, so
  traces larger than RAM can be produced and checked.  The DPST lives in
  the header because every checker needs the *complete* tree before the
  first event is replayed.
* **v3 (binary columnar)** -- struct-packed parallel arrays per event
  field with interned location/lock tables and optional zlib frames; the
  sharded pipeline's fast path.  See :mod:`repro.trace.columnar`.

Both writers publish through :class:`CrashSafeWriter`, and both readers
share the :class:`TraceReader` base, so downstream code is
format-agnostic.  :func:`open_trace` picks the reader: v3 by a magic byte
prefix, v2 by *parsing* the first line's JSON (never by matching an exact
byte rendering, which would break on compact separators or reordered
keys).

Location encoding: locations are hashable Python values (strings, ints,
or tuples thereof).  JSON has no tuples, so v2 lines (and reports) wrap
locations as ``{"t": [...]}`` for tuples and ``{"v": scalar}`` otherwise,
recursively.  The v3 footer stores them plain: a scalar as itself and a
tuple as an array, which is unambiguous because a hashable location never
holds a list.  Both are lossless for the location vocabulary the runtime
produces.  A subclass of a scalar or of ``tuple`` (an ``IntEnum``, a
namedtuple) is written, read back and shard-keyed as its base value
(:func:`plain_location`).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import zlib
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.dpst import ArrayDPST
from repro.dpst.base import DPSTBase
from repro.errors import DPSTError, TraceError
from repro.report import READ, WRITE
from repro.runtime.events import EVENT_TYPES, MemoryEvent, TaskEndEvent
from repro.trace.trace import Trace

Location = Hashable

#: The event classes by name, as a v2 line's ``"type"`` spells them.
_EVENT_TYPES = {cls.__name__: cls for cls in EVENT_TYPES}


#: The scalar types of a location: what a ``{"v": ...}`` wraps
#: (:func:`encode_location`) and what a plain row may be
#: (:func:`plain_location`).
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

#: Each scalar type that has subclasses, with the method that copies a
#: subclass's value out as the base type (``bool`` and ``NoneType`` have
#: no subclasses).
_SCALAR_COPIES = ((str, str.__str__), (int, int.__int__), (float, float.__float__))


def plain_location(location: Location) -> Location:
    """*location* as a trace reader decodes it, or :class:`TraceError`.

    The one rule of what a trace can hold, for both writers and for
    reports: a ``str``, ``int``, ``float``, ``bool`` or ``None``, or a
    tuple of such values (tuples nest).  :func:`json.dumps` writes a
    subclass as its base value, so that is what comes back: a namedtuple
    as a tuple, an ``IntEnum`` member as its ``int``, a ``str``-based
    ``Enum`` member as its ``str``.  A location already in that form is returned
    as itself.  The v3 footer stores this value, which
    :func:`json.dumps` writes as a scalar or, for a tuple, an array.
    """
    kind = location.__class__
    if kind in _SCALAR_TYPES or (
        kind is tuple and _SCALAR_TYPES.issuperset(map(type, location))
    ):
        return location
    if isinstance(location, tuple):
        # Nested, or a tuple subclass.  A loop, not a comprehension, so
        # each level of nesting costs one frame, as in _plain_tuple: what
        # a writer accepts, a reader reads back.
        parts = []
        for item in location:
            parts.append(plain_location(item))
        return tuple(parts)
    for base, copy in _SCALAR_COPIES:
        if isinstance(location, base):
            return copy(location)
    raise TraceError(f"unserializable location {location!r}")


def encode_location(location: Location) -> Dict[str, Any]:
    """Encode a location value as a JSON-safe tagged dict: its
    :func:`plain_location` value, a tuple as ``{"t": [...]}`` and a
    scalar as ``{"v": scalar}``."""
    return _tag_location(plain_location(location))


def _tag_location(plain: Location) -> Dict[str, Any]:
    """The tagged dict of a :func:`plain_location` value."""
    if plain.__class__ is tuple:
        return {"t": [_tag_location(item) for item in plain]}
    return {"v": plain}


#: The scalar types that a shard key takes as they are.
_KEYED_TYPES = frozenset((str, int, type(None)))


def _keyed_as_itself(location: Location) -> bool:
    """Is *location* a ``str``, ``int`` or ``None``, or a flat tuple of
    them?  Such a location is its own :func:`plain_location` value and its
    own shard-key value, which one type scan tells."""
    kind = location.__class__
    return kind in _KEYED_TYPES or (
        kind is tuple and _KEYED_TYPES.issuperset(map(type, location))
    )


def _key_value(location: Location) -> Location:
    """*location* with each bool and each integral float as its int,
    inside tuples too.  A loop, not a comprehension, so each level of
    nesting costs one frame, as in :func:`plain_location`."""
    kind = location.__class__
    if kind is tuple:
        parts = []
        for item in location:
            parts.append(_key_value(item))
        return tuple(parts)
    if kind is bool or (kind is float and location.is_integer()):
        return int(location)
    return location


def location_shard_key(location: Location, text: Optional[str] = None) -> int:
    """Process-stable integer key of *location* for shard partitioning.

    The CRC-32 of the ``repr`` of the location's key value: the location
    with each bool and each integral float taken as its int, inside tuples
    too.  ``1``, ``1.0`` and ``True`` are one location to the shadow
    memory and to every checker, so they must share a shard.  CRC-32
    rather than builtin ``hash``: string hashing is randomized per process
    (PYTHONHASHSEED), and the sharded driver's worker processes must all
    agree on the partition.

    The v2 writer stamps this key on every memory-event line (``"sk"``)
    so readers can route a line to its shard without decoding the JSON;
    it keys the :func:`plain_location` value, which is what a reader
    decodes and keys again.  A v3 reader keys each location of its
    footer table itself, once.  A caller that holds the ``repr`` of a
    location it has found to be its own key value
    (:func:`_keyed_as_itself`) passes it as *text*.
    """
    if text is None:
        text = repr(location if _keyed_as_itself(location) else _key_value(location))
    return zlib.crc32(text.encode("utf-8"))


def shard_for_location(location: Location, jobs: int) -> int:
    """Deterministic shard index of *location* in ``[0, jobs)``.

    Keys on :func:`location_shard_key`, the key stamped on v2 trace lines,
    so file-streaming workers route lines without decoding them.  Like the
    writers, it keys a location's :func:`plain_location` value, so a
    namedtuple location in an in-memory trace shares a shard with the
    equal tuple, and with its own accesses once they are written and read
    back.
    """
    if jobs <= 1:
        return 0
    try:
        location = plain_location(location)
    except TraceError:
        # No file can hold it, so only an in-memory trace routes it.
        pass
    return location_shard_key(location) % jobs


class LocationTable:
    """The distinct locations of a trace being written, each interned once.

    Both writers intern locations on ``repr``: ``1``, ``1.0`` and ``True``
    compare and hash alike but must round-trip as themselves, and
    ``repr`` is injective over the serializable location vocabulary.  A
    location is checked when first seen (:func:`plain_location`, which
    rejects unserializable values) and stored as the value a reader will
    decode: as itself for the v3 footer, as its tagged dict for v2 lines
    (*tagged*), with the :func:`location_shard_key` a reader recomputes
    for their ``"sk"`` stamp.  Every later occurrence costs one ``repr``
    and one dict lookup.

    ``ids`` maps the ``repr`` key to an index into the parallel lists
    ``encoded`` and (v2 only) ``shard_keys``.
    """

    __slots__ = ("ids", "encoded", "shard_keys", "_tagged")

    def __init__(self, tagged: bool = True) -> None:
        self.ids: Dict[str, int] = {}
        self.encoded: List[Any] = []
        self.shard_keys: List[int] = []
        self._tagged = tagged

    def add(self, key: str, location: Location) -> int:
        """Intern *location*, not yet seen, whose ``repr`` is *key*."""
        if _keyed_as_itself(location):
            # The common case, with the one type scan it needs: already
            # plain, and keyed by the repr in hand.
            plain, text = location, key
        else:
            plain, text = plain_location(location), None
        ident = len(self.encoded)
        if self._tagged:
            self.encoded.append(_tag_location(plain))
            self.shard_keys.append(location_shard_key(plain, text))
        else:
            self.encoded.append(plain)
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
    """Inverse of :func:`encode_location`.

    A tuple of scalars, the common array-cell location, decodes in one
    loop; nested tuples recurse.  Anything :func:`encode_location` cannot
    produce -- not a tagged dict, a ``"t"`` that is not a list, a ``"v"``
    that is not a scalar (a list would make an unhashable location) --
    raises :class:`TraceError`.
    """
    if encoded.__class__ is dict:
        if "t" in encoded:
            items = encoded["t"]
            if items.__class__ is list:
                parts = []
                for item in items:
                    if item.__class__ is dict and len(item) == 1 and "v" in item:
                        value = item["v"]
                        if value.__class__ not in _SCALAR_TYPES:
                            break
                        parts.append(value)
                    else:
                        parts.append(decode_location(item))
                else:
                    return tuple(parts)
        elif "v" in encoded and encoded["v"].__class__ in _SCALAR_TYPES:
            return encoded["v"]
    raise TraceError(f"malformed encoded location {encoded!r}")


def decode_plain_locations(rows: Any) -> List[Location]:
    """The locations of a v3 footer's plain table (:func:`plain_location`
    rows): a JSON scalar is itself, an array a tuple.  Anything else -- a
    table that is not a list, an object anywhere in a row -- raises
    :class:`TraceError`, and so does a row nested past the recursion
    limit."""
    if rows.__class__ is not list:
        raise TraceError(f"plain location table is a {type(rows).__name__}")
    scalars = _SCALAR_TYPES
    flat = scalars.issuperset
    try:
        return [
            row if row.__class__ in scalars
            # A tuple of scalars, the common array-cell location, is
            # checked and built without a Python-level loop.
            else tuple(row) if row.__class__ is list and flat(map(type, row))
            else _plain_tuple(row)
            for row in rows
        ]
    except RecursionError as exc:
        raise TraceError(f"plain location nested too deeply: {exc}") from exc


def _plain_tuple(row: Any) -> tuple:
    """The tuple a plain location array stands for (arrays nest).

    A loop, not a comprehension, so each level of nesting costs one
    frame, as in :func:`plain_location`: what the writer accepts, the
    reader reads back."""
    if row.__class__ is not list:
        raise TraceError(f"malformed plain location {row!r}")
    parts = []
    for item in row:
        parts.append(item if item.__class__ in _SCALAR_TYPES else _plain_tuple(item))
    return tuple(parts)


def dpst_to_dict(tree: DPSTBase) -> Dict[str, Any]:
    """Flatten a DPST to its defining arrays (kind + parent per node)."""
    return {
        "layout": tree.layout_name,
        "kinds": [int(tree.kind(node)) for node in tree.nodes()],
        "parents": [tree.parent(node) for node in tree.nodes()],
    }


def dpst_from_dict(data: Dict[str, Any]) -> DPSTBase:
    """Rebuild a DPST (always as the array layout) from its arrays, in one
    pass (:meth:`ArrayDPST.from_arrays`).

    Damaged arrays raise :class:`TraceError`: ``kinds`` and ``parents``
    must be lists of one length; the root is a finish node with parent
    ``-1``; every kind is a :class:`NodeKind` and every parent an earlier
    internal node (insertion order), each an ``int`` (not a bool or a
    float).
    """
    kinds = data.get("kinds") if isinstance(data, dict) else None
    parents = data.get("parents") if isinstance(data, dict) else None
    if not isinstance(kinds, list) or not isinstance(parents, list):
        raise TraceError("serialized DPST needs 'kinds' and 'parents' lists")
    try:
        return ArrayDPST.from_arrays(kinds, parents)
    except DPSTError as exc:
        raise TraceError(f"serialized DPST: {exc}") from exc


def _header_dpst(raw: Any, path: str) -> Optional[DPSTBase]:
    """The DPST of a trace file's header (``None`` when it has none); a
    damaged one raises :class:`TraceError` naming *path*."""
    if raw is None:
        return None
    try:
        return dpst_from_dict(raw)
    except TraceError as exc:
        raise TraceError(f"bad DPST in the header of {path!r}: {exc}") from exc


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


class CrashSafeWriter:
    """Crash-safe publication of one trace file, the base of both writers.

    All bytes go to a temporary sibling of :attr:`path`; :meth:`close`
    writes what the format ends with (:meth:`_finish`) and publishes the
    file with :func:`os.replace`, so readers only ever see a complete
    trace or none.  A ``close()`` that fails (a value that does not fit
    its column, a full disk) discards the temporary file and raises, and
    a ``with`` block that exits on an exception discards it too.  A
    writer renders its header *before* calling ``__init__``, so a DPST
    that fails to flatten raises with nothing on disk.
    """

    def __init__(self, path: str, head: Any) -> None:
        """Open the temporary sibling of *path* and write *head* (a str
        opens a UTF-8 text file, bytes a binary one)."""
        self.path = os.fspath(path)
        self._tmp_path: Optional[str] = f"{self.path}.tmp.{os.getpid()}"
        if isinstance(head, str):
            self._handle = open(self._tmp_path, "w", encoding="utf-8")
        else:
            self._handle = open(self._tmp_path, "wb")
        self._handle.write(head)

    def _finish(self) -> None:
        """Write what the file ends with (buffered events, a footer)."""
        raise NotImplementedError

    def close(self) -> None:
        """Finish the file and publish it at :attr:`path` (idempotent)."""
        if self._handle is None:
            return
        try:
            self._finish()
            self._handle.close()
            os.replace(self._tmp_path, self.path)
        except BaseException:
            self.discard()
            raise
        self._handle = None
        self._tmp_path = None

    def discard(self) -> None:
        """Abandon the write: close and delete the temporary file without
        touching :attr:`path` (idempotent; a no-op after :meth:`close`)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._tmp_path is not None:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass
            self._tmp_path = None

    def __enter__(self) -> "CrashSafeWriter":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self.discard()
        else:
            self.close()


class TraceWriter(CrashSafeWriter):
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
        self.chunk_size = chunk_size
        #: Number of events written so far.
        self.count = 0
        self._buffer: List[str] = []
        self._locations = LocationTable()
        header = json.dumps(
            {
                "format": JSONL_FORMAT,
                "version": JSONL_VERSION,
                "dpst": None if dpst is None else dpst_to_dict(dpst),
            }
        )
        super().__init__(path, header + "\n")

    def write(self, event: object) -> None:
        """Append one event."""
        if self._handle is None:
            raise TraceError(f"TraceWriter for {self.path!r} is closed")
        if isinstance(event, MemoryEvent):
            locations = self._locations
            ident = locations.index(event.location)
            # event_to_dict's row, with the shard key stamped last so
            # readers can shard-filter the raw line tail without decoding
            # the JSON (see JsonlTraceReader._select).
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

    #: A v2 file ends with its buffered lines.
    _finish = _flush


#: The keys a v2 memory line may carry; ``"lockset"`` and ``"sk"`` are
#: optional.
_MEMORY_KEYS = frozenset(
    ("type", "seq", "task", "step", "location", "access_type", "lockset", "sk")
)

#: json's C scanner, minus :func:`json.loads`'s two whitespace regexes:
#: ``(value, end)`` of the JSON value at the start of a string.
_parse_json = json.JSONDecoder().raw_decode

#: A memory line's lockset when it has none.
_NO_LOCKS: List[str] = []

#: The event classes each streaming view yields.
_MEMORY_KINDS = frozenset((MemoryEvent,))
_CHECKING_KINDS = frozenset((MemoryEvent, TaskEndEvent))


class TraceReader:
    """Streaming reader over a trace file: the base of one reader per
    format, :class:`JsonlTraceReader` (v2) and
    :class:`~repro.trace.columnar.ColumnarTraceReader` (v3), which add
    their header parse, :meth:`events` and :meth:`_select`.  Build one
    with :func:`open_trace`.

    Each pass opens a fresh handle, so a reader supports any number of
    passes -- exactly what the sharded pipeline's workers need when each
    filters out its own shard.  The reader tracks every handle its passes
    open, and :meth:`close` (or use as a context manager) closes any that
    an abandoned generator left behind, so a checker raising mid-replay
    never leaks a file descriptor; a pass started after it raises
    :class:`TraceError`.

    Lenient mode (``strict=False``): undecodable events are *counted and
    skipped* (:attr:`lines_skipped`) instead of raising mid-stream;
    callers surface the count as the ``trace.lines_skipped`` metric.  The
    header (and v3 footer) must always decode, as the DPST lives there.
    Soundness caveat: a skipped event is a memory access the checker never
    sees, so a lenient run can miss violations; it can never invent them.
    """

    #: The format version the class reads.
    version: int

    def __init__(self, path: str, strict: bool = True) -> None:
        if type(self) is TraceReader:
            raise TypeError(
                "TraceReader is the base of the per-format trace readers; "
                "open a trace file with open_trace(path, strict=...)"
            )
        self.path = os.fspath(path)
        #: ``False`` skips (and counts) undecodable events.
        self.strict = bool(strict)
        #: How text passes decode UTF-8: a lenient reader replaces a bad
        #: byte and parses the rest of its line.
        self._errors = "strict" if self.strict else "replace"
        #: Undecodable v2 lines or v3 events skipped, over all passes.
        self.lines_skipped = 0
        #: Of those, the v2 lines a ``jobs > 1`` pass decoded only because
        #: their ``"sk"`` stamp routed them to its shard.  Every shard's
        #: pass decodes the others (and every v3 event), so the sharded
        #: driver (:mod:`repro.checker.sharded`) counts those on shard 0
        #: alone.
        self.stamped_lines_skipped = 0
        self.dpst: Optional[DPSTBase] = None
        self._closed = False
        self._live_handles: set = set()

    # -- lifecycle ---------------------------------------------------------

    def _open_stream(self, binary: bool = True):
        """Open (and track) one streaming pass over the file."""
        if self._closed:
            raise TraceError(f"{type(self).__name__} for {self.path!r} is closed")
        if binary:
            handle = open(self.path, "rb")
        else:
            handle = open(self.path, "r", encoding="utf-8", errors=self._errors)
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

    def events(self) -> Iterator[object]:
        """Yield every event in file order (a fresh pass per call)."""
        raise NotImplementedError

    def _select(
        self, shard: Optional[int], jobs: Optional[int], ends: bool
    ) -> Iterator[object]:
        """The memory events (with *ends*, and the task ends) in file
        order; at ``jobs > 1`` only *shard*'s accesses."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def memory_events(
        self, shard: Optional[int] = None, jobs: Optional[int] = None
    ) -> Iterator[MemoryEvent]:
        """Yield just the memory accesses, in file order.

        With ``shard``/``jobs``, yield only events whose location falls in
        that shard (``location_shard_key(location) % jobs == shard``),
        filtered without decoding what is dropped: v2 reads each raw
        line's ``"sk"`` stamp, v3 keys each location of its footer
        table once per reader.
        """
        return self._select(shard, jobs, ends=False)

    def checking_events(
        self, shard: Optional[int] = None, jobs: Optional[int] = None
    ) -> Iterator[object]:
        """Yield what an offline check replays, in file order: the memory
        accesses (one shard's worth with ``shard``/``jobs``, filtered as
        in :meth:`memory_events`) and every task end.  A task end carries
        no location, so every shard gets it."""
        return self._select(shard, jobs, ends=True)

    def read(self) -> Trace:
        """Materialize the full :class:`Trace` (events + DPST) in memory."""
        return Trace(list(self.events()), dpst=self.dpst)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.path!r} v{self.version}>"


class JsonlTraceReader(TraceReader):
    """Streaming reader over one v2 JSONL trace file.

    Construction parses only the header line.  A file that is not v2 --
    including the retired v1 monolithic JSON -- raises a
    :class:`TraceError` naming the path.
    """

    version = JSONL_VERSION

    def __init__(self, path: str, strict: bool = True) -> None:
        super().__init__(path, strict)
        if not is_jsonl_trace(self.path):
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
        # Binary: a text handle would decode a whole chunk past the
        # header line, and fail on a bad byte in an event line.
        with open(self.path, "rb") as handle:
            first = handle.readline()
        try:
            header = json.loads(first)
        except (ValueError, RecursionError) as exc:
            raise TraceError(
                f"cannot parse trace header of {self.path!r}: {exc}"
            ) from exc
        if (
            header.get("format") != JSONL_FORMAT
            or header.get("version") != JSONL_VERSION
        ):
            raise TraceError(
                f"unsupported trace header in {self.path!r}: {header!r}"
            )
        self.dpst = _header_dpst(header.get("dpst"), self.path)
        #: Steps must lie in ``[0, _nodes)``; ``None``: no DPST, no bound.
        self._nodes = None if self.dpst is None else len(self.dpst)

    def _decode_line(self, line) -> Optional[object]:
        """The event on one line, or ``None`` for a blank or skipped line.

        *line* is text, or bytes from the sharded scan (decoded like the
        text passes: a lenient reader replaces a byte that is not UTF-8).
        A memory line becomes its :class:`MemoryEvent` straight from the
        parsed row, checked in order: its keys are among
        :data:`_MEMORY_KEYS`; ``seq``, ``task`` and ``step`` are ints, not
        bools, and ``step`` is a node of the DPST when the trace carries
        one; ``access_type`` is ``"read"`` or ``"write"``; the lockset is
        a list of strings; the location decodes (:func:`decode_location`).
        Any other line goes through :func:`event_from_dict`.  A bad line
        -- not one JSON object, or failing a check -- raises a
        :class:`TraceError` naming the file; in lenient mode it is counted
        in :attr:`lines_skipped` instead.
        """
        try:
            if line.__class__ is bytes:
                line = line.decode("utf-8", self._errors)
            line = line.strip()
            if not line:
                return None
            row, end = _parse_json(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if row.__class__ is not dict:
                raise TraceError(
                    f"expected an event object, not {type(row).__name__}"
                )
            if row.get("type") != "MemoryEvent":
                return event_from_dict(row)
            if not _MEMORY_KEYS.issuperset(row):
                raise TraceError(
                    f"unknown memory event keys {sorted(set(row) - _MEMORY_KEYS)}"
                )
            seq, task, step = row["seq"], row["task"], row["step"]
            if (
                seq.__class__ is not int
                or task.__class__ is not int
                or step.__class__ is not int
            ):
                name = next(
                    key for key in ("seq", "task", "step")
                    if row[key].__class__ is not int
                )
                raise TraceError(f"{name} {row[name]!r} is not an int")
            nodes = self._nodes
            if nodes is not None and not 0 <= step < nodes:
                raise TraceError(f"step {step} outside the DPST's {nodes} nodes")
            access = row["access_type"]
            if access != READ and access != WRITE:
                raise TraceError(f"unknown access type {access!r}")
            locks = row.get("lockset", _NO_LOCKS)
            if locks.__class__ is not list:
                raise TraceError(f"lockset {locks!r} is not a list")
            for lock in locks:
                if lock.__class__ is not str:
                    raise TraceError(f"lock {lock!r} is not a string")
            return MemoryEvent(
                seq, task, step, decode_location(row["location"]), access,
                tuple(locks),
            )
        except (ValueError, TypeError, KeyError, RecursionError, TraceError) as exc:
            if self.strict:
                raise self._undecodable(exc) from exc
            self.lines_skipped += 1
            return None

    def _misstamped(self, event: MemoryEvent, stamp: int) -> None:
        """Refuse an access whose ``"sk"`` stamp is not its location's
        shard key (strict), or count it as a skipped line (lenient).

        Besides a damaged line, this is how a file from a writer that
        keyed a namedtuple, ``IntEnum``, bool or integral-float location
        on its own ``repr`` reads; such a file still checks at
        ``jobs=1``, which reads no stamps."""
        if self.strict:
            raise TraceError(
                f"undecodable event line in {self.path!r}: shard stamp "
                f"{stamp} is not the key of location {event.location!r} "
                "(--jobs 1 reads no stamps)"
            )
        self.lines_skipped += 1

    def _undecodable(self, exc: BaseException) -> TraceError:
        """The strict reader's error for a line it cannot decode."""
        return TraceError(f"undecodable event line in {self.path!r}: {exc}")

    @contextlib.contextmanager
    def _event_lines(self, binary: bool = False) -> Iterator[Any]:
        """One streaming pass: the open handle, past the header line.

        A strict text handle that meets a byte that is not UTF-8 while it
        reads ahead raises a :class:`TraceError` naming the file.
        """
        handle = self._open_stream(binary)
        try:
            handle.readline()  # header
            yield handle
        except UnicodeDecodeError as exc:
            raise self._undecodable(exc) from exc
        finally:
            self._release(handle)

    def events(self) -> Iterator[object]:
        """Yield every event in file order (a fresh pass per call)."""
        decode = self._decode_line
        with self._event_lines() as lines:
            for line in lines:
                event = decode(line)
                if event is not None:
                    yield event

    def _select(
        self, shard: Optional[int], jobs: Optional[int], ends: bool
    ) -> Iterator[object]:
        """One loop over the file's lines.

        At ``jobs > 1`` foreign-shard lines are dropped by their ``"sk"``
        stamp *without* JSON decoding, so N streaming workers split the
        parse cost of one file.  Unstamped lines (externally produced
        files) are decoded, then routed by location, and so is a line with
        a byte that is not UTF-8 in lenient mode.  A kept access whose
        stamp is not its location's key is refused (strict) or counted in
        :attr:`stamped_lines_skipped` (lenient).
        """
        kinds = _CHECKING_KINDS if ends else _MEMORY_KINDS
        decode = self._decode_line
        if shard is None or jobs is None or jobs <= 1:
            with self._event_lines() as lines:
                for line in lines:
                    event = decode(line)
                    if event.__class__ in kinds:
                        yield event
            return
        # Binary mode: foreign-shard lines are dropped after a bounded
        # bytes scan, without UTF-8 decoding or JSON parsing them.
        with self._event_lines(binary=True) as lines:
            for line in lines:
                # The stamp sits in the last ~20 bytes; bound the scan.
                match = _SK_TAIL.search(line, max(0, len(line) - 32))
                if match is not None and not self.strict:
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        # A lenient read replaces the bad byte, which can
                        # move the access off the location its stamp was
                        # keyed on: route it by location, as at jobs=1.
                        match = None
                if match is None:
                    # Unstamped: every shard decodes it, then routes an
                    # access by its location.
                    event = decode(line)
                    if event.__class__ in kinds and (
                        event.__class__ is not MemoryEvent
                        or location_shard_key(event.location) % jobs == shard
                    ):
                        yield event
                else:
                    stamp = int(match.group(1))
                    if stamp % jobs != shard:
                        continue
                    event = decode(line)
                    if event.__class__ is MemoryEvent and (
                        location_shard_key(event.location) != stamp
                    ):
                        # The stamp routed it away from the shard that
                        # checks the rest of its location's accesses.
                        event = self._misstamped(event, stamp)
                    if event is None:
                        # Skipped (a stamped line is never blank), and
                        # decoded by no other shard.
                        self.stamped_lines_skipped += 1
                    elif event.__class__ in kinds:
                        yield event


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
    except RecursionError:
        # Too deep to parse here: the prefix decides, and a v2 reader's
        # own parse then names the file.
        return _HEADER_PREFIX.match(stripped) is not None
    except (ValueError, UnicodeDecodeError):
        return False
    return isinstance(header, dict) and header.get("format") == JSONL_FORMAT


def open_trace(path: str, strict: bool = True) -> TraceReader:
    """Open *path* as a streaming :class:`TraceReader` of its format: a
    :class:`~repro.trace.columnar.ColumnarTraceReader` for a file that
    starts with the v3 magic, a :class:`JsonlTraceReader` for anything
    else (which refuses a file that is not v2).  The file's extension
    does not matter.

    ``strict=False`` turns on lenient ingestion: undecodable events are
    counted on ``reader.lines_skipped`` and skipped instead of raising
    mid-stream.
    """
    # Imported here: columnar.py builds on this module's primitives.
    from repro.trace.columnar import ColumnarTraceReader, is_columnar_trace

    reader = ColumnarTraceReader if is_columnar_trace(path) else JsonlTraceReader
    return reader(path, strict=strict)


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
    with open_trace(path) as reader:
        return reader.read()
