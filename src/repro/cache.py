"""Content-addressed result cache: re-checking a seen trace is a hash lookup.

The offline workflow checks the same recorded traces repeatedly -- CI
goldens, fuzz corpora, regression archives -- and a checker run is a pure
function of (trace, checker configuration).  This module memoizes that
function on disk: the key is a SHA-256 over the trace's bytes digest and
every configuration input that can change the report, and the value is
the *normalized* report (violations in canonical order), so a cached
result is byte-identical no matter which ``jobs`` count or shard layout
originally produced it.

Deliberately **excluded** from the key:

* ``jobs`` / checkpointing / fault policy -- sharding is proven
  report-equivalent to in-process checking (PR 1/4), so parallelism is an
  execution detail, not an input.
* observability -- metrics never feed back into reports.

Storage reuses the shard-checkpoint substrate
(:func:`repro.checker.supervisor._atomic_write`): one JSON file per key
under a two-level fan-out directory, written atomically, and any entry
that fails to decode is treated as a miss and recomputed -- a damaged
cache can cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.checker.supervisor import _atomic_write
from repro.errors import TraceError
from repro.report import (
    ViolationReport,
    location_key,
    report_from_dict,
    report_to_dict,
)
from repro.trace.serialize import dpst_to_dict, event_to_dict
from repro.trace.trace import Trace

CACHE_SCHEMA = "repro-result-cache/1"

_HASH_CHUNK = 1 << 20


def file_digest(path: str) -> str:
    """Streamed SHA-256 hex digest of the file at *path*."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """SHA-256 hex digest of an in-memory :class:`Trace`.

    Hashes a canonical JSON rendering (DPST arrays, then one event row per
    line) incrementally, so two equal traces digest identically regardless
    of how they were produced.  Note this is a *different* digest space
    from :func:`file_digest` over a serialized copy -- intentionally: keys
    only ever need to match themselves.
    """
    digest = hashlib.sha256()
    dpst = None if trace.dpst is None else dpst_to_dict(trace.dpst)
    digest.update(json.dumps(dpst, sort_keys=True).encode("utf-8"))
    digest.update(b"\n")
    for event in trace.events:
        digest.update(
            json.dumps(event_to_dict(event), sort_keys=True).encode("utf-8")
        )
        digest.update(b"\n")
    return digest.hexdigest()


def checker_cache_token(spec: Any, kwargs: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """A stable identity token for a checker request, or ``None``.

    Only *string* specs are cacheable: a class or instance may carry
    constructor state that :func:`repro.checker.checker_name_of` cannot
    see (e.g. ``OptAtomicityChecker(mode="thorough")`` names itself the
    same as the paper-mode default), so hashing the name alone would
    alias distinct configurations.  Keyword arguments are folded in as
    canonical JSON; unserializable kwargs make the request uncacheable.
    """
    if not isinstance(spec, str):
        return None
    if not kwargs:
        return spec
    try:
        return f"{spec}?{json.dumps(kwargs, sort_keys=True)}"
    except (TypeError, ValueError):
        return None


def result_cache_key(
    trace_digest: str,
    checker_token: str,
    engine: str,
    strict: bool,
) -> str:
    """SHA-256 cache key over every report-affecting input."""
    token = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "trace": trace_digest,
            "checker": checker_token,
            "engine": engine,
            "strict": bool(strict),
        },
        sort_keys=True,
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def normalized_report_copy(report: ViolationReport) -> ViolationReport:
    """A copy of *report* with violations in canonical (normal-form) order.

    Checkers record violations in first-seen order, which varies with the
    shard layout; the cache stores and serves this jobs-insensitive form
    so a hit is byte-identical to a fresh normalized run.  ``raw_count``
    is preserved.
    """
    def triple_key(violation: Any) -> str:
        return json.dumps(
            {
                "location": location_key(violation.location),
                "pattern": violation.pattern,
                "steps": [
                    violation.first.step,
                    violation.second.step,
                    violation.third.step,
                ],
                "accesses": [
                    violation.first.access_type,
                    violation.second.access_type,
                    violation.third.access_type,
                ],
            },
            sort_keys=True,
        )

    def cycle_key(violation: Any) -> str:
        return json.dumps(
            {
                "location": location_key(violation.location),
                "cycle": sorted(violation.cycle),
            },
            sort_keys=True,
        )

    copy = ViolationReport()
    for violation in sorted(report.violations, key=triple_key):
        copy.add(violation)
    for cycle in sorted(report.cycles, key=cycle_key):
        copy.add_cycle(cycle)
    copy.raw_count = report.raw_count
    return copy


@dataclass(frozen=True)
class CacheEntry:
    """One cache read: the stored report plus bookkeeping."""

    key: str
    report: ViolationReport
    nbytes: int
    meta: Dict[str, Any]


class ResultCache:
    """On-disk content-addressed store of normalized check reports.

    Layout: ``<directory>/<key[:2]>/<key>.json`` (two-level fan-out keeps
    directory listings sane at millions of entries).  Writes go through
    the checkpoint store's atomic temp-file + :func:`os.replace`
    discipline, so concurrent checkers racing on the same key simply
    last-write-wins identical bytes.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def load(self, key: str) -> Optional[CacheEntry]:
        """Return the entry stored under *key*, or ``None`` on miss.

        A present-but-damaged entry (torn by an external process, schema
        drift, undecodable report or location) is also a miss: the caller
        recomputes and overwrites it.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
            data = json.loads(raw)
            if (
                not isinstance(data, dict)
                or data.get("schema") != CACHE_SCHEMA
                or data.get("key") != key
            ):
                return None
            report = report_from_dict(data["report"])
        except (OSError, ValueError, KeyError, TypeError, TraceError):
            return None
        return CacheEntry(
            key=key,
            report=report,
            nbytes=len(raw.encode("utf-8")),
            meta=data.get("meta", {}),
        )

    def store(
        self,
        key: str,
        report: ViolationReport,
        meta: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Persist *report* under *key*; return the entry's size in bytes.

        Callers should pass an already-normalized report (see
        :func:`normalized_report_copy`) so hits replay byte-identically.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "report": report_to_dict(report),
            "meta": meta or {},
        }
        _atomic_write(path, payload)
        return os.path.getsize(path)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ResultCache {self.directory!r}>"
