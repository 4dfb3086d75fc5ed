"""Unified statistics of a parallelism-query engine.

Every registered engine (see :mod:`repro.dpst.engines`) answers the same
``parallel(a, b)`` queries and accounts for them with the same three
counters, which produce Table 1's columns and feed the observability
layer's ``engine.*`` metrics (:mod:`repro.obs`).  One exported dataclass
keeps all the surfaces field-for-field identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class EngineStats:
    """Counters shared by every parallelism engine.

    ``queries`` counts every parallelism query issued by a client;
    ``unique`` counts the distinct unordered node pairs among them (i.e.
    cache misses when the cache is enabled); ``hops`` measures the raw
    traversal work -- parent hops for tree walks, label entries compared
    for label engines (the locality cost Figure 14 measures).
    """

    queries: int = 0
    unique: int = 0
    hops: int = 0

    @property
    def hits(self) -> int:
        """Number of queries answered from the cache."""
        return self.queries - self.unique

    @property
    def unique_fraction(self) -> float:
        """Fraction of queries that were unique (Table 1's last column)."""
        if self.queries == 0:
            return 0.0
        return self.unique / self.queries

    def merge(self, other: "EngineStats") -> None:
        """Accumulate *other* into this stats object."""
        self.queries += other.queries
        self.unique += other.unique
        self.hops += other.hops

    def as_metrics(self) -> Dict[str, int]:
        """The canonical ``engine.*`` metric mapping (see repro.obs)."""
        return {
            "engine.queries": self.queries,
            "engine.unique": self.unique,
            "engine.hops": self.hops,
        }
