"""Claim / source data model for machine-only fusion.

A *data item* is an ``(entity, attribute)`` pair — e.g. ``(book-123,
"author list")``.  A *claim* is a distinct value asserted for a data item by
one or more *sources*.  Fusion methods score claims; CrowdFusion then treats
each claim as a binary fact ("is this claimed value correct?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import FusionError


@dataclass(frozen=True)
class Source:
    """A data source (web site, feed, provider)."""

    source_id: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.source_id:
            raise FusionError("source_id must be a non-empty string")


@dataclass(frozen=True)
class Claim:
    """A distinct value claimed for one data item.

    Attributes
    ----------
    claim_id:
        Unique identifier, assigned by the :class:`ClaimDatabase`.
    entity:
        The entity the claim is about (e.g. a book ISBN).
    attribute:
        The attribute being claimed (e.g. ``"author_list"``).
    value:
        The claimed value, compared for exact equality between sources.
    sources:
        The ids of the sources asserting exactly this value, sorted.  Every
        fusion method sums per-source floats over them, and a fixed order
        makes those sums independent of the process's string-hash seed
        (``PYTHONHASHSEED``), so a prior rebuilt in another process is
        bit-identical.
    """

    claim_id: str
    entity: str
    attribute: str
    value: str
    sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))

    @property
    def data_item(self) -> Tuple[str, str]:
        """The ``(entity, attribute)`` pair this claim belongs to."""
        return (self.entity, self.attribute)

    @property
    def support(self) -> int:
        """Number of sources asserting this claim."""
        return len(self.sources)


class ClaimDatabase:
    """A table of source observations, grouped into distinct claims.

    Observations are added one at a time; the database deduplicates values
    per data item and tracks which sources support each distinct value.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Source] = {}
        # (entity, attribute, value) -> set of source ids
        self._observations: Dict[Tuple[str, str, str], Set[str]] = {}
        # insertion order of distinct (entity, attribute, value) triples
        self._order: List[Tuple[str, str, str]] = []

    # -- building -----------------------------------------------------------------

    def add_source(self, source_id: str, name: str = "") -> Source:
        """Register a source (idempotent)."""
        if source_id not in self._sources:
            self._sources[source_id] = Source(source_id=source_id, name=name or source_id)
        return self._sources[source_id]

    def add_observation(
        self, source_id: str, entity: str, attribute: str, value: str
    ) -> None:
        """Record that ``source_id`` claims ``value`` for ``(entity, attribute)``."""
        if not entity or not attribute:
            raise FusionError("entity and attribute must be non-empty")
        if not value:
            raise FusionError("claimed value must be non-empty")
        self.add_source(source_id)
        key = (entity, attribute, value)
        if key not in self._observations:
            self._observations[key] = set()
            self._order.append(key)
        self._observations[key].add(source_id)

    # -- inspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Claim]:
        return iter(self.claims())

    @property
    def num_sources(self) -> int:
        """Number of registered sources."""
        return len(self._sources)

    def sources(self) -> Tuple[Source, ...]:
        """Registered sources, in registration order."""
        return tuple(self._sources.values())

    def claims(self) -> Tuple[Claim, ...]:
        """Distinct claims in insertion order, with generated ids ``c1, c2, ...``."""
        result = []
        for index, (entity, attribute, value) in enumerate(self._order, start=1):
            result.append(
                Claim(
                    claim_id=f"c{index}",
                    entity=entity,
                    attribute=attribute,
                    value=value,
                    sources=self._observations[(entity, attribute, value)],
                )
            )
        return tuple(result)

    def data_items(self) -> Tuple[Tuple[str, str], ...]:
        """Distinct ``(entity, attribute)`` pairs, in first-seen order."""
        seen: List[Tuple[str, str]] = []
        for entity, attribute, _value in self._order:
            if (entity, attribute) not in seen:
                seen.append((entity, attribute))
        return tuple(seen)

    def claims_for(self, entity: str, attribute: Optional[str] = None) -> Tuple[Claim, ...]:
        """Claims about one entity (optionally restricted to one attribute)."""
        return tuple(
            claim
            for claim in self.claims()
            if claim.entity == entity and (attribute is None or claim.attribute == attribute)
        )

    def observations_of(self, source_id: str) -> Tuple[Claim, ...]:
        """Every claim asserted by ``source_id``."""
        if source_id not in self._sources:
            raise FusionError(f"unknown source {source_id!r}")
        return tuple(claim for claim in self.claims() if source_id in claim.sources)

    def entities(self) -> Tuple[str, ...]:
        """Distinct entities, in first-seen order."""
        seen: List[str] = []
        for entity, _attribute, _value in self._order:
            if entity not in seen:
                seen.append(entity)
        return tuple(seen)

    @classmethod
    def from_observations(
        cls, observations: Iterable[Tuple[str, str, str, str]]
    ) -> "ClaimDatabase":
        """Build a database from ``(source_id, entity, attribute, value)`` tuples."""
        database = cls()
        for source_id, entity, attribute, value in observations:
            database.add_observation(source_id, entity, attribute, value)
        return database
