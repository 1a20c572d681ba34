"""Canonical data model and on-disk corpus format.

A corpus is a UTF-8 JSONL file, one paper per line, with keys exactly
{"id", "source", "venue", "year", "counts"}.  "counts" maps 4-digit year
strings to non-negative integers; missing years mean zero citations that
year.  Records are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .errors import (
    CitationBeforePublication,
    DuplicateId,
    EmptyId,
    MissingField,
    NegativeCount,
    ParseError,
)

YEAR_MIN = 1900
YEAR_MAX = 2100

CORPUS_KEYS = {"id", "source", "venue", "year", "counts"}


class Source(str, Enum):
    ACL = "ACL"
    ARXIV = "ArXiv"
    PUBMED = "PubMed"
    OTHER = "Other"

    @classmethod
    def parse(cls, value: str) -> "Source":
        for member in cls:
            if member.value.lower() == str(value).lower():
                return member
        raise ValueError(f"unknown source: {value!r}")


@dataclass(frozen=True)
class PaperRecord:
    """One paper: identifier, provenance, and per-calendar-year citation counts."""

    id: str
    source: Source
    venue: str
    pub_year: int
    counts: Mapping[int, int]

    def citations_in(self, year: int) -> int:
        """Citation count for a calendar year; absent years are zero."""
        return self.counts.get(year, 0)


@dataclass(frozen=True)
class Cohort:
    """Papers sharing a publication year (and a source set), sorted by id."""

    pub_year: int
    sources: frozenset[Source]
    papers: tuple[PaperRecord, ...]

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.papers)


def _check_year(value, what: str, line=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}", line=line)
    if not YEAR_MIN <= value <= YEAR_MAX:
        raise ParseError(
            f"{what} {value} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line
        )
    return value


def validate_record(raw: dict, line=None, strict: bool = True) -> PaperRecord:
    """Validate one parsed corpus line into a PaperRecord.

    In strict mode unknown keys are rejected; with strict=False they are
    ignored.  Every failure names the offending field and line number.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"record must be an object, got {type(raw).__name__}", line=line)
    missing = CORPUS_KEYS - raw.keys()
    if missing:
        raise MissingField(f"missing field(s): {sorted(missing)}", line=line)
    if strict:
        unknown = raw.keys() - CORPUS_KEYS
        if unknown:
            raise ParseError(f"unknown key(s): {sorted(unknown)}", line=line)

    paper_id = raw["id"]
    if not isinstance(paper_id, str) or not paper_id:
        raise EmptyId("field 'id' must be a non-empty string", line=line)

    try:
        source = Source.parse(raw["source"])
    except ValueError as exc:
        raise ParseError(f"field 'source': {exc}", line=line) from None

    venue = raw["venue"]
    if not isinstance(venue, str):
        raise ParseError(f"field 'venue' must be a string, got {venue!r}", line=line)

    pub_year = _check_year(raw["year"], "field 'year'", line=line)

    raw_counts = raw["counts"]
    if not isinstance(raw_counts, dict):
        raise ParseError("field 'counts' must be an object", line=line)
    counts: dict[int, int] = {}
    for key, value in raw_counts.items():
        try:
            year = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"counts key {key!r} is not a year", line=line) from None
        _check_year(year, f"counts key {key!r}", line=line)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise NegativeCount(
                f"counts[{year}] must be a non-negative integer, got {value!r}",
                line=line,
            )
        if year < pub_year:
            raise CitationBeforePublication(
                f"counts[{year}] precedes publication year {pub_year}", line=line
            )
        counts[year] = value

    return PaperRecord(id=paper_id, source=source, venue=venue,
                       pub_year=pub_year, counts=counts)


def load_corpus(path, strict: bool = True) -> list[PaperRecord]:
    """Load a JSONL corpus file; rejects duplicate ids and invalid lines."""
    records: list[PaperRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_num, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=line_num) from None
            record = validate_record(raw, line=line_num, strict=strict)
            if record.id in seen:
                raise DuplicateId(f"duplicate id {record.id!r}", line=line_num)
            seen.add(record.id)
            records.append(record)
    return records


def record_to_json(record: PaperRecord) -> str:
    """One canonical corpus line (counts keys sorted for byte-stable output)."""
    obj = {
        "id": record.id,
        "source": record.source.value,
        "venue": record.venue,
        "year": record.pub_year,
        "counts": {str(y): record.counts[y] for y in sorted(record.counts)},
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_corpus(records: Iterable[PaperRecord], path) -> int:
    """Write records as JSONL; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_to_json(record) + "\n")
            n += 1
    return n


def filter_cohort(records: Iterable[PaperRecord], pub_year: int,
                  sources: Iterable[Source] | None = None) -> Cohort:
    """Select records matching pub_year and source set, sorted by id.

    sources=None means all sources.  An empty cohort is legal; downstream
    statistics reject it.
    """
    source_set = frozenset(sources) if sources is not None else frozenset(Source)
    members = sorted(
        (r for r in records if r.pub_year == pub_year and r.source in source_set),
        key=lambda r: r.id,
    )
    return Cohort(pub_year=pub_year, sources=source_set, papers=tuple(members))


def load_venue_aliases(path) -> dict[str, str]:
    """Optional alias file: JSON object mapping raw venue string -> canonical name."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
    ):
        raise ParseError("alias file must be a JSON object of string -> string")
    return raw


def apply_venue_aliases(records: Iterable[PaperRecord],
                        aliases: Mapping[str, str]) -> list[PaperRecord]:
    """Rewrite venue names through the alias map; unmapped venues pass verbatim."""
    out = []
    for record in records:
        venue = aliases.get(record.venue, record.venue)
        if venue != record.venue:
            record = PaperRecord(record.id, record.source, venue,
                                 record.pub_year, record.counts)
        out.append(record)
    return out
