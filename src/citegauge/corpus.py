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

import numpy as np

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
    def parse(cls, value: "str | Source") -> "Source":
        if isinstance(value, cls):
            return value
        member = _SOURCES.get(str(value).lower())
        if member is None:
            raise ValueError(f"unknown source: {value!r}")
        return member


#: Lookup tables for the validator's accept path: a canonical year key and a
#: lowercased source name each cost one dict lookup.
_YEARS = {str(y): y for y in range(YEAR_MIN, YEAR_MAX + 1)}
_SOURCES = {member.value.lower(): member for member in Source}


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
    """Papers sharing a publication year, sorted by id.

    The statistics read the cohort as columns, each in cohort (id) order:
    ``ids``, ``venues`` and ``counts_in(year)``.  Each call builds its
    column afresh; nothing is cached.
    """

    pub_year: int
    papers: tuple[PaperRecord, ...]

    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.papers)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.papers)

    @property
    def venues(self) -> tuple[str, ...]:
        return tuple(p.venue for p in self.papers)

    def counts_in(self, year: int) -> np.ndarray:
        """Citations in a calendar year as an int64 vector; absent years are zero."""
        try:
            return np.array([p.counts.get(year, 0) for p in self.papers],
                            dtype=np.int64)
        except OverflowError:
            raise ValueError(f"a citation count in {year} does not fit in "
                             f"64 bits") from None


def _check_year(value, what: str, line=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}", line=line)
    if not YEAR_MIN <= value <= YEAR_MAX:
        raise ParseError(
            f"{what} {value} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line
        )
    return value


def _check_count(key, value, pub_year: int, line=None) -> tuple[int, int]:
    """The full checks of one counts entry, in order; the reject path."""
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
    return year, value


def validate_record(raw: dict, line=None, strict: bool = True) -> PaperRecord:
    """Validate one parsed corpus line into a PaperRecord.

    In strict mode unknown keys are rejected; with strict=False they are
    ignored.  Every failure names the offending field and line number.

    A valid record costs only table lookups and exact type tests: count keys
    are looked up in a table of canonical year strings and the source (in
    Source.parse) in a table of lowercased names.  Anything the lookups and
    type tests do not accept at once (a key such as " 2016" or "02016", an
    int subclass, a bool) goes through the full checks, so every record is
    accepted or rejected exactly as the full checks alone would, with the
    same exception and message.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"record must be an object, got {type(raw).__name__}", line=line)
    if raw.keys() != CORPUS_KEYS:
        missing = CORPUS_KEYS - raw.keys()
        if missing:
            raise MissingField(f"missing field(s): {sorted(missing)}", line=line)
        if strict:
            unknown = raw.keys() - CORPUS_KEYS
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
        year = _YEARS.get(key)
        if (year is None or type(value) is not int or value < 0
                or year < pub_year):
            year, value = _check_count(key, value, pub_year, line)
        counts[year] = value

    return PaperRecord(id=paper_id, source=source, venue=venue,
                       pub_year=pub_year, counts=counts)


#: Decodes one JSON value at the start of a string and returns it with the
#: index where it ends.
_raw_decode = json.JSONDecoder().raw_decode


def load_corpus(path, strict: bool = True) -> list[PaperRecord]:
    """Load a JSONL corpus file; rejects duplicate ids and invalid lines.

    A stripped line that holds exactly one JSON value costs one raw_decode;
    json.loads, which is raw_decode behind a BOM check and two whitespace
    scans, runs only on a line raw_decode does not consume whole, and
    raises the error the line has always raised.
    """
    records: list[PaperRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_num, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc.msg}",
                                     line=line_num) from None
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
    return Cohort(pub_year=pub_year, papers=tuple(members))


def load_venue_aliases(path) -> dict[str, str]:
    """Optional alias file: JSON object mapping raw venue string -> canonical name."""
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"alias file {path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
    ):
        raise ParseError(
            f"alias file {path} must be a JSON object of string -> string")
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
