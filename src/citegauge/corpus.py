"""Canonical data model and on-disk corpus format.

A corpus is a UTF-8 JSONL file, one paper per line, with keys exactly
{"id", "source", "venue", "year", "counts"}.  "counts" maps 4-digit year
strings to non-negative integers, each year at most once; missing years
mean zero citations.  No JSON key may repeat within a line.  Records are
immutable after construction.

The reports read one publication-year cohort, never the whole corpus:
``load_cohort`` validates every line in one streaming pass and keeps only
the cohort's ids, an int venue code per paper with the distinct venue
names, and a years x papers count matrix.  The file is read in blocks of
``_BLOCK`` lines.  A block's lines are decoded with ``orjson`` and meet
one accept test together (``_accepted_block``), made of C-level passes
over the block: a sum of the lines' key counts proves each line's key set,
a str join of each str column its types, its counts check is one subset
test of the union of the count keys of each publication year's lines
against the canonical year keys from that year on, one ``orjson``
re-encode of the block's count values proves each a non-negative int, one
count of the block's colons proves that no key repeats (with a second
chance for colons in the ids and venues of a block with no backslash),
and the ids go into the set of those seen with one update, taken out
again if the block repeats one.  A block that this refuses is replayed
line by line (``_replay``) through the per-line accept test
(``_accepted``) and the same colon count, second chance included, made
for the line; a line that they refuse is decoded again by the reference
decoder, stdlib ``json`` with a hook that refuses a repeated key, and
meets the full checks, the only reject path: every error message comes
from there.

The cohort's columns are built as its blocks arrive (``_columns``), with
no Python call per count entry: the ids go onto a list, the venue codes
onto a typed array, and each block's counts, in one numpy scatter of the
count values that the accept test listed, onto one line-order row per
count year (``_CountRows``), held in the narrowest of uint8, uint16,
uint32 and int64 that fits every count so far.  No per-entry array
outlives its block.  At the end the ids are sorted in place, with no
per-paper int object, and the int64 id-order matrix is filled one row at
a time, each line-order row let go once gathered.  So the load's traced
peak is the cohort it returns plus the set of seen ids, which stays
because a duplicate id is refused in line order, and the narrow rows:
about 1.3x the cohort.

``PaperRecord`` is the record type of the write path (ingest, import,
``write_corpus``) and of ``load_corpus``; ``filter_cohort`` loads records
as the lines ``write_corpus`` writes, so a cohort has one way in.

``json_value`` is the one decode rule of what the program reads, and
``json_bytes`` the one encode rule of the corpus and checkpoint lines it
writes: compact UTF-8 JSON from one ``orjson`` call, with stdlib ``json``
only for what ``orjson`` refuses, an int past 64 bits or a lone surrogate.
A corpus line (``record_to_json``) is the same bytes either way.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, itemgetter
from typing import Iterable, Iterator, Mapping

import numpy as np
import orjson

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
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1

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


#: A lowercased source name costs the accept test one dict lookup.
_SOURCES = {member.value.lower(): member for member in Source}
_INT_ONLY, _DICT_ONLY = {int}, {dict}
_FIELDS = itemgetter("id", "source", "venue", "year", "counts")
#: The place values of the four digits of a year.
_PLACES = np.array([1000, 100, 10, 1], dtype=np.int16)
_SCALARS = {str, int, float, bool, type(None)}
_ALL_SOURCES = frozenset(Source)


@cache
def _year_keys(pub_year: int) -> dict[str, int]:
    """The canonical counts keys of a paper published in pub_year, the
    4-digit years from pub_year to YEAR_MAX, each mapped to its year.

    Built the first time a publication year is seen, which the caller has
    range-checked, so at most one table per year in [YEAR_MIN, YEAR_MAX]."""
    return {str(year): year for year in range(pub_year, YEAR_MAX + 1)}


@dataclass(frozen=True)
class PaperRecord:
    """One paper: identifier, provenance, and per-calendar-year citation counts."""

    id: str
    source: Source
    venue: str
    pub_year: int
    counts: Mapping[int, int]


@dataclass(frozen=True, eq=False)
class Cohort:
    """Papers sharing a publication year, as columns in id order.

    ``ids`` and ``venue_codes`` (int32) hold one entry per paper; a paper's
    venue is ``venue_names[venue_codes[i]]``, and the distinct names are
    numbered by first appearance in id order.  ``counts`` is a read-only
    int64 matrix with one row per calendar year in ``years`` (ascending,
    only years some paper has a count in) and one column per paper.
    ``counts_in(year)`` returns that year's row, or zeros for a year with
    no row.  A count past int64 is kept out of the matrix, and its year in
    ``overflow_years``: reading that year raises ValueError.
    """

    pub_year: int
    ids: tuple[str, ...]
    venue_codes: np.ndarray
    venue_names: tuple[str, ...]
    years: tuple[int, ...]
    counts: np.ndarray
    overflow_years: frozenset[int] = frozenset()

    def __len__(self) -> int:
        return len(self.ids)

    def counts_in(self, year: int) -> np.ndarray:
        """Citations in a calendar year as an int64 vector; absent years are zero."""
        if year in self.overflow_years:
            raise ValueError(f"a citation count in {year} does not fit in "
                             f"64 bits")
        if year in self.years:
            return self.counts[self.years.index(year)]
        return np.zeros(len(self.ids), dtype=np.int64)


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
    if not YEAR_MIN <= year <= YEAR_MAX:
        shown = repr(key) if str(key) == str(year) else f"{key!r} ({year})"
        raise ParseError(f"counts key {shown} outside [{YEAR_MIN}, {YEAR_MAX}]",
                         line=line)
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


def _encodable(text: str) -> bool:
    """Whether text holds no lone surrogate, the one thing a str can hold
    that UTF-8 cannot encode (a JSON escape such as "\\ud800" reads as
    one)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _full_checks(raw, line, strict: bool) -> tuple:
    """Every check of one parsed line, in order: the only reject path, and
    where odd but valid count keys such as " 2016" are normalised."""
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
    for name, text in (("id", paper_id), ("venue", venue)):
        if not _encodable(text):
            raise ParseError(f"field {name!r} holds a lone surrogate, which "
                             f"UTF-8 cannot encode", line=line)

    pub_year = _check_year(raw["year"], "field 'year'", line=line)

    raw_counts = raw["counts"]
    if not isinstance(raw_counts, dict):
        raise ParseError("field 'counts' must be an object", line=line)
    counts = {}
    for key, value in raw_counts.items():
        year, value = _check_count(key, value, pub_year, line)
        canonical = str(year)
        if canonical in counts:
            raise ParseError(f"counts key {key!r} names year {year} again",
                             line=line)
        counts[canonical] = value
    return paper_id, source, venue, pub_year, counts


def _accepted(raw, strict: bool = True) -> tuple | None:
    """(id, source, venue, pub_year, counts) of one parsed corpus line that
    passes the accept test, or None.

    The accept test is C-level work only: the exact key set (with
    strict=False, the corpus keys plus others holding scalars), exact type
    tests, one source lookup, count keys a subset of the canonical years
    from pub_year to YEAR_MAX (one set test for both the year format and
    "not before publication"), and int values with a non-negative minimum.
    A line the test does not accept goes through the full checks, which
    accept or reject it.
    """
    if type(raw) is dict and (raw.keys() == CORPUS_KEYS
                              or not strict and _scalar_extras(raw)):
        paper_id, source, venue = raw["id"], raw["source"], raw["venue"]
        pub_year, counts = raw["year"], raw["counts"]
        if type(source) is str:
            source = _SOURCES.get(source.lower())
        if (type(paper_id) is str and paper_id and type(venue) is str
                and _encodable(paper_id) and _encodable(venue)
                and type(source) is Source
                and type(pub_year) is int and YEAR_MIN <= pub_year <= YEAR_MAX
                and type(counts) is dict
                and counts.keys() <= _year_keys(pub_year).keys()
                and {*map(type, counts.values())} <= _INT_ONLY
                and (not counts or min(counts.values()) >= 0)):
            return paper_id, source, venue, pub_year, counts
    return None


def _scalar_extras(raw: dict) -> bool:
    """Whether raw holds every corpus key and only scalars under its other
    keys, which a lenient load ignores.  A list or object there is left to
    the full checks: orjson reads nesting of any depth, stdlib json raises
    past its recursion limit."""
    return raw.keys() >= CORPUS_KEYS and {
        type(raw[key]) for key in raw.keys() - CORPUS_KEYS} <= _SCALARS


def _record(paper_id, source, venue, pub_year, counts) -> PaperRecord:
    return PaperRecord(paper_id, source, venue, pub_year, dict(zip(
        map(_year_keys(pub_year).__getitem__, counts), counts.values())))


def validate_record(raw: dict, line=None, strict: bool = True) -> PaperRecord:
    """Validate one parsed corpus line into a PaperRecord.

    In strict mode unknown keys are rejected; with strict=False they are
    ignored.  Every failure names the offending field and line number.
    """
    return _record(*(_accepted(raw, strict)
                     or _full_checks(raw, line, strict)))


def _unique_keys(pairs: list) -> dict:
    """The object of one decoded JSON object's (key, value) pairs; a key
    that repeats raises ParseError naming it."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return obj


#: Lines read, decoded and accept-tested together.  At a few hundred lines
#: the passes over a block cost little per line; smaller blocks load a
#: corpus of many publication years slower, as each block pays one pass
#: per year, and far larger ones keep more decoded values alive at once.
_BLOCK = 256


def _validated_lines(lines: Iterable[str], strict: bool,
                     pub_year: int | None = None,
                     sources: Iterable[Source] | None = None
                     ) -> Iterator[tuple[list, list | None]]:
    """(columns, values) of the corpus lines published in pub_year (None:
    any year) by a source in sources (None: any source), one block of
    _BLOCK lines at a time, in line order: the (ids, sources, venues,
    pub_years, counts) columns, and the block's count values flat in entry
    order if the columns hold every line of a block the accept test took
    whole, else None.

    Every line is validated, kept or not, and the first invalid line or
    duplicate id raises, naming its line.  A block's lines are decoded with
    orjson and meet the accept test together (_accepted_block).  A block
    whose decode or test fails is replayed line by line (_replay), which
    accepts each line or raises the block's first error, in line order.
    orjson refuses a str that holds a lone surrogate, which is what a byte
    that is not UTF-8 decodes to, and a lone surrogate escape such as
    "\\ud800", so such a block is always replayed, and the full checks
    refuse the line.  The counts keys of every row are the canonical
    4-digit year strings.
    """
    sources = frozenset(Source if sources is None else sources)
    every_source = sources >= _ALL_SOURCES
    seen: set[str] = set()
    lines = iter(lines)
    for first in count(1, _BLOCK):
        block_lines = [*islice(lines, _BLOCK)]
        if not block_lines:
            break
        block, values = _block_columns(block_lines, first, strict, seen)
        if not block:
            continue
        keep = None if every_source else [*map(sources.__contains__, block[1])]
        if pub_year is not None:
            in_year = map(eq, block[3], repeat(pub_year))
            keep = [*in_year] if keep is None else [*map(and_, keep, in_year)]
        if keep is not None and not all(keep):
            # the lines left out are let go before the next block is read
            block = [[*compress(column, keep)] for column in block]
            values = None
        yield block, values


def _block_columns(lines: list[str], first: int, strict: bool,
                   seen: set[str]) -> tuple[list, list | None]:
    """(columns, values) of the block of lines whose first is line first,
    accept-tested together (_accepted_block) or replayed, with values None
    for a replayed block; empty columns for a block of blank lines.  The
    decoded lines, of which the columns keep only the fields, are let go
    when this returns, before the next block is read.

    The lines are decoded as they are read, as JSON allows whitespace
    around a value; only a block that fails that decode, as one with a
    blank line does, is stripped and decoded again without its blank
    lines."""
    texts = lines
    try:
        raws = [*map(orjson.loads, texts)]
    except (ValueError, RecursionError):
        texts = [*filter(None, map(str.strip, lines))]
        try:
            raws = [*map(orjson.loads, texts)]
        except (ValueError, RecursionError):
            raws = None
    return (raws and _accepted_block(texts, raws, strict, seen)
            or ([*zip(*_replay(lines, first, raws, strict, seen))], None))


def _accepted_block(texts: list[str], raws: list, strict: bool,
                    seen: set[str]) -> tuple[list, list] | None:
    """(columns, values) of a block of decoded lines if each line passes the
    accept test, carries the repeated-key certificate and holds an id that
    no line before it does, else None: the (ids, sources, venues,
    pub_years, counts) columns and the count values flat in entry order.
    seen holds the ids of the lines before the block, and then, if the
    block is accepted, those of the block too.

    The test is _accepted's, made with C-level passes over the whole block.
    The key sets: each line holds every corpus key, or _FIELDS raises
    KeyError, so a block whose lines hold 5n keys in all holds exactly the
    corpus keys on each line; a lenient load checks the other keys of a
    block with more (_scalar_extras).  Then a str join of each str column,
    which raises TypeError on any other value, type sets of the other
    columns, one source lookup per distinct source string, and for each
    distinct publication year its range check and one subset test of the
    union of its lines' count keys, the lines grouped by year in one pass;
    then one re-encode of the count values (_non_negative_ints).

    The repeated-key certificate: each key in a line's text is followed by
    one ':' outside strings, so each line has at least as many colons as
    its value has keys, and the block's colons add up to its keys only if
    no line repeats a key.  A block with more colons has a second chance if
    its text holds no backslash: each decoded string is then its text, so
    the colons add up to the keys plus the colons of the decoded ids and
    venues (and, in a lenient load, of the other keys' names and string
    values) only if no line repeats a key, whose separator and dropped
    value add colons to the text alone.  A backslash may spell a colon as
    an escape, so such a block is replayed.

    The ids: none may be in seen, and adding them must grow seen by one per
    line; if it grows by less, a line repeats an id of the block, and as
    none was in seen before, taking them all out again restores it.
    """
    if not {*map(type, raws)} <= _DICT_ONLY:
        return None
    keys = sum(map(len, raws))
    if keys != len(CORPUS_KEYS) * len(raws) and (
            strict or not all(map(_scalar_extras, raws))):
        return None
    try:
        columns = [*zip(*map(_FIELDS, raws))]
    except KeyError:
        return None
    ids, names, venues, years, counts = columns
    try:  # a join raises TypeError on a value that is not a str
        for column in ids, names, venues:
            "".join(column)
    except TypeError:
        return None
    if not (all(ids) and {*map(type, years)} <= _INT_ONLY
            and {*map(type, counts)} <= _DICT_ONLY):
        return None
    source_of = {name: _SOURCES.get(name.lower()) for name in {*names}}
    pub_years = {*years}
    if None in source_of.values() \
            or not YEAR_MIN <= min(pub_years) <= max(pub_years) <= YEAR_MAX:
        return None
    if len(pub_years) == 1:
        groups = {years[0]: counts}
    else:
        groups = {year: [] for year in pub_years}
        for year, line_counts in zip(years, counts):
            groups[year].append(line_counts)
    for year, group in groups.items():
        if not set().union(*group) <= _year_keys(year).keys():
            return None
    values = [*chain.from_iterable(map(dict.values, counts))]
    if not _non_negative_ints(values):
        return None
    text = "".join(texts)
    colons = text.count(":") - keys - len(values)
    if colons and ("\\" in text or colons != _string_colons(
            raws, ids, venues, strict)):
        return None
    if not seen.isdisjoint(ids):
        return None
    before = len(seen)
    seen.update(ids)
    if len(seen) != before + len(ids):
        seen.difference_update(ids)
        return None
    columns[1] = [*map(source_of.__getitem__, names)]
    return columns, values


def _non_negative_ints(values: list) -> bool:
    """Whether each of values, a list of values that orjson.loads gave, is
    a non-negative int, proved by one C-level re-encode: the text of the
    list without its brackets holds only digits and commas.

    orjson decodes an integer as an int only inside [-2**63, 2**64) and
    as a float outside it, so it can encode every int it decodes, and each
    value that is not a non-negative int leaves some other byte in the
    text: a bool or None a letter, a float "." or "e", a negative int "-",
    a str '"', a list or an object a bracket or brace.
    "-0" decodes to the int 0.  A list or object nested past orjson's
    encode limit, which is below its decode limit, raises, and is refused
    too."""
    try:
        return not orjson.dumps(values)[1:-1].translate(None, b"0123456789,")
    except orjson.JSONEncodeError:
        return False


def _string_colons(raws: list, ids: tuple, venues: tuple, strict: bool) -> int:
    """The colons of the decoded ids and venues of a block's lines and, in
    a lenient load, of the names and string values of their other keys."""
    strings = [*ids, *venues]
    if not strict:
        for raw in raws:
            for key in raw.keys() - CORPUS_KEYS:
                strings += (key, raw[key]) if type(raw[key]) is str else (key,)
    return "".join(strings).count(":")


def _replay(lines: list[str], first: int, raws: list | None, strict: bool,
            seen: set[str]) -> list[tuple]:
    """The (id, source, venue, pub_year, counts) of each line of a block
    whose first line is line first, one line at a time, with raws the
    orjson values of its non-blank lines, or None if the block's decode
    failed; the first invalid line or duplicate id raises.

    A line whose value fails the accept test, or whose colons do not prove
    that no key repeats by the block's certificate made for the one line
    (so a line with a backslash must have one colon per key), as does any
    line that is not UTF-8, is decoded again from its bytes (utf8_text,
    json_value) and goes through the full checks.  On the corpus keys of
    accepted values, which hold only dicts, strs and non-bool ints, the two
    decoders agree, and where they differ (ints past uint64, lone surrogate
    escapes, NaN, 1e400) orjson gives a float or raises, which the accept
    path refuses; the scalars of other keys that a lenient load accepts are
    ignored, whichever decoder reads them.
    """
    decoded = None if raws is None else iter(raws)
    rows = []
    for line_num, line in enumerate(lines, first):
        line = line.strip()
        if not line:
            continue
        if decoded is not None:
            raw = next(decoded)
        else:
            try:
                raw = orjson.loads(line)
            except (ValueError, RecursionError):
                raw = None
        fields = _accepted(raw, strict)
        # the repeated-key certificate of _accepted_block, for one line
        if fields is not None:
            colons = line.count(":") - len(raw) - len(fields[4])
            if colons and ("\\" in line or colons != _string_colons(
                    [raw], (fields[0],), (fields[2],), strict)):
                fields = None
        if fields is None:
            try:
                raw = json_value(utf8_text(
                    line.encode("utf-8", "surrogateescape")))
            except ParseError as exc:
                raise ParseError(str(exc), line=line_num) from None
            fields = _full_checks(raw, line_num, strict)
        if fields[0] in seen:
            raise DuplicateId(f"duplicate id {fields[0]!r}", line=line_num)
        seen.add(fields[0])
        rows.append(fields)
    return rows


def load_corpus(path, strict: bool = True) -> list[PaperRecord]:
    """Load a JSONL corpus file; rejects duplicate ids and invalid lines."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return [_record(*fields)
                for block, _ in _validated_lines(handle, strict)
                for fields in zip(*block)]


def load_cohort(path, pub_year: int, sources: Iterable[Source] | None = None,
                strict: bool = True,
                aliases: Mapping[str, str] | None = None) -> Cohort:
    """One publication-year cohort of a JSONL corpus file, in one pass.

    Every line is validated in line order, so the first invalid line or
    duplicate id anywhere in the file raises as load_corpus would, even
    outside the cohort.  Only the cohort's ids, venues (through the alias
    map, if any) and counts are kept.  sources=None means all sources.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return _columns(_validated_lines(handle, strict, pub_year, sources),
                        pub_year, aliases)


def _key_years(counts: list[dict]) -> np.ndarray:
    """The years of a block's canonical counts keys, 4 ASCII digits each,
    as int16 in entry order."""
    digits = np.frombuffer("".join(chain.from_iterable(counts)).encode(),
                           dtype=np.uint8).reshape(-1, 4) - ord("0")
    return digits.astype(np.int16) @ _PLACES


def _columns(blocks: Iterable[list], pub_year: int,
             aliases: Mapping[str, str] | None = None) -> Cohort:
    """The Cohort of the (ids, sources, venues, pub_years, counts) column
    blocks of its papers (_validated_lines), whose counts keys are the
    canonical 4-digit year strings.

    A block's new venues become codes through the alias map once per
    distinct raw name, so raw names with one alias share a code; codes are
    renumbered by first appearance in id order at the end.  Each block's
    counts go onto one narrow line-order row per count year as the block
    arrives (_CountRows), so no per-entry array and no per-paper object but
    the id outlives its block.  At the end the ids are sorted in place with
    no per-paper int object, and the int64 id-order matrix is filled from
    the rows one row at a time, so the counts are held at full width once.
    """
    aliases = aliases or {}
    code_of: dict[str, int] = {}    # raw venue -> code
    names: dict[str, int] = {}      # venue name -> code, in line order
    ids, codes, rows = [], array("i"), _CountRows()
    for (block_ids, _, venues, _, counts), values in blocks:
        for venue in {*venues}.difference(code_of):
            code_of[venue] = names.setdefault(aliases.get(venue, venue),
                                              len(names))
        ids += block_ids
        codes.extend(map(code_of.__getitem__, venues))
        rows.add(counts, values)

    n = len(ids)
    # each id is its own str object, as two equal ids are a duplicate, so
    # ordering the line-order objects and the sorted ones by id() pairs
    # them up; list.sort compares the strs in code-point order
    lines_by_id = np.fromiter(map(id, ids), dtype=np.uintp, count=n).argsort()
    ids.sort()
    places_by_id = np.fromiter(map(id, ids), dtype=np.uintp, count=n).argsort()
    order = np.empty(n, dtype=np.intp)
    order[places_by_id] = lines_by_id
    del lines_by_id, places_by_id
    ids = tuple(ids)

    line_codes = np.frombuffer(codes, dtype=np.int32)[order]
    # line-order codes by the id-order position of their first paper
    first = np.argsort(np.unique(line_codes, return_index=True)[1])
    recode = np.empty(len(names), dtype=np.int32)
    recode[first] = np.arange(len(names), dtype=np.int32)
    line_names = list(names)
    years, counts = rows.matrix(order)
    return Cohort(pub_year=pub_year, ids=ids,
                  venue_codes=recode[line_codes],
                  venue_names=tuple(map(line_names.__getitem__, first.tolist())),
                  years=years, counts=counts,
                  overflow_years=frozenset(rows.overflow))


#: The dtypes of a cohort's line-order count rows while it loads, narrowest
#: first, each with the largest count it holds; the rows take the narrowest
#: that holds every count read so far.
_ROW_MAX = {np.dtype(dtype): int(np.iinfo(dtype).max)
            for dtype in (np.uint8, np.uint16, np.uint32, np.int64)}


class _CountRows:
    """A cohort's counts while it loads: one line-order row per count year,
    in order of first appearance, that grows by a block of lines at a time.

    The rows are bytearrays of the narrowest of _ROW_MAX's dtypes that holds
    every count so far, all of one dtype, widened together when a block
    brings a larger count.  A count past int64 stays out of the rows, and
    its year goes into overflow."""

    def __init__(self):
        self.years: list[int] = []
        self.rows: list[bytearray | None] = []
        self.row_of = np.full(YEAR_MAX + 1, -1, dtype=np.intp)
        self.dtype = next(iter(_ROW_MAX))
        self.lines = 0
        self.overflow: set[int] = set()

    def add(self, counts: list[dict], values: list | None = None) -> None:
        """Append a block's lines, given by their canonical counts, and
        their count values flat in entry order if the caller has them.

        Its entries go into a dense rows x lines block with one numpy
        scatter, and each row of the block onto its year's row; a year
        first seen here starts as zeros for the lines before."""
        entry_years = _key_years(counts)
        entry_rows = self.row_of[entry_years]
        if (entry_rows < 0).any():
            for year in np.unique(entry_years[entry_rows < 0]).tolist():
                self.row_of[year] = len(self.rows)
                self.years.append(year)
                self.rows.append(bytearray(self.lines * self.dtype.itemsize))
            entry_rows = self.row_of[entry_years]
        if values is None:
            values = chain.from_iterable(map(dict.values, counts))
        try:
            values = np.fromiter(values, dtype=np.int64,
                                 count=len(entry_years))
        except OverflowError:
            values = []
            for count_year, value in zip(entry_years.tolist(),
                                         chain.from_iterable(
                                             map(dict.values, counts))):
                if not _INT64_MIN <= value <= _INT64_MAX:
                    self.overflow.add(count_year)
                    value = 0
                values.append(value)
            values = np.array(values, dtype=np.int64)
        top = int(values.max(initial=0))
        if top > _ROW_MAX[self.dtype]:
            wide = next(dtype for dtype, most in _ROW_MAX.items()
                        if top <= most)
            for j, row in enumerate(self.rows):
                self.rows[j] = bytearray(
                    np.frombuffer(row, dtype=self.dtype).astype(wide))
            self.dtype = wide
        block = np.zeros((len(self.rows), len(counts)), dtype=self.dtype)
        block[entry_rows, np.repeat(np.arange(len(counts)), np.fromiter(
            map(len, counts), dtype=np.intp, count=len(counts)))] = values
        for row, line_counts in zip(self.rows, block.view(np.uint8)):
            row.extend(line_counts)
        self.lines += len(counts)

    def matrix(self, order: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """The years, ascending, and the read-only int64 years x papers
        matrix whose column j is line order[j], filled one row at a time,
        each line-order row let go once gathered."""
        years = sorted(self.years)
        counts = np.empty((len(years), self.lines), dtype=np.int64)
        for i, year in enumerate(years):
            j = self.years.index(year)
            counts[i] = np.frombuffer(self.rows[j], dtype=self.dtype)[order]
            self.rows[j] = None
        counts.flags.writeable = False
        return tuple(years), counts


def json_bytes(value) -> bytes:
    """The UTF-8 bytes of json.dumps(value, ensure_ascii=False,
    separators=(",", ":")), the one encode rule of the corpus and checkpoint
    lines the program writes, for a value made of dicts, lists, strs, ints,
    bools and None.  A lone surrogate, which UTF-8 cannot encode, is written
    as its JSON escape, such as \\ud800, which json_value reads back.

    orjson writes the bytes in one C call.  Stdlib json writes only what
    orjson refuses: an int past 64 bits, such as a count of 2**64 or more,
    which import can write, and a str holding a surrogate."""
    try:
        return orjson.dumps(value)
    except orjson.JSONEncodeError:
        return json.dumps(value, ensure_ascii=False, separators=(",", ":")
                          ).encode("utf-8", "backslashreplace")


def record_to_json(record: PaperRecord) -> bytes:
    """One canonical corpus line in UTF-8, without its newline (counts keys
    sorted for byte-stable output)."""
    counts = record.counts
    return json_bytes({
        "id": record.id,
        "source": record.source.value,
        "venue": record.venue,
        "year": record.pub_year,
        "counts": {str(y): counts[y] for y in sorted(counts)},
    })


def write_corpus(records: Iterable[PaperRecord], path) -> int:
    """Write records as JSONL; returns the number written."""
    n = 0
    with open(path, "wb") as handle:
        for record in records:
            handle.write(record_to_json(record) + b"\n")
            n += 1
    return n


def filter_cohort(records: Iterable[PaperRecord], pub_year: int,
                  sources: Iterable[Source] | None = None) -> Cohort:
    """The cohort that load_cohort reads from the lines write_corpus writes
    for records: every record is validated as a corpus line, and one that no
    line may hold raises that line's error, line N being its 1-based place
    among the records.

    sources=None means all sources.  An empty cohort is legal; downstream
    statistics reject it.
    """
    lines = map(bytes.decode, map(record_to_json, records))
    return _columns(_validated_lines(lines, True, pub_year, sources), pub_year)


def read_journal(path) -> tuple[list[bytes], int | None, bytes]:
    """(lines, torn_at, lead) of an append-only JSONL file: the lines that
    count, without newlines; the offset the next append must first truncate
    the file to, or None; and the bytes it must write first.

    Every complete line counts, blank ones too.  A last line without its
    newline, as a crash mid-append leaves, counts if it parses as JSON (lead
    b"\\n"), else it is a torn append at torn_at; a blank one is neither."""
    with open(path, "rb") as handle:
        data = handle.read()
    *lines, last = data.split(b"\n")
    if not last.strip():
        return lines, None, b""
    try:
        json.loads(last.decode("utf-8"))
    except (ValueError, RecursionError):
        return lines, len(data) - len(last), b""
    return [*lines, last], None, b"\n"


def utf8_text(data: bytes, whole_file: bool = False) -> str:
    """The text of data, the UTF-8 bytes of one line or of a whole file.  A
    byte that is not UTF-8 raises ParseError naming it and, in a whole
    file, its line, with no second read."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1 if whole_file else None
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                         line=line) from None


def json_value(text: str, whole_file: bool = False):
    """The JSON value of text, one line or a whole file, by the reference
    decoder, stdlib json.  Text that is not JSON raises ParseError("invalid
    JSON: ..."), with the decoder's position only for a whole file, as a
    line's error names the line; a key repeated in any object raises
    ParseError("repeated key ...")."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ParseError("invalid JSON: " + str(
            exc if whole_file else getattr(exc, "msg", exc))) from None


def read_text(path, error, what: str) -> str:
    """The text of the UTF-8 file at `path` (utf8_text), without the one
    leading byte order mark that editors and spreadsheets may write; a byte
    that is not UTF-8 raises error("{what} {path}: line N: byte ... is not
    UTF-8")."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return utf8_text(data, whole_file=True).removeprefix("\ufeff")
    except ParseError as exc:
        raise error(f"{what} {path}: {exc}") from None


def read_json(path, error, what: str):
    """The JSON value (json_value) of the UTF-8 file at `path`; a fault
    raises error("{what} {path}: ...")."""
    text = read_text(path, error, what)
    try:
        return json_value(text, whole_file=True)
    except ParseError as exc:
        raise error(f"{what} {path}: {exc}") from None


def load_venue_aliases(path) -> dict[str, str]:
    """Optional alias file: JSON object mapping raw venue string -> canonical name."""
    raw = read_json(path, ParseError, "alias file")
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
    ):
        raise ParseError(
            f"alias file {path} must be a JSON object of string -> string")
    for text in chain(raw, raw.values()):
        if not _encodable(text):
            raise ParseError(f"alias file {path}: {text!r} holds a lone "
                             f"surrogate, which UTF-8 cannot encode")
    return raw
