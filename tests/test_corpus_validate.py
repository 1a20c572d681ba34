"""Differential test of corpus.validate_record against the full-check validator.

The oracle below is validate_record as it was before its accept path became
table lookups, copied verbatim together with the two helpers it calls, with
two later rules: two count keys naming one year are refused, where the later
one used to be kept, and so is an id or venue that holds a lone surrogate.
Records are generated valid and then mutated in one field at a time; the
validator under test must return an equal record, or raise the same
exception class with the same message and line.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegauge import corpus
from citegauge.corpus import (
    CORPUS_KEYS,
    YEAR_MAX,
    YEAR_MIN,
    PaperRecord,
    load_corpus,
    validate_record,
)
from citegauge.errors import (
    CitationBeforePublication,
    CorpusError,
    DuplicateId,
    EmptyId,
    MissingField,
    NegativeCount,
    ParseError,
)


# --- oracle: the full-check validator ---------------------------------------

class Source:
    """Source.parse as it was, a linear scan over the real members, with
    one change it has since had: a member passes through as itself (before,
    str() of a member never matched a name)."""

    @staticmethod
    def parse(value: str) -> "corpus.Source":
        if isinstance(value, corpus.Source):
            return value
        for member in corpus.Source:
            if member.value.lower() == str(value).lower():
                return member
        raise ValueError(f"unknown source: {value!r}")


def _check_year(value, what: str, line=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}", line=line)
    if not YEAR_MIN <= value <= YEAR_MAX:
        raise ParseError(
            f"{what} {value} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line
        )
    return value


def oracle_validate_record(raw: dict, line=None, strict: bool = True) -> PaperRecord:
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
    for name, text in (("id", paper_id), ("venue", venue)):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"field {name!r} holds a lone surrogate, which "
                             f"UTF-8 cannot encode", line=line) from None

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
        if not YEAR_MIN <= year <= YEAR_MAX:
            shown = repr(key) if str(key) == str(year) else f"{key!r} ({year})"
            raise ParseError(f"counts key {shown} outside [{YEAR_MIN}, "
                             f"{YEAR_MAX}]", line=line)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise NegativeCount(
                f"counts[{year}] must be a non-negative integer, got {value!r}",
                line=line,
            )
        if year < pub_year:
            raise CitationBeforePublication(
                f"counts[{year}] precedes publication year {pub_year}", line=line
            )
        if year in counts:
            raise ParseError(f"counts key {key!r} names year {year} again",
                             line=line)
        counts[year] = value

    return PaperRecord(id=paper_id, source=source, venue=venue,
                       pub_year=pub_year, counts=counts)


# --- generated records -------------------------------------------------------

class SubInt(int):
    """An int subclass: accepted as a count or year, but not by `type(v) is int`."""


SOURCE_NAMES = [s.value for s in corpus.Source]


def _insert(mapping: dict, position: int, key, value) -> dict:
    """mapping with key: value inserted at position (key order matters)."""
    items = [(k, v) for k, v in mapping.items() if k != key]
    items.insert(min(position, len(items)), (key, value))
    return dict(items)


def _count_key(draw, pub_year):
    year = draw(st.integers(1890, 2110))
    return draw(st.sampled_from([
        str(year), str(pub_year), str(draw(st.integers(pub_year, YEAR_MAX))),
        f" {year}", f"{year} ", f"0{year}", f"+{year}", f"{year}"[:2] + "_"
        + f"{year}"[2:], f"{year}.0", "", "1899", "2101", "abc", "٢٠١٦",
        year, SubInt(year),
    ]))


def _count_value(draw):
    return draw(st.one_of(
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(max_value=-1),
        st.none(),
        st.text(max_size=3),
        st.integers(0, 10 ** 20),
        st.integers(0, 100).map(SubInt),
    ))


def mutate_count_key(draw, raw):
    counts = raw["counts"]
    position = draw(st.integers(0, len(counts)))
    value = draw(st.integers(0, 50))
    return {**raw, "counts": _insert(counts, position,
                                     _count_key(draw, raw["year"]), value)}


def mutate_count_value(draw, raw):
    counts = raw["counts"]
    key = str(draw(st.integers(raw["year"], YEAR_MAX)))
    position = draw(st.integers(0, len(counts)))
    return {**raw, "counts": _insert(counts, position, key, _count_value(draw))}


def mutate_count_entry(draw, raw):
    """A bad key and a bad value in one entry: the checks' order decides."""
    counts = raw["counts"]
    position = draw(st.integers(0, len(counts)))
    return {**raw, "counts": _insert(counts, position,
                                     _count_key(draw, raw["year"]),
                                     _count_value(draw))}


def mutate_year(draw, raw):
    year = draw(st.one_of(
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([float(raw["year"]), YEAR_MIN - 1, YEAR_MAX + 1, -5,
                         None, str(raw["year"]), SubInt(raw["year"])]),
        st.integers(),
    ))
    return {**raw, "year": year}


def mutate_source(draw, raw):
    name = draw(st.sampled_from(SOURCE_NAMES))
    flips = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    case_variant = "".join(c.swapcase() if f else c for c, f in zip(name, flips))
    source = draw(st.sampled_from([
        case_variant, draw(st.text(max_size=6)), 1, None, True, ["ACL"],
        {"ACL": 1}, 2.5, "", " ACL", "ACL ", "arxiv", "PUBMED",
        corpus.Source.ACL]))
    return {**raw, "source": source}


def mutate_id(draw, raw):
    return {**raw, "id": draw(st.sampled_from(["", 0, 17, None, ["p1"], 1.5,
                                               True]))}


def mutate_venue(draw, raw):
    return {**raw, "venue": draw(st.sampled_from([0, None, ["V"], 2.5, False,
                                                  {"v": 1}]))}


def mutate_keys(draw, raw):
    raw = dict(raw)
    for key in draw(st.lists(st.sampled_from(sorted(CORPUS_KEYS)), unique=True)):
        del raw[key]
    for key in draw(st.lists(st.sampled_from(["extra", "Year", "ID", "notes",
                                              "count"]), unique=True)):
        raw[key] = draw(st.integers(0, 3))
    return raw


def mutate_counts_field(draw, raw):
    return {**raw, "counts": draw(st.sampled_from([[], None, "2016", 3,
                                                   [["2016", 1]]]))}


def not_a_dict(draw, raw):
    return draw(st.sampled_from([[raw], "record", 7, None, 1.5, True,
                                 list(raw.items())]))


def unchanged(draw, raw):
    return raw


FIELD_MUTATIONS = [mutate_count_key, mutate_count_value, mutate_count_entry,
                   mutate_year, mutate_source, mutate_id, mutate_venue,
                   mutate_counts_field, mutate_keys]


def two_fields(draw, raw):
    """Two fields mutated at once: the order of the field checks decides."""
    first, second = draw(st.lists(st.sampled_from(FIELD_MUTATIONS[:-1]),
                                  min_size=2, max_size=2, unique=True))
    merged, other = first(draw, raw), second(draw, raw)
    merged.update((key, other[key]) for key in CORPUS_KEYS
                  if other[key] is not raw[key])
    return mutate_keys(draw, merged) if draw(st.booleans()) else merged


# two in five records get one field mutated, two in five two fields
MUTATIONS = st.one_of(st.sampled_from(FIELD_MUTATIONS), st.just(two_fields),
                      st.sampled_from(FIELD_MUTATIONS), st.just(two_fields),
                      st.sampled_from([not_a_dict, unchanged]))


@st.composite
def valid_raw(draw):
    pub_year = draw(st.integers(YEAR_MIN, YEAR_MAX))
    years = draw(st.lists(st.integers(pub_year, YEAR_MAX), max_size=6,
                          unique=True))
    return {
        "id": draw(st.text(min_size=1, max_size=6)),
        "source": draw(st.sampled_from(SOURCE_NAMES)),
        "venue": draw(st.text(max_size=6)),
        "year": pub_year,
        "counts": {str(y): draw(st.integers(0, 10 ** 6)) for y in years},
    }


@st.composite
def mutated_raw(draw):
    raw = draw(valid_raw())
    return draw(MUTATIONS)(draw, raw)


def outcome(validate, raw, line, strict):
    """("ok", record, value types) or ("error", class, message, line)."""
    try:
        record = validate(raw, line=line, strict=strict)
    except Exception as exc:  # the oracle may raise non-corpus errors too
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("ok", record, type(record.pub_year), list(record.counts.items()),
            [type(v) for v in record.counts.values()])


@given(raw=mutated_raw(), line=st.one_of(st.none(), st.integers(1, 10 ** 6)),
       strict=st.booleans())
@settings(max_examples=1000, deadline=None)
def test_validate_record_matches_full_checks(raw, line, strict):
    assert outcome(validate_record, raw, line, strict) == \
        outcome(oracle_validate_record, raw, line, strict)


@pytest.mark.parametrize("raw,strict,error,message", [
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {" 2016": 1, "02017": 2}}, True, None, None),
    ({"id": "p", "source": "acl", "venue": "V", "year": 2016,
      "counts": {"2015": 1}}, True, CitationBeforePublication,
     "line 7: counts[2015] precedes publication year 2016"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": True,
      "counts": {}}, True, ParseError,
     "line 7: field 'year' must be an integer, got True"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {"2017": True}}, True, NegativeCount,
     "line 7: counts[2017] must be a non-negative integer, got True"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {"2_017": 1, "+2018": 2}}, True, None, None),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {"2017": 1, "1_899": 1}}, True, ParseError,
     "line 7: counts key '1_899' (1899) outside [1900, 2100]"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {"2017.0": 1}}, True, ParseError,
     "line 7: counts key '2017.0' is not a year"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {}, "x": 1}, True, ParseError, "line 7: unknown key(s): ['x']"),
    ({"id": "p", "source": "ACL", "venue": "V", "year": 2016,
      "counts": {}, "x": 1}, False, None, None),
])
def test_named_cases(raw, strict, error, message):
    """A few cases pinned by hand, next to the generated ones."""
    assert outcome(validate_record, raw, 7, strict) == \
        outcome(oracle_validate_record, raw, 7, strict)
    if error is None:
        validate_record(raw, line=7, strict=strict)
    else:
        with pytest.raises(error) as info:
            validate_record(raw, line=7, strict=strict)
        assert str(info.value) == message


def _oracle_error(raw, strict):
    """The oracle's (class, message) for a record after a JSON round trip,
    or None if the oracle accepts it."""
    try:
        oracle_validate_record(json.loads(json.dumps(raw)), line=0,
                               strict=strict)
    except CorpusError as exc:
        return type(exc), str(exc).removeprefix("line 0: ")
    return None


@st.composite
def corpus_with_bad_line(draw):
    """(file text, strict, line of the first bad record, its error class,
    its message without the line prefix)."""
    strict = draw(st.booleans())
    lines, ids = [], []
    for raw in draw(st.lists(valid_raw(), max_size=8,
                             unique_by=lambda r: r["id"])):
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(json.dumps(raw))
        ids.append(raw["id"])
    kind = draw(st.sampled_from(["torn", "duplicate", "invalid"]))
    if kind == "torn":
        lines.append('{"id": "torn", "counts": {"20')
        error = ParseError, "invalid JSON: Unterminated string starting at"
    elif kind == "duplicate" and ids:
        duplicate = draw(st.sampled_from(ids))
        lines.append(json.dumps({**draw(valid_raw()), "id": duplicate}))
        error = DuplicateId, f"duplicate id {duplicate!r}"
    else:
        raw = draw(mutated_raw().filter(
            lambda r: _oracle_error(r, strict) is not None))
        lines.append(json.dumps(raw))
        error = _oracle_error(raw, strict)
    bad_at = len(lines)
    # whatever follows the first bad line is never read
    lines.extend(draw(st.lists(st.sampled_from(
        ["", "not json", '{"id": "x"}', lines[-1]]), max_size=3)))
    return "\n".join(lines) + "\n", strict, bad_at, error


@given(case=corpus_with_bad_line())
@settings(max_examples=150, deadline=None)
def test_load_corpus_reports_first_bad_line(case, tmp_path_factory):
    text, strict, bad_at, (error, message) = case
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        load_corpus(path, strict=strict)
    assert info.value.line == bad_at
    assert str(info.value).startswith(f"line {bad_at}: {message}")
