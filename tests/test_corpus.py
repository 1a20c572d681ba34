import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegauge import errors
from citegauge.corpus import (
    PaperRecord,
    Source,
    filter_cohort,
    json_bytes,
    json_value,
    load_cohort,
    load_corpus,
    read_journal,
    record_to_json,
    validate_record,
    write_corpus,
)

from conftest import UNDECODABLE, make_record


def raw_record(**overrides):
    raw = {"id": "1380793", "source": "ACL", "venue": "EMNLP", "year": 2016,
           "counts": {"2016": 0, "2017": 2, "2018": 16, "2019": 19,
                      "2020": 17, "2021": 19}}
    raw.update(overrides)
    return raw


class TestValidateRecord:
    def test_table1_emnlp_row(self):
        rec = validate_record(raw_record())
        assert rec.id == "1380793"
        assert rec.source is Source.ACL
        assert rec.venue == "EMNLP"
        assert rec.pub_year == 2016
        assert rec.counts[2018] == 16

    def test_empty_counts_is_valid(self):
        rec = validate_record(raw_record(id="x", counts={}))
        assert rec.counts == {}
        assert filter_cohort([rec], 2016).counts_in(2019).tolist() == [0]

    def test_citation_before_publication(self):
        with pytest.raises(errors.CitationBeforePublication):
            validate_record(raw_record(id="y", counts={"2015": 1}))

    def test_missing_field_names_it(self):
        raw = raw_record()
        del raw["venue"]
        with pytest.raises(errors.MissingField, match="venue"):
            validate_record(raw, line=7)

    def test_error_carries_line_number(self):
        with pytest.raises(errors.EmptyId, match="line 12"):
            validate_record(raw_record(id=""), line=12)

    def test_negative_count(self):
        with pytest.raises(errors.NegativeCount):
            validate_record(raw_record(counts={"2017": -1}))

    def test_non_integer_count(self):
        with pytest.raises(errors.NegativeCount):
            validate_record(raw_record(counts={"2017": 1.5}))

    def test_unknown_key_rejected_in_strict_mode(self):
        with pytest.raises(errors.ParseError, match="unknown"):
            validate_record(raw_record(extra=1))

    def test_unknown_key_ignored_when_lenient(self):
        rec = validate_record(raw_record(extra=1), strict=False)
        assert rec.id == "1380793"

    def test_year_range_guard(self):
        with pytest.raises(errors.ParseError):
            validate_record(raw_record(year=1666))
        with pytest.raises(errors.ParseError):
            validate_record(raw_record(counts={"2150": 1}))

    def test_unknown_source(self):
        with pytest.raises(errors.ParseError, match="source"):
            validate_record(raw_record(source="Twitter"))


class TestSourceParse:
    @pytest.mark.parametrize("member", list(Source))
    def test_member_passes_through(self, member):
        assert Source.parse(member) is member

    @pytest.mark.parametrize("name", ["ACL", "acl", "ArXiv", "PUBMED", "other"])
    def test_name_any_case(self, name):
        assert Source.parse(name).value.lower() == name.lower()

    @pytest.mark.parametrize("value", ["Twitter", "", " ACL", None, 1])
    def test_unknown(self, value):
        with pytest.raises(ValueError, match="unknown source"):
            Source.parse(value)


class TestLoadCorpus:
    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(raw_record(id="a")) + "\n" +
            json.dumps(raw_record(id="b")) + "\n")
        records = load_corpus(path)
        assert [r.id for r in records] == ["a", "b"]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(raw_record()) + "\n" +
                        json.dumps(raw_record()) + "\n")
        with pytest.raises(errors.DuplicateId, match="line 2"):
            load_corpus(path)

    def test_invalid_json_positions_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(raw_record()) + "\n{oops\n")
        with pytest.raises(errors.ParseError, match="line 2"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")


records_strategy = st.builds(
    PaperRecord,
    id=st.text(min_size=1, max_size=8,
               alphabet=st.characters(min_codepoint=33, max_codepoint=126)),
    source=st.sampled_from(list(Source)),
    venue=st.text(max_size=10),
    pub_year=st.integers(min_value=1990, max_value=2030),
)


@st.composite
def valid_records(draw):
    pub_year = draw(st.integers(min_value=1990, max_value=2030))
    years = draw(st.lists(
        st.integers(min_value=pub_year, max_value=pub_year + 20),
        unique=True, max_size=8))
    counts = {y: draw(st.integers(min_value=0, max_value=10**6)) for y in years}
    return PaperRecord(
        id=draw(st.uuids()).hex,
        source=draw(st.sampled_from(list(Source))),
        venue=draw(st.text(max_size=12)),
        pub_year=pub_year,
        counts=counts,
    )


@given(st.lists(valid_records(), max_size=20,
                unique_by=lambda r: r.id))
@settings(max_examples=50, deadline=None)
def test_write_load_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_corpus(records, path)
    loaded = load_corpus(path)
    assert loaded == records


def test_round_trip_is_count_order_independent(tmp_path):
    a = make_record("a", counts={2018: 2, 2016: 1})
    b = make_record("b", counts={2016: 1, 2018: 2})
    assert record_to_json(a).replace(b'"a"', b'"x"') == \
        record_to_json(b).replace(b'"b"', b'"x"')


def stdlib_line(record):
    """The corpus line of a record as stdlib json writes it, the reference
    for record_to_json."""
    return json.dumps({"id": record.id, "source": record.source.value,
                       "venue": record.venue, "year": record.pub_year,
                       "counts": {str(y): record.counts[y]
                                  for y in sorted(record.counts)}},
                      ensure_ascii=False, separators=(",", ":")
                      ).encode("utf-8")


def test_record_to_json_is_stdlib_json_for_every_code_point(tmp_path):
    """Ids and venues holding each code point but the surrogates, control
    characters, quotes and backslashes among them, 4096 to a record."""
    chunks = ("".join(chr(c) for c in range(start, min(start + 4096, 0x110000))
                      if not 0xD800 <= c <= 0xDFFF)
              for start in range(0, 0x110000, 4096))
    records = [make_record(chunk, venue=chunk[::-1], counts={2017: i})
               for i, chunk in enumerate(chunks)]
    assert [*map(record_to_json, records)] == [*map(stdlib_line, records)]
    write_corpus(records, tmp_path / "c.jsonl")
    assert (tmp_path / "c.jsonl").read_bytes() == b"".join(
        stdlib_line(record) + b"\n" for record in records)
    assert load_corpus(tmp_path / "c.jsonl") == records


@pytest.mark.parametrize("n", [0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                               10 ** 30])
def test_record_to_json_is_stdlib_json_for_large_counts(n):
    """orjson writes ints up to 2**64 - 1; stdlib json writes the line of a
    count past that."""
    record = make_record("a", counts={2018: n, 2016: 1})
    assert record_to_json(record) == stdlib_line(record)
    assert filter_cohort([record], 2016).ids == ("a",)


def test_json_bytes_escapes_a_lone_surrogate():
    """UTF-8 cannot encode a lone surrogate, so it is written as the JSON
    escape that reads back to it; the rest of the text stays UTF-8."""
    value = {"id": "p\ud800", "venue": "Ü\udfff", "n": 2 ** 64}
    assert json_bytes(value) == \
        b'{"id":"p\\ud800","venue":"\xc3\x9c\\udfff","n":18446744073709551616}'
    assert json_value(json_bytes(value).decode("utf-8")) == value


def test_lone_surrogate_record_fails_its_line(tmp_path):
    """A record whose venue holds a lone surrogate is written with its
    escape, a line that the load refuses, naming it."""
    records = [make_record("a"), make_record("b", venue="V\ud800")]
    error = "line 2: field 'venue' holds a lone surrogate"
    with pytest.raises(errors.ParseError, match=error):
        filter_cohort(records, 2016)
    write_corpus(records, tmp_path / "c.jsonl")
    with pytest.raises(errors.ParseError, match=error):
        load_corpus(tmp_path / "c.jsonl")


class TestFilterCohort:
    def test_hand_enumerated_year_match(self):
        records = [
            make_record("a", 2016), make_record("b", 2017),
            make_record("c", 2016), make_record("d", 2018),
            make_record("e", 2016),
        ]
        cohort = filter_cohort(records, 2016)
        assert list(cohort.ids) == ["a", "c", "e"]

    def test_empty_input(self):
        assert len(filter_cohort([], 2016)) == 0

    def test_source_filter(self):
        records = [make_record("a", source=Source.ACL),
                   make_record("b", source=Source.PUBMED)]
        cohort = filter_cohort(records, 2016, {Source.PUBMED})
        assert list(cohort.ids) == ["b"]

    def test_source_partition(self):
        records = [make_record(i, source=s)
                   for i, s in enumerate([Source.ACL, Source.PUBMED,
                                          Source.ARXIV, Source.OTHER] * 3)]
        inside = filter_cohort(records, 2016, {Source.ACL, Source.ARXIV})
        outside = filter_cohort(records, 2016, {Source.PUBMED, Source.OTHER})
        everyone = filter_cohort(records, 2016)
        ids_in = set(inside.ids)
        ids_out = set(outside.ids)
        assert ids_in.isdisjoint(ids_out)
        assert ids_in | ids_out == set(everyone.ids)

    def test_sorted_by_id(self):
        records = [make_record("z"), make_record("a"), make_record("m")]
        cohort = filter_cohort(records, 2016)
        assert list(cohort.ids) == ["a", "m", "z"]

    def test_empty_cohort_has_no_venue(self):
        cohort = filter_cohort([make_record("a", 2017)], 2016)
        assert cohort.venue_names == ()
        assert cohort.venue_codes.tolist() == []
        assert cohort.counts.shape == (0, 0)

    @pytest.mark.parametrize("year", [1899, 2101])
    def test_count_year_outside_corpus_range(self, year):
        """A hand-made record can hold a count year no corpus line may; it
        is refused as that line would be, naming its place among the
        records."""
        records = [make_record("a", counts={2017: 1}),
                   make_record("b", counts={year: 2})]
        with pytest.raises(errors.ParseError) as info:
            filter_cohort(records, 2016)
        assert str(info.value) == (f"line 2: counts key '{year}' {year} "
                                   f"outside [1900, 2100]")


    @pytest.mark.parametrize("record,error,message", [
        (make_record("b", counts={2017: -3}), errors.NegativeCount,
         "counts[2017] must be a non-negative integer, got -3"),
        (make_record("b", counts={2017: True}), errors.NegativeCount,
         "counts[2017] must be a non-negative integer, got True"),
        (make_record("b", counts={2015: 2}), errors.CitationBeforePublication,
         "counts[2015] precedes publication year 2016"),
        (make_record(""), errors.EmptyId,
         "field 'id' must be a non-empty string"),
        (make_record("a"), errors.DuplicateId, "duplicate id 'a'"),
    ], ids=["negative", "bool", "before-publication", "empty-id",
            "duplicate-id"])
    def test_record_no_line_may_hold_is_refused(self, record, error, message):
        records = [make_record("a", counts={2017: 1}), record]
        with pytest.raises(error) as info:
            filter_cohort(records, 2016)
        assert type(info.value) is error
        assert str(info.value) == f"line 2: {message}"


#: Changes to one record that no corpus line may hold, but a PaperRecord
#: can.
RECORD_FAULTS = {
    "negative": lambda r, rng: replace(
        r, counts={**r.counts, r.pub_year + 1: -rng.randint(1, 9)}),
    "bool": lambda r, rng: replace(
        r, counts={**r.counts, r.pub_year + 2: rng.choice([True, False])}),
    "before publication": lambda r, rng: replace(
        r, counts={**r.counts, r.pub_year - 1: 2}),
    "empty id": lambda r, rng: replace(r, id=""),
    "year 1899": lambda r, rng: replace(r, counts={**r.counts, 1899: 2}),
    "year 2101": lambda r, rng: replace(r, counts={**r.counts, 2101: 2}),
}


def seeded_records(rng):
    """Up to 600 records over three publication years, four sources and a
    few venues, with a rare count past int64, and up to two of the faults
    of RECORD_FAULTS or a repeated id, each at a random place."""
    records = [make_record(
        f"p{i:04d}", pub_year, source=rng.choice(list(Source)),
        venue=rng.choice(["A", "B", "C", ""]),
        counts={year: 2 ** 63 if rng.random() < 1 / 300 else rng.randint(0, 40)
                for year in rng.sample(range(pub_year, pub_year + 8),
                                       rng.randint(0, 5))})
        for i, pub_year in enumerate(rng.choices([2015, 2016, 2017],
                                                 k=rng.randint(0, 600)))]
    rng.shuffle(records)
    for fault in rng.sample([*RECORD_FAULTS, "repeated id"], rng.randint(0, 2)):
        if not records:
            break
        at = rng.randrange(len(records))
        records[at] = (replace(records[at], id=rng.choice(records).id)
                       if fault == "repeated id"
                       else RECORD_FAULTS[fault](records[at], rng))
    return records


def cohort_outcome(fn, *args):
    """The columns of the Cohort fn returns, or its error's class, message
    and line."""
    try:
        cohort = fn(*args)
    except errors.CorpusError as exc:
        return type(exc), str(exc), exc.line
    return (cohort.ids, cohort.venue_codes.tolist(), cohort.venue_names,
            cohort.years, cohort.counts.tolist(), cohort.overflow_years)


@pytest.mark.parametrize("seed", range(40))
def test_filter_cohort_is_the_load_of_the_written_lines(seed, tmp_path):
    """filter_cohort(records) is load_cohort of the file write_corpus
    writes from them, for any year and sources, the error included."""
    rng = random.Random(seed)
    records = seeded_records(rng)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    for _ in range(3):
        pub_year = rng.choice([2015, 2016, 2017, 2018])
        sources = rng.choice([None, set(rng.sample(list(Source),
                                                   rng.randint(0, 4)))])
        assert cohort_outcome(filter_cohort, records, pub_year, sources) \
            == cohort_outcome(load_cohort, path, pub_year, sources)


def test_seeded_records_hold_every_outcome():
    """Across the seeds, each error comes out, and so do a cohort and a
    cohort with a count past int64."""
    kinds = set()
    for seed in range(40):
        records = seeded_records(random.Random(seed))
        for pub_year in [2015, 2016, 2017]:
            outcome = cohort_outcome(filter_cohort, records, pub_year)
            kinds.add(outcome[0] if isinstance(outcome[0], type)
                      else "overflow" if outcome[-1] else "cohort")
    assert kinds == {"cohort", "overflow", errors.NegativeCount,
                     errors.CitationBeforePublication, errors.EmptyId,
                     errors.DuplicateId, errors.ParseError}


class TestReadJournal:
    LINES = [b'{"kind": "a"}', b'{"kind": "b"}', '{"kind": "\u00e9"}'.encode()]
    NEW = b'{"kind": "new"}'

    def test_every_cut_then_an_append(self, tmp_path):
        """Cut at every byte, the last line's two-byte character included:
        complete lines count, an unterminated tail counts only if it is a
        whole line, and an append after read_journal's advice leaves the
        lines that counted plus the new one."""
        path = tmp_path / "journal.jsonl"
        data = b"".join(line + b"\n" for line in self.LINES)
        kinds = set()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            start = data.rfind(b"\n", 0, cut) + 1   # where the tail begins
            complete, tail = data[:start].split(b"\n")[:-1], data[start:cut]
            if not tail:
                expected = complete, None, b""
            elif tail in self.LINES:
                expected = [*complete, tail], None, b"\n"
            else:
                expected = complete, start, b""
            kinds.add((expected[1] is None, expected[2]))
            lines, torn_at, lead = read_journal(path)
            assert (lines, torn_at, lead) == expected, cut
            with open(path, "ab") as handle:
                if torn_at is not None:
                    handle.truncate(torn_at)
                handle.write(lead + self.NEW + b"\n")
            assert read_journal(path) == ([*lines, self.NEW], None, b""), cut
        assert len(kinds) == 3

    @pytest.mark.parametrize("tail", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_undecodable_tail_is_torn(self, tail, tmp_path):
        """An unterminated last line that fails to decode in any way is a
        torn append, not an error."""
        path = tmp_path / "journal.jsonl"
        path.write_bytes(self.LINES[0] + b"\n" + tail.encode())
        assert read_journal(path) == ([self.LINES[0]], len(self.LINES[0]) + 1,
                                      b"")

    def test_a_tail_that_repeats_a_key_counts(self, tmp_path):
        """The tail test is JSON syntax only: a whole last line that repeats
        a key counts, for its reader to refuse, and is not cut away."""
        path = tmp_path / "journal.jsonl"
        path.write_bytes(self.LINES[0] + b'\n{"a": 1, "a": 2}')
        assert read_journal(path) == ([self.LINES[0], b'{"a": 1, "a": 2}'],
                                      None, b"\n")

    def test_blank_lines_count_and_a_blank_tail_is_neither(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": 2}\n  ')
        assert read_journal(path) == ([b'{"a": 1}', b"", b'{"b": 2}'], None,
                                      b"")
