"""Differential test of corpus.load_cohort against the per-record path it
replaced on the report path.

The oracle is that path as it was, plus one refusal: every line through
json.loads, with a hook that refuses a key repeated in any object of the
line, and the full-check validator into a PaperRecord
(tests/test_corpus_validate.py keeps that validator verbatim), duplicate
ids rejected, venues rewritten through the alias map, and the cohort a
tuple of records sorted by id whose counts_in built each year's vector
paper by paper.  Seeded random corpora mix source subsets, --lenient extra
keys, aliases, odd but valid count keys and counts past int64, with each
kind of bad line (two count keys naming one year among them) placed
before, inside and after the cohort's lines.  The loader under test must
give equal columns, or raise the same exception class with the same
message and line.
"""

import functools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import citegauge
from citegauge import corpus
from citegauge.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main
from citegauge.corpus import (
    YEAR_MAX,
    YEAR_MIN,
    PaperRecord,
    Source,
    filter_cohort,
    load_cohort,
    load_corpus,
    validate_record,
)
from citegauge.errors import DuplicateId, ParseError

from conftest import venues_of
from test_corpus_validate import oracle_validate_record

PUB_YEAR = 2016


# --- oracle: load_corpus, the alias rewrite, filter_cohort on records ---------

def oracle_cohort(path, pub_year, sources=None, strict=True, aliases=None):
    """(pub_year, records of the cohort sorted by id)."""
    records, seen = [], set()
    with open(path, encoding="utf-8") as handle:
        for line_num, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line,
                                 object_pairs_hook=oracle_unique_keys(line_num))
            except (ValueError, RecursionError) as exc:
                message = exc.msg if isinstance(exc, json.JSONDecodeError) \
                    else str(exc)
                raise ParseError(f"invalid JSON: {message}", line=line_num) from None
            record = oracle_validate_record(raw, line=line_num, strict=strict)
            if record.id in seen:
                raise DuplicateId(f"duplicate id {record.id!r}", line=line_num)
            seen.add(record.id)
            records.append(record)
    if aliases:
        records = [PaperRecord(r.id, r.source, aliases.get(r.venue, r.venue),
                               r.pub_year, r.counts) for r in records]
    source_set = frozenset(sources) if sources is not None else frozenset(Source)
    return pub_year, tuple(sorted(
        (r for r in records if r.pub_year == pub_year and r.source in source_set),
        key=lambda r: r.id))


def oracle_unique_keys(line_num):
    """A pairs hook that refuses the first key an object repeats."""
    def hook(pairs):
        keys = [key for key, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ParseError(f"repeated key {key!r}", line=line_num)
        return dict(pairs)
    return hook


def oracle_counts_in(papers, year):
    try:
        return np.array([p.counts.get(year, 0) for p in papers], dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a citation count in {year} does not fit in "
                         f"64 bits") from None


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


YEARS = range(PUB_YEAR - 1, PUB_YEAR + 13)   # past every count year


def columns(cohort):
    """A Cohort's columns, every year read through counts_in."""
    return (cohort.pub_year, cohort.ids, venues_of(cohort),
            [outcome(lambda y=y: cohort.counts_in(y).tolist()) for y in YEARS])


def oracle_columns(pub_year, papers):
    return (pub_year, tuple(p.id for p in papers),
            tuple(p.venue for p in papers),
            [outcome(lambda y=y: oracle_counts_in(papers, y).tolist())
             for y in YEARS])


# --- seeded corpora ------------------------------------------------------------

VENUES = ["A", "B", "C", "misc", ""]
ODD_KEYS = [" {}", "{} ", "0{}", "+{}", "{}\t"]


def counts_of(rng, pub_year, odd_keys, overflow=False):
    """A counts object, each key in an odd form at the rate odd_keys."""
    counts = {}
    for year in rng.sample(range(pub_year, pub_year + 12), rng.randint(0, 8)):
        key = str(year)
        if rng.random() < odd_keys:
            key = rng.choice(ODD_KEYS).format(year)
        counts[key] = rng.choice([0, 1, rng.randint(2, 500)])
    if overflow and counts:
        counts[rng.choice(list(counts))] = rng.choice([2 ** 63, 2 ** 64 + 5])
    return counts


def record_line(rng, i, pub_year, lenient, rates):
    """One corpus line; rates are those of odd count keys, of a list under
    an extra key (lenient only) and of a count past int64."""
    odd_keys, extra, overflow = rates
    raw = {"id": f"p{rng.randint(0, 10 ** 6):07d}-{i}",
           "source": rng.choice(["ACL", "ArXiv", "PubMed", "Other", "acl"]),
           "venue": rng.choice(VENUES),
           "year": pub_year,
           "counts": counts_of(rng, pub_year, odd_keys,
                               overflow=rng.random() < overflow)}
    if lenient and rng.random() < extra:
        raw["extra"] = [1, 2]
    items = list(raw.items())
    rng.shuffle(items)
    return json.dumps(dict(items))


def bad_lines(rng, first_id, year):
    """Each kind of bad line of a paper published in year, by name;
    "duplicate" repeats the first id."""
    valid = json.dumps({"id": "x-bad", "source": "ACL", "venue": "A",
                        "year": year, "counts": {str(year + 1): 1}})
    return {
        "bad json": '{"id": "x-bad", "source": }',
        "missing field": json.dumps({"id": "x-bad", "source": "ACL",
                                     "year": year, "counts": {}}),
        "negative count": valid.replace(": 1}", ": -4}"),
        "before publication": valid.replace(f'"{year + 1}"', f'"{year - 1}"'),
        "year named twice": valid.replace(": 1}", f': 1, " {year + 1}": 2}}'),
        "duplicate": json.dumps({"id": first_id, "source": "ACL", "venue": "A",
                                 "year": year, "counts": {}}),
        "torn line": valid[:rng.randint(1, len(valid) - 1)],
    }


BAD_KINDS = list(bad_lines(random.Random(0), "p", PUB_YEAR))
#: The publication year of a bad line in each place: outside the cohort
#: before and after its lines.
BAD_YEAR = {"before": PUB_YEAR - 1, "inside": PUB_YEAR, "after": PUB_YEAR + 1}


def seeded_corpus(seed, path, bad=None, where=None):
    """A corpus whose cohort (PUB_YEAR) lines sit between two blocks of
    other publication years; returns the load arguments."""
    rng = random.Random(seed)
    lenient = rng.random() < 0.4
    # each rate is drawn per corpus, so that some corpora hold no line that
    # the block accept test refuses and load without a replay
    rates = (rng.choice([0, 0.1]), rng.choice([0, 0.3]),
             rng.choice([0, 0.03]))
    before = [record_line(rng, i, rng.choice([2014, 2015, 2017]), lenient,
                          rates) for i in range(rng.randint(1, 15))]
    inside = [record_line(rng, 100 + i, PUB_YEAR, lenient, rates)
              for i in range(rng.randint(2, 40))]
    after = [record_line(rng, 200 + i, rng.choice([2015, 2017, 2018]),
                         lenient, rates) for i in range(rng.randint(1, 15))]
    if bad is not None:
        line = bad_lines(rng, json.loads(before[0])["id"], BAD_YEAR[where])[bad]
        block = {"before": before, "inside": inside, "after": after}[where]
        # "after" puts the line last: a torn last line, say
        block.insert(len(block) if where == "after"
                     else rng.randint(1, len(block)), line)
    path.write_text("\n".join(before + inside + after) + "\n", encoding="utf-8")
    sources = rng.choice([None, {Source.ACL}, {Source.ARXIV, Source.PUBMED},
                          set(Source)])
    aliases = rng.choice([None, {}, {"A": "B"}, {"misc": "A", "": "C",
                                                 "Z": "A"}])
    return dict(sources=sources, strict=not lenient, aliases=aliases)


def new_columns(path, **kwargs):
    return columns(load_cohort(path, PUB_YEAR, **kwargs))


def via_records(path, sources, strict, aliases):
    """load_corpus and filter_cohort, the records -> columns helper."""
    records = [replace(r, venue=(aliases or {}).get(r.venue, r.venue))
               for r in load_corpus(path, strict=strict)]
    return columns(filter_cohort(records, PUB_YEAR, sources))


def old_columns(path, **kwargs):
    return oracle_columns(*oracle_cohort(path, PUB_YEAR, **kwargs))


@pytest.mark.parametrize("seed", range(60))
def test_cohort_matches_per_record_path(seed, tmp_path):
    path = tmp_path / "c.jsonl"
    kwargs = seeded_corpus(seed, path)
    expected = outcome(old_columns, path, **kwargs)
    assert outcome(new_columns, path, **kwargs) == expected
    assert outcome(via_records, path, **kwargs) == expected


def test_some_seeded_corpora_load_without_a_replay(tmp_path, monkeypatch):
    """The seeded corpora reach the block accept path: without a corpus
    that loads with no replay, a fault in the block test would pass the
    differential test above."""
    clean = 0
    for seed in range(60):
        path = tmp_path / f"c{seed}.jsonl"
        kwargs = seeded_corpus(seed, path)
        with monkeypatch.context() as patch:
            clean += slow_path_calls(patch, path, kwargs["strict"])[2] == 0
    assert clean >= 12


@pytest.mark.parametrize("where", ["before", "inside", "after"])
@pytest.mark.parametrize("bad", BAD_KINDS)
def test_bad_line_fails_as_per_record_path(bad, where, tmp_path):
    for seed in range(5):
        path = tmp_path / f"c{seed}.jsonl"
        kwargs = seeded_corpus(1000 + seed, path, bad, where)
        expected = outcome(old_columns, path, **kwargs)
        assert expected[0] == "error"
        assert outcome(new_columns, path, **kwargs) == expected


@pytest.mark.parametrize("json_at,utf8_at,message", [
    (3, 5, "line 3: invalid JSON: Expecting value"),
    (5, 3, "line 3: byte 0xff is not UTF-8"),
    (None, 400, "line 400: byte 0xe2 is not UTF-8"),
], ids=["json-first", "utf8-first", "utf8-past-first-chunk"])
def test_first_bad_line_in_line_order_whether_json_or_utf8(
        json_at, utf8_at, message, tmp_path):
    """A line that is not UTF-8 fails in line order with the lines around
    it, also inside one read chunk; valid non-ASCII lines load."""
    lines = [json.dumps({"id": f"p{i:03d}", "source": "ACL", "venue": "Ünï",
                         "year": PUB_YEAR, "counts": {}},
                        ensure_ascii=i % 2 == 0).encode("utf-8")
             for i in range(1, 501)]
    if json_at:
        lines[json_at - 1] = b'{"id": }'
    # 0xe2 opens a three-byte sequence that the next byte does not continue
    lines[utf8_at - 1] = (b'{"id": "\xff"}' if utf8_at < 100
                          else b'{"venue": "\xe2\x82"}')
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError) as info:
        load_cohort(path, PUB_YEAR)
    assert str(info.value) == message
    path.write_bytes(b"\n".join(lines[:min(json_at or 500, utf8_at) - 1]))
    assert len(load_cohort(path, PUB_YEAR)) == min(json_at or 500, utf8_at) - 1


# --- line text: the accept test against the oracle ------------------------------

#: JSON texts of a count value that the accept test must refuse: negative
#: ints, one below int64 among them, each type the decoder can give that is
#: not an int, and the constants and overflowing number that only stdlib
#: json reads.
BAD_COUNT_TEXTS = ["-1", "-12", str(-2 ** 63 - 1), "true", "false", "1.0",
                   "2.5", "1e1", "null", '"4"', "[]", "{}", "NaN",
                   "Infinity", "-Infinity", "1e400"]
#: Valid ones: "-0", and values past int64, past uint64 and past a
#: double's exact integers, which orjson may give as a float or refuse.
COUNT_TEXTS = ["0", "1", "17", "-0",
               str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(10 ** 30)]
#: JSON texts of the value of a key outside the corpus keys: scalars, which
#: a lenient load accepts on the fast path, some of which only stdlib json
#: reads, and a list and objects, one of which repeats a key.
EXTRA_TEXTS = ["-1", '"a:b"', "null", "true", "2.5", str(10 ** 30), "NaN",
               "1e400", "[1]", "{}", '{"k":1,"k":2}']


def rarely(common, rare, weight=4):
    """A strategy drawing each of common weight times as often as each of
    rare."""
    return st.sampled_from([*common * weight, *rare])


@st.composite
def corpus_line(draw):
    """One corpus line as text, valid or with one field broken, one key
    repeated or an extra key: count years at and around its publication year and at the
    corpus range's ends, "-" and ":" (sometimes escaped) in ids and venues
    or not, compact or spaced, in either key order."""
    pub_year = draw(rarely([PUB_YEAR, PUB_YEAR + 1],
                           [1900, 2100, 1899, 2101], 8))
    years = draw(st.lists(rarely(
        [pub_year, pub_year + 1, pub_year + 7, 2100],
        [pub_year - 1, 1900, 2101], 8), max_size=5, unique=True))
    keys = [draw(rarely(["{}"], [" {}", "0{}"], 12)).format(y)
            for y in years]
    values = [draw(rarely(COUNT_TEXTS[:5], COUNT_TEXTS[5:], 6)) for _ in keys]
    bad = draw(rarely([None], BAD_COUNT_TEXTS, 30))
    if bad is not None and values:
        values[draw(st.integers(0, len(values) - 1))] = bad
    repeat = draw(rarely([None], ["member", "count"], 30))
    if repeat == "count" and keys:
        keys.append(draw(st.sampled_from(keys)))
        values.append(draw(st.sampled_from(COUNT_TEXTS[:4])))
    comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    paper_id = json.dumps(draw(st.text("ab-:", min_size=1, max_size=4)))
    if draw(rarely([False], [True], 6)):
        paper_id = paper_id.replace(":", "\\u003a")
    members = {
        "id": paper_id,
        "source": json.dumps(draw(rarely(["ACL", "arxiv", "PubMed", "Other"],
                                         ["Twitter"]))),
        "venue": json.dumps(draw(st.text("V-:", max_size=2))),
        "year": str(pub_year),
        "counts": "{" + comma.join(f"{json.dumps(k)}{colon}{v}"
                                   for k, v in zip(keys, values)) + "}",
    }
    broken = draw(rarely([None], [*members], 30))
    if broken is not None:
        members[broken] = draw(st.sampled_from(
            [None, '""', "1", "-3", "true", '"2016"', "2016.0", "[]", "{}"]))
    members["note"] = draw(rarely([None], EXTRA_TEXTS, 60))
    items = [(k, v) for k, v in members.items() if v is not None]
    if draw(st.booleans()):
        items.reverse()
    if repeat == "member":
        key = draw(st.sampled_from([k for k, _ in items]))
        value = draw(st.sampled_from([v for _, v in items] + ['"a:b"']))
        items.insert(draw(st.integers(0, len(items))), (key, value))
    return "{" + comma.join(f'"{k}"{colon}{v}' for k, v in items) + "}"


def line_of(counts="{}", **members):
    """A compact corpus line of a 2016 paper whose members are JSON texts;
    members given as keyword arguments replace or follow the defaults."""
    texts = {"id": '"a"', "source": '"ACL"', "venue": '"V"', "year": "2016",
             "counts": counts, **members}
    return "{" + ",".join(f'"{k}":{v}' for k, v in texts.items()) + "}"


#: (lines, strict) of each edge case of the two decoders and the repeated
#: key certificate: counts past int64, past uint64 and below int64, escapes
#: stdlib json reads and orjson refuses or reads alike, a raw U+2028, a
#: BOM, the constants and 1e400, nesting past the recursion limit under an
#: unknown key, scalars under an unknown key that only stdlib json reads or
#: reads alike, and repeated keys at the top level, in counts and under an
#: unknown key, one whose first value holds a colon and one whose id spells
#: its colon as an escape.
EDGE_CASES = [
    ([line_of('{"2016":%d,"2017":%d}' % (2 ** 63, 2 ** 64 - 1))], True),
    ([line_of('{"2016":%d,"2023":%d}' % (2 ** 64, 10 ** 30))], True),
    ([line_of('{"2016":%d}' % (-2 ** 63 - 1))], True),
    ([line_of(id=r'"\ud800"'), line_of(id='"b"', venue=r'"\u0000"')], True),
    ([line_of(id='"a\u2028b"', venue='"V\u2028"')], True),
    (["\ufeff" + line_of()], True),
    ([line_of('{"2016":NaN}')], True),
    ([line_of('{"2016":Infinity}')], True),
    ([line_of('{"2016":1e400}')], True),
    ([line_of(note="[" * 100_000 + "]" * 100_000)], False),
    ([line_of(note="[" * 1_000 + "]" * 1_000)], False),
    ([line_of(note="1e400"), line_of(id='"b"', note=str(10 ** 30))], False),
    ([line_of(note='"x"', tag="null")], False),
    ([line_of(note='"x"')], True),
    ([line_of(note='{"k":1,"k":2}')], False),
    (['{"note":1,"id":"a","source":"ACL","venue":"V","year":2016,'
      '"counts":{},"note":2}'], False),
    (['{"id":"a","id":"b","source":"ACL","venue":"V","year":2016,'
      '"counts":{}}'], True),
    ([line_of('{"2016":3,"2016":5}')], True),
    (['{"id":"x:y","id":"arXiv:1","source":"ACL","venue":"V","year":2016,'
      '"counts":{}}'], True),
    ([r'{"id":"\u003a","venue":"V","venue":"W","source":"ACL",'
      r'"year":2016,"counts":{}}'], True),
]


def with_edge_cases(test):
    for lines, strict in reversed(EDGE_CASES):
        test = example(lines=lines, strict=strict)(test)
    return test


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(corpus_line(), min_size=1, max_size=3),
       strict=st.booleans())
# a negative count on an otherwise valid line, with and without another "-"
@example(lines=['{"id":"a","source":"ACL","venue":"V","year":2016,'
                '"counts":{"2016":2,"2017":-1}}'], strict=True)
@example(lines=['{"id": "a-b", "source": "ACL", "venue": "V-", "year": 2017, '
                '"counts": {"2017": -0, "2100": -12}}'], strict=True)
@with_edge_cases
def test_line_text_loads_as_per_record_path(lines, strict, tmp_path):
    """The orjson decode, the accept test with its one subset test of the
    count keys, the repeated-key certificate and the cohort selected in the
    line loop give the oracle's outcome."""
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome(new_columns, path, strict=strict) == \
        outcome(old_columns, path, strict=strict)


# --- the count values' re-encode certificate -----------------------------------

#: A value nested deeper than orjson encodes, and not as deep as it decodes.
DEEP = functools.reduce(lambda inner, _: [inner], range(300), [])
DEEP_TEXT = json.dumps(DEEP)

#: JSON texts of a value nested in lists and objects, count texts at the leaves.
nested_texts = st.recursive(
    st.sampled_from(COUNT_TEXTS + BAD_COUNT_TEXTS),
    lambda inner: st.lists(inner, max_size=3).map(
        lambda texts: "[" + ",".join(texts) + "]")
    | st.lists(inner, max_size=3).map(lambda texts: "{" + ",".join(
        f'"{i}":{text}' for i, text in enumerate(texts)) + "}"),
    max_leaves=6)


@settings(max_examples=500, deadline=None)
@given(texts=st.lists(st.one_of(st.sampled_from(COUNT_TEXTS),
                                st.sampled_from(BAD_COUNT_TEXTS),
                                nested_texts), max_size=8))
@example(texts=[])
@example(texts=["-0", "0"])
@example(texts=[str(2 ** 64 - 1), str(2 ** 64)])
@example(texts=["1", DEEP_TEXT])
@example(texts=['"1"', '"1,2"', "[1,2]"])
def test_count_value_certificate_is_the_type_test(texts):
    """For every list that orjson decodes, the re-encode proves all of it
    non-negative ints exactly when each value is an int, not a bool, and
    not negative."""
    try:
        values = orjson.loads("[" + ",".join(texts) + "]")
    except (ValueError, RecursionError):
        return
    assert corpus._non_negative_ints(values) == all(
        type(v) is int and v >= 0 for v in values)


def test_orjson_gives_a_float_past_its_int_range():
    """The certificate's premise: an integer that orjson would not hold in
    64 bits decodes to a float, which it encodes with "e" or ".", not to an
    int that it could not encode; and its encode refuses some nesting that
    its decode reads."""
    for number in (2 ** 64, -2 ** 63 - 1, 10 ** 30):
        value = orjson.loads(str(number))
        assert type(value) is float
        assert orjson.dumps(value).translate(None, b"-0123456789")
    assert orjson.loads(str(2 ** 64 - 1)) == 2 ** 64 - 1
    assert orjson.loads(str(-2 ** 63)) == -2 ** 63
    assert orjson.loads(DEEP_TEXT) == DEEP
    with pytest.raises(orjson.JSONEncodeError):
        orjson.dumps(DEEP)


# --- block boundaries: the block test and its line-by-line replay ---------------

#: Kinds of line, each a change to a valid line of a 2016 paper, or a
#: function of that line giving the change: kept, dropped, taking the
#: reference path or invalid.  A line cited before publication is a 2017
#: paper's, so that a block test that checked a 2016 line's count keys for
#: it would pass it; a duplicate repeats the id of the line before it.
LINE_KINDS = {
    "valid": {},
    "other year": {"year": PUB_YEAR + 1, "counts": {str(PUB_YEAR + 1): 1}},
    "other source": {"source": "PubMed"},
    "non-ascii": {"venue": "Ünï"},
    "extra scalar": {"note": "x"},
    "extra list": {"tags": ["x"]},
    "odd key": {"counts": {f" {PUB_YEAR}": 3}},
    "colon": {"venue": "CoRR: cs.CL"},
    "arXiv id": lambda raw: {"id": "arXiv:" + raw["id"]},
    "past int64": {"counts": {str(PUB_YEAR + 1): 2 ** 64}},
    "negative": {"counts": {str(PUB_YEAR + 1): -1}},
    "bool count": {"counts": {str(PUB_YEAR + 1): True}},
    "float count": {"counts": {str(PUB_YEAR + 1): 1.0}},
    "null count": {"counts": {str(PUB_YEAR + 1): None}},
    "str count": {"counts": {str(PUB_YEAR + 1): "4"}},
    "list count": {"counts": {str(PUB_YEAR + 1): []}},
    "object count": {"counts": {str(PUB_YEAR + 1): {}}},
    # orjson decodes this nesting but will not encode it
    "deep count": {"counts": {str(PUB_YEAR + 1): DEEP}},
    "before publication": {"year": PUB_YEAR + 1,
                           "counts": {str(PUB_YEAR): 1}},
    "duplicate": {},
    # counts that are not an object, one a list of year keys that a test
    # of their keys alone would take, and years that are not an int
    "counts list": {"counts": [str(PUB_YEAR + 1)]},
    "counts str": {"counts": str(PUB_YEAR + 1)},
    "counts int": {"counts": 7},
    "float year": {"year": float(PUB_YEAR)},
    "bool year": {"year": True},
}
#: Kinds of line given as their bytes.
TEXT_KINDS = {"blank": b"  ", "bad json": b'{"id": "x", "source": }',
              "not utf-8": b'{"id": "\xff"}',
              "lone surrogate": b'{"id": "s", "source": "ACL", '
                                b'"venue": "A\\ud800", "year": 2016, '
                                b'"counts": {}}',
              "repeated key": b'{"id": "x", "source": "ACL", "venue": "V", '
                              b'"year": 2016, "counts": {}, "venue": "W"}',
              # lines that are JSON but not an object
              "array line": b'["id", "source", "venue", "year", "counts"]',
              "str line": b'"p"',
              "number line": b"7",
              "missing key": b'{"id": "m", "source": "ACL", "venue": "V", '
                             b'"year": 2016}',
              # the dropped venue's colons and its separator are the text's
              # alone, so the colon certificate's second chance refuses it
              "repeated colons": b'{"id": "r", "source": "ACL", '
                                 b'"venue": "a::b", "year": 2016, '
                                 b'"counts": {}, "venue": "V:"}'}


def kinds_corpus(kinds):
    """The bytes of a corpus whose line i is of kinds[i], with id p<i>."""
    lines = []
    for i, kind in enumerate(kinds):
        raw = {"id": f"p{i - (kind == 'duplicate'):03d}", "source": "ACL",
               "venue": f"V{i % 3}", "year": PUB_YEAR,
               "counts": {str(PUB_YEAR): i, str(PUB_YEAR + 2): 2 * i}}
        if kind in TEXT_KINDS:
            lines.append(TEXT_KINDS[kind])
            continue
        change = LINE_KINDS[kind]
        raw |= change(raw) if callable(change) else change
        lines.append(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    return b"\n".join(lines) + b"\n"


#: Kinds that the block test refuses because a getter or dict.values
#: raises TypeError, or because of the years' type set.
NOT_THE_TYPE = ["array line", "str line", "number line", "counts list",
                "counts str", "counts int", "float year", "bool year"]


def with_one_bad_line_in_a_valid_block(test):
    """An example for each kind of NOT_THE_TYPE as the middle line of a
    block of 3 between blocks of valid lines."""
    for kind in reversed(NOT_THE_TYPE):
        test = example(kinds=["valid"] * 4 + [kind] + ["valid"] * 4,
                       block=3, strict=True)(test)
    return test


def oracle_outcome(path, data, strict, sources=None):
    """The oracle's outcome on the corpus data, which it reads from path,
    with a byte that is not UTF-8 failing its line in line order."""
    lines = data.split(b"\n")
    for line_num, line in enumerate(lines, 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            path.write_bytes(b"\n".join(lines[:line_num - 1]))
            before = outcome(old_columns, path, strict=strict,
                             sources=sources)
            return before if before[0] == "error" else (
                "error", ParseError, f"line {line_num}: byte "
                f"{line[exc.start]:#04x} is not UTF-8")
    path.write_bytes(data)
    return outcome(old_columns, path, strict=strict, sources=sources)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(
           ["valid"] * 40 + [*LINE_KINDS, *TEXT_KINDS] * 2),
           min_size=5, max_size=40),
       block=st.sampled_from([2, 3]), strict=st.booleans())
# a bad line first in a block, and last
@example(kinds=["valid"] * 3 + ["negative"] + ["valid"] * 2, block=3,
         strict=True)
@example(kinds=["valid"] * 2 + ["before publication"] + ["valid"] * 3,
         block=3, strict=True)
# the line counting before its own publication year is not of the block's
# earliest year, and shares its year with a valid line
@example(kinds=["other year", "before publication", "valid", "valid"],
         block=3, strict=True)
@example(kinds=["valid"] * 5 + ["bad json"], block=3, strict=True)
# a duplicate id across a block boundary and inside a block, and before a
# bad line in its block, whether the block decodes or not
@example(kinds=["valid", "valid", "duplicate", "valid", "valid"], block=2,
         strict=True)
@example(kinds=["valid", "duplicate", "valid", "valid", "valid"], block=3,
         strict=True)
@example(kinds=["valid"] * 3 + ["duplicate", "negative", "valid"], block=3,
         strict=True)
@example(kinds=["valid"] * 3 + ["duplicate", "bad json", "valid"], block=3,
         strict=True)
# blank lines, a block of them among them
@example(kinds=["valid", "blank", "valid", "blank", "blank", "valid",
                "valid", "negative", "valid"], block=3, strict=True)
@example(kinds=["valid"] * 3 + ["blank"] * 3 + ["valid", "odd key"],
         block=3, strict=False)
# a byte that is not UTF-8 in a block after a JSON error, and before one
@example(kinds=["valid", "bad json", "valid", "valid", "not utf-8"],
         block=2, strict=True)
@example(kinds=["valid", "not utf-8", "valid", "bad json", "valid"],
         block=2, strict=True)
# a repeated key, a count past int64, and lines the replay accepts
@example(kinds=["valid"] * 4 + ["repeated key"], block=2, strict=True)
@example(kinds=["valid", "past int64", "valid", "colon", "valid"], block=3,
         strict=True)
@example(kinds=["extra scalar", "valid", "extra list", "other year",
                "other source", "non-ascii"], block=2, strict=False)
# a line short of a key and one with a key too many hold 5 keys a line
# between them, and the one short of a key fails as the only bad line
@example(kinds=["valid", "valid", "missing key", "extra scalar", "valid"],
         block=2, strict=True)
# colons in ids and venues, on the block path, and a dropped value's
@example(kinds=["arXiv id", "colon", "arXiv id", "valid", "repeated colons",
                "colon"], block=2, strict=True)
# a duplicate inside a block of ids new until then: the block test has put
# them in the ids seen and takes them out again, so that its replay refuses
# the second of the pair, not the first
@example(kinds=["valid", "valid", "valid", "valid", "duplicate", "valid"],
         block=3, strict=True)
@with_one_bad_line_in_a_valid_block
def test_blocks_load_as_per_record_path(kinds, block, strict, tmp_path):
    """With blocks of 2 and 3 lines, every block boundary meets a line of
    each kind: load_cohort, and load_corpus with filter_cohort, give the
    per-record oracle's outcome, with every source kept and with a subset
    that leaves the "other source" lines out."""
    data = kinds_corpus(kinds)
    path = tmp_path / "c.jsonl"
    for sources in (None, {Source.ACL}):
        expected = oracle_outcome(path, data, strict, sources)
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_BLOCK", block)
            assert outcome(new_columns, path, strict=strict,
                           sources=sources) == expected
            assert outcome(via_records, path, sources, strict, None) \
                == expected


@pytest.mark.parametrize("block", [2, 256])
def test_lines_end_with_any_newline(block, tmp_path, monkeypatch):
    """The corpus is read as text with universal newlines: its lines ended
    by "\n", "\r\n" or a bare "\r" give one cohort, and a bad line after
    lines ended by a bare "\r" fails naming its line, as after "\n"."""
    monkeypatch.setattr(corpus, "_BLOCK", block)
    path = tmp_path / "c.jsonl"

    def outcomes(kinds):
        lines = kinds_corpus(kinds).splitlines()
        loaded = []
        for end in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(end.join(lines) + end)
            loaded.append(outcome(lambda: full_columns(
                load_cohort(path, PUB_YEAR))))
        return loaded

    valid = outcomes(["valid", "other year", "colon", "valid", "non-ascii"])
    assert valid[0][0] == "ok" and len(valid[0][1][0][1]) == 4
    assert valid[1] == valid[0] and valid[2] == valid[0]
    bad = outcomes(["valid"] * 3 + ["negative", "valid"])
    assert bad[0][0] == "error" and bad[0][2].startswith("line 4: ")
    assert bad[1] == bad[0] and bad[2] == bad[0]


# --- the benchmark's corpora take the fast path ---------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def slow_path_calls(monkeypatch, path, strict=True):
    """(reference decodes, full checks, replays): how many lines of the
    corpus at path load_cohort decodes with stdlib json and sends through
    the full checks, and how many blocks of lines fail the block's accept
    test and are replayed line by line."""
    decodes, checks, replays = [], [], []

    def counted(calls, fn):
        def call(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(corpus.json, "loads", counted(decodes, json.loads))
    monkeypatch.setattr(corpus, "_full_checks",
                        counted(checks, corpus._full_checks))
    monkeypatch.setattr(corpus, "_replay", counted(replays, corpus._replay))
    load_cohort(path, PUB_YEAR, strict=strict)
    return len(decodes), len(checks), len(replays)


@pytest.mark.parametrize("workload,strict", [
    pytest.param(workload, strict, id=workload + ("" if strict else "-lenient"))
    for workload in ["report-wide", "report-long", "fixture"]
    for strict in [True, False]])
def test_benchmark_corpus_takes_the_fast_path(workload, strict,
                                              fixture_corpus_path,
                                              monkeypatch, tmp_path):
    """A change that sent every valid line to the reference decode or the
    full checks, or every block to the replay, would keep every output and
    lose the load's speed, with or without --lenient; this catches it."""
    path = fixture_corpus_path
    if workload != "fixture":
        monkeypatch.syspath_prepend(str(PERFBENCH))
        try:
            import gen
            gen.generate(workload, 1, str(tmp_path))
        finally:
            sys.modules.pop("gen", None)
        path = tmp_path / "corpus.jsonl"
    assert slow_path_calls(monkeypatch, path, strict) == (0, 0, 0)


def test_lines_with_a_minus_take_the_fast_path(monkeypatch, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(
        {"id": f"arXiv-{i}", "source": "ACL", "venue": "ACL-short",
         "year": PUB_YEAR + i % 2, "counts": {"2017": 3, "2020": i}}) + "\n"
        for i in range(20)).replace('"2020": 0', '"2020": -0'),
        encoding="utf-8")
    assert "-0" in path.read_text(encoding="utf-8")
    assert slow_path_calls(monkeypatch, path) == (0, 0, 0)
    assert len(load_cohort(path, PUB_YEAR)) == 10


@pytest.mark.parametrize("escape,strict,calls", [
    (False, True, (0, 0, 0)), (True, True, (1, 1, 1)),
    (True, False, (1, 1, 1))], ids=["plain", "escaped", "escaped-lenient"])
def test_lines_with_colons_take_the_fast_path(escape, strict, calls,
                                              monkeypatch, tmp_path):
    """A colon in an id or venue is one more than the keys the repeated-key
    certificate counts.  On a block with no backslash the certificate also
    counts the decoded ids' and venues' colons, so such lines load without
    a replay.  A backslash, which may spell a colon as an escape, sends the
    block to the replay, which gives each line the same second chance, so
    only the line with the backslash takes the reference decode; under
    --lenient the second chance counts the colons of the other keys too."""
    extra = {} if strict else {"note:x": "c::d", "t:": 1}
    lines = [json.dumps(
        {"id": f"arXiv:2412.{i:05d}", "source": "ArXiv",
         "venue": "CoRR: cs.CL" if i % 3 else "a::b",
         "year": PUB_YEAR + i % 2, "counts": {"2017": i}, **extra})
        for i in range(20)]
    if escape:
        lines[7] = lines[7].replace("CoRR", "\\u0043oRR")
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert slow_path_calls(monkeypatch, path, strict) == calls
    cohort = load_cohort(path, PUB_YEAR, strict=strict)
    assert "arXiv:2412.00004" in cohort.ids
    assert outcome(new_columns, path, strict=strict) == \
        outcome(old_columns, path, strict=strict)


def test_lenient_extra_scalars_take_the_fast_path(monkeypatch, tmp_path):
    """Under --lenient a line whose other keys hold scalars is accepted
    without the reference decode; a list there is not."""
    path = tmp_path / "c.jsonl"
    notes = ['"x"', "1", "null", "[1, 2]"]
    path.write_text("".join(
        line_of('{"2017":%d}' % i, id=f'"p{i}"', note=notes[i % 4]) + "\n"
        for i in range(20)), encoding="utf-8")
    assert slow_path_calls(monkeypatch, path, strict=False) == (5, 5, 1)
    assert len(load_cohort(path, PUB_YEAR, strict=False)) == 20
    with pytest.raises(ParseError, match="line 1: unknown key"):
        load_cohort(path, PUB_YEAR)


@pytest.mark.parametrize("strict,members", [
    (True, {"id": '"Ünï-{}"', "venue": '"日本語"'}),
    (False, {"note": '"x"', "tag": "null", "n": "2.5", "flag": "true"}),
    (False, {"id": '"arXiv:{}"', "venue": '"a:b"', "note:x": '"c::d"',
             "t:": "1"}),
], ids=["non-ascii", "lenient-scalars", "lenient-colons"])
def test_other_valid_lines_take_the_fast_path(strict, members, monkeypatch,
                                              tmp_path):
    """Valid UTF-8 beyond ASCII, and under --lenient extra keys that hold
    scalars, colons in their names and values among them, need neither the
    replay nor the reference decode."""
    lines = []
    for i in range(20):
        texts = {key: value.replace("{}", str(i))
                 for key, value in {"id": '"p{}"', **members}.items()}
        lines.append(line_of('{"2017":%d}' % i, **texts) + "\n")
    path = tmp_path / "c.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert slow_path_calls(monkeypatch, path, strict=strict) == (0, 0, 0)
    assert outcome(new_columns, path, strict=strict) == \
        outcome(old_columns, path, strict=strict)
    assert len(load_cohort(path, PUB_YEAR, strict=strict)) == 20


def test_odd_count_keys_take_the_slow_path(monkeypatch, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(
        {"id": f"p{i}", "source": "ACL", "venue": "A", "year": PUB_YEAR,
         "counts": {" 2016" if i < 3 else "2016": 1}}) + "\n"
        for i in range(10)), encoding="utf-8")
    assert slow_path_calls(monkeypatch, path) == (3, 3, 1)
    assert load_cohort(path, PUB_YEAR).counts_in(PUB_YEAR).tolist() == [1] * 10


def test_year_keys_are_built_after_the_range_check():
    """A publication year outside the corpus range is refused before any
    table of its count keys is built."""
    built = corpus._year_keys.cache_info().currsize
    for year in (10 ** 9, -5, YEAR_MIN - 1, YEAR_MAX + 1):
        raw = {"id": "p", "source": "ACL", "venue": "A", "year": year,
               "counts": {}}
        with pytest.raises(ParseError, match="outside"):
            validate_record(raw)
    assert corpus._year_keys.cache_info().currsize == built


@pytest.mark.parametrize("pub_year", [-10 ** 9, YEAR_MIN - 1, 10 ** 9])
def test_a_cohort_year_outside_the_range_builds_no_year_table(
        pub_year, fixture_corpus_path, monkeypatch, capsys):
    """load_cohort takes any year: one no line can have loads an empty
    cohort without a table of that year's count keys.  The subcommands
    refuse such a --pub-year as a usage error before any load."""
    year_keys = corpus._year_keys

    def in_range(year):
        assert YEAR_MIN <= year <= YEAR_MAX, year
        return year_keys(year)

    monkeypatch.setattr(corpus, "_year_keys", in_range)
    assert len(load_cohort(fixture_corpus_path, pub_year)) == 0
    assert main(["corr", "--corpus", str(fixture_corpus_path),
                 f"--pub-year={pub_year}", "--years", "2016..2017"]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        f"citegauge corr: error: argument --pub-year: year {pub_year} "
        f"outside [{YEAR_MIN}, {YEAR_MAX}]\n")


def test_package_exports_the_one_pass_loader():
    assert citegauge.load_cohort is corpus.load_cohort
    assert not hasattr(citegauge, "load_corpus")
    assert not hasattr(citegauge, "filter_cohort")


def test_odd_keys_naming_one_year_are_refused(tmp_path):
    path = tmp_path / "c.jsonl"
    for counts, key in [({"2018": 3, " 2018": 5}, " 2018"),
                        ({"02019": 7, "2019": 1}, "2019"),
                        ({"2020": 1, "2_020": 2}, "2_020"),
                        ({"2020": 1, "２０２０": 2}, "２０２０")]:
        path.write_text(json.dumps({
            "id": "p", "source": "ACL", "venue": "A", "year": PUB_YEAR,
            "counts": counts}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_cohort(path, PUB_YEAR)
        year = int(key)
        assert str(info.value) == \
            f"line 1: counts key {key!r} names year {year} again"
        assert outcome(new_columns, path) == outcome(old_columns, path)


def test_counts_are_a_read_only_matrix(tmp_path):
    path = tmp_path / "c.jsonl"
    kwargs = seeded_corpus(7, path)
    cohort = load_cohort(path, PUB_YEAR, **kwargs)
    assert cohort.counts.dtype == np.int64
    assert cohort.counts.shape == (len(cohort.years), len(cohort))
    row = cohort.counts_in(cohort.years[0])
    assert row.base is cohort.counts or row.base is cohort.counts.base
    with pytest.raises(ValueError):
        row[0] = 1


# --- counts past int64 through the CLI ---------------------------------------

def corpus_with_overflow(src, dst, year):
    """The fixture corpus plus one cohort paper with a count past int64 in
    year (None: the same paper without counts)."""
    counts = {} if year is None else {str(year): 2 ** 64}
    line = json.dumps({"id": "zz-overflow", "source": "ACL",
                       "venue": "TopJournal", "year": PUB_YEAR,
                       "counts": counts})
    dst.write_text(src.read_text(encoding="utf-8") + line + "\n",
                   encoding="utf-8")
    return dst


def test_count_past_int64_in_a_read_year_fails_the_report(
        fixture_corpus_path, tmp_path, capsys):
    path = corpus_with_overflow(fixture_corpus_path, tmp_path / "c.jsonl",
                                PUB_YEAR + 4)
    code = main(["report", "--corpus", str(path), "--pub-year", "2016",
                 "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA_ERROR
    assert "a citation count in 2020 does not fit in 64 bits" in err


def test_count_past_int64_in_an_unread_year_is_harmless(
        fixture_corpus_path, tmp_path, capsys):
    outputs = []
    for year in (2030, None):
        path = corpus_with_overflow(fixture_corpus_path,
                                    tmp_path / f"c{year}.jsonl", year)
        outdir = tmp_path / f"out{year}"
        assert main(["report", "--corpus", str(path), "--pub-year", "2016",
                     "--outdir", str(outdir)]) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    capsys.readouterr()
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]


# --- the report path builds no PaperRecord -----------------------------------

REPORT_RUNS = [
    ["corr", "--years", "2016..2023"],
    ["groupstats", "--thresholds", "1,2,3,10,20"],
    ["groupstats", "--by", "venue", "--min-size", "40"],
    ["fit"],
    ["anova"],
    ["boxplot"],
    ["boxplot", "--by", "venue"],
    ["triage", "--thresholds", "1,2,3,10,20"],
]


#: The file `report` writes for each of REPORT_RUNS, in the same order.
REPORT_FILES = ["year_correlations.csv", "early_threshold_groups.csv",
                "venue_groups.csv", "coefficients.csv", "anova.csv",
                "boxplot_by_early.csv", "boxplot_by_venue.csv", "triage.csv"]


def test_report_cohort_flags_match_single_subcommands(fixture_corpus_path,
                                                       tmp_path, capsys):
    """--sources, --aliases and --lenient reach every table of `report` as
    they reach the single subcommand that writes it."""
    path = tmp_path / "c.jsonl"
    path.write_text("".join(
        json.dumps({**json.loads(line), "note": "extra key"}) + "\n"
        for line in fixture_corpus_path.read_text(encoding="utf-8")
        .splitlines()), encoding="utf-8")
    aliases = tmp_path / "aliases.json"
    aliases.write_text('{"NLPWorkshop": "NLPConf"}', encoding="utf-8")
    base = ["--corpus", str(path), "--pub-year", "2016", "--sources",
            "ACL,PubMed", "--aliases", str(aliases), "--lenient"]
    single = tmp_path / "single"
    single.mkdir()
    for args, name in zip(REPORT_RUNS, REPORT_FILES):
        extra = (["--model-out", str(single / "model.json")]
                 if args[0] == "fit" else [])
        assert main([args[0], *base, *args[1:], *extra,
                     "--out", str(single / name)]) == EXIT_OK, args
    outdir = tmp_path / "report"
    assert main(["report", *base, "--outdir", str(outdir)]) == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        p.name for p in single.iterdir())
    for name in REPORT_FILES + ["model.json"]:
        assert (outdir / name).read_bytes() == (single / name).read_bytes(), name
    # the flags took effect: the fixture alone gives other tables
    plain = tmp_path / "plain"
    assert main(["report", "--corpus", str(fixture_corpus_path),
                 "--pub-year", "2016", "--outdir", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert (plain / "venue_groups.csv").read_bytes() != (
        outdir / "venue_groups.csv").read_bytes()


def test_report_path_builds_no_paper_record(fixture_corpus_path, tmp_path,
                                            monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a PaperRecord was built on the report path")

    monkeypatch.setattr(corpus.PaperRecord, "__init__", refuse)
    base = ["--corpus", str(fixture_corpus_path), "--pub-year", "2016"]
    for i, args in enumerate(REPORT_RUNS):
        assert main([args[0], *base, *args[1:],
                     "--out", str(tmp_path / f"{i}.csv")]) == EXIT_OK, args
    assert main(["report", *base, "--outdir", str(tmp_path / "all")]) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(AssertionError):
        load_corpus(fixture_corpus_path)


# --- edge cases of the column build, through both ways in ----------------------

def full_columns(cohort):
    """A Cohort's columns with its count years, overflow years, matrix
    shape and distinct venue names."""
    return (columns(cohort), cohort.years, cohort.overflow_years,
            cohort.counts.shape, cohort.venue_names)


def oracle_full_columns(pub_year, papers):
    years = tuple(sorted({year for p in papers for year in p.counts}))
    overflow = frozenset(year for p in papers
                         for year, value in p.counts.items() if value >= 2 ** 63)
    return (oracle_columns(pub_year, papers), years, overflow,
            (len(years), len(papers)),
            tuple(dict.fromkeys(p.venue for p in papers)))


def assert_loads_as_oracle(path, aliases=None):
    """load_cohort, and filter_cohort on the corpus's records, give the
    oracle's full columns."""
    expected = oracle_full_columns(*oracle_cohort(path, PUB_YEAR,
                                                  aliases=aliases))
    assert full_columns(load_cohort(path, PUB_YEAR, aliases=aliases)) \
        == expected
    records = [replace(r, venue=(aliases or {}).get(r.venue, r.venue))
               for r in load_corpus(path)]
    assert full_columns(filter_cohort(records, PUB_YEAR)) == expected
    return expected


def write_lines(path, papers):
    """A corpus of (id, venue, year, counts) papers, in order."""
    path.write_text("".join(
        json.dumps({"id": paper_id, "source": "ACL", "venue": venue,
                    "year": year, "counts": counts}) + "\n"
        for paper_id, venue, year, counts in papers), encoding="utf-8")


def test_ids_in_code_point_order(tmp_path):
    """Ids that differ only by trailing NULs, which a fixed-width string
    array would pad away, and ids past ASCII and past the BMP, whose
    UTF-16 order is not their code-point order."""
    ids = ["a", "a\0", "a\0\0", "a\0b", "b", "Z", "ä", "日本", "\uffff",
           "\U0001F600", "\ud7ff"]
    rng = random.Random(5)
    rng.shuffle(ids)
    path = tmp_path / "c.jsonl"
    write_lines(path, [(paper_id, f"V{i % 3}", PUB_YEAR,
                        {str(PUB_YEAR + i % 4): i + 1})
                       for i, paper_id in enumerate(ids)])
    expected = assert_loads_as_oracle(path)
    assert expected[0][1] == tuple(sorted(ids))


@pytest.mark.parametrize("other_years", [False, True])
@pytest.mark.parametrize("lines", [255, 256, 257, 513])
def test_block_sizes_late_and_gapped_count_years(lines, other_years,
                                                 tmp_path):
    """Corpora around one and two blocks, whose count years skip a year
    and whose last line, alone in its block past 256 and 512 lines, has a
    count in a year no line before it has, between two years that they
    have; with other_years, one line in three is of another publication
    year, so the cohort's lines do not fill the blocks.  Ids are shuffled,
    so id order is not line order."""
    rng = random.Random(lines)
    numbers = list(range(lines))
    rng.shuffle(numbers)
    papers = []
    for i, number in enumerate(numbers):
        year = PUB_YEAR + 1 if other_years and i % 3 == 1 else PUB_YEAR
        counts = {str(year): rng.randint(0, 3),
                  str(year + 3): rng.choice([0, 1, 300, 70000])}
        if i == lines - 1:
            year, counts = PUB_YEAR, {str(PUB_YEAR + 1): 5}
        papers.append((f"p{number:04d}", rng.choice("ABC"), year, counts))
    path = tmp_path / "c.jsonl"
    write_lines(path, papers)
    _, years, _, shape, _ = assert_loads_as_oracle(path)
    assert years[:2] == (PUB_YEAR, PUB_YEAR + 1)
    assert PUB_YEAR + 2 not in years
    assert shape[1] == sum(1 for p in papers if p[2] == PUB_YEAR)


def test_count_past_int64_and_counts_of_every_width(tmp_path):
    """Counts that first need one byte, then two, four and eight, each
    width first reached in a later block of 256 lines, and a count past
    int64 in the second block."""
    rng = random.Random(3)
    widest = {10: 255, 270: 2 ** 16 - 1, 520: 2 ** 16, 800: 2 ** 32,
              900: 2 ** 63 - 1}
    papers = []
    for i in range(1000):
        counts = {str(PUB_YEAR): widest.get(i, rng.randint(0, 255)),
                  str(PUB_YEAR + 1 + i % 3): i}
        if i == 300:
            counts[str(PUB_YEAR + 5)] = 2 ** 64
        papers.append((f"id{rng.random()}", "V", PUB_YEAR, counts))
    path = tmp_path / "c.jsonl"
    write_lines(path, papers)
    _, years, overflow, _, _ = assert_loads_as_oracle(path)
    assert overflow == {PUB_YEAR + 5} and PUB_YEAR + 5 in years
    assert load_cohort(path, PUB_YEAR).counts.dtype == np.int64


@pytest.mark.parametrize("papers", [
    [],
    [("q", "V", PUB_YEAR + 1, {str(PUB_YEAR + 1): 2})],
    [("p", "V", PUB_YEAR, {})],
    [("p", "V", PUB_YEAR, {str(PUB_YEAR + 3): 7})],
    [("q", "V", PUB_YEAR - 1, {}), ("p", "W", PUB_YEAR,
                                    {str(PUB_YEAR): 1})],
], ids=["empty file", "no cohort line", "one paper without counts",
        "one paper", "one paper among others"])
def test_one_paper_and_empty_cohorts(papers, tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, papers)
    expected = assert_loads_as_oracle(path)
    n = sum(1 for p in papers if p[2] == PUB_YEAR)
    assert expected[3] == (len(expected[1]), n)


@pytest.mark.parametrize("aliases", [
    {"A": "B"}, {"B": "A"}, {"A": "C", "B": "C"}, {"A": "Z", "B": "Z"},
    {"C": "A", "Q": "B"}])
def test_aliases_that_merge_raw_venues(aliases, tmp_path):
    """Raw venues that one alias names share one code and one name, the
    names numbered by first appearance in id order."""
    rng = random.Random(9)
    papers = [(f"p{rng.randint(0, 10 ** 6):07d}-{i}", rng.choice("ABC"),
               PUB_YEAR, {str(PUB_YEAR + 1): i}) for i in range(300)]
    path = tmp_path / "c.jsonl"
    write_lines(path, papers)
    expected = assert_loads_as_oracle(path, aliases)
    names = expected[4]
    assert len(names) == len({aliases.get(v, v) for v in "ABC"})
    cohort = load_cohort(path, PUB_YEAR, aliases=aliases)
    assert len(set(cohort.venue_codes.tolist())) == len(names)
