"""Differential test of corpus.load_corpus against the loader it replaced.

The oracle below is load_corpus as it was when every line went through
json.loads, copied verbatim.  Files are built from valid lines and the
corruptions a JSONL file meets in practice: a byte-order mark, two values
on one line, trailing garbage, a line that is not an object, NaN and
Infinity, Unicode whitespace around a line, blank lines, and one object
torn across two lines.  Both loaders must return equal records, or raise
the same exception class with the same message and line.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegauge.corpus import PaperRecord, load_corpus, validate_record
from citegauge.errors import DuplicateId, ParseError


# --- oracle: load_corpus with one json.loads per line -------------------------

def oracle_load_corpus(path, strict: bool = True) -> list[PaperRecord]:
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


# --- corrupted lines ---------------------------------------------------------

#: Characters str.strip() removes that JSON does not treat as whitespace, and
#: that a text-mode file does not split lines on.
UNICODE_SPACES = ["\u00a0", "\u2003", "\u3000", "\u2028", "\u0085", "\x1c",
                  "\x1f", "\x0b", "\x0c"]


def record_line(i: int, **overrides) -> str:
    raw = {"id": f"p{i:03d}", "source": "ACL", "venue": "V", "year": 2016,
           "counts": {"2016": i % 3, "2017": i}}
    raw.update(overrides)
    return json.dumps(raw)


def corrupted_lines(i: int) -> dict[str, list[str]]:
    """Named corruptions of record i, each one or more file lines."""
    good = record_line(i)
    other = record_line(i + 500)
    space = UNICODE_SPACES[i % len(UNICODE_SPACES)]
    return {
        "bom": ["\ufeff" + good],
        "two objects": [good + other],
        "two objects, spaced": [good + " " + other],
        "two objects, unicode space": [good + "\u00a0" + other],
        "trailing garbage": [good + "x"],
        "trailing comma": [good + ","],
        "not an object": [json.dumps([json.loads(good)])],
        "scalar": [str(i)],
        "string": ['"p"'],
        "null": ["null"],
        "nan line": ["NaN"],
        "infinity line": ["-Infinity"],
        "nan count": [record_line(i).replace(f'"2017": {i}', '"2017": NaN')],
        "infinity year": [record_line(i).replace('"year": 2016',
                                                 '"year": Infinity')],
        "unicode padding": [space + good + space],
        "unicode padding, inner": [space + good + space + other],
        "blank": ["", "   ", "\t", space],
        "torn": [good[:len(good) // 2], good[len(good) // 2:]],
        "duplicate": [good, good],
        "empty object": ["{}"],
        "unterminated": ['{"id": "p'],
    }


CORRUPTIONS = sorted(corrupted_lines(0))


def outcome(load, path):
    try:
        return ("ok", load(path))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_each_corruption_matches_oracle(kind, position, tmp_path):
    lines = [record_line(i) for i in range(10, 14)]
    at = {"first": 0, "middle": 2, "last": len(lines)}[position]
    lines[at:at] = corrupted_lines(1)[kind]
    path = tmp_path / "c.jsonl"
    write_lines(path, lines)
    expected = outcome(oracle_load_corpus, path)
    assert outcome(load_corpus, path) == expected
    if kind in ("blank", "unicode padding"):
        assert expected[0] == "ok"


def test_bom_message_kept(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [record_line(1), "\ufeff" + record_line(2)])
    with pytest.raises(ParseError) as info:
        load_corpus(path)
    assert str(info.value) == ("line 2: invalid JSON: Unexpected UTF-8 BOM "
                                "(decode using utf-8-sig)")


@given(seed=st.integers(0, 2 ** 32 - 1), strict=st.booleans())
@settings(max_examples=200, deadline=None)
def test_mixed_files_match_oracle(seed, strict, tmp_path_factory):
    """Valid lines with corruptions mixed in, several per file."""
    rng = random.Random(seed)
    lines = []
    for i in range(rng.randint(0, 12)):
        if rng.random() < 0.3:
            lines.extend(corrupted_lines(i)[rng.choice(CORRUPTIONS)])
        elif rng.random() < 0.2:
            lines.append(record_line(i, extra=1))   # unknown key: strict only
        else:
            lines.append(record_line(i))
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_lines(path, lines)
    assert outcome(lambda p: load_corpus(p, strict=strict), path) == \
        outcome(lambda p: oracle_load_corpus(p, strict=strict), path)
