import math
import random
import sys
from pathlib import Path

import pytest

from citegauge.corpus import PaperRecord, Source, filter_cohort
from citegauge.metrics import DEGENERATE

DATA_DIR = Path(__file__).parent / "data"

#: Text that json cannot decode, one per way it fails: bad syntax
#: (JSONDecodeError), nesting past the recursion limit (RecursionError) and
#: an integer past Python's 4300-digit limit (ValueError).
UNDECODABLE = {
    "syntax": '{"id": ',
    "deep": "[" * (10 * sys.getrecursionlimit()),
    "long-int": '{"id": ' + "1" * 5000 + "}",
}


@pytest.fixture
def table1_path():
    return DATA_DIR / "table1.csv"


@pytest.fixture
def fixture_corpus_path():
    return DATA_DIR / "fixture_corpus.jsonl"


@pytest.fixture
def fixture_expected_path():
    return DATA_DIR / "fixture_expected.json"


def make_record(paper_id, pub_year=2016, counts=None, venue="V",
                source=Source.ACL):
    return PaperRecord(id=str(paper_id), source=source, venue=venue,
                       pub_year=pub_year, counts=dict(counts or {}))


def make_records(count_rows, pub_year=2016, venues=None):
    """One record per {year: count} map, with ids p0000, p0001, ... so the
    list is in cohort (id) order."""
    papers = []
    for i, counts in enumerate(count_rows):
        venue = venues[i] if venues else "V"
        papers.append(make_record(f"p{i:04d}", pub_year, counts, venue))
    return papers


def make_cohort(count_rows, pub_year=2016, venues=None):
    """Build a cohort from a list of {year: count} maps (one per paper)."""
    return filter_cohort(make_records(count_rows, pub_year, venues), pub_year)


def random_records(rng: random.Random, size, pub_year=2016, years=None,
                   venues=("A", "B", "C"), max_count=100):
    """Random records in cohort order, for per-paper oracles."""
    years = years or range(pub_year, pub_year + 5)
    rows = []
    chosen = []
    for _ in range(size):
        rows.append({y: rng.randint(0, max_count) for y in years})
        chosen.append(rng.choice(venues))
    return make_records(rows, pub_year, venues=chosen)


def random_cohort(rng: random.Random, size, pub_year=2016, **kwargs):
    return filter_cohort(random_records(rng, size, pub_year, **kwargs),
                         pub_year)


def venues_of(columns):
    """The venue name of every paper of a Cohort or Ranking, in its order."""
    return tuple(columns.venue_names[c] for c in columns.venue_codes.tolist())


def entry(table, row_label, col_label):
    """The entry of a CorrelationTable at a row and a column label."""
    return table.entries[table.row_labels.index(row_label)][
        table.col_labels.index(col_label)]


def exact_pearson(x, y):
    """Pearson r of two integer sequences, rounded once to the nearest
    double, or DEGENERATE when either is constant.  Every step is exact
    integer arithmetic: q = isqrt(r**2 * 4**k) is floor(|r| * 2**k) with
    at least 64 bits, so (2q + 1) / 2**(k + 1), a value strictly between
    q / 2**k and the next multiple of 2**-k when the root is inexact,
    rounds as |r| does (int / int is correctly rounded)."""
    n = len(x)
    sx, sy = sum(x), sum(y)
    vx = n * sum(a * a for a in x) - sx * sx
    vy = n * sum(b * b for b in y) - sy * sy
    if vx == 0 or vy == 0:
        return DEGENERATE
    cov = n * sum(a * b for a, b in zip(x, y)) - sx * sy
    var = vx * vy
    k = var.bit_length() + 64
    scaled = cov * cov << 2 * k
    q = math.isqrt(scaled // var)
    inexact = q * q * var != scaled
    return math.copysign((2 * q + inexact) / (1 << k + 1), cov)


def group_codes(groups):
    """(codes, labels) of a list of group keys for boxplot_aggregate: keys
    numbered by first appearance, as dict keys tell them apart, each
    labelled str(key)."""
    index = {}
    codes = [index.setdefault(g, len(index)) for g in groups]
    return codes, [str(key) for key in index]


def ranked_rows(ranking):
    """A ddi_rank ranking as (id, early count, venue, predicted) tuples,
    from the first rank to the last; predicted is None without a model."""
    order = ranking.order.tolist()
    predicted = ([None] * len(order) if ranking.predicted is None
                 else ranking.predicted.tolist())
    early = ranking.early.tolist()
    venues = venues_of(ranking)
    return [(ranking.ids[i], early[i], venues[i], predicted[i])
            for i in order]
