"""report.triage_csv against the renderer it replaced: one plain csv.writer
row per paper, written from the ranking's order, then the comparison rows.

triage_csv renders the ranking's rows a chunk at a time, so the rankings
here have one row fewer than a chunk, a chunk, one more, and more than
two chunks.  Ids and venues hold the characters CSV quotes (",", '"',
"\\n", "\\r"), and the rankings come with and without predictions and
comparison rows.
"""

import csv
import io
import random

import numpy as np
import pytest

from citegauge import report
from citegauge.report import triage_csv
from citegauge.triage import Ranking, ThresholdComparison

CHUNK = report._CHUNK


def oracle_triage_csv(ranking, comparisons=None):
    """The ranking and comparisons as one csv.writer row each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "id", "early_count", "venue",
                     "predicted_percentile"])
    for rank, i in enumerate(ranking.order.tolist(), 1):
        predicted = ("" if ranking.predicted is None
                     else f"{float(ranking.predicted[i]):.1f}")
        writer.writerow([rank, ranking.ids[i], int(ranking.early[i]),
                         ranking.venue_names[ranking.venue_codes[i]],
                         predicted])
    if comparisons:
        writer.writerow([])
        writer.writerow(["threshold", "group_mu", "group_h",
                         "frac_venues_below_mu", "frac_venues_below_h"])
        for c in comparisons:
            writer.writerow([str(c.threshold), f"{c.group_mu:.1f}",
                             str(c.group_h), repr(c.frac_venues_below_mu),
                             repr(c.frac_venues_below_h)])
    return buf.getvalue()


#: Texts of ids and venues, each of the characters CSV quotes among them.
TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n",
         ',"\n\r', "", " padded ", "ünï"]

COMPARISONS = [ThresholdComparison(1, 12.34, 5, 0.5, 1 / 3),
               ThresholdComparison(20, -0.04, 0, 0.0, 1.0)]


def seeded_ranking(n, with_predictions, seed=0):
    rng = random.Random(seed)
    ids = tuple(sorted(f"{rng.choice(TEXTS)}-{i}" for i in range(n)))
    codes = np.array([rng.randrange(len(TEXTS)) for _ in range(n)],
                     dtype=np.int32)
    early = np.array([rng.choice([0, 1, 7, 2 ** 40]) for _ in range(n)],
                     dtype=np.int64)
    predicted = (np.array([rng.uniform(-1.0, 101.0) for _ in range(n)])
                 if with_predictions else None)
    order = np.array(rng.sample(range(n), n), dtype=np.intp)
    return Ranking(order, ids, codes, tuple(TEXTS), early, predicted)


@pytest.mark.parametrize("comparisons", [None, [], COMPARISONS],
                         ids=["none", "empty", "two"])
@pytest.mark.parametrize("with_predictions", [False, True])
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                               2 * CHUNK + 1])
def test_triage_csv_matches_one_row_per_paper(n, with_predictions,
                                              comparisons):
    ranking = seeded_ranking(n, with_predictions, seed=n)
    text = triage_csv(ranking, comparisons)
    assert isinstance(text, str)
    assert text == oracle_triage_csv(ranking, comparisons)


def test_the_rankings_hold_every_character_csv_quotes():
    """Each kind of quoted id and venue reaches the text, and a lone "\r",
    which the "\n" line terminator leaves unquoted, as the renderer it
    replaced left it."""
    text = triage_csv(seeded_ranking(CHUNK + 1, True), COMPARISONS)
    for field in ('"a,b-', '"say ""hi""-', '"two\nlines-', ',cr\rhere-',
                  '",""\n\r-', ',"a,b",', ',"say ""hi""",'):
        assert field in text, field
