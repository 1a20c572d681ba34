"""Deterministic report rendering (CSV and JSON).

Display columns match the reference tables: 2 decimals for correlations,
1 decimal for mu/sigma/coefficients, exact integers for h and N.  A full
precision column sits alongside every rounded one so reports stay diffable
without losing information.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat

from .metrics import DEGENERATE, CorrelationTable, GroupStats
from .model import AnovaTable, BoxplotRow, FittedModel
from .triage import Ranking, ThresholdComparison


def fmt_corr(value) -> str:
    return "NA" if value is DEGENERATE else f"{value:.2f}"


def fmt1(value: float) -> str:
    return f"{value:.1f}"


def fmt_full(value) -> str:
    return "NA" if value is DEGENERATE else repr(float(value))


def fmt_median(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.1f}"


def _csv_string(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def correlation_csv(table: CorrelationTable) -> str:
    rows = [[""] + [str(c) for c in table.col_labels]]
    for label, entries in zip(table.row_labels, table.entries):
        rows.append([str(label)] + [fmt_corr(e) for e in entries])
    rows.append([])
    rows.append(["# full precision"])
    for label, entries in zip(table.row_labels, table.entries):
        rows.append([str(label)] + [fmt_full(e) for e in entries])
    return _csv_string(rows)


def correlation_json(table: CorrelationTable) -> str:
    obj = {
        "rows": [str(r) for r in table.row_labels],
        "cols": [str(c) for c in table.col_labels],
        "entries": [[None if e is DEGENERATE else e for e in row]
                    for row in table.entries],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def group_stats_csv(stats: list[GroupStats]) -> str:
    rows = [["group", "h", "median", "mu", "sigma", "N",
             "mu_full", "sigma_full", "median_full"]]
    for s in stats:
        rows.append([s.label, str(s.h), fmt_median(s.median), fmt1(s.mu),
                     fmt1(s.sigma), str(s.n),
                     repr(s.mu), repr(s.sigma), repr(s.median)])
    return _csv_string(rows)


def group_stats_json(stats: list[GroupStats]) -> str:
    obj = [{"group": s.label, "h": s.h, "median": s.median, "mu": s.mu,
            "sigma": s.sigma, "N": s.n} for s in stats]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def coefficients_csv(model: FittedModel) -> str:
    rows = [["coefficient", "value", "value_full"]]
    rows.append(["Intercept", fmt1(model.intercept), repr(model.intercept)])
    for venue in sorted(model.venue_coefs):
        value = model.venue_coefs[venue]
        rows.append([venue, fmt1(value), repr(value)])
    for level in sorted(model.early_coefs):
        value = model.early_coefs[level]
        label = f"{level}+ early" if level == model.T else f"{level} early"
        rows.append([label, fmt1(value), repr(value)])
    rows.append(["R2", f"{model.r_squared:.3f}", repr(model.r_squared)])
    return _csv_string(rows)


def anova_csv(table: AnovaTable) -> str:
    rows = [["ordering", "factor", "ss", "eta_squared"]]
    for name, ordering in (("venue_first", table.venue_first),
                           ("early_first", table.early_first)):
        for row in ordering:
            rows.append([name, row.factor, repr(row.ss), repr(row.eta_squared)])
    rows.append(["", "total", repr(table.ss_total), "1.0"])
    return _csv_string(rows)


def boxplot_csv(rows_in: list[BoxplotRow]) -> str:
    rows = [["group", "min", "q1", "median", "q3", "max", "N"]]
    for r in rows_in:
        rows.append([r.label, repr(r.minimum), repr(r.q1), repr(r.median),
                     repr(r.q3), repr(r.maximum), str(r.n)])
    return _csv_string(rows)


#: Ranking rows rendered at a time: the Python values of one chunk's cells
#: are all that is alive of the ranking's rows while its text is written.
_CHUNK = 1024


def triage_csv(ranking: Ranking,
               comparisons: list[ThresholdComparison] | None = None) -> str:
    """The ranking, then the comparison rows if any.

    The ranking is written from its columns _CHUNK rows at a time, with no
    per-paper row list, and the text is joined once from the chunks'
    texts, so at most the text, its chunks and one chunk's values are alive
    at once."""
    order, predicted = ranking.order, ranking.predicted
    texts = [_csv_string([["rank", "id", "early_count", "venue",
                           "predicted_percentile"]])]
    for start in range(0, len(order), _CHUNK):
        chunk = order[start:start + _CHUNK]
        texts.append(_csv_string(zip(
            range(start + 1, start + len(chunk) + 1),
            map(ranking.ids.__getitem__, chunk.tolist()),
            ranking.early[chunk].tolist(),
            map(ranking.venue_names.__getitem__,
                ranking.venue_codes[chunk].tolist()),
            repeat("") if predicted is None
            else map(fmt1, predicted[chunk].tolist()))))
    if comparisons:
        texts.append(_csv_string([
            [], ["threshold", "group_mu", "group_h", "frac_venues_below_mu",
                 "frac_venues_below_h"],
            *([str(c.threshold), fmt1(c.group_mu), str(c.group_h),
               repr(c.frac_venues_below_mu), repr(c.frac_venues_below_h)]
              for c in comparisons)]))
    return "".join(texts)
