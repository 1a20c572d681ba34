"""Early-returns triage: paper ranking, threshold-vs-venue comparisons,
and the nomination/review-debt ledger.

The ledger is an append-only JSONL event file; a nominator's balance is
4 * nominations - reviews, recomputed from the file on load.  A last line
without its newline follows corpus.read_journal's rule: loading ignores a
torn append and the next append truncates it; it ends a kept line first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Cohort, json_value, read_journal, utf8_text
from .errors import EmptyCohort, EmptyGroup, LedgerError, ParseError
from .metrics import DEFAULT_EARLY_OFFSET, GroupStats
from .model import FittedModel, predict_codes

REVIEWS_PER_NOMINATION = 4


@dataclass(frozen=True, eq=False)
class Ranking:
    """Triage ranking as columns in cohort order: ``order`` lists cohort
    positions from rank 1 down; a paper's venue is
    ``venue_names[venue_codes[i]]``; ``predicted`` is None without a
    model."""

    order: np.ndarray
    ids: tuple[str, ...]
    venue_codes: np.ndarray
    venue_names: tuple[str, ...]
    early: np.ndarray
    predicted: np.ndarray | None


@dataclass(frozen=True)
class ThresholdComparison:
    threshold: int
    group_mu: float
    group_h: int
    frac_venues_below_mu: float
    frac_venues_below_h: float


def ddi_rank(cohort: Cohort, early_offset: int = DEFAULT_EARLY_OFFSET,
             model: FittedModel | None = None) -> Ranking:
    """Rank papers by descending early count; ties break by descending
    predicted percentile (when a model is supplied), then ascending id.

    The predictions come from model.predict_codes, one predict call per
    distinct (venue, clipped early level) pair.  The last tie-break is the
    cohort's own (id) order, kept by the stable sort.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot rank an empty cohort")
    early = cohort.counts_in(cohort.pub_year + early_offset)
    predicted = None if model is None else predict_codes(
        model, cohort.venue_names, cohort.venue_codes, early)
    keys = (-early,) if predicted is None else (-predicted, -early)
    return Ranking(np.lexsort(keys), cohort.ids, cohort.venue_codes,
                   cohort.venue_names, early, predicted)


def rule_of_thumb(threshold_stats: Sequence[GroupStats],
                  venue_stats: Sequence[GroupStats]) -> list[ThresholdComparison]:
    """For each threshold group, the fraction of venues it beats on mu and h.

    Every threshold group must carry its threshold (GroupStats.threshold)."""
    if not venue_stats:
        raise EmptyGroup("no venue statistics to compare against")
    if not threshold_stats:
        raise EmptyGroup("no threshold groups to compare")
    out = []
    n_venues = len(venue_stats)
    for group in threshold_stats:
        if group.threshold is None:
            raise ValueError(f"group {group.label!r} has no threshold")
        below_mu = sum(1 for v in venue_stats if v.mu < group.mu)
        below_h = sum(1 for v in venue_stats if v.h < group.h)
        out.append(ThresholdComparison(
            threshold=group.threshold,
            group_mu=group.mu,
            group_h=group.h,
            frac_venues_below_mu=below_mu / n_venues,
            frac_venues_below_h=below_h / n_venues,
        ))
    return out


@dataclass(frozen=True)
class NominatorState:
    nominations: int = 0
    reviews: int = 0

    @property
    def balance(self) -> int:
        return REVIEWS_PER_NOMINATION * self.nominations - self.reviews


class NominationLedger:
    """Append-only event log of nominations and completed reviews in the
    JSONL file at `path`; a missing file is an empty ledger."""

    def __init__(self, path):
        self.path = path
        self._state: dict[str, NominatorState] = {}
        try:
            lines, self._torn_at, self._lead = read_journal(path)
        except FileNotFoundError:
            lines, self._torn_at, self._lead = [], None, b""
        for line_num, line in enumerate(lines, 1):
            if line.strip():
                self._load_line(line, line_num)

    def _load_line(self, line: bytes, line_num: int) -> None:
        """Count one ledger file line; a bad line raises LedgerError."""
        try:
            self._count(json_value(utf8_text(line)))
        except KeyError as exc:
            raise LedgerError(f"missing field {exc.args[0]!r}",
                              line=line_num) from None
        except (ParseError, ValueError) as exc:
            raise LedgerError(str(exc), line=line_num) from None

    def _count(self, event) -> NominatorState:
        """Check and count one event, loaded or new: a missing field raises
        KeyError, any other fault ValueError."""
        if not isinstance(event, dict):
            raise ValueError(f"event must be an object, got {type(event).__name__}")
        nominator, kind, paper = event["nominator"], event["kind"], event["paper"]
        if not isinstance(nominator, str) or not nominator:
            raise ValueError(
                f"nominator must be a non-empty string, got {nominator!r}")
        if kind not in ("nomination", "review"):
            raise ValueError(f"unknown event kind: {kind!r}")
        if not isinstance(paper, str):
            raise ValueError(f"paper must be a string, got {paper!r}")
        state = self.state(nominator)
        self._state[nominator] = state = NominatorState(
            state.nominations + (kind == "nomination"),
            state.reviews + (kind == "review"))
        return state

    def record(self, kind: str, nominator: str, paper_id: str) -> NominatorState:
        """Count one event of `kind`, "nomination" or "review", and append
        it to the file; returns the nominator's new state.  The balance may
        go negative: reviews before nominations count as credit."""
        event = {"kind": kind, "nominator": nominator, "paper": paper_id}
        state = self._count(event)
        with open(self.path, "ab") as handle:
            if self._torn_at is not None:
                handle.truncate(self._torn_at)
            handle.write(self._lead + (json.dumps(event, sort_keys=True)
                                       + "\n").encode("utf-8"))
        self._torn_at, self._lead = None, b""
        return state

    def state(self, nominator: str) -> NominatorState:
        return self._state.get(nominator, NominatorState())

    def balances(self) -> dict[str, int]:
        return {name: s.balance for name, s in sorted(self._state.items())}
