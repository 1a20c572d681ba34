"""Early-returns triage: paper ranking, threshold-vs-venue comparisons,
and the nomination/review-debt ledger.

The ledger is an append-only JSONL event file; a nominator's balance is
4 * nominations - reviews, recomputable by replaying the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .corpus import Cohort
from .errors import EmptyCohort, EmptyGroup
from .metrics import DEFAULT_EARLY_OFFSET, GroupStats
from .model import FittedModel

#: Anchor for "impressive early citations": papers at this clipped level are
#: predicted around the 75th percentile or better in the reference fits.
DEFAULT_IMPRESSIVE_THRESHOLD = 10

REVIEWS_PER_NOMINATION = 4


@dataclass(frozen=True)
class RankedPaper:
    paper_id: str
    early_count: int
    venue: str
    predicted_percentile: float | None = None


@dataclass(frozen=True)
class ThresholdComparison:
    threshold: int
    group_mu: float
    group_h: int
    frac_venues_below_mu: float
    frac_venues_below_h: float


def ddi_rank(cohort: Cohort, early_offset: int = DEFAULT_EARLY_OFFSET,
             model: FittedModel | None = None) -> list[RankedPaper]:
    """Rank papers by descending early count; ties break by descending
    predicted percentile (when a model is supplied), then ascending id."""
    if len(cohort) == 0:
        raise EmptyCohort("cannot rank an empty cohort")
    early_year = cohort.pub_year + early_offset
    rows = []
    for p in cohort:
        early = p.citations_in(early_year)
        predicted = model.predict(p.venue, early) if model is not None else None
        rows.append(RankedPaper(p.id, early, p.venue, predicted))
    rows.sort(key=lambda r: (
        -r.early_count,
        -(r.predicted_percentile if r.predicted_percentile is not None else 0.0),
        r.paper_id,
    ))
    return rows


def rule_of_thumb(threshold_stats: Sequence[GroupStats],
                  venue_stats: Sequence[GroupStats]) -> list[ThresholdComparison]:
    """For each threshold group, the fraction of venues it beats on mu and h."""
    if not venue_stats:
        raise EmptyGroup("no venue statistics to compare against")
    if not threshold_stats:
        raise EmptyGroup("no threshold groups to compare")
    out = []
    n_venues = len(venue_stats)
    for group in threshold_stats:
        below_mu = sum(1 for v in venue_stats if v.mu < group.mu)
        below_h = sum(1 for v in venue_stats if v.h < group.h)
        threshold = _parse_threshold_label(group.label)
        out.append(ThresholdComparison(
            threshold=threshold,
            group_mu=group.mu,
            group_h=group.h,
            frac_venues_below_mu=below_mu / n_venues,
            frac_venues_below_h=below_h / n_venues,
        ))
    return out


def _parse_threshold_label(label: str) -> int:
    head = label.split()[0]
    return int(head.rstrip("+"))


@dataclass(frozen=True)
class NominatorState:
    nominations: int = 0
    reviews: int = 0

    @property
    def balance(self) -> int:
        return REVIEWS_PER_NOMINATION * self.nominations - self.reviews


class NominationLedger:
    """Append-only event log of nominations and completed reviews."""

    def __init__(self, path=None):
        self.path = path
        self.events: list[dict] = []
        self._state: dict[str, NominatorState] = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if line:
                            self._apply(json.loads(line), persist=False)
            except FileNotFoundError:
                pass

    def _apply(self, event: dict, persist: bool) -> None:
        nominator = event["nominator"]
        state = self._state.get(nominator, NominatorState())
        if event["kind"] == "nomination":
            state = NominatorState(state.nominations + 1, state.reviews)
        elif event["kind"] == "review":
            state = NominatorState(state.nominations, state.reviews + 1)
        else:
            raise ValueError(f"unknown event kind: {event['kind']!r}")
        self._state[nominator] = state
        self.events.append(event)
        if persist and self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")

    def record_nomination(self, nominator: str, paper_id: str) -> NominatorState:
        if not nominator:
            raise ValueError("nominator id must be non-empty")
        self._apply({"kind": "nomination", "nominator": nominator,
                     "paper": paper_id}, persist=True)
        return self._state[nominator]

    def record_review(self, nominator: str, paper_id: str) -> NominatorState:
        """Balance may go negative: reviews before nominations count as credit."""
        if not nominator:
            raise ValueError("nominator id must be non-empty")
        self._apply({"kind": "review", "nominator": nominator,
                     "paper": paper_id}, persist=True)
        return self._state[nominator]

    def state(self, nominator: str) -> NominatorState:
        return self._state.get(nominator, NominatorState())

    def balances(self) -> dict[str, int]:
        return {name: s.balance for name, s in sorted(self._state.items())}

    @classmethod
    def replay(cls, events: Sequence[dict]) -> "NominationLedger":
        ledger = cls()
        for event in events:
            ledger._apply(dict(event), persist=False)
        return ledger
