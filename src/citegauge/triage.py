"""Early-returns triage: paper ranking, threshold-vs-venue comparisons,
and the nomination/review-debt ledger.

The ledger is an append-only JSONL event file; a nominator's balance is
4 * nominations - reviews, recomputable by replaying the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Cohort
from .errors import EmptyCohort, EmptyGroup, LedgerError
from .metrics import DEFAULT_EARLY_OFFSET, GroupStats
from .model import FittedModel

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
    predicted percentile (when a model is supplied), then ascending id.

    The last tie-break is the cohort's own (id) order, kept by the stable
    sort.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot rank an empty cohort")
    ids, venues = cohort.ids, cohort.venues
    early = cohort.counts_in(cohort.pub_year + early_offset)
    counts = early.tolist()
    if model is None:
        predicted = [None] * len(counts)
        order = np.argsort(-early, kind="stable")
    else:
        predicted = [model.predict(v, e) for v, e in zip(venues, counts)]
        order = np.lexsort((-np.array(predicted), -early))
    return [RankedPaper(ids[i], counts[i], venues[i], predicted[i])
            for i in order.tolist()]


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
    """Append-only event log of nominations and completed reviews."""

    def __init__(self, path=None):
        self.path = path
        self.events: list[dict] = []
        self._state: dict[str, NominatorState] = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as handle:
                    for line_num, line in enumerate(handle, 1):
                        line = line.strip()
                        if line:
                            self._load_line(line, line_num)
            except FileNotFoundError:
                pass

    def _load_line(self, line: str, line_num: int) -> None:
        """Apply one ledger file line; a bad line raises LedgerError."""
        try:
            event = json.loads(line)
            if not isinstance(event, dict):
                raise TypeError(
                    f"event must be an object, got {type(event).__name__}")
            self._apply(event, persist=False)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"invalid JSON: {exc.msg}", line=line_num) from None
        except KeyError as exc:
            raise LedgerError(f"missing field {exc.args[0]!r}",
                              line=line_num) from None
        except (ValueError, TypeError) as exc:
            raise LedgerError(str(exc), line=line_num) from None

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
