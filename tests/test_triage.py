import random

import numpy as np
import pytest

from citegauge import errors
from citegauge.corpus import filter_cohort, load_corpus
from citegauge.metrics import GroupStats
from citegauge.model import (
    MISC_VENUE,
    FittedModel,
    build_design_matrix,
    fit_ols,
    percentile_transform,
    predict_cohort,
)
from citegauge.triage import (
    NominationLedger,
    ddi_rank,
    rule_of_thumb,
)

from conftest import (
    make_cohort,
    random_cohort,
    random_records,
    ranked_rows,
    venues_of,
)


def toy_model(venue_coefs):
    return FittedModel(pub_year=2016, T=10, reference_venue="ref",
                       intercept=20.0, venue_coefs=venue_coefs,
                       early_coefs={k: 5.0 * k for k in range(1, 11)},
                       rss=0.0, r_squared=1.0)


class TestDdiRank:
    def test_ordering_contract(self):
        cohort = make_cohort([{2017: 3}, {2017: 7}, {2017: 3}])
        # ids p0000, p0001, p0002 with early counts 3, 7, 3
        ranking = ranked_rows(ddi_rank(cohort))
        assert [(paper_id, early) for paper_id, early, _, _ in ranking] == [
            ("p0001", 7), ("p0000", 3), ("p0002", 3)]

    def test_model_breaks_ties(self):
        cohort = make_cohort([{2017: 5}, {2017: 5}], venues=["low", "high"])
        model = toy_model({"high": 9.0, "low": -9.0})
        ranking = ranked_rows(ddi_rank(cohort, model=model))
        assert [venue for _, _, venue, _ in ranking] == ["high", "low"]
        assert ranking[0][3] > ranking[1][3]

    def test_singleton(self):
        cohort = make_cohort([{2017: 0}])
        assert ranked_rows(ddi_rank(cohort))[0][0] == "p0000"

    def test_empty_cohort(self):
        with pytest.raises(errors.EmptyCohort):
            ddi_rank(make_cohort([]))

    def test_permutation_and_shuffle_invariance(self):
        rng = random.Random(4)
        records = random_records(rng, 40, max_count=6)
        cohort = filter_cohort(records, 2016)
        ranking = [row[0] for row in ranked_rows(ddi_rank(cohort))]
        assert sorted(ranking) == \
            sorted(p.id for p in records)
        # cohort order is already canonical, so re-ranking the same
        # cohort built from shuffled inputs must agree
        shuffled = list(records)
        rng.shuffle(shuffled)
        again = ranked_rows(ddi_rank(filter_cohort(shuffled, cohort.pub_year)))
        assert [row[0] for row in again] == ranking


    @pytest.mark.parametrize("min_venue_size", [1, 55])
    def test_model_ranking_matches_per_paper_predict(self, fixture_corpus_path,
                                                     min_venue_size):
        records = load_corpus(fixture_corpus_path)
        cohort = filter_cohort(records, 2016)
        design = build_design_matrix(cohort, min_venue_size=min_venue_size)
        model = fit_ols(design, percentile_transform(cohort, 2020))
        # with min_venue_size=55 the 50-paper NLPConf folds into misc
        assert (MISC_VENUE in model.venue_coefs) == (min_venue_size == 55)
        expected = [(p.id, p.counts.get(2017, 0), p.venue,
                     model.predict(p.venue, p.counts.get(2017, 0)))
                    for p in records if p.pub_year == 2016]
        expected.sort(key=lambda r: (-r[1], -r[3], r[0]))
        assert ranked_rows(ddi_rank(cohort, model=model)) == expected


def hand_model(T=10, intercept=20.0, venue_coefs=None, early_coefs=None):
    """A FittedModel with reference venue "A" and the given coefficients."""
    return FittedModel(pub_year=2016, T=T, reference_venue="A",
                       intercept=intercept, venue_coefs=venue_coefs or {},
                       early_coefs=early_coefs or {}, rss=0.0, r_squared=1.0)


#: Hand-built models for every branch of FittedModel.predict, on cohorts of
#: venues A (the reference) to D.
HAND_MODELS = {
    "misc": hand_model(venue_coefs={"B": 2.5, MISC_VENUE: -4.0}),
    "unknown-without-misc": hand_model(venue_coefs={"B": 2.5}),
    "reference-in-venue-coefs": hand_model(venue_coefs={"A": 100.0, "B": 1.0}),
    "early-key-0": hand_model(early_coefs={0: 50.0, 3: 2.0, 5: -1.5}),
    "unseen-level-below": hand_model(early_coefs={1: 1.0, 3: 3.0, 7: 7.25}),
    "no-level-below": hand_model(early_coefs={5: 5.0, 8: 8.0}),
    "counts-above-T": hand_model(T=3, early_coefs={1: 0.5, 2: 1.5, 3: 2.5}),
    "T-1": hand_model(T=1, venue_coefs={"C": 3.0}, early_coefs={1: 9.0}),
    "T-10**30": hand_model(T=10 ** 30, venue_coefs={MISC_VENUE: 1.0},
                           early_coefs={1: 1.0, 4: 4.0, 10 ** 30: 30.0}),
    "negative-zero": hand_model(intercept=-0.0, venue_coefs={"B": 0.0},
                                early_coefs={2: 0.0}),
}


def seeded_cohort(seed):
    rng = random.Random(seed)
    return random_cohort(rng, rng.randint(1, 150), venues=("A", "B", "C", "D"),
                         max_count=rng.choice([0, 2, 12, 40]))


class TestOnePredictionPath:
    """ddi_rank and predict_cohort read one table of predict calls, one per
    distinct (venue, clipped early level); every entry is a predict call."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", HAND_MODELS)
    def test_ranking_predictions_are_per_paper_predict(self, name, seed):
        model = HAND_MODELS[name]
        cohort = seeded_cohort(seed)
        early = cohort.counts_in(2017).tolist()
        expected = np.array([model.predict(venue, count) for venue, count
                             in zip(venues_of(cohort), early)])
        # tobytes tells -0.0 from 0.0
        assert ddi_rank(cohort, model=model).predicted.tobytes() == \
            expected.tobytes()

    @pytest.mark.parametrize("name", HAND_MODELS)
    def test_one_predict_call_per_venue_and_clipped_level(self, name,
                                                          monkeypatch):
        model = HAND_MODELS[name]
        calls = []
        predict = FittedModel.predict
        monkeypatch.setattr(FittedModel, "predict", lambda self, venue, early:
                            calls.append((venue, early)) or
                            predict(self, venue, early))
        cohort = random_cohort(random.Random(7), 400,
                               venues=("A", "B", "C", "D"), max_count=25)
        ddi_rank(cohort, model=model)
        pairs = {(venue, min(count, model.T)) for venue, count
                 in zip(venues_of(cohort), cohort.counts_in(2017).tolist())}
        assert sorted(calls) == sorted(pairs)

    def test_predict_cohort_one_call_per_cell(self, fixture_corpus_path,
                                              monkeypatch):
        cohort = filter_cohort(load_corpus(fixture_corpus_path), 2016)
        design = build_design_matrix(cohort, T=30)
        model = fit_ols(design, percentile_transform(cohort, 2020))
        expected = np.array([model.predict(venue, level) for venue, level
                             in zip(design.row_venues, design.row_early)])
        calls = []
        predict = FittedModel.predict
        monkeypatch.setattr(FittedModel, "predict", lambda self, venue, early:
                            calls.append((venue, early)) or
                            predict(self, venue, early))
        assert predict_cohort(model, design)[design.row_cell].tobytes() == \
            expected.tobytes()
        assert len(calls) == len(design.cell_counts)


def gs(label, mu, h, n=10, threshold=None):
    return GroupStats(label=label, h=h, median=mu, mu=mu, sigma=1.0, n=n,
                      threshold=threshold)


class TestRuleOfThumb:
    def test_fraction_of_venues_beaten(self):
        thresholds = [gs("1+ citations", mu=6.8, h=292, threshold=1),
                      gs("20+ citations", mu=56.4, h=288, threshold=20)]
        venues = [gs(f"v{i}", mu=float(m), h=hh)
                  for i, (m, hh) in enumerate(
                      [(3, 20), (5, 30), (8, 40), (30, 100), (60, 300)])]
        rows = rule_of_thumb(thresholds, venues)
        assert rows[0].threshold == 1
        assert rows[0].frac_venues_below_mu == pytest.approx(2 / 5)
        assert rows[1].frac_venues_below_mu == pytest.approx(4 / 5)
        assert rows[1].frac_venues_below_h == pytest.approx(4 / 5)

    def test_single_venue_above_everything(self):
        thresholds = [gs("1+ citations", 5.0, 10, threshold=1),
                      gs("20+ citations", 9.0, 12, threshold=20)]
        venues = [gs("big", 100.0, 500)]
        rows = rule_of_thumb(thresholds, venues)
        assert all(r.frac_venues_below_mu == 0.0 for r in rows)

    def test_fractions_bounded_and_monotone_when_premise_holds(self):
        thresholds = [gs(f"{t}+ citations", mu=float(t * 3), h=t * 2,
                         threshold=t)
                      for t in [1, 2, 3, 10]]
        venues = [gs(f"v{i}", mu=float(i), h=i) for i in range(1, 40)]
        rows = rule_of_thumb(thresholds, venues)
        fracs = [r.frac_venues_below_mu for r in rows]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert fracs == sorted(fracs)

    def test_requires_inputs(self):
        with pytest.raises(errors.EmptyGroup):
            rule_of_thumb([], [gs("v", 1.0, 1)])
        with pytest.raises(errors.EmptyGroup):
            rule_of_thumb([gs("1+ citations", 1.0, 1, threshold=1)], [])


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestNominationLedger:
    def test_one_nomination_balance_four(self, ledger_path):
        ledger = NominationLedger(ledger_path)
        state = ledger.record("nomination", "alice", "paper1")
        assert state.balance == 4

    def test_two_nominations_three_reviews(self, ledger_path):
        ledger = NominationLedger(ledger_path)
        ledger.record("nomination", "alice", "p1")
        ledger.record("nomination", "alice", "p2")
        ledger.record("review", "alice", "q1")
        ledger.record("review", "alice", "q2")
        state = ledger.record("review", "alice", "q3")
        assert state.balance == 4 * 2 - 3 == 5

    def test_zero_activity(self, ledger_path):
        assert NominationLedger(ledger_path).state("nobody").balance == 0

    def test_review_before_nomination_is_credit(self, ledger_path):
        ledger = NominationLedger(ledger_path)
        state = ledger.record("review", "bob", "p1")
        assert state.balance == -1

    def test_replay_reproduces_balances(self, ledger_path):
        rng = random.Random(6)
        ledger = NominationLedger(ledger_path)
        for _ in range(200):
            name = rng.choice(["a", "b", "c"])
            if rng.random() < 0.4:
                ledger.record("nomination", name, "p")
            else:
                ledger.record("review", name, "p")
        reloaded = NominationLedger(ledger_path)
        assert reloaded.balances() == ledger.balances()
        for name in "abc":
            assert reloaded.state(name) == ledger.state(name)

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = NominationLedger(path)
        ledger.record("nomination", "alice", "p1")
        ledger.record("review", "alice", "q1")
        ledger.record("review", "bob", "q2")
        reloaded = NominationLedger(path)
        assert reloaded.balances() == {"alice": 3, "bob": -1}
        # file is append-only JSONL, one event per line
        assert len(path.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("bad_line,message", [
        ('{"kind": "review", "paper": "p2"}', "missing field 'nominator'"),
        ('{"kind": "nomination", "nominator": "al', "invalid JSON"),
        ('{"kind": "vote", "nominator": "alice", "paper": "p2"}',
         "unknown event kind: 'vote'"),
        ('["nomination", "alice"]', "must be an object"),
        ('{"kind": "review", "nominator": 5, "paper": "p2"}',
         "nominator must be a non-empty string, got 5"),
        ('{"kind": "review", "nominator": null, "paper": "p2"}',
         "nominator must be a non-empty string, got None"),
        ('{"kind": "review", "nominator": "", "paper": "p2"}',
         "nominator must be a non-empty string, got ''"),
        ('{"kind": "review", "nominator": "bob"}', "missing field 'paper'"),
        ('{"kind": "review", "nominator": "bob", "paper": 7}',
         "paper must be a string, got 7"),
    ])
    def test_bad_line_names_its_line(self, tmp_path, bad_line, message):
        path = tmp_path / "ledger.jsonl"
        good = '{"kind": "nomination", "nominator": "alice", "paper": "p1"}'
        path.write_text(f"{good}\n\n{good}\n{bad_line}\n")
        with pytest.raises(errors.LedgerError) as info:
            NominationLedger(path)
        assert info.value.line == 4
        assert str(info.value).startswith("line 4: ")
        assert message in str(info.value)

    def test_empty_nominator_rejected(self, ledger_path):
        ledger = NominationLedger(ledger_path)
        with pytest.raises(ValueError):
            ledger.record("nomination", "", "p")

    @pytest.mark.parametrize("kind,nominator,paper", [
        ("vote", "alice", "p"), ("review", 5, "p"), ("review", None, "p"),
        ("review", "alice", None),
    ])
    def test_record_checks_like_a_loaded_line(self, kind, nominator, paper,
                                              ledger_path):
        ledger = NominationLedger(ledger_path)
        with pytest.raises(ValueError):
            ledger.record(kind, nominator, paper)
        assert not ledger_path.exists() and ledger.balances() == {}
