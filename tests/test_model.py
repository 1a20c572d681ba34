import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegauge import errors
from citegauge.corpus import filter_cohort
from citegauge.model import (
    MISC_VENUE,
    BoxplotRow,
    FittedModel,
    anova_decompose,
    boxplot_aggregate,
    build_design_matrix,
    clip_early,
    fit_ols,
    load_model,
    model_json,
    percentile_transform,
    predict_cohort,
)

from conftest import (
    group_codes,
    make_cohort,
    make_record,
    random_cohort,
    random_records,
)


def normal_equations_oracle(X, y):
    """Brute-force (X'X)^-1 X'y; test oracle only."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def synthetic_cohort(rng, n, venues, venue_effects, early_effects, T,
                     intercept, noise_sigma=0.0, pub_year=2016):
    """Cohort whose future counts ARE the intended percentile signal.

    Returns (cohort, signal) where signal[i] is the noiseless linear value
    for paper i (cohort order, i.e. sorted by id).
    """
    papers = []
    for i in range(n):
        venue = venues[rng.randrange(len(venues))]
        early = rng.randrange(0, T + 2)
        papers.append((f"p{i:06d}", venue, early))
    papers.sort()  # cohort iterates sorted by id
    records = []
    signal = []
    for paper_id, venue, early in papers:
        value = intercept + venue_effects.get(venue, 0.0) \
            + early_effects.get(clip_early(early, T), 0.0)
        signal.append(value + (rng.gauss(0, noise_sigma) if noise_sigma else 0.0))
        records.append(make_record(paper_id, pub_year,
                                   {pub_year + 1: early}, venue))
    cohort = filter_cohort(records, pub_year)
    return cohort, np.array(signal)


class TestPercentileTransform:
    def test_hand_computed_example(self):
        # ranks 3,2,1 of counts 10,5,1; 100*(r-0.5)/3
        cohort = make_cohort([{2020: 10}, {2020: 5}, {2020: 1}])
        frame = percentile_transform(cohort, 2020)
        by_id = dict(zip(cohort.ids, frame.percentiles))
        assert by_id["p0000"] == pytest.approx(100 * 2.5 / 3)
        assert by_id["p0001"] == pytest.approx(50.0)
        assert by_id["p0002"] == pytest.approx(100 * 0.5 / 3)

    def test_all_tied_at_fifty(self):
        cohort = make_cohort([{2020: 7}] * 4)
        frame = percentile_transform(cohort, 2020)
        assert all(p == pytest.approx(50.0) for p in frame.percentiles)

    def test_invariant_under_doubling(self):
        cohort = make_cohort([{2020: c} for c in [3, 9, 0, 4, 4]])
        doubled = make_cohort([{2020: 2 * c} for c in [3, 9, 0, 4, 4]])
        assert percentile_transform(cohort, 2020).percentiles.tolist() == \
            percentile_transform(doubled, 2020).percentiles.tolist()

    def test_range_and_rank_monotonicity(self):
        rng = random.Random(1)
        records = random_records(rng, 50)
        frame = percentile_transform(filter_cohort(records, 2016), 2020)
        counts = [p.counts.get(2020, 0) for p in records]
        for i in range(len(counts)):
            assert 0.0 <= frame.percentiles[i] <= 100.0
            for j in range(len(counts)):
                if counts[i] > counts[j]:
                    assert frame.percentiles[i] > frame.percentiles[j]

    def test_empty_cohort(self):
        with pytest.raises(errors.EmptyCohort):
            percentile_transform(make_cohort([]), 2020)

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=40),
           st.integers(1, 100))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_strictly_increasing_maps(self, counts, seed):
        rng = random.Random(seed)
        # random strictly increasing map over the values seen
        values = sorted(set(counts))
        image = {}
        acc = rng.randint(0, 5)
        for v in values:
            image[v] = acc
            acc += rng.randint(1, 7)
        base = make_cohort([{2020: c} for c in counts])
        mapped = make_cohort([{2020: image[c]} for c in counts])
        assert percentile_transform(base, 2020).percentiles.tolist() == \
            percentile_transform(mapped, 2020).percentiles.tolist()


class TestClipEarly:
    def test_below_cap(self):
        assert clip_early(3, 10) == 3

    def test_clipped(self):
        assert clip_early(25, 10) == 10

    def test_boundary(self):
        assert clip_early(30, 30) == 30

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            clip_early(1, 0)
        with pytest.raises(ValueError):
            clip_early(-1, 10)


class TestBuildDesignMatrix:
    def test_column_layout(self):
        # venues sized 50/45/10 with min size 40: smallest folds into misc,
        # most populous (A) is the reference, columns for B and misc
        venues = ["A"] * 50 + ["B"] * 45 + ["C"] * 10
        cohort = make_cohort([{2017: i % 3} for i in range(105)], venues=venues)
        design = build_design_matrix(cohort, T=2, min_venue_size=40)
        assert design.reference_venue == "A"
        assert design.column_names == (
            "intercept", "venue:B", f"venue:{MISC_VENUE}", "early:1", "early:2")

    def test_single_venue_no_dummies(self):
        cohort = make_cohort([{2017: i} for i in range(5)], venues=["A"] * 5)
        design = build_design_matrix(cohort, T=2, min_venue_size=1)
        assert design.venue_levels == ()

    def test_venue_under_threshold_goes_misc(self):
        venues = ["A"] * 40 + ["B"] * 39
        cohort = make_cohort([{2017: i % 2} for i in range(79)], venues=venues)
        design = build_design_matrix(cohort, T=1, min_venue_size=40)
        assert set(design.row_venues) == {"A", MISC_VENUE}

    def test_each_row_one_level_per_factor(self):
        rng = random.Random(2)
        cohort = random_cohort(rng, 60, venues=("A", "B", "C"), max_count=8)
        design = build_design_matrix(cohort, T=5, min_venue_size=10)
        n_venue = len(design.venue_levels)
        venue_part = design.X[:, 1:1 + n_venue]
        early_part = design.X[:, 1 + n_venue:]
        assert np.all(venue_part.sum(axis=1) <= 1)
        assert np.all(early_part.sum(axis=1) <= 1)
        assert np.all(design.X[:, 0] == 1.0)

    def test_too_few_rows(self):
        cohort = make_cohort([{2017: 1}, {2017: 2}])
        with pytest.raises(errors.TooFewRows):
            build_design_matrix(cohort, T=10, min_venue_size=1)

    def test_explicit_reference_venue(self):
        venues = ["A"] * 30 + ["B"] * 30
        cohort = make_cohort([{2017: i % 2} for i in range(60)], venues=venues)
        design = build_design_matrix(cohort, T=1, min_venue_size=10,
                                     reference_venue="B")
        assert design.reference_venue == "B"
        assert design.venue_levels == ("A",)


def fit_synthetic(rng, n, noise=0.0, T=4):
    venue_effects = {"B": 5.0, "C": -3.0}
    early_effects = {1: 4.0, 2: 9.0, 3: 12.0, 4: 20.0}
    cohort, signal = synthetic_cohort(
        rng, n, ["A", "B", "C"], venue_effects, early_effects, T,
        intercept=30.0, noise_sigma=noise)
    design = build_design_matrix(cohort, T=T, min_venue_size=1,
                                 reference_venue="A")
    frame = percentile_transform(cohort, 2020)
    # fit on the raw signal rather than percentiles so coefficients are
    # recoverable exactly; wrap it in the frame container
    frame = frame.__class__(pub_year=2016, future_year=2020,
                            percentiles=signal)
    return cohort, design, frame, venue_effects, early_effects


class TestFitOls:
    def test_noiseless_recovery(self):
        rng = random.Random(11)
        _, design, frame, venue_effects, early_effects = fit_synthetic(rng, 400)
        fitted = fit_ols(design, frame)
        assert fitted.intercept == pytest.approx(30.0, abs=1e-8)
        for venue, effect in venue_effects.items():
            assert fitted.venue_coefs[venue] == pytest.approx(effect, abs=1e-8)
        for level, effect in early_effects.items():
            assert fitted.early_coefs[level] == pytest.approx(effect, abs=1e-8)
        assert fitted.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(12)
        _, design, frame, _, _ = fit_synthetic(rng, 300, noise=5.0)
        fitted = fit_ols(design, frame)
        beta = normal_equations_oracle(design.X, np.array(frame.percentiles))
        got = [fitted.intercept] \
            + [fitted.venue_coefs[v] for v in design.venue_levels] \
            + [fitted.early_coefs[k] for k in design.early_levels]
        assert np.allclose(got, beta, atol=1e-8)

    def test_rank_deficient_names_columns(self):
        # venue A sees early levels 0 and 1, venue B levels 2 and 3, so
        # early:2 + early:3 equals venue:B
        cohort = make_cohort([{2017: i % 2 + 2 * (i >= 10), 2020: i}
                              for i in range(20)], venues=["A"] * 10 + ["B"] * 10)
        design = build_design_matrix(cohort, T=3, min_venue_size=1,
                                     reference_venue="A")
        frame = percentile_transform(cohort, 2020)
        with pytest.raises(errors.RankDeficient) as excinfo:
            fit_ols(design, frame)
        assert excinfo.value.columns == ["early:3"]

    def test_dimension_mismatch(self):
        rng = random.Random(13)
        _, design, frame, _, _ = fit_synthetic(rng, 100)
        short = frame.__class__(pub_year=2016, future_year=2020,
                                percentiles=frame.percentiles[:-1])
        with pytest.raises(errors.DimensionMismatch):
            fit_ols(design, short)

    def test_mean_fitted_equals_mean_observed(self):
        rng = random.Random(14)
        cohort = random_cohort(rng, 120, venues=("A", "B"), max_count=12)
        design = build_design_matrix(cohort, T=3, min_venue_size=1)
        frame = percentile_transform(cohort, 2020)
        fitted = fit_ols(design, frame)
        predictions = predict_cohort(fitted, design)[design.row_cell]
        assert predictions.mean() == pytest.approx(
            np.mean(frame.percentiles), abs=1e-9)

    def test_coefficients_reproduce_fitted_values(self):
        rng = random.Random(15)
        _, design, frame, _, _ = fit_synthetic(rng, 200, noise=3.0)
        fitted = fit_ols(design, frame)
        beta = normal_equations_oracle(design.X, np.array(frame.percentiles))
        solver_fitted = design.X @ beta
        reconstructed = predict_cohort(fitted, design)[design.row_cell]
        assert np.allclose(reconstructed, solver_fitted, atol=1e-10)

    def test_row_order_independence(self):
        rng = random.Random(16)
        cohort, design, frame, _, _ = fit_synthetic(rng, 150, noise=2.0)
        fitted = fit_ols(design, frame)
        perm = list(range(design.n_rows))
        rng.shuffle(perm)
        # row i of the shuffled design is row perm[i] of the original
        shuffled = dataclasses.replace(design, row_cell=design.row_cell[perm])
        shuffled_frame = frame.__class__(
            pub_year=frame.pub_year, future_year=frame.future_year,
            percentiles=frame.percentiles[perm])
        refit = fit_ols(shuffled, shuffled_frame)
        assert refit.intercept == pytest.approx(fitted.intercept, abs=1e-10)
        for v in fitted.venue_coefs:
            assert refit.venue_coefs[v] == pytest.approx(
                fitted.venue_coefs[v], abs=1e-10)
        for k in fitted.early_coefs:
            assert refit.early_coefs[k] == pytest.approx(
                fitted.early_coefs[k], abs=1e-10)


class TestPredict:
    def make_model(self):
        return FittedModel(
            pub_year=2016, T=10, reference_venue="ref",
            intercept=15.7,
            venue_coefs={"PubMed": 10.7, MISC_VENUE: -2.0},
            early_coefs={k: float(k) for k in range(1, 10)} | {10: 59.4},
            rss=0.0, r_squared=1.0)

    def test_sum_of_components(self):
        model = self.make_model()
        assert model.predict("PubMed", 25) == pytest.approx(15.7 + 10.7 + 59.4)

    def test_reference_zero_early_is_intercept(self):
        model = self.make_model()
        assert model.predict("ref", 0) == pytest.approx(15.7)

    def test_unknown_venue_maps_to_misc(self):
        model = self.make_model()
        assert model.predict("Nowhere", 0) == pytest.approx(15.7 - 2.0)

    def test_monotone_when_coefficients_monotone(self):
        rng = random.Random(17)
        _, design, frame, _, _ = fit_synthetic(rng, 400)
        fitted = fit_ols(design, frame)
        levels = sorted(fitted.early_coefs)
        coefs = [fitted.early_coefs[k] for k in levels]
        assert coefs == sorted(coefs)  # premise holds for this synthetic fit
        predictions = [fitted.predict("A", k) for k in [0] + levels]
        assert predictions == sorted(predictions)

    def test_serialization_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        path.write_text(model_json(model), encoding="utf-8")
        loaded = load_model(path)
        assert loaded == model


class TestAnova:
    def test_venue_irrelevant_when_signal_is_early_only(self):
        rng = random.Random(18)
        cohort, signal = synthetic_cohort(
            rng, 500, ["A", "B", "C"], {}, {1: 5.0, 2: 11.0, 3: 17.0, 4: 20.0},
            T=4, intercept=20.0)
        design = build_design_matrix(cohort, T=4, min_venue_size=1,
                                     reference_venue="A")
        frame = percentile_transform(cohort, 2020).__class__(
            pub_year=2016, future_year=2020, percentiles=signal)
        table = anova_decompose(design, frame)
        # venue-first: only chance correlation with the early assignment,
        # O(1/n).  early-first: the early factor already explains everything,
        # so the venue increment is numerically zero.
        venue_first_row = next(r for r in table.venue_first if r.factor == "venue")
        assert venue_first_row.eta_squared == pytest.approx(0.0, abs=0.02)
        early_first_row = next(r for r in table.early_first if r.factor == "venue")
        assert early_first_row.eta_squared == pytest.approx(0.0, abs=1e-10)

    def test_ss_additivity(self):
        rng = random.Random(19)
        for _ in range(10):
            cohort = random_cohort(rng, rng.randint(40, 120),
                                   venues=("A", "B"), max_count=10)
            design = build_design_matrix(cohort, T=3, min_venue_size=1)
            frame = percentile_transform(cohort, 2020)
            table = anova_decompose(design, frame)
            for ordering in (table.venue_first, table.early_first):
                total = sum(r.ss for r in ordering)
                assert total == pytest.approx(table.ss_total, rel=1e-6)
                for r in ordering:
                    assert r.ss >= -1e-6 * table.ss_total


class TestBoxplotAggregate:
    def test_five_numbers_linear_interpolation(self):
        rows = boxplot_aggregate([1, 2, 3, 4, 5], [1] * 5, [0] * 5, ["g"])
        r = rows[0]
        assert (r.minimum, r.q1, r.median, r.q3, r.maximum) == (1, 2, 3, 4, 5)
        assert r.n == 5

    def test_single_value(self):
        r = boxplot_aggregate([7.5], [1], [0], ["g"])[0]
        assert r.minimum == r.q1 == r.median == r.q3 == r.maximum == 7.5

    def test_sorted_by_median_descending(self):
        values = [40, 40, 60, 60]
        groups = ["low", "low", "high", "high"]
        rows = boxplot_aggregate(values, [1] * 4, *group_codes(groups),
                                 sort_by_median=True)
        assert [r.label for r in rows] == ["high", "low"]

    def test_ordering_invariant(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(1, 50)
            values = [rng.uniform(0, 100) for _ in range(n)]
            groups = [rng.choice("abc") for _ in range(n)]
            rows = boxplot_aggregate(values, [1] * n, *group_codes(groups))
            for r in rows:
                assert r.minimum <= r.q1 <= r.median <= r.q3 <= r.maximum

    def test_empty_input(self):
        with pytest.raises(ValueError):
            boxplot_aggregate([], [], [], [])

    def test_group_without_values_gets_no_row(self):
        rows = boxplot_aggregate([1.0, 2.0, 3.0], [1, 1, 1], [2, 0, 2],
                                 ["b", "a", "c"])
        assert [(r.label, r.n) for r in rows] == [("b", 1), ("c", 2)]

    def test_rows_in_code_order_not_label_order(self):
        rows = boxplot_aggregate([4.0, 3.0, 2.0, 1.0], [1] * 4, [3, 2, 1, 0],
                                 ["2", "10", "11", "100"])
        assert [(r.label, r.median) for r in rows] == [
            ("2", 1.0), ("10", 2.0), ("11", 3.0), ("100", 4.0)]

    def test_equal_labels_keep_code_order(self):
        rows = boxplot_aggregate([5.0, 1.0], [1, 1], [0, 1], ["3", "3"])
        assert [r.median for r in rows] == [5.0, 1.0]

    @pytest.mark.parametrize("codes", [[0, 2], [-1, 0]])
    def test_codes_outside_labels(self, codes):
        with pytest.raises(ValueError):
            boxplot_aggregate([1.0, 2.0], [1, 1], codes, ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            boxplot_aggregate([1.0, 2.0], [1, 1], [0], ["a"])


#: Cell values with repeats; + 0.0 turns -0.0 into 0.0, whose tie with 0.0
#: np.percentile's partition may break either way.
CELL_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 25.0, 50.5, 1 / 3]),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x + 0.0))


class TestBoxplotCells:
    """Each cell's value stands for its rows: the rows are np.percentile's,
    min's and max's of the values repeated by size, bit for bit."""

    @given(st.lists(st.tuples(st.integers(0, 3), CELL_VALUES,
                              st.integers(1, 4)), min_size=1, max_size=10),
           st.booleans())
    @example([(0, 5.0, 1)], False)
    @example([(0, 5.0, 1), (0, 1.0, 1)], False)
    @example([(1, 2.0, 2), (1, 1 / 3, 1), (1, 7.0, 1)], False)
    @example([(0, 1.0, 3), (2, 1.0, 1), (0, 25.0, 2), (2, 50.5, 4)], True)
    @settings(max_examples=400, deadline=None)
    def test_cells_are_np_percentile_of_their_rows(self, cells, by_median):
        labels = ["d", "c", "b", "a"]
        codes, values, sizes = zip(*cells)
        expected = []
        for code, label in enumerate(labels):
            data = np.repeat([v for c, v, _ in cells if c == code],
                             [size for c, _, size in cells if c == code])
            if len(data):
                q1, median, q3 = np.percentile(data, [25, 50, 75])
                expected.append(BoxplotRow(
                    label, float(data.min()), float(q1), float(median),
                    float(q3), float(data.max()), len(data)))
        if by_median:
            expected.sort(key=lambda r: (-r.median, r.label))
        rows = boxplot_aggregate(values, sizes, codes, labels, by_median)
        assert repr(rows) == repr(expected)

    def test_sizes_below_one(self):
        with pytest.raises(ValueError):
            boxplot_aggregate([1.0, 2.0], [1, 0], [0, 0], ["a"])

    def test_sizes_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            boxplot_aggregate([1.0, 2.0], [1], [0, 0], ["a"])

    def test_design_cells_give_the_rows_boxplots(self):
        """The report's path: per-cell predictions and cell sizes give the
        rows of the per-row predictions."""
        rng = random.Random(21)
        cohort = random_cohort(rng, 300, venues=("A", "B", "C", "D"),
                               max_count=40)
        design = build_design_matrix(cohort, T=30, min_venue_size=1)
        fitted = fit_ols(design, percentile_transform(cohort, 2020))
        cells = predict_cohort(fitted, design)
        rows = cells[design.row_cell]
        for codes, labels in (
                (design.cell_early, [str(k) for k in (0, *design.early_levels)]),
                (design.cell_venue, (design.reference_venue,
                                     *design.venue_levels))):
            assert boxplot_aggregate(cells, design.cell_counts, codes,
                                     labels) == \
                boxplot_aggregate(rows, np.ones(len(rows), np.int64),
                                  codes[design.row_cell], labels)
