"""Command-line orchestration.

Subcommands: ingest, import, corr, venuecorr, groupstats, fit, predict,
anova, boxplot, triage, report, ledger.  All reports are deterministic:
identical inputs produce byte-identical outputs.  Every report subcommand
reads its cohort in one pass over the corpus; ``report`` writes the whole
report set from that one pass.  Exit codes: 0 success, 1 data or model
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import report as report_mod
from . import triage as triage_mod
from .errors import CiteGaugeError
from .metrics import DEFAULT_EARLY_OFFSET, DEFAULT_FUTURE_OFFSET
from .model import DEFAULT_MIN_VENUE_SIZE, DEFAULT_T

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2

#: Early levels of the prediction boxplots: a wider early factor than the
#: fitted model's default.
BOXPLOT_T = 30
#: The largest --T: early counts are int64, and T clips them.
MAX_T = 2 ** 63 - 1
#: The report set's fixed parameters: as many correlation years and the
#: early thresholds (also groupstats' default).  Its venue groups pool the
#: venues below the model's DEFAULT_MIN_VENUE_SIZE.
REPORT_YEARS = 8
REPORT_THRESHOLDS = (1, 2, 3, 10, 20)
#: The flags that one mode of a subcommand reads and the others never do:
#: (flag, default, the mode, whether the parsed args choose it).  Given in
#: another mode, such a flag is a usage error, not silently ignored.
_MODE_FLAGS = {
    "groupstats": (
        ("--thresholds", REPORT_THRESHOLDS, "--by early",
         lambda args: args.by == "early"),
        ("--early-offset", DEFAULT_EARLY_OFFSET, "--by early",
         lambda args: args.by == "early"),
        ("--min-size", 1, "--by venue", lambda args: args.by == "venue")),
    "triage": (
        ("--future-offset", DEFAULT_FUTURE_OFFSET, "--thresholds",
         lambda args: args.thresholds is not None),
        ("--min-venue-size", 1, "--thresholds",
         lambda args: args.thresholds is not None)),
}


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer in [low, high]."""
    def integer(text: str) -> int:  # named in "invalid integer value: ..."
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return integer


def _distinct(items: list, values: list) -> list:
    """values, the parsed items of a list flag, if no two are equal; else
    an ArgumentTypeError naming the first repeated item."""
    seen = set()
    for item, value in zip(items, values):
        if value in seen:
            raise argparse.ArgumentTypeError(
                f"item {item!r} repeats an earlier item")
        seen.add(value)
    return values


def _positive_int_list(text: str) -> list[int]:
    """argparse type: comma-separated distinct integers, each >= 1, e.g.
    "1,2,3,10,20"."""
    items, values = text.split(","), []
    for item in items:
        try:
            values.append(_int_in(1)(item))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"item {item!r} is not an integer >= 1") from None
    return _distinct(items, values)


def _parse_years(text: str) -> list[int]:
    """argparse type: "2016..2023" (inclusive, ascending) or distinct years
    "2016,2017,2020"."""
    if ".." in text:
        lo, hi = (_year(part) for part in text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(
                f"year range {text!r} is reversed or empty")
        return list(range(lo, hi + 1))
    items = text.split(",")
    return _distinct(items, [_year(y) for y in items])


def _venue_list(text: str) -> list[str]:
    """argparse type: comma-separated distinct venue names, none empty."""
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError("item '' is not a venue name")
    return _distinct(names, names)


def _year(text: str) -> int:
    """One year of --years or --pub-year, inside the corpus's year bounds."""
    try:
        year = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid year value: {text!r}") from None
    if not corpus_mod.YEAR_MIN <= year <= corpus_mod.YEAR_MAX:
        raise argparse.ArgumentTypeError(
            f"year {year} outside [{corpus_mod.YEAR_MIN}, {corpus_mod.YEAR_MAX}]")
    return year


def _report_pub_year(text: str) -> int:
    """argparse type for report's --pub-year: the year and the last year it
    correlates, each inside the corpus's year bounds."""
    year = _year(text)
    _year(str(year + REPORT_YEARS - 1))
    return year


def _parse_rate(text: str) -> ingest_mod.RateBudget:
    """argparse type: a request budget "N/SECONDS", e.g. 100/300."""
    try:
        n, window = text.split("/")
        return ingest_mod.RateBudget(int(n), float(window))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N/SECONDS with N >= 1 and finite SECONDS > 0, got {text!r}"
        ) from None


def _source_set(text: str) -> frozenset[corpus_mod.Source] | None:
    """argparse type: comma-separated source names, e.g. "ACL,ArXiv";
    empty means all sources."""
    if not text:
        return None
    sources = set()
    for item in text.split(","):
        try:
            sources.add(corpus_mod.Source.parse(item))
        except ValueError:
            names = ", ".join(s.value for s in corpus_mod.Source)
            raise argparse.ArgumentTypeError(
                f"item {item!r} is not a source ({names})") from None
    return frozenset(sources)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_cohort(args) -> corpus_mod.Cohort:
    aliases = (corpus_mod.load_venue_aliases(args.aliases) if args.aliases
               else None)
    return corpus_mod.load_cohort(args.corpus, args.pub_year, args.sources,
                                  strict=not args.lenient, aliases=aliases)


def _add_cohort_flags(parser, offsets=False, model_params=False, out=True,
                      pub_year=_year):
    parser.add_argument("--corpus", required=True, help="corpus JSONL file")
    parser.add_argument("--pub-year", type=pub_year, required=True)
    parser.add_argument("--sources", type=_source_set, default=None,
                        help="comma-separated: ACL,ArXiv,PubMed,Other (default all)")
    parser.add_argument("--aliases", default=None,
                        help="optional JSON file mapping raw venue -> canonical name")
    parser.add_argument("--lenient", action="store_true",
                        help="ignore unknown corpus keys instead of rejecting")
    if out:
        parser.add_argument("--out", default=None,
                            help="output path (default stdout)")
    if offsets or model_params:
        parser.add_argument("--early-offset", type=_int_in(1),
                            default=DEFAULT_EARLY_OFFSET)
        parser.add_argument("--future-offset", type=_int_in(1),
                            default=DEFAULT_FUTURE_OFFSET)
    if model_params:
        parser.add_argument("--T", type=_int_in(1, MAX_T), default=DEFAULT_T)
        parser.add_argument("--min-venue-size", type=_int_in(1),
                            default=DEFAULT_MIN_VENUE_SIZE)
        parser.add_argument("--reference-venue", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citegauge",
        description="Citation forecasting and bibliometrics reports",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="fetch citation counts from the graph API")
    p.add_argument("--ids-file", required=True, help="one paper id per line")
    p.add_argument("--out", required=True, help="corpus JSONL to write")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--base-url", default=ingest_mod.ClientConfig.base_url)
    p.add_argument("--page-size", type=_int_in(1),
                   default=ingest_mod.DEFAULT_PAGE_SIZE)
    p.add_argument("--rate", type=_parse_rate, default=None,
                   help="budget as REQUESTS/SECONDS, e.g. 100/300")
    p.add_argument("--workers", type=_int_in(1), default=4)

    p = sub.add_parser("import", help="import a pre-aggregated count table")
    p.add_argument("--table", required=True, help="CSV: id,venue,source,pub_year,<years...>")
    p.add_argument("--out", required=True, help="corpus JSONL to write")

    p = sub.add_parser("corr", help="year x year citation correlation table")
    _add_cohort_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--years", type=_parse_years, required=True,
                   help="e.g. 2016..2023")

    p = sub.add_parser("venuecorr", help="venue-indicator correlation table")
    _add_cohort_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--years", type=_parse_years, required=True)
    p.add_argument("--venues", type=_venue_list, required=True,
                   help="comma-separated venue names")

    p = sub.add_parser("groupstats", help="h/median/mu/sigma/N per group")
    _add_cohort_flags(p, offsets=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--by", choices=["early", "venue"], default="early")
    p.add_argument("--thresholds", type=_positive_int_list,
                   help="early-citation thresholds, each >= 1 (by=early)")
    p.add_argument("--min-size", type=_int_in(1),
                   help="venues below this pool into 'All other venues' (by=venue)")

    p = sub.add_parser("fit", help="fit the percentile regression for one year")
    _add_cohort_flags(p, model_params=True)
    p.add_argument("--model-out", default=None, help="save fitted model JSON here")

    p = sub.add_parser("predict", help="predict a percentile from a saved model")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.add_argument("--venue", required=True)
    p.add_argument("--early", type=_int_in(0), required=True)

    p = sub.add_parser("anova", help="variance attribution for a fitted year")
    _add_cohort_flags(p, model_params=True)

    p = sub.add_parser("boxplot", help="five-number summaries of predictions")
    _add_cohort_flags(p, model_params=True)
    p.set_defaults(T=BOXPLOT_T)
    p.add_argument("--by", choices=["early", "venue"], default="early")

    p = sub.add_parser("triage", help="rank papers by early returns")
    _add_cohort_flags(p, offsets=True)
    p.add_argument("--model", default=None, help="optional fitted model JSON")
    p.add_argument("--thresholds", type=_positive_int_list, default=None,
                   help="also emit threshold-vs-venue comparison rows")
    p.add_argument("--min-venue-size", type=_int_in(1),
                   help="venues smaller than this are not compared "
                   "(with --thresholds)")

    p = sub.add_parser(
        "report", help="write every report table from one pass over the corpus",
        description="Write year_correlations.csv, early_threshold_groups.csv, "
        "venue_groups.csv, coefficients.csv, model.json, anova.csv, "
        "boxplot_by_early.csv, boxplot_by_venue.csv and triage.csv to "
        f"--outdir.  --T shapes the fitted model; the boxplots use "
        f"T={BOXPLOT_T}.")
    _add_cohort_flags(p, out=False, pub_year=_report_pub_year)
    p.add_argument("--T", type=_int_in(1, MAX_T), default=DEFAULT_T)
    p.add_argument("--outdir", required=True, help="directory to write into")

    p = sub.add_parser("ledger", help="nomination/review accounting")
    p.add_argument("--file", required=True, help="append-only event JSONL")
    p.add_argument("action", choices=["nominate", "review", "show"])
    p.add_argument("--nominator", default=None)
    p.add_argument("--paper", default=None)

    for name, flags in _MODE_FLAGS.items():
        # None marks a mode flag not given; main puts its default in
        sub.choices[name].set_defaults(**{_dest(flag): None
                                          for flag, *_ in flags})
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _mode_flag_error(args) -> str | None:
    """Put in the default of each mode flag not given; the usage error of
    one given that the chosen mode never reads, or None."""
    for flag, default, mode, chosen in _MODE_FLAGS.get(args.subcommand, ()):
        if getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), default)
        elif not chosen(args):
            return f"argument {flag}: read only with {mode}"
    return None


def _cmd_ingest(args) -> int:
    text = corpus_mod.read_text(args.ids_file, ValueError, "ids file")
    ids = [line.strip() for line in io.StringIO(text, newline=None)
           if line.strip()]
    config = ingest_mod.ClientConfig(base_url=args.base_url,
                                     page_size=args.page_size,
                                     rate_budget=args.rate)
    client = ingest_mod.ApiClient(config)
    report = ingest_mod.build_corpus(ids, args.out, args.checkpoint, client,
                                     workers=args.workers)
    print(f"requested={report.requested} written={report.written} "
          f"skipped={report.skipped} failed={len(report.failures)} "
          f"unknown_year_citations={report.unknown_year_citations}")
    for paper_id, error in sorted(report.failures.items()):
        print(f"  failed {paper_id}: {error}", file=sys.stderr)
    return EXIT_OK


def _cmd_import(args) -> int:
    records = ingest_mod.import_table(args.table)
    n = corpus_mod.write_corpus(records, args.out)
    print(f"imported {n} records -> {args.out}")
    return EXIT_OK


def _correlation_text(table, fmt: str) -> str:
    return (report_mod.correlation_json(table) if fmt == "json"
            else report_mod.correlation_csv(table))


def _threshold_groups(cohort, thresholds, early_offset=DEFAULT_EARLY_OFFSET,
                      future_offset=DEFAULT_FUTURE_OFFSET) -> list:
    """group_by_early_threshold, noting each empty threshold on stderr."""
    stats = metrics_mod.group_by_early_threshold(cohort, thresholds,
                                                 early_offset, future_offset)
    emitted = {s.threshold for s in stats}
    for t in thresholds:
        if t not in emitted:
            print(f"note: threshold {t}+ group is empty, row omitted",
                  file=sys.stderr)
    return stats


def _model_inputs(cohort, T: int, early_offset=DEFAULT_EARLY_OFFSET,
                  future_offset=DEFAULT_FUTURE_OFFSET,
                  min_venue_size=DEFAULT_MIN_VENUE_SIZE, reference_venue=None):
    """The design at T and the future percentiles it is fitted to."""
    frame = model_mod.percentile_transform(cohort,
                                           cohort.pub_year + future_offset)
    design = model_mod.build_design_matrix(
        cohort, T=T, early_offset=early_offset,
        min_venue_size=min_venue_size, reference_venue=reference_venue)
    return design, frame


def _flag_model_inputs(cohort, args):
    return _model_inputs(cohort, args.T, args.early_offset,
                         args.future_offset, args.min_venue_size,
                         args.reference_venue)


def _boxplot_text(design, predictions, by: str) -> str:
    """Prediction boxplots by early level or venue level, grouped by each
    row's cell's level code."""
    if by == "early":
        labels = [f"{lvl:02d}" for lvl in (0, *design.early_levels)]
        rows = model_mod.boxplot_aggregate(
            predictions, design.cell_early[design.row_cell], labels)
    else:
        rows = model_mod.boxplot_aggregate(
            predictions, design.cell_venue[design.row_cell],
            (design.reference_venue, *design.venue_levels),
            sort_by_median=True)
    return report_mod.boxplot_csv(rows)


def _triage_text(cohort, threshold_stats, min_venue_size=1,
                 early_offset=DEFAULT_EARLY_OFFSET,
                 future_offset=DEFAULT_FUTURE_OFFSET, fitted=None) -> str:
    """The ranking, plus comparison rows of the early-threshold groups
    `threshold_stats` against the venues when they are given."""
    ranking = triage_mod.ddi_rank(cohort, early_offset, fitted)
    comparisons = None
    if threshold_stats is not None:
        venue_stats = [s for s in metrics_mod.group_by_venue(
            cohort, future_offset=future_offset) if s.n >= min_venue_size]
        comparisons = triage_mod.rule_of_thumb(
            [s for s in threshold_stats if s.threshold != 0], venue_stats)
    return report_mod.triage_csv(ranking, comparisons)


def _corr(cohort, args) -> str:
    return _correlation_text(
        metrics_mod.year_correlation_matrix(cohort, args.years), args.format)


def _venuecorr(cohort, args) -> str:
    known = set(cohort.venue_names)
    for venue in args.venues:
        if venue not in known:
            raise ValueError(f"no paper of the cohort has venue {venue!r}")
    return _correlation_text(metrics_mod.venue_correlation_table(
        cohort, args.venues, args.years), args.format)


def _groupstats(cohort, args) -> str:
    if args.by == "early":
        stats = _threshold_groups(cohort, args.thresholds, args.early_offset,
                                  args.future_offset)
    else:
        stats = metrics_mod.group_by_venue(cohort, min_size=args.min_size,
                                           future_offset=args.future_offset)
    return (report_mod.group_stats_json(stats) if args.format == "json"
            else report_mod.group_stats_csv(stats))


def _fit(cohort, args) -> str:
    fitted = model_mod.fit_ols(*_flag_model_inputs(cohort, args))
    if args.model_out:
        _emit(model_mod.model_json(fitted), args.model_out)
    return report_mod.coefficients_csv(fitted)


def _anova(cohort, args) -> str:
    return report_mod.anova_csv(
        model_mod.anova_decompose(*_flag_model_inputs(cohort, args)))


def _boxplot(cohort, args) -> str:
    design, frame = _flag_model_inputs(cohort, args)
    fitted = model_mod.fit_ols(design, frame)
    return _boxplot_text(design, model_mod.predict_cohort(fitted, design),
                         args.by)


def _triage(cohort, args) -> str:
    fitted = model_mod.load_model(args.model) if args.model else None
    threshold_stats = (_threshold_groups(cohort, args.thresholds,
                                         args.early_offset, args.future_offset)
                       if args.thresholds else None)
    return _triage_text(cohort, threshold_stats, args.min_venue_size,
                        args.early_offset, args.future_offset, fitted)


#: The single report subcommands, each a function (cohort, args) -> text.
_TABLES = {"corr": _corr, "venuecorr": _venuecorr, "groupstats": _groupstats,
           "fit": _fit, "anova": _anova, "boxplot": _boxplot,
           "triage": _triage}


def _cmd_table(args) -> int:
    """Load the cohort, compute the subcommand's table and emit it."""
    _emit(_TABLES[args.subcommand](_load_cohort(args), args), args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    fitted = model_mod.load_model(args.model)
    value = fitted.predict(args.venue, args.early)
    print(f"{value:.1f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    """The nine report files from one load, one percentile transform and
    one fit per design (--T for the model and anova, BOXPLOT_T for both
    boxplots).  Every text is computed and encoded before --outdir is
    made, so a run that fails on the data writes nothing; each is kept
    only as its bytes.  The flags that report does not take keep the
    library defaults."""
    cohort = _load_cohort(args)
    data = {}   # file name -> its UTF-8 bytes, each text let go once encoded

    def add(name: str, text: str) -> None:
        data[name] = text.encode("utf-8")

    years = list(range(cohort.pub_year, cohort.pub_year + REPORT_YEARS))
    add("year_correlations.csv", report_mod.correlation_csv(
        metrics_mod.year_correlation_matrix(cohort, years)))
    threshold_stats = _threshold_groups(cohort, REPORT_THRESHOLDS)
    add("early_threshold_groups.csv",
        report_mod.group_stats_csv(threshold_stats))
    add("venue_groups.csv", report_mod.group_stats_csv(
        metrics_mod.group_by_venue(cohort, min_size=DEFAULT_MIN_VENUE_SIZE)))
    design, frame = _model_inputs(cohort, args.T)
    fitted = model_mod.fit_ols(design, frame)
    add("model.json", model_mod.model_json(fitted))
    add("coefficients.csv", report_mod.coefficients_csv(fitted))
    add("anova.csv", report_mod.anova_csv(
        model_mod.anova_decompose(design, frame)))
    design = model_mod.build_design_matrix(cohort, T=BOXPLOT_T)
    predictions = model_mod.predict_cohort(model_mod.fit_ols(design, frame),
                                           design)
    add("boxplot_by_early.csv", _boxplot_text(design, predictions, "early"))
    add("boxplot_by_venue.csv", _boxplot_text(design, predictions, "venue"))
    add("triage.csv", _triage_text(cohort, threshold_stats))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, blob in data.items():
        (outdir / name).write_bytes(blob)
        print(f"wrote {outdir / name}")
    return EXIT_OK


def _cmd_ledger(args) -> int:
    recording = args.action in ("nominate", "review")
    if recording and not (args.nominator and args.paper):
        print("error: --nominator and --paper are required", file=sys.stderr)
        return EXIT_USAGE
    ledger = triage_mod.NominationLedger(args.file)
    if recording:
        kind = "nomination" if args.action == "nominate" else "review"
        states = {args.nominator: ledger.record(kind, args.nominator,
                                                args.paper)}
    else:
        states = {name: ledger.state(name) for name in ledger.balances()}
    for name, state in states.items():
        print(f"{name}: nominations={state.nominations} "
              f"reviews={state.reviews} balance={state.balance}")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "import": _cmd_import,
    "predict": _cmd_predict,
    "report": _cmd_report,
    "ledger": _cmd_ledger,
    **dict.fromkeys(_TABLES, _cmd_table),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    error = _mode_flag_error(args)
    if error:
        print(f"citegauge {args.subcommand}: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except (CiteGaugeError, OSError, ValueError) as exc:
        print(f"citegauge {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
