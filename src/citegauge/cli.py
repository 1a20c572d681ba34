"""Command-line orchestration.

Subcommands: ingest, import, corr, venuecorr, groupstats, fit, predict,
anova, boxplot, triage, ledger.  All reports are deterministic: identical
inputs produce byte-identical outputs.  Exit codes: 0 success, 1 data or
model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus as corpus_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import report as report_mod
from . import triage as triage_mod
from .errors import CiteGaugeError

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers, each >= 1, e.g. "1,2,3,10,20"."""
    values = []
    for item in text.split(","):
        try:
            values.append(_positive_int(item))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"item {item!r} is not an integer >= 1") from None
    return values


def _parse_years(text: str) -> list[int]:
    """argparse type: "2016..2023" (inclusive, ascending) or "2016,2017,2020"."""
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(
                f"year range {text!r} is reversed or empty")
        return list(range(lo, hi + 1))
    return [int(y) for y in text.split(",")]


def _parse_rate(text: str) -> ingest_mod.RateBudget:
    """argparse type: a request budget "N/SECONDS", e.g. 100/300."""
    try:
        n, window = text.split("/")
        return ingest_mod.RateBudget(int(n), float(window))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N/SECONDS with N >= 1 and SECONDS > 0, got {text!r}"
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
    records = corpus_mod.load_corpus(args.corpus, strict=not args.lenient)
    if getattr(args, "aliases", None):
        aliases = corpus_mod.load_venue_aliases(args.aliases)
        records = corpus_mod.apply_venue_aliases(records, aliases)
    return corpus_mod.filter_cohort(records, args.pub_year, args.sources)


def _add_cohort_flags(parser, offsets=False, model_params=False):
    parser.add_argument("--corpus", required=True, help="corpus JSONL file")
    parser.add_argument("--pub-year", type=int, required=True)
    parser.add_argument("--sources", type=_source_set, default=None,
                        help="comma-separated: ACL,ArXiv,PubMed,Other (default all)")
    parser.add_argument("--aliases", default=None,
                        help="optional JSON file mapping raw venue -> canonical name")
    parser.add_argument("--lenient", action="store_true",
                        help="ignore unknown corpus keys instead of rejecting")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if offsets or model_params:
        parser.add_argument("--early-offset", type=_positive_int,
                            default=metrics_mod.DEFAULT_EARLY_OFFSET)
        parser.add_argument("--future-offset", type=_positive_int,
                            default=metrics_mod.DEFAULT_FUTURE_OFFSET)
    if model_params:
        parser.add_argument("--T", type=_positive_int, default=model_mod.DEFAULT_T)
        parser.add_argument("--min-venue-size", type=_positive_int,
                            default=model_mod.DEFAULT_MIN_VENUE_SIZE)
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
    p.add_argument("--page-size", type=_positive_int,
                   default=ingest_mod.DEFAULT_PAGE_SIZE)
    p.add_argument("--rate", type=_parse_rate, default=None,
                   help="budget as REQUESTS/SECONDS, e.g. 100/300")
    p.add_argument("--workers", type=_positive_int, default=4)

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
    p.add_argument("--venues", required=True, help="comma-separated venue names")

    p = sub.add_parser("groupstats", help="h/median/mu/sigma/N per group")
    _add_cohort_flags(p, offsets=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--by", choices=["early", "venue"], default="early")
    p.add_argument("--thresholds", type=_positive_int_list,
                   default="1,2,3,10,20",
                   help="early-citation thresholds, each >= 1 (by=early)")
    p.add_argument("--min-size", type=_positive_int, default=1,
                   help="venues below this pool into 'All other venues' (by=venue)")

    p = sub.add_parser("fit", help="fit the percentile regression for one year")
    _add_cohort_flags(p, model_params=True)
    p.add_argument("--model-out", default=None, help="save fitted model JSON here")

    p = sub.add_parser("predict", help="predict a percentile from a saved model")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.add_argument("--venue", required=True)
    p.add_argument("--early", type=_non_negative_int, required=True)

    p = sub.add_parser("anova", help="variance attribution for a fitted year")
    _add_cohort_flags(p, model_params=True)

    p = sub.add_parser("boxplot", help="five-number summaries of predictions")
    _add_cohort_flags(p, model_params=True)
    p.set_defaults(T=30)  # wider early factor for the prediction plots
    p.add_argument("--by", choices=["early", "venue"], default="early")

    p = sub.add_parser("triage", help="rank papers by early returns")
    _add_cohort_flags(p, offsets=True)
    p.add_argument("--model", default=None, help="optional fitted model JSON")
    p.add_argument("--thresholds", type=_positive_int_list, default=None,
                   help="also emit threshold-vs-venue comparison rows")
    p.add_argument("--min-venue-size", type=_positive_int, default=1)

    p = sub.add_parser("ledger", help="nomination/review accounting")
    p.add_argument("--file", required=True, help="append-only event JSONL")
    p.add_argument("action", choices=["nominate", "review", "show"])
    p.add_argument("--nominator", default=None)
    p.add_argument("--paper", default=None)

    return parser


def _fit_from_args(args):
    cohort = _load_cohort(args)
    frame = model_mod.percentile_transform(
        cohort, cohort.pub_year + args.future_offset)
    design = model_mod.build_design_matrix(
        cohort, T=args.T, early_offset=args.early_offset,
        min_venue_size=args.min_venue_size,
        reference_venue=args.reference_venue)
    fitted = model_mod.fit_ols(design, frame)
    return cohort, frame, design, fitted


def _cmd_ingest(args) -> int:
    with open(args.ids_file, encoding="utf-8") as handle:
        ids = [line.strip() for line in handle if line.strip()]
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


def _cmd_corr(args) -> int:
    cohort = _load_cohort(args)
    table = metrics_mod.year_correlation_matrix(cohort, args.years)
    text = (report_mod.correlation_json(table) if args.format == "json"
            else report_mod.correlation_csv(table))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_venuecorr(args) -> int:
    cohort = _load_cohort(args)
    table = metrics_mod.venue_correlation_table(
        cohort, args.venues.split(","), args.years)
    text = (report_mod.correlation_json(table) if args.format == "json"
            else report_mod.correlation_csv(table))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_groupstats(args) -> int:
    cohort = _load_cohort(args)
    if args.by == "early":
        stats = metrics_mod.group_by_early_threshold(
            cohort, args.thresholds, early_offset=args.early_offset,
            future_offset=args.future_offset)
        emitted = {s.threshold for s in stats}
        for t in args.thresholds:
            if t not in emitted:
                print(f"note: threshold {t}+ group is empty, row omitted",
                      file=sys.stderr)
    else:
        stats = metrics_mod.group_by_venue(cohort, min_size=args.min_size,
                                           future_offset=args.future_offset)
    text = (report_mod.group_stats_json(stats) if args.format == "json"
            else report_mod.group_stats_csv(stats))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    _, _, _, fitted = _fit_from_args(args)
    if args.model_out:
        model_mod.save_model(fitted, args.model_out)
    _emit(report_mod.coefficients_csv(fitted), args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    fitted = model_mod.load_model(args.model)
    value = fitted.predict(args.venue, args.early)
    print(f"{value:.1f}")
    return EXIT_OK


def _cmd_anova(args) -> int:
    _, frame, design, _ = _fit_from_args(args)
    table = model_mod.anova_decompose(design, frame)
    _emit(report_mod.anova_csv(table), args.out)
    return EXIT_OK


def _cmd_boxplot(args) -> int:
    _, _, design, fitted = _fit_from_args(args)
    predictions = model_mod.predict_cohort(fitted, design)
    if args.by == "early":
        groups = [f"{lvl:02d}" for lvl in design.row_early]
        rows = model_mod.boxplot_aggregate(predictions, groups)
    else:
        rows = model_mod.boxplot_aggregate(predictions, design.row_venues,
                                           sort_by_median=True)
    _emit(report_mod.boxplot_csv(rows), args.out)
    return EXIT_OK


def _cmd_triage(args) -> int:
    cohort = _load_cohort(args)
    fitted = model_mod.load_model(args.model) if args.model else None
    ranking = triage_mod.ddi_rank(cohort, early_offset=args.early_offset,
                                  model=fitted)
    comparisons = None
    if args.thresholds:
        threshold_stats = [s for s in metrics_mod.group_by_early_threshold(
            cohort, args.thresholds, early_offset=args.early_offset,
            future_offset=args.future_offset) if s.threshold != 0]
        venue_stats = [s for s in metrics_mod.group_by_venue(
            cohort, min_size=args.min_venue_size,
            future_offset=args.future_offset)
            if s.label != metrics_mod.OTHER_VENUES_LABEL]
        comparisons = triage_mod.rule_of_thumb(threshold_stats, venue_stats)
    _emit(report_mod.triage_csv(ranking, comparisons), args.out)
    return EXIT_OK


def _cmd_ledger(args) -> int:
    ledger = triage_mod.NominationLedger(args.file)
    if args.action in ("nominate", "review"):
        if not args.nominator or not args.paper:
            print("error: --nominator and --paper are required", file=sys.stderr)
            return EXIT_USAGE
        if args.action == "nominate":
            state = ledger.record_nomination(args.nominator, args.paper)
        else:
            state = ledger.record_review(args.nominator, args.paper)
        print(f"{args.nominator}: nominations={state.nominations} "
              f"reviews={state.reviews} balance={state.balance}")
    else:
        for name, balance in ledger.balances().items():
            state = ledger.state(name)
            print(f"{name}: nominations={state.nominations} "
                  f"reviews={state.reviews} balance={balance}")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "import": _cmd_import,
    "corr": _cmd_corr,
    "venuecorr": _cmd_venuecorr,
    "groupstats": _cmd_groupstats,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "anova": _cmd_anova,
    "boxplot": _cmd_boxplot,
    "triage": _cmd_triage,
    "ledger": _cmd_ledger,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except (CiteGaugeError, OSError, ValueError) as exc:
        print(f"citegauge {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
