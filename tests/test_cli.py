import argparse
import json
import random
from collections import Counter
from itertools import chain

import orjson
import pytest

from citegauge import corpus as corpus_mod
from citegauge import metrics as metrics_mod
from citegauge import model as model_mod
from citegauge.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, build_parser, main
from citegauge.corpus import filter_cohort, load_corpus, write_corpus
from citegauge.ingest import ids_sha256
from citegauge.model import (
    anova_decompose,
    build_design_matrix,
    percentile_transform,
)
from citegauge.report import anova_csv

from conftest import UNDECODABLE, make_records
from test_ingest import citations_body, fake_urlopen, paper_body


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Each subcommand that reads a cohort, with the flags it requires besides
#: --corpus and --pub-year.
COHORT_SUBCOMMANDS = {
    "corr": ["--years", "2016..2017"],
    "venuecorr": ["--years", "2016..2017", "--venues", "TopJournal"],
    "groupstats": [], "fit": [], "anova": [], "boxplot": [], "triage": [],
    "report": ["--outdir", "reports"]}


@pytest.fixture
def fixture_args(fixture_corpus_path):
    return ["--corpus", str(fixture_corpus_path), "--pub-year", "2016"]


class TestUsage:
    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_no_subcommand_exit_2(self, capsys):
        code, _, _ = run([], capsys)
        assert code == EXIT_USAGE

    def test_missing_corpus_file_exit_1(self, capsys):
        code, _, err = run(["corr", "--corpus", "/nonexistent", "--pub-year",
                            "2016", "--years", "2016..2017"], capsys)
        assert code == EXIT_DATA_ERROR
        assert "corr" in err and "error" in err

    @pytest.mark.parametrize("args", [
        ["fit", "--early-offset", "-1"],
        ["fit", "--future-offset", "0"],
        ["fit", "--min-venue-size", "0"],
        ["fit", "--T", "0"],
        ["anova", "--T", "0"],
        ["boxplot", "--early-offset", "0"],
        ["groupstats", "--future-offset", "-3"],
        ["groupstats", "--by", "venue", "--min-size", "0"],
        ["triage", "--early-offset", "0"],
        ["triage", "--min-venue-size", "0"],
        ["corr", "--years", "2020..2016"],
        ["corr", "--years", "2016,,2017"],
        ["venuecorr", "--venues", "TopJournal", "--years", "2017..2016"],
        # a flag that the chosen mode never reads
        ["groupstats", "--by", "venue", "--thresholds", "1,2"],
        ["groupstats", "--by", "venue", "--early-offset", "2"],
        ["groupstats", "--min-size", "2"],
        ["triage", "--min-venue-size", "2"],
        ["triage", "--future-offset", "3"],
        # a repeated list item
        ["groupstats", "--thresholds", "3,1,1"],
        ["corr", "--years", "2017,2017,2016"],
        ["venuecorr", "--years", "2016", "--venues", "NLP,NLP"],
        # an empty list item
        ["venuecorr", "--years", "2016", "--venues", ",TopJournal"],
    ], ids=lambda a: "-".join(a))
    def test_bad_cohort_flag_exit_2(self, args, fixture_args, capsys):
        code, out, err = run([args[0], *fixture_args, *args[1:]], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert args[-2] in err

    @pytest.mark.parametrize("subcommand", ["fit", "anova", "boxplot",
                                            "report"])
    @pytest.mark.parametrize("value", [str(2 ** 63), "100000000000000000000"])
    def test_T_past_int64_exit_2(self, subcommand, value, fixture_args,
                                 tmp_path, capsys):
        outdir = tmp_path / "reports"
        extra = ["--outdir", str(outdir)] if subcommand == "report" else []
        code, out, err = run([subcommand, *fixture_args, *extra,
                              "--T", value], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--T" in err and value in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag", ["--early-offset", "--future-offset",
                                      "--min-venue-size", "--reference-venue"])
    def test_report_takes_no_other_model_flag(self, flag, fixture_args,
                                               tmp_path, capsys):
        outdir = tmp_path / "reports"
        code, out, err = run(["report", *fixture_args, "--outdir",
                              str(outdir), flag, "1"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err
        assert not outdir.exists()

    def test_T_at_int64_max_accepted(self, fixture_args, capsys):
        # no early count reaches either T, so the fits are the same
        code, at_max, _ = run(["fit", *fixture_args, "--T", str(2 ** 63 - 1)],
                              capsys)
        assert code == EXIT_OK
        code, at_1000, _ = run(["fit", *fixture_args, "--T", "1000"], capsys)
        assert code == EXIT_OK
        assert at_max == at_1000

    @pytest.mark.parametrize("subcommand,flag,years,bad_year", [
        *(pytest.param(subcommand, "--years", years, bad_year,
                       id=f"{years}-{bad_year}-{subcommand}")
          for years, bad_year in [("1500..1502", "1500"),
                                  ("2016,1899", "1899"),
                                  ("2016..2101", "2101")]
          for subcommand in ["corr", "venuecorr"]),
        *(pytest.param(subcommand, "--pub-year", year, year,
                       id=f"pub-year-{year}-{subcommand}")
          for subcommand in COHORT_SUBCOMMANDS for year in ["1899", "3000"]),
    ])
    def test_years_outside_bounds_exit_2(self, subcommand, flag, years,
                                         bad_year, fixture_args, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run([subcommand, *fixture_args,
                              *COHORT_SUBCOMMANDS[subcommand], flag, years],
                             capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"year {bad_year} outside [1900, 2100]" in err

    @pytest.mark.parametrize("argv,flag,value", [
        pytest.param(["corr", "--pub-year", "2016", "--years", "x"],
                     "--years", "x", id="years"),
        pytest.param(["corr", "--pub-year", "2016", "--years", "2016..2x"],
                     "--years", "2x", id="years-range"),
        pytest.param(["report", "--outdir", "out", "--pub-year", "x"],
                     "--pub-year", "x", id="report-pub-year"),
        *(pytest.param([subcommand, *COHORT_SUBCOMMANDS[subcommand],
                        "--pub-year", "x"], "--pub-year", "x",
                       id=f"{subcommand}-pub-year")
          for subcommand in COHORT_SUBCOMMANDS if subcommand != "report"),
    ])
    def test_unparseable_year_exit_2_names_the_value(
            self, argv, flag, value, fixture_corpus_path, tmp_path,
            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run([argv[0], "--corpus", str(fixture_corpus_path),
                              *argv[1:]], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == (f"citegauge {argv[0]}: error: "
                                        f"argument {flag}: invalid year "
                                        f"value: {value!r}")

    @pytest.mark.parametrize("subcommand", ["groupstats", "triage"])
    @pytest.mark.parametrize("value,bad_item", [
        ("1,x", "x"), ("-2,0", "-2"), ("0", "0"), ("1,,2", ""), ("3,1.5", "1.5"),
        ("3,1,1", "1"),
    ])
    def test_bad_thresholds_exit_2(self, subcommand, value, bad_item,
                                   fixture_args, capsys):
        code, out, err = run([subcommand, *fixture_args,
                              f"--thresholds={value}"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--thresholds" in err and f"item {bad_item!r}" in err

    @pytest.mark.parametrize("value,bad_item", [
        ("Foo", "Foo"), ("ACL,Twitter", "Twitter"), ("ACL,,PubMed", ""),
    ])
    def test_bad_sources_exit_2(self, value, bad_item, fixture_args, capsys):
        code, out, err = run(["groupstats", *fixture_args,
                              f"--sources={value}"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--sources" in err and f"item {bad_item!r}" in err

    def test_sources_parsed_case_insensitively(self, fixture_args, capsys):
        code, all_out, _ = run(["groupstats", *fixture_args], capsys)
        assert code == EXIT_OK
        code, out, _ = run(["groupstats", *fixture_args,
                            "--sources", "acl,ARXIV,PubMed,other"], capsys)
        assert code == EXIT_OK
        assert out == all_out

    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_bad_predict_early_exit_2(self, value, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("{}")
        code, out, err = run(["predict", "--model", str(model_path),
                              "--venue", "V", f"--early={value}"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--early" in err

    @pytest.mark.parametrize("flag,value", [
        ("--rate", "abc"), ("--rate", "100"), ("--rate", "1/2/3"),
        ("--rate", "0/300"), ("--rate", "10/0"), ("--rate", "10/nan"),
        ("--rate", "x/300"), ("--rate", "2/inf"), ("--rate", "2/1e400"),
        ("--page-size", "0"), ("--workers", "0"),
    ])
    def test_bad_ingest_flag_exit_2(self, flag, value, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\n")
        code, _, err = run(["ingest", "--ids-file", str(ids),
                            "--out", str(tmp_path / "c.jsonl"),
                            "--checkpoint", str(tmp_path / "ck.json"),
                            flag, value], capsys)
        assert code == EXIT_USAGE
        assert flag in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("subcommand", ["fit", "anova", "boxplot",
                                            "triage"])
    def test_format_only_where_json_is_rendered(self, subcommand,
                                                fixture_args, capsys):
        code, out, err = run([subcommand, *fixture_args, "--format", "json"],
                             capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--format" in err


def _checkpoint(last_id, **extra):
    """A checkpoint for the ids file "p1" with an empty corpus, as JSON."""
    return json.dumps({"last_completed_paper_id": last_id, "corpus_bytes": 0,
                       "ids_sha256": ids_sha256(["p1"]), **extra})


class TestIngestCheckpoint:
    @pytest.mark.parametrize("text,problem", [
        (_checkpoint("p1", page_offset=0),
         "unexpected keyword argument 'page_offset'"),
        ("[1]", "must be a mapping, not list"),
        ('{"corpus_path": ', "invalid JSON"),
        (_checkpoint("other-id"), "'other-id' is not among the ids"),
        (_checkpoint(None), "None is not among the ids"),
        ('{"corpus_path": "c.jsonl", "last_completed_paper_id": "p1", '
         '"page_offset": 0, "timestamp": 0.0}',
         "unexpected keyword argument 'corpus_path'"),
    ], ids=["unknown-key", "not-an-object", "invalid-json", "id-not-in-list",
            "null-id", "old-format"])
    def test_malformed_checkpoint_exit_1_names_file(self, text, problem,
                                                    tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\n")
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(b"")
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text(text)
        # the checkpoint is read before any request; a closed local port
        # keeps a regression from reaching the network
        code, out, err = run(["ingest", "--ids-file", str(ids),
                              "--out", str(corpus),
                              "--checkpoint", str(checkpoint),
                              "--base-url", "http://127.0.0.1:9"], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert f"checkpoint {checkpoint}: " in err and problem in err
        assert "Traceback" not in err
        assert corpus.read_bytes() == b""


class TestImportAndCorr:
    def test_import_then_corr_table_shape(self, table1_path, tmp_path, capsys):
        corpus = tmp_path / "acl.jsonl"
        code, out, _ = run(["import", "--table", str(table1_path),
                            "--out", str(corpus)], capsys)
        assert code == EXIT_OK
        assert "6 records" in out

        out_csv = tmp_path / "corr.csv"
        code, _, _ = run(["corr", "--corpus", str(corpus), "--pub-year",
                          "2016", "--years", "2016..2021",
                          "--out", str(out_csv)], capsys)
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header[1:] == [str(y) for y in range(2016, 2022)]
        # 6 display rows, unit diagonal
        for i, line in enumerate(lines[1:7], 1):
            cells = line.split(",")
            assert cells[i] == "1.00"

    def test_import_duplicate_id_exit_1(self, tmp_path, capsys):
        table, out = tmp_path / "t.csv", tmp_path / "c.jsonl"
        table.write_text("id,venue,source,pub_year,2016\n"
                         "a,V,ACL,2016,1\nb,V,ACL,2016,2\na,W,ACL,2016,3\n",
                         encoding="utf-8")
        code, stdout, err = run(["import", "--table", str(table),
                                 "--out", str(out)], capsys)
        assert code == EXIT_DATA_ERROR
        assert stdout == ""
        assert err == ("citegauge import: error: row 4: duplicate id 'a' "
                       "(first on row 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("years,cells,second", [
        ("2020,2020", "5,7", "2020"),
        ("2020,2021,\uff12\uff10\uff12\uff10", "5,6,7",
         "\uff12\uff10\uff12\uff10")], ids=["same", "fullwidth"])
    def test_import_year_with_two_columns_exit_1(self, years, cells, second,
                                                 tmp_path, capsys):
        table, out = tmp_path / "t.csv", tmp_path / "c.jsonl"
        table.write_text(f"id,venue,source,pub_year,{years}\n"
                         f"p1,V,ACL,2016,{cells}\n", encoding="utf-8")
        code, stdout, err = run(["import", "--table", str(table),
                                 "--out", str(out)], capsys)
        assert code == EXIT_DATA_ERROR
        assert stdout == ""
        assert err == (f"citegauge import: error: year column {second!r} "
                       f"repeats year 2020\n")
        assert not out.exists()

    def test_venuecorr(self, table1_path, tmp_path, capsys):
        corpus = tmp_path / "acl.jsonl"
        run(["import", "--table", str(table1_path), "--out", str(corpus)],
            capsys)
        code, out, _ = run(["venuecorr", "--corpus", str(corpus),
                            "--pub-year", "2016", "--years", "2016,2017",
                            "--venues", "EMNLP,LREC"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == ",2016,2017"
        assert out.splitlines()[1].startswith("EMNLP,")

    @pytest.mark.parametrize("venues,aliased,missing", [
        ("Nowhere,TopJournal", False, "Nowhere"),
        ("TopJournal,NLPConf", True, "NLPConf"),   # merged away by the alias
    ])
    def test_venuecorr_venue_without_paper_exit_1(
            self, venues, aliased, missing, fixture_args, tmp_path, capsys):
        aliases = tmp_path / "aliases.json"
        aliases.write_text('{"NLPConf": "TopJournal"}')
        extra = ["--aliases", str(aliases)] if aliased else []
        code, out, err = run(["venuecorr", *fixture_args, "--years", "2016",
                              "--venues", venues, *extra], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert err == (f"citegauge venuecorr: error: no paper of the cohort "
                       f"has venue {missing!r}\n")


class TestGroupStats:
    def test_by_early(self, fixture_args, capsys):
        code, out, _ = run(["groupstats", *fixture_args,
                            "--thresholds", "1,2,3,10,20"], capsys)
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels[0] == "0 citations"
        assert "20+ citations" in labels

    def test_by_venue(self, fixture_args, capsys):
        code, out, _ = run(["groupstats", *fixture_args, "--by", "venue",
                            "--min-size", "40"], capsys)
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert "TopJournal" in labels

    def test_empty_threshold_noted_on_stderr(self, fixture_args, capsys):
        for subcommand in ("groupstats", "triage"):
            code, out, err = run([subcommand, *fixture_args,
                                  "--thresholds", "1,500"], capsys)
            assert code == EXIT_OK
            assert err == "note: threshold 500+ group is empty, row omitted\n"
            assert run([subcommand, *fixture_args, "--thresholds", "1"],
                       capsys) == (EXIT_OK, out, "")

    def test_default_thresholds_are_the_report_set(self, fixture_args,
                                                   tmp_path, capsys):
        code, default, _ = run(["groupstats", *fixture_args], capsys)
        assert code == EXIT_OK
        assert run(["groupstats", *fixture_args, "--thresholds",
                    "1,2,3,10,20"], capsys)[1] == default
        outdir = tmp_path / "reports"
        assert run(["report", *fixture_args, "--outdir", str(outdir)],
                   capsys)[0] == EXIT_OK
        assert (outdir / "early_threshold_groups.csv").read_text() == default

    def test_aliases_merge_venues(self, fixture_args, tmp_path, capsys):
        aliases = tmp_path / "aliases.json"
        aliases.write_text('{"NLPConf": "TopJournal"}')
        code, plain, _ = run(["groupstats", *fixture_args, "--by", "venue"],
                             capsys)
        assert code == EXIT_OK
        code, merged, _ = run(["groupstats", *fixture_args, "--by", "venue",
                               "--aliases", str(aliases)], capsys)
        assert code == EXIT_OK
        rows = {line.split(",")[0]: line
                for line in merged.splitlines()[1:]}
        assert "NLPConf" not in rows
        assert rows["TopJournal"].split(",")[5] == "110"
        unmapped = [line for line in plain.splitlines()[1:]
                    if line.split(",")[0] not in ("TopJournal", "NLPConf")]
        assert unmapped and all(rows[line.split(",")[0]] == line
                                for line in unmapped)

    @pytest.mark.parametrize("text", ['["NLPConf"]', '{"NLPConf": 1}',
                                      '{"NLPConf": ', "NLPConf -> TopJournal"])
    def test_bad_alias_file_exit_1(self, text, fixture_args, tmp_path, capsys):
        aliases = tmp_path / "aliases.json"
        aliases.write_text(text)
        code, out, err = run(["groupstats", *fixture_args,
                              "--aliases", str(aliases)], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert "citegauge groupstats: error:" in err
        assert f"alias file {aliases}" in err

    def test_alias_file_repeating_a_key_exit_1(self, fixture_args, tmp_path,
                                               capsys):
        """Without the refusal the last value wins and NLPWorkshop is
        silently folded into TopJournal."""
        aliases = tmp_path / "aliases.json"
        aliases.write_text('{"NLPWorkshop": "NLPConf", '
                           '"NLPWorkshop": "TopJournal"}')
        code, out, err = run(["groupstats", *fixture_args, "--by", "venue",
                              "--aliases", str(aliases)], capsys)
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err == (f"citegauge groupstats: error: alias file {aliases}: "
                       "repeated key 'NLPWorkshop'\n")

    def test_missing_alias_file_exit_1(self, fixture_args, tmp_path, capsys):
        missing = tmp_path / "no-such-aliases.json"
        code, out, err = run(["groupstats", *fixture_args,
                              "--aliases", str(missing)], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert str(missing) in err

    def test_json_format(self, fixture_args, capsys):
        code, out, _ = run(["groupstats", *fixture_args, "--format", "json"],
                           capsys)
        assert code == EXIT_OK
        rows = json.loads(out)
        assert all({"group", "h", "median", "mu", "sigma", "N"} <= set(r)
                   for r in rows)

    @pytest.mark.parametrize("args", [
        ["groupstats"], ["corr", "--years", "2016..2020"], ["fit"]])
    def test_count_past_int64_exit_1(self, args, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"p{i}", "source": "ACL", "venue": "V",
                        "year": 2016, "counts": {"2020": 2 ** 64 if i else 1}})
            + "\n" for i in range(3)))
        code, out, err = run([args[0], "--corpus", str(corpus),
                              "--pub-year", "2016", *args[1:]], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert "citation count in 2020 does not fit in 64 bits" in err


class TestPooledLabelClash:
    """A kept venue named like the level smaller venues pool into is
    refused, not merged with them or printed as a second row."""

    def test_groupstats_by_venue(self, tmp_path, capsys):
        venues = ["All other venues"] * 30 + ["A"] * 30 + ["C"] * 5
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(make_records([{2020: 1}] * len(venues), venues=venues),
                     corpus)
        args = ["groupstats", "--corpus", str(corpus), "--pub-year", "2016",
                "--by", "venue", "--min-size"]
        code, out, err = run([*args, "10"], capsys)
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err == (
            "citegauge groupstats: error: venue 'All other venues' is named "
            "like the level that venues with fewer than 10 papers pool into; "
            "rename it with --aliases\n")
        # nothing pools: the venue is one row like any other
        code, out, _ = run([*args, "5"], capsys)
        assert code == EXIT_OK
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "A", "All other venues", "C"]

    def test_fit_misc_reference(self, tmp_path, capsys):
        venues = ["misc"] * 60 + ["A"] * 60 + ["B"] * 10 + ["C"] * 10
        rows = [{2017: i % 3, 2020: i % 7} for i in range(len(venues))]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(make_records(rows, venues=venues), corpus)
        aliases = tmp_path / "aliases.json"
        aliases.write_text('{"misc": "Misc journal"}')
        args = ["fit", "--corpus", str(corpus), "--pub-year", "2016",
                "--min-venue-size", "40"]
        code, out, err = run(args, capsys)
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err == (
            "citegauge fit: error: venue 'misc' is named like the level that "
            "venues with fewer than 40 papers pool into; rename it with "
            "--aliases\n")
        code, out, _ = run([*args, "--aliases", str(aliases)], capsys)
        assert code == EXIT_OK
        # reference A; the renamed venue and the folded B and C apart
        assert [line.split(",")[0] for line in out.splitlines()[1:4]] == [
            "Intercept", "Misc journal", "misc"]


class TestFitPredictAnovaBoxplot:
    def test_fit_saves_model_and_reports(self, fixture_args, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, out, _ = run(["fit", *fixture_args, "--T", "5",
                            "--model-out", str(model_path)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "coefficient,value,value_full"
        assert "Intercept" in out
        saved = json.loads(model_path.read_text())
        assert saved["T"] == 5

        code, out, _ = run(["predict", "--model", str(model_path),
                            "--venue", saved["reference_venue"],
                            "--early", "0"], capsys)
        assert code == EXIT_OK
        assert float(out) == pytest.approx(saved["intercept"], abs=0.05)

    def test_anova(self, fixture_args, capsys):
        code, out, _ = run(["anova", *fixture_args, "--T", "5"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "ordering,factor,ss,eta_squared"
        assert any(line.startswith("early_first,early,") for line in
                   out.splitlines())

    def test_anova_on_rank_deficient_design(self, tmp_path, capsys):
        """Venue B's papers all have early count 3, so the early:3 column
        equals the venue:B column: fit refuses the design, and anova, which
        needs no fit, decomposes it."""
        rng = random.Random(8)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(
            {"id": f"p{i:02d}", "source": "ACL", "venue": "AB"[i // 30],
             "year": 2016, "counts": {"2017": i % 3 if i < 30 else 3,
                                      "2020": rng.randint(0, 50)}}) + "\n"
            for i in range(60)))
        args = ["--corpus", str(corpus), "--pub-year", "2016",
                "--min-venue-size", "1"]
        code, out, err = run(["fit", *args], capsys)
        assert code == EXIT_DATA_ERROR
        assert "rank deficient; collinear columns: ['early:3']" in err
        code, out, err = run(["anova", *args], capsys)
        assert (code, err) == (EXIT_OK, "")
        cohort = filter_cohort(load_corpus(corpus), 2016)
        table = anova_decompose(build_design_matrix(cohort, min_venue_size=1),
                                percentile_transform(cohort, 2020))
        assert len(table.venue_first) == len(table.early_first) == 3
        assert out == anova_csv(table)

    def test_boxplot_by_early_defaults_to_t30(self, fixture_args, capsys):
        code, out, _ = run(["boxplot", *fixture_args], capsys)
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == sorted(labels)  # early levels in order

    def test_boxplot_early_levels_past_99_in_numeric_order(self, tmp_path,
                                                          capsys):
        rng = random.Random(150)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(
            {"id": f"p{i:03d}", "source": "ACL", "venue": rng.choice("AB"),
             "year": 2016, "counts": {"2017": i // 2,
                                      "2020": rng.randint(0, 400)}}) + "\n"
            for i in range(302)), encoding="utf-8")
        code, out, _ = run(["boxplot", "--corpus", str(corpus), "--pub-year",
                            "2016", "--by", "early", "--T", "150"], capsys)
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == [f"{level:02d}" for level in range(151)]

    def test_boxplot_by_venue_sorted_by_median(self, fixture_args, capsys):
        code, out, _ = run(["boxplot", *fixture_args, "--by", "venue"],
                           capsys)
        assert code == EXIT_OK
        medians = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert medians == sorted(medians, reverse=True)


GOOD_MODEL = {"pub_year": 2016, "T": 10, "reference_venue": "A",
              "intercept": 20.0, "venue_coefs": {"B": 1.5},
              "early_coefs": {"1": 2.0, "10": 30.0}, "rss": 1.0,
              "r_squared": 0.5}


class TestModelFile:
    @pytest.mark.parametrize("model,field", [
        ({}, "'pub_year'"),
        ([1], "expected a JSON object, got list"),
        (GOOD_MODEL | {"T": "x"}, "'T'"),
        (GOOD_MODEL | {"early_coefs": {"1": 2.0, "x": 3.0}}, "'early_coefs'"),
        (GOOD_MODEL | {"intercept": float("nan")}, "'intercept'"),
        (GOOD_MODEL | {"venue_coefs": {"B": float("inf")}}, "'venue_coefs'"),
        (GOOD_MODEL | {"r_squared": -float("inf")}, "'r_squared'"),
        (GOOD_MODEL | {"intercept": 10 ** 400}, "'intercept'"),
        (GOOD_MODEL | {"venue_coefs": {"B": -10 ** 400}}, "'venue_coefs'"),
        (GOOD_MODEL | {"venue_coefs": {f"V{i:03d}": 10 ** 400 if i == 150
                                       else 0.5 for i in range(300)}},
         "'venue_coefs'"),
        (GOOD_MODEL | {"early_coefs": {"1" * 4400: 2.0}}, "'early_coefs'"),
    ], ids=["empty-object", "list", "T-not-int", "early-key-not-int",
            "intercept-nan", "coef-infinity", "r-squared-minus-infinity",
            "intercept-past-float", "coef-past-float",
            "300-coefs-one-past-float", "early-key-past-digit-limit"])
    @pytest.mark.parametrize("subcommand", ["predict", "triage"])
    def test_malformed_model_exit_1_names_file_and_field(
            self, subcommand, model, field, fixture_args, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        args = (["predict", "--venue", "B", "--early", "3"]
                if subcommand == "predict" else ["triage", *fixture_args])
        code, out, err = run([*args, "--model", str(path)], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert f"model file {path}: " in err and field in err
        assert "Traceback" not in err
        # one line, and the value in it cut short: what follows the file's
        # name, which is the user's, stays under 120 characters
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.split(f"model file {path}: ", 1)[1]) < 120

    def test_model_file_repeating_a_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        text = json.dumps(GOOD_MODEL)
        path.write_text(text.replace('"intercept": 20.0',
                                     '"intercept": 20.0, "intercept": 99.0'))
        code, out, err = run(["predict", "--model", str(path), "--venue", "B",
                              "--early", "25"], capsys)
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err == (f"citegauge predict: error: model file {path}: "
                       "repeated key 'intercept'\n")

    def test_well_formed_model_predicts(self, tmp_path, capsys):
        # each malformed case above differs from this file in one field
        path = tmp_path / "model.json"
        path.write_text(json.dumps(GOOD_MODEL))
        code, out, _ = run(["predict", "--model", str(path), "--venue", "B",
                            "--early", "25"], capsys)
        assert code == EXIT_OK
        assert out == "51.5\n"


class TestTriageAndLedger:
    def test_triage_ranking(self, fixture_args, capsys):
        code, out, _ = run(["triage", *fixture_args,
                            "--thresholds", "1,2,3"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("rank,id,early_count")
        early = []
        for line in lines[1:]:
            if not line or line.startswith("threshold"):
                break
            early.append(int(line.split(",")[2]))
        assert early == sorted(early, reverse=True)

    @pytest.mark.parametrize("min_venue_size,small_venue", [
        (1, 0), (10, 5)], ids=["no-pool", "pooled-small-venue"])
    def test_venue_named_like_the_pooled_row_is_compared(
            self, min_venue_size, small_venue, tmp_path, capsys):
        # mu 14.9, 2.4 and 2.1 at 2020 (h 15, 6, 6); the 12 papers with 3
        # citations in 2017 have mu 6.0 and h 6, so each threshold group
        # beats 2 of the 3 real venues on mu.  The pooled row (venue C, mu
        # 20) is not a venue.
        rows = ([{2020: 15}] * 27 + [{2020: 14}] * 3
                + [{2017: 3, 2020: 6}] * 6 + [{2020: 1}] * 12
                + [{2020: 2}] * 12
                + [{2017: 3, 2020: 6}] * 6 + [{2020: 1}] * 21
                + [{2020: 2}] * 3
                + [{2020: 20}] * small_venue)
        venues = (["All other venues"] * 30 + ["A"] * 30 + ["B"] * 30
                  + ["C"] * small_venue)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(make_records(rows, venues=venues), corpus)
        code, out, _ = run(["triage", "--corpus", str(corpus), "--pub-year",
                            "2016", "--thresholds", "1,3", "--min-venue-size",
                            str(min_venue_size)], capsys)
        assert code == EXIT_OK
        comparisons = out.split("\n\n")[1].splitlines()
        assert comparisons == [
            "threshold,group_mu,group_h,frac_venues_below_mu,"
            "frac_venues_below_h",
            f"1,6.0,6,{2 / 3!r},0.0", f"3,6.0,6,{2 / 3!r},0.0"]

    def test_ledger_flow(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        code, out, _ = run(["ledger", "--file", str(path), "nominate",
                            "--nominator", "alice", "--paper", "p1"], capsys)
        assert code == EXIT_OK and "balance=4" in out
        code, out, _ = run(["ledger", "--file", str(path), "review",
                            "--nominator", "alice", "--paper", "p2"], capsys)
        assert code == EXIT_OK and "balance=3" in out
        code, out, _ = run(["ledger", "--file", str(path), "show"], capsys)
        assert code == EXIT_OK and "alice" in out

    @pytest.mark.parametrize("bad_line", [
        '{"kind": "review", "paper": "p9"}',    # no nominator
        '{"kind": "nomination", "nomin',        # torn last line
        '{"kind": "review", "nominator": 5, "paper": "p9"}',
        '{"kind": "review", "nominator": null, "paper": "p9"}',
    ])
    def test_ledger_bad_line_exit_1_names_line(self, bad_line, tmp_path,
                                               capsys):
        path = tmp_path / "ledger.jsonl"
        run(["ledger", "--file", str(path), "nominate",
             "--nominator", "alice", "--paper", "p1"], capsys)
        run(["ledger", "--file", str(path), "review",
             "--nominator", "alice", "--paper", "p2"], capsys)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(bad_line + "\n")
        code, out, err = run(["ledger", "--file", str(path), "show"], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert "citegauge ledger: error: line 3: " in err
        assert "Traceback" not in err

    def test_ledger_unterminated_last_line_kept(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "nomination", "nominator": "alice", '
                        '"paper": "p1"}', encoding="utf-8")
        code, out, _ = run(["ledger", "--file", str(path), "nominate",
                            "--nominator", "bob", "--paper", "p2"], capsys)
        assert code == EXIT_OK and "balance=4" in out
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"kind": "nomination", "nominator": "alice", "paper": "p1"}',
            '{"kind": "nomination", "nominator": "bob", "paper": "p2"}']
        code, out, _ = run(["ledger", "--file", str(path), "show"], capsys)
        assert code == EXIT_OK
        assert out == ("alice: nominations=1 reviews=0 balance=4\n"
                       "bob: nominations=1 reviews=0 balance=4\n")

    def test_ledger_torn_last_line_dropped(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        run(["ledger", "--file", str(path), "nominate",
             "--nominator", "alice", "--paper", "p1"], capsys)
        run(["ledger", "--file", str(path), "review",
             "--nominator", "alice", "--paper", "p2"], capsys)
        committed = path.read_bytes()
        torn = b'{"kind": "review", "nominator": "alice", "paper": "p3"}'
        for cut in range(1, len(torn)):
            path.write_bytes(committed + torn[:cut])
            code, out, _ = run(["ledger", "--file", str(path), "show"], capsys)
            assert (code, out) == (
                EXIT_OK, "alice: nominations=1 reviews=1 balance=3\n"), cut
            code, out, _ = run(["ledger", "--file", str(path), "review",
                                "--nominator", "bob", "--paper", "p4"], capsys)
            assert code == EXIT_OK, cut
            code, out, _ = run(["ledger", "--file", str(path), "show"], capsys)
            assert (code, out) == (
                EXIT_OK, "alice: nominations=1 reviews=1 balance=3\n"
                "bob: nominations=0 reviews=1 balance=-1\n"), cut
            assert path.read_bytes() == committed + (
                b'{"kind": "review", "nominator": "bob", "paper": "p4"}\n')

    def test_ledger_missing_flags_usage_error(self, tmp_path, capsys):
        code, _, _ = run(["ledger", "--file", str(tmp_path / "l.jsonl"),
                          "nominate"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("action", ["nominate", "review"])
    def test_ledger_missing_flags_checked_before_file(self, action, tmp_path,
                                                     capsys):
        path = tmp_path / "l.jsonl"
        path.write_text('{"kind": "x"}\n', encoding="utf-8")
        code, out, err = run(["ledger", "--file", str(path), action], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--nominator and --paper are required" in err


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize("reader", [
    "corpus-line", "journal-tail", "ledger-line", "checkpoint", "model-file",
    "alias-file"])
def test_undecodable_input_exit_1_names_it(reader, text, fixture_args,
                                           tmp_path, capsys):
    """Text that fails to decode in any way, in each input the program
    reads as JSON, exits 1 naming the line or the file, with no traceback."""
    bad = tmp_path / "bad.json"
    ids = tmp_path / "ids.txt"
    ids.write_text("p1\n")
    ingest = ["ingest", "--ids-file", str(ids), "--out",
              str(tmp_path / "c.jsonl"), "--checkpoint", str(bad),
              # read before any request; a closed port keeps a regression
              # off the network
              "--base-url", "http://127.0.0.1:9"]
    corpus_line = ('{"id": "a", "source": "ACL", "venue": "V", "year": 2016, '
                   '"counts": {}}\n')
    ledger_line = '{"kind": "review", "nominator": "alice", "paper": "p1"}\n'
    # reader: (the file's text, the command, what the error names)
    content, argv, named = {
        "corpus-line": (corpus_line + text + "\n",
                        ["groupstats", "--corpus", str(bad), "--pub-year",
                         "2016"], "line 2"),
        # an unterminated line and no complete one: the file decodes whole
        "journal-tail": (text, ingest, f"checkpoint {bad}"),
        "ledger-line": (ledger_line + text + "\n",
                        ["ledger", "--file", str(bad), "show"], "line 2"),
        "checkpoint": (_checkpoint("p1") + "\n" + text + "\n", ingest,
                       f"checkpoint {bad}"),
        "model-file": (text, ["predict", "--model", str(bad), "--venue", "A",
                              "--early", "1"], f"model file {bad}"),
        "alias-file": (text, ["groupstats", *fixture_args, "--aliases",
                              str(bad)], f"alias file {bad}"),
    }[reader]
    bad.write_text(content, encoding="utf-8")
    code, out, err = run(argv, capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert f"citegauge {argv[0]}: error: {named}: invalid JSON: " in err
    assert "Traceback" not in err


#: Every option of every subcommand is an input path, whose file the command
#: reads, or is not one; an option in neither set fails the walk below, so
#: a new file flag cannot skip the check that follows it.
INPUT_PATHS = {"--corpus", "--table", "--ids-file", "--checkpoint",
               "--aliases", "--model", "--file"}
NOT_INPUT_PATHS = {
    "-h", "--help", "--out", "--model-out", "--outdir", "--pub-year",
    "--sources", "--lenient", "--format", "--years", "--venues", "--by",
    "--thresholds", "--min-size", "--early-offset", "--future-offset", "--T",
    "--min-venue-size", "--reference-venue", "--venue", "--early",
    "--base-url", "--page-size", "--rate", "--workers", "--nominator",
    "--paper"}


def subcommand_options():
    """(subcommand, option string) of every option build_parser() adds."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for name, subparser in subparsers.choices.items():
        for action in subparser._actions:
            for option in action.option_strings:
                yield name, option


def test_every_option_is_classified_as_input_path_or_not():
    unknown = sorted({f"{name} {option}" for name, option in subcommand_options()
                      if option not in INPUT_PATHS | NOT_INPUT_PATHS})
    assert not unknown, f"options neither input paths nor not: {unknown}"


#: A valid first line of each input file, so that line 2 is the one read next.
FIRST_LINE = {
    "--corpus": '{"id": "a", "source": "ACL", "venue": "V", "year": 2016, '
                '"counts": {}}',
    "--table": "id,venue,source,pub_year,2016",
    "--ids-file": "p1",
    "--checkpoint": _checkpoint("p1"),
    "--aliases": "{",
    "--model": "{",
    "--file": '{"kind": "review", "nominator": "alice", "paper": "p1"}',
}


def input_argv(subcommand, option, path, fixture_corpus_path, tmp_path):
    """The argv of subcommand with every input it needs, the file of option
    at path; every input is read before any request."""
    ids = tmp_path / "ids.txt"
    ids.write_text("p1\n")
    cohort = {"--corpus": str(fixture_corpus_path), "--pub-year": "2016"}
    flags = {
        "ingest": {"--ids-file": str(ids), "--out": str(tmp_path / "c.jsonl"),
                   "--checkpoint": str(tmp_path / "ck.json"),
                   # a closed port keeps a regression off the network
                   "--base-url": "http://127.0.0.1:9"},
        "import": {"--out": str(tmp_path / "c.jsonl")},
        "corr": cohort | {"--years": "2016..2017"},
        "venuecorr": cohort | {"--years": "2016..2017", "--venues": "A"},
        "predict": {"--venue": "A", "--early": "1"},
        "report": cohort | {"--outdir": str(tmp_path / "reports")},
        "ledger": {},
    }.get(subcommand, cohort)
    positional = ["show"] if subcommand == "ledger" else []
    return [subcommand, *positional, *chain.from_iterable(
        (flags | {option: str(path)}).items())]


@pytest.mark.parametrize("subcommand,option", sorted(
    (name, option) for name, option in subcommand_options()
    if option in INPUT_PATHS))
def test_input_path_with_a_byte_not_utf8_exit_1_names_it(
        subcommand, option, fixture_corpus_path, tmp_path, capsys):
    """Byte 0xff on line 2 of any file a subcommand reads exits 1 naming
    the line, the file or both, with no traceback."""
    bad = tmp_path / "bad"
    bad.write_bytes(FIRST_LINE[option].encode("utf-8") + b"\n\xff\n")
    code, out, err = run(input_argv(subcommand, option, bad,
                                    fixture_corpus_path, tmp_path), capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    named = {"--corpus": "line 2: ", "--file": "line 2: ",
             "--table": f"table {bad}: line 2: ",
             "--ids-file": f"ids file {bad}: line 2: ",
             "--checkpoint": f"checkpoint {bad}: ",
             "--aliases": f"alias file {bad}: ",
             "--model": f"model file {bad}: "}[option]
    assert f"citegauge {subcommand}: error: {named}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option,line,message", [
    ("--corpus", b'{"id": "\xff"}', "line 2: byte 0xff is not UTF-8"),
    ("--corpus", FIRST_LINE["--corpus"].replace(
        '"id": "a"', '"id": "b", "venue": "W"').encode(),
     "line 2: repeated key 'venue'"),
    ("--file", b'{"kind": "\xff"}', "line 2: byte 0xff is not UTF-8"),
    ("--file", b'{"kind": "nomination", "nominator": "ann", "paper": "p1", '
               b'"nominator": "bob"}', "line 2: repeated key 'nominator'"),
    ("--checkpoint", b'{"\xff": 1}', "checkpoint {bad}: byte 0xff is not UTF-8"),
    ("--checkpoint", _checkpoint("p1")[:-1].encode()
     + b', "last_completed_paper_id": "p1"}',
     "checkpoint {bad}: repeated key 'last_completed_paper_id'"),
    ("--aliases", b'"\xff": "A"}',
     "alias file {bad}: line 2: byte 0xff is not UTF-8"),
    ("--aliases", b'"A": "B", "A": "C"}', "alias file {bad}: repeated key 'A'"),
    ("--model", b'"\xff": 1}', "model file {bad}: line 2: byte 0xff is not UTF-8"),
    ("--model", b'"T": 1, "T": 2}', "model file {bad}: repeated key 'T'"),
    ("--ids-file", b"\xff", "ids file {bad}: line 2: byte 0xff is not UTF-8"),
    ("--table", b"\xff", "table {bad}: line 2: byte 0xff is not UTF-8"),
], ids=[f"{reader}-{fault}" for reader in ["corpus", "ledger", "checkpoint",
                                            "aliases", "model"]
        for fault in ["byte", "key"]] + ["ids-file-byte", "table-byte"])
def test_byte_not_utf8_or_repeated_key_exit_1_with_its_message(
        option, line, message, fixture_corpus_path, tmp_path, capsys):
    """Every reader decodes through corpus.utf8_text and corpus.json_value:
    a byte that is not UTF-8, or a JSON key that repeats, on line 2 of its
    file exits 1 with corpus's message after the reader's own prefix, and
    with no traceback."""
    subcommand = {"--corpus": "groupstats", "--file": "ledger",
                  "--checkpoint": "ingest", "--aliases": "groupstats",
                  "--model": "predict", "--ids-file": "ingest",
                  "--table": "import"}[option]
    bad = tmp_path / "bad"
    bad.write_bytes(FIRST_LINE[option].encode("utf-8") + b"\n" + line + b"\n")
    code, out, err = run(input_argv(subcommand, option, bad,
                                    fixture_corpus_path, tmp_path), capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert err == (f"citegauge {subcommand}: error: "
                   f"{message.format(bad=bad)}\n")


def whole_file(option, fixture_corpus_path, table1_path, tmp_path):
    """(subcommand, extra flags, text) of a valid file of option, one of
    the inputs the program reads whole."""
    if option == "--model":
        model = tmp_path / "model.json"
        assert main(["fit", "--corpus", str(fixture_corpus_path),
                     "--pub-year", "2016", "--model-out", str(model)]) == 0
        return "predict", ["--venue", "TopJournal"], model.read_text()
    return {"--ids-file": ("ingest", [], "p1\np2\n"),
            "--table": ("import", [], table1_path.read_text()),
            "--aliases": ("groupstats", ["--by", "venue"],
                          '{"NLPConf": "TopJournal"}')}[option]


@pytest.mark.parametrize("option", ["--ids-file", "--table", "--aliases",
                                    "--model"])
def test_whole_file_reads_the_same_past_a_byte_order_mark(
        option, fixture_corpus_path, table1_path, tmp_path, monkeypatch,
        capsys):
    """One leading UTF-8 byte order mark, as editors and spreadsheets
    write, is dropped from every file the program reads whole: the run
    gives the same exit code, output, files and requests without it as
    with it."""
    subcommand, extra, text = whole_file(option, fixture_corpus_path,
                                         table1_path, tmp_path)
    capsys.readouterr()
    runs = []
    for name, lead in [("plain", b""), ("bom", b"\xef\xbb\xbf")]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        path = run_dir / "input"
        path.write_bytes(lead + text.encode("utf-8"))
        calls = fake_urlopen(monkeypatch, paper_body(),
                             citations_body(0, [2017]))
        code, out, err = run(input_argv(subcommand, option, path,
                                        fixture_corpus_path, run_dir)
                             + extra, capsys)
        written = {file.name: file.read_bytes()
                   for file in sorted(run_dir.iterdir()) if file != path}
        runs.append((code, out.replace(str(run_dir), "DIR"), err, written,
                     [request.full_url for request, _ in calls]))
    assert runs[0][0] == EXIT_OK
    assert runs[1] == runs[0]


def test_repeated_id_exit_1_names_it_before_any_request(tmp_path,
                                                        monkeypatch, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("p1\np2\np1\n")
    calls = fake_urlopen(monkeypatch, paper_body())
    code, out, err = run(["ingest", "--ids-file", str(ids),
                          "--out", str(tmp_path / "c.jsonl"),
                          "--checkpoint", str(tmp_path / "ck.json")], capsys)
    assert (code, out, calls) == (EXIT_DATA_ERROR, "", [])
    assert err == ("citegauge ingest: error: paper id 'p1' appears twice in "
                   "the ids\n")


@pytest.mark.parametrize("newline", [b"\n", b""], ids=["line", "torn"])
def test_checkpoint_line_with_a_byte_order_mark_exit_1(newline, tmp_path,
                                                       monkeypatch, capsys):
    """A journal line, unlike a whole file, keeps no byte order mark: a
    checkpoint that starts with one is refused, with or without its
    newline."""
    ids = tmp_path / "ids.txt"
    ids.write_text("p1\n")
    (tmp_path / "c.jsonl").write_bytes(b"")
    checkpoint = tmp_path / "ck.json"
    checkpoint.write_bytes(b"\xef\xbb\xbf" + _checkpoint("p1").encode()
                           + newline)
    calls = fake_urlopen(monkeypatch, paper_body())
    code, out, err = run(["ingest", "--ids-file", str(ids),
                          "--out", str(tmp_path / "c.jsonl"),
                          "--checkpoint", str(checkpoint)], capsys)
    assert (code, out, calls) == (EXIT_DATA_ERROR, "", [])
    assert err.startswith(f"citegauge ingest: error: checkpoint {checkpoint}: ")
    assert "Traceback" not in err


#: The files `report` writes, in the order it announces them.
REPORT_FILES = ["year_correlations.csv", "early_threshold_groups.csv",
                "venue_groups.csv", "model.json", "coefficients.csv",
                "anova.csv", "boxplot_by_early.csv", "boxplot_by_venue.csv",
                "triage.csv"]


def test_report_shares_load_percentiles_and_fits(fixture_args, tmp_path,
                                                 monkeypatch, capsys):
    """One load, one percentile transform, one design and fit at --T and
    one at T=30, whose predictions serve both boxplots."""
    calls = Counter()
    for module, name in [(corpus_mod, "load_cohort"),
                         (metrics_mod, "group_by_early_threshold"),
                         (model_mod, "percentile_transform"),
                         (model_mod, "build_design_matrix"),
                         (model_mod, "fit_ols"),
                         (model_mod, "predict_cohort")]:
        def counted(*args, _real=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    outdir = tmp_path / "reports"
    code, out, _ = run(["report", *fixture_args, "--outdir", str(outdir)],
                       capsys)
    assert code == EXIT_OK
    assert calls == {"load_cohort": 1, "group_by_early_threshold": 1,
                     "percentile_transform": 1, "build_design_matrix": 2,
                     "fit_ols": 2, "predict_cohort": 1}
    assert out == "".join(f"wrote {outdir / name}\n" for name in REPORT_FILES)


def test_report_data_error_leaves_no_outdir(fixture_args, tmp_path, capsys):
    outdir = tmp_path / "reports"
    code, out, err = run(["report", fixture_args[0], fixture_args[1],
                          "--pub-year", "1990", "--outdir", str(outdir)],
                         capsys)
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert "citegauge report: error: " in err
    assert not outdir.exists()


def one_venue_corpus(path, future):
    """200 papers of one venue, published in 2016, with no citation in 2017
    and future(i) citations in 2020."""
    path.write_text("".join(json.dumps(
        {"id": f"p{i:03d}", "source": "ACL", "venue": "Only", "year": 2016,
         "counts": {"2020": future(i)} if future(i) else {}}) + "\n"
        for i in range(200)), encoding="utf-8")
    return path


@pytest.mark.parametrize("future,message", [
    # no citation at all: every percentile is 50, and the fit refuses
    (lambda i: 0, "every paper has the same count in 2020, so the "
                  "percentiles have no variance to explain"),
    # the model fits, and the last table, triage, finds no threshold group
    (lambda i: i % 7, "no threshold groups to compare"),
], ids=["no-citations", "no-early-citations"])
def test_report_failure_writes_no_file(future, message, tmp_path, capsys):
    corpus = one_venue_corpus(tmp_path / "c.jsonl", future)
    outdir = tmp_path / "reports"
    code, out, err = run(["report", "--corpus", str(corpus), "--pub-year",
                          "2016", "--outdir", str(outdir)], capsys)
    assert code == EXIT_DATA_ERROR
    assert out == ""
    # after the notes on the empty threshold groups
    assert err.endswith(f"\ncitegauge report: error: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("subcommand", ["fit", "anova", "boxplot"])
def test_constant_outcome_exit_1(subcommand, tmp_path, capsys):
    corpus = one_venue_corpus(tmp_path / "c.jsonl", lambda i: 4)
    code, out, err = run([subcommand, "--corpus", str(corpus), "--pub-year",
                          "2016"], capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert err == (f"citegauge {subcommand}: error: every paper has the same "
                   f"count in 2020, so the percentiles have no variance to "
                   f"explain\n")


def surrogate_corpus(path):
    """Three 2016 papers; line 2's venue is the JSON escape of a lone
    surrogate, in valid UTF-8 bytes."""
    lines = [json.dumps({"id": f"p{i}", "source": "ACL", "venue": venue,
                         "year": 2016, "counts": {"2017": i}})
             for i, venue in enumerate(["A", "A\ud800", "B"])]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


@pytest.mark.parametrize("args", [
    ["groupstats", "--by", "venue", "--min-size", "1"],
    ["report", "--outdir", "reports"]])
def test_lone_surrogate_venue_exit_1_names_line(args, tmp_path, capsys,
                                                monkeypatch):
    """orjson refuses the escape, so the block is replayed, and the full
    checks refuse the line; the run used to fail in the codec, naming no
    line, after report had written three files."""
    corpus = surrogate_corpus(tmp_path / "c.jsonl")
    with pytest.raises(ValueError):
        orjson.loads(corpus.read_text().splitlines()[1])
    monkeypatch.chdir(tmp_path)
    code, out, err = run([args[0], "--corpus", str(corpus), "--pub-year",
                          "2016", *args[1:]], capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert err == (f"citegauge {args[0]}: error: line 2: field 'venue' holds "
                   f"a lone surrogate, which UTF-8 cannot encode\n")
    assert not (tmp_path / "reports").exists()


def test_lone_surrogate_alias_exit_1_names_file(fixture_args, tmp_path,
                                                capsys):
    aliases = tmp_path / "aliases.json"
    aliases.write_text('{"NLPConf": "NLP\\udc80"}', encoding="ascii")
    outdir = tmp_path / "reports"
    code, out, err = run(["report", *fixture_args, "--aliases", str(aliases),
                          "--outdir", str(outdir)], capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert err == (f"citegauge report: error: alias file {aliases}: "
                   f"'NLP\\udc80' holds a lone surrogate, which UTF-8 "
                   f"cannot encode\n")
    assert not outdir.exists()


def test_report_encodes_every_text_before_writing(fixture_args, tmp_path,
                                                  capsys, monkeypatch):
    """A text that UTF-8 cannot encode, here the last one, fails the run
    before --outdir is made."""
    monkeypatch.setattr("citegauge.report.triage_csv",
                        lambda *a, **k: "id\nx\ud800\n")
    outdir = tmp_path / "reports"
    code, out, err = run(["report", *fixture_args, "--outdir", str(outdir)],
                         capsys)
    assert (code, out) == (EXIT_DATA_ERROR, "")
    assert "surrogates not allowed" in err
    assert not outdir.exists()


def test_report_model_json_is_model_json_bytes(fixture_args, tmp_path,
                                               capsys):
    outdir = tmp_path / "reports"
    assert run(["report", *fixture_args, "--outdir", str(outdir)],
               capsys)[0] == EXIT_OK
    cohort = corpus_mod.load_cohort(fixture_args[1], 2016)
    fitted = model_mod.fit_ols(build_design_matrix(cohort),
                               percentile_transform(cohort, 2020))
    (tmp_path / "saved.json").write_text(model_mod.model_json(fitted),
                                         encoding="utf-8")
    assert (outdir / "model.json").read_bytes() == \
        (tmp_path / "saved.json").read_bytes()


SUBCOMMAND_RUNS = [
    ["groupstats", "--thresholds", "1,2,3,10,20"],
    ["groupstats", "--by", "venue", "--min-size", "40"],
    ["corr", "--years", "2016..2023"],
    ["venuecorr", "--years", "2016,2017", "--venues", "TopJournal,NLPConf"],
    ["fit", "--T", "5"],
    ["anova", "--T", "5"],
    ["boxplot"],
    ["boxplot", "--by", "venue"],
    ["triage", "--thresholds", "1,2,3"],
]


@pytest.mark.parametrize("args", SUBCOMMAND_RUNS,
                         ids=lambda a: "-".join(a[:2]))
def test_reports_are_byte_identical_across_runs(args, fixture_corpus_path,
                                                tmp_path, capsys):
    base = ["--corpus", str(fixture_corpus_path), "--pub-year", "2016"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main([args[0], *base, *args[1:], "--out", str(out1)]) == EXIT_OK
    assert main([args[0], *base, *args[1:], "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
