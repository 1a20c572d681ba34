import json

import pytest

from citegauge.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ], ids=lambda a: "-".join(a))
    def test_bad_cohort_flag_exit_2(self, args, fixture_args, capsys):
        code, out, err = run([args[0], *fixture_args, *args[1:]], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert args[-2] in err

    @pytest.mark.parametrize("subcommand", ["groupstats", "triage"])
    @pytest.mark.parametrize("value,bad_item", [
        ("1,x", "x"), ("-2,0", "-2"), ("0", "0"), ("1,,2", ""), ("3,1.5", "1.5"),
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
        ("--rate", "x/300"), ("--page-size", "0"), ("--workers", "0"),
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


class TestIngestCheckpoint:
    @pytest.mark.parametrize("text", [
        '{"last_completed_paper_id": "a", "corpus_bytes": 10}',
        "[1]",
        '{"corpus_path": ',
    ], ids=["unknown-key", "not-an-object", "invalid-json"])
    def test_malformed_checkpoint_exit_1_names_file(self, text, tmp_path,
                                                    capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\n")
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text(text)
        # the checkpoint is read before any request; a closed local port
        # keeps a regression from reaching the network
        code, out, err = run(["ingest", "--ids-file", str(ids),
                              "--out", str(tmp_path / "c.jsonl"),
                              "--checkpoint", str(checkpoint),
                              "--base-url", "http://127.0.0.1:9"], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert f"checkpoint {checkpoint}" in err
        assert "Traceback" not in err


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
        code, out, err = run(["groupstats", *fixture_args,
                              "--thresholds", "5000"], capsys)
        assert code == EXIT_OK
        assert "5000+" in err and "empty" in err

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
                                      '{"NLPConf": '])
    def test_bad_alias_file_exit_1(self, text, fixture_args, tmp_path, capsys):
        aliases = tmp_path / "aliases.json"
        aliases.write_text(text)
        code, out, err = run(["groupstats", *fixture_args,
                              "--aliases", str(aliases)], capsys)
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert "citegauge groupstats: error:" in err

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

    def test_boxplot_by_early_defaults_to_t30(self, fixture_args, capsys):
        code, out, _ = run(["boxplot", *fixture_args], capsys)
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == sorted(labels)  # early levels in order

    def test_boxplot_by_venue_sorted_by_median(self, fixture_args, capsys):
        code, out, _ = run(["boxplot", *fixture_args, "--by", "venue"],
                           capsys)
        assert code == EXIT_OK
        medians = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert medians == sorted(medians, reverse=True)


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

    def test_ledger_missing_flags_usage_error(self, tmp_path, capsys):
        code, _, _ = run(["ledger", "--file", str(tmp_path / "l.jsonl"),
                          "nominate"], capsys)
        assert code == EXIT_USAGE


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
