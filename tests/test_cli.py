"""Command-line behavior: exit codes, column contracts, manifests."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    REG10,
    RawRecord,
    load_corpus,
    parsed,
    random_corpus,
    registry_csv_text,
    write_corpus,
)
from noai.cli import INDICATOR_COLUMNS, main, run
from noai.model import DocType, Level, OAStatus
from oracle import BruteForce


def rec(rec_id, cats, statuses=(), countries=(), year=2018,
        doc=DocType.ARTICLE, doi=True, institutions=()):
    return RawRecord(
        id=rec_id, year=year, doc_type=doc, raw_statuses=frozenset(statuses),
        subject_categories=tuple(cats), has_doi=doi, countries=frozenset(countries),
        institutions=frozenset(institutions),
    )


@pytest.fixture
def ws(tmp_path, monkeypatch):
    """A little workspace: corpus, registry and actor files, cwd isolated."""
    monkeypatch.chdir(tmp_path)
    # FRA: 3 pubs, all OA (100%); USA: 4 pubs, 2 OA (50%).  Distinct
    # volumes and shares keep ranking tests away from degenerate ties.
    corpus = [
        rec("r1", ("Mathematics",), (OAStatus.GOLD,), ("FRA", "USA")),
        rec("r2", ("Mathematics",), (), ("USA",)),
        rec("r3", ("Economics",), (OAStatus.GREEN,), ("FRA",), year=2016),
        rec("r4", ("Economics", "Sociology"), (OAStatus.BRONZE, OAStatus.GREEN),
            ("USA",), doc=DocType.REVIEW),
        rec("r5", ("Cell Biology",), (OAStatus.GOLD, OAStatus.GREEN), ("FRA",),
            doi=False),
        rec("r6", ("Oncology",), (), ("USA",), year=2015),
    ]
    write_corpus(corpus, str(tmp_path / "corpus.jsonl"))
    (tmp_path / "registry.csv").write_text(registry_csv_text(REG10),
                                           encoding="utf-8")
    (tmp_path / "actors.csv").write_text(
        "actor_id,kind,group,display_name\n"
        "FRA,country,,France\n"
        "USA,country,,United States\n",
        encoding="utf-8",
    )
    return tmp_path


def child_env():
    """The environment for a child process that imports the package under test.

    A child may run in another directory: give it the package by an absolute
    path, since a relative PYTHONPATH entry would not resolve.
    """
    import noai

    package_root = str(Path(noai.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in inherited if p]))


def parse_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text))
            if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def base_args(ws, command="indicators"):
    return [command, "--corpus", str(ws / "corpus.jsonl"),
            "--registry", str(ws / "registry.csv")]


class TestUsageErrors:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "noai" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["indicators", "--corpus", "x.jsonl"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--window", "2015"),
        ("--window", "2019:2015"),
        ("--window", "a:b"),
        ("--window", "2015:2016:2017"),
        ("--doc-types", "thesis"),
        ("--doc-types", "article,"),
        ("--doc-types", ""),
        ("--priority", "gold,bronze"),
        ("--priority", "gold,gold,green"),
        ("--priority", "gold,bronze,diamond"),
        ("--priority", "closed,gold,green"),
        ("--format", "xml"),
        ("--actor-kind", "planet"),
    ])
    def test_bad_flag_values(self, ws, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(base_args(ws) + [flag, value])
        assert exc.value.code == 2

    def test_empty_doc_type_item_is_named(self, ws, capsys):
        # Like an empty --level item, an empty doc type is not skipped.
        with pytest.raises(SystemExit) as exc:
            main(base_args(ws, "series") + ["--doc-types", "article,"])
        assert exc.value.code == 2
        assert "unknown doc type ''" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["indicators", "rank"])
    @pytest.mark.parametrize("flag,value", [
        ("--top-n", "0"),
        ("--top-n", "-1"),
        ("--top-n", "two"),
        ("--min-pubs", "nan"),
        ("--min-pubs", "inf"),
    ])
    def test_bad_actor_filter_values(self, ws, command, flag, value):
        # A negative --top-n would slice off the smallest producers and a NaN
        # --min-pubs would drop every actor, both silently.
        with pytest.raises(SystemExit) as exc:
            main(base_args(ws, command) + [flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,value", [
        ("rank", "galaxy"),
        ("rank", ""),
        ("series", ""),
    ])
    def test_unknown_level_is_usage_error(self, ws, command, value):
        # An empty value names no level; it does not fall back to the default.
        assert main(base_args(ws, command) + ["--level", value]) == 2

    def test_series_rejects_multiple_levels(self, ws):
        code = main(base_args(ws, "series")
                    + ["--level", "subject-category,ost-discipline"])
        assert code == 2

    @pytest.mark.parametrize("command,flag,value", [
        ("indicators", "--level", "ost-discipline"),
        *[(command, flag, value)
          for command in ("series", "validate")
          for flag, value in (("--actors", "actors.csv"), ("--actor-kind", "country"),
                              ("--min-pubs", "1"), ("--top-n", "1"), ("--group", "G1"))],
        ("validate", "--level", "ost-discipline"),
        ("validate", "--priority", "gold,bronze,green"),
    ])
    def test_flag_the_command_does_not_read(self, ws, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(base_args(ws, command) + [flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["indicators", "rank"])
    @pytest.mark.parametrize("extra", [
        [],
        ["--actor-kind", "institution"],
        ["--actors", "actors.csv"],
        ["--actors", "actors.csv", "--actor-kind", "country"],
    ], ids=["no-actors", "no-actors-institution", "actors", "actors-country"])
    def test_group_without_institution_actors(self, ws, capsys, command, extra):
        # Only institutions from --actors carry a group, so --group could
        # match nothing. It is refused before the corpus is read: a missing
        # corpus would be a data error.
        code = main([command, "--corpus", str(ws / "missing.jsonl"),
                     "--registry", str(ws / "registry.csv"), "--group", "G1", *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            "noai: --group needs --actors and --actor-kind institution: "
            "only institutions carry a group\n")


class TestDataErrors:
    @pytest.mark.parametrize("argv,named", [
        (["--corpus", "nope.jsonl", "--registry", "registry.csv"], "nope.jsonl"),
        (["--corpus", "corpus.jsonl", "--registry", "registry.csv", "--actors", ""],
         "actor registry"),
    ])
    def test_missing_input_file(self, ws, capsys, argv, named):
        assert main(["indicators", *argv]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv,content,named", [
        (["indicators", "--corpus", "corpus.jsonl", "--registry", "bad.csv"],
         b"subject_category,ost_discipline,erc_subfield\nMathematics,Math\xff,PE1\n",
         "registry bad.csv is not UTF-8"),
        (["indicators", "--corpus", "corpus.jsonl", "--registry", "registry.csv",
          "--actors", "bad.csv"],
         b"actor_id,kind,group,display_name\nFRA,country,,\nUSA,country,,\xe9tats\n",
         "actor registry bad.csv is not UTF-8"),
        (["indicators", "--corpus", "corpus.jsonl", "--registry", "bad.csv"],
         b"subject_category,ost_discipline,erc_subfield\nMathematics,"
         + b"M" * 200_000 + b",PE1\n",
         "registry bad.csv line 2: field larger than field limit"),
        (["synth", "--spec", "bad.json", "--out", "x.jsonl"],
         b'{\n"seed": 1,\n"name": "\xff"}\n', "spec bad.json is not UTF-8"),
        (["synth", "--spec", "bad.json", "--out", "x.jsonl"],
         b"[" * 100_000, "spec bad.json nests too deeply"),
        (["synth", "--spec", "bad.json", "--out", "x.jsonl"],
         b'{"seed": ' + b"1" * 5000 + b"}", "spec bad.json is not valid JSON"),
    ], ids=["registry-not-utf8", "actors-not-utf8", "csv-field-too-long",
            "spec-not-utf8", "spec-nested-past-recursion-limit",
            "spec-integer-past-digit-limit"])
    def test_unreadable_side_input(self, ws, capsys, argv, content, named):
        # Inputs other than the corpus fail with a message, never a traceback.
        bad = next(arg for arg in argv if arg.startswith("bad."))
        (ws / bad).write_bytes(content)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("noai: ") and named in err
        assert not (ws / "x.jsonl").exists()

    def test_empty_corpus_message(self, ws, capsys):
        (ws / "empty.jsonl").write_text("", encoding="utf-8")
        code = main(["indicators", "--corpus", str(ws / "empty.jsonl"),
                     "--registry", str(ws / "registry.csv")])
        assert code == 3
        assert "no record accepted" in capsys.readouterr().err

    def test_window_excluding_everything(self, ws, capsys):
        code = main(base_args(ws) + ["--window", "1990:1991"])
        assert code == 3
        assert "no record accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["indicators", "rank", "series"])
    def test_every_line_rejected_says_why(self, ws, capsys, command):
        # The stats and each line's diagnostic come before the message, as
        # validate prints them.
        (ws / "bad.jsonl").write_text('{broken\n[1, 2]\n', encoding="utf-8")
        code = main([command, "--corpus", str(ws / "bad.jsonl"),
                     "--registry", str(ws / "registry.csv")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "corpus: 2 read, 0 accepted, 2 rejected (malformed=2)",
            "  line 1: malformed (Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1))",
            "  line 2: malformed (line is not an object)",
            "noai: no record accepted",
        ]

    def test_strict_surfaces_bad_line(self, ws, capsys):
        with open(ws / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        assert main(base_args(ws)) == 0
        capsys.readouterr()
        assert main(base_args(ws) + ["--strict"]) == 3

    def test_rank_degenerate_after_filters(self, ws, capsys):
        # Top-1 leaves a single actor, which cannot be correlated.
        code = main(base_args(ws, "rank") + ["--top-n", "1"])
        assert code == 3
        assert "at least 2 actors" in capsys.readouterr().err

    def test_rank_empty_after_filters(self, ws, capsys):
        code = main(base_args(ws, "rank") + ["--min-pubs", "1e9"])
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "noai: cannot rank an empty indicator table\n")


class TestIndicators:
    def test_csv_contract(self, ws, capsys):
        assert main(base_args(ws)) == 0
        out = capsys.readouterr().out
        header, rows = parse_csv(out)
        assert header == list(INDICATOR_COLUMNS)
        assert [r[0] for r in rows] == ["USA", "FRA"]  # descending volume
        for row in rows:
            for cell in row[2:9]:
                if cell:
                    assert "." in cell and len(cell.split(".")[1]) == 2

    def test_values_consistent_with_library(self, ws, capsys):
        from noai.engine import Aggregator, build_indicator_table
        from noai.model import Level

        assert main(base_args(ws)) == 0
        _, rows = parse_csv(capsys.readouterr().out)

        records, _ = load_corpus(str(ws / "corpus.jsonl"), registry=REG10)
        agg = Aggregator()
        agg.add_all(parsed(records))
        by_actor = {r.actor: r for r in build_indicator_table(
            agg.finish(), REG10, (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE))}
        for row in rows:
            mem = by_actor[row[0]]
            assert row[2] == f"{mem.x_total:.2f}"
            assert row[3] == f"{mem.oa_share:.2f}"
            assert row[9] == str(mem.n_oa_whole)

    def test_display_names_from_actor_registry(self, ws, capsys):
        assert main(base_args(ws) + ["--actors", str(ws / "actors.csv")]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][1] == "United States"
        assert rows[1][1] == "France"

    def test_json_mirror_full_precision(self, ws, capsys):
        assert main(base_args(ws) + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "indicators"
        assert [r["actor"] for r in payload["rows"]] == ["USA", "FRA"]
        usa = payload["rows"][0]
        assert set(usa) == set(INDICATOR_COLUMNS)
        assert usa["x_total"] == 4.0
        assert usa["oa_share"] == 50.0

    def test_out_file_and_manifest(self, ws, capsys):
        out = ws / "table.csv"
        assert main(base_args(ws) + ["--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((ws / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "indicators"
        assert manifest["tool"]["name"] == "noai"
        assert manifest["corpus_stats"]["records_accepted"] == 6
        assert manifest["outputs"] == [str(out)]

    def test_stdout_run_writes_no_manifest(self, ws, capsys):
        assert main(base_args(ws)) == 0
        assert list(ws.glob("*.manifest.json")) == []

    def test_identical_runs_identical_bytes(self, ws):
        a, b = ws / "a.csv", ws / "b.csv"
        assert main(base_args(ws) + ["--out", str(a)]) == 0
        assert main(base_args(ws) + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = (ws / "a.csv.manifest.json").read_text().replace(str(a), "X")
        mb = (ws / "b.csv.manifest.json").read_text().replace(str(b), "X")
        assert ma == mb

    def test_priority_override_moves_counts(self, ws, capsys):
        # r5 is gold+green; under green-first priority its credit moves
        # from the gold column to the green column.
        assert main(base_args(ws)) == 0
        _, default_rows = parse_csv(capsys.readouterr().out)
        assert main(base_args(ws) + ["--priority", "green,bronze,gold"]) == 0
        _, flipped_rows = parse_csv(capsys.readouterr().out)
        gold_default = sum(float(r[6]) for r in default_rows)
        gold_flipped = sum(float(r[6]) for r in flipped_rows)
        assert gold_flipped < gold_default

    def test_doc_type_and_doi_filters(self, ws, capsys):
        assert main(base_args(ws) + ["--doc-types", "review"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [r[0] for r in rows] == ["USA"]

    def test_top_n(self, ws, capsys):
        assert main(base_args(ws) + ["--top-n", "1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1

    def test_min_pubs_threshold_strict(self, ws, capsys):
        # FRA has exactly 3.0 fractional publications: a threshold of 3.0
        # must exclude it, one hair lower must keep it.
        assert main(base_args(ws) + ["--min-pubs", "3.0"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert "FRA" not in {r[0] for r in rows}
        assert main(base_args(ws) + ["--min-pubs", "2.9"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert "FRA" in {r[0] for r in rows}


class TestRankCompare:
    def test_rank_output(self, ws, capsys):
        assert main(base_args(ws, "rank")) == 0
        out = capsys.readouterr().out
        assert "# spearman subject-category" in out
        assert "# spearman ost-discipline" in out
        header, rows = parse_csv(out)
        assert header[:5] == ["actor", "display_name", "x_total", "oa_share",
                              "oa_share_rank"]
        assert "noai_rank_subject_category" in header
        assert "rank_delta_ost_discipline" in header
        ranks = [int(r[4]) for r in rows]
        assert ranks == sorted(ranks)

    def test_compare_is_not_a_command(self, ws):
        # `rank` is the one name of the rank-shift command.
        proc = entry(base_args(ws, "compare"), ws)
        assert proc.returncode == 2
        assert b"invalid choice: 'compare'" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_identical_profiles_delta_zero_rho_one(self, ws, capsys, tmp_path):
        # One shared field: normalization preserves the share ordering,
        # so both rankings agree exactly.
        corpus = [
            rec("a1", ("Mathematics",), (OAStatus.GOLD,), ("AAA",)),
            rec("a2", ("Mathematics",), (OAStatus.GOLD,), ("AAA",)),
            rec("a3", ("Mathematics",), (OAStatus.GOLD,), ("BBB",)),
            rec("a4", ("Mathematics",), (), ("BBB",)),
            rec("a5", ("Mathematics",), (), ("CCC",)),
            rec("a6", ("Mathematics",), (), ("CCC",)),
        ]
        write_corpus(corpus, str(tmp_path / "twin.jsonl"))
        assert main(["rank", "--corpus", str(tmp_path / "twin.jsonl"),
                     "--registry", str(ws / "registry.csv"),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spearman"]["subject-category"] == 1.0
        assert all(r["rank_delta_subject_category"] == 0
                   for r in payload["rows"])

    def test_undefined_indicator_excluded(self, ws, capsys, tmp_path):
        # ZZZ's only field is closed world-wide, so its indicator is undefined
        # at every level: it is left out of every ranking, and stderr says so.
        corpus = [
            rec("a1", ("Mathematics",), (OAStatus.GOLD,), ("AAA",)),
            rec("a2", ("Mathematics",), (), ("BBB",)),
            rec("a3", ("Mathematics",), (OAStatus.GOLD,), ("BBB",)),
            rec("z1", ("Sociology",), (), ("ZZZ",)),
        ]
        write_corpus(corpus, str(tmp_path / "undefined.jsonl"))
        assert main(["rank", "--corpus", str(tmp_path / "undefined.jsonl"),
                     "--registry", str(ws / "registry.csv"),
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert ("excluded ZZZ: indicator undefined at subject-category, ost-discipline"
                in captured.err)
        rows = json.loads(captured.out)["rows"]
        assert [r["actor"] for r in rows] == ["BBB", "AAA"]

    def test_json_has_spearman_block(self, ws, capsys):
        assert main(base_args(ws, "rank") + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["spearman"]) == {"subject-category", "ost-discipline"}

    @pytest.mark.parametrize("levels", ["ost-discipline", "erc-subfield,ost-discipline"])
    def test_coarse_levels_alone_match_the_oracle(self, ws, capsys, levels):
        # No category level is asked for, so every NOAI is read through the
        # weights of a coarser level alone.
        corpus = random_corpus(seed=61, n_records=400)
        write_corpus(corpus, str(ws / "random.jsonl"))
        assert main(["rank", "--corpus", str(ws / "random.jsonl"),
                     "--registry", str(ws / "registry.csv"),
                     "--level", levels, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        oracles = {lv: BruteForce(corpus, REG10, Level(lv)) for lv in levels.split(",")}
        oracle = oracles["ost-discipline"]
        assert sorted(r["actor"] for r in rows) == [
            a for a in oracle.actors()
            if all(o.noai(a) is not None for o in oracles.values())]
        for row in rows:
            actor = row["actor"]
            assert row["x_total"] == float(oracle.x_total(actor))
            assert row["oa_share"] == float(oracle.oa_share(actor))
            for lv, o in oracles.items():
                assert row["noai_" + lv.replace("-", "_")] == float(o.noai(actor))

    def test_single_level_selection(self, ws, capsys):
        assert main(base_args(ws, "rank") + ["--level", "erc-subfield"]) == 0
        header, _ = parse_csv(capsys.readouterr().out)
        assert "noai_rank_erc_subfield" in header
        assert not any("subject_category" in h for h in header)


class TestSeries:
    def test_columns_and_rows(self, ws, capsys):
        assert main(base_args(ws, "series")) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[:5] == ["year", "total_share", "gold", "bronze", "green"]
        assert len(header) > 5  # per-field columns follow
        assert [r[0] for r in rows] == ["2015", "2016", "2018"]

    def test_single_year_single_row(self, ws, capsys):
        assert main(base_args(ws, "series") + ["--window", "2016:2016"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0][1] == "100.00"  # the one 2016 record is green OA

    def test_all_closed_zero_shares(self, ws, capsys, tmp_path):
        corpus = [rec(f"c{i}", ("Mathematics",), (), ("FRA",)) for i in range(4)]
        write_corpus(corpus, str(tmp_path / "closed.jsonl"))
        assert main(["series", "--corpus", str(tmp_path / "closed.jsonl"),
                     "--registry", str(ws / "registry.csv")]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][1] == "0.00"

    def test_json_rows(self, ws, capsys):
        assert main(base_args(ws, "series") + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["level"] == "ost-discipline"
        assert [r["year"] for r in payload["rows"]] == [2015, 2016, 2018]


class TestValidate:
    def test_clean_corpus(self, ws, capsys):
        assert main(base_args(ws, "validate")) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["record_id", "unknown_categories"]
        assert rows == []

    def test_unknown_categories_reported(self, ws, capsys):
        with open(ws / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "weird", "year": 2018,
                                 "doc_type": "article",
                                 "categories": ["Palmistry", "Economics"]}) + "\n")
        assert main(base_args(ws, "validate")) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows == [["weird", "Palmistry"]]

    def test_strict_fails_on_findings(self, ws, capsys):
        with open(ws / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "weird", "year": 2018,
                                 "doc_type": "article",
                                 "categories": ["Palmistry"]}) + "\n")
        assert main(base_args(ws, "validate") + ["--strict"]) == 3

    def test_manifest_counts_unknown_category_as_accepted(self, ws, capsys):
        with open(ws / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "weird", "year": 2018,
                                 "doc_type": "article",
                                 "categories": ["Palmistry"]}) + "\n")
            fh.write("{broken\n")
        out = ws / "report.csv"
        assert main(base_args(ws, "validate") + ["--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert rows == [["weird", "Palmistry"]]
        manifest = json.loads((ws / "report.csv.manifest.json").read_text())
        stats = manifest["corpus_stats"]
        assert stats["records_read"] == 8
        assert stats["records_accepted"] == 7
        assert stats["rejection_reasons"] == {"malformed": 1}


class TestSynthCommand:
    def spec_file(self, ws):
        spec = {
            "seed": 5, "n_records": 300, "years": [2016, 2017],
            "fields": [{"subject_category": "Mathematics",
                        "ost_discipline": "Mathematics",
                        "erc_subfield": "PE1"}],
            "oa_profiles": {"Mathematics": {"gold": 0.3}},
        }
        path = ws / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_generates_pipeline_inputs(self, ws, capsys):
        spec = self.spec_file(ws)
        code = main(["synth", "--spec", spec, "--out", str(ws / "gen.jsonl"),
                     "--registry-out", str(ws / "gen_reg.csv"),
                     "--actors-out", str(ws / "gen_act.csv")])
        assert code == 0
        assert "wrote 300 records" in capsys.readouterr().err
        assert (ws / "gen.jsonl").exists()
        assert (ws / "gen.jsonl.manifest.json").exists()
        code = main(["indicators", "--corpus", str(ws / "gen.jsonl"),
                     "--registry", str(ws / "gen_reg.csv")])
        assert code == 0  # actor-free spec: header-only table, not an error
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows == []
        # The synthetic corpus itself must validate cleanly.
        assert main(["validate", "--corpus", str(ws / "gen.jsonl"),
                     "--registry", str(ws / "gen_reg.csv"), "--strict"]) == 0

    @pytest.mark.parametrize("text", [
        '{"seed": 1}',
        '{"seed": 1, "n_records": 0, "years": [2016, 2017], "fields": [], '
        '"oa_profiles": {}, "doc_type_weights": null}',
    ], ids=["missing-keys", "null-doc-type-weights"])
    def test_invalid_spec_is_data_error(self, ws, capsys, text):
        (ws / "bad.json").write_text(text, encoding="utf-8")
        assert main(["synth", "--spec", str(ws / "bad.json"),
                     "--out", str(ws / "x.jsonl")]) == 3

    @pytest.mark.parametrize("extra", [
        ["--spec", "nope.json"],
        ["--spec", "spec.json", "--registry-out", ""],
        ["--spec", "spec.json", "--actors-out", ""],
    ])
    def test_missing_spec_or_empty_path(self, ws, extra):
        self.spec_file(ws)
        assert main(["synth", *extra, "--out", str(ws / "x.jsonl")]) == 3

    @pytest.mark.parametrize("bad", ["--out", "--registry-out", "--actors-out"])
    def test_unwritable_side_output_fails_before_generating(self, ws, bad):
        # Whichever output cannot be written, the run leaves no file behind
        # and an output file that already existed keeps its bytes.
        paths = {"--out": "c.jsonl", "--registry-out": "r.csv", "--actors-out": "a.csv"}
        paths[bad] = str(Path("nodir") / paths[bad])
        existing = ws / next(path for flag, path in paths.items() if flag != bad)
        existing.write_bytes(b"old\n")
        before = set(os.listdir(ws))
        assert main(["synth", "--spec", str(DEMO_SPEC),
                     *(arg for flag, path in paths.items() for arg in (flag, path))]) == 3
        assert set(os.listdir(ws)) == before
        assert existing.read_bytes() == b"old\n"

    def test_existing_outputs_are_replaced(self, ws):
        # A run that succeeds replaces every output that already existed and
        # leaves no temporary file beside them.
        paths = [ws / "c.jsonl", ws / "r.csv", ws / "a.csv", ws / "c.jsonl.manifest.json"]
        for path in paths:
            path.write_bytes(b"old\n")
        before = set(os.listdir(ws))
        assert main(["synth", "--spec", str(DEMO_SPEC), "--out", str(paths[0]),
                     "--registry-out", str(paths[1]), "--actors-out", str(paths[2])]) == 0
        assert all(path.read_bytes() != b"old\n" for path in paths)
        assert set(os.listdir(ws)) == before

    def test_only_synth_loads_numpy(self, ws):
        # A fresh interpreter: this one has long imported the generator.
        # A run of another command loads neither numpy nor the dataclass
        # machinery (dataclasses, and the inspect it imports).
        probe = ("import sys, noai.cli; "
                 f"code = noai.cli.main({base_args(ws, 'validate')!r}); "
                 "print(code, sorted({'numpy', 'noai.synth', 'dataclasses', 'inspect'}"
                 " & set(sys.modules)), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []", proc.stderr

    def test_synth_without_numpy_names_the_extra(self, ws):
        # A None entry in sys.modules makes `import numpy` fail as if it
        # were not installed.
        probe = ("import sys; sys.modules['numpy'] = None; "
                 "from noai.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", probe, "synth", "--spec",
                               str(DEMO_SPEC), "--out", "c.jsonl"], cwd=ws,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "noai: synth needs numpy, the synth extra: pip install 'noai[synth]'"]
        assert not (ws / "c.jsonl").exists()


class TestInstitutions:
    def test_actor_kind_and_group(self, ws, capsys, tmp_path):
        corpus = [
            rec("i1", ("Mathematics",), (OAStatus.GOLD,), (),
                institutions=("u1", "u2")),
            rec("i2", ("Mathematics",), (), (), institutions=("u1",)),
            rec("i3", ("Economics",), (OAStatus.GREEN,), (),
                institutions=("u3",)),
        ]
        write_corpus(corpus, str(tmp_path / "inst.jsonl"))
        (tmp_path / "inst_actors.csv").write_text(
            "actor_id,kind,group,display_name\n"
            "u1,institution,G1,Univ One\n"
            "u2,institution,G2,Univ Two\n"
            "u3,institution,G1,Univ Three\n",
            encoding="utf-8",
        )
        args = ["indicators", "--corpus", str(tmp_path / "inst.jsonl"),
                "--registry", str(ws / "registry.csv"),
                "--actors", str(tmp_path / "inst_actors.csv"),
                "--actor-kind", "institution"]
        assert main(args) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert {r[0] for r in rows} == {"u1", "u2", "u3"}
        assert main(args + ["--group", "G1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert {r[0] for r in rows} == {"u1", "u3"}


class TestCyclicCollector:
    """main() runs with the cyclic collector off, so a run must leave the
    same cyclic garbage whatever the corpus size and however many lines it
    rejects, and the collector's state as it found it."""

    RUNS = {
        "indicators": ["indicators"],
        "rank": ["rank", "--actor-kind", "institution"],
        "series": ["series"],
        "validate": ["validate"],
        "strict-abort": ["indicators", "--strict"],
    }

    @staticmethod
    def run(ws, n_records, argv):
        """Exit code of an in-process run on n_records, and the cyclic
        garbage that gc.collect() finds after it."""
        path = ws / f"corpus-{n_records}.jsonl"
        write_corpus(random_corpus(seed=1, n_records=n_records,
                                   institution_pool=("u1", "u2", "u3")), path)
        with open(path, "a", encoding="utf-8") as fh:
            # The reject path too: a strict run aborts at the first of these.
            fh.write('{broken\n{"id": 1}\n' * (n_records // 20))
        gc.collect()
        code = main([*argv, "--corpus", str(path), "--registry", str(ws / "registry.csv"),
                     "--out", str(ws / "out.csv")])
        return code, gc.collect()

    @pytest.mark.parametrize("name", RUNS)
    def test_garbage_does_not_grow_with_the_corpus(self, ws, capsys, name):
        small = self.run(ws, 200, self.RUNS[name])
        large = self.run(ws, 2000, self.RUNS[name])
        assert small[0] == large[0] == (3 if name == "strict-abort" else 0)
        assert small[1] == large[1]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv,code", [(["series"], 0), (["series", "--strict"], 3),
                                           (["bogus"], SystemExit)])
    def test_collector_state_restored(self, ws, capsys, enabled, argv, code):
        with open(ws / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                assert main(base_args(ws, argv[0]) + argv[1:]) == code
            except SystemExit:
                assert code is SystemExit
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()


class TestDemoPipeline:
    def test_walkthrough_writes_every_output(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--out-dir", str(tmp_path),
             "--n-records", "500"],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("indicators.csv", "rank.csv", "series.csv"):
            assert (tmp_path / name).is_file()
            assert (tmp_path / f"{name}.manifest.json").is_file()


DEMO_SPEC = Path(__file__).resolve().parents[1] / "data" / "synth_demo.json"

#: name -> (command, extra flags). Each runs once per format on the demo
#: corpus, with relative paths, so that the manifests are byte-stable.
CLI_GOLDEN = {
    "indicators": ("indicators", []),
    "indicators-institution": ("indicators", ["--actor-kind", "institution",
                                              "--min-pubs", "5"]),
    "indicators-top": ("indicators", ["--top-n", "3", "--min-pubs", "10"]),
    "indicators-priority": ("indicators", ["--priority", "green,bronze,gold",
                                           "--doc-types", "article,review"]),
    "rank": ("rank", []),
    "rank-levels": ("rank", ["--level", "erc-subfield,subject-category"]),
    "rank-window": ("rank", ["--window", "2016:2018"]),
    "series": ("series", []),
    "series-category": ("series", ["--level", "subject-category", "--require-doi"]),
    "validate": ("validate", []),
}
#: (name, format) -> (exit code, SHA-256 of the output file, of its manifest
#: and of stderr).
CLI_DIGESTS = {
    ("indicators", "csv"): (
        0, "13bc26c741b17f7d965d928865c50d8d899824797d96030e1c455d52c1a52f60",
        "71f78f2a6ad76f077688e6611db8af2f087a7bb18faeb4a57549bc6fafd315de",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("indicators", "json"): (
        0, "c9c0af63daaa2b0e5d0eca4da5012f7c33ee856a71f8335958ee44c1d3523ea6",
        "73f3a271f39d21069cd165d5ca051c06cbb601bf91aa0caaf4cbfe40caabbe80",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("indicators-institution", "csv"): (
        0, "fb97608ec32555cb7c34d6ed34ba7e5e08264d593e6685bcfb96d642a2d692e3",
        "b15099bcb9495ef4c633c327450230ba79dd8bef3e53d72ab4ab7964b626de0c",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("indicators-institution", "json"): (
        0, "fd76247f6630e413cbefb4e4f4307c81f4adc0b0577ba3623b59bbf10f0b245b",
        "3c2b1bdf9ce3c6eeb10689e602eecc8ab11fce3c2584374e45ec547e7093893c",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("indicators-priority", "csv"): (
        0, "36cc036b22ed5634f285bb73a6891ccde54e94ee7d2ad7dbec7ae49db3c23f2d",
        "64c7cde978a0b31e4df96b9c6b28cbf7f4106c10517dddb67b01139bb7e84395",
        "d1ad0421fb0f58306b7e43099b7f1441961d9ac168c17b35819c91352a3be3bb"),
    ("indicators-priority", "json"): (
        0, "532e3289c8a8315f62386124f94e61ce00b8cc62015a7b84c643378200438598",
        "c534380868e3f46f91932bcb36d20c2c7ac58c9cb096e3110b62760bd4f6c91f",
        "d1ad0421fb0f58306b7e43099b7f1441961d9ac168c17b35819c91352a3be3bb"),
    ("indicators-top", "csv"): (
        0, "7ed241d5fa9ba8ba76fb6286e246b2a93467e5f38731d8ce151df649d3bbe63b",
        "239d994a13a6158deeb74b7bb2194be30b4233d84f3ea3f67582b832f12ea416",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("indicators-top", "json"): (
        0, "afc5278045f356ec4d212fd45709265bc0f7690c3970533fdfa29f6dcf663853",
        "85487ed7d000caa67d52ab41128b13b1de5e8e1efca75da3ae92cb23a49a5804",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("rank", "csv"): (
        0, "f362cdb9e77d3aa66b94637f323704e030f6514a23cbb748824e6c788b419217",
        "a0f228226397e499bb04a61cb38f20af1b822d3a064ea23449dd99af885b41c6",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("rank", "json"): (
        0, "f761306b88205201a51d19fce769c9c85d3d7dacb6664c4a1d8ba7a03a7380d9",
        "c8219d6d8f41060254571f7eeedeecdad649c90d77a56fdecc39438c82aae927",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("rank-levels", "csv"): (
        0, "39dd0bdfefe4fbf6d53928e264d25717ff0768851c3462809f710304d2bda464",
        "e8d06a0fea166145a21db47006405515a8cea6b0e5dfc94dfef40b0c3f7a492d",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("rank-levels", "json"): (
        0, "8ebb23ae0f5c95fce42b84531ea9921c13e99b8789ffc56921c52f0c3793a9d7",
        "697a9ed21d6826b5b7ee4e768b8047ca7a21b63d94911bbf8f1a326a21fd16eb",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("rank-window", "csv"): (
        0, "1c92a27094b9a54daaca875bbcb5e3ae3ca96725a82935e5861a780ebaf8b716",
        "7857c7a38cbc2904161686f588d56b72873c583646397fb38128ee8ab61c5996",
        "067cf8fab5ad57c70b4198e6c49582d50b48cf6bb21572660161afb93d063dee"),
    ("rank-window", "json"): (
        0, "16e35e648a90cc2a26a25abcc2de3fae84913422697290436cbd07b5b6189009",
        "41517a18d710b0d2ab9455b20463524a799f1437bad68fb6f4ad7e50881e4d51",
        "067cf8fab5ad57c70b4198e6c49582d50b48cf6bb21572660161afb93d063dee"),
    ("series", "csv"): (
        0, "c42a45a68a304581c601f4ee0552cc2db3023fdb2ee39fbec9cca1d515cda290",
        "d8f8a9b34b4bf31586753c59f261971d7ed291756c07d4b71aa400bc9fa43f8f",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("series", "json"): (
        0, "67482f7e6c7e40d8cc6e6d0cc03916f5904a8608d7ae0749eab163b36e76bfb6",
        "f05bf037889552b4f2c197bdc8282fc1097a971dc329c5fcb1fa604a01058c4b",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("series-category", "csv"): (
        0, "e10f0d95859adb10a64ad942fb7566fdc823a931f5c154d969938ac47c4bbca9",
        "2c425857bd1313c743c23e07aa2a346a9c6e85c67f8cf0d8065204a09034f5f8",
        "fc31c9a2e55545aef99788c81934ad0d7cbd57c1c33c8724a1b8ac012a4e8230"),
    ("series-category", "json"): (
        0, "79d5faf4da29d916ea49223fc737b7e998ea3f7cf20704cc42898a8fef620d0f",
        "1d0c85087797ff643121e6d2d2decb2a9062d5326ed595a83b0e3be2568ae461",
        "fc31c9a2e55545aef99788c81934ad0d7cbd57c1c33c8724a1b8ac012a4e8230"),
    ("validate", "csv"): (
        0, "c7bf02fb114c5fa9a2f76cdb35d0cd8c31128fb9af381367c54609145a8cf16e",
        "5ec91517691b0d6c13183bb9fee67e20cd7df4f6eb1c485989752d7e202c0d24",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
    ("validate", "json"): (
        0, "5dabe23a1a753d18d3206d417d25070dfca6571b497e79024349502487b2e9cc",
        "7a6455489b8f35867c57b623e09955b0754df9443bc8b5ba91b02dce15ba6980",
        "7319c03e8eddc9c9296d61f1d54d8cdb10b5aef8e8edd505820fe7bdb1a2fa15"),
}


class TestGolden:
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
    def test_output_digests(self, tmp_path, monkeypatch, capsys, name, out_format):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--spec", str(DEMO_SPEC), "--out", "corpus.jsonl",
                     "--registry-out", "registry.csv", "--actors-out", "actors.csv"]) == 0
        capsys.readouterr()
        command, extra = CLI_GOLDEN[name]
        argv = [command, "--corpus", "corpus.jsonl", "--registry", "registry.csv"]
        if command in ("indicators", "rank"):
            argv += ["--actors", "actors.csv"]
        out = f"out.{out_format}"
        code = main(argv + extra + ["--format", out_format, "--out", out])
        err = capsys.readouterr().err
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            (tmp_path / out).read_bytes(),
            (tmp_path / f"{out}.manifest.json").read_bytes(),
            err.encode("utf-8")))
        assert (code, *digests) == CLI_DIGESTS[name, out_format]


class TestReplicationLaw:
    def test_a_corpus_and_its_copy_give_the_same_shares(self, tmp_path, monkeypatch, capsys):
        # Every count doubles, so every share and NOAI is the same float and
        # every whole count doubles.
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--spec", str(DEMO_SPEC), "--out", "corpus.jsonl",
                     "--registry-out", "registry.csv"]) == 0
        lines = Path("corpus.jsonl").read_text(encoding="utf-8").splitlines()
        copies = [json.dumps({**json.loads(line), "id": f"copy-{json.loads(line)['id']}"},
                             separators=(",", ":")) for line in lines]
        Path("double.jsonl").write_text("\n".join(lines + copies) + "\n", encoding="utf-8")
        rows = {}
        for name in ("corpus", "double"):
            assert main(["indicators", "--corpus", f"{name}.jsonl", "--registry",
                         "registry.csv", "--format", "json", "--out", f"{name}.json"]) == 0
            rows[name] = {r["actor"]: r for r in json.loads(Path(f"{name}.json").read_text())["rows"]}
        capsys.readouterr()
        assert rows["corpus"].keys() == rows["double"].keys() and rows["corpus"]
        for actor, one in rows["corpus"].items():
            two = rows["double"][actor]
            for column in INDICATOR_COLUMNS:
                if column in ("x_total", "n_oa_whole"):
                    assert two[column] == 2 * one[column], (actor, column)
                else:
                    assert two[column] == one[column], (actor, column)


#: The process entry, noai.cli.run, as `python -m noai` runs it, with the
#: corpus cut into argv[1] ranges (see noai.shards) whatever the cores. A
#: process that would end with a child left unreaped exits 99 instead.
ENTRY_IN_RANGES = """
import os, sys
import noai.shards

n = int(sys.argv.pop(1))
noai.shards.MIN_SHARD_BYTES = 1
os.sched_getaffinity = lambda pid: set(range(n))
parent, end = os.getpid(), os._exit


def _exit(code):
    if os.getpid() == parent:
        try:
            os.waitpid(-1, os.WNOHANG)
            code = 99
        except ChildProcessError:
            pass
    end(code)


os._exit = _exit
from noai.cli import run

run()
"""


def entry(argv, cwd, ranges=None, closed=None):
    """A `python -m noai` process on argv, or ENTRY_IN_RANGES in `ranges`
    ranges; `closed` names a standard descriptor, 1 or 2, to close first."""
    command = ([sys.executable, "-m", "noai"] if ranges is None
               else [sys.executable, "-c", ENTRY_IN_RANGES, str(ranges)])
    if closed is not None:
        command = ["sh", "-c", f'exec "$0" "$@" {closed}>&-', *command]
    return subprocess.run([*command, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, timeout=120)


def in_process(argv, capsys):
    """Exit code, standard output and standard error of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo corpus with its registry and actor files, written once."""
    path = tmp_path_factory.mktemp("demo")
    code = main(["synth", "--spec", str(DEMO_SPEC), "--out", str(path / "corpus.jsonl"),
                 "--registry-out", str(path / "registry.csv"),
                 "--actors-out", str(path / "actors.csv")])
    assert code == 0
    return path


class TestEntry:
    """`python -m noai` ends with os._exit; it must give what main() gives."""

    @pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
    def test_golden_digests(self, demo, tmp_path, name):
        # TestGolden pins main()'s results to the same digests. The paths are
        # relative, as there, so that the manifests match.
        for file in demo.iterdir():
            (tmp_path / file.name).symlink_to(file)
        command, extra = CLI_GOLDEN[name]
        argv = [command, "--corpus", "corpus.jsonl", "--registry", "registry.csv"]
        if command in ("indicators", "rank"):
            argv += ["--actors", "actors.csv"]
        for out_format in ("csv", "json"):
            out = f"out.{out_format}"
            proc = entry([*argv, *extra, "--format", out_format, "--out", out], tmp_path)
            digests = tuple(hashlib.sha256(data).hexdigest() for data in (
                (tmp_path / out).read_bytes(), (tmp_path / f"{out}.manifest.json").read_bytes(),
                proc.stderr))
            assert (proc.returncode, *digests) == CLI_DIGESTS[name, out_format]
            assert proc.stdout == b""

    @pytest.mark.parametrize("argv", [
        ["--version"], ["--help"], ["bogus"], ["indicators", "--top-n", "0"],
        ["indicators", "--corpus", "missing.jsonl", "--registry", "registry.csv"],
        ["rank", "--corpus", "corpus.jsonl", "--registry", "registry.csv", "--format", "json"],
    ], ids=["version", "help", "usage", "bad-flag", "data-error", "stdout"])
    def test_same_output_and_code_as_main(self, ws, capsys, argv):
        proc = entry(argv, ws)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv, capsys)

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_no_child_left(self, ws, capsys, ranges):
        argv = [*base_args(ws), "--actors", str(ws / "actors.csv")]
        proc = entry(argv, ws, ranges=ranges)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv, capsys)


class TestClosedStreams:
    """A run with standard output or error closed prints no traceback. With
    --out it writes what a normal run writes. Rows for a closed standard
    output are an I/O error; a closed standard error loses only its lines."""

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("closed", [1, 2])
    def test_closed_descriptor(self, ws, capsys, closed, ranges, to_file):
        argv = base_args(ws)
        if to_file:
            argv += ["--out", str(ws / "out.csv")]
        code, out, err = in_process(argv, capsys)
        written = [p.read_bytes() for p in (ws / "out.csv", ws / "out.csv.manifest.json")
                   if to_file]
        for path in ws.glob("out.csv*"):
            path.unlink()
        proc = entry(argv, ws, ranges=ranges, closed=closed)
        assert code == 0 and b"Traceback" not in proc.stderr
        if closed == 1:
            if not to_file:
                err += b"noai: cannot write output: standard output is closed\n"
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0 if to_file else 3, b"", err)
        else:
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")
        assert [p.read_bytes() for p in (ws / "out.csv", ws / "out.csv.manifest.json")
                if to_file] == written

    def test_no_standard_error_keeps_its_lines_out_of_standard_output(
            self, ws, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stderr", None)
        assert main(base_args(ws)) == 0
        assert capsys.readouterr().out.startswith("actor,")

    def test_unwritable_standard_error(self, ws, capsys, monkeypatch):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        out = ws / "out.csv"
        monkeypatch.setattr(sys, "stderr", Unwritable())
        assert main([*base_args(ws), "--out", str(out)]) == 0
        assert main(base_args(ws, "series") + ["--window", "1990:1991"]) == 3
        assert capsys.readouterr().out == ""
        assert out.read_bytes().startswith(b"actor,")

    def test_a_failed_flush_is_an_io_error(self, ws, capsys, monkeypatch):
        class BrokenPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        class Exited(Exception):
            pass

        def _exit(code):
            raise Exited(code)

        monkeypatch.setattr(sys, "argv", ["noai", *base_args(ws)])
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        monkeypatch.setattr(os, "_exit", _exit)
        with pytest.raises(Exited) as exited:
            run()
        assert exited.value.args == (3,)
        assert capsys.readouterr().err.endswith(
            "\nnoai: cannot write standard output: [Errno 32] Broken pipe\n")
