"""Corpus and registry IO: parsing, filtering, accounting, round-trips."""

from __future__ import annotations

import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noai.ingest as ingest
from conftest import (
    CATS10,
    REG10,
    RawRecord,
    counted,
    load_corpus,
    random_corpus,
    registry_csv_text,
    serialize_record,
    write_corpus,
)
from noai.errors import (
    DuplicateCategory,
    IoFailure,
    MalformedRecord,
    MalformedRow,
    NoaiError,
    UnknownCategory,
)
from noai.ingest import (
    REASON_DOC_TYPE,
    REASON_DUPLICATE_ID,
    REASON_EMPTY_CATEGORIES,
    REASON_MALFORMED,
    REASON_NO_DOI,
    REASON_UNKNOWN_CATEGORY,
    REASON_YEAR,
    CorpusReader,
    IngestOptions,
    load_actor_registry,
    load_registry,
    validate_corpus,
)
from noai.model import (
    RAW_STATUSES,
    ActorKind,
    DocType,
    OAStatus,
    PublicationRecord,
)


def read(path, registry=None, options=None):
    """The records the reader yields for a corpus file, with its stats."""
    reader = CorpusReader(path, registry, options)
    return list(reader), reader.stats


def corpus_file(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def line(**overrides):
    obj = {
        "id": "r1", "year": 2018, "doc_type": "article",
        "oa": ["gold"], "categories": ["Mathematics"],
        "doi": True, "countries": ["FRA"], "institutions": [],
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestParsing:
    def test_minimal_record_defaults(self, tmp_path):
        path = corpus_file(tmp_path, [json.dumps({
            "id": "r1", "year": 2018, "doc_type": "review",
            "categories": ["Economics"],
        })])
        records, stats = read(path)
        assert stats.records_accepted == 1
        rec = records[0]
        assert rec.status is OAStatus.CLOSED
        assert rec.actors == frozenset()
        # No doi reads as false; the doc type is the one given.
        _, stats = read(path, options=IngestOptions(
            doc_types=frozenset({DocType.REVIEW}), require_doi=True))
        assert stats.rejection_reasons == {REASON_NO_DOI: 1}

    def test_full_record(self, tmp_path):
        path = corpus_file(tmp_path, [line(oa=["green", "gold"])])
        records, _ = read(path)
        assert records[0].status is OAStatus.GOLD
        records, _ = read(path, options=IngestOptions(
            priority=(OAStatus.GREEN, OAStatus.BRONZE, OAStatus.GOLD)))
        assert records[0].status is OAStatus.GREEN

    def test_duplicate_categories_within_record_deduped(self, tmp_path):
        path = corpus_file(tmp_path, [line(categories=["A", "B", "A"])])
        records, stats = read(path)
        assert records[0].subject_categories == ("A", "B")
        assert stats.records_accepted == 1

    def test_category_order_kept(self, tmp_path):
        # The first category is the primary one, so input order survives.
        path = corpus_file(tmp_path, [line(categories=["B cat", "A cat", "B cat"])])
        records, _ = read(path)
        assert records[0].subject_categories == ("B cat", "A cat")

    def test_fields_built_with_final_types(self, tmp_path):
        path = corpus_file(tmp_path, [line(oa=["green", "gold", "green"],
                                           countries=["FRA", "FRA", "USA"],
                                           institutions=["u1", "u1"])])
        records, _ = read(path)
        rec = records[0]
        assert type(rec) is PublicationRecord
        assert type(rec.status) is OAStatus
        assert rec.status is OAStatus.GOLD
        assert type(rec.subject_categories) is tuple
        assert type(rec.actors) is frozenset
        assert rec.actors == {"FRA", "USA"}
        records, _ = read(path, options=IngestOptions(actor_kind=ActorKind.INSTITUTION))
        assert type(records[0].actors) is frozenset
        assert records[0].actors == {"u1"}
        records, _ = read(path, options=IngestOptions(actor_kind=None))
        assert records[0].actors == frozenset()

    def test_blank_lines_skipped_uncounted(self, tmp_path):
        path = corpus_file(tmp_path, [line(), "", "   ", line(id="r2")])
        records, stats = load_corpus(path)
        assert stats.records_read == 2
        assert len(records) == 2

    @pytest.mark.parametrize("bad", [
        "not json",
        json.dumps(["a", "list"]),
        line(id=""),
        line(id=7),
        line(year="2018"),
        line(year=None),
        line(doc_type="thesis"),
        line(oa=["diamond"]),
        line(oa="gold"),
        # Closed is what no raw status means; it is never a raw status itself.
        line(oa=["closed"]),
        line(year=True),
        line(categories="Mathematics"),
        line(categories=[""]),
        line(doi="yes"),
        # Both actor lists are checked, whichever kind is credited.
        line(countries=[1]),
        line(countries="FRA"),
        line(institutions=[1]),
        line(institutions="u1"),
        # JSON escapes of lone surrogates parse, but no UTF-8 output holds them.
        line(id="\ud800"),
        line(countries=["\ud800"]),
        line(institutions=["FRA\udfff"]),
        line(categories=["Mathematics", "\udc80"]),
        pytest.param("[" * 100_000, id="nested-past-recursion-limit"),
    ])
    @pytest.mark.parametrize("kind", [ActorKind.COUNTRY, ActorKind.INSTITUTION, None])
    def test_malformed_rejected(self, tmp_path, bad, kind):
        path = corpus_file(tmp_path, [bad, line(id="ok")])
        records, stats = read(path, options=IngestOptions(actor_kind=kind))
        assert [r.id for r in records] == ["ok"]
        assert stats.rejection_reasons[REASON_MALFORMED] == 1
        assert stats.diagnostics

    def test_invalid_utf8_line_is_one_malformed_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join([
            line(id="a").encode(), b'{"id": "\xff"}',
            line(id="b").encode(), line(id="c").encode(),
        ]) + b"\n")
        records, stats = load_corpus(str(path))
        assert [r.id for r in records] == ["a", "b", "c"]
        assert stats.records_rejected == 1
        assert stats.rejection_reasons[REASON_MALFORMED] == 1

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_line_endings(self, tmp_path, ending):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(ending.join(line(id=i).encode() for i in "abc") + ending)
        records, stats = load_corpus(str(path))
        assert [r.id for r in records] == ["a", "b", "c"]
        assert stats.records_read == 3

    def test_empty_categories_specific_reason(self, tmp_path):
        path = corpus_file(tmp_path, [line(categories=[])])
        _, stats = load_corpus(path)
        assert stats.rejection_reasons[REASON_EMPTY_CATEGORIES] == 1

    def test_strict_raises_on_malformed(self, tmp_path):
        path = corpus_file(tmp_path, ["not json"])
        with pytest.raises(MalformedRecord):
            load_corpus(path, options=IngestOptions(strict=True))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(str(tmp_path / "nope.jsonl"))


class TestSharedStrings:
    @pytest.mark.parametrize("kind", [ActorKind.COUNTRY, ActorKind.INSTITUTION])
    def test_one_object_per_category_and_actor(self, tmp_path, kind):
        # Records of one pass hold one string object per distinct category
        # and credited actor id, however the line wrote it.
        lines = [
            line(id="r1", categories=["Cell Biology", "Mathematics"],
                 countries=["FRA", "USA"], institutions=["univ-x"]),
            line(id="r2", categories=["Mathematics"], countries=["USA"],
                 institutions=["univ-x", "univ-y"]),
            line(id="r3", categories=["Cell Biology"], countries=["FRA"],
                 institutions=["univ-y"]).replace("Cell Biology", "Cell Biolog\\u0079"),
        ]
        assert "\\u0079" in lines[2]
        records, _ = read(corpus_file(tmp_path, lines), options=IngestOptions(actor_kind=kind))
        assert len(records) == 3
        for strings in ([c for r in records for c in r.subject_categories],
                        [a for r in records for a in r.actors]):
            first = {}
            for text in strings:
                assert first.setdefault(text, text) is text
            assert len(first) == 2 and len(strings) > 2


def _blocks_outcome(path, block):
    """`_outcome` of a reader that reads `block` bytes at a time."""
    with mock.patch.object(ingest, "READ_BLOCK", block):
        return _outcome(CorpusReader(path))


#: Corpora whose lines end every way the reader accepts, each with a
#: malformed line: the line number in its diagnostic shows where lines split.
_A, _B = line(id="a").encode(), line(id="b").encode()
_BLOCK_EDGES = {
    "crlf": (_A + b"\r\n" + b"oops\r\n" + _B + b"\r\n", 2),
    "lone-cr": (_A + b"\r" + b"oops\r" + b"\r" + _B + b"\r", 2),
    "no-final-break": (_A + b"\n" + b"oops\n" + _B, 2),
    "blank-lines": (b"\n" + _A + b"\n\n  \r\n" + b"oops\n" + b"\r\n" + _B + b"\n", 5),
    "long-line": (line(id="a", categories=["C" * 3000]).encode() + b"\r\noops\n" + _B, 2),
}


class TestBlocks:
    """The reader splits blocks of READ_BLOCK bytes into lines; small blocks
    put every line break and every line across a block edge."""

    @pytest.mark.parametrize("name", _BLOCK_EDGES)
    def test_lines_do_not_depend_on_block_edges(self, tmp_path, name):
        data, bad_line = _BLOCK_EDGES[name]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        whole = _blocks_outcome(path, ingest.READ_BLOCK)
        records, error, stats, diagnostics = whole
        assert [r.id for r in records] == ["a", "b"]
        assert error is None and stats["records_read"] == 3
        assert [d[0] for d in diagnostics] == [bad_line]
        for block in (*range(1, 300), 4096):
            assert _blocks_outcome(path, block) == whole, block

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.sampled_from([b"x", b"yz", b" ", b"\n", b"\r", b"\r\n"]))
           .map(b"".join), block=st.integers(1, 9))
    def test_blocks_hold_the_lines_of_the_stream(self, data, block):
        with mock.patch.object(ingest, "READ_BLOCK", block):
            blocks = list(ingest._line_blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        assert [piece for b in blocks for piece in b.splitlines()] == data.splitlines()


class TestFilters:
    def test_doc_type_filter(self, tmp_path):
        path = corpus_file(tmp_path, [
            line(id="a", doc_type="article"),
            line(id="b", doc_type="letter"),
        ])
        records, stats = load_corpus(path, options=IngestOptions(
            doc_types=frozenset({DocType.ARTICLE})))
        assert [r.id for r in records] == ["a"]
        assert stats.rejection_reasons[REASON_DOC_TYPE] == 1

    def test_window_filter_inclusive(self, tmp_path):
        path = corpus_file(tmp_path, [
            line(id=f"y{y}", year=y) for y in (2014, 2015, 2019, 2020)
        ])
        records, stats = load_corpus(path, options=IngestOptions(
            window=(2015, 2019)))
        assert [r.id for r in records] == ["y2015", "y2019"]
        assert stats.rejection_reasons[REASON_YEAR] == 2

    def test_require_doi(self, tmp_path):
        path = corpus_file(tmp_path, [line(id="a", doi=False), line(id="b")])
        records, stats = load_corpus(path, options=IngestOptions(require_doi=True))
        assert [r.id for r in records] == ["b"]
        assert stats.rejection_reasons[REASON_NO_DOI] == 1

    def test_filters_never_raise_in_strict_mode(self, tmp_path):
        # Strictness concerns malformedness, not filtering.
        path = corpus_file(tmp_path, [line(id="a", year=1999), line(id="b")])
        records, _ = load_corpus(path, options=IngestOptions(
            window=(2015, 2019), strict=True))
        assert [r.id for r in records] == ["b"]

    def test_duplicate_id_first_accepted_wins(self, tmp_path):
        path = corpus_file(tmp_path, [
            line(id="a", year=2016),
            line(id="a", year=2017),
        ])
        records, stats = load_corpus(path)
        assert len(records) == 1
        assert records[0].year == 2016
        assert stats.rejection_reasons[REASON_DUPLICATE_ID] == 1

    def test_duplicate_of_filtered_record_not_flagged(self, tmp_path):
        # Only accepted ids reserve their id.
        path = corpus_file(tmp_path, [
            line(id="a", year=1999),
            line(id="a", year=2016),
        ])
        records, stats = load_corpus(path, options=IngestOptions(window=(2015, 2019)))
        assert len(records) == 1
        assert stats.rejection_reasons[REASON_DUPLICATE_ID] == 0

    def test_duplicate_id_strict_raises(self, tmp_path):
        path = corpus_file(tmp_path, [line(id="a"), line(id="a")])
        with pytest.raises(MalformedRecord):
            load_corpus(path, options=IngestOptions(strict=True))


class TestRegistryGate:
    def test_unknown_category_rejected_with_registry(self, tmp_path, reg10):
        path = corpus_file(tmp_path, [
            line(id="a", categories=["Mathematics"]),
            line(id="b", categories=["Mathematics", "Palmistry"]),
        ])
        records, stats = load_corpus(path, registry=reg10)
        assert [r.id for r in records] == ["a"]
        assert stats.rejection_reasons[REASON_UNKNOWN_CATEGORY] == 1

    def test_no_registry_accepts_anything(self, tmp_path):
        path = corpus_file(tmp_path, [line(categories=["Palmistry"])])
        records, _ = load_corpus(path)
        assert len(records) == 1

    def test_strict_raises_unknown_category(self, tmp_path, reg10):
        path = corpus_file(tmp_path, [line(categories=["Palmistry"])])
        with pytest.raises(UnknownCategory):
            load_corpus(path, registry=reg10, options=IngestOptions(strict=True))

    def test_validate_corpus_per_record_granularity(self, reg10):
        recs = [
            PublicationRecord(id=f"r{i}", year=2018, status=OAStatus.CLOSED,
                              subject_categories=("Palmistry",), actors=frozenset())
            for i in range(3)
        ]
        diags = validate_corpus(recs, reg10)
        assert len(diags) == 3
        assert all(d.unknown_categories == ("Palmistry",) for d in diags)

    def test_validate_corpus_clean(self, reg10):
        recs = [PublicationRecord(id="r", year=2018, status=OAStatus.CLOSED,
                                  subject_categories=("Economics",), actors=frozenset())]
        assert validate_corpus(recs, reg10) == []


class TestRoundTrip:
    def test_corpus_round_trip(self, tmp_path):
        corpus = random_corpus(seed=3, n_records=200)
        path = tmp_path / "rt.jsonl"
        n = write_corpus(corpus, str(path))
        assert n == 200
        loaded, stats = load_corpus(str(path))
        assert stats.records_rejected == 0
        assert loaded == corpus
        options = IngestOptions()
        assert read(str(path))[0] == [counted(r, options) for r in corpus]

    def test_serialization_is_canonical(self):
        rec = RawRecord(
            id="r", year=2018, doc_type=DocType.ARTICLE,
            raw_statuses=frozenset({OAStatus.GREEN, OAStatus.GOLD}),
            subject_categories=("B", "A"), has_doi=False,
            countries=frozenset({"ZWE", "ALB"}), institutions=frozenset(),
        )
        obj = serialize_record(rec)
        assert obj["oa"] == ["gold", "green"]
        assert obj["countries"] == ["ALB", "ZWE"]
        assert obj["categories"] == ["B", "A"]

    @given(statuses=st.lists(st.sampled_from([OAStatus.GOLD, OAStatus.BRONZE,
                                              OAStatus.GREEN]), unique=True),
           year=st.integers(min_value=1900, max_value=2100),
           doi=st.booleans())
    def test_single_record_round_trip(self, statuses, year, doi, tmp_path_factory):
        rec = RawRecord(
            id="r", year=year, doc_type=DocType.LETTER,
            raw_statuses=frozenset(statuses), subject_categories=("C1", "C2"),
            has_doi=doi, countries=frozenset({"FRA"}), institutions=frozenset({"u1"}),
        )
        path = tmp_path_factory.mktemp("rt") / "one.jsonl"
        write_corpus([rec], str(path))
        loaded, _ = load_corpus(str(path))
        assert loaded == [rec]
        options = IngestOptions(actor_kind=ActorKind.INSTITUTION)
        assert read(str(path), options=options)[0] == [counted(rec, options)]


class TestRegistries:
    def test_load_registry(self, reg10_csv, reg10):
        loaded = load_registry(reg10_csv)
        assert loaded.categories == dict(reg10.categories)

    def test_duplicate_category_raises(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "subject_category,ost_discipline,erc_subfield\n"
            "Mathematics,Mathematics,PE1\n"
            "Mathematics,Computer science,PE6\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateCategory):
            load_registry(str(path))

    def test_byte_order_mark_accepted(self, tmp_path, reg10):
        path = tmp_path / "reg.csv"
        path.write_text(registry_csv_text(reg10), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_registry(str(path)).categories == dict(reg10.categories)

    def test_header_required(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("Mathematics,Mathematics,PE1\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_registry(str(path))

    def test_errors_name_the_physical_line(self, tmp_path):
        # A quoted field spanning two lines does not shift later line numbers.
        path = tmp_path / "reg.csv"
        path.write_text(
            "subject_category,ost_discipline,erc_subfield\n"
            '"Math\nematics",Mathematics,PE1\n'
            "Economics,Social sciences\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="line 4: expected 3 fields"):
            load_registry(str(path))

    def test_any_discipline_and_subfield_names_accepted(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "subject_category,ost_discipline,erc_subfield\n"
            "Mathematics,Astrology,XX9\n",
            encoding="utf-8",
        )
        reg = load_registry(str(path))
        assert reg.categories["Mathematics"] == ("Astrology", "XX9")


class TestActorRegistry:
    def test_load(self, tmp_path):
        path = tmp_path / "actors.csv"
        path.write_text(
            "actor_id,kind,group,display_name\n"
            "FRA,country,,France\n"
            "univ-1,institution,G1,University One\n"
            "DEU,country,,\n",
            encoding="utf-8",
        )
        actors = load_actor_registry(str(path))
        assert actors["FRA"].display_name == "France"
        assert actors["FRA"].group is None
        assert actors["univ-1"].group == "G1"
        assert actors["univ-1"].kind is ActorKind.INSTITUTION
        assert actors["DEU"].display_name == "DEU"

    def test_duplicate_id_raises(self, tmp_path):
        path = tmp_path / "actors.csv"
        path.write_text(
            "actor_id,kind,group,display_name\nFRA,country,,\nFRA,country,,\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow):
            load_actor_registry(str(path))

    def test_bad_kind_raises(self, tmp_path):
        path = tmp_path / "actors.csv"
        path.write_text(
            "actor_id,kind,group,display_name\nFRA,galaxy,,\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow):
            load_actor_registry(str(path))

    def test_group_on_country_raises(self, tmp_path):
        path = tmp_path / "actors.csv"
        path.write_text(
            "actor_id,kind,group,display_name\nFRA,country,G1,\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow):
            load_actor_registry(str(path))


class TestStatsDict:
    def test_as_dict_shape(self, tmp_path):
        path = corpus_file(tmp_path, [line(), "oops"])
        _, stats = load_corpus(path)
        d = stats.as_dict()
        assert d["records_read"] == 2
        assert d["records_accepted"] == 1
        assert d["rejection_reasons"][REASON_MALFORMED] == 1
        assert d["year_range"] == [2018, 2018]


class TestStatsComplete:
    """`reader.stats` is complete however a pass ends."""

    LINES = [
        line(id="a", year=2016),
        "",
        "oops",
        line(id="b", year=2019),
        line(id="a"),
        line(id="c", categories=[]),
        line(id="d", year=2015),
        "{",
        line(id="e", year=2020),
    ]

    def test_full_read(self, tmp_path):
        reader = CorpusReader(corpus_file(tmp_path, self.LINES))
        assert [r.id for r in reader] == ["a", "b", "d", "e"]
        assert reader.stats.as_dict() == {
            "records_read": 8, "records_accepted": 4, "records_rejected": 4,
            "rejection_reasons": {REASON_DUPLICATE_ID: 1, REASON_EMPTY_CATEGORIES: 1,
                                  REASON_MALFORMED: 2},
            "year_range": [2015, 2020],
        }

    def test_strict_abort(self, tmp_path):
        reader = CorpusReader(corpus_file(tmp_path, self.LINES),
                              options=IngestOptions(strict=True))
        seen = []
        with pytest.raises(MalformedRecord, match="line 3"):
            for record in reader:
                seen.append(record.id)
        assert seen == ["a"]
        assert reader.stats.as_dict() == {
            "records_read": 2, "records_accepted": 1, "records_rejected": 0,
            "rejection_reasons": {}, "year_range": [2016, 2016],
        }

    def test_consumer_closes_after_k_records(self, tmp_path):
        reader = CorpusReader(corpus_file(tmp_path, self.LINES))
        records = iter(reader)
        assert [next(records).id, next(records).id] == ["a", "b"]
        records.close()
        assert reader.stats.as_dict() == {
            "records_read": 3, "records_accepted": 2, "records_rejected": 1,
            "rejection_reasons": {REASON_MALFORMED: 1}, "year_range": [2016, 2019],
        }


# Field values for the schema checks: valid and wrongly typed ones, lone
# surrogates (JSON-escaped by json.dumps) and a category the registry lacks.
_TEXT = st.text(st.sampled_from("aZ\u00e9\x00\ud800\udfff"), max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(2013, 2021) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_RECORD = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["r1", "r2", ""]) | _JSON,
    "year": st.integers(2013, 2021) | _JSON,
    "doc_type": st.sampled_from(["article", "letter", "thesis"]) | _JSON,
    "oa": st.lists(st.sampled_from(["gold", "green", "diamond"])) | _JSON,
    "categories": st.lists(st.sampled_from(CATS10[:3] + ("Palmistry",)) | _TEXT,
                           max_size=3) | _JSON,
    "doi": st.booleans() | _JSON,
    "countries": st.lists(st.sampled_from(["FRA", "USA"]) | _TEXT, max_size=2) | _JSON,
    "institutions": st.lists(_TEXT, max_size=2) | _JSON,
})


def _edge(**fields) -> bytes:
    return line(**{"categories": [CATS10[0]], **fields}).encode("ascii")


# Lines where decoding with the bare scanner and with json.loads can part:
# what json.loads rejects around a valid value, values it accepts beyond
# strict JSON, deep nesting, and \u escapes, lone surrogates included.
_EDGES = (
    b"\xef\xbb\xbf" + _edge(),
    _edge() + b" x",
    _edge() + _edge(id="r2"),
    _edge(year=float("nan")),
    _edge(year=float("inf")),
    _edge(extra=[float("nan"), float("-inf")]),
    _edge(year=10**30),
    _edge(extra="deep").replace(b'"deep"', b"[" * 3000 + b"]" * 3000),
    b"[1]",
    b'"r1"',
    b"3",
    b"null",
    _edge(id="r\u00e9", categories=[CATS10[0], "\u00e9"], countries=["\u00e9"]),
    _edge(id="r\ud800"),
    _edge(categories=[CATS10[0], "\udfff"]),
    _edge(countries=["\ud800"]),
    _edge(institutions=["\udfff"]),
    _edge(id="r\\u00e9"),
)
_LINE = st.one_of(
    _RECORD.map(lambda obj: json.dumps(obj).encode("ascii")),
    st.binary(max_size=40),
    _TEXT.map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.sampled_from(_EDGES),
)
_OPTIONS = st.builds(
    IngestOptions,
    doc_types=st.none() | st.just(frozenset({DocType.ARTICLE})),
    window=st.none() | st.just((2015, 2019)),
    require_doi=st.booleans(),
    strict=st.booleans(),
    priority=st.permutations(RAW_STATUSES).map(tuple),
    actor_kind=st.none() | st.sampled_from(ActorKind))


def _outcome(reader):
    """The records a pass yields, how it ended, and the reader's stats."""
    records = []
    error = None
    try:
        for record in reader:
            records.append(record)
    except NoaiError as exc:
        error = (type(exc), str(exc))
    return records, error, reader.stats.as_dict(), reader.stats.diagnostics


def _loads_outcome(path, registry, options):
    """`_outcome` of a reader that decodes every line with json.loads and
    runs every check of `_parse_line`."""
    def no_scanner(text):
        raise ValueError("decode with json.loads")

    parse = ingest._parse_line
    with mock.patch.object(ingest, "_raw_decode", no_scanner), \
            mock.patch.object(ingest, "_parse_line",
                              lambda obj, escaped, priority, actor_kind:
                              parse(obj, True, priority, actor_kind)):
        return _outcome(CorpusReader(path, registry, options))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_LINE, max_size=8), with_registry=st.booleans(),
           options=_OPTIONS)
    def test_any_bytes_are_read_or_counted(self, lines, with_registry, options,
                                           tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
        path.write_bytes(b"\n".join(lines))
        reader = CorpusReader(str(path), REG10 if with_registry else None, options)
        try:
            records = list(reader)
        except NoaiError:
            assert options.strict
            return
        stats = reader.stats
        assert len(records) == stats.records_accepted
        assert stats.records_read == stats.records_accepted + stats.records_rejected
        assert sum(stats.rejection_reasons.values()) == stats.records_rejected

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_LINE, max_size=8), with_registry=st.booleans(),
           options=_OPTIONS)
    def test_scanner_reads_as_json_loads(self, lines, with_registry, options,
                                         tmp_path_factory):
        path = str(tmp_path_factory.mktemp("fuzz") / "corpus.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        registry = REG10 if with_registry else None
        assert (_outcome(CorpusReader(path, registry, options))
                == _loads_outcome(path, registry, options))
