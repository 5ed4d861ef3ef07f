"""Counting and normalization against an exact rational brute-force oracle."""

from __future__ import annotations

import copy
import itertools
import math
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CATS10,
    REG10,
    RawRecord,
    at_level,
    exact_counts,
    from_vectors,
    parsed,
    random_corpus,
    vectors,
    write_corpus,
)
from noai.engine import (
    Aggregator,
    build_indicator_table,
    oa_share,
    yearly_series,
)
from noai.errors import (
    MalformedRecord,
    UndefinedShare,
    UnknownCategory,
)
from noai.ingest import CorpusReader, IngestOptions
from noai.model import (
    ActorKind,
    ClassificationRegistry,
    DocType,
    Level,
    OAStatus,
)
from oracle import OA_TYPES, BruteForce, field_of

TOL = 1e-9
RAW = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)
#: Every --priority order of the three raw statuses.
PRIORITIES = tuple(itertools.permutations(RAW))
LEVELS = (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE, Level.ERC_SUBFIELD)


def aggregate(corpus, **kwargs):
    """The one result of a pass over a raw corpus as the reader parses it
    under kwargs (actor kind, priority)."""
    agg = Aggregator()
    agg.add_all(parsed(corpus, **kwargs))
    return agg.finish()


def noai_of(cells, baselines):
    """The NOAI of one actor's cells against the world's, both keyed by the
    same fields, as the table scores them at the subject-category level,
    where the keys are the fields themselves; None where undefined."""
    result = from_vectors(1, {"A": cells}, baselines)
    (row,) = build_indicator_table(result, REG10, (Level.SUBJECT_CATEGORY,))
    return row.noai[Level.SUBJECT_CATEGORY]


def rec(rec_id, cats, statuses=(), countries=(), year=2018, doc=DocType.ARTICLE):
    return RawRecord(
        id=rec_id, year=year, doc_type=doc, raw_statuses=frozenset(statuses),
        subject_categories=tuple(cats), has_doi=True, countries=frozenset(countries),
        institutions=frozenset(),
    )


def one_record_cells(cats, registry, level):
    """The one actor's cells of a one-record tally at a level, and its unit."""
    result = aggregate([rec("r1", cats, countries=("FRA",))])
    return at_level(result, registry, level).cells["FRA"], result.unit


class TestOneRecordWeights:
    def test_three_categories_at_category_level(self, table_registry, table_record):
        cells, unit = one_record_cells(table_record.subject_categories,
                                       table_registry, Level.SUBJECT_CATEGORY)
        assert set(cells) == set(table_record.subject_categories)
        for counts in cells.values():
            assert abs(exact_counts(counts, unit)[0] - 1 / 3) <= 1e-12

    def test_pooling_at_discipline_level(self, table_registry, table_record):
        # Two of the three categories share a discipline: 2/3 + 1/3,
        # computed as one division, never by re-splitting.
        cells, unit = one_record_cells(table_record.subject_categories,
                                       table_registry, Level.OST_DISCIPLINE)
        assert {f: exact_counts(c, unit)[0] for f, c in cells.items()} == {
            "Computer science": pytest.approx(2 / 3, abs=1e-12),
            "Medical research": pytest.approx(1 / 3, abs=1e-12),
        }

    def test_pooling_at_subfield_level(self, table_registry, table_record):
        cells, unit = one_record_cells(table_record.subject_categories,
                                       table_registry, Level.ERC_SUBFIELD)
        assert {f: exact_counts(c, unit)[0] for f, c in cells.items()} == {
            "PE6": pytest.approx(2 / 3, abs=1e-12),
            "LS7": pytest.approx(1 / 3, abs=1e-12),
        }

    def test_single_category_is_whole(self, reg10):
        cells, unit = one_record_cells(("Mathematics",), reg10, Level.OST_DISCIPLINE)
        assert {f: exact_counts(c, unit)[0] for f, c in cells.items()} == {
            "Mathematics": 1}

    @pytest.mark.parametrize("level", [Level.OST_DISCIPLINE, Level.ERC_SUBFIELD])
    def test_unknown_category_raises_at_coarser_level(self, reg10, level):
        # The tally holds any category; a level that must map one to a
        # field is where an unknown category fails, in the table and the series.
        result = aggregate([rec("r1", ("Palmistry",), countries=("FRA",)),
                            rec("r2", ("Mathematics",), countries=("FRA",))])
        with pytest.raises(UnknownCategory, match=r"\['Palmistry'\] not in registry"):
            build_indicator_table(result, reg10, (Level.SUBJECT_CATEGORY, level))
        with pytest.raises(UnknownCategory, match=r"\['Palmistry'\] not in registry"):
            yearly_series(result, reg10, level)

    def test_unknown_category_fine_at_category_level(self, reg10):
        cells, unit = one_record_cells(("Palmistry",), reg10, Level.SUBJECT_CATEGORY)
        assert {f: exact_counts(c, unit)[0] for f, c in cells.items()} == {
            "Palmistry": 1}
        result = aggregate([rec("r1", ("Palmistry",), (OAStatus.GOLD,), ("FRA",)),
                            rec("r2", ("Palmistry",))])
        (row,) = build_indicator_table(result, reg10, (Level.SUBJECT_CATEGORY,))
        assert row.noai == {Level.SUBJECT_CATEGORY: 2.0}
        (year,) = yearly_series(result, reg10, Level.SUBJECT_CATEGORY)
        assert year.field_shares == {"Palmistry": 50.0}

    @given(st.lists(st.sampled_from(CATS10), min_size=1, max_size=6, unique=True),
           st.sampled_from(LEVELS))
    def test_weights_sum_to_one(self, cats, level):
        cells, unit = one_record_cells(cats, REG10, level)
        assert sum(sum(c) for c in cells.values()) == unit
        assert all(sum(c) > 0 for c in cells.values())

    @given(st.lists(st.sampled_from(CATS10), min_size=1, max_size=6, unique=True))
    def test_category_level_uniform(self, cats):
        cells, unit = one_record_cells(cats, REG10, Level.SUBJECT_CATEGORY)
        k = len(cats)
        assert all(sum(c) == unit // k for c in cells.values())


def assert_matches_oracle(result, registry, oracle: BruteForce):
    unit = result.unit
    result = at_level(result, registry, oracle.level)
    # World baselines: same fields, same tallies, exactly.
    assert set(result.baselines) == set(oracle.world)
    for f, counts in result.baselines.items():
        ocell = oracle.world[f]
        assert exact_counts(counts, unit) == (ocell.x, ocell.oa, ocell.by_type)

    # Per-(actor, field) cells.
    by_actor = result.cells
    cells = {(actor, f): counts for actor, by_field in by_actor.items()
             for f, counts in by_field.items()}
    assert set(cells) == set(oracle.cells)
    for key, counts in cells.items():
        ocell = oracle.cells[key]
        assert exact_counts(counts, unit) == (ocell.x, ocell.oa, ocell.by_type)

    # Whole counts: the world's are its fractional totals, each record
    # spending exactly one unit.
    baselines = [exact_counts(counts, unit) for counts in result.baselines.values()]
    assert sum(x for x, _, _ in baselines) == oracle.world_whole_pubs
    assert sum(oa for _, oa, _ in baselines) == oracle.world_whole_oa
    # An actor's are its cell counts summed over fields, per status, which
    # must be whole multiples of the unit: the indicator table divides them.
    for actor, by_field in by_actor.items():
        whole = {}
        for status, total in zip(OAStatus, map(sum, zip(*by_field.values())),
                                 strict=True):
            whole[status], rest = divmod(total, unit)
            assert rest == 0, f"{actor} {status.value}: {total} not a multiple of {unit}"
        assert sum(whole.values()) == oracle.whole_pubs[actor]
        assert sum(whole[t] for t in OA_TYPES) == oracle.whole_oa[actor]

    # Derived per-actor quantities, including the indicator itself.
    assert sorted(by_actor) == oracle.actors()
    for actor in oracle.actors():
        expected = oracle.noai(actor)
        assert noai_of(by_actor[actor], result.baselines) == (
            None if expected is None else float(expected))


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("level", LEVELS)
    def test_streaming_equals_brute_force(self, seed, level):
        corpus = random_corpus(seed=seed, n_records=400)
        oracle = BruteForce(corpus, REG10, level)
        assert_matches_oracle(aggregate(corpus), REG10, oracle)

    def test_window_respected_both_routes(self, tmp_path):
        # The window is the reader's filter; the aggregator counts what it gets.
        corpus = random_corpus(seed=99, n_records=300)
        window = (2016, 2017)
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        reader = CorpusReader(tmp_path / "corpus.jsonl", REG10,
                              IngestOptions(window=window))
        agg = Aggregator()
        agg.add_all(reader)
        oracle = BruteForce(corpus, REG10, Level.OST_DISCIPLINE, window=window)
        assert reader.stats.records_accepted == oracle.n_records > 0
        assert_matches_oracle(agg.finish(), REG10, oracle)

    def test_institution_kind(self):
        corpus = random_corpus(seed=5, n_records=300,
                               institution_pool=("u1", "u2", "u3"))
        result = aggregate(corpus, actor_kind=ActorKind.INSTITUTION)
        oracle = BruteForce(corpus, REG10, Level.ERC_SUBFIELD,
                            actor_kind=ActorKind.INSTITUTION)
        assert oracle.actors()  # the draw must produce signed records
        assert_matches_oracle(result, REG10, oracle)

    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_priority_override_both_routes(self, priority):
        corpus = random_corpus(seed=11, n_records=300)
        result = aggregate(corpus, priority=priority)
        oracle = BruteForce(corpus, REG10, Level.OST_DISCIPLINE, priority=priority)
        assert_matches_oracle(result, REG10, oracle)

    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_priority_one_record_slots(self, priority, tmp_path):
        # Every raw-status subset, read from a corpus file, lands in the slot
        # of the first status of the order that it holds, closed when it
        # holds none.
        category = CATS10[0]
        path = tmp_path / "one.jsonl"
        for n in range(4):
            for subset in itertools.combinations(RAW, n):
                expected = next((s for s in priority if s in subset), OAStatus.CLOSED)
                write_corpus([RawRecord("r", 2016, DocType.ARTICLE, frozenset(subset),
                                        (category,), True, frozenset({"FRA"}),
                                        frozenset())], path)
                agg = Aggregator()
                agg.add_all(CorpusReader(path, REG10, IngestOptions(priority=priority)))
                result = vectors(agg.finish())
                want = [result.unit if s is expected else 0 for s in OAStatus]
                assert result.baselines[category] == want, subset
                assert result.cells["FRA"][category] == want, subset

    def test_multi_level_table_equals_single_level_tables(self):
        corpus = random_corpus(seed=21, n_records=300)
        result = aggregate(corpus)
        combined = build_indicator_table(result, REG10, LEVELS)
        for level in LEVELS:
            solo = build_indicator_table(result, REG10, (level,))
            assert [(r.actor, r.x_total, r.noai[level]) for r in combined] == [
                (r.actor, r.x_total, r.noai[level]) for r in solo]

    @pytest.mark.parametrize("seed", range(4))
    def test_world_only_tally(self, seed):
        # actor_kind None credits no actor, neither country nor institution,
        # and leaves the world tally as it is.
        corpus = random_corpus(seed=seed, n_records=400,
                               institution_pool=("u1", "u2", "u3"))
        world = vectors(aggregate(corpus, actor_kind=None))
        full = vectors(aggregate(corpus))
        assert world.unit == full.unit
        assert world.baselines == full.baselines
        assert world.years == full.years
        assert world.cells == {}

    def test_order_stability(self):
        # Integer tallies make every output independent of record order.
        corpus = random_corpus(seed=31, n_records=500)
        shuffled = corpus[:]
        random.Random(1).shuffle(shuffled)
        runs = []
        for records in (corpus, shuffled):
            result = aggregate(records)
            runs.append((build_indicator_table(result, REG10, LEVELS), result))
        assert runs[0] == runs[1]


class TestCountingRules:
    def test_hand_worked_two_record_corpus(self, table_registry):
        # r1: categories (MI, CSIS, HCSS) -> CS 2/3, MR 1/3; gold; FRA+USA.
        # r2: category HCSS -> MR 1; closed; FRA.
        corpus = [
            rec("r1", ("Medical Informatics", "Computer Science, Information Systems",
                       "Health Care Sciences & Services"),
                statuses=(OAStatus.GOLD,), countries=("FRA", "USA")),
            rec("r2", ("Health Care Sciences & Services",), countries=("FRA",)),
        ]
        result = aggregate(corpus)
        by_discipline = at_level(result, table_registry, Level.OST_DISCIPLINE)
        b = {f: exact_counts(counts, result.unit)
             for f, counts in by_discipline.baselines.items()}
        assert b["Computer science"][:2] == (Fraction(2, 3), Fraction(2, 3))
        assert b["Medical research"][:2] == (Fraction(4, 3), Fraction(1, 3))

        cells = by_discipline.cells
        fra_mr = exact_counts(cells["FRA"]["Medical research"], result.unit)
        assert fra_mr[0] == Fraction(4, 3)
        usa_cs = exact_counts(cells["USA"]["Computer science"], result.unit)
        assert usa_cs[0] == Fraction(2, 3)

        # Whole counting: every distinct signatory gets the full record.
        rows = {r.actor: r for r in build_indicator_table(
            result, table_registry, (Level.OST_DISCIPLINE,))}
        assert rows["FRA"].x_total == 2
        assert rows["FRA"].n_oa_whole == 1
        assert rows["USA"].x_total == 1
        assert sum(x for x, _, _ in b.values()) == 2

    def test_multi_status_counts_once_under_winner(self):
        r = rec("r1", ("Mathematics",), statuses=(OAStatus.GOLD, OAStatus.GREEN),
                countries=("FRA",))
        result = vectors(aggregate([r]))
        _, oa, by_type = exact_counts(result.cells["FRA"]["Mathematics"], result.unit)
        assert oa == 1
        assert by_type[OAStatus.GOLD] == 1
        assert by_type[OAStatus.GREEN] == 0

    def test_actorless_record_feeds_world_baseline_only(self):
        corpus = [
            rec("r1", ("Economics",), statuses=(OAStatus.GREEN,)),
            rec("r2", ("Economics",), countries=("FRA",)),
        ]
        result = vectors(aggregate(corpus))
        assert exact_counts(result.baselines["Economics"], result.unit)[0] == 2
        assert exact_counts(result.cells["FRA"]["Economics"], result.unit)[0] == 1
        assert set(result.cells) == {"FRA"}


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(LEVELS))
    def test_conservation_and_dominance(self, seed, level):
        corpus = random_corpus(seed=seed, n_records=250)
        result = at_level(aggregate(corpus), REG10, level)
        # Conservation: world fractional counts sum to the record count.
        total_x = sum(exact_counts(b, result.unit)[0] for b in result.baselines.values())
        assert total_x == len(corpus)
        # Dominance and per-type decomposition on every cell.
        vectors = [c for by_field in result.cells.values()
                   for c in by_field.values()]
        for counts in vectors + list(result.baselines.values()):
            x, oa, by_type = exact_counts(counts, result.unit)
            assert oa <= x
            assert sum(by_type.values()) == oa

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_type_shares_sum_to_total(self, seed):
        corpus = random_corpus(seed=seed, n_records=250)
        result = aggregate(corpus)
        table = build_indicator_table(result, REG10, (Level.OST_DISCIPLINE,))
        cells = at_level(result, REG10, Level.OST_DISCIPLINE).cells
        for row in table:
            total = oa_share_of_cells(cells[row.actor].values())
            assert abs(sum(row.oa_type_shares.values()) - total) <= TOL

    def test_world_actor_indicator_is_exactly_one(self):
        # An actor present on every record reproduces the baseline cells
        # exactly, so the indicator is 1.0 with no tolerance at all.
        corpus = [
            r._replace(countries=r.countries | {"WORLD"})
            for r in random_corpus(seed=77, n_records=400)
        ]
        result = aggregate(corpus)
        for level in LEVELS:
            view = at_level(result, REG10, level)
            assert noai_of(view.cells["WORLD"], view.baselines) == 1.0
        rows = {r.actor: r for r in build_indicator_table(result, REG10, LEVELS)}
        assert rows["WORLD"].noai == {level: 1.0 for level in LEVELS}


def oa_share_of_cells(cells):
    totals = [sum(c) for c in zip(*cells)]
    return 100.0 * sum(totals[:3]) / sum(totals)


class TestShares:
    def test_oa_share(self):
        corpus = [
            rec("r1", ("Mathematics",), statuses=(OAStatus.GOLD,), countries=("A",)),
            rec("r2", ("Mathematics",), countries=("A",)),
        ]
        result = vectors(aggregate(corpus))
        assert oa_share(result.cells["A"]["Mathematics"]) == pytest.approx(50.0)

    def test_oa_share_undefined_on_empty(self):
        with pytest.raises(UndefinedShare):
            oa_share((0, 0, 0, 0))

    def test_single_field_indicator_is_its_normalized_share(self):
        # Actor at 100% OA in a field where the world is at 50%.
        corpus = [
            rec("r1", ("Economics",), statuses=(OAStatus.GREEN,), countries=("A",)),
            rec("r2", ("Economics",)),
        ]
        result = vectors(aggregate(corpus))
        assert noai_of(result.cells["A"], result.baselines) == 2.0

    def test_normalized_share_undefined_when_world_closed(self, reg10):
        # The only field's world share is 0%, so the actor's normalized share
        # there is undefined and its table row carries no indicator, while its
        # counts and OA share are still reported.
        corpus = [rec("r1", ("Economics",), countries=("A",))]
        (row,) = build_indicator_table(aggregate(corpus), reg10, (Level.SUBJECT_CATEGORY,))
        assert row.noai == {Level.SUBJECT_CATEGORY: None}
        assert (row.x_total, row.n_oa_whole, row.oa_share) == (1, 0, 0.0)

    def test_normalized_share_mismatch_raises(self):
        # An actor field with no world baseline is an error, not a field
        # silently left out of the weighting.
        with pytest.raises(KeyError):
            noai_of({"f1": (0, 0, 0, 1)}, {"f2": (1, 0, 0, 0)})

    def test_undefined_fields_left_out_of_weighting(self):
        # Economics: world all closed (share undefined there); Sociology:
        # world 50% OA, actor 100%. The indicator must weight Sociology
        # alone, giving exactly its normalized share.
        corpus = [
            rec("r1", ("Economics",), countries=("A",)),
            rec("r2", ("Economics",)),
            rec("r3", ("Sociology",), statuses=(OAStatus.GOLD,), countries=("A",)),
            rec("r4", ("Sociology",)),
        ]
        result = vectors(aggregate(corpus))
        assert noai_of(result.cells["A"], result.baselines) == 2.0

    def test_indicator_undefined_when_no_field_qualifies(self):
        corpus = [rec("r1", ("Economics",), countries=("A",))]
        result = vectors(aggregate(corpus))
        assert noai_of(result.cells["A"], result.baselines) is None


def series(corpus, registry, level):
    return yearly_series(aggregate(corpus), registry, level)


class TestYearlySeries:
    def test_single_year(self, reg10):
        corpus = [rec("r1", ("Economics",), statuses=(OAStatus.GOLD,), year=2017)]
        rows = series(corpus, reg10, Level.OST_DISCIPLINE)
        assert len(rows) == 1
        assert rows[0].year == 2017
        assert rows[0].total_share == pytest.approx(100.0)

    def test_all_closed_is_zero(self, reg10):
        corpus = [rec(f"r{i}", ("Economics",), year=2017) for i in range(5)]
        rows = series(corpus, reg10, Level.OST_DISCIPLINE)
        assert rows[0].total_share == 0.0
        assert all(v == 0.0 for v in rows[0].type_shares.values())

    def test_empty_years_omitted_and_sorted(self, reg10):
        corpus = [
            rec("r1", ("Economics",), year=2019),
            rec("r2", ("Economics",), year=2015),
        ]
        rows = series(corpus, reg10, Level.OST_DISCIPLINE)
        assert [r.year for r in rows] == [2015, 2019]

    def test_matches_per_year_oracle(self, reg10):
        corpus = random_corpus(seed=13, n_records=300)
        rows = series(corpus, REG10, Level.OST_DISCIPLINE)
        for row in rows:
            year_slice = [r for r in corpus if r.year == row.year]
            oracle = BruteForce(year_slice, REG10, Level.OST_DISCIPLINE)
            assert row.total_share == float(oracle.world_oa_share())


class TestIndicatorTable:
    def test_matches_oracle_rows(self):
        corpus = random_corpus(seed=41, n_records=400)
        table = build_indicator_table(aggregate(corpus), REG10,
                                      (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE))
        oracle = BruteForce(corpus, REG10, Level.SUBJECT_CATEGORY)
        oracle_ost = BruteForce(corpus, REG10, Level.OST_DISCIPLINE)
        assert {r.actor for r in table} == set(oracle.actors())
        for row in table:
            assert abs(row.x_total - float(oracle.x_total(row.actor))) <= TOL
            assert abs(row.oa_share - float(oracle.oa_share(row.actor))) <= TOL
            for status in OA_TYPES:
                assert abs(row.oa_type_shares[status]
                           - float(oracle.type_share(row.actor, status))) <= TOL
            expected = oracle.noai(row.actor)
            got = row.noai[Level.SUBJECT_CATEGORY]
            if expected is None:
                assert got is None
            else:
                assert abs(got - float(expected)) <= TOL
            expected_ost = oracle_ost.noai(row.actor)
            got_ost = row.noai[Level.OST_DISCIPLINE]
            if expected_ost is None:
                assert got_ost is None
            else:
                assert abs(got_ost - float(expected_ost)) <= TOL
            assert row.n_oa_whole == oracle.whole_oa[row.actor]
            assert row.x_total == oracle.whole_pubs[row.actor]

    def test_rows_sorted_by_size(self):
        corpus = random_corpus(seed=43, n_records=300)
        table = build_indicator_table(aggregate(corpus), REG10, (Level.SUBJECT_CATEGORY,))
        sizes = [r.x_total for r in table]
        assert sizes == sorted(sizes, reverse=True)

    def test_display_names_from_metadata(self, reg10):
        from noai.model import Actor
        corpus = [rec("r1", ("Economics",), statuses=(OAStatus.GOLD,),
                      countries=("FRA",))]
        result = aggregate(corpus)
        meta = {"FRA": Actor(id="FRA", kind=ActorKind.COUNTRY,
                             display_name="France")}
        table = build_indicator_table(result, reg10, (Level.SUBJECT_CATEGORY,), meta)
        assert table[0].display_name == "France"

    def test_undefined_indicator_becomes_none(self, reg10):
        corpus = [rec("r1", ("Economics",), countries=("FRA",))]
        result = aggregate(corpus)
        table = build_indicator_table(result, reg10, (Level.SUBJECT_CATEGORY,))
        assert table[0].noai[Level.SUBJECT_CATEGORY] is None


class TestExactAgainstOracle:
    """Every printed number is the correctly rounded value of the oracle's."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("level", LEVELS)
    def test_table_and_series_equal_rounded_fractions(self, seed, level):
        corpus = random_corpus(seed=seed, n_records=300)
        result = aggregate(corpus)
        oracle = BruteForce(corpus, REG10, level)

        table = build_indicator_table(result, REG10, (level,))
        assert sorted(r.actor for r in table) == oracle.actors()
        for row in table:
            actor = row.actor
            assert row.x_total == float(oracle.x_total(actor))
            assert row.oa_share == float(oracle.oa_share(actor))
            for status in OA_TYPES:
                assert row.oa_type_shares[status] == float(
                    oracle.type_share(actor, status))
            expected = oracle.noai(actor)
            assert row.noai[level] == (None if expected is None else float(expected))

        rows = yearly_series(result, REG10, level)
        assert [r.year for r in rows] == sorted({r.year for r in corpus})
        for row in rows:
            world = BruteForce([r for r in corpus if r.year == row.year],
                               REG10, level).world
            x = sum(c.x for c in world.values())
            oa = sum(c.oa for c in world.values())
            assert row.total_share == float(100 * oa / x)
            for status in OA_TYPES:
                by_type = sum(c.by_type[status] for c in world.values())
                assert row.type_shares[status] == float(100 * by_type / x)
            assert row.field_shares == {
                f: float(100 * c.oa / c.x) for f, c in world.items()}


#: Categories whose every record is made closed, so that their fields have a
#: world OA count of 0 at every level: Social sciences, SH1 and SH3.
CLOSED_CATS = frozenset({"Economics", "Sociology"})


def corpus_with_closed_fields(seed):
    """A random corpus in which no record touching CLOSED_CATS is OA, plus
    one actor who signs only such records and so has no defined NOAI."""
    corpus = [r._replace(raw_statuses=frozenset())
              if CLOSED_CATS.intersection(r.subject_categories) else r
              for r in random_corpus(seed=seed, n_records=300)]
    return corpus + [rec("z1", ("Economics",), countries=("ZZZ",)),
                     rec("z2", ("Sociology", "Economics"), countries=("ZZZ",))]


class TestOneQuotient:
    """The table's NOAI is that of the actor's cells summed into fields,
    scored as a level of their own, and the oracle's value."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("level", LEVELS)
    def test_table_noai_is_noai_of_cells(self, seed, level):
        corpus = corpus_with_closed_fields(seed)
        result = aggregate(corpus)
        oracle = BruteForce(corpus, REG10, level)
        view = at_level(result, REG10, level)
        closed = {f for f, b in view.baselines.items() if oa_share(b) == 0}
        assert closed and closed != set(view.baselines)
        table = build_indicator_table(result, REG10, (level,))
        assert {r.actor for r in table} == set(oracle.actors())
        for row in table:
            expected = noai_of(view.cells[row.actor], view.baselines)
            assert row.noai[level] == expected
            exact = oracle.noai(row.actor)
            assert expected == (None if exact is None else float(exact))
        assert {r.actor: r.noai[level] for r in table}["ZZZ"] is None


def per_publication_noai(corpus, registry, level):
    """Each country's NOAI at a level by the per-publication law, exactly;
    None where undefined.

    A record with k categories scores, if it is OA, the sum over its
    categories c whose field f has world OA > 0 of (1/k) * X_f / OA_f, the
    world's fractional publications over its fractional OA ones in f. An
    actor's NOAI is the sum of its records' scores over the sum of their
    fractions, 1/k per such category."""
    field = registry.field_map(level) or {c: c for c in registry.categories}
    world_x, world_oa = defaultdict(Fraction), defaultdict(Fraction)
    for r in corpus:
        for c in r.subject_categories:
            world_x[field[c]] += Fraction(1, len(r.subject_categories))
            if r.raw_statuses:
                world_oa[field[c]] += Fraction(1, len(r.subject_categories))
    scores, fractions = defaultdict(Fraction), defaultdict(Fraction)
    for r in corpus:
        defined = [field[c] for c in r.subject_categories if world_oa[field[c]]]
        fraction = Fraction(len(defined), len(r.subject_categories))
        score = sum(world_x[f] / world_oa[f] for f in defined) / len(r.subject_categories)
        for actor in r.countries:
            fractions[actor] += fraction
            if r.raw_statuses:
                scores[actor] += score
    actors = set().union(*(r.countries for r in corpus))
    return {a: scores[a] / fractions[a] if fractions[a] else None for a in actors}


class TestPerPublicationLaw:
    """An actor's NOAI is the mean of its records' scores, each record's
    score being its OA indicator times its fields' X / OA, weighted 1/k."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("make", [lambda seed: random_corpus(seed=seed, n_records=300),
                                      corpus_with_closed_fields],
                             ids=["random", "closed-fields"])
    def test_table_noai_is_the_mean_of_record_scores(self, make, level, seed):
        corpus = make(seed)
        law = per_publication_noai(corpus, REG10, level)
        table = build_indicator_table(aggregate(corpus), REG10, (level,))
        assert {r.actor: r.noai[level] for r in table} == {
            a: None if v is None else float(v) for a, v in law.items()}


class TestSharedVectors:
    """The one result is the weighed tally itself; nothing downstream may
    change it."""

    def test_finish_twice_and_downstream_leave_category_level_unchanged(self):
        corpus = random_corpus(seed=51, n_records=400)
        agg = Aggregator()
        agg.add_all(parsed(corpus))
        result = agg.finish()
        snapshot = copy.deepcopy(result)
        assert agg.finish() == result
        build_indicator_table(result, REG10, (Level.ERC_SUBFIELD, Level.SUBJECT_CATEGORY,
                                              Level.OST_DISCIPLINE))
        for level in LEVELS:
            yearly_series(result, REG10, level)
        assert result == snapshot
        assert aggregate(corpus) == snapshot
        assert_matches_oracle(result, REG10,
                              BruteForce(corpus, REG10, Level.SUBJECT_CATEGORY))

    @pytest.mark.parametrize("change", ["add_all", "add_counts", "remove_all"])
    def test_a_change_after_finish_leaves_the_result(self, change):
        # finish() hands out the Aggregator's own owner dicts; its next
        # change must work on copies.
        records = list(parsed(random_corpus(seed=52, n_records=300)))
        more = list(parsed(random_corpus(seed=53, n_records=100)))
        agg = Aggregator()
        agg.add_all(records)
        result = agg.finish()
        snapshot = copy.deepcopy(result)
        if change == "add_all":
            agg.add_all(more)
        elif change == "add_counts":
            other = Aggregator()
            other.add_all(more)
            agg.add_counts(other.counts())
        else:
            agg.remove_all(records[:100])
        assert agg.finish().unit == result.unit == 6
        assert agg.finish() != snapshot
        assert result == snapshot


class TestPassCellsTaken:
    """add_all hands its pass's owner dicts to the Aggregator, which nothing
    else holds; add_counts copies them, since they may be another's."""

    def test_add_all_into_a_new_aggregator_copies_no_cells(self):
        pool = tuple(f"I{i:03d}" for i in range(400))
        records = list(parsed(random_corpus(seed=54, n_records=4000, institution_pool=pool),
                              actor_kind=ActorKind.INSTITUTION))
        tracemalloc.start()
        try:
            agg = Aggregator()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            agg.add_all(records)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Copying every owner dict once the pass ends peaks near 1.3 times
        # what is retained.
        assert peak - base < 1.15 * (retained - base)

    def test_retained_bytes_per_cell(self):
        # One integer per (status, owner, category) count retains about
        # 106 B per distinct (owner, category) pair on this corpus, and a
        # list of four counts per pair about 127 B; the bound lies between.
        pool = tuple(f"I{i:03d}" for i in range(400))
        records = list(parsed(random_corpus(seed=54, n_records=4000, institution_pool=pool),
                              actor_kind=ActorKind.INSTITUTION))
        pairs = {(owner, category) for r in records for owner in (r.year, *r.actors)
                 for category in r.subject_categories}
        tracemalloc.start()
        try:
            agg = Aggregator()
            base = tracemalloc.get_traced_memory()[0]
            agg.add_all(records)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained / len(pairs) < 118

    def test_add_counts_leaves_the_other_aggregator(self):
        other = Aggregator()
        other.add_all(parsed(random_corpus(seed=55, n_records=200)))
        snapshot = copy.deepcopy(other.finish())
        agg = Aggregator()
        agg.add_counts(other.counts())
        agg.add_all(parsed(random_corpus(seed=56, n_records=200)))
        agg.remove_all(parsed(random_corpus(seed=56, n_records=50)))
        assert other.finish() == snapshot


def outputs(result):
    """Everything a pass's result gives: itself, the table and every series."""
    return (result, build_indicator_table(result, REG10, LEVELS),
            [yearly_series(result, REG10, level) for level in LEVELS])


class TestSplitLaw:
    """The tally is linear in the records: the tallies of a corpus's parts add
    up to the tally of the whole, which the reading of a corpus in ranges
    stands on. Every comparison is exact."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [ActorKind.COUNTRY, ActorKind.INSTITUTION])
    def test_parts_add_up_to_one_pass(self, seed, kind):
        records = list(parsed(random_corpus(seed=seed, n_records=300,
                                            institution_pool=("u1", "u2", "u3", "u4")),
                              actor_kind=kind))
        agg = Aggregator()
        agg.add_all(records)
        whole = outputs(agg.finish())
        for cut in (0, 1, 97, 150, 299, 300):
            head, tail = records[:cut], records[cut:]
            one = Aggregator()
            one.add_all(head)
            one.add_all(tail)
            assert outputs(one.finish()) == whole, cut
            first, second = Aggregator(), Aggregator()
            first.add_all(head)
            second.add_all(tail)
            first.add_counts(second.counts())
            assert outputs(first.finish()) == whole, cut

    @pytest.mark.parametrize("seed", range(4))
    def test_removed_records_leave_no_trace(self, seed):
        # Records counted and then removed leave the tally of the others,
        # down to the category counts k that set the unit.
        records = list(parsed(random_corpus(seed=seed, n_records=200)))
        extra = list(parsed(random_corpus(seed=seed + 100, n_records=50)))
        agg = Aggregator()
        agg.add_all(records[:120] + extra + records[120:])
        agg.remove_all(extra)
        once = Aggregator()
        once.add_all(records)
        assert dict(agg.counts()) == dict(once.counts())
        assert outputs(agg.finish()) == outputs(once.finish())


def assert_sparse(agg):
    """No count the Aggregator stores, or its result holds, is 0, and no
    owner's map of counts is empty."""
    pairs = iter(agg.counts())
    next(pairs)
    for key, by_category in pairs:
        assert by_category and all(by_category.values()), key
    result = agg.finish()
    for owners in result.cells + result.years:
        assert all(by and all(by.values()) for by in owners.values())
    assert all(all(by.values()) for by in result.baselines)


class TestSparseTally:
    """Whatever the sequence of changes, the tally stores no 0 and no empty
    owner map, and it equals the tally of the records still counted."""

    @pytest.mark.parametrize("seed", range(6))
    def test_changes_leave_no_zero(self, seed):
        rng = random.Random(seed)
        records = list(parsed(random_corpus(seed=seed, n_records=400,
                                            institution_pool=("u1", "u2", "u3")),
                              actor_kind=rng.choice([ActorKind.COUNTRY, None])))
        agg, counted, pending = Aggregator(), [], records[:]
        for _ in range(12):
            change = rng.choice(["add_all", "add_counts", "remove_all", "remove_all"])
            if change == "remove_all":
                rng.shuffle(counted)
                cut = rng.randrange(len(counted) + 1)
                agg.remove_all(counted[:cut])
                pending += counted[:cut]
                counted = counted[cut:]
            else:
                cut = rng.randrange(len(pending) + 1)
                batch, pending = pending[:cut], pending[cut:]
                if change == "add_all":
                    agg.add_all(batch)
                else:
                    other = Aggregator()
                    other.add_all(batch)
                    agg.add_counts(other.counts())
                counted += batch
            assert_sparse(agg)
            once = Aggregator()
            once.add_all(counted)
            assert dict(agg.counts()) == dict(once.counts()), change
        agg.remove_all(counted)
        assert_sparse(agg)
        assert list(agg.counts()) == [(None, {})]
        assert agg.finish() == (1, ({},) * 4, ({},) * 4, ({},) * 4)


def growing_unit_corpus(seed):
    """A random corpus whose category counts k grow as it goes: 1 and 2
    first, then 3, then 4, 5 and 7, so that a pass in this order grows its
    unit while it runs: to 2, then to 6, and at last to 420."""
    rng = random.Random(seed)
    ks = [rng.choice(group) for group in [(1, 2)] * 80 + [(3,)] * 60 + [(4, 5, 7)] * 100]
    return [r._replace(subject_categories=tuple(rng.sample(CATS10, k)))
            for r, k in zip(random_corpus(seed=seed, n_records=len(ks)), ks)]


class TestUnitGrowsMidPass:
    """A k that changes the unit mid-pass rescales the cells counted so far,
    and only the pass's own: the Aggregator takes them once the pass ends."""

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_equal_the_oracle_in_any_order(self, seed):
        corpus = growing_unit_corpus(seed)
        shuffled = corpus[:]
        random.Random(seed).shuffle(shuffled)
        runs = []
        for records in (corpus, corpus[::-1], shuffled):
            agg = Aggregator()
            agg.add_all(parsed(records))
            runs.append((dict(agg.counts()), agg.finish()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        counts, result = runs[0]
        assert result.unit == 420
        credits = {}
        for r in corpus:
            k = len(r.subject_categories)
            credits[k] = credits.get(k, 0) + (1 + len(r.countries)) * k
        assert counts[None] == credits
        for level in LEVELS:
            assert_matches_oracle(result, REG10, BruteForce(corpus, REG10, level))

    def test_a_pass_that_raises_leaves_the_counts_unchanged(self, tmp_path):
        # The strict pass fails past the records that grow the unit to 420.
        corpus = growing_unit_corpus(7)
        agg = Aggregator()
        agg.add_all(parsed(corpus[:80]))
        before = copy.deepcopy(dict(agg.counts()))
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus[80:], path)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(lines[:120] + ["oops\n"] + lines[120:]), encoding="utf-8")
        with pytest.raises(MalformedRecord, match="^line 121: "):
            agg.add_all(CorpusReader(path, REG10, IngestOptions(strict=True)))
        assert dict(agg.counts()) == before
        assert agg.finish() == aggregate(corpus[:80])


class TestCoarseningLaw:
    """A level whose fields are the categories themselves gives the
    category-level NOAI, and a level of one field gives the actor's OA share
    over the world's. Both compare exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [ActorKind.COUNTRY, ActorKind.INSTITUTION])
    def test_a_discipline_per_category_repeats_the_category_level(self, seed, kind):
        registry = ClassificationRegistry(
            {c: (c, erc) for c, (_, erc) in REG10.categories.items()})
        corpus = [r._replace(institutions=frozenset(r.countries))
                  for r in corpus_with_closed_fields(seed)]
        table = build_indicator_table(aggregate(corpus, actor_kind=kind), registry,
                                      (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE))
        assert any(r.noai[Level.SUBJECT_CATEGORY] is None for r in table)
        for row in table:
            assert row.noai[Level.OST_DISCIPLINE] == row.noai[Level.SUBJECT_CATEGORY], row.actor

    @pytest.mark.parametrize("seed", range(4))
    def test_one_discipline_gives_the_share_over_the_world_share(self, seed):
        registry = ClassificationRegistry(
            {c: ("Everything", erc) for c, (_, erc) in REG10.categories.items()})
        result = aggregate(random_corpus(seed=seed, n_records=300))
        view = vectors(result)
        world_x, world_oa, _ = exact_counts(
            [sum(c) for c in zip(*view.baselines.values())], view.unit)
        table = build_indicator_table(result, registry, (Level.OST_DISCIPLINE,))
        assert len(table) == len(view.cells)
        for row in table:
            x, oa, _ = exact_counts(
                [sum(c) for c in zip(*view.cells[row.actor].values())], view.unit)
            assert row.noai[Level.OST_DISCIPLINE] == float(
                Fraction(oa * world_x, world_oa * x)), row.actor


def weighted_mean_terms(cells, baselines):
    """The NOAI's terms for one actor's field counts, computed here:
    sum(oa * weight), sum(x) over the fields of weight not 0, and D, the
    lcm of the world's OA counts; a field's weight is X * (D // OA)."""
    world_oa = {f: sum(b) - b[-1] for f, b in baselines.items()}
    d = math.lcm(*filter(None, world_oa.values()))
    num = den = 0
    for f, c in cells.items():
        if world_oa[f]:
            num += (sum(c) - c[-1]) * sum(baselines[f]) * (d // world_oa[f])
            den += sum(c)
    return num, den, d


class TestDisjointMergeLaw:
    """Two actors who never co-sign a record, relabelled as one, have the
    NOAI of their summed terms, (num_A + num_B) / (D * (den_A + den_B)):
    the world, and so D and every weight, is the same. Exact."""

    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled_actor_sums_the_terms(self, seed):
        assert list(OAStatus)[-1] is OAStatus.CLOSED
        corpus = corpus_with_closed_fields(seed)
        signed: dict[str, set] = {}
        for r in corpus:
            for actor in r.countries:
                signed.setdefault(actor, set()).add(r.id)
        pairs = [(a, b) for a, b in itertools.combinations(sorted(signed), 2)
                 if not signed[a] & signed[b]]
        assert len(pairs) >= 3
        result = aggregate(corpus)
        # ZZZ has no defined NOAI: num_B = den_B = 0 leaves A's NOAI as it is.
        for a, b in pairs[:2] + [p for p in pairs if "ZZZ" in p][:1]:
            merged = aggregate([r._replace(countries=frozenset(
                a if actor == b else actor for actor in r.countries)) for r in corpus])
            assert merged.unit == result.unit and b not in vectors(merged).cells
            for level in LEVELS:
                view, merged_view = at_level(result, REG10, level), at_level(merged, REG10, level)
                assert merged_view.baselines == view.baselines
                num_a, den_a, d = weighted_mean_terms(view.cells[a], view.baselines)
                num_b, den_b, _ = weighted_mean_terms(view.cells[b], view.baselines)
                num, den, _ = weighted_mean_terms(merged_view.cells[a], view.baselines)
                row, = [r for r in build_indicator_table(merged, REG10, (level,))
                        if r.actor == a]
                law = Fraction(num_a + num_b, d * (den_a + den_b))
                assert Fraction(num, d * den) == law, (a, b, level)
                assert row.noai[level] == float(law), (a, b, level)


def per_level_noai(cells, result, registry, level):
    """An actor's NOAI at one level from its category cells, one level at a
    time, as the table computed it before one kernel scored every level:
    sum(oa * w) over the cells of weight w not 0, over D * sum(x) of those
    cells, a category's weight being its field's X * (D // OA); None when
    no cell has a weight."""
    world = at_level(result, registry, level).baselines
    world_oa = {f: sum(b) - b[-1] for f, b in world.items()}
    d = math.lcm(*filter(None, world_oa.values()))
    num = den = 0
    for category, c in cells.items():
        f = field_of(registry, category, level)
        if world_oa[f]:
            num += (sum(c) - c[-1]) * sum(world[f]) * (d // world_oa[f])
            den += sum(c)
    return num / (d * den) if den else None


#: The levels in several orders: each takes each lane, and one alone.
LEVEL_ORDERS = (LEVELS, LEVELS[1:] + LEVELS[:1], LEVELS[2:] + LEVELS[:2], LEVELS[::-1],
                LEVELS[1:2])


def lane_bound_corpus():
    """A corpus whose every OA record is in Astronomy alone, a field of its
    own at every level, and signed by FRA, so that FRA's numerator at each
    level is the lane bound: the world's OA count times the largest weight,
    Astronomy's X. FRA also signs closed records in fields of weight 0."""
    records = [rec(f"o{i}", ("Astronomy & Astrophysics",), statuses=(OAStatus.GOLD,),
                   countries=("FRA", "DEU")[:1 + i % 2]) for i in range(37)]
    records += [rec(f"c{i}", ("Astronomy & Astrophysics",), countries=("DEU",))
                for i in range(11)]
    records += [rec(f"m{i}", ("Mathematics", "Economics")[:1 + i % 2], countries=("FRA",))
                for i in range(13)]
    return records


class TestOneKernel:
    """One kernel scores an actor at every level at once, each level's
    numerator in its own lane of one integer; each level's NOAI equals the
    per-level formula exactly, in any order of the levels."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [ActorKind.COUNTRY, ActorKind.INSTITUTION])
    def test_every_level_equals_the_per_level_formula(self, seed, kind):
        corpus = [r._replace(institutions=frozenset(f"u{a[-1]}" for a in r.countries))
                  for r in corpus_with_closed_fields(seed)]
        result = aggregate(corpus, actor_kind=kind)
        expected = {actor: {level: per_level_noai(cells, result, REG10, level)
                            for level in LEVELS}
                    for actor, cells in vectors(result).cells.items()}
        assert any(None in by_level.values() for by_level in expected.values())
        for levels in LEVEL_ORDERS:
            table = build_indicator_table(result, REG10, levels)
            assert len(table) == len(expected)
            for row in table:
                assert list(row.noai) == list(levels)
                assert row.noai == {level: expected[row.actor][level] for level in levels}

    def test_the_lane_bound_is_reached_without_carry(self):
        result = aggregate(lane_bound_corpus())
        view = vectors(result)
        astro = view.baselines["Astronomy & Astrophysics"]
        x_world, oa_world = sum(astro), sum(astro) - astro[-1]
        fra = view.cells["FRA"]["Astronomy & Astrophysics"]
        assert sum(fra) - fra[-1] == oa_world
        for levels in LEVEL_ORDERS:
            for row in build_indicator_table(result, REG10, levels):
                for level in levels:
                    assert row.noai[level] == per_level_noai(
                        view.cells[row.actor], result, REG10, level), (row.actor, level)
            fra_row, = [r for r in build_indicator_table(result, REG10, levels)
                        if r.actor == "FRA"]
            assert fra_row.noai == dict.fromkeys(levels, x_world / sum(fra))

    def test_an_actor_with_more_oa_than_the_world_raises(self):
        # Only a hand-built result can hold one, and it could overflow a lane.
        world = {"Mathematics": [1, 0, 0, 1], "Economics": [0, 0, 2, 0]}
        result = from_vectors(1, {"FRA": {"Mathematics": [2, 0, 0, 0],
                                          "Economics": [0, 0, 2, 0]}}, world)
        with pytest.raises(ValueError, match="more OA counts than the world"):
            build_indicator_table(result, REG10, LEVELS)
        with pytest.raises(ValueError, match="more OA counts than the world"):
            noai_of(vectors(result).cells["FRA"], world)
