"""Ranking, rank shift and rank correlation against the closed-form oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noai.analysis import (
    DESCENDING,
    filter_actors,
    metric_value,
    noai_metric,
    rank,
    rank_shift,
    spearman,
    top_actors,
)
from noai.errors import DegenerateInput, EmptyTable, MismatchedActorSets
from noai.model import ActorKind, IndicatorRow, IndicatorTable, Level, OAStatus
from oracle import competition_ranks, textbook_spearman


def make_table(rows_spec) -> IndicatorTable:
    """rows_spec: iterable of (actor, x_total, oa_share, noai_sc | None)."""
    rows = tuple(
        IndicatorRow(
            actor=actor, display_name=actor, kind=ActorKind.COUNTRY, group=None,
            x_total=x, oa_share=share,
            noai={Level.SUBJECT_CATEGORY: noai_sc},
            oa_type_shares={t: 0.0 for t in
                            (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)},
            n_oa_whole=0, n_pubs_whole=int(x),
        )
        for actor, x, share, noai_sc in rows_spec
    )
    return IndicatorTable(actor_kind=ActorKind.COUNTRY,
                          levels=(Level.SUBJECT_CATEGORY,), rows=rows)


def vector_table(values, metric="oa_share"):
    """A table whose chosen metric runs through the given values."""
    spec = []
    for i, v in enumerate(values):
        actor = f"A{i:03d}"
        if metric == "oa_share":
            spec.append((actor, 100.0, v, 1.0))
        elif metric == "x_total":
            spec.append((actor, v, 0.0, 1.0))
        else:
            spec.append((actor, 100.0, 0.0, v))
    return make_table(spec)


class TestRank:
    def test_ascending_rank_one_is_lowest(self):
        table = vector_table([30.0, 10.0, 20.0])
        ranks = rank(table, "oa_share")
        assert [(r.actor, r.rank) for r in ranks.rows] == [
            ("A001", 1), ("A002", 2), ("A000", 3)]

    def test_descending_convention(self):
        table = vector_table([30.0, 10.0, 20.0])
        ranks = rank(table, "oa_share", DESCENDING)
        assert ranks.by_actor()["A000"].rank == 1
        assert ranks.by_actor()["A001"].rank == 3

    def test_ties_share_minimum_display_rank(self):
        table = vector_table([1.0, 2.0, 2.0, 3.0])
        ranks = rank(table, "oa_share")
        by = ranks.by_actor()
        assert [by[f"A{i:03d}"].rank for i in range(4)] == [1, 2, 2, 4]
        assert [by[f"A{i:03d}"].avg_rank for i in range(4)] == [1.0, 2.5, 2.5, 4.0]

    def test_competition_ranks_match_oracle(self):
        values = [5.0, 1.0, 3.0, 3.0, 1.0, 8.0]
        table = vector_table(values)
        by = rank(table, "oa_share").by_actor()
        expected = competition_ranks(values)
        for i, exp in enumerate(expected):
            assert by[f"A{i:03d}"].rank == exp

    def test_undefined_metric_rows_excluded(self):
        table = make_table([("A", 50.0, 10.0, 1.2), ("B", 50.0, 20.0, None)])
        ranks = rank(table, noai_metric(Level.SUBJECT_CATEGORY))
        assert ranks.excluded == ("B",)
        assert ranks.actors() == {"A"}

    def test_empty_table_raises(self):
        with pytest.raises(EmptyTable):
            rank(make_table([]), "oa_share")

    def test_all_undefined_raises(self):
        table = make_table([("A", 50.0, 10.0, None)])
        with pytest.raises(EmptyTable):
            rank(table, noai_metric(Level.SUBJECT_CATEGORY))

    def test_unknown_metric_raises(self):
        table = vector_table([1.0, 2.0])
        with pytest.raises(ValueError):
            rank(table, "citations")

    def test_metric_accessors(self):
        row = make_table([("A", 50.0, 10.0, 1.2)]).rows[0]
        assert metric_value(row, "oa_share") == 10.0
        assert metric_value(row, "x_total") == 50.0
        assert metric_value(row, "noai_subject_category") == 1.2
        assert noai_metric(Level.OST_DISCIPLINE) == "noai_ost_discipline"


class TestSpearman:
    def test_identical_orders_give_exactly_one(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        a = rank(vector_table(values, "oa_share"), "oa_share")
        b = rank(vector_table(values, "x_total"), "x_total")
        assert spearman(a, b) == 1.0

    def test_reversed_orders_give_exactly_minus_one(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        a = rank(vector_table(values, "oa_share"), "oa_share")
        b = rank(vector_table([-v for v in values], "x_total"), "x_total")
        assert spearman(a, b) == -1.0

    def test_two_points(self):
        a = rank(vector_table([1.0, 2.0], "oa_share"), "oa_share")
        b = rank(vector_table([5.0, 3.0], "x_total"), "x_total")
        assert spearman(a, b) == -1.0

    def test_mismatched_actor_sets(self):
        a = rank(vector_table([1.0, 2.0]), "oa_share")
        b = rank(make_table([("A000", 1.0, 1.0, 1.0), ("XXX", 2.0, 2.0, 1.0)]),
                 "oa_share")
        with pytest.raises(MismatchedActorSets):
            spearman(a, b)

    def test_single_actor_degenerate(self):
        a = rank(vector_table([1.0]), "oa_share")
        with pytest.raises(DegenerateInput):
            spearman(a, a)

    def test_constant_vector_degenerate(self):
        a = rank(vector_table([1.0, 2.0, 3.0]), "oa_share")
        b = rank(vector_table([7.0, 7.0, 7.0], "x_total"), "x_total")
        with pytest.raises(DegenerateInput):
            spearman(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=200, unique=True))
    def test_tie_free_matches_textbook(self, values):
        n = len(values)
        other = list(range(n, 0, -1))  # any strict order works as the pair
        a = rank(vector_table(values, "oa_share"), "oa_share")
        b = rank(vector_table([float(v) for v in other], "x_total"), "x_total")
        expected = textbook_spearman(values, other)
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_tied_matches_textbook(self, data):
        n = data.draw(st.integers(min_value=2, max_value=200))
        xs = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                                min_size=n, max_size=n))
        ys = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                                min_size=n, max_size=n))
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        a = rank(vector_table([float(v) for v in xs], "oa_share"), "oa_share")
        b = rank(vector_table([float(v) for v in ys], "x_total"), "x_total")
        expected = textbook_spearman(xs, ys)
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


class TestRankShift:
    def test_positive_delta_means_gained_places(self):
        # B is last by share but first once normalized: delta -2 on the
        # ascending ranks means it moved toward rank 1, i.e. looked worse
        # raw than normalized... the sign convention is noai minus share.
        table = make_table([
            ("A", 100.0, 10.0, 1.5),
            ("B", 100.0, 30.0, 0.5),
            ("C", 100.0, 20.0, 1.0),
        ])
        share = rank(table, "oa_share")
        by_noai = rank(table, "noai_subject_category")
        shifts = rank_shift(share, by_noai)
        assert shifts == {"A": 2, "B": -2, "C": 0}

    def test_zero_shift_on_identical_rankings(self):
        table = make_table([("A", 1.0, 1.0, 1.0), ("B", 2.0, 2.0, 2.0)])
        share = rank(table, "oa_share")
        by_noai = rank(table, "noai_subject_category")
        assert set(rank_shift(share, by_noai).values()) == {0}

    def test_mismatch_raises(self):
        t1 = vector_table([1.0, 2.0])
        t2 = make_table([("A000", 1.0, 1.0, 1.0)])
        with pytest.raises(MismatchedActorSets):
            rank_shift(rank(t1, "oa_share"), rank(t2, "oa_share"))


class TestFilters:
    def test_threshold_is_strict(self):
        table = make_table([
            ("AT", 30.0, 10.0, 1.0),
            ("OVER", 30.5, 10.0, 1.0),
            ("UNDER", 29.9, 10.0, 1.0),
        ])
        kept = filter_actors(table)  # default threshold 30
        assert {r.actor for r in kept.rows} == {"OVER"}

    def test_custom_threshold(self):
        table = make_table([("A", 5.0, 0.0, 1.0), ("B", 6.0, 0.0, 1.0)])
        kept = filter_actors(table, min_pubs=5.0)
        assert {r.actor for r in kept.rows} == {"B"}

    def test_group_filter(self):
        rows = tuple(
            IndicatorRow(actor=a, display_name=a, kind=ActorKind.INSTITUTION,
                         group=g, x_total=100.0, oa_share=0.0,
                         noai={Level.SUBJECT_CATEGORY: 1.0},
                         oa_type_shares={}, n_oa_whole=0, n_pubs_whole=100)
            for a, g in (("u1", "G1"), ("u2", "G2"), ("u3", "G1"))
        )
        table = IndicatorTable(actor_kind=ActorKind.INSTITUTION,
                               levels=(Level.SUBJECT_CATEGORY,), rows=rows)
        kept = filter_actors(table, min_pubs=0.0, group="G1")
        assert {r.actor for r in kept.rows} == {"u1", "u3"}

    def test_top_actors(self):
        table = make_table([
            ("A", 10.0, 0.0, 1.0), ("B", 30.0, 0.0, 1.0),
            ("C", 20.0, 0.0, 1.0), ("D", 30.0, 0.0, 1.0),
        ])
        top = top_actors(table, 3)
        assert [r.actor for r in top.rows] == ["B", "D", "C"]

    def test_top_actors_n_beyond_size(self):
        table = make_table([("A", 1.0, 0.0, 1.0)])
        assert len(top_actors(table, 10).rows) == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_top_actors_rejects_n_below_one(self, n):
        table = make_table([("A", 1.0, 0.0, 1.0), ("B", 2.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="at least 1"):
            top_actors(table, n)

    def test_nan_threshold_rejected(self):
        table = make_table([("A", 50.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="nan"):
            filter_actors(table, min_pubs=float("nan"))
