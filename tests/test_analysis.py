"""Ranking, rank shift and rank correlation against the closed-form oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noai.analysis import filter_actors, rank, rank_shift, spearman
from noai.errors import DegenerateInput, EmptyTable, MismatchedActorSets
from noai.model import IndicatorRow, Level, OAStatus
from oracle import competition_ranks, textbook_spearman


def make_table(rows_spec) -> list[IndicatorRow]:
    """rows_spec: iterable of (actor, x_total, oa_share, noai_sc | None)."""
    return [
        IndicatorRow(
            actor=actor, display_name=actor, group=None,
            x_total=x, oa_share=share,
            noai={Level.SUBJECT_CATEGORY: noai_sc},
            oa_type_shares={t: 0.0 for t in
                            (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)},
            n_oa_whole=0,
        )
        for actor, x, share, noai_sc in rows_spec
    ]


def ranks_of(values):
    """The ranks of values given for actors A000, A001, ... in turn."""
    return rank({f"A{i:03d}": v for i, v in enumerate(values)})


class TestRank:
    def test_ascending_rank_one_is_lowest(self):
        ranks = ranks_of([30.0, 10.0, 20.0])
        assert [(actor, r.rank) for actor, r in ranks.items()] == [
            ("A001", 1), ("A002", 2), ("A000", 3)]

    def test_ties_share_minimum_display_rank(self):
        by = ranks_of([1.0, 2.0, 2.0, 3.0])
        assert [by[f"A{i:03d}"].rank for i in range(4)] == [1, 2, 2, 4]
        assert [by[f"A{i:03d}"].avg_rank for i in range(4)] == [1.0, 2.5, 2.5, 4.0]
        # Within a tie, rank order is actor id order.
        assert list(rank({"B": 2.0, "A": 2.0, "C": 1.0})) == ["C", "A", "B"]

    def test_competition_ranks_match_oracle(self):
        values = [5.0, 1.0, 3.0, 3.0, 1.0, 8.0]
        by = ranks_of(values)
        expected = competition_ranks(values)
        for i, exp in enumerate(expected):
            assert by[f"A{i:03d}"].rank == exp

    def test_empty_table_raises(self):
        with pytest.raises(EmptyTable, match="cannot rank an empty indicator table"):
            rank({})


class TestSpearman:
    def test_identical_orders_give_exactly_one(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(ranks_of(values), ranks_of(values)) == 1.0

    def test_reversed_orders_give_exactly_minus_one(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(ranks_of(values), ranks_of([-v for v in values])) == -1.0

    def test_two_points(self):
        assert spearman(ranks_of([1.0, 2.0]), ranks_of([5.0, 3.0])) == -1.0

    def test_mismatched_actor_sets(self):
        a = ranks_of([1.0, 2.0])
        b = rank({"A000": 1.0, "XXX": 2.0})
        with pytest.raises(MismatchedActorSets):
            spearman(a, b)

    def test_single_actor_degenerate(self):
        a = ranks_of([1.0])
        with pytest.raises(DegenerateInput):
            spearman(a, a)

    def test_constant_vector_degenerate(self):
        a = ranks_of([1.0, 2.0, 3.0])
        b = ranks_of([7.0, 7.0, 7.0])
        with pytest.raises(DegenerateInput):
            spearman(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=200, unique=True))
    def test_tie_free_matches_textbook(self, values):
        n = len(values)
        other = list(range(n, 0, -1))  # any strict order works as the pair
        a = ranks_of(values)
        b = ranks_of([float(v) for v in other])
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
        a = ranks_of([float(v) for v in xs])
        b = ranks_of([float(v) for v in ys])
        expected = textbook_spearman(xs, ys)
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


class TestRankShift:
    def test_positive_delta_means_gained_places(self):
        # B is last by share but first once normalized: delta -2 on the
        # ascending ranks means it moved toward rank 1, i.e. looked worse
        # raw than normalized... the sign convention is noai minus share.
        share = rank({"A": 10.0, "B": 30.0, "C": 20.0})
        by_noai = rank({"A": 1.5, "B": 0.5, "C": 1.0})
        assert rank_shift(share, by_noai) == {"A": 2, "B": -2, "C": 0}

    def test_zero_shift_on_identical_rankings(self):
        ranks = rank({"A": 1.0, "B": 2.0})
        assert set(rank_shift(ranks, ranks).values()) == {0}

    def test_mismatch_raises(self):
        with pytest.raises(MismatchedActorSets):
            rank_shift(ranks_of([1.0, 2.0]), rank({"A000": 1.0}))


class TestFilters:
    def test_threshold_is_strict(self):
        table = make_table([
            ("AT", 30.0, 10.0, 1.0),
            ("OVER", 30.5, 10.0, 1.0),
            ("UNDER", 29.9, 10.0, 1.0),
        ])
        kept = filter_actors(table)  # default threshold 30
        assert {r.actor for r in kept} == {"OVER"}

    def test_custom_threshold(self):
        table = make_table([("A", 5.0, 0.0, 1.0), ("B", 6.0, 0.0, 1.0)])
        kept = filter_actors(table, min_pubs=5.0)
        assert {r.actor for r in kept} == {"B"}

    def test_group_filter(self):
        table = [
            IndicatorRow(actor=a, display_name=a,
                         group=g, x_total=100.0, oa_share=0.0,
                         noai={Level.SUBJECT_CATEGORY: 1.0},
                         oa_type_shares={}, n_oa_whole=0)
            for a, g in (("u1", "G1"), ("u2", "G2"), ("u3", "G1"))
        ]
        kept = filter_actors(table, min_pubs=0.0, group="G1")
        assert {r.actor for r in kept} == {"u1", "u3"}

    def test_nan_threshold_rejected(self):
        table = make_table([("A", 50.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="nan"):
            filter_actors(table, min_pubs=float("nan"))
