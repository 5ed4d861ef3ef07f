"""Rankings, rank-shift analysis and tie-aware Spearman correlation.

Ranks are ascending: rank 1 is the least-open actor, so an actor whose rank
number grows after normalization gained places toward the open end of the
table.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import DegenerateInput, EmptyTable, MismatchedActorSets
from .model import IndicatorRow


@dataclass(frozen=True, slots=True)
class RankRow:
    rank: int        # competition rank (ties share the minimum), for display
    avg_rank: float  # ties averaged, for correlation


def rank(values: Mapping[str, float]) -> dict[str, RankRow]:
    """Rank actors by value, ascending, ties broken by actor id.

    Returns actor -> RankRow in rank order. Ties get the minimum rank for
    display and the average rank for correlation.
    """
    if not values:
        raise EmptyTable("cannot rank an empty indicator table")
    ordered = sorted(values.items(), key=lambda item: (item[1], item[0]))
    ranks = {}
    i = 0
    n = len(ordered)
    while i < n:
        j = i
        while j < n and ordered[j][1] == ordered[i][1]:
            j += 1
        # Positions are 1-based; the tie group spans positions i+1 .. j.
        row = RankRow(rank=i + 1, avg_rank=(i + 1 + j) / 2)
        for actor, _ in ordered[i:j]:
            ranks[actor] = row
        i = j
    return ranks


def _same_actors(ranks_a: Mapping[str, RankRow], ranks_b: Mapping[str, RankRow]) -> None:
    if ranks_a.keys() != ranks_b.keys():
        missing = ranks_a.keys() ^ ranks_b.keys()
        raise MismatchedActorSets(f"rank tables disagree on actors: {sorted(missing)}")


def spearman(ranks_a: Mapping[str, RankRow], ranks_b: Mapping[str, RankRow]) -> float:
    """Tie-aware Spearman rho: Pearson correlation of the average-rank vectors."""
    _same_actors(ranks_a, ranks_b)
    n = len(ranks_a)
    if n < 2:
        raise DegenerateInput(f"need at least 2 actors, got {n}")
    # Average ranks always sum to n(n+1)/2, so both means are exactly (n+1)/2.
    mean = (n + 1) / 2
    num = 0.0
    var_a = 0.0
    var_b = 0.0
    for actor, row in ranks_a.items():
        da = row.avg_rank - mean
        db = ranks_b[actor].avg_rank - mean
        num += da * db
        var_a += da * da
        var_b += db * db
    if var_a == 0 or var_b == 0:
        raise DegenerateInput("zero rank variance (all values tied)")
    return num / math.sqrt(var_a * var_b)


def rank_shift(share_ranks: Mapping[str, RankRow],
               noai_ranks: Mapping[str, RankRow]) -> dict[str, int]:
    """Per-actor rank delta (normalized minus plain), on display ranks.

    Positive means the actor gained places toward the open end of the ranking
    once its disciplinary mix was taken into account.
    """
    _same_actors(share_ranks, noai_ranks)
    return {actor: noai_ranks[actor].rank - row.rank
            for actor, row in share_ranks.items()}


def filter_actors(
    rows: list[IndicatorRow],
    min_pubs: float = 30.0,
    group: str | None = None,
) -> list[IndicatorRow]:
    """Keep rows with x_total strictly above min_pubs and, if given, in group."""
    if math.isnan(min_pubs):
        raise ValueError("min_pubs must be a number, got nan")
    return [row for row in rows
            if row.x_total > min_pubs and (group is None or row.group == group)]


def top_actors(rows: list[IndicatorRow], n: int) -> list[IndicatorRow]:
    """The n largest producers by x_total; ties break lexicographically by id."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return sorted(rows, key=lambda r: (-r.x_total, r.actor))[:n]
