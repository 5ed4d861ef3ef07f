"""Rankings, rank-shift analysis and tie-aware Spearman correlation.

The default rank convention is ascending: rank 1 is the least-open actor, so
an actor whose rank number grows after normalization gained places toward the
open end of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput, EmptyTable, MismatchedActorSets
from .model import IndicatorRow, IndicatorTable, Level

ASCENDING = "ascending"
DESCENDING = "descending"

#: Rankable metric names; noai metrics are suffixed with the level.
METRICS = (
    "oa_share",
    "x_total",
    "noai_subject_category",
    "noai_ost_discipline",
    "noai_erc_subfield",
)

_NOAI_METRICS = {
    "noai_subject_category": Level.SUBJECT_CATEGORY,
    "noai_ost_discipline": Level.OST_DISCIPLINE,
    "noai_erc_subfield": Level.ERC_SUBFIELD,
}


def noai_metric(level: Level) -> str:
    return "noai_" + level.value.replace("-", "_")


def metric_value(row: IndicatorRow, metric: str) -> float | None:
    if metric == "oa_share":
        return row.oa_share
    if metric == "x_total":
        return row.x_total
    level = _NOAI_METRICS.get(metric)
    if level is None:
        raise ValueError(f"unknown metric {metric!r}")
    return row.noai.get(level)


@dataclass(frozen=True, slots=True)
class RankRow:
    actor: str
    value: float
    rank: int        # competition rank (ties share the minimum), for display
    avg_rank: float  # ties averaged, for correlation


@dataclass(frozen=True)
class RankTable:
    metric: str
    convention: str
    rows: tuple[RankRow, ...]
    excluded: tuple[str, ...] = ()

    def by_actor(self) -> dict[str, RankRow]:
        return {row.actor: row for row in self.rows}

    def actors(self) -> frozenset[str]:
        return frozenset(row.actor for row in self.rows)


def rank(table: IndicatorTable, metric: str, convention: str = ASCENDING) -> RankTable:
    """Rank the table's actors by a metric.

    Rows with an undefined metric are excluded and recorded on the result.
    Ties get the minimum rank for display and the average rank for correlation.
    """
    if convention not in (ASCENDING, DESCENDING):
        raise ValueError(f"unknown convention {convention!r}")
    if not table.rows:
        raise EmptyTable("cannot rank an empty indicator table")
    valued = []
    excluded = []
    for row in table.rows:
        value = metric_value(row, metric)
        if value is None:
            excluded.append(row.actor)
        else:
            valued.append((value, row.actor))
    if not valued:
        raise EmptyTable(f"metric {metric!r} undefined for every row")
    sign = 1.0 if convention == ASCENDING else -1.0
    valued.sort(key=lambda pair: (sign * pair[0], pair[1]))
    rows = []
    i = 0
    n = len(valued)
    while i < n:
        j = i
        while j < n and valued[j][0] == valued[i][0]:
            j += 1
        # Positions are 1-based; the tie group spans positions i+1 .. j.
        avg = (i + 1 + j) / 2
        for value, actor in valued[i:j]:
            rows.append(RankRow(actor=actor, value=value, rank=i + 1, avg_rank=avg))
        i = j
    return RankTable(
        metric=metric, convention=convention, rows=tuple(rows), excluded=tuple(excluded)
    )


def spearman(ranks_a: RankTable, ranks_b: RankTable) -> float:
    """Tie-aware Spearman rho: Pearson correlation of the average-rank vectors."""
    actors_a = ranks_a.actors()
    actors_b = ranks_b.actors()
    if actors_a != actors_b:
        missing = actors_a.symmetric_difference(actors_b)
        raise MismatchedActorSets(f"rank tables disagree on actors: {sorted(missing)}")
    n = len(actors_a)
    if n < 2:
        raise DegenerateInput(f"need at least 2 actors, got {n}")
    b_by_actor = ranks_b.by_actor()
    # Average ranks always sum to n(n+1)/2, so both means are exactly (n+1)/2.
    mean = (n + 1) / 2
    num = 0.0
    var_a = 0.0
    var_b = 0.0
    for row in ranks_a.rows:
        da = row.avg_rank - mean
        db = b_by_actor[row.actor].avg_rank - mean
        num += da * db
        var_a += da * da
        var_b += db * db
    if var_a == 0 or var_b == 0:
        raise DegenerateInput("zero rank variance (all values tied)")
    return num / math.sqrt(var_a * var_b)


def rank_shift(share_ranks: RankTable, noai_ranks: RankTable) -> dict[str, int]:
    """Per-actor rank delta (normalized minus plain), on display ranks.

    Positive means the actor gained places toward the open end of the ranking
    once its disciplinary mix was taken into account.
    """
    if share_ranks.actors() != noai_ranks.actors():
        missing = share_ranks.actors().symmetric_difference(noai_ranks.actors())
        raise MismatchedActorSets(f"rank tables disagree on actors: {sorted(missing)}")
    noai_by_actor = noai_ranks.by_actor()
    return {
        row.actor: noai_by_actor[row.actor].rank - row.rank for row in share_ranks.rows
    }


def filter_actors(
    table: IndicatorTable,
    min_pubs: float = 30.0,
    group: str | None = None,
) -> IndicatorTable:
    """Keep rows with x_total strictly above min_pubs and, if given, in group."""
    if math.isnan(min_pubs):
        raise ValueError("min_pubs must be a number, got nan")
    rows = tuple(
        row
        for row in table.rows
        if row.x_total > min_pubs and (group is None or row.group == group)
    )
    return IndicatorTable(actor_kind=table.actor_kind, levels=table.levels, rows=rows)


def top_actors(table: IndicatorTable, n: int) -> IndicatorTable:
    """The n largest producers by x_total; ties break lexicographically by id."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rows = tuple(sorted(table.rows, key=lambda r: (-r.x_total, r.actor))[:n])
    return IndicatorTable(actor_kind=table.actor_kind, levels=table.levels, rows=rows)
