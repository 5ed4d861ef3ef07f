"""Fractional counting, world baselines, normalized shares and the NOAI.

Counting is mixed: disciplinary credit is fractional (a publication split
equally over its k subject categories, category fractions summed when they
map to the same coarser field), while geographic credit is whole (every
distinct actor on a record gets the full fraction).

Normalization runs in two stages. First each (actor, field) OA share is
divided by the world OA share of that field, giving a normalized share.
Second, the normalized shares are averaged over fields, weighted by the
actor's fractional publication counts, giving one indicator per actor
(NOAI). A value of 1.0 means world-typical openness for the actor's mix.

Every number is a projection of one exact integer tally of records by
(actor, category, k, status), by (year, category, k, status) for the world
and by (actor, status). With L the lcm of the k seen, n records under k
weigh n * (L // k) units of 1/L, so every cell and baseline is an integer
over L and no result depends on record order. Floats appear only as the
correctly rounded value of an exact quotient.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import UndefinedIndicator, UndefinedShare, UnknownCategory
from .model import (
    ActorFieldAggregate,
    ActorKind,
    ClassificationRegistry,
    DEFAULT_PRIORITY,
    IndicatorRow,
    IndicatorTable,
    Level,
    OAStatus,
    PublicationRecord,
    WorldBaseline,
    Actor,
)

_OA_TYPES = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)

# Position of each status in a counts tuple; see model._ExactCounts.
_SLOT = {status: i for i, status in enumerate(OAStatus)}
_CLOSED = _SLOT[OAStatus.CLOSED]


def fraction_entries(
    categories: Sequence[str],
    registry: ClassificationRegistry,
    level: Level,
) -> dict[str, float]:
    """field id -> weight for a record's category list at a level.

    Each of the k distinct categories carries 1/k; at coarser levels a field's
    weight is (categories mapping to it)/k, never re-fractionated.
    """
    counts = Counter(registry.classify(c, level) for c in categories)
    return {f: n / len(categories) for f, n in counts.items()}


@dataclass(frozen=True)
class AggregationResult:
    """One level's projection of an Aggregator tally.

    whole_counts holds each actor's records by resolved status, in the slot
    order of the counts tuples, every record counted once; years holds the
    world baselines of each publication year.
    """

    level: Level
    actor_kind: ActorKind | None
    cells: Mapping[tuple[str, str], ActorFieldAggregate]
    baselines: Mapping[str, WorldBaseline]
    years: Mapping[int, Mapping[str, WorldBaseline]]
    whole_counts: Mapping[str, tuple[int, int, int, int]]

    def actors(self) -> frozenset[str]:
        return frozenset(self.whole_counts)

    def cells_by_actor(self) -> dict[str, list[ActorFieldAggregate]]:
        grouped: dict[str, list[ActorFieldAggregate]] = {}
        for (actor, _), agg in self.cells.items():
            grouped.setdefault(actor, []).append(agg)
        return grouped


def _weigh(tally: Counter, weight: Mapping[int, int]) -> dict:
    """(owner, category, k, status) -> n as (owner, category) -> counts over the unit."""
    out: dict = {}
    for (owner, category, k, status), n in tally.items():
        acc = out.get((owner, category))
        if acc is None:
            acc = out[owner, category] = [0, 0, 0, 0]
        acc[_SLOT[status]] += n * weight[k]
    return out


def _regroup(counts: Mapping, key: Callable) -> dict:
    """Add up the counts of all entries whose keys map to the same new key."""
    out: dict = {}
    for old, c in counts.items():
        new = key(old)
        acc = out.get(new)
        if acc is None:
            out[new] = list(c)
        else:
            for i, n in enumerate(c):
                acc[i] += n
    return out


class Aggregator:
    """Streaming single-pass tally, projected onto one or more levels at once.

    Feed records with add(); finish() derives the per-level results. The world
    baseline takes every record exactly once, whether or not any actor of the
    requested kind appears on it; with actor_kind None no actor is credited
    and only the world tally is kept. Records are counted as given: year
    windows and other perimeter filters belong to the reader.
    """

    def __init__(
        self,
        registry: ClassificationRegistry,
        levels: Sequence[Level],
        actor_kind: ActorKind | None = ActorKind.COUNTRY,
        priority: tuple[OAStatus, ...] = DEFAULT_PRIORITY,
    ):
        self._registry = registry
        self._levels = tuple(levels)
        self._actor_kind = actor_kind
        self._priority = priority
        self._actors: Counter = Counter()
        self._world: Counter = Counter()
        self._whole: Counter = Counter()

    def add(self, record: PublicationRecord) -> None:
        # Resolve multi-status once per record: one OA type everywhere.
        status = OAStatus.CLOSED
        for candidate in self._priority:
            if candidate in record.raw_statuses:
                status = candidate
                break
        if self._actor_kind is ActorKind.COUNTRY:
            actors = record.countries
        elif self._actor_kind is ActorKind.INSTITUTION:
            actors = record.institutions
        else:
            actors = ()
        categories = record.subject_categories
        k = len(categories)
        for category in categories:
            self._world[record.year, category, k, status] += 1
            for actor in actors:
                self._actors[actor, category, k, status] += 1
        for actor in actors:
            self._whole[actor, status] += 1

    def add_all(self, corpus: Iterable[PublicationRecord]) -> None:
        for record in corpus:
            self.add(record)

    def finish(self) -> dict[Level, AggregationResult]:
        ks = {k for _, _, k, _ in self._world}
        unit = math.lcm(*ks)
        weight = {k: unit // k for k in ks}
        by_category = _weigh(self._actors, weight)
        world_by_category = _weigh(self._world, weight)
        whole: dict[str, list[int]] = {}
        for (actor, status), n in self._whole.items():
            whole.setdefault(actor, [0, 0, 0, 0])[_SLOT[status]] += n
        whole_counts = {actor: tuple(c) for actor, c in whole.items()}

        results = {}
        for level in self._levels:
            fields = self._registry.field_map(level)
            if fields is None:
                cells, world = by_category, world_by_category
            else:
                unknown = {c for _, c in world_by_category} - fields.keys()
                if unknown:
                    raise UnknownCategory(
                        f"subject categories {sorted(unknown)} not in registry")
                cells = _regroup(by_category, lambda key: (key[0], fields[key[1]]))
                world = _regroup(world_by_category, lambda key: (key[0], fields[key[1]]))
            years: dict[int, dict[str, WorldBaseline]] = {}
            for (year, f), c in world.items():
                years.setdefault(year, {})[f] = WorldBaseline(f, level, tuple(c), unit)
            results[level] = AggregationResult(
                level=level,
                actor_kind=self._actor_kind,
                cells={
                    key: ActorFieldAggregate(key[0], key[1], level, tuple(c), unit)
                    for key, c in cells.items()
                },
                baselines={
                    f: WorldBaseline(f, level, tuple(c), unit)
                    for f, c in _regroup(world, lambda key: key[1]).items()
                },
                years=years,
                whole_counts=whole_counts,
            )
        return results


def oa_share(agg) -> float:
    """Percent of an aggregate's (fractional) publications that are OA."""
    x = sum(agg.counts)
    if x == 0:
        raise UndefinedShare(f"no publications for {agg!r}")
    return 100 * (x - agg.counts[_CLOSED]) / x


@dataclass(frozen=True, slots=True)
class NormalizedShare:
    """Actor OA share divided by world OA share on one field; None if undefined."""

    actor: str
    field: str
    level: Level
    value: float | None


def normalized_share(agg: ActorFieldAggregate, baseline: WorldBaseline) -> NormalizedShare:
    """Stage-one normalization on a single field.

    Undefined (value None) when the actor has no publications on the field or
    the world share there is zero or undefined; undefined is a value, not an
    error.
    """
    if agg.field != baseline.field or agg.level != baseline.level:
        raise ValueError(
            f"aggregate {agg.actor}/{agg.field} and baseline {baseline.field} disagree"
        )
    world = baseline.oa_share
    if not any(agg.counts) or not world:
        return NormalizedShare(agg.actor, agg.field, agg.level, None)
    return NormalizedShare(
        agg.actor, agg.field, agg.level, float(agg.oa_count / agg.pub_count / world)
    )


def noai(
    aggregates: Iterable[ActorFieldAggregate],
    baselines: Mapping[str, WorldBaseline],
) -> float:
    """Stage-two normalization: weighted mean of defined normalized shares.

    Weights are the fractional publication counts; the denominator sums only
    over fields whose normalized share is defined, so the result stays a true
    weighted average of the terms present.

    A field's term share * x is oa * X / OA (actor counts in lower case, world
    counts in upper case), so with D the lcm of the world OA counts the mean
    is one quotient of integers, rounded once. The aggregates must share one
    unit, as the cells of one AggregationResult do.
    """
    terms = []
    for agg in aggregates:
        baseline = baselines.get(agg.field)
        if baseline is None:
            continue
        x = sum(agg.counts)
        world_x = sum(baseline.counts)
        world_oa = world_x - baseline.counts[_CLOSED]
        if x and world_oa:
            terms.append((x - agg.counts[_CLOSED], x, world_x, world_oa))
    if not terms:
        raise UndefinedIndicator("no field with a defined normalized share")
    d = math.lcm(*(world_oa for _, _, _, world_oa in terms))
    num = sum(oa * world_x * (d // world_oa) for oa, _, world_x, world_oa in terms)
    return num / (d * sum(x for _, x, _, _ in terms))


@dataclass(frozen=True)
class YearRow:
    """World totals for one year: overall, per-type and per-field OA percents."""

    year: int
    total_share: float
    type_shares: Mapping[OAStatus, float]
    field_shares: Mapping[str, float]


def yearly_series(result: AggregationResult) -> list[YearRow]:
    """World OA share per year, by type and by field at the result's level."""
    rows = []
    for year, baselines in sorted(result.years.items()):
        total = [sum(c) for c in zip(*(b.counts for b in baselines.values()))]
        x = sum(total)
        rows.append(
            YearRow(
                year=year,
                total_share=100 * (x - total[_CLOSED]) / x,
                type_shares={t: 100 * total[_SLOT[t]] / x for t in _OA_TYPES},
                field_shares={f: oa_share(b) for f, b in baselines.items()},
            )
        )
    return rows


def build_indicator_table(
    results: Mapping[Level, AggregationResult],
    actors_meta: Mapping[str, Actor] | None = None,
) -> IndicatorTable:
    """Assemble the per-actor indicator table from the level results of one pass.

    A record's category fractions sum to one, so an actor's fractional output
    and its OA and OA-type counts equal its whole counts at every level; only
    the NOAI depends on the level. The table's window is left unset: the
    caller knows which filter the corpus went through.
    """
    if not results:
        raise ValueError("no aggregation results")
    levels = tuple(results)
    first = results[levels[0]]
    grouped = {level: result.cells_by_actor() for level, result in results.items()}
    rows = []
    for actor, counts in first.whole_counts.items():
        pubs = sum(counts)
        n_oa = pubs - counts[_CLOSED]
        noai_values: dict[Level, float | None] = {}
        for level, result in results.items():
            try:
                noai_values[level] = noai(grouped[level][actor], result.baselines)
            except UndefinedIndicator:
                noai_values[level] = None
        meta = actors_meta.get(actor) if actors_meta else None
        rows.append(
            IndicatorRow(
                actor=actor,
                display_name=meta.display_name if meta else actor,
                kind=first.actor_kind,
                group=meta.group if meta else None,
                x_total=float(pubs),
                oa_share=100 * n_oa / pubs,
                noai=noai_values,
                oa_type_shares={t: 100 * counts[_SLOT[t]] / pubs for t in _OA_TYPES},
                n_oa_whole=n_oa,
                n_pubs_whole=pubs,
            )
        )
    rows.sort(key=lambda r: (-r.x_total, r.actor))
    return IndicatorTable(
        actor_kind=first.actor_kind,
        window=None,
        levels=levels,
        rows=tuple(rows),
    )
