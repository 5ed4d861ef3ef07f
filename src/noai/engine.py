"""Fractional counting, world baselines and the NOAI.

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
(owner, category, k << 2 | slot): the owner is the record's year (an int)
for the world, an actor id (a str) otherwise, k is the record's category
count and slot its status's position in a counts vector, packed in one int
so that a key is a 3-tuple, a smaller allocation than a 4-tuple; and
itertools.product and Counter.update build and count the keys in C. The
tally is plain data, and the tallies of a corpus's parts add up to the
tally of the whole. The reader has already
decided each record's status and actors, so the tally only counts. With L
the lcm of the k seen, n records under k weigh n * (L // k) units of 1/L,
so every cell and baseline is a vector of four integers over L, one per
OAStatus in enum order, and no result depends on record order. The weighed
tally, keyed by subject category, is the one result of a pass. A level is
the registry's category -> field map, applied where a result is read: the
table and the series sum category vectors into fields there. The CLI runs
without the cyclic collector, which would only rescan the tally's
long-lived tuples. A record spends exactly L over its categories, so an
actor's whole counts are its cell vectors summed and divided by L. Floats
appear only as the correctly rounded value of an exact quotient.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import UndefinedIndicator, UndefinedShare, UnknownCategory
from .model import (
    ClassificationRegistry,
    IndicatorRow,
    Level,
    OAStatus,
    PublicationRecord,
    RAW_STATUSES,
    Actor,
)

# Position of each status in a counts vector.
_SLOT = {status: i for i, status in enumerate(OAStatus)}
_CLOSED = _SLOT[OAStatus.CLOSED]

#: Records of each OAStatus, in enum order, times the result's unit.
Counts = list[int]


@dataclass(frozen=True)
class AggregationResult:
    """An Aggregator's weighed tally, as counts over `unit`, keyed by subject category.

    cells maps actor -> category -> counts, baselines category -> counts for
    the world and years year -> category -> counts. A coarser level's
    vectors are these summed by `registry.field_map(level)`.
    """

    unit: int
    cells: Mapping[str, Mapping[str, Counts]]
    baselines: Mapping[str, Counts]
    years: Mapping[int, Mapping[str, Counts]]


def _weigh(tally: Counter, weight: Mapping[int, int]) -> tuple[dict, dict]:
    """The tally as owner -> category -> counts over the unit, years apart
    from actors; `weight` maps each k << 2 | slot to the unit over k."""
    out: dict = {}
    for (owner, category, code), n in tally.items():
        by_category = out.get(owner)
        if by_category is None:
            by_category = out[owner] = {}
        acc = by_category.get(category)
        if acc is None:
            acc = by_category[category] = [0, 0, 0, 0]
        acc[code & 3] += n * weight[code]
    years = {owner: out.pop(owner) for owner in [o for o in out if type(o) is int]}
    return years, out


def _project(items: Iterable[tuple[str, Counts]],
             field_map: Mapping[str, str] | None) -> dict[str, Counts]:
    """(category, counts) items as field -> new counts lists, adding up its categories."""
    out: dict[str, Counts] = {}
    for category, c in items:
        f = category if field_map is None else field_map[category]
        acc = out.get(f)
        if acc is None:
            out[f] = list(c)
        else:
            acc[0] += c[0]
            acc[1] += c[1]
            acc[2] += c[2]
            acc[3] += c[3]
    return out


def _keys(corpus: Iterable[PublicationRecord]) -> Iterator[tuple]:
    """Each record's (owner, category, k << 2 | slot) tally keys, the year's
    and each actor's, built by product in C."""
    return chain.from_iterable(
        product((r.year, *r.actors), r.subject_categories,
                (len(r.subject_categories) << 2 | _SLOT[r.status],))
        for r in corpus)


class Aggregator:
    """Streaming single-pass tally of records by subject category.

    Feed records with add_all(); finish() weighs the tally into one result. The
    world baseline takes every record exactly once, whether or not it
    credits any actor. Records are counted as given, under their status and
    actors: priority, actor kind, year windows and other perimeter filters
    belong to the reader.

    The tally is linear in the records, so tallies of parts of a corpus add
    up to the tally of the whole: counts() gives it as plain (key, n) pairs,
    which add_counts() adds to another Aggregator's, and remove_all() takes
    counted records back out.
    """

    def __init__(self):
        self._tally: Counter = Counter()

    def add_all(self, corpus: Iterable[PublicationRecord]) -> None:
        # Counter.update counts the keys in C.
        self._tally.update(_keys(corpus))

    def remove_all(self, records: Iterable[PublicationRecord]) -> None:
        """Uncount records that add_all counted; a key counted 0 times is gone."""
        tally = self._tally
        for key in _keys(records):
            if tally[key] == 1:
                del tally[key]
            else:
                tally[key] -= 1

    def counts(self) -> Iterable[tuple]:
        """The tally as ((owner, category, k << 2 | slot), n) pairs."""
        return self._tally.items()

    def add_counts(self, counts: Iterable[tuple]) -> None:
        """Add a tally given as counts() gives it."""
        tally = self._tally
        get = tally.get
        for key, n in counts:
            tally[key] = get(key, 0) + n

    def finish(self) -> AggregationResult:
        codes = set(map(itemgetter(2), self._tally))
        unit = math.lcm(*{code >> 2 for code in codes})
        years, actors = _weigh(self._tally, {code: unit // (code >> 2) for code in codes})
        baselines = _project(chain.from_iterable(map(dict.items, years.values())), None)
        return AggregationResult(unit, actors, baselines, years)


def _field_map(result: AggregationResult, registry: ClassificationRegistry,
               level: Level) -> Mapping[str, str] | None:
    """The level's category -> field map, None at the subject-category level;
    every category of the result must have a field."""
    field_map = registry.field_map(level)
    if field_map is not None:
        unknown = result.baselines.keys() - field_map.keys()
        if unknown:
            raise UnknownCategory(f"subject categories {sorted(unknown)} not in registry")
    return field_map


def oa_share(counts: Sequence[int]) -> float:
    """Percent of a counts vector's (fractional) publications that are OA."""
    x = sum(counts)
    if x == 0:
        raise UndefinedShare(f"no publications in {tuple(counts)}")
    return 100 * (x - counts[_CLOSED]) / x


def _type_shares(counts: Sequence[int]) -> dict[OAStatus, float]:
    """Percent of a counts vector's (fractional) publications of each OA type."""
    x = sum(counts)
    return {t: 100 * counts[_SLOT[t]] / x for t in RAW_STATUSES}


def _field_weights(baselines: Mapping[str, Sequence[int]]) -> tuple[int, dict[str, int | None]]:
    """D and each field's NOAI weight X * (D // OA), None where the world has
    no OA publications; D is the lcm of the world OA counts of the others."""
    world_oa = {f: sum(b) - b[_CLOSED] for f, b in baselines.items()}
    d = math.lcm(*(oa for oa in world_oa.values() if oa))
    return d, {f: sum(b) * (d // world_oa[f]) if world_oa[f] else None
               for f, b in baselines.items()}


def _weighted_mean(cells: Mapping[str, Sequence[int]], d: int,
                   weights: Mapping[str, int | None]) -> float:
    """sum(oa * weight) / (D * sum(x)) over the fields whose weight is defined."""
    num = den = 0
    for f, counts in cells.items():
        w = weights[f]
        if w is not None:
            x = sum(counts)
            num += (x - counts[_CLOSED]) * w
            den += x
    if not den:
        raise UndefinedIndicator("no field with a defined normalized share")
    return num / (d * den)


def noai(cells: Mapping[str, Sequence[int]], baselines: Mapping[str, Sequence[int]]) -> float:
    """Stage-two normalization: weighted mean of defined normalized shares.

    cells maps each of an actor's fields to its counts and baselines every
    field to the world's, over one unit: an AggregationResult's at the
    subject-category level, both summed by the level's field map at a
    coarser one. A
    field's normalized share is undefined when the actor has no publications
    there or the world has no OA ones. Weights are the fractional
    publication counts; the denominator sums only over fields whose
    normalized share is defined, so the result stays a true weighted average
    of the terms present.

    A field's term share * x is oa * X / OA (actor counts in lower case, world
    counts in upper case), so with D the lcm of the world OA counts the mean
    is one quotient of integers, rounded once. D and the weights X * (D // OA)
    depend on the baselines alone, so a table computes them once per level.
    """
    return _weighted_mean(cells, *_field_weights(baselines))


@dataclass(frozen=True)
class YearRow:
    """World totals for one year: overall, per-type and per-field OA percents."""

    year: int
    total_share: float
    type_shares: Mapping[OAStatus, float]
    field_shares: Mapping[str, float]


def yearly_series(result: AggregationResult, registry: ClassificationRegistry,
                  level: Level) -> list[YearRow]:
    """World OA share per year, by type and by field at the level."""
    field_map = _field_map(result, registry, level)
    rows = []
    for year, by_category in sorted(result.years.items()):
        baselines = _project(by_category.items(), field_map)
        total = [sum(c) for c in zip(*baselines.values())]
        rows.append(
            YearRow(
                year=year,
                total_share=oa_share(total),
                type_shares=_type_shares(total),
                field_shares={f: oa_share(b) for f, b in baselines.items()},
            )
        )
    return rows


def build_indicator_table(
    result: AggregationResult,
    registry: ClassificationRegistry,
    levels: Sequence[Level],
    actors_meta: Mapping[str, Actor] | None = None,
) -> list[IndicatorRow]:
    """The per-actor indicator rows of one pass, with the NOAI at each level.

    A record's category fractions sum to one, so an actor's fractional output
    and its OA and OA-type counts equal its whole counts: its cell vectors
    summed and divided by the unit. Only the NOAI depends on the level: an
    actor's cells and the world's are summed into the level's fields first.
    Rows are sorted by descending x_total, ties by actor id.
    """
    weights = []
    for level in levels:
        field_map = _field_map(result, registry, level)
        weights.append((level, field_map,
                        *_field_weights(_project(result.baselines.items(), field_map))))
    rows = []
    for actor, cells in result.cells.items():
        counts = [sum(c) // result.unit for c in zip(*cells.values())]
        pubs = sum(counts)
        noai_values: dict[Level, float | None] = {}
        for level, field_map, d, level_weights in weights:
            by_field = cells if field_map is None else _project(cells.items(), field_map)
            try:
                noai_values[level] = _weighted_mean(by_field, d, level_weights)
            except UndefinedIndicator:
                noai_values[level] = None
        meta = actors_meta.get(actor) if actors_meta else None
        rows.append(
            IndicatorRow(
                actor=actor,
                display_name=meta.display_name if meta else actor,
                group=meta.group if meta else None,
                x_total=float(pubs),
                oa_share=oa_share(counts),
                noai=noai_values,
                oa_type_shares=_type_shares(counts),
                n_oa_whole=pubs - counts[_CLOSED],
            )
        )
    rows.sort(key=lambda r: (-r.x_total, r.actor))
    return rows
