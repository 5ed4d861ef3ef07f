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
itertools.product and Counter build and count the keys in C. The reader
has already decided each record's status and actors, so the tally only
counts. With L the lcm of the k seen, n records under k weigh n * (L // k)
units of 1/L, so every cell and baseline is a vector of four integers over
L, one per OAStatus in enum order, and no result depends on record order.
A pass weighs its tally as soon as it ends, and keeps only the weighed
cells and the credits (tally entries) under each k. Weighed cells are plain
data and add up, once rescaled to the lcm of both units, so the cells of a
corpus's parts add up to the cells of the whole; the credits say which k
are left when records are taken back out, and so the unit. The weighed
tally, keyed by subject category, is the one result of a pass. A level is
the registry's category -> field map, applied where a result is read: the
series sums category vectors into fields there, and the table gives each
category its field's NOAI weight. The CLI runs without the cyclic
collector, which would only rescan the tally's long-lived tuples. A record
spends exactly L over its categories, so an actor's whole counts are its
cell vectors summed and divided by L. Floats appear only as the correctly
rounded value of an exact quotient.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress, product
from operator import itemgetter, mul, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class AggregationResult(NamedTuple):
    """An Aggregator's weighed tally, as counts over `unit`, keyed by subject category.

    cells maps actor -> category -> counts, baselines category -> counts for
    the world and years year -> category -> counts. A coarser level's
    vectors are these summed by `registry.field_map(level)`.
    """

    unit: int
    cells: Mapping[str, Mapping[str, Counts]]
    baselines: Mapping[str, Counts]
    years: Mapping[int, Mapping[str, Counts]]


def _weigh(tally: Counter) -> tuple[int, dict, dict]:
    """The tally weighed: its unit, the credits under each k and owner ->
    category -> counts over the unit."""
    codes = set(map(itemgetter(2), tally))
    unit = math.lcm(*{code >> 2 for code in codes})
    # code -> [the unit over its k, the credits under it]
    weight = {code: [unit // (code >> 2), 0] for code in codes}
    out: dict = {}
    for (owner, category, code), n in tally.items():
        by_category = out.get(owner)
        if by_category is None:
            by_category = out[owner] = {}
        acc = by_category.get(category)
        if acc is None:
            acc = by_category[category] = [0, 0, 0, 0]
        w = weight[code]
        acc[code & 3] += n * w[0]
        w[1] += n
    credits: dict[int, int] = {}
    for code, (_, n) in weight.items():
        credits[code >> 2] = credits.get(code >> 2, 0) + n
    return unit, credits, out


def _rescaled(owners: Iterable[tuple], unit: int, new: int) -> dict:
    """(owner, category -> counts) items over `unit` as owner -> category ->
    new counts over `new`; either unit divides the other, and `new` is a
    multiple of every k counted."""
    return {owner: {category: [v * new // unit for v in c] for category, c in by.items()}
            for owner, by in owners}


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

    add_all() counts records in a tally and weighs it; finish() gives the
    weighed tally as one result. The world baseline takes every record
    exactly once, whether or not it credits any actor. Records are counted
    as given, under their status and actors: priority, actor kind, year
    windows and other perimeter filters belong to the reader.

    The weighed tally is linear in the records, so the weighed tallies of
    parts of a corpus add up to that of the whole: counts() gives it as
    plain pairs, which add_counts() adds to another Aggregator's, and
    remove_all() takes counted records back out. No counts vector is
    changed once made, so a result stays as it was.
    """

    def __init__(self):
        # Counts over the unit, the lcm of the k with credits, by owner and
        # category, and the credits under each category count k: the tally
        # entries of the records with k categories.
        self._unit = 1
        self._credits: dict[int, int] = {}
        self._cells: dict = {}

    def add_all(self, corpus: Iterable[PublicationRecord]) -> None:
        # Counter counts the keys in C.
        unit, credits, cells = _weigh(Counter(_keys(corpus)))
        if self._cells:
            self._add(unit, credits, cells.items())
        else:
            self._unit, self._credits, self._cells = unit, credits, cells

    def _add(self, unit: int, credits: Mapping[int, int], owners: Iterable[tuple]) -> None:
        """Add credits and (owner, category -> counts) items over `unit`,
        rescaling the side whose unit is not the lcm of both."""
        joint = math.lcm(self._unit, unit)
        if joint != self._unit:
            self._cells = _rescaled(self._cells.items(), self._unit, joint)
            self._unit = joint
        if joint != unit:
            owners = _rescaled(owners, unit, joint).items()
        mine = self._credits
        for k, n in credits.items():
            mine[k] = mine.get(k, 0) + n
        cells = self._cells
        for owner, theirs in owners:
            by_category = cells.get(owner)
            if by_category is None:
                cells[owner] = dict(theirs)
                continue
            get = by_category.get
            for category, c in theirs.items():
                acc = get(category)
                by_category[category] = c if acc is None else [
                    acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3]]

    def remove_all(self, records: Iterable[PublicationRecord]) -> None:
        """Uncount records that were counted: a cell or owner left empty is
        gone, and the unit becomes the lcm of the k still counted."""
        cells, credits, unit = self._cells, self._credits, self._unit
        for owner, category, code in _keys(records):
            k = code >> 2
            by_category = cells[owner]
            c = by_category[category] = by_category[category].copy()
            c[code & 3] -= unit // k
            if not any(c):
                del by_category[category]
                if not by_category:
                    del cells[owner]
            credits[k] -= 1
            if not credits[k]:
                del credits[k]
        joint = math.lcm(*credits)
        if joint != unit:
            self._cells = _rescaled(cells.items(), unit, joint)
            self._unit = joint

    def counts(self) -> Iterable[tuple]:
        """The weighed tally as plain pairs: first (None, k -> credits), the
        credits under a category count k being its tally entries, then
        (owner, category -> counts) for each owner, over the lcm of the k.
        The dicts are the Aggregator's own, valid until its next change."""
        return chain(((None, self._credits),), self._cells.items())

    def add_counts(self, counts: Iterable[tuple]) -> None:
        """Add a weighed tally given as counts() gives it."""
        owners = iter(counts)
        _, credits = next(owners)
        self._add(math.lcm(*credits), credits, owners)

    def finish(self) -> AggregationResult:
        years, actors = {}, {}
        for owner, by_category in self._cells.items():
            (years if type(owner) is int else actors)[owner] = dict(by_category)
        baselines = _project(chain.from_iterable(map(dict.items, years.values())), None)
        return AggregationResult(self._unit, actors, baselines, years)


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


def _field_weights(baselines: Mapping[str, Sequence[int]]) -> tuple[int, dict[str, int]]:
    """D and each field's NOAI weight X * (D // OA), 0 where the world has no
    OA publications; D is the lcm of the world OA counts of the others."""
    world_oa = {f: sum(b) - b[_CLOSED] for f, b in baselines.items()}
    d = math.lcm(*(oa for oa in world_oa.values() if oa))
    return d, {f: sum(b) * (d // world_oa[f]) if world_oa[f] else 0
               for f, b in baselines.items()}


def _terms(cells: Mapping[str, Sequence[int]]) -> tuple[list[int], list[int]]:
    """Each cell's x and oa, in the cells' order."""
    vectors = cells.values()
    xs = list(map(sum, vectors))
    return xs, list(map(sub, xs, map(itemgetter(_CLOSED), vectors)))


def _weighted_mean(cells: Mapping[str, Sequence[int]], xs: Sequence[int],
                   oas: Sequence[int], d: int, weight: Mapping[str, int]) -> float:
    """sum(oa * weight) / (D * sum(x)) over the cells whose weight is not 0,
    given each cell's x and oa; every sum runs in C."""
    weights = list(map(weight.__getitem__, cells))
    den = sum(compress(xs, weights))
    if not den:
        raise UndefinedIndicator("no field with a defined normalized share")
    return sum(map(mul, oas, weights)) / (d * den)


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
    return _weighted_mean(cells, *_terms(cells), *_field_weights(baselines))


class YearRow(NamedTuple):
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
    summed and divided by the unit. Only the NOAI depends on the level: the
    world's cells are summed into the level's fields, and each category
    takes its field's weight, so an actor's sums over its category cells are
    the integers its field vectors give. Rows are sorted by descending
    x_total, ties by actor id.
    """
    # Per level, D and each category's weight: that of its field.
    weights = []
    for level in levels:
        field_map = _field_map(result, registry, level)
        d, by_field = _field_weights(_project(result.baselines.items(), field_map))
        weights.append((level, d, by_field if field_map is None else
                        {c: by_field[field_map[c]] for c in result.baselines}))
    rows = []
    for actor, cells in result.cells.items():
        counts = [sum(c) // result.unit for c in zip(*cells.values())]
        pubs = sum(counts)
        xs, oas = _terms(cells)
        noai_values: dict[Level, float | None] = {}
        for level, d, weight in weights:
            try:
                noai_values[level] = _weighted_mean(cells, xs, oas, d, weight)
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
