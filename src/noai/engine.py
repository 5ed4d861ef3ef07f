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
owner and subject category: the owner is the record's year (an int) for the
world, an actor id (a str) otherwise. The reader has already decided each
record's status and actors, so the tally only counts. With L the lcm of the
category counts k seen, a record with k categories adds L // k at its
status's slot to each of its (owner, category) cells, so every cell and
baseline is a vector of four integers over L, one per OAStatus in enum
order, and no result depends on record order. Beside the cells the tally
keeps the credits, the (owner, category) pairs credited, under each k.
Cells are plain data and add up, once rescaled to the lcm of both units, so
the cells of a corpus's parts add up to the cells of the whole; the credits
say which k are left when records are taken back out, and so the unit. The
tally, keyed by subject category, is the one result of a pass. A level is
the registry's category -> field map, applied where a result is read: the
series sums category vectors into fields there, and the table gives each
category its field's NOAI weight at every level, packed into one integer,
so one pass over an actor's cells scores it at all levels. The CLI runs
without the cyclic collector, which would only rescan the tally's lists. A
record spends exactly L over its categories, so an actor's whole counts are
its cell vectors summed and divided by L. Floats are only ever the
correctly rounded value of an exact quotient.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    """An Aggregator's tally, as counts over `unit`, keyed by subject category.

    cells maps actor -> category -> counts, baselines category -> counts for
    the world and years year -> category -> counts. A coarser level's
    vectors are these summed by `registry.field_map(level)`.
    """

    unit: int
    cells: Mapping[str, Mapping[str, Counts]]
    baselines: Mapping[str, Counts]
    years: Mapping[int, Mapping[str, Counts]]


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
        out[f] = list(c) if acc is None else list(map(add, acc, c))
    return out


class Aggregator:
    """Streaming single-pass tally of records by subject category.

    add_all() adds each record straight into its cells; finish() gives the
    tally as one result. The world baseline takes every record exactly
    once, whether or not it credits any actor. Records are counted as
    given, under their status and actors: priority, actor kind, year
    windows and other perimeter filters belong to the reader.

    The tally is linear in the records, so the tallies of parts of a corpus
    add up to that of the whole: counts() gives it as plain pairs, which
    add_counts() adds to another Aggregator's, and remove_all() takes
    counted records back out. No counts vector is changed once it is the
    Aggregator's, and finish() hands out its owner dicts, which it copies
    before its next change, so a result stays as it was.
    """

    def __init__(self):
        # Counts over the unit, the lcm of the k with credits, by owner and
        # category, and the credits under each category count k: the
        # (owner, category) pairs of the records with k categories.
        self._unit = 1
        self._credits: dict[int, int] = {}
        self._cells: dict = {}
        self._handed = False

    def _own(self) -> None:
        if self._handed:  # copy the owner dicts finish() handed out
            self._cells, self._handed = {o: dict(by) for o, by in self._cells.items()}, False

    def add_all(self, corpus: Iterable[PublicationRecord]) -> None:
        # The pass's own cells, over the lcm of the k it has seen; the
        # Aggregator takes them once the pass ends.
        unit, credits, cells = 1, {}, {}
        for r in corpus:
            categories = r.subject_categories
            k = len(categories)
            if k not in credits:
                joint = math.lcm(unit, k)
                if joint != unit:
                    cells = _rescaled(cells.items(), unit, joint)
                    unit = joint
                credits[k] = 0
            share, slot = unit // k, _SLOT[r.status]
            for owner in (r.year, *r.actors):
                by_category = cells.get(owner)
                if by_category is None:
                    by_category = cells[owner] = {}
                for category in categories:
                    acc = by_category.get(category)
                    if acc is None:
                        acc = by_category[category] = [0, 0, 0, 0]
                    acc[slot] += share
            credits[k] += (1 + len(r.actors)) * k
        self._add(unit, credits, cells.items())

    def _add(self, unit: int, credits: Mapping[int, int], owners: Iterable[tuple]) -> None:
        """Add credits and (owner, category -> counts) items over `unit`,
        rescaling the side whose unit is not the lcm of both."""
        self._own()
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
        self._own()
        cells, credits, unit = self._cells, self._credits, self._unit
        for r in records:
            categories = r.subject_categories
            k = len(categories)
            share, slot = unit // k, _SLOT[r.status]
            for owner in (r.year, *r.actors):
                by_category = cells[owner]
                for category in categories:
                    c = by_category[category] = by_category[category].copy()
                    c[slot] -= share
                    if not any(c):
                        del by_category[category]
                if not by_category:
                    del cells[owner]
            credits[k] -= (1 + len(r.actors)) * k
            if not credits[k]:
                del credits[k]
        joint = math.lcm(*credits)
        if joint != unit:
            self._cells = _rescaled(cells.items(), unit, joint)
            self._unit = joint

    def counts(self) -> Iterable[tuple]:
        """The tally as plain pairs: first (None, k -> credits), the credits
        under a category count k being its (owner, category) pairs, then
        (owner, category -> counts) for each owner, over the lcm of the k.
        The dicts are the Aggregator's own, valid until its next change."""
        return chain(((None, self._credits),), self._cells.items())

    def add_counts(self, counts: Iterable[tuple]) -> None:
        """Add a tally given as counts() gives it."""
        owners = iter(counts)
        _, credits = next(owners)
        self._add(math.lcm(*credits), credits, owners)

    def finish(self) -> AggregationResult:
        self._handed = True
        years, actors = {}, {}
        for owner, by_category in self._cells.items():
            (years if type(owner) is int else actors)[owner] = by_category
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


def _scorer(baselines: Mapping[str, Sequence[int]],
            field_maps: Sequence[Mapping[str, str] | None]):
    """The scoring kernel: the function from an actor's cells, keyed like
    `baselines`, to its status totals and its NOAI at each level (a field
    map of those keys, None for the keys themselves), None where undefined.

    At each level D is the lcm of the world's nonzero OA counts and a
    field's weight X * (D // OA), or 0. Each key's weights, its fields', are
    packed into one integer, level i from bit i * lane on, with lane the bit
    length of the world's OA count times the largest weight. An actor's OA
    never exceeds the world's, so one sum(oa * packed) over its cells holds
    each level's numerator in its own lane, with no carry; an actor with
    more, which only a hand-built result can hold, raises ValueError. A
    level's denominator is the actor's count less its cells of weight 0.
    """
    world_oa = sum(sum(b) - b[_CLOSED] for b in baselines.values())
    weights, levels = [], []
    for field_map in field_maps:
        world = _project(baselines.items(), field_map)
        oa = {f: sum(b) - b[_CLOSED] for f, b in world.items()}
        d = math.lcm(*filter(None, oa.values()))
        by_field = {f: sum(b) * (d // oa[f]) if oa[f] else 0 for f, b in world.items()}
        weights.append(by_field if field_map is None else
                       {c: by_field[field_map[c]] for c in baselines})
        levels.append((d, [c for c, w in weights[-1].items() if not w]))
    lane = (world_oa * max(chain.from_iterable(map(dict.values, weights)),
                           default=0)).bit_length()
    packed = {c: sum(w[c] << i * lane for i, w in enumerate(weights)) for c in baselines}

    def score(cells: Mapping[str, Sequence[int]]) -> tuple[list[int], list[float | None]]:
        columns = list(zip(*cells.values())) or [()] * len(_SLOT)
        totals = list(map(sum, columns))
        x = sum(totals)
        if x - totals[_CLOSED] > world_oa:
            raise ValueError(f"an actor has more OA counts than the world's {world_oa}")
        gold, bronze, green, _ = columns  # CLOSED is the last slot
        num = sum(map(mul, map(add, map(add, gold, bronze), green),
                      map(packed.__getitem__, cells)))
        values = []
        for d, zeros in levels:
            den = x - sum(sum(cells[c]) for c in zeros if c in cells)
            values.append((num & ((1 << lane) - 1)) / (d * den) if den else None)
            num >>= lane
        return totals, values

    return score


def noai(cells: Mapping[str, Sequence[int]], baselines: Mapping[str, Sequence[int]]) -> float:
    """Stage-two normalization: weighted mean of defined normalized shares.

    cells maps each of an actor's fields to its counts and baselines every
    field to the world's, over one unit: a result's at the subject-category
    level, or both summed into a coarser level's fields. A field's
    normalized share is undefined when the actor has no publications there
    or the world has no OA ones; the mean, weighted by the actor's
    fractional publication counts, runs over the defined ones. A term
    share * x is oa * X / OA (actor counts in lower case, world counts in
    upper case), so with D the lcm of the world OA counts the mean is
    sum(oa * X * (D // OA)) / (D * sum(x)) over the fields with world OA:
    one quotient of integers rounded once, as the table's kernel gives it.
    """
    _, (value,) = _scorer(baselines, (None,))(cells)
    if value is None:
        raise UndefinedIndicator("no field with a defined normalized share")
    return value


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
    takes its field's weight, so an actor's sums over its category cells,
    one kernel pass for all levels, are the integers its field vectors give.
    Rows are sorted by descending x_total, ties by actor id.
    """
    score = _scorer(result.baselines,
                    [_field_map(result, registry, level) for level in levels])
    rows = []
    for actor, cells in result.cells.items():
        totals, values = score(cells)
        counts = [t // result.unit for t in totals]
        pubs = sum(counts)
        meta = actors_meta.get(actor) if actors_meta else None
        rows.append(
            IndicatorRow(
                actor=actor,
                display_name=meta.display_name if meta else actor,
                group=meta.group if meta else None,
                x_total=float(pubs),
                oa_share=oa_share(counts),
                noai=dict(zip(levels, values)),
                oa_type_shares=_type_shares(counts),
                n_oa_whole=pubs - counts[_CLOSED],
            )
        )
    rows.sort(key=lambda r: (-r.x_total, r.actor))
    return rows
