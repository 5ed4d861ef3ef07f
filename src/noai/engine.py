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

Every number is a projection of one exact integer tally keyed by OA
status, owner and subject category: the owner is the record's year (an
int) for the world, an actor id (a str) otherwise. The reader has already
decided each record's status and actors, so the tally only counts. With L
the lcm of the category counts k seen, a record with k categories adds
L // k to the count of each of its (owner, category) pairs under its
status; a count of 0 is never stored, and no result depends on record
order. Beside the counts the tally keeps the credits, the (owner, category)
pairs credited, under each k. Tallies add up, once rescaled to the lcm of
both units, so those of a corpus's parts add up to that of the whole; the
credits say which k are left when records are taken back out, and so the
unit. A level is the registry's category -> field map, applied where a
result is read: the series sums category counts into fields, and the table
packs each category's field weights at every level into one integer, so
one pass over an actor's OA counts scores it at all levels. A record spends
exactly L over its categories, so an actor's whole counts are its counts
summed and divided by L. Floats are only ever the correctly rounded value
of an exact quotient.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import UndefinedShare, UnknownCategory
from .model import (
    ClassificationRegistry,
    IndicatorRow,
    Level,
    OAStatus,
    PublicationRecord,
    RAW_STATUSES,
    Actor,
)

# Position of each status in a tally.
_SLOT = {status: i for i, status in enumerate(OAStatus)}
_CLOSED = _SLOT[OAStatus.CLOSED]


class AggregationResult(NamedTuple):
    """An Aggregator's tally, as counts over `unit`, keyed by subject category.

    cells, baselines and years each hold one mapping per OAStatus, in enum
    order: of actor -> category -> count, of category -> count for the
    world and of year -> category -> count. An absent key counts 0. A
    coarser level's counts are these summed by `registry.field_map(level)`.
    """

    unit: int
    cells: tuple[Mapping[str, Mapping[str, int]], ...]
    baselines: tuple[Mapping[str, int], ...]
    years: tuple[Mapping[int, Mapping[str, int]], ...]


def _rescaled(cells: Sequence[Mapping], unit: int, new: int) -> tuple[dict, ...]:
    """Status maps of owner -> category -> count over `unit` as new ones over
    `new`; either unit divides the other, and `new` is a multiple of every k
    counted."""
    return tuple({owner: {category: n * new // unit for category, n in by.items()}
                  for owner, by in owners.items()} for owners in cells)


def _pairs(credits: Mapping[int, int], cells: Sequence[Mapping]) -> Iterable[tuple]:
    """A tally as plain pairs: (None, credits), then ((slot, owner), by)."""
    return chain(((None, credits),),
                 (((slot, owner), by) for slot, owners in enumerate(cells)
                  for owner, by in owners.items()))


def _project(items: Iterable[tuple[str, int]],
             field_map: Mapping[str, str] | None) -> dict[str, int]:
    """(category, count) items as field -> count, adding up its categories."""
    out: dict[str, int] = {}
    get = out.get
    for category, n in items:
        f = category if field_map is None else field_map[category]
        out[f] = get(f, 0) + n
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
    counted records back out. finish() hands out the Aggregator's owner
    dicts, which it copies before its next change, so a result stays as it
    was.
    """

    def __init__(self):
        # Counts over the unit, the lcm of the k with credits, by status, owner
        # and category; the credits are the (owner, category) pairs under each k.
        self._unit = 1
        self._credits: dict[int, int] = {}
        self._cells: tuple[dict, ...] = tuple({} for _ in OAStatus)
        self._handed = False

    def _own(self) -> None:
        if self._handed:  # copy the owner dicts finish() handed out
            self._cells = tuple({o: dict(by) for o, by in m.items()} for m in self._cells)
            self._handed = False

    def add_all(self, corpus: Iterable[PublicationRecord]) -> None:
        # The pass's own cells, over the lcm of the k it has seen: nothing
        # else holds them, so an Aggregator that has counted nothing takes them.
        unit, credits, cells = 1, {}, tuple({} for _ in OAStatus)
        for r in corpus:
            categories = r.subject_categories
            k = len(categories)
            if k not in credits:
                joint = math.lcm(unit, k)
                if joint != unit:
                    cells = _rescaled(cells, unit, joint)
                    unit = joint
                credits[k] = 0
            share, owners = unit // k, cells[_SLOT[r.status]]
            for owner in (r.year, *r.actors):
                by = owners.get(owner)
                if by is None:
                    by = owners[owner] = {}
                for category in categories:
                    by[category] = by.get(category, 0) + share
            credits[k] += (1 + len(r.actors)) * k
        if self._credits:
            self.add_counts(_pairs(credits, cells))
        else:
            self._unit, self._credits, self._cells, self._handed = unit, credits, cells, False

    def remove_all(self, records: Iterable[PublicationRecord]) -> None:
        """Uncount records that were counted: a count that reaches 0 or an
        owner left with none is gone, and the unit becomes the lcm of the k
        still counted."""
        self._own()
        cells, credits, unit = self._cells, self._credits, self._unit
        for r in records:
            categories = r.subject_categories
            k = len(categories)
            share, owners = unit // k, cells[_SLOT[r.status]]
            for owner in (r.year, *r.actors):
                by = owners[owner]
                for category in categories:
                    by[category] -= share
                    if not by[category]:
                        del by[category]
                if not by:
                    del owners[owner]
            credits[k] -= (1 + len(r.actors)) * k
            if not credits[k]:
                del credits[k]
        joint = math.lcm(*credits)
        if joint != unit:
            self._cells, self._unit = _rescaled(cells, unit, joint), joint

    def counts(self) -> Iterable[tuple]:
        """The tally as plain pairs: first (None, k -> credits), the credits
        under a category count k being its (owner, category) pairs, then
        ((slot, owner), category -> count) for each status slot and owner,
        over the lcm of the k. The dicts are the Aggregator's own, valid
        until its next change."""
        return _pairs(self._credits, self._cells)

    def add_counts(self, counts: Iterable[tuple]) -> None:
        """Add a tally given as counts() gives it, each pair as it comes: the
        first, the credits, sets the unit, and the side whose unit is not the
        lcm of both is rescaled. A new owner's dict is copied."""
        self._own()
        pairs = iter(counts)
        _, credits = next(pairs)
        unit = math.lcm(*credits)
        joint = math.lcm(self._unit, unit)
        if joint != self._unit:
            self._cells, self._unit = _rescaled(self._cells, self._unit, joint), joint
        mine, cells, scale = self._credits, self._cells, joint // unit
        for k, n in credits.items():
            mine[k] = mine.get(k, 0) + n
        for (slot, owner), theirs in pairs:
            if scale != 1:
                theirs = {category: n * scale for category, n in theirs.items()}
            by = cells[slot].get(owner)
            if by is None:
                cells[slot][owner] = theirs if scale != 1 else dict(theirs)
                continue
            for category, n in theirs.items():
                by[category] = by.get(category, 0) + n

    def finish(self) -> AggregationResult:
        self._handed = True
        years = tuple({o: by for o, by in owners.items() if type(o) is int}
                      for owners in self._cells)
        actors = tuple({o: by for o, by in owners.items() if type(o) is not int}
                       for owners in self._cells)
        baselines = tuple(_project(chain.from_iterable(map(dict.items, y.values())), None)
                          for y in years)
        return AggregationResult(self._unit, actors, baselines, years)


def _field_map(result: AggregationResult, registry: ClassificationRegistry,
               level: Level) -> Mapping[str, str] | None:
    """The level's category -> field map, None at the subject-category level;
    every category of the result must have a field."""
    field_map = registry.field_map(level)
    if field_map is not None:
        unknown = set().union(*result.baselines) - field_map.keys()
        if unknown:
            raise UnknownCategory(f"subject categories {sorted(unknown)} not in registry")
    return field_map


def oa_share(counts: Sequence[int]) -> float:
    """Percent of a counts vector's (fractional) publications that are OA:
    its counts under each OAStatus, in enum order."""
    x = sum(counts)
    if x == 0:
        raise UndefinedShare(f"no publications in {tuple(counts)}")
    return 100 * (x - counts[_CLOSED]) / x


def _type_shares(counts: Sequence[int]) -> dict[OAStatus, float]:
    """Percent of a counts vector's (fractional) publications of each OA type."""
    x = sum(counts)
    return {t: 100 * counts[_SLOT[t]] / x for t in RAW_STATUSES}


def _scorer(baselines: Sequence[Mapping[str, int]],
            field_maps: Sequence[Mapping[str, str] | None]):
    """The scoring kernel: the function from an actor's cells, one mapping
    per status with keys like those of `baselines`, to its status totals and
    its NOAI at each level (a field map of those keys, None for the keys
    themselves), None where undefined.

    At each level D is the lcm of the world's OA counts and a field's weight
    X * (D // OA), or 0. Each key's weights are packed into one integer,
    level i from bit i * lane on, with lane the bit length of the world's OA
    count times the largest weight. An actor's OA never exceeds the world's,
    so one sum(oa * packed) over its OA counts holds each level's numerator
    in its own lane, with no carry; a hand-built actor with more raises
    ValueError, and one with a key the world lacks KeyError. A level's
    denominator is the actor's count less its counts of weight 0.
    """
    open_maps = baselines[:_CLOSED]  # CLOSED is the last status
    world_oa = sum(sum(m.values()) for m in open_maps)
    keys = dict.fromkeys(chain(*baselines))
    weights, levels = [], []
    for field_map in field_maps:
        x = _project(chain.from_iterable(m.items() for m in baselines), field_map)
        oa = _project(chain.from_iterable(m.items() for m in open_maps), field_map)
        d = math.lcm(*oa.values())
        by_field = {f: n * (d // oa[f]) if f in oa else 0 for f, n in x.items()}
        weights.append(by_field if field_map is None else
                       {c: by_field[field_map[c]] for c in keys})
        levels.append((d, [c for c, w in weights[-1].items() if not w]))
    lane = (world_oa * max(chain.from_iterable(map(dict.values, weights)),
                           default=0)).bit_length()
    packed = {c: sum(w[c] << i * lane for i, w in enumerate(weights)) for c in keys}

    def score(cells: Sequence[Mapping[str, int]]) -> tuple[list[int], list[float | None]]:
        totals = [sum(m.values()) for m in cells]
        x = sum(totals)
        if x - totals[_CLOSED] > world_oa:
            raise ValueError(f"an actor has more OA counts than the world's {world_oa}")
        if not cells[_CLOSED].keys() <= packed.keys():
            raise KeyError(f"{sorted(cells[_CLOSED].keys() - packed.keys())} not in the world")
        num = sum(sum(map(mul, m.values(), map(packed.__getitem__, m))) for m in cells[:_CLOSED])
        values = []
        for d, zeros in levels:
            den = x - sum(m[c] for m in cells for c in zeros if c in m)
            values.append((num & ((1 << lane) - 1)) / (d * den) if den else None)
            num >>= lane
        return totals, values

    return score


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
    for year in sorted(set().union(*result.years)):
        by_status = [_project(years.get(year, {}).items(), field_map)
                     for years in result.years]
        total = [sum(m.values()) for m in by_status]
        rows.append(
            YearRow(
                year=year,
                total_share=oa_share(total),
                type_shares=_type_shares(total),
                field_shares={f: oa_share([m.get(f, 0) for m in by_status])
                              for f in dict.fromkeys(chain(*by_status))},
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
    and its OA and OA-type counts equal its whole counts: its counts under
    each status summed and divided by the unit. Only the NOAI depends on the
    level, through the weights the kernel gives each category at every
    level. Rows are sorted by descending x_total, ties by actor id.
    """
    score = _scorer(result.baselines,
                    [_field_map(result, registry, level) for level in levels])
    rows = []
    for actor in dict.fromkeys(chain(*result.cells)):
        totals, values = score([actors.get(actor, {}) for actors in result.cells])
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
