"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles by routes
deliberately different from the package's own: Fraction sums built record
by record instead of one integer tally projected at the end, and the
closed-form tie-corrected rank-correlation formula instead of Pearson on
average ranks.  Tests compare the two routes; neither side reuses the
other's computation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from noai.model import DEFAULT_PRIORITY, ActorKind, Level, OAStatus

OA_TYPES = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)


def resolve(record, priority=DEFAULT_PRIORITY):
    for status in priority:
        if status in record.raw_statuses:
            return status
    return OAStatus.CLOSED


def field_of(registry, category, level):
    if level is Level.SUBJECT_CATEGORY:
        return category
    ost, erc = registry.categories[category]
    return ost if level is Level.OST_DISCIPLINE else erc


class Cell:
    """Exact per-(actor, field) tallies."""

    def __init__(self):
        self.x = Fraction(0)
        self.oa = Fraction(0)
        self.by_type = {t: Fraction(0) for t in OA_TYPES}


class BruteForce:
    """One pass over a record list with exact rational tallies.

    Mirrors the counting rules, not the implementation: disciplinary
    credit is 1/k per category (groups of categories sharing a coarser
    field pool their fractions), geographic credit is one whole unit per
    distinct actor, and the world baseline counts every record once.
    """

    def __init__(self, records, registry, level,
                 actor_kind=ActorKind.COUNTRY, window=None,
                 priority=DEFAULT_PRIORITY):
        self.level = level
        self.cells = defaultdict(Cell)        # (actor, field) -> Cell
        self.world = defaultdict(Cell)        # field -> Cell
        self.whole_pubs = defaultdict(int)    # actor -> record count
        self.whole_oa = defaultdict(int)      # actor -> OA record count
        self.world_whole_pubs = 0
        self.world_whole_oa = 0
        self.n_records = 0

        for rec in records:
            if window is not None and not (window[0] <= rec.year <= window[1]):
                continue
            self.n_records += 1
            status = resolve(rec, priority)
            is_oa = status in OA_TYPES

            k = len(rec.subject_categories)
            fracs = defaultdict(Fraction)
            for cat in rec.subject_categories:
                fracs[field_of(registry, cat, level)] += Fraction(1, k)

            actors = (rec.countries if actor_kind is ActorKind.COUNTRY
                      else rec.institutions)
            for f, frac in fracs.items():
                self.world[f].x += frac
                if is_oa:
                    self.world[f].oa += frac
                    self.world[f].by_type[status] += frac
                for actor in actors:
                    cell = self.cells[(actor, f)]
                    cell.x += frac
                    if is_oa:
                        cell.oa += frac
                        cell.by_type[status] += frac

            self.world_whole_pubs += 1
            if is_oa:
                self.world_whole_oa += 1
            for actor in actors:
                self.whole_pubs[actor] += 1
                if is_oa:
                    self.whole_oa[actor] += 1

    def actors(self):
        return sorted({actor for actor, _ in self.cells})

    def actor_fields(self, actor):
        return {f: cell for (a, f), cell in self.cells.items() if a == actor}

    def x_total(self, actor) -> Fraction:
        return sum((c.x for c in self.actor_fields(actor).values()), Fraction(0))

    def oa_share(self, actor) -> Fraction:
        """Percent OA among the actor's fractionally counted output."""
        fields = self.actor_fields(actor)
        x = sum((c.x for c in fields.values()), Fraction(0))
        oa = sum((c.oa for c in fields.values()), Fraction(0))
        return 100 * oa / x

    def world_oa_share(self) -> Fraction:
        x = sum((c.x for c in self.world.values()), Fraction(0))
        oa = sum((c.oa for c in self.world.values()), Fraction(0))
        return 100 * oa / x

    def type_share(self, actor, status) -> Fraction:
        fields = self.actor_fields(actor)
        x = sum((c.x for c in fields.values()), Fraction(0))
        v = sum((c.by_type[status] for c in fields.values()), Fraction(0))
        return 100 * v / x

    def normalized_share(self, actor, f) -> Fraction | None:
        """Actor OA share over world OA share in one field; None if undefined."""
        cell = self.cells.get((actor, f))
        if cell is None or cell.x == 0:
            return None
        world = self.world[f]
        if world.x == 0 or world.oa == 0:
            return None
        return (cell.oa / cell.x) / (world.oa / world.x)

    def noai(self, actor) -> Fraction | None:
        """Output-weighted mean of defined normalized shares; None if none."""
        num = Fraction(0)
        den = Fraction(0)
        for f, cell in self.actor_fields(actor).items():
            s = self.normalized_share(actor, f)
            if s is None:
                continue
            num += s * cell.x
            den += cell.x
        if den == 0:
            return None
        return num / den


def average_ranks(values):
    """Fractional (mid) ranks of a value list, ties sharing the mean position."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def competition_ranks(values):
    """Minimum rank within each tie group: 1 + count of strictly smaller values."""
    return [1 + sum(1 for w in values if w < v) for v in values]


def _tie_term(values) -> float:
    groups = defaultdict(int)
    for v in values:
        groups[v] += 1
    return sum(t ** 3 - t for t in groups.values()) / 12


def textbook_spearman(xs, ys) -> float:
    """Tie-corrected closed form over mid-ranks.

    rho = (N - Tx - Ty - sum d^2) / sqrt((N - 2 Tx) (N - 2 Ty)) with
    N = n (n^2 - 1) / 6 and T = sum (t^3 - t) / 12 per tie group; with no
    ties this reduces to 1 - 6 sum d^2 / (n^3 - n).
    """
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    big_n = n * (n * n - 1) / 6
    tx = _tie_term(xs)
    ty = _tie_term(ys)
    denom = math.sqrt((big_n - 2 * tx) * (big_n - 2 * ty))
    if denom == 0:
        raise ValueError("constant vector has no rank correlation")
    return (big_n - tx - ty - d2) / denom
