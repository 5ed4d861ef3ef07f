"""Shared fixtures: a worked three-category publication, a ten-field
registry whose categories pool many-to-one at the coarser levels, random
corpora drawn with the stdlib PRNG rather than the package's generator, and
the canonical corpus writer that `noai.synth.generate` matches byte for byte.

Tests build and compare `RawRecord`s, a corpus line's fields with their
types. The engine counts `PublicationRecord`s, which only the reader's
parser builds: `parsed` turns raw records into what the reader yields, and
`counted` builds, field by field, what the reader must yield for one."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest

import noai.ingest as ingest
from noai.model import (
    DEFAULT_PRIORITY,
    ActorKind,
    ClassificationRegistry,
    DocType,
    OAStatus,
    PublicationRecord,
)
from oracle import field_of, resolve


class RawRecord(NamedTuple):
    """Every field of a corpus line: raw OA statuses, both actor sets, the
    document type and the DOI flag. The oracle in `tests/oracle.py` reads it."""

    id: str
    year: int
    doc_type: DocType
    raw_statuses: frozenset[OAStatus]
    subject_categories: tuple[str, ...]
    has_doi: bool
    countries: frozenset[str]
    institutions: frozenset[str]


def raw_record(obj: dict) -> RawRecord:
    """The raw record of a corpus line's object that the reader accepts."""
    return RawRecord(
        id=obj["id"],
        year=obj["year"],
        doc_type=DocType(obj["doc_type"]),
        raw_statuses=frozenset(OAStatus(s) for s in obj.get("oa", [])),
        subject_categories=tuple(dict.fromkeys(obj["categories"])),
        has_doi=obj.get("doi", False),
        countries=frozenset(obj.get("countries", [])),
        institutions=frozenset(obj.get("institutions", [])),
    )


def parsed(records, actor_kind=ActorKind.COUNTRY, priority=DEFAULT_PRIORITY):
    """The records the reader yields for these raw records' corpus lines
    under an actor kind and a priority: each line's object goes through the
    reader's own parser."""
    options = ingest.IngestOptions(priority=priority, actor_kind=actor_kind)
    return (ingest._parse_line(serialize_record(r), True, options) for r in records)


def exact_counts(counts, unit):
    """An engine counts vector as exact (publications, OA publications, OA by type)."""
    by_status = {s: Fraction(n, unit) for s, n in zip(OAStatus, counts, strict=True)}
    by_type = {s: n for s, n in by_status.items() if s is not OAStatus.CLOSED}
    return sum(by_status.values()), sum(by_type.values()), by_type


class LevelSums(NamedTuple):
    """An engine result's vectors summed into one level's fields: actor ->
    field -> counts, field -> counts for the world and year -> field ->
    counts, over the result's unit."""

    unit: int
    cells: dict
    baselines: dict
    years: dict


def at_level(result, registry, level):
    """The one result of a pass, keyed by subject category, projected onto a
    level. The sums are made here with the oracle's field_of, apart from the
    engine, so that tests check the engine's own projections too."""
    def by_field(by_category):
        out = {}
        for category, counts in by_category.items():
            f = field_of(registry, category, level)
            out[f] = [a + b for a, b in zip(out.get(f, (0, 0, 0, 0)), counts, strict=True)]
        return out

    return LevelSums(result.unit,
                     {actor: by_field(c) for actor, c in result.cells.items()},
                     by_field(result.baselines),
                     {year: by_field(c) for year, c in result.years.items()})


# A publication carrying three subject categories, two of which share an
# OST discipline, signed by two countries.  Fractions at category level
# are 1/3 each; at discipline level Computer science pools 2/3 and
# Medical research keeps 1/3.
TABLE_CATS = (
    "Medical Informatics",
    "Computer Science, Information Systems",
    "Health Care Sciences & Services",
)

TABLE_REGISTRY = ClassificationRegistry({
    "Medical Informatics": ("Computer science", "PE6"),
    "Computer Science, Information Systems": ("Computer science", "PE6"),
    "Health Care Sciences & Services": ("Medical research", "LS7"),
})


@pytest.fixture
def table_registry() -> ClassificationRegistry:
    return TABLE_REGISTRY


@pytest.fixture
def table_record() -> RawRecord:
    return RawRecord(
        id="w1",
        year=2016,
        doc_type=DocType.ARTICLE,
        raw_statuses=frozenset({OAStatus.GOLD}),
        subject_categories=TABLE_CATS,
        has_doi=True,
        countries=frozenset({"FRA", "USA"}),
        institutions=frozenset({"univ-x"}),
    )


# Ten categories over six disciplines and nine sub-fields, so the three
# levels genuinely differ and coarser fields pool several categories.
CATS10 = (
    "Astronomy & Astrophysics",
    "Cell Biology",
    "Biochemistry & Molecular Biology",
    "Clinical Neurology",
    "Oncology",
    "Computer Science, Artificial Intelligence",
    "Computer Science, Information Systems",
    "Mathematics",
    "Economics",
    "Sociology",
)

REG10 = ClassificationRegistry({
    "Astronomy & Astrophysics": ("Earth sciences - Astronomy - Astrophysics", "PE9"),
    "Cell Biology": ("Fundamental biology", "LS3"),
    "Biochemistry & Molecular Biology": ("Fundamental biology", "LS1"),
    "Clinical Neurology": ("Medical research", "LS5"),
    "Oncology": ("Medical research", "LS4"),
    "Computer Science, Artificial Intelligence": ("Computer science", "PE6"),
    "Computer Science, Information Systems": ("Computer science", "PE6"),
    "Mathematics": ("Mathematics", "PE1"),
    "Economics": ("Social sciences", "SH1"),
    "Sociology": ("Social sciences", "SH3"),
})

ACTORS20 = tuple(f"A{i:02d}" for i in range(20))


@pytest.fixture
def reg10() -> ClassificationRegistry:
    return REG10


def random_corpus(seed: int, n_records: int,
                  actor_pool=ACTORS20, categories=CATS10,
                  institution_pool=()) -> list[RawRecord]:
    """A corpus drawn with the stdlib PRNG, not the package generator.

    Stresses the full input space: arbitrary OA status subsets (including
    ones where priority resolution matters), 1 to 3 categories, 0 to 4
    signing actors, all document types.
    """
    rng = random.Random(seed)
    doc_types = list(DocType)
    records = []
    for i in range(n_records):
        k = min(rng.choice((1, 1, 1, 2, 2, 3)), len(categories))
        cats = rng.sample(list(categories), k)
        statuses = [s for s in (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)
                    if rng.random() < 0.25]
        n_countries = rng.randint(0, min(4, len(actor_pool)))
        countries = rng.sample(list(actor_pool), n_countries)
        institutions = ()
        if institution_pool:
            institutions = rng.sample(
                list(institution_pool), rng.randint(0, min(2, len(institution_pool)))
            )
        records.append(RawRecord(
            id=f"p{i:06d}",
            year=rng.randint(2015, 2019),
            doc_type=rng.choice(doc_types),
            raw_statuses=frozenset(statuses),
            subject_categories=tuple(cats),
            has_doi=rng.random() < 0.9,
            countries=frozenset(countries),
            institutions=frozenset(institutions),
        ))
    return records


def serialize_record(record: RawRecord) -> dict:
    """A record as its corpus line's object, in the line's key order."""
    return {
        "id": record.id,
        "year": record.year,
        "doc_type": record.doc_type.value,
        "oa": [s.value for s in DEFAULT_PRIORITY if s in record.raw_statuses],
        "categories": list(record.subject_categories),
        "doi": record.has_doi,
        "countries": sorted(record.countries),
        "institutions": sorted(record.institutions),
    }


def write_corpus(records, path) -> int:
    """Write records as canonical JSON Lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for record in records:
            out.write(json.dumps(serialize_record(record), separators=(",", ":")))
            out.write("\n")
            n += 1
    return n


def counted(record: RawRecord, options: ingest.IngestOptions) -> PublicationRecord:
    """What a raw record counts as under the options, built field by field."""
    actors = {
        None: frozenset(),
        ActorKind.COUNTRY: record.countries,
        ActorKind.INSTITUTION: record.institutions,
    }[options.actor_kind]
    return PublicationRecord(record.id, record.year, resolve(record, options.priority),
                             record.subject_categories, actors)


def load_corpus(path, registry=None, options=None):
    """The raw records of the lines that the reader accepts, with its stats.

    Each line goes through the reader's parser, whose record must be what
    the line's raw record counts as; the raw record is then kept whole."""
    parse = ingest._parse_line

    def keep_whole(obj, escaped, opts):
        record = parse(obj, escaped, opts)
        raw = raw_record(obj)
        assert record == counted(raw, opts), (record, raw)
        assert type(record) is PublicationRecord
        return raw

    reader = ingest.CorpusReader(path, registry, options)
    with mock.patch.object(ingest, "_parse_line", keep_whole):
        return list(reader), reader.stats


def registry_csv_text(registry: ClassificationRegistry) -> str:
    lines = ["subject_category,ost_discipline,erc_subfield"]
    for cat, (ost, erc) in registry.categories.items():
        lines.append(f'"{cat}","{ost}",{erc}')
    return "\n".join(lines) + "\n"


@pytest.fixture
def reg10_csv(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(registry_csv_text(REG10), encoding="utf-8")
    return str(path)
