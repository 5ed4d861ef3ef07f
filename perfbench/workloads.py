"""The benchmark's workloads: seeded corpora, planted bad lines and CLI commands.

Every input is a function of the seed alone. The program under test only
receives the generated files, never the seed or the workload name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Imported from the checkout's src by run.py before this module is loaded.
from noai.model import ERC_SUBFIELDS, OST_DISCIPLINES, ActorKind
from noai.synth import FieldDef, OAProfile, SynthActor, SynthSpec, world_spec

#: Filters of the dirty `series` command. Planted duplicate and
#: unknown-category lines pass them, so each is rejected for its own reason.
SERIES_WINDOW = (2016, 2018)
SERIES_DOC_TYPES = ("article", "review")
UNKNOWN_CATEGORY = "Alchemy"

BAD_KINDS = ("truncated", "wrong_type", "empty_categories",
             "unknown_category", "duplicate_id")

# Valid JSON whose schema is wrong; each is a `malformed` rejection.
_WRONG_TYPES = (
    ("year", "2017"),
    ("doi", "yes"),
    ("countries", "C00"),
    ("oa", "gold"),
    ("categories", ["Economics", 7]),
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str              # "countries", "institutions" or "dirty"
    records: int             # corpus lines
    command: tuple[str, ...]  # CLI arguments besides --corpus/--registry/--out
    levels: tuple[str, ...] = ()
    actor_kind: str = "country"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("countries-indicators", "countries", 40_000, ("indicators",),
                 levels=("subject-category", "ost-discipline")),
        Workload("institutions-rank", "institutions", 12_000,
                 ("rank", "--actor-kind", "institution", "--level",
                  "subject-category,ost-discipline,erc-subfield"),
                 levels=("subject-category", "ost-discipline", "erc-subfield"),
                 actor_kind="institution"),
        Workload("dirty-series", "dirty", 40_000,
                 ("series", "--window", "%d:%d" % SERIES_WINDOW,
                  "--doc-types", ",".join(SERIES_DOC_TYPES), "--require-doi"),
                 levels=("ost-discipline",)),
        Workload("dirty-validate", "dirty", 40_000, ("validate",)),
    )
}


def institutions_spec(seed: int, n_records: int) -> SynthSpec:
    """250 categories over the 11 OST disciplines and 25 ERC sub-fields,
    400 institutions with about 8 per record, 60% multi-category records."""
    disciplines = list(OST_DISCIPLINES)
    subfields = list(ERC_SUBFIELDS)
    fields = tuple(
        FieldDef(f"Category {j:03d}", disciplines[j % 11], subfields[j % 25])
        for j in range(250)
    )
    profiles = {
        f.subject_category: OAProfile(0.05 + 0.04 * (j % 5),
                                      0.04 + 0.02 * (j % 3),
                                      0.06 + 0.05 * (j % 4))
        for j, f in enumerate(fields)
    }
    n_actors = 400
    base = 8.0 * n_records / n_actors
    weights = (0.2, 0.15, 0.13, 0.11, 0.1, 0.09, 0.08, 0.06, 0.05, 0.03)
    actors = []
    for a in range(n_actors):
        focus = [fields[(a * 7 + 3 * k) % 250].subject_category
                 for k in range(len(weights))]
        actors.append(SynthActor(
            id=f"I{a:03d}",
            kind=ActorKind.INSTITUTION,
            # Volumes from 0.5x to 1.5x the mean keep about 8 per record.
            volume=base * (0.5 + (a % 11) / 10.0),
            specialization=dict(zip(focus, weights)),
        ))
    return SynthSpec(
        seed=seed, n_records=n_records, years=(2015, 2019), fields=fields,
        oa_profiles=profiles, actors=tuple(actors),
        multi_category_rate=0.6, multi_status_rate=0.25, has_doi_rate=0.95,
    )


def corpus_spec(workload: Workload, seed: int) -> SynthSpec:
    if workload.corpus == "institutions":
        return institutions_spec(seed, workload.records)
    return world_spec(seed, workload.records)


def _passes_series_filters(obj: dict) -> bool:
    return (obj["doc_type"] in SERIES_DOC_TYPES
            and SERIES_WINDOW[0] <= obj["year"] <= SERIES_WINDOW[1]
            and obj["doi"])


def plant_bad_lines(lines: list[str], seed: int):
    """Replace every fifth line with a bad line of a seeded random kind.

    Returns the new lines, the number planted of each kind and the ids of
    the planted unknown-category records. Duplicates copy an earlier clean
    line that passes the series filters, and unknown-category records are
    made to pass them too.
    """
    rng = random.Random(seed)
    planted = dict.fromkeys(BAD_KINDS, 0)
    unknown_ids = []
    out = []
    dup_sources = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if i % 5 != 4:
            out.append(line)
            if _passes_series_filters(obj):
                dup_sources.append(line)
            continue
        kind = rng.choice(BAD_KINDS)
        if kind == "duplicate_id" and not dup_sources:
            kind = "truncated"
        if kind == "truncated":
            bad = line[: rng.randrange(1, len(line) - 1)]
        elif kind == "wrong_type":
            key, value = rng.choice(_WRONG_TYPES)
            bad = json.dumps({**obj, key: value}, separators=(",", ":"))
        elif kind == "empty_categories":
            bad = json.dumps({**obj, "categories": []}, separators=(",", ":"))
        elif kind == "unknown_category":
            unknown_ids.append(f"u{i:08d}")
            bad = json.dumps({**obj, "id": unknown_ids[-1], "year": 2017,
                              "doc_type": "article", "doi": True,
                              "categories": [obj["categories"][0], UNKNOWN_CATEGORY]},
                             separators=(",", ":"))
        else:
            bad = rng.choice(dup_sources)
        planted[kind] += 1
        out.append(bad)
    return out, planted, unknown_ids


#: A small fixed corpus whose last line is not valid UTF-8.
PROBE_CORPUS = (
    b'{"id":"p1","year":2017,"doc_type":"article","oa":["gold"],'
    b'"categories":["Economics"],"doi":true,"countries":["C00"],"institutions":[]}\n'
    b'{"id":"p2","year":2016,"doc_type":"review","oa":[],'
    b'"categories":["Mathematics","History"],"doi":true,"countries":["C01"],'
    b'"institutions":[]}\n'
    b'{"id":"p3","year":2018,"doc_type":"article","oa":["green"],'
    b'"categories":["Cell Biology"],"doi":true,"countries":["C00","C02"],'
    b'"institutions":[]}\n'
    b'{"id":"p\xff4","year":2017,"doc_type":"article","oa":[],'
    b'"categories":["Sociology"],"doi":true,"countries":["C03"],"institutions":[]}\n'
)
