"""Deterministic synthetic corpus generation.

Corpora are generated from a declarative spec (a single JSON document)
describing fields, per-field open-access propensities, and actors with
field specialization profiles.  The generator is counter-based: records
are produced in fixed-size chunks, and chunk ``c`` draws its randomness
from a Philox4x64-10 stream with ``key = seed`` and counter word 3 set
to ``c``.  Chunk streams therefore never overlap, the output depends
only on ``(spec, seed)``, and regenerating any chunk is O(1).

Each record consumes one row of a uniform matrix with a fixed column
layout (year, doc type, DOI, category multiplicity, primary field,
extra fields, OA status, secondary status, then one signing column per
actor), so adding records never shifts the randomness of earlier ones.

Sampling model, in brief: the primary subject category is drawn from
the volume-weighted mixture of actor specialization profiles (uniform
when no actors are declared); each actor then signs independently with
probability ``volume * specialization(f) / (n_records * g(f))`` so that
its expected output volume is ``volume`` and its realized field profile
tracks its specialization.  OA status is drawn from the primary
category's (gold, bronze, green) propensities; a configurable fraction
of OA records carry a second, strictly lower-priority status.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, IoFailure
from .ingest import ACTOR_COLUMNS, REGISTRY_COLUMNS, write_corpus
from .model import (
    ActorKind,
    DocType,
    OAStatus,
    PublicationRecord,
)

CHUNK = 4096

DEFAULT_DOC_TYPE_WEIGHTS: Mapping[str, float] = {
    DocType.ARTICLE.value: 0.78,
    DocType.REVIEW.value: 0.12,
    DocType.LETTER.value: 0.05,
    DocType.PROCEEDING.value: 0.05,
}

# Uniform-matrix column layout; one row per record.
_COL_YEAR = 0
_COL_DOC_TYPE = 1
_COL_DOI = 2
_COL_MULTI_CAT = 3
_COL_EXTRA_COUNT = 4
_COL_PRIMARY = 5
_COL_EXTRA_1 = 6
_COL_EXTRA_2 = 7
_COL_OA = 8
_COL_MULTI_STATUS = 9
_COL_SECOND_STATUS = 10
_N_FIXED_COLS = 11


@dataclass(frozen=True, slots=True)
class FieldDef:
    """One subject category and its position in the coarser nomenclatures."""

    subject_category: str
    ost_discipline: str
    erc_subfield: str


@dataclass(frozen=True, slots=True)
class OAProfile:
    """Per-category OA propensities; the remainder is closed."""

    gold: float
    bronze: float
    green: float

    @property
    def total(self) -> float:
        return self.gold + self.bronze + self.green


@dataclass(frozen=True, slots=True)
class SynthActor:
    """An actor with an expected output volume and a field profile.

    ``specialization`` maps subject categories to weights summing to 1;
    it is the actor's expected distribution of output across fields.
    """

    id: str
    kind: ActorKind
    volume: float
    specialization: Mapping[str, float]


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Complete description of a synthetic corpus."""

    seed: int
    n_records: int
    years: tuple[int, int]
    fields: tuple[FieldDef, ...]
    oa_profiles: Mapping[str, OAProfile]
    actors: tuple[SynthActor, ...] = ()
    multi_category_rate: float = 0.0
    multi_status_rate: float = 0.0
    has_doi_rate: float = 1.0
    doc_type_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DOC_TYPE_WEIGHTS)
    )

    def categories(self) -> tuple[str, ...]:
        return tuple(f.subject_category for f in self.fields)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidSpec(message)


def _as_rate(value: object, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number")
    rate = float(value)
    _require(0.0 <= rate <= 1.0, f"{name} must be in [0, 1], got {rate}")
    return rate


def validate_spec(spec: SynthSpec) -> None:
    """Raise InvalidSpec unless ``spec`` is internally consistent."""
    _require(spec.seed >= 0, "seed must be a non-negative integer")
    _require(spec.n_records >= 0, "n_records must be non-negative")
    lo, hi = spec.years
    _require(lo <= hi, f"years must satisfy start <= end, got {lo}:{hi}")
    _require(spec.n_records == 0 or len(spec.fields) > 0,
             "at least one field is required to generate records")

    cats = spec.categories()
    _require(len(set(cats)) == len(cats), "duplicate subject category in fields")
    for cat in cats:
        _require(cat in spec.oa_profiles, f"missing OA profile for {cat!r}")
    for cat, prof in spec.oa_profiles.items():
        _require(cat in cats, f"OA profile for unknown category {cat!r}")
        for name, p in (("gold", prof.gold), ("bronze", prof.bronze),
                        ("green", prof.green)):
            _require(0.0 <= p <= 1.0,
                     f"{cat!r}: {name} propensity must be in [0, 1]")
        _require(prof.total <= 1.0 + 1e-12,
                 f"{cat!r}: OA propensities sum to {prof.total}, above 1")

    seen_ids: set[str] = set()
    for actor in spec.actors:
        _require(bool(actor.id), "actor id must be non-empty")
        _require(actor.id not in seen_ids, f"duplicate actor id {actor.id!r}")
        seen_ids.add(actor.id)
        _require(actor.volume >= 0.0,
                 f"actor {actor.id!r}: volume must be non-negative")
        weight_sum = 0.0
        for cat, w in actor.specialization.items():
            _require(cat in cats,
                     f"actor {actor.id!r}: unknown category {cat!r}")
            _require(w >= 0.0,
                     f"actor {actor.id!r}: negative weight for {cat!r}")
            weight_sum += w
        if actor.volume > 0.0:
            _require(math.isclose(weight_sum, 1.0, abs_tol=1e-9),
                     f"actor {actor.id!r}: specialization weights sum to "
                     f"{weight_sum}, expected 1")

    _require(0.0 <= spec.multi_category_rate <= 1.0,
             "multi_category_rate must be in [0, 1]")
    _require(0.0 <= spec.multi_status_rate <= 1.0,
             "multi_status_rate must be in [0, 1]")
    _require(0.0 <= spec.has_doi_rate <= 1.0,
             "has_doi_rate must be in [0, 1]")

    weight_total = 0.0
    for name, w in spec.doc_type_weights.items():
        _require(name in {d.value for d in DocType},
                 f"unknown doc type {name!r} in doc_type_weights")
        _require(w >= 0.0, f"doc type weight for {name!r} must be non-negative")
        weight_total += w
    _require(weight_total > 0.0, "doc_type_weights must not sum to zero")


def spec_from_dict(obj: object) -> SynthSpec:
    """Build and validate a SynthSpec from parsed JSON."""
    _require(isinstance(obj, dict), "spec must be a JSON object")
    assert isinstance(obj, dict)
    known = {"seed", "n_records", "years", "fields", "oa_profiles", "actors",
             "multi_category_rate", "multi_status_rate", "has_doi_rate",
             "doc_type_weights"}
    for key in obj:
        _require(key in known, f"unknown spec key {key!r}")
    for key in ("seed", "n_records", "years", "fields", "oa_profiles"):
        _require(key in obj, f"missing spec key {key!r}")

    seed = obj["seed"]
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed must be an integer")
    n_records = obj["n_records"]
    _require(isinstance(n_records, int) and not isinstance(n_records, bool),
             "n_records must be an integer")

    years_raw = obj["years"]
    _require(isinstance(years_raw, list) and len(years_raw) == 2
             and all(isinstance(y, int) and not isinstance(y, bool)
                     for y in years_raw),
             "years must be a two-integer list [start, end]")
    years = (years_raw[0], years_raw[1])

    fields_raw = obj["fields"]
    _require(isinstance(fields_raw, list), "fields must be a list")
    fields = []
    for entry in fields_raw:
        _require(isinstance(entry, dict), "each field must be an object")
        for key in REGISTRY_COLUMNS:
            _require(key in entry and isinstance(entry[key], str)
                     and entry[key] != "",
                     f"field entry needs non-empty string {key!r}")
        fields.append(FieldDef(
            subject_category=entry["subject_category"],
            ost_discipline=entry["ost_discipline"],
            erc_subfield=entry["erc_subfield"],
        ))

    profiles_raw = obj["oa_profiles"]
    _require(isinstance(profiles_raw, dict), "oa_profiles must be an object")
    profiles = {}
    for cat, prof in profiles_raw.items():
        _require(isinstance(prof, dict), f"profile for {cat!r} must be an object")
        for key in prof:
            _require(key in ("gold", "bronze", "green"),
                     f"profile for {cat!r}: unknown key {key!r}")
        profiles[cat] = OAProfile(
            gold=_as_rate(prof.get("gold", 0.0), f"{cat!r} gold"),
            bronze=_as_rate(prof.get("bronze", 0.0), f"{cat!r} bronze"),
            green=_as_rate(prof.get("green", 0.0), f"{cat!r} green"),
        )

    actors_raw = obj.get("actors", [])
    _require(isinstance(actors_raw, list), "actors must be a list")
    actors = []
    for entry in actors_raw:
        _require(isinstance(entry, dict), "each actor must be an object")
        for key in ("id", "kind", "volume", "specialization"):
            _require(key in entry, f"actor entry needs key {key!r}")
        _require(isinstance(entry["id"], str), "actor id must be a string")
        try:
            kind = ActorKind(entry["kind"])
        except ValueError:
            raise InvalidSpec(
                f"actor {entry['id']!r}: unknown kind {entry['kind']!r}"
            ) from None
        volume = entry["volume"]
        _require(isinstance(volume, (int, float)) and not isinstance(volume, bool),
                 f"actor {entry['id']!r}: volume must be a number")
        spec_raw = entry["specialization"]
        _require(isinstance(spec_raw, dict) and all(
            isinstance(w, (int, float)) and not isinstance(w, bool)
            for w in spec_raw.values()),
            f"actor {entry['id']!r}: specialization must map categories to numbers")
        actors.append(SynthActor(
            id=entry["id"],
            kind=kind,
            volume=float(volume),
            specialization={c: float(w) for c, w in spec_raw.items()},
        ))

    weights_raw = obj.get("doc_type_weights")
    if weights_raw is None:
        weights = dict(DEFAULT_DOC_TYPE_WEIGHTS)
    else:
        _require(isinstance(weights_raw, dict) and all(
            isinstance(w, (int, float)) and not isinstance(w, bool)
            for w in weights_raw.values()),
            "doc_type_weights must map doc types to numbers")
        weights = {name: float(w) for name, w in weights_raw.items()}

    spec = SynthSpec(
        seed=seed,
        n_records=n_records,
        years=years,
        fields=tuple(fields),
        oa_profiles=profiles,
        actors=tuple(actors),
        multi_category_rate=_as_rate(obj.get("multi_category_rate", 0.0),
                                     "multi_category_rate"),
        multi_status_rate=_as_rate(obj.get("multi_status_rate", 0.0),
                                   "multi_status_rate"),
        has_doi_rate=_as_rate(obj.get("has_doi_rate", 1.0), "has_doi_rate"),
        doc_type_weights=weights,
    )
    validate_spec(spec)
    return spec


def spec_to_dict(spec: SynthSpec) -> dict:
    """Inverse of spec_from_dict, suitable for json.dump."""
    return {
        "seed": spec.seed,
        "n_records": spec.n_records,
        "years": list(spec.years),
        "fields": [
            {
                "subject_category": f.subject_category,
                "ost_discipline": f.ost_discipline,
                "erc_subfield": f.erc_subfield,
            }
            for f in spec.fields
        ],
        "oa_profiles": {
            cat: {"gold": p.gold, "bronze": p.bronze, "green": p.green}
            for cat, p in spec.oa_profiles.items()
        },
        "actors": [
            {
                "id": a.id,
                "kind": a.kind.value,
                "volume": a.volume,
                "specialization": dict(a.specialization),
            }
            for a in spec.actors
        ],
        "multi_category_rate": spec.multi_category_rate,
        "multi_status_rate": spec.multi_status_rate,
        "has_doi_rate": spec.has_doi_rate,
        "doc_type_weights": dict(spec.doc_type_weights),
    }


def load_synth_spec(path: str) -> SynthSpec:
    """Parse and validate a spec file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"spec {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(obj)


class _SamplingPlan:
    """Arrays precomputed from a spec, shared by all chunks."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.n_fields = len(spec.fields)
        self.categories = spec.categories()
        self.years = np.arange(spec.years[0], spec.years[1] + 1)

        order = [d.value for d in DocType]
        weights = np.array(
            [spec.doc_type_weights.get(name, 0.0) for name in order]
        )
        self.doc_types = order
        self.doc_cum = np.cumsum(weights / weights.sum())
        self.doc_cum[-1] = 1.0

        profiles = [spec.oa_profiles[c] for c in self.categories]
        self.gold_edge = np.array([p.gold for p in profiles])
        self.bronze_edge = np.array([p.gold + p.bronze for p in profiles])
        self.green_edge = np.array([p.total for p in profiles])

        # Primary-field mixture: volume-weighted blend of actor profiles,
        # uniform when nothing is declared.
        mix = np.zeros(self.n_fields) if self.n_fields else np.zeros(0)
        for actor in spec.actors:
            for j, cat in enumerate(self.categories):
                mix[j] += actor.volume * actor.specialization.get(cat, 0.0)
        if self.n_fields and mix.sum() <= 0.0:
            mix = np.ones(self.n_fields)
        self.field_dist = mix / mix.sum() if self.n_fields else mix
        if self.n_fields:
            self.field_cum = np.cumsum(self.field_dist)
            self.field_cum[-1] = 1.0
        else:
            self.field_cum = mix

        # Signing probability per (actor, field), clipped to [0, 1]:
        # q = volume * specialization / (n_records * field_dist), which
        # makes each actor's expected record count equal its volume.
        self.actors = spec.actors
        self.sign_prob = np.zeros((len(spec.actors), self.n_fields))
        if spec.n_records > 0:
            for i, actor in enumerate(spec.actors):
                for j, cat in enumerate(self.categories):
                    g = self.field_dist[j]
                    if g <= 0.0:
                        continue
                    q = actor.volume * actor.specialization.get(cat, 0.0)
                    self.sign_prob[i, j] = min(1.0, q / (spec.n_records * g))

        self.n_cols = _N_FIXED_COLS + len(spec.actors)


def _pick_extras(primary: int, cand_1: int, cand_2: int, n_extras: int,
                 n_fields: int) -> list[int]:
    """Resolve extra-category candidates to distinct non-primary indices.

    A candidate colliding with an already-chosen index probes linearly,
    so the result is deterministic in the candidates alone.
    """
    n_extras = min(n_extras, n_fields - 1)
    chosen = [primary]
    for cand in (cand_1, cand_2)[:n_extras]:
        idx = cand
        while idx in chosen:
            idx = (idx + 1) % n_fields
        chosen.append(idx)
    return chosen[1:]


def iter_records(spec: SynthSpec) -> Iterator[PublicationRecord]:
    """Yield the corpus for ``spec``, deterministically in ``spec.seed``."""
    validate_spec(spec)
    if spec.n_records == 0:
        return
    plan = _SamplingPlan(spec)
    n_years = len(plan.years)
    n_fields = plan.n_fields
    country_ids = [(i, a.id) for i, a in enumerate(plan.actors)
                   if a.kind is ActorKind.COUNTRY]
    inst_ids = [(i, a.id) for i, a in enumerate(plan.actors)
                if a.kind is ActorKind.INSTITUTION]

    for chunk_index, start in enumerate(range(0, spec.n_records, CHUNK)):
        m = min(CHUNK, spec.n_records - start)
        stream = np.random.Generator(
            np.random.Philox(key=spec.seed, counter=[0, 0, 0, chunk_index])
        )
        u = stream.random((m, plan.n_cols))

        year_idx = np.minimum((u[:, _COL_YEAR] * n_years).astype(np.int64),
                              n_years - 1)
        doc_idx = np.searchsorted(plan.doc_cum, u[:, _COL_DOC_TYPE],
                                  side="right")
        doc_idx = np.minimum(doc_idx, len(plan.doc_types) - 1)
        has_doi = u[:, _COL_DOI] < spec.has_doi_rate
        is_multi_cat = u[:, _COL_MULTI_CAT] < spec.multi_category_rate
        n_extras = np.where(u[:, _COL_EXTRA_COUNT] < 0.5, 1, 2)
        primary = np.minimum(
            np.searchsorted(plan.field_cum, u[:, _COL_PRIMARY], side="right"),
            n_fields - 1,
        )
        cand_1 = np.minimum((u[:, _COL_EXTRA_1] * n_fields).astype(np.int64),
                            n_fields - 1)
        cand_2 = np.minimum((u[:, _COL_EXTRA_2] * n_fields).astype(np.int64),
                            n_fields - 1)

        v = u[:, _COL_OA]
        is_gold = v < plan.gold_edge[primary]
        is_bronze = ~is_gold & (v < plan.bronze_edge[primary])
        is_green = ~is_gold & ~is_bronze & (v < plan.green_edge[primary])
        wants_second = u[:, _COL_MULTI_STATUS] < spec.multi_status_rate
        second_sel = u[:, _COL_SECOND_STATUS]

        signs = u[:, _N_FIXED_COLS:] < plan.sign_prob[:, primary].T

        for i in range(m):
            p = int(primary[i])
            cat_idx = [p]
            if is_multi_cat[i]:
                cat_idx += _pick_extras(p, int(cand_1[i]), int(cand_2[i]),
                                        int(n_extras[i]), n_fields)
            categories = tuple(plan.categories[j] for j in cat_idx)

            statuses: list[OAStatus] = []
            if is_gold[i]:
                statuses.append(OAStatus.GOLD)
            elif is_bronze[i]:
                statuses.append(OAStatus.BRONZE)
            elif is_green[i]:
                statuses.append(OAStatus.GREEN)
            if statuses and wants_second[i]:
                # The added status is strictly lower priority, so the
                # resolved status of the record is unchanged.
                if statuses[0] is OAStatus.GOLD:
                    statuses.append(OAStatus.BRONZE if second_sel[i] < 0.5
                                    else OAStatus.GREEN)
                elif statuses[0] is OAStatus.BRONZE:
                    statuses.append(OAStatus.GREEN)

            yield PublicationRecord(
                id=f"r{start + i:08d}",
                year=int(plan.years[year_idx[i]]),
                doc_type=DocType(plan.doc_types[doc_idx[i]]),
                raw_statuses=frozenset(statuses),
                subject_categories=categories,
                has_doi=bool(has_doi[i]),
                countries=frozenset([aid for k, aid in country_ids if signs[i, k]]),
                institutions=frozenset([aid for k, aid in inst_ids if signs[i, k]]),
            )


def generate(spec: SynthSpec, out_path: str) -> int:
    """Write the corpus for ``spec`` to ``out_path``; return record count."""
    return write_corpus(iter_records(spec), out_path)


def write_spec_registry(spec: SynthSpec, path: str) -> None:
    """Emit the classification registry implied by the spec's fields."""
    import csv

    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REGISTRY_COLUMNS)
            for f in spec.fields:
                writer.writerow(
                    [f.subject_category, f.ost_discipline, f.erc_subfield]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write registry {path}: {exc}") from exc


def write_spec_actors(spec: SynthSpec, path: str) -> None:
    """Emit the actor registry implied by the spec's actors."""
    import csv

    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ACTOR_COLUMNS)
            for a in spec.actors:
                writer.writerow([a.id, a.kind.value, "", a.id])
    except OSError as exc:
        raise IoFailure(f"cannot write actors {path}: {exc}") from exc


def world_spec(seed: int, n_records: int,
               fields: Sequence[FieldDef] | None = None) -> SynthSpec:
    """A small mixed-field spec used by tests and demos.

    Field OA propensities are deliberately spread out so normalized
    shares differ from raw shares, and a handful of countries with
    skewed specializations make ranking non-trivial.
    """
    if fields is None:
        fields = (
            FieldDef("Astronomy & Astrophysics",
                     "Earth sciences - Astronomy - Astrophysics", "PE9"),
            FieldDef("Cell Biology", "Fundamental biology", "LS3"),
            FieldDef("Clinical Neurology", "Medical research", "LS5"),
            FieldDef("Computer Science, Artificial Intelligence",
                     "Computer science", "PE6"),
            FieldDef("Economics", "Social sciences", "SH1"),
            FieldDef("Engineering, Chemical", "Engineering", "PE8"),
            FieldDef("History", "Humanities", "SH6"),
            FieldDef("Materials Science, Multidisciplinary", "Physics", "PE5"),
            FieldDef("Mathematics", "Mathematics", "PE1"),
            FieldDef("Sociology", "Social sciences", "SH3"),
        )
    fields = tuple(fields)
    profiles = {}
    for j, f in enumerate(fields):
        # Spread propensities across fields: total OA from ~15% to ~75%.
        gold = 0.05 + 0.04 * (j % 5)
        bronze = 0.04 + 0.02 * (j % 3)
        green = 0.06 + 0.05 * (j % 4)
        profiles[f.subject_category] = OAProfile(gold, bronze, green)

    cats = [f.subject_category for f in fields]
    n_actors = 8
    actors = []
    share = n_records / (n_actors + 2) if n_records else 0.0
    for a in range(n_actors):
        # Each country concentrates on three adjacent fields.
        focus = [cats[(a + k) % len(cats)] for k in range(3)]
        spec_weights = {focus[0]: 0.5, focus[1]: 0.3, focus[2]: 0.2}
        actors.append(SynthActor(
            id=f"C{a:02d}",
            kind=ActorKind.COUNTRY,
            volume=share * (1.0 + 0.15 * a),
            specialization=spec_weights,
        ))
    return SynthSpec(
        seed=seed,
        n_records=n_records,
        years=(2015, 2019),
        fields=fields,
        oa_profiles=profiles,
        actors=tuple(actors),
        multi_category_rate=0.3,
        multi_status_rate=0.25,
        has_doi_rate=0.95,
    )
