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

import csv
import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, IoFailure
from .ingest import ACTOR_COLUMNS, REGISTRY_COLUMNS
from .model import ActorKind, DocType

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


_RATES = ("multi_category_rate", "multi_status_rate", "has_doi_rate")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidSpec(message)


def _is_number(value: object) -> bool:
    """Whether ``value`` is a JSON number that a float can hold."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, float) or abs(value) <= sys.float_info.max))


def _number_map(value: object, message: str) -> dict[str, float]:
    """``value`` as a map of floats, if it is an object of numbers."""
    _require(isinstance(value, dict) and all(map(_is_number, value.values())),
             message)
    assert isinstance(value, dict)
    return {key: float(w) for key, w in value.items()}


def validate_spec(spec: SynthSpec) -> None:
    """Raise InvalidSpec unless ``spec`` is internally consistent; this is
    the one range check, for specs read from JSON and built in Python."""
    # Philox takes a key below 2**128; numpy draws the years as int64.
    _require(0 <= spec.seed < 2**128, "seed must be an integer in [0, 2**128)")
    _require(spec.n_records >= 0, "n_records must be non-negative")
    lo, hi = spec.years
    _require(-2**31 <= lo <= hi < 2**31,
             f"years must satisfy -2**31 <= start <= end < 2**31, got {lo}:{hi}")
    _require(spec.n_records == 0 or len(spec.fields) > 0,
             "at least one field is required to generate records")

    cats = spec.categories()
    _require(len(set(cats)) == len(cats), "duplicate subject category in fields")
    for cat in cats:
        _require(cat in spec.oa_profiles, f"missing OA profile for {cat!r}")
    for cat, prof in spec.oa_profiles.items():
        _require(cat in cats, f"OA profile for unknown category {cat!r}")
        for name, p in dataclasses.asdict(prof).items():
            _require(0.0 <= p <= 1.0,
                     f"{cat!r}: {name} propensity must be in [0, 1], got {p}")
        _require(prof.total <= 1.0 + 1e-12,
                 f"{cat!r}: OA propensities sum to {prof.total}, above 1")

    seen_ids: set[str] = set()
    for actor in spec.actors:
        _require(bool(actor.id), "actor id must be non-empty")
        _require(actor.id not in seen_ids, f"duplicate actor id {actor.id!r}")
        seen_ids.add(actor.id)
        _require(0.0 <= actor.volume < math.inf,
                 f"actor {actor.id!r}: volume must be finite and non-negative")
        weight_sum = 0.0
        for cat, w in actor.specialization.items():
            _require(cat in cats,
                     f"actor {actor.id!r}: unknown category {cat!r}")
            _require(0.0 <= w < math.inf,
                     f"actor {actor.id!r}: weight for {cat!r} must be finite, >= 0")
            weight_sum += w
        if actor.volume > 0.0:
            _require(math.isclose(weight_sum, 1.0, abs_tol=1e-9),
                     f"actor {actor.id!r}: specialization weights sum to "
                     f"{weight_sum}, expected 1")

    for name in _RATES:
        rate = getattr(spec, name)
        _require(0.0 <= rate <= 1.0, f"{name} must be in [0, 1], got {rate}")

    weight_total = 0.0
    for name, w in spec.doc_type_weights.items():
        _require(name in {d.value for d in DocType},
                 f"unknown doc type {name!r} in doc_type_weights")
        _require(0.0 <= w < math.inf, f"doc type weight for {name!r} must be finite, >= 0")
        weight_total += w
    _require(weight_total > 0.0, "doc_type_weights must not sum to zero")


def spec_from_dict(obj: object) -> SynthSpec:
    """Build and validate a SynthSpec from parsed JSON.

    This checks shapes and types; validate_spec checks every range.  An
    absent optional key takes SynthSpec's default.
    """
    _require(isinstance(obj, dict), "spec must be a JSON object")
    assert isinstance(obj, dict)
    spec_fields = dataclasses.fields(SynthSpec)
    for key in obj:
        _require(key in {f.name for f in spec_fields}, f"unknown spec key {key!r}")
    for f in spec_fields:
        has_default = (f.default is not dataclasses.MISSING
                       or f.default_factory is not dataclasses.MISSING)
        _require(f.name in obj or has_default, f"missing spec key {f.name!r}")

    kwargs = dict(obj)
    for key in ("seed", "n_records"):
        _require(isinstance(obj[key], int) and not isinstance(obj[key], bool),
                 f"{key} must be an integer")
    years = obj["years"]
    _require(isinstance(years, list) and len(years) == 2
             and all(isinstance(y, int) and not isinstance(y, bool)
                     for y in years),
             "years must be a two-integer list [start, end]")
    kwargs["years"] = tuple(years)

    _require(isinstance(obj["fields"], list), "fields must be a list")
    keys = [f.name for f in dataclasses.fields(FieldDef)]
    for entry in obj["fields"]:
        _require(isinstance(entry, dict), "each field must be an object")
        for key in keys:
            _require(isinstance(entry.get(key), str) and entry[key] != "",
                     f"field entry needs non-empty string {key!r}")
    kwargs["fields"] = tuple(FieldDef(*(entry[key] for key in keys))
                             for entry in obj["fields"])

    _require(isinstance(obj["oa_profiles"], dict), "oa_profiles must be an object")
    statuses = [f.name for f in dataclasses.fields(OAProfile)]
    profiles = {}
    for cat, prof in obj["oa_profiles"].items():
        rates = _number_map(prof, f"profile for {cat!r} must map statuses to numbers")
        for key in rates:
            _require(key in statuses, f"profile for {cat!r}: unknown key {key!r}")
        profiles[cat] = OAProfile(*(rates.get(key, 0.0) for key in statuses))
    kwargs["oa_profiles"] = profiles

    if "actors" in obj:
        _require(isinstance(obj["actors"], list), "actors must be a list")
        actors = []
        for entry in obj["actors"]:
            _require(isinstance(entry, dict), "each actor must be an object")
            for f in dataclasses.fields(SynthActor):
                _require(f.name in entry, f"actor entry needs key {f.name!r}")
            aid, kind, volume = entry["id"], entry["kind"], entry["volume"]
            _require(isinstance(aid, str), "actor id must be a string")
            _require(kind in [k.value for k in ActorKind],
                     f"actor {aid!r}: unknown kind {kind!r}")
            _require(_is_number(volume), f"actor {aid!r}: volume must be a number")
            weights = _number_map(entry["specialization"], f"actor {aid!r}: "
                                  "specialization must map categories to numbers")
            actors.append(SynthActor(aid, ActorKind(kind), float(volume), weights))
        kwargs["actors"] = tuple(actors)

    for key in _RATES:
        if key in obj:
            _require(_is_number(obj[key]), f"{key} must be a number")
            kwargs[key] = float(obj[key])
    if "doc_type_weights" in obj:
        kwargs["doc_type_weights"] = _number_map(
            obj["doc_type_weights"], "doc_type_weights must map doc types to numbers")

    spec = SynthSpec(**kwargs)
    validate_spec(spec)
    return spec


def load_synth_spec(path: str) -> SynthSpec:
    """Parse and validate a spec file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read spec {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"spec {path} is not UTF-8 ({exc.reason})") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InvalidSpec(f"spec {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InvalidSpec(f"spec {path} nests too deeply to parse") from None
    return spec_from_dict(obj)


class _SamplingPlan:
    """Arrays and JSON fragments precomputed from a spec, shared by all chunks.

    Only a spec with records has a plan, and so at least one field.
    """

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.n_fields = n_fields = len(spec.fields)
        categories = spec.categories()
        self.n_years = spec.years[1] - spec.years[0] + 1

        order = [d.value for d in DocType]
        weights = np.array(
            [spec.doc_type_weights.get(name, 0.0) for name in order]
        )
        self.doc_cum = np.cumsum(weights / weights.sum())
        self.doc_cum[-1] = 1.0

        profiles = [spec.oa_profiles[c] for c in categories]
        self.gold_edge = np.array([p.gold for p in profiles])
        self.bronze_edge = np.array([p.gold + p.bronze for p in profiles])
        self.green_edge = np.array([p.total for p in profiles])

        # q[i, j] = volume_i * specialization_i(field j).
        column = {cat: j for j, cat in enumerate(categories)}
        q = np.zeros((len(spec.actors), n_fields))
        for i, actor in enumerate(spec.actors):
            for cat, w in actor.specialization.items():
                q[i, column[cat]] = actor.volume * w

        # Primary-field mixture: volume-weighted blend of actor profiles,
        # uniform when nothing is declared.  Summed actor by actor, in spec
        # order: a pairwise sum could change last bits, and so the draws.
        mix = np.zeros(n_fields)
        for row in q:
            mix += row
        if mix.sum() <= 0.0:
            mix = np.ones(n_fields)
        field_dist = mix / mix.sum()
        self.field_cum = np.cumsum(field_dist)
        self.field_cum[-1] = 1.0

        # Signing probability per (actor, field), clipped to [0, 1]:
        # q / (n_records * field_dist), which makes each actor's expected
        # record count equal its volume.  A field never drawn gets 0.
        sign_prob = np.zeros_like(q)
        np.divide(q, spec.n_records * field_dist, out=sign_prob,
                  where=field_dist > 0.0)
        np.minimum(sign_prob, 1.0, out=sign_prob)

        # Per actor kind, the actors in id order: their sign-matrix columns,
        # their probabilities as field rows, and their ids as JSON strings.
        # A row's signers then come out of np.nonzero already sorted.
        self.signers = []
        for kind in (ActorKind.COUNTRY, ActorKind.INSTITUTION):
            members = sorted((a.id, i) for i, a in enumerate(spec.actors)
                             if a.kind is kind)
            rows = np.array([i for _, i in members], dtype=np.int64)
            self.signers.append((
                _N_FIXED_COLS + rows,
                np.ascontiguousarray(sign_prob[rows].T),
                _fragments(aid for aid, _ in members),
            ))

        self.n_cols = _N_FIXED_COLS + len(spec.actors)
        self.doc_types = _fragments(order)
        self.categories = _fragments(categories)
        self.more_categories = "," + self.categories


def _fragments(values: Iterable) -> np.ndarray:
    """Each value's JSON text, in an object array to index by code arrays."""
    return np.array([json.dumps(v, separators=(",", ":")) for v in values],
                    dtype=object)


# The `oa` list of a record by status code.  A second status is always of
# lower priority, so each list is in priority order.
_OA_LISTS = np.array(['[]', '["gold"]', '["gold","bronze"]', '["gold","green"]',
                      '["bronze"]', '["bronze","green"]', '["green"]'], dtype=object)
_DOI = np.array(["false", "true"], dtype=object)

# The fixed key order of a corpus line, as `ingest` documents it.
_LINE = ('{"id":"r%08d","year":%d,"doc_type":%s,"oa":%s,"categories":[%s],'
         '"doi":%s,"countries":[%s],"institutions":[%s]}\n')


def _probe(idx: np.ndarray, taken: tuple[np.ndarray, ...],
           n_fields: int) -> np.ndarray:
    """Step each candidate index linearly past the indices taken in its row,
    so the result is deterministic in the candidates alone.  A run of taken
    indices is at most ``len(taken)`` long, so that many steps suffice."""
    for _ in taken:
        hit = np.logical_or.reduce([idx == t for t in taken])
        idx = np.where(hit, (idx + 1) % n_fields, idx)
    return idx


def _signer_lists(signs: np.ndarray, ids: np.ndarray) -> list[str]:
    """The comma-joined JSON ids of each row's signers, "" for none."""
    rows, cols = np.nonzero(signs)
    out = [""] * len(signs)
    if rows.size:
        names = ids[cols].tolist()
        present, first = np.unique(rows, return_index=True)
        bounds = first.tolist() + [rows.size]
        for k, row in enumerate(present.tolist()):
            out[row] = ",".join(names[bounds[k]:bounds[k + 1]])
    return out


def _chunk_text(plan: _SamplingPlan, start: int) -> str:
    """The JSON lines of the chunk of records from ``start`` on."""
    spec = plan.spec
    n_fields = plan.n_fields
    m = min(CHUNK, spec.n_records - start)
    stream = np.random.Generator(
        np.random.Philox(key=spec.seed, counter=[0, 0, 0, start // CHUNK])
    )
    u = stream.random((m, plan.n_cols))

    year_idx = np.minimum((u[:, _COL_YEAR] * plan.n_years).astype(np.int64),
                          plan.n_years - 1)
    doc_idx = np.minimum(
        np.searchsorted(plan.doc_cum, u[:, _COL_DOC_TYPE], side="right"),
        len(plan.doc_types) - 1,
    )
    has_doi = u[:, _COL_DOI] < spec.has_doi_rate
    primary = np.minimum(
        np.searchsorted(plan.field_cum, u[:, _COL_PRIMARY], side="right"),
        n_fields - 1,
    )

    # Categories: the primary, then up to two distinct extras.
    is_multi = u[:, _COL_MULTI_CAT] < spec.multi_category_rate
    n_extras = np.where(u[:, _COL_EXTRA_COUNT] < 0.5, 1, 2)
    n_extras = np.where(is_multi, np.minimum(n_extras, n_fields - 1), 0)
    cand_1, cand_2 = (
        np.minimum((u[:, col] * n_fields).astype(np.int64), n_fields - 1)
        for col in (_COL_EXTRA_1, _COL_EXTRA_2)
    )
    extra_1 = _probe(cand_1, (primary,), n_fields)
    extra_2 = _probe(cand_2, (primary, extra_1), n_fields)
    one, two = n_extras >= 1, n_extras >= 2
    categories = plan.categories[primary]
    categories[one] += plan.more_categories[extra_1[one]]
    categories[two] += plan.more_categories[extra_2[two]]

    # OA status code, indexing _OA_LISTS.
    v = u[:, _COL_OA]
    is_gold = v < plan.gold_edge[primary]
    is_bronze = ~is_gold & (v < plan.bronze_edge[primary])
    is_green = ~is_gold & ~is_bronze & (v < plan.green_edge[primary])
    second = u[:, _COL_MULTI_STATUS] < spec.multi_status_rate
    status = np.where(is_gold, np.where(
        second, np.where(u[:, _COL_SECOND_STATUS] < 0.5, 2, 3), 1), 0)
    status = np.where(is_bronze, np.where(second, 5, 4), status)
    status = np.where(is_green, 6, status)

    countries, institutions = (
        _signer_lists(u.take(cols, axis=1) < prob[primary], ids)
        for cols, prob, ids in plan.signers
    )
    return "".join(map(_LINE.__mod__, zip(
        range(start, start + m),
        (spec.years[0] + year_idx).tolist(),
        plan.doc_types[doc_idx].tolist(),
        _OA_LISTS[status].tolist(),
        categories.tolist(),
        _DOI[has_doi.view(np.int8)].tolist(),
        countries,
        institutions,
    )))


def generate(spec: SynthSpec, out_path: str) -> int:
    """Write the corpus for ``spec`` to ``out_path``, deterministically in
    ``spec.seed``; return the record count.

    Each chunk of records is drawn as one uniform matrix, turned into its
    JSON lines with array operations and one format per record, and
    written at once.
    """
    validate_spec(spec)
    try:
        out = open(out_path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoFailure(f"cannot write corpus {out_path}: {exc}") from exc
    with out:
        if spec.n_records == 0:
            return 0
        plan = _SamplingPlan(spec)
        for start in range(0, spec.n_records, CHUNK):
            out.write(_chunk_text(plan, start))
    return spec.n_records


def _write_csv(path: str, what: str, header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc


def write_spec_registry(spec: SynthSpec, path: str) -> None:
    """Emit the classification registry implied by the spec's fields."""
    _write_csv(path, "registry", REGISTRY_COLUMNS,
               ([f.subject_category, f.ost_discipline, f.erc_subfield]
                for f in spec.fields))


def write_spec_actors(spec: SynthSpec, path: str) -> None:
    """Emit the actor registry implied by the spec's actors."""
    _write_csv(path, "actors", ACTOR_COLUMNS,
               ([a.id, a.kind.value, "", a.id] for a in spec.actors))


def world_spec(seed: int, n_records: int) -> SynthSpec:
    """A small mixed-field spec used by tests and demos.

    Field OA propensities are deliberately spread out so normalized
    shares differ from raw shares, and a handful of countries with
    skewed specializations make ranking non-trivial.
    """
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
