"""Generator determinism, spec validation and statistical convergence."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_corpus, write_corpus
from noai.errors import InvalidSpec, IoFailure
from noai.ingest import load_actor_registry, load_registry
from noai.model import ERC_SUBFIELDS, OST_DISCIPLINES, ActorKind, OAStatus
from noai.synth import (
    CHUNK,
    FieldDef,
    OAProfile,
    SynthActor,
    SynthSpec,
    _signer_lists,
    generate,
    load_synth_spec,
    spec_from_dict,
    validate_spec,
    world_spec,
    write_spec_actors,
    write_spec_registry,
)
from oracle import resolve

DEMO_SPEC = Path(__file__).resolve().parents[1] / "data" / "synth_demo.json"
DEMO_OBJ = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))

#: Any value json.load can return, integers past the float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(-2**1100, 2**1100),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def json_paths(obj, path=()):
    """The path to ``obj`` and to every value nested in it."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


DEMO_PATHS = list(json_paths(DEMO_OBJ))


def replaced(obj, path, value):
    """A copy of ``obj`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj

FIELDS3 = (
    FieldDef("Mathematics", "Mathematics", "PE1"),
    FieldDef("Cell Biology", "Fundamental biology", "LS3"),
    FieldDef("History", "Humanities", "SH6"),
)

PROFILES3 = {
    "Mathematics": OAProfile(0.10, 0.05, 0.20),
    "Cell Biology": OAProfile(0.40, 0.10, 0.20),
    "History": OAProfile(0.02, 0.02, 0.02),
}


def small_spec(**overrides) -> SynthSpec:
    kwargs = dict(
        seed=1, n_records=500, years=(2015, 2017),
        fields=FIELDS3, oa_profiles=PROFILES3,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def generated(spec: SynthSpec, tmp_path, name: str = "corpus.jsonl") -> list:
    """The records `generate` writes for ``spec``, read back from its file."""
    path = tmp_path / name
    generate(spec, str(path))
    return load_corpus(path)[0]


def spec_obj(**overrides) -> dict:
    obj = {
        "seed": 1, "n_records": 100, "years": [2015, 2017],
        "fields": [
            {"subject_category": f.subject_category,
             "ost_discipline": f.ost_discipline,
             "erc_subfield": f.erc_subfield}
            for f in FIELDS3
        ],
        "oa_profiles": {
            c: {"gold": p.gold, "bronze": p.bronze, "green": p.green}
            for c, p in PROFILES3.items()
        },
    }
    obj.update(overrides)
    return obj


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = small_spec()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert generate(spec, str(p1)) == 500
        assert generate(spec, str(p2)) == 500
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_corpus(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        generate(small_spec(seed=1), str(p1))
        generate(small_spec(seed=2), str(p2))
        assert p1.read_bytes() != p2.read_bytes()

    def test_chunked_draws_are_prefix_stable(self, tmp_path):
        # Records draw from per-chunk counter streams, so with no actors
        # (whose signing odds depend on n) a longer run extends a shorter
        # one without disturbing it.
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        generate(small_spec(n_records=CHUNK), str(short))
        generate(small_spec(n_records=CHUNK + 100), str(long))
        assert long.read_bytes().splitlines()[:CHUNK] == short.read_bytes().splitlines()

    def test_added_statuses_never_change_resolution(self, tmp_path):
        # Regenerating with the multi-status channel off flips dedicated
        # draw columns only: the same records come out, minus the extra
        # lower-priority statuses.
        noisy = generated(small_spec(multi_status_rate=0.5), tmp_path, "noisy.jsonl")
        clean = generated(small_spec(multi_status_rate=0.0), tmp_path, "clean.jsonl")
        pairs = list(zip(noisy, clean))
        assert any(len(a.raw_statuses) == 2 for a, _ in pairs)
        for a, b in pairs:
            assert b.raw_statuses <= a.raw_statuses
            assert resolve(a) == resolve(b)

    def test_extra_categories_never_change_primary(self, tmp_path):
        multi = generated(small_spec(multi_category_rate=0.5), tmp_path, "multi.jsonl")
        single = generated(small_spec(multi_category_rate=0.0), tmp_path, "single.jsonl")
        assert any(len(r.subject_categories) > 1 for r in multi)
        for a, b in zip(multi, single):
            assert a.subject_categories[0] == b.subject_categories[0]
            assert len(b.subject_categories) == 1
            assert len(set(a.subject_categories)) == len(a.subject_categories)


class TestSpecValidation:
    def test_round_trip_through_json(self):
        spec = world_spec(seed=9, n_records=1000)
        assert spec_from_dict(json.loads(json.dumps(dataclasses.asdict(spec)))) == spec

    def test_demo_spec_is_the_world_spec_as_written(self):
        # scripts/demo_pipeline.py writes its spec with this expression.
        text = json.dumps(dataclasses.asdict(world_spec(11, 20_000)), indent=2) + "\n"
        assert text.encode("utf-8") == DEMO_SPEC.read_bytes()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_obj()), encoding="utf-8")
        spec = load_synth_spec(str(path))
        assert spec.n_records == 100
        assert spec.fields == FIELDS3

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_synth_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(InvalidSpec):
            load_synth_spec(str(path))

    @pytest.mark.parametrize("mutate, message", [
        (lambda o: o.pop("seed"), "missing spec key 'seed'"),
        (lambda o: o.pop("fields"), "missing spec key 'fields'"),
        (lambda o: o.update(seed="abc"), "seed must be an integer"),
        (lambda o: o.update(seed=2**128), "seed must be an integer in [0, 2**128)"),
        (lambda o: o.update(years=[2015, 2**63]),
         "years must satisfy -2**31 <= start <= end < 2**31, got 2015:9223372036854775808"),
        (lambda o: o.update(years=[2019, 2015]),
         "years must satisfy -2**31 <= start <= end < 2**31, got 2019:2015"),
        (lambda o: o.update(years=[2015]), "years must be a two-integer list [start, end]"),
        (lambda o: o.update(n_records=-1), "n_records must be non-negative"),
        (lambda o: o.update(multi_category_rate=1.5),
         "multi_category_rate must be in [0, 1], got 1.5"),
        (lambda o: o.update(multi_status_rate=-0.1),
         "multi_status_rate must be in [0, 1], got -0.1"),
        (lambda o: o.update(has_doi_rate=2), "has_doi_rate must be in [0, 1], got 2.0"),
        (lambda o: o.update(has_doi_rate=None), "has_doi_rate must be a number"),
        (lambda o: o.update(has_doi_rate=10**400), "has_doi_rate must be a number"),
        (lambda o: o.update(unknown_key=1), "unknown spec key 'unknown_key'"),
        (lambda o: o.update(doc_type_weights={"thesis": 1.0}),
         "unknown doc type 'thesis' in doc_type_weights"),
        (lambda o: o.update(doc_type_weights={"article": 0.0}),
         "doc_type_weights must not sum to zero"),
        (lambda o: o.update(doc_type_weights={"article": float("inf")}),
         "doc type weight for 'article' must be finite, >= 0"),
        (lambda o: o.update(doc_type_weights=None),
         "doc_type_weights must map doc types to numbers"),
        (lambda o: o.update(doc_type_weights={"article": 1e308, "review": 1e308}),
         "doc_type_weights must have a finite sum"),
        (lambda o: o["fields"][0].update(colour="red"), "field entry: unknown key 'colour'"),
        (lambda o: o["fields"].append(o["fields"][0]), "duplicate subject category in fields"),
        (lambda o: o["oa_profiles"].update(Palmistry={"gold": 0.1}),
         "OA profile for unknown category 'Palmistry'"),
        (lambda o: o["oa_profiles"]["Mathematics"].update(gold=0.9, green=0.9),
         "'Mathematics': OA propensities sum to 1.85, above 1"),
        (lambda o: o["oa_profiles"]["Mathematics"].update(silver=0.1),
         "profile for 'Mathematics': unknown key 'silver'"),
        (lambda o: o["oa_profiles"]["Mathematics"].update(gold="0.1"),
         "profile for 'Mathematics' must map statuses to numbers"),
        (lambda o: o["oa_profiles"]["Mathematics"].update(gold=1.2),
         "'Mathematics': gold propensity must be in [0, 1], got 1.2"),
        (lambda o: o["oa_profiles"].pop("Mathematics"), "missing OA profile for 'Mathematics'"),
    ])
    def test_bad_specs_rejected(self, mutate, message):
        obj = spec_obj()
        mutate(obj)
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            spec_from_dict(obj)

    @pytest.mark.parametrize("actor, message", [
        ({"id": "", "kind": "country", "volume": 10, "specialization": {"Mathematics": 1.0}},
         "actor id must be non-empty"),
        ({"id": "A", "kind": "planet", "volume": 10, "specialization": {"Mathematics": 1.0}},
         "actor 'A': unknown kind 'planet'"),
        ({"id": "A", "kind": "country", "volume": -1, "specialization": {"Mathematics": 1.0}},
         "actor 'A': volume must be finite and non-negative"),
        ({"id": "A", "kind": "country", "volume": float("inf"),
          "specialization": {"Mathematics": 1.0}},
         "actor 'A': volume must be finite and non-negative"),
        ({"id": "A", "kind": "country", "volume": 10**400,
          "specialization": {"Mathematics": 1.0}},
         "actor 'A': volume must be a number"),
        ({"id": "A", "kind": ["country"], "volume": 10,
          "specialization": {"Mathematics": 1.0}},
         "actor 'A': unknown kind ['country']"),
        ({"id": "A", "kind": "country", "volume": 0,
          "specialization": {"Mathematics": float("inf")}},
         "actor 'A': weight for 'Mathematics' must be finite, >= 0"),
        ({"id": "A", "kind": "country", "volume": 10, "specialization": {"Palmistry": 1.0}},
         "actor 'A': unknown category 'Palmistry'"),
        ({"id": "A", "kind": "country", "volume": 10, "specialization": {"Mathematics": 0.5}},
         "actor 'A': specialization weights sum to 0.5, expected 1"),
        ({"id": "A", "kind": "country", "volume": 10,
          "specialization": {"Mathematics": 0.7, "History": -0.3}},
         "actor 'A': weight for 'History' must be finite, >= 0"),
        ({"id": "A", "kind": "country", "volume": 10, "specialization": {"Mathematics": 1.0},
          "colour": "red"},
         "actor 'A': unknown key 'colour'"),
    ])
    def test_bad_actors_rejected(self, actor, message):
        obj = spec_obj(actors=[actor])
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            spec_from_dict(obj)

    def test_actor_volumes_with_an_infinite_sum_rejected(self):
        obj = spec_obj(actors=[
            {"id": aid, "kind": "country", "volume": 1e308,
             "specialization": {"Mathematics": 1.0}} for aid in ("A", "B")])
        with pytest.raises(InvalidSpec, match=re.escape("actor volumes must have a finite sum")):
            spec_from_dict(obj)

    @pytest.mark.parametrize("overrides, message", [
        (dict(multi_category_rate=1.5), "multi_category_rate must be in [0, 1], got 1.5"),
        (dict(has_doi_rate=float("nan")), "has_doi_rate must be in [0, 1], got nan"),
        (dict(oa_profiles={**PROFILES3, "Mathematics": OAProfile(1.2, 0, 0)}),
         "'Mathematics': gold propensity must be in [0, 1], got 1.2"),
        (dict(actors=(SynthActor("A", ActorKind.COUNTRY, -1.0, {"Mathematics": 1.0}),)),
         "actor 'A': volume must be finite and non-negative"),
        (dict(doc_type_weights={"article": float("nan")}),
         "doc type weight for 'article' must be finite, >= 0"),
    ])
    def test_bad_python_specs_rejected_before_writing(self, tmp_path, overrides, message):
        # validate_spec is the only range check, and generate runs it.
        path = tmp_path / "corpus.jsonl"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            generate(small_spec(**overrides), str(path))
        assert not path.exists()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(DEMO_PATHS), JSON_VALUES)
    def test_any_one_replaced_value_is_accepted_or_rejected(self, tmp_path, path, value):
        # A spec with one value swapped for arbitrary JSON either generates
        # or raises InvalidSpec; no other exception escapes.
        try:
            spec = spec_from_dict(replaced(DEMO_OBJ, path, value))
        except InvalidSpec:
            return
        small = dataclasses.replace(spec, n_records=min(spec.n_records, 50))
        assert generate(small, str(tmp_path / "corpus.jsonl")) == small.n_records

    def test_duplicate_actor_id_rejected(self):
        actor = {"id": "A", "kind": "country", "volume": 10,
                 "specialization": {"Mathematics": 1.0}}
        obj = spec_obj(actors=[actor, dict(actor)])
        with pytest.raises(InvalidSpec):
            spec_from_dict(obj)

    def test_zero_volume_actor_allowed_without_weights(self, tmp_path):
        obj = spec_obj(actors=[
            {"id": "A", "kind": "country", "volume": 0, "specialization": {}}
        ])
        spec = spec_from_dict(obj)
        records = generated(spec, tmp_path)
        assert all("A" not in r.countries for r in records)


class CountedName(str):
    """A category name that counts the equality tests made on any such name."""

    eq_calls = 0

    def __eq__(self, other):
        CountedName.eq_calls += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def counted_names_spec(n_fields: int, n_actors: int) -> SynthSpec:
    """A spec whose every mention of a category is its own CountedName, so
    that no lookup can pass on identity alone; five entries per actor."""
    names = [f"Category {j:04d}" for j in range(n_fields)]
    fields = tuple(FieldDef(CountedName(n), "Mathematics", "PE1") for n in names)
    profiles = {CountedName(n): OAProfile(0.1, 0.1, 0.1) for n in names}
    actors = tuple(
        SynthActor(f"A{a}", ActorKind.INSTITUTION, 10.0,
                   {CountedName(names[(a + k) % n_fields]): 0.2 for k in range(5)})
        for a in range(n_actors))
    return SynthSpec(seed=1, n_records=100, years=(2015, 2015), fields=fields,
                     oa_profiles=profiles, actors=actors)


def _with_profiles(first, second) -> dict:
    """PROFILES3 with two (category, profile) pairs put first, in that order."""
    profiles = dict((first, second))
    return {**profiles, **{c: p for c, p in PROFILES3.items() if c not in profiles}}


#: Per-entry checks of validate_spec: a spec with two bad entries, named by
#: their categories in spec order, and the message that names the first.
TWO_BAD_ENTRIES = {
    "unknown profile category": (
        ("Palmistry", "Alchemy"),
        lambda a, b: small_spec(oa_profiles=_with_profiles(
            (a, OAProfile(0.1, 0.1, 0.1)), (b, OAProfile(0.1, 0.1, 0.1)))),
        "OA profile for unknown category {!r}"),
    "propensity range": (
        ("History", "Cell Biology"),
        lambda a, b: small_spec(oa_profiles=_with_profiles(
            (a, OAProfile(0.1, 1.5, 0.1)), (b, OAProfile(0.1, 1.5, 0.1)))),
        "{!r}: bronze propensity must be in [0, 1], got 1.5"),
    "propensity sum": (
        ("History", "Cell Biology"),
        lambda a, b: small_spec(oa_profiles=_with_profiles(
            (a, OAProfile(0.5, 0.4, 0.3)), (b, OAProfile(0.5, 0.4, 0.3)))),
        "{!r}: OA propensities sum to"),
    "unknown specialization category": (
        ("Palmistry", "Alchemy"),
        lambda a, b: small_spec(actors=(
            SynthActor("A", ActorKind.COUNTRY, 10.0, {"Mathematics": 1.0}),
            SynthActor("B", ActorKind.COUNTRY, 10.0, {a: 0.5, b: 0.5}))),
        "actor 'B': unknown category {!r}"),
    "weight range": (
        ("History", "Cell Biology"),
        lambda a, b: small_spec(actors=(SynthActor(
            "A", ActorKind.COUNTRY, 10.0, {"Mathematics": 2.0, a: -0.5, b: -0.5}),)),
        "actor 'A': weight for {!r} must be finite, >= 0"),
}


class TestValidationOrderAndCost:
    @pytest.mark.parametrize("check", sorted(TWO_BAD_ENTRIES))
    @pytest.mark.parametrize("swap", [False, True])
    def test_first_bad_entry_in_spec_order_is_named(self, check, swap):
        (first, second), make_spec, message = TWO_BAD_ENTRIES[check]
        if swap:
            first, second = second, first
        with pytest.raises(InvalidSpec, match=re.escape(message.format(first))):
            validate_spec(make_spec(first, second))

    @pytest.mark.parametrize("n_fields, n_actors", [(200, 100), (800, 400)])
    def test_category_comparisons_are_linear(self, n_fields, n_actors):
        # One comparison per lookup gives 2 * n_fields + entries: 900 and
        # 3,600 here. A tuple scan per lookup made 46,550 and 726,200.
        spec = counted_names_spec(n_fields, n_actors)
        entries = 5 * n_actors
        CountedName.eq_calls = 0
        validate_spec(spec)
        assert CountedName.eq_calls <= 2 * (n_fields + entries)


def reference_signer_lists(signs: np.ndarray, ids: np.ndarray) -> list[str]:
    return [",".join(ids[np.nonzero(row)[0]]) for row in signs]


class TestSignerLists:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 40), rng.integers(1, 30)
        signs = rng.random((m, n)) < rng.choice([0.02, 0.2, 0.7])
        ids = np.array([f'"I{j}"' for j in range(n)], dtype=object)
        assert _signer_lists(signs, ids) == reference_signer_lists(signs, ids)

    @pytest.mark.parametrize("signs", [
        np.zeros((5, 4), dtype=bool),
        np.zeros((3, 0), dtype=bool),
        np.ones((4, 6), dtype=bool),
        np.array([[False, True, True, False, True, False]]),
        np.array([[False] * 6, [True] + [False] * 5, [False] * 6, [False] * 5 + [True]]),
    ], ids=["no signer", "no columns", "all true", "one row", "empty rows between"])
    def test_edge_matrices_match_the_reference(self, signs):
        ids = np.array([f'"C{j}"' for j in range(signs.shape[1])], dtype=object)
        assert _signer_lists(signs, ids) == reference_signer_lists(signs, ids)


@pytest.mark.parametrize("value", [
    FIELDS3[0], PROFILES3["Mathematics"],
    SynthActor("A", ActorKind.COUNTRY, 1.0, {"Mathematics": 1.0}), small_spec(),
], ids=lambda v: type(v).__name__)
def test_setting_any_attribute_raises_attribute_error(value):
    for name in (dataclasses.fields(value)[0].name, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


class TestOutputs:
    def test_zero_records_is_a_valid_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert generate(small_spec(n_records=0), str(path)) == 0
        records, stats = load_corpus(str(path))
        assert records == [] and stats.records_rejected == 0

    def test_generated_corpus_loads_with_zero_rejections(self, tmp_path):
        spec = world_spec(seed=3, n_records=2000)
        corpus_path = tmp_path / "c.jsonl"
        registry_path = tmp_path / "r.csv"
        actors_path = tmp_path / "a.csv"
        generate(spec, str(corpus_path))
        write_spec_registry(spec, str(registry_path))
        write_spec_actors(spec, str(actors_path))

        registry = load_registry(str(registry_path))
        records, stats = load_corpus(str(corpus_path), registry=registry)
        assert stats.records_read == 2000
        assert stats.records_rejected == 0
        # The built-in specs name canonical disciplines and sub-fields.
        for fields in (spec.fields, load_synth_spec(str(DEMO_SPEC)).fields):
            assert {f.ost_discipline for f in fields} <= set(OST_DISCIPLINES)
            assert {f.erc_subfield for f in fields} <= set(ERC_SUBFIELDS)

        actors = load_actor_registry(str(actors_path))
        assert set(actors) == {a.id for a in spec.actors}
        signed = set().union(*(r.countries for r in records))
        assert signed <= set(actors)

    def test_record_shape(self, tmp_path):
        spec = small_spec(n_records=1000, multi_category_rate=0.4,
                          multi_status_rate=0.3, has_doi_rate=0.5)
        cats = {f.subject_category for f in FIELDS3}
        ids = set()
        for r in generated(spec, tmp_path):
            ids.add(r.id)
            assert 2015 <= r.year <= 2017
            assert set(r.subject_categories) <= cats
            assert len(r.raw_statuses) <= 2
        assert len(ids) == 1000


class TestConvergence:
    def test_per_field_oa_rates_track_profiles(self, tmp_path):
        spec = small_spec(n_records=24_000, multi_category_rate=0.0)
        totals = Counter()
        opens = Counter()
        by_type = {c: Counter() for c in PROFILES3}
        for r in generated(spec, tmp_path):
            cat = r.subject_categories[0]
            totals[cat] += 1
            status = resolve(r)
            if status is not OAStatus.CLOSED:
                opens[cat] += 1
                by_type[cat][status] += 1
        for cat, prof in PROFILES3.items():
            n = totals[cat]
            assert n > 5000
            assert abs(opens[cat] / n - prof.total) < 0.03
            assert abs(by_type[cat][OAStatus.GOLD] / n - prof.gold) < 0.03

    def test_actor_volumes_and_profiles_track_spec(self, tmp_path):
        actors = (
            SynthActor(id="BIG", kind=ActorKind.COUNTRY, volume=6000.0,
                       specialization={"Mathematics": 0.6, "History": 0.4}),
            SynthActor(id="SMALL", kind=ActorKind.COUNTRY, volume=1500.0,
                       specialization={"Cell Biology": 1.0}),
        )
        spec = small_spec(n_records=24_000, actors=actors)
        count = Counter()
        fields_of_big = Counter()
        for r in generated(spec, tmp_path):
            for a in r.countries:
                count[a] += 1
            if "BIG" in r.countries:
                fields_of_big[r.subject_categories[0]] += 1
        assert abs(count["BIG"] - 6000) / 6000 < 0.05
        assert abs(count["SMALL"] - 1500) / 1500 < 0.08
        big_math = fields_of_big["Mathematics"] / count["BIG"]
        assert abs(big_math - 0.6) < 0.05

    def test_doc_type_weights_respected(self, tmp_path):
        spec = small_spec(n_records=12_000,
                          doc_type_weights={"article": 0.5, "review": 0.5})
        seen = Counter(r.doc_type.value for r in generated(spec, tmp_path))
        assert set(seen) == {"article", "review"}
        assert abs(seen["article"] / 12_000 - 0.5) < 0.03


def institution_heavy_spec() -> SynthSpec:
    """400 institutions over 250 categories, about 8 signing each record."""
    fields = tuple(FieldDef(f"Category {j:03d}", f"Discipline {j % 11}",
                            f"Subfield {j % 25}") for j in range(250))
    profiles = {f.subject_category: OAProfile(0.05 + 0.04 * (j % 5),
                                              0.04 + 0.02 * (j % 3),
                                              0.06 + 0.05 * (j % 4))
                for j, f in enumerate(fields)}
    n_records = 3000
    weights = (0.2, 0.15, 0.13, 0.11, 0.1, 0.09, 0.08, 0.06, 0.05, 0.03)
    actors = tuple(
        SynthActor(
            id=f"I{a:03d}", kind=ActorKind.INSTITUTION,
            volume=8.0 * n_records / 400 * (0.5 + (a % 11) / 10.0),
            specialization=dict(zip(
                (fields[(a * 7 + 3 * k) % 250].subject_category
                 for k in range(len(weights))), weights)),
        )
        for a in range(400)
    )
    return SynthSpec(seed=5, n_records=n_records, years=(2015, 2019),
                     fields=fields, oa_profiles=profiles, actors=actors,
                     multi_category_rate=0.6, multi_status_rate=0.25,
                     has_doi_rate=0.95)


def escaped_names_spec() -> SynthSpec:
    """No actors; category names that json.dumps must escape."""
    names = ("Économie", 'Say "when"', "Back\\slash", "数学", "Tab\there",
             "Emoji \U0001f600")
    fields = tuple(FieldDef(n, "Humanities", "SH6") for n in names)
    profiles = {n: OAProfile(0.2, 0.1, 0.3) for n in names}
    return SynthSpec(seed=3, n_records=600, years=(2018, 2018), fields=fields,
                     oa_profiles=profiles, multi_category_rate=0.5,
                     multi_status_rate=0.5, has_doi_rate=0.5,
                     doc_type_weights={"letter": 1.0, "proceeding": 3.0})


def always_multi_category_spec() -> SynthSpec:
    """Every record asks for extra categories among three fields, so
    colliding candidates probe past the primary and each other."""
    actors = (
        SynthActor("FRA", ActorKind.COUNTRY, 200.0,
                   {"Mathematics": 0.5, "History": 0.5}),
        SynthActor("u-1", ActorKind.INSTITUTION, 120.0, {"Cell Biology": 1.0}),
    )
    return small_spec(seed=4, n_records=800, multi_category_rate=1.0,
                      multi_status_rate=0.3, actors=actors)


def chunk_boundary_spec() -> SynthSpec:
    """One chunk and 77 records; actors of both kinds, declared out of id order."""
    actors = (
        SynthActor("b", ActorKind.COUNTRY, 900.0, {"Mathematics": 1.0}),
        SynthActor("Ünï", ActorKind.INSTITUTION, 700.0,
                   {"Cell Biology": 0.7, "History": 0.3}),
        SynthActor("a10", ActorKind.COUNTRY, 1500.0,
                   {"History": 0.2, "Cell Biology": 0.8}),
        SynthActor("A", ActorKind.INSTITUTION, 2500.0,
                   {"Mathematics": 0.4, "History": 0.6}),
        SynthActor("a9", ActorKind.COUNTRY, 3000.0,
                   {"Mathematics": 0.3, "Cell Biology": 0.3, "History": 0.4}),
    )
    return small_spec(seed=6, n_records=CHUNK + 77, years=(2010, 2020),
                      multi_category_rate=0.3, multi_status_rate=0.4,
                      has_doi_rate=0.8, actors=actors)


def one_field_spec() -> SynthSpec:
    """A single field, a zero-volume actor with no specialization at all."""
    field = FieldDef("Mathematics", "Mathematics", "PE1")
    actors = (
        SynthActor("ZERO", ActorKind.COUNTRY, 0.0, {}),
        SynthActor("ONE", ActorKind.INSTITUTION, 150.0, {"Mathematics": 1.0}),
    )
    return SynthSpec(seed=8, n_records=400, years=(2016, 2017), fields=(field,),
                     oa_profiles={"Mathematics": OAProfile(0.3, 0.2, 0.1)},
                     actors=actors, multi_category_rate=1.0,
                     multi_status_rate=0.5)


#: SHA-256 of `generate`'s output for each spec; the bytes are the contract.
GOLDEN = {
    "synth_demo": (lambda: load_synth_spec(str(DEMO_SPEC)),
                   "6577958e5db4014c386e3c5a789f99babc2d18b0eb49e68d1ba0945d849a1b0a"),
    "world_spec_7_10000": (lambda: world_spec(7, 10_000),
                           "985ca9a2396b94bce37cb077a5e821ea592fffe190da646a1232677b677b928c"),
    "institution_heavy": (institution_heavy_spec,
                         "28b7635751a4d413a33c822eec1bb609f61eec754a7c24000e384192a522d3e0"),
    "escaped_names": (escaped_names_spec,
                     "e22afbd29ea5839d2e01659db97a37ae485937c54b6bad8240dc98bb39f18829"),
    "always_multi_category": (always_multi_category_spec,
                             "b8928fea70d634ca657f856e975efa137a9d4a2a2cf1c495d38e144631787010"),
    "chunk_boundary": (chunk_boundary_spec,
                      "951a2e65351fbbd5fa53b02d2233271b2b5d446bc0e594152219b3e61e035c40"),
    "one_field": (one_field_spec,
                 "28d48a77b253b74aa943c20055a822d548b99d564142033b9ea89bf391b755e6"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_digest(self, tmp_path, name):
        make_spec, digest = GOLDEN[name]
        spec = make_spec()
        path = tmp_path / "golden.jsonl"
        assert generate(spec, str(path)) == spec.n_records
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_reader_and_writer_round_trip(self, tmp_path, name):
        # Test corpora built with the conftest writer share synth's format.
        path, rewritten = tmp_path / "golden.jsonl", tmp_path / "rewritten.jsonl"
        generate(GOLDEN[name][0](), str(path))
        write_corpus(load_corpus(path)[0], str(rewritten))
        assert rewritten.read_bytes() == path.read_bytes()
