"""Domain-type behavior: nomenclatures, registries and the value types."""

from __future__ import annotations

import pytest

from noai.analysis import RankRow
from noai.engine import AggregationResult, YearRow
from noai.ingest import CorpusStats, Diagnostic, IngestOptions
from noai.model import (
    DEFAULT_PRIORITY,
    ERC_SUBFIELDS,
    OST_DISCIPLINES,
    RAW_STATUSES,
    Actor,
    ActorKind,
    ClassificationRegistry,
    IndicatorRow,
    Level,
    OAStatus,
)


class TestNomenclatures:
    def test_eleven_disciplines(self):
        assert len(OST_DISCIPLINES) == 11

    def test_twenty_five_subfields(self):
        assert len(ERC_SUBFIELDS) == 25

    def test_full_names_and_abbreviations_accepted(self):
        # Full discipline names are the keys; their short labels the values.
        assert OST_DISCIPLINES["Computer science"] == "Comp. Sc."
        assert "Astrology" not in OST_DISCIPLINES
        assert "Astrology" not in OST_DISCIPLINES.values()

    def test_subfield_ids(self):
        assert "PE6" in ERC_SUBFIELDS
        assert "LS9" in ERC_SUBFIELDS
        assert "SH6" in ERC_SUBFIELDS
        assert "SH7" not in ERC_SUBFIELDS
        assert "PE11" not in ERC_SUBFIELDS


def test_raw_statuses_in_output_order():
    # Outputs list the OA types in this order; closed is never a raw status.
    assert RAW_STATUSES == (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)
    assert OAStatus.CLOSED not in RAW_STATUSES


class TestClassificationRegistry:
    def test_identity_at_category_level(self, table_registry):
        # Category level never consults the registry mapping.
        assert table_registry.field_map(Level.SUBJECT_CATEGORY) is None

    def test_mapping_at_coarser_levels(self, table_registry):
        fmap = table_registry.field_map(Level.OST_DISCIPLINE)
        assert fmap["Medical Informatics"] == "Computer science"
        fmap = table_registry.field_map(Level.ERC_SUBFIELD)
        assert fmap["Health Care Sciences & Services"] == "LS7"

    def test_contains(self, table_registry):
        assert "Medical Informatics" in table_registry
        assert "Basket Weaving" not in table_registry

    def test_field_map(self, table_registry):
        fmap = table_registry.field_map(Level.OST_DISCIPLINE)
        assert fmap["Computer Science, Information Systems"] == "Computer science"
        assert "Basket Weaving" not in fmap

    def test_discipline_and_subfield_sets(self):
        reg = ClassificationRegistry({"c1": ("D1", "PE1"), "c2": ("D1", "LS2")})
        assert set(reg.field_map(Level.OST_DISCIPLINE).values()) == {"D1"}
        assert set(reg.field_map(Level.ERC_SUBFIELD).values()) == {"PE1", "LS2"}


class TestValueTypes:
    """The contract of the value types, whatever class machinery builds them."""

    def test_actor_rules(self):
        with pytest.raises(ValueError, match="non-institution"):
            Actor("FRA", ActorKind.COUNTRY, group="G1")
        with pytest.raises(ValueError, match="non-institution"):
            Actor(id="FRA", kind=ActorKind.COUNTRY, group="G1", display_name="France")
        assert Actor("X", ActorKind.COUNTRY).display_name == "X"
        assert Actor("u1", ActorKind.INSTITUTION, None, "").display_name == "u1"
        u1 = Actor("u1", ActorKind.INSTITUTION, "G1", "Univ One")
        assert (u1.id, u1.kind, u1.group, u1.display_name) == (
            "u1", ActorKind.INSTITUTION, "G1", "Univ One")

    def test_actor_replace_keeps_the_rules(self):
        fra = Actor("FRA", ActorKind.COUNTRY, display_name="France")
        with pytest.raises(ValueError, match="non-institution"):
            fra._replace(group="G1")
        assert fra._replace(display_name="") == ("FRA", ActorKind.COUNTRY, None, "FRA")

    VALUES = [
        (IngestOptions(), "strict"),
        (Diagnostic("r1", ("Astrology",)), "record_id"),
        (AggregationResult(1, {}, {}, {}), "unit"),
        (YearRow(2018, 50.0, {}, {}), "year"),
        (Actor("FRA", ActorKind.COUNTRY), "display_name"),
        (ClassificationRegistry({}), "categories"),
        (IndicatorRow("FRA", "FRA", None, 1.0, 50.0, {}, {}, 1), "x_total"),
        (RankRow(1, 1.0), "rank"),
    ]

    @pytest.mark.parametrize("value, name", VALUES)
    def test_fields_are_read_only(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)

    @pytest.mark.parametrize("value, name", VALUES)
    def test_no_attribute_can_be_added(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, "extra", 0)

    def test_corpus_stats_share_nothing(self):
        a, b = CorpusStats(), CorpusStats()
        assert a.rejection_reasons is not b.rejection_reasons
        assert a.years is not b.years
        assert a.diagnostics is not b.diagnostics
        a.rejection_reasons["malformed"] += 1
        a.years[2016] += 1
        a.diagnostics.append((1, "malformed", ""))
        a.records_read = 1
        assert (b.records_read, b.rejection_reasons, b.years, b.diagnostics) == (
            0, {}, {}, [])
        assert b.as_dict() == {"records_read": 0, "records_accepted": 0,
                               "records_rejected": 0, "rejection_reasons": {},
                               "year_range": None}

    def test_corpus_stats_derive_rejected_and_year_range(self):
        # The rejected count and the year range come from the counts; a year
        # whose count is 0 does not widen the range.
        stats = CorpusStats()
        stats.rejection_reasons.update({"malformed": 2, "duplicate_id": 1})
        stats.years.update({2016: 3, 2018: 1, 2030: 0, 2001: 0})
        assert stats.records_rejected == 3
        assert stats.as_dict()["year_range"] == [2016, 2018]
        stats.years[2018] -= 1
        assert stats.as_dict()["year_range"] == [2016, 2016]
        stats.years[2016] = 0
        assert stats.as_dict()["year_range"] is None

    def test_ingest_options_defaults(self):
        # No filter, lenient, gold over bronze over green, countries credited.
        options = IngestOptions()
        assert (options.doc_types, options.window, options.require_doi, options.strict) == (
            None, None, False, False)
        assert options.priority == DEFAULT_PRIORITY == (
            OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)
        assert options.actor_kind is ActorKind.COUNTRY
