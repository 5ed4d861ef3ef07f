"""Domain-type behavior: nomenclatures and registries."""

from __future__ import annotations

from noai.model import (
    ERC_SUBFIELDS,
    OST_DISCIPLINES,
    RAW_STATUSES,
    ClassificationRegistry,
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
