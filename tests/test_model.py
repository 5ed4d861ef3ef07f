"""Domain-type behavior: nomenclatures and registries."""

from __future__ import annotations

from noai.model import (
    ERC_SUBFIELDS,
    OST_DISCIPLINES,
    ClassificationRegistry,
    Level,
    is_canonical_erc_subfield,
    is_canonical_ost_discipline,
)


class TestNomenclatures:
    def test_eleven_disciplines(self):
        assert len(OST_DISCIPLINES) == 11

    def test_twenty_five_subfields(self):
        assert len(ERC_SUBFIELDS) == 25

    def test_full_names_and_abbreviations_accepted(self):
        assert is_canonical_ost_discipline("Computer science")
        assert is_canonical_ost_discipline("Comp. Sc.")
        assert not is_canonical_ost_discipline("Astrology")

    def test_dash_variants_accepted(self):
        assert is_canonical_ost_discipline("Earth sciences - Astronomy - Astrophysics")
        assert is_canonical_ost_discipline("Earth sciences – Astronomy – Astrophysics")

    def test_subfield_ids(self):
        assert is_canonical_erc_subfield("PE6")
        assert is_canonical_erc_subfield("LS9")
        assert is_canonical_erc_subfield("SH6")
        assert not is_canonical_erc_subfield("SH7")
        assert not is_canonical_erc_subfield("PE11")


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
