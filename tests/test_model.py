"""Domain-type behavior: status resolution, nomenclatures, registries."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noai.errors import UnknownCategory
from noai.model import (
    DEFAULT_PRIORITY,
    ERC_SUBFIELDS,
    OST_DISCIPLINES,
    ClassificationRegistry,
    Level,
    OAStatus,
    erc_panel,
    is_canonical_erc_subfield,
    is_canonical_ost_discipline,
    resolve_status,
)

RAW = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)


def powerset(items):
    sets = [frozenset()]
    for item in items:
        sets += [s | {item} for s in sets]
    return sets


class TestResolveStatus:
    def test_all_subsets_default_priority(self):
        # Exhaustive over the 8 possible raw-status subsets.
        for subset in powerset(RAW):
            got = resolve_status(subset)
            if not subset:
                assert got is OAStatus.CLOSED
            else:
                expected = next(s for s in DEFAULT_PRIORITY if s in subset)
                assert got is expected

    @pytest.mark.parametrize("priority", list(permutations(RAW)))
    def test_all_subsets_all_priorities(self, priority):
        for subset in powerset(RAW):
            got = resolve_status(subset, priority)
            if subset:
                assert got is next(s for s in priority if s in subset)
            else:
                assert got is OAStatus.CLOSED

    def test_priority_override_changes_winner(self):
        both = {OAStatus.GOLD, OAStatus.GREEN}
        assert resolve_status(both) is OAStatus.GOLD
        flipped = (OAStatus.GREEN, OAStatus.BRONZE, OAStatus.GOLD)
        assert resolve_status(both, flipped) is OAStatus.GREEN

    def test_rejects_non_raw_status(self):
        with pytest.raises(ValueError):
            resolve_status({OAStatus.CLOSED})

    @given(st.frozensets(st.sampled_from(RAW)))
    def test_result_is_member_or_closed(self, subset):
        got = resolve_status(subset)
        assert got in subset or (got is OAStatus.CLOSED and not subset)


class TestNomenclatures:
    def test_eleven_disciplines(self):
        assert len(OST_DISCIPLINES) == 11

    def test_twenty_five_subfields(self):
        assert len(ERC_SUBFIELDS) == 25
        panels = {erc_panel(s) for s in ERC_SUBFIELDS}
        assert panels == {"LS", "PE", "SH"}
        assert sum(1 for s in ERC_SUBFIELDS if erc_panel(s) == "PE") == 10
        assert sum(1 for s in ERC_SUBFIELDS if erc_panel(s) == "LS") == 9
        assert sum(1 for s in ERC_SUBFIELDS if erc_panel(s) == "SH") == 6

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
        assert table_registry.classify("Medical Informatics",
                                       Level.SUBJECT_CATEGORY) == "Medical Informatics"
        assert table_registry.classify("Anything",
                                       Level.SUBJECT_CATEGORY) == "Anything"

    def test_mapping_at_coarser_levels(self, table_registry):
        assert table_registry.classify(
            "Medical Informatics", Level.OST_DISCIPLINE) == "Computer science"
        assert table_registry.classify(
            "Health Care Sciences & Services", Level.ERC_SUBFIELD) == "LS7"

    def test_unknown_category_raises_at_coarser_levels(self, table_registry):
        with pytest.raises(UnknownCategory):
            table_registry.classify("Basket Weaving", Level.OST_DISCIPLINE)

    def test_contains(self, table_registry):
        assert "Medical Informatics" in table_registry
        assert "Basket Weaving" not in table_registry

    def test_field_map(self, table_registry):
        assert table_registry.field_map(Level.SUBJECT_CATEGORY) is None
        fmap = table_registry.field_map(Level.OST_DISCIPLINE)
        assert fmap["Computer Science, Information Systems"] == "Computer science"

    def test_discipline_and_subfield_sets(self):
        reg = ClassificationRegistry({"c1": ("D1", "PE1"), "c2": ("D1", "LS2")})
        assert reg.ost_disciplines == {"D1"}
        assert reg.erc_subfields == {"PE1", "LS2"}
