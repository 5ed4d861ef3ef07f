"""Domain types for open-access indicator computation.

A corpus is a set of publication records. Each record carries zero or more
raw OA statuses (gold, bronze, green), one or more subject categories, and
the countries / institutions credited on it. Subject categories roll up to
coarser classification levels through a registry that maps every category
to exactly one OST discipline and one ERC sub-field.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple


class OAStatus(str, Enum):
    GOLD = "gold"
    BRONZE = "bronze"
    GREEN = "green"
    CLOSED = "closed"


#: Statuses a record may carry in its raw data, in the order outputs list
#: them; CLOSED is derived, never raw.
RAW_STATUSES: tuple[OAStatus, ...] = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)

#: Multi-status resolution order: an APC-funded gold version outranks a
#: publisher-opened bronze one, which outranks an author-archived green one.
DEFAULT_PRIORITY: tuple[OAStatus, ...] = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)


class DocType(str, Enum):
    ARTICLE = "article"
    LETTER = "letter"
    REVIEW = "review"
    PROCEEDING = "proceeding"


class Level(str, Enum):
    """Classification granularity used for fractional counting and normalization."""

    SUBJECT_CATEGORY = "subject-category"
    OST_DISCIPLINE = "ost-discipline"
    ERC_SUBFIELD = "erc-subfield"


class ActorKind(str, Enum):
    COUNTRY = "country"
    INSTITUTION = "institution"


#: Canonical 11-discipline nomenclature, full name -> short label.
OST_DISCIPLINES: Mapping[str, str] = {
    "Applied biology - Ecology": "App. Bio. - Eco.",
    "Fundamental biology": "Fund. bio.",
    "Chemistry": "Chemistry",
    "Computer science": "Comp. Sc.",
    "Mathematics": "Maths",
    "Physics": "Physics",
    "Medical research": "Medical R.",
    "Engineering": "Engineering",
    "Earth sciences - Astronomy - Astrophysics": "Earth sc., Astro.",
    "Humanities": "Humanities",
    "Social sciences": "Soc. Sc.",
}

#: Canonical 25 ERC sub-fields, id -> wording. The panel (LS/PE/SH) is the id prefix.
ERC_SUBFIELDS: Mapping[str, str] = {
    "SH1": "Individuals, Markets and Organizations",
    "SH2": "Institutions, Values, Environment and Space",
    "SH3": "The Social World, Diversity, Population",
    "SH4": "The Human Mind and Its Complexity",
    "SH5": "Cultures and Cultural Production",
    "SH6": "The Study of the Human Past",
    "PE1": "Mathematics",
    "PE2": "Fundamental Constituents of Matter",
    "PE3": "Condensed Matter Physics",
    "PE4": "Physical and Analytical Chemical Sciences",
    "PE5": "Synthetic Chemistry and Materials",
    "PE6": "Computer Science and Informatics",
    "PE7": "Systems and Communication Engineering",
    "PE8": "Products and Processes Engineering",
    "PE9": "Universe Sciences",
    "PE10": "Earth System Science",
    "LS1": "Molecular Biology, Biochemistry, Structural Biology and Molecular Biophysics",
    "LS2": "Genetics, 'Omics', Bioinformatics and Systems Biology",
    "LS3": "Cellular and Developmental Biology",
    "LS4": "Physiology, Pathophysiology and Endocrinology",
    "LS5": "Neuroscience and Neural Disorders",
    "LS6": "Immunity and Infection",
    "LS7": "Applied Medical Technologies, Diagnostics, Therapies and Public Health",
    "LS8": "Ecology, Evolution and Environmental Biology",
    "LS9": "Applied Life Sciences, Biotechnology, and Molecular and Biosystems Engineering",
}


class PublicationRecord(NamedTuple):
    """One publication as it is counted, an immutable record with final field types.

    status is the OA status that wins by priority; actors is a set of the
    credited kind, as credit is whole per distinct actor. subject_categories
    keeps input order (the first is the primary category) without duplicates.
    The record checks nothing: `ingest._parse_line` validates input and builds it.
    """

    id: str
    year: int
    status: OAStatus
    subject_categories: tuple[str, ...]
    actors: frozenset[str]


class _ActorFields(NamedTuple):
    id: str
    kind: ActorKind
    group: str | None
    display_name: str


class Actor(_ActorFields):
    """A country or institution, with optional reporting metadata.

    The group label (a benchmarking cohort such as G1/G2/G3) only makes
    sense for institutions and is used solely for filtering output
    tables, never in computation. An empty display name becomes the id.
    Both rules hold for `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: ActorKind, group: str | None = None,
                display_name: str = ""):
        if group is not None and kind is not ActorKind.INSTITUTION:
            raise ValueError(f"actor {id!r}: group set on a non-institution")
        return tuple.__new__(cls, (id, kind, group, display_name or id))

    _make = classmethod(lambda cls, values: cls(*values))


class ClassificationRegistry(NamedTuple):
    """Maps each subject category to exactly one OST discipline and ERC sub-field."""

    categories: Mapping[str, tuple[str, str]]

    def field_map(self, level: Level) -> Mapping[str, str] | None:
        """category -> field lookup table for a level; None at category level."""
        if level is Level.SUBJECT_CATEGORY:
            return None
        idx = 0 if level is Level.OST_DISCIPLINE else 1
        return {cat: pair[idx] for cat, pair in self.categories.items()}


class IndicatorRow(NamedTuple):
    """One actor's results: shares, normalized indicators and whole-counted OA volume.

    Shares are percentages; normalized indicator values are ratios where 1.0
    means world-typical openness given the actor's disciplinary mix.
    """

    actor: str
    display_name: str
    group: str | None
    x_total: float
    oa_share: float
    noai: Mapping[Level, float | None]
    oa_type_shares: Mapping[OAStatus, float]
    n_oa_whole: int
