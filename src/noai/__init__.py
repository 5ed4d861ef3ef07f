"""Field-normalized open-access indicators for publication corpora.

The package computes, for each actor (country or institution), the share
of its output that is openly accessible and a normalized variant of that
share in which each disciplinary field is weighted against the world
baseline for that field.  A value of 1.0 means the actor is exactly as
open as the world average would predict given its disciplinary mix.

Layers: :mod:`noai.model` (domain types and nomenclatures),
:mod:`noai.ingest` (corpus and registry IO), :mod:`noai.engine`
(counting and normalization), :mod:`noai.analysis` (ranking and rank
comparison), :mod:`noai.synth` (deterministic synthetic corpora) and
:mod:`noai.cli` (batch runs).
"""

__version__ = "0.1.0"

from .engine import (
    AggregationResult,
    Aggregator,
    build_indicator_table,
    oa_share,
    yearly_series,
)
from .errors import NoaiError
from .ingest import (
    CorpusReader,
    IngestOptions,
    load_actor_registry,
    load_registry,
    validate_corpus,
)
from .model import (
    Actor,
    ActorKind,
    ClassificationRegistry,
    DocType,
    IndicatorRow,
    Level,
    OAStatus,
    PublicationRecord,
)

__all__ = [
    "__version__",
    "Actor",
    "ActorKind",
    "AggregationResult",
    "Aggregator",
    "ClassificationRegistry",
    "CorpusReader",
    "DocType",
    "IndicatorRow",
    "IngestOptions",
    "Level",
    "NoaiError",
    "OAStatus",
    "PublicationRecord",
    "build_indicator_table",
    "load_actor_registry",
    "load_registry",
    "oa_share",
    "validate_corpus",
    "yearly_series",
]
