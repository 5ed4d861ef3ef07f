"""Exception types shared across the package.

Everything data-shaped raises a subclass of NoaiError so the CLI can map
the whole family to a single exit code.
"""

from __future__ import annotations


class NoaiError(Exception):
    """Base class for all data and domain errors."""


class IoFailure(NoaiError):
    """An input file could not be opened or read."""


class MalformedRecord(NoaiError):
    """A corpus line could not be parsed into a valid record."""


class MalformedRow(NoaiError):
    """A registry CSV row is missing fields or otherwise unusable."""


class DuplicateCategory(NoaiError):
    """The same subject category appears twice in a classification registry."""


class UnknownCategory(NoaiError):
    """A subject category is absent from the classification registry."""


class EmptyWindow(NoaiError):
    """The corpus yielded no accepted record; the stats printed before say why."""


class UndefinedShare(NoaiError):
    """OA share requested for an aggregate with zero publications."""


class EmptyTable(NoaiError):
    """Ranking requested on a table with no rows."""


class MismatchedActorSets(NoaiError):
    """Two rank tables do not cover the same actors."""


class DegenerateInput(NoaiError):
    """Correlation is undefined: fewer than two actors or zero rank variance."""


class InvalidSpec(NoaiError):
    """A synthetic-corpus spec violates its own invariants."""
