"""Corpus and registry ingestion.

The corpus wire format is UTF-8 JSON Lines, one publication per line:

    {"id": "...", "year": 2016, "doc_type": "article", "oa": ["gold"],
     "categories": ["..."], "doi": true, "countries": ["FRA"], "institutions": []}

`id`, `year`, `doc_type` and `categories` are required; `oa`, `countries` and
`institutions` default to empty and `doi` to false. Unknown keys are ignored.
Each line is decoded on its own, so one that is not UTF-8 is one malformed
line. Malformed lines are counted and skipped unless strict mode is on.
The reader decides what a record counts as: its OA status and its actors.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateCategory,
    IoFailure,
    MalformedRecord,
    MalformedRow,
    UnknownCategory,
)
from .model import (
    Actor,
    ActorKind,
    ClassificationRegistry,
    DEFAULT_PRIORITY,
    DocType,
    OAStatus,
    PublicationRecord,
    RAW_STATUSES,
)

REASON_MALFORMED = "malformed"
REASON_EMPTY_CATEGORIES = "empty_categories"
REASON_DUPLICATE_ID = "duplicate_id"
REASON_DOC_TYPE = "doc_type_filtered"
REASON_YEAR = "year_filtered"
REASON_NO_DOI = "no_doi"
REASON_UNKNOWN_CATEGORY = "unknown_category"

_DOC_TYPES = {d.value: d for d in DocType}
_RAW_OA = frozenset(s.value for s in RAW_STATUSES)

# The C scanner behind json.loads, without its wrapper: (value, end index).
_raw_decode = json.JSONDecoder().raw_decode
# A NamedTuple's own __new__ is a Python function; tuple's builds the same record.
_new_record = tuple.__new__

#: Cap on per-line messages kept in CorpusStats; counts are always complete.
MAX_KEPT_DIAGNOSTICS = 50

#: Bytes a corpus is read in at a time.
READ_BLOCK = 1 << 14

REGISTRY_COLUMNS = ("subject_category", "ost_discipline", "erc_subfield")
ACTOR_COLUMNS = ("actor_id", "kind", "group", "display_name")


class IngestOptions(NamedTuple):
    """Perimeter filters applied while loading a corpus, the OA status order,
    and the actor kind credited (None credits no actor)."""

    doc_types: frozenset[DocType] | None = None
    window: tuple[int, int] | None = None
    require_doi: bool = False
    strict: bool = False
    priority: tuple[OAStatus, ...] = DEFAULT_PRIORITY
    actor_kind: ActorKind | None = ActorKind.COUNTRY


class CorpusStats:
    """Counts that add up over the ranges of a corpus: records read and
    accepted, rejections by reason, accepted records by year, and the
    first per-line (line, reason, detail) diagnostics. The rejected count
    and the year range are derived from them."""

    def __init__(self):
        self.records_read = self.records_accepted = 0
        self.rejection_reasons: Counter = Counter()
        self.years: Counter = Counter()
        self.diagnostics: list[tuple[int, str, str]] = []

    @property
    def records_rejected(self) -> int:
        return sum(self.rejection_reasons.values())

    def as_dict(self) -> dict:
        years = [year for year, n in self.years.items() if n > 0]
        return {
            "records_read": self.records_read,
            "records_accepted": self.records_accepted,
            "records_rejected": self.records_rejected,
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
            "year_range": [min(years), max(years)] if years else None,
        }


class _EmptyCategories(ValueError):
    """A record whose schema is valid apart from its empty category list."""


def _strings(value, name: str) -> None:
    """Require a JSON array of non-empty strings."""
    if type(value) is not list:
        raise ValueError(f"{name} must be an array of non-empty strings")
    for v in value:
        if type(v) is not str or not v:
            raise ValueError(f"{name} must be an array of non-empty strings")


def _parse_line(obj: dict, escaped: bool, priority: tuple[OAStatus, ...],
                actor_kind: ActorKind | None) -> PublicationRecord:
    """Build a record from a decoded JSON object; ValueError on schema violations.

    This is the one place where a record is checked: each field is checked
    once and the record is built with its final types. JSON decoding yields
    exact `str`, `int`, `bool` and `list` values, so exact type tests suffice,
    and `type(year) is int` keeps a bool from passing as a year. `escaped`
    False says that the line held no `\\u` escape, the only source of a lone
    surrogate in text decoded as strict UTF-8, so that check is skipped.
    The record counts under the first status of `priority` that the line
    holds, closed if none, and credits the actors of `actor_kind`: two
    `IngestOptions` fields that the reader reads once per pass.
    """
    rec_id = obj.get("id")
    if type(rec_id) is not str or not rec_id:
        raise ValueError("missing or invalid id")
    year = obj.get("year")
    if type(year) is not int:
        raise ValueError("missing or invalid year")
    if obj.get("doc_type") not in _DOC_TYPES:
        raise ValueError(f"invalid doc_type {obj.get('doc_type')!r}")
    oa = obj.get("oa", [])
    if type(oa) is not list:
        raise ValueError("oa must be an array")
    for s in oa:
        if s not in _RAW_OA:
            raise ValueError(f"invalid oa status {s!r}")
    categories = obj.get("categories")
    _strings(categories, "categories")
    doi = obj.get("doi", False)
    if type(doi) is not bool:
        raise ValueError("doi must be a boolean")
    countries = obj.get("countries", [])
    _strings(countries, "countries")
    institutions = obj.get("institutions", [])
    _strings(institutions, "institutions")
    if not categories:
        # Raised after the rest of the schema checks so the reason is specific.
        raise _EmptyCategories("categories is empty")
    # Duplicate categories carry no extra information; keep first occurrences.
    # Categories and credited actors are interned, so that records and tally
    # keys hold one string per distinct value; ids are unique and are not.
    # Most records have one category, which needs no dedupe.
    if len(categories) == 1:
        deduped = (sys.intern(categories[0]),)
    else:
        deduped = tuple(dict.fromkeys(map(sys.intern, categories)))
    if escaped:
        # A JSON escape can yield a lone surrogate, which no UTF-8 output can
        # hold; encoding raises UnicodeEncodeError, a ValueError.
        "".join((rec_id, *deduped, *countries, *institutions)).encode("utf-8")
    for status in priority:
        if status in oa:
            break
    else:
        status = OAStatus.CLOSED
    if actor_kind is None:
        actors = frozenset()
    else:
        actors = frozenset(map(sys.intern, countries if actor_kind is ActorKind.COUNTRY
                               else institutions))
    return _new_record(PublicationRecord, (rec_id, year, status, deduped, actors))


def _line_blocks(stream, size: int = -1) -> Iterator[bytes]:
    """The stream's next `size` bytes, all of the rest when size is negative,
    in blocks that each end with a line break, the last one excepted, so that
    the lines of each block are lines of the stream.

    A block is cut after its last \\n, or after a later \\r that is not its
    last byte: a \\r at the very end may be the first half of a \\r\\n.
    """
    parts: list[bytes] = []
    # A negative size only grows more negative: no limit.
    while block := stream.read(READ_BLOCK if size < 0 else min(READ_BLOCK, size)):
        size -= len(block)
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if not cut:
            parts.append(block)
            continue
        parts.append(block[:cut])
        yield b"".join(parts)
        parts = [block[cut:]]
    yield b"".join(parts)


class CorpusReader:
    """Streaming corpus reader of records as counted under the options.

    `stats` is complete once a pass ends: when the file is exhausted, when
    strict mode aborts on a line, or when the consumer closes the iterator
    after any number of records. While a pass is suspended between records,
    its read and accepted counts and its years are not yet in `stats`.

    When a registry is given, records with categories outside it are rejected
    (fatal in strict mode). Filters never raise: they only reject.

    The `span` (start, stop) is the byte range of the file read, to its end
    when stop is None: by default the whole file. Both edges must be line
    starts, and line numbers count from the range's first line (see
    noai.shards). After a pass `lines` counts its lines, blank ones
    included. Only a range that stops before the end of the file, the first
    of two, keeps its accepted ids in `seen`, for the merge. A range past
    byte 0, the second of two, records in `checks` each record that reached
    the duplicate check as two parallel sequences, (codes, ids): the code
    line << 1 | accepted, and the id.
    """

    def __init__(
        self,
        path,
        registry: ClassificationRegistry | None = None,
        options: IngestOptions | None = None,
        span: tuple[int, int | None] = (0, None),
    ):
        self.path = path
        self.registry = registry
        self.options = options or IngestOptions()
        self.span = span
        self.stats = CorpusStats()
        self.lines = 0
        self.seen: set[str] = set()
        self.checks = None

    def _reject(self, line_no: int, reason: str, detail: str = ""):
        self.stats.rejection_reasons[reason] += 1
        if len(self.stats.diagnostics) < MAX_KEPT_DIAGNOSTICS:
            self.stats.diagnostics.append((line_no, reason, detail))

    def _blocks(self, stream) -> Iterator[bytes]:
        """The line blocks of this reader's range of an open stream."""
        start, stop = self.span
        if start:
            stream.seek(start)
        return _line_blocks(stream, -1 if stop is None else stop - start)

    def records_at(self, lines: Iterable[int]) -> list[PublicationRecord]:
        """The records of lines that a pass of this reader accepted, given by
        their ascending line numbers, read and parsed again."""
        priority, actor_kind = self.options.priority, self.options.actor_kind
        wanted = iter(lines)
        want = next(wanted, None)
        records = []
        base = 0
        with open(self.path, "rb") as stream:
            for block in self._blocks(stream):
                if want is None:
                    break
                block_lines = block.splitlines()
                while want is not None and want <= base + len(block_lines):
                    text = block_lines[want - base - 1].strip().decode("utf-8")
                    records.append(_parse_line(json.loads(text), "\\u" in text,
                                               priority, actor_kind))
                    want = next(wanted, None)
                base += len(block_lines)
        return records

    def __iter__(self) -> Iterator[PublicationRecord]:
        opts = self.options
        strict = opts.strict
        doc_types = opts.doc_types
        window = opts.window
        require_doi = opts.require_doi
        priority = opts.priority
        actor_kind = opts.actor_kind
        reject = self._reject
        stats = self.stats
        registry = self.registry
        known = registry.categories if registry is not None else None
        seen_ids = set()
        if self.span[1] is not None:
            # Only the first of two ranges keeps its ids, for the merge.
            self.seen = seen_ids
        ids = None
        if self.span[0]:
            # Only a range read in a child records checks, so only a child
            # loads the array module.
            from array import array

            codes, ids = self.checks = array("q"), []
            add_code, add_id = codes.append, ids.append
        try:
            stream = open(self.path, "rb")
        except OSError as exc:
            raise IoFailure(f"cannot open corpus {self.path}: {exc}") from exc
        # Per-line bookkeeping stays in locals; `finally` hands it to stats
        # however the pass ends.
        line_no = 0
        read = stats.records_read
        accepted = stats.records_accepted
        years = {}
        year_count = years.get
        try:
            for block in self._blocks(stream):
                # \r, \n and \r\n all end a line, as in text mode; JSON strings
                # cannot hold a raw line break.
                for line in block.splitlines():
                    line_no += 1
                    line = line.strip()
                    if not line:
                        continue
                    read += 1
                    try:
                        text = line.decode("utf-8")
                        try:
                            obj, end = _raw_decode(text)
                        except ValueError:
                            end = -1
                        if end != len(text):
                            # Not one JSON value: json.loads raises with its
                            # own reason (a BOM, extra data, a syntax error).
                            obj = json.loads(text)
                        if type(obj) is not dict:
                            raise ValueError("line is not an object")
                        record = _parse_line(obj, "\\u" in text, priority, actor_kind)
                    except (ValueError, TypeError, RecursionError) as exc:
                        reason = (
                            REASON_EMPTY_CATEGORIES
                            if isinstance(exc, _EmptyCategories)
                            else REASON_MALFORMED
                        )
                        if strict:
                            raise MalformedRecord(f"line {line_no}: {reason}: {exc}") from exc
                        reject(line_no, reason, str(exc))
                        continue
                    # The filters read values that _parse_line has checked.
                    if doc_types is not None and _DOC_TYPES[obj["doc_type"]] not in doc_types:
                        reject(line_no, REASON_DOC_TYPE)
                        continue
                    year = record.year
                    if window is not None and not (window[0] <= year <= window[1]):
                        reject(line_no, REASON_YEAR)
                        continue
                    if require_doi and not obj.get("doi", False):
                        reject(line_no, REASON_NO_DOI)
                        continue
                    rec_id = record.id
                    if rec_id in seen_ids:
                        if strict:
                            raise MalformedRecord(f"line {line_no}: duplicate id {rec_id!r}")
                        reject(line_no, REASON_DUPLICATE_ID, rec_id)
                        continue
                    if known is not None:
                        missing = [c for c in record.subject_categories if c not in known]
                        if missing:
                            if ids is not None:
                                add_code(line_no << 1)
                                add_id(rec_id)
                            if strict:
                                raise UnknownCategory(
                                    f"line {line_no}: record {rec_id!r} has unknown "
                                    f"categories {missing}"
                                )
                            reject(line_no, REASON_UNKNOWN_CATEGORY, ", ".join(missing))
                            continue
                    seen_ids.add(rec_id)
                    if ids is not None:
                        add_code(line_no << 1 | 1)
                        add_id(rec_id)
                    accepted += 1
                    years[year] = year_count(year, 0) + 1
                    yield record
        finally:
            stream.close()
            self.lines = line_no
            stats.records_read = read
            stats.records_accepted = accepted
            stats.years.update(years)


class Diagnostic(NamedTuple):
    """A record whose categories cannot all be classified."""

    record_id: str
    unknown_categories: tuple[str, ...]


def validate_corpus(
    corpus: Iterable[PublicationRecord], registry: ClassificationRegistry
) -> list[Diagnostic]:
    """One diagnostic per record with a category the registry cannot classify."""
    diagnostics = []
    for record in corpus:
        unknown = tuple(c for c in record.subject_categories if c not in registry)
        if unknown:
            diagnostics.append(Diagnostic(record.id, unknown))
    return diagnostics


def _read_csv_rows(path, expected: Sequence[str], label: str):
    """Yield (line number, stripped cells) of each non-blank row after the header."""
    try:
        stream = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IoFailure(f"cannot open {label} {path}: {exc}") from exc
    with stream:
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRow(f"{label} {path}: empty file, header required")
            header = [h.strip() for h in header]
            if header[: len(expected)] != list(expected):
                raise MalformedRow(
                    f"{label} {path}: header must start with {','.join(expected)}"
                )
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                # The physical line where the row ends; a quoted field may span lines.
                line_no = reader.line_num
                if len(row) < len(expected):
                    raise MalformedRow(f"{label} {path} line {line_no}: expected {len(expected)} fields")
                yield line_no, [cell.strip() for cell in row]
        except UnicodeDecodeError as exc:
            # Text is decoded ahead of the parser, so the line is not known.
            raise MalformedRow(f"{label} {path} is not UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise MalformedRow(f"{label} {path} line {reader.line_num}: {exc}") from None


def load_registry(path) -> ClassificationRegistry:
    """Load the subject-category -> (OST discipline, ERC sub-field) table.

    Discipline and sub-field values are any non-empty strings: no
    nomenclature is enforced.
    """
    categories: dict[str, tuple[str, str]] = {}
    for line_no, row in _read_csv_rows(path, REGISTRY_COLUMNS, "registry"):
        category, discipline, subfield = row[0], row[1], row[2]
        if not category or not discipline or not subfield:
            raise MalformedRow(f"registry {path} line {line_no}: empty field")
        if category in categories:
            raise DuplicateCategory(
                f"registry {path} line {line_no}: subject category {category!r} mapped twice"
            )
        categories[category] = (discipline, subfield)
    return ClassificationRegistry(categories=categories)


def load_actor_registry(path) -> dict[str, Actor]:
    """Load actor metadata: id -> Actor (kind, optional group, display name)."""
    actors: dict[str, Actor] = {}
    for line_no, row in _read_csv_rows(path, ACTOR_COLUMNS, "actor registry"):
        actor_id, kind_s, group, display_name = row[0], row[1], row[2], row[3]
        if not actor_id:
            raise MalformedRow(f"actor registry {path} line {line_no}: empty actor_id")
        if actor_id in actors:
            raise MalformedRow(
                f"actor registry {path} line {line_no}: duplicate actor_id {actor_id!r}"
            )
        try:
            kind = ActorKind(kind_s)
        except ValueError:
            raise MalformedRow(
                f"actor registry {path} line {line_no}: kind must be country or institution"
            ) from None
        try:
            actors[actor_id] = Actor(
                id=actor_id,
                kind=kind,
                group=group or None,
                display_name=display_name or actor_id,
            )
        except ValueError as exc:
            raise MalformedRow(f"actor registry {path} line {line_no}: {exc}") from None
    return actors
