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
import os
import stat
import sys
from array import array
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
_RAW_STATUS = {s.value: s for s in RAW_STATUSES}
_CLOSED = OAStatus.CLOSED
# The default of an absent list field; never mutated.
_NONE: list = []

# The C scanner behind json.loads: scan_once(text, index) gives the JSON value
# at the index and the index after it, or raises StopIteration if none starts
# there.
_scan_once = json.JSONDecoder().scan_once
# A NamedTuple's own __new__ is a Python function; tuple's builds the same record.
_new_record = tuple.__new__

#: Cap on per-line messages kept in CorpusStats; counts are always complete.
MAX_KEPT_DIAGNOSTICS = 50

#: Bytes a corpus is read in at a time.
READ_BLOCK = 1 << 14

#: The hash of an id in an IdStore. `hash()` of a str is salted per process
#: and a forked child shares its parent's salt, so a hash is never persisted.
_id_hash = hash

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
    oa = obj.get("oa", _NONE)
    if type(oa) is not list:
        raise ValueError("oa must be an array")
    # Most records hold no status or one, which needs no priority loop.
    if len(oa) == 1:
        status = _RAW_STATUS.get(oa[0])
        if status is None:
            raise ValueError(f"invalid oa status {oa[0]!r}")
        if status not in priority:
            status = _CLOSED
    elif oa:
        for s in oa:
            if s not in _RAW_STATUS:
                raise ValueError(f"invalid oa status {s!r}")
        for status in priority:
            if status in oa:
                break
        else:
            status = _CLOSED
    else:
        status = _CLOSED
    # Each list must be an array of non-empty strings.
    categories = obj.get("categories")
    if type(categories) is not list:
        raise ValueError("categories must be an array of non-empty strings")
    for v in categories:
        if type(v) is not str or not v:
            raise ValueError("categories must be an array of non-empty strings")
    doi = obj.get("doi", False)
    if type(doi) is not bool:
        raise ValueError("doi must be a boolean")
    countries = obj.get("countries", _NONE)
    if type(countries) is not list:
        raise ValueError("countries must be an array of non-empty strings")
    for v in countries:
        if type(v) is not str or not v:
            raise ValueError("countries must be an array of non-empty strings")
    institutions = obj.get("institutions", _NONE)
    if type(institutions) is not list:
        raise ValueError("institutions must be an array of non-empty strings")
    for v in institutions:
        if type(v) is not str or not v:
            raise ValueError("institutions must be an array of non-empty strings")
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


def _open_corpus(path):
    """The corpus at `path` open for reading bytes; IoFailure if it cannot be."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open corpus {path}: {exc}") from exc


def _line_at(fd: int, offset: int) -> bytes:
    """The stripped bytes of the line that starts at byte `offset` of the
    regular file open as `fd`."""
    size = 1 << 9
    while True:
        data = os.pread(fd, size, offset)
        if len(data) < size or b"\n" in data or b"\r" in data:
            return data.splitlines()[0].strip()
        size <<= 2


class IdStore:
    """The ids of the records that a pass accepted, for the rule that the
    first accepted duplicate id wins, in 25 to 33 bytes an id.

    Entry e >= 1 holds an id's 64-bit `hash()`, `hashes[e]`, and where the
    id can be read again, `refs[e]`: the byte offset of its line in a
    regular file, or the id itself in a corpus that cannot be read twice,
    such as a pipe. `slots`, a power of two of cells at most half full,
    each 0 (empty) or an entry, finds an entry by its hash with linear
    probing. An entry of the same hash is only a candidate: its id is read
    again and compared, so two ids that hash alike are both accepted. A
    store of the range past byte 0 also holds, in `codes`, each entry's
    line << 1 | accepted, and makes an entry outside `slots` of each record
    rejected for an unknown category, so that the merge can check every
    record that reached the duplicate check against the first range.
    """

    def __init__(self, keep_ids: bool = False, codes: bool = False):
        self.slots = array("i", [0]) * (1 << 10)
        self.hashes = array("q", [0])
        self.refs = [None] if keep_ids else array("q", [0])
        self.codes = array("q", [0]) if codes else None

    def __len__(self) -> int:
        return len(self.hashes) - 1

    def clear(self) -> None:
        """Drop every entry."""
        self.__init__(type(self.refs) is list, self.codes is not None)

    def grow(self, ids: int):
        """Rebuild `slots` for `ids` entries at most half full; return it."""
        size = 1 << (2 * ids - 1).bit_length()
        # Cells of 4 bytes hold the entries of any range under 2**30 ids.
        slots = array("i" if size < 1 << 31 else "q", [0]) * size
        mask, hashes = size - 1, self.hashes
        for entry in filter(None, self.slots):
            i = hashes[entry] & mask
            while slots[i]:
                i = i + 1 & mask
            slots[i] = entry
        self.slots = slots
        return slots

    def same(self, entry: int, rec_id: str, line: bytes, fd: int) -> bool:
        """Whether an entry's id is `rec_id`, the id of the stripped line
        `line`, reading the entry's line again from the corpus open as `fd`.

        A line is one JSON object, so an accepted line that starts with the
        bytes of `line` is a copy of it, and its id is not parsed again."""
        ref = self.refs[entry]
        if type(ref) is str:
            return ref == rec_id
        return (os.pread(fd, len(line), ref) == line
                or json.loads(_line_at(fd, ref).decode("utf-8"))["id"] == rec_id)

    def matches(self, hashes: Iterable[int]) -> Iterator[tuple[int, int]]:
        """(i, entry) for each hashes[i] and each entry of that hash."""
        slots, held = self.slots, self.hashes
        mask = len(slots) - 1
        for j, h in enumerate(hashes):
            i = h & mask
            while entry := slots[i]:
                if held[entry] == h:
                    yield j, entry
                i = i + 1 & mask


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
    included. A pass holds its accepted ids in an IdStore. A range of a
    file read in two keeps it in `seen` for the merge, which empties the
    first range's once checked; the store of the range past byte 0 also
    holds every record that reached the duplicate check. Otherwise `seen`
    is None.
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
        self.seen: IdStore | None = None

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

    def record_of(self, line: bytes) -> PublicationRecord:
        """The record of a stripped line that a pass of this reader checked
        for a duplicate id, parsed again."""
        text = line.decode("utf-8")
        return _parse_line(json.loads(text), "\\u" in text, self.options.priority,
                           self.options.actor_kind)

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
        known = registry.categories.__contains__ if registry is not None else None
        id_hash = _id_hash
        start, stop = self.span
        stream = _open_corpus(self.path)
        # Per-line bookkeeping stays in locals; `finally` hands it to stats
        # however the pass ends.
        line_no = 0
        read = stats.records_read
        accepted = stats.records_accepted
        years = {}
        year_count = years.get
        try:
            fd = stream.fileno()
            info = os.fstat(fd)
            # Only a regular file is read again to confirm a duplicate; its
            # range's size sizes the store from the rate of ids so far.
            keep_ids = not stat.S_ISREG(info.st_mode)
            size = 0 if keep_ids else (info.st_size if stop is None else stop) - start
            store = IdStore(keep_ids, start > 0)
            if start or stop is not None:
                self.seen = store
            slots, hashes, refs, codes = store.slots, store.hashes, store.refs, store.codes
            add_hash, add_ref = hashes.append, refs.append
            add_code = codes.append if codes is not None else None
            same = store.same
            mask = len(slots) - 1
            limit = mask >> 1
            entries = 0
            pos = start
            for block in self._blocks(stream):
                # \r, \n and \r\n all end a line, as in text mode; JSON strings
                # cannot hold a raw line break.
                for line in block.splitlines(True):
                    line_no += 1
                    offset = pos
                    pos += len(line)
                    line = line.strip()
                    if not line:
                        continue
                    read += 1
                    try:
                        text = line.decode("utf-8")
                        try:
                            obj, end = _scan_once(text, 0)
                        except (ValueError, StopIteration):
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
                    h = id_hash(rec_id)
                    i = h & mask
                    while entry := slots[i]:
                        if hashes[entry] == h and same(entry, rec_id, line, fd):
                            break
                        i = i + 1 & mask
                    if entry:
                        if strict:
                            raise MalformedRecord(f"line {line_no}: duplicate id {rec_id!r}")
                        reject(line_no, REASON_DUPLICATE_ID, rec_id)
                        continue
                    ref = rec_id if keep_ids else offset
                    if known is not None and not all(map(known, record.subject_categories)):
                        missing = [c for c in record.subject_categories if not known(c)]
                        if codes is not None:
                            entries += 1
                            add_hash(h)
                            add_ref(ref)
                            add_code(line_no << 1)
                        if strict:
                            raise UnknownCategory(
                                f"line {line_no}: record {rec_id!r} has unknown "
                                f"categories {missing}"
                            )
                        reject(line_no, REASON_UNKNOWN_CATEGORY, ", ".join(missing))
                        continue
                    entries += 1
                    slots[i] = entries
                    add_hash(h)
                    add_ref(ref)
                    if codes is not None:
                        add_code(line_no << 1 | 1)
                    if entries > limit:
                        # Room for the ids of the whole range at the rate so
                        # far, and at least twice the slots.
                        slots = store.grow(max(entries * size // (pos - start), 2 * entries))
                        mask = len(slots) - 1
                        limit = mask >> 1
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
    known = registry.categories.__contains__
    return [Diagnostic(record.id, tuple(c for c in record.subject_categories if not known(c)))
            for record in corpus if not all(map(known, record.subject_categories))]


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
