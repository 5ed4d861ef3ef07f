"""Reading a corpus on several cores: byte ranges in forked children, merged in order.

NOAI is a linear function of integer counts, so the tallies of the parts of
a corpus add up to the tally of the whole. A corpus that is a regular file
is cut into one byte range per available core, up to MAX_SHARDS ranges of
at least MIN_SHARD_BYTES each. A range starts at a line start: after a
\\n, or after a \\r that is not followed by \\n, so a \\r\\n is never split.
Range 0 is read in this process and each other range in a child made by
os.fork(); each range runs the command's consumer on its own CorpusReader.
A child sends back only plain data (dicts, lists, tuples, ints and strs)
through a pipe, in bounded chunks serialized by `marshal`, and the parent
merges the ranges in order:

- it renumbers the lines, and keeps the first MAX_KEPT_DIAGNOSTICS
  diagnostics in line order;
- it applies the duplicate-id rule across ranges. A record of a later range
  whose id an earlier range accepted is a duplicate_id rejection after all;
  the accepted ones are read again from their range and parsed again, and
  the consumer takes them back out;
- under strict mode it raises the error with the smallest line number.

So every output, statistic and message is the one a single pass gives. A
pipe, a corpus too short for two ranges, a single core, or a platform
without os.fork is read in one pass.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
from collections.abc import Callable
from itertools import chain, islice

from .errors import IoFailure, MalformedRecord, UnknownCategory
from .ingest import (
    MAX_KEPT_DIAGNOSTICS,
    READ_BLOCK,
    REASON_DUPLICATE_ID,
    REASON_UNKNOWN_CATEGORY,
    CorpusReader,
    CorpusStats,
)

#: Fewest corpus bytes per range. A fork costs about 3 ms, and sending and
#: merging a range's results about 1 us per tally key. institutions-rank has
#: the densest tally measured: each of its 1.2 MiB ranges sends 65,000 keys,
#: about 70 ms of merging against about 110 ms of reading saved. Ranges of
#: 3 MiB of the other workloads, with sparser tallies, cut a fifth of the
#: run.
MIN_SHARD_BYTES = 1 << 20

#: Most ranges a corpus is cut into. The parent merges the ranges one after
#: another, at about 1 us per tally key of each, and a dense tally repeats
#: most of its keys in every range: so the merge grows with the range count
#: while the reading each range saves shrinks. Two ranges pay; more have
#: not been measured.
MAX_SHARDS = 2

#: Entries per chunk that a child writes.
CHUNK = 1 << 10

Span = tuple[int, int | None]


def _line_start(stream, pos: int) -> int:
    """The first line start at or after byte `pos` > 0 of a seekable stream,
    or the stream's size if none follows."""
    base = pos - 1
    stream.seek(base)
    while block := stream.read(READ_BLOCK):
        ends = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
        if ends:
            j = min(ends)
            if block[j:j + 1] == b"\r" and (block[j + 1:j + 2] or stream.read(1)) == b"\n":
                j += 1
            return base + j + 1
        base += len(block)
    return base


def shard_spans(path) -> list[Span | None]:
    """The byte ranges to read the corpus at `path` in, the last one running
    to the end of the file, or [None], one pass over the whole of it: for
    anything but a regular file, or where os.fork is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return [None]
    try:
        # A stat, not an open: opening a named pipe would start its writer,
        # and closing it again could cut the writer off.
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            return [None]
        size = info.st_size
        n = min(MAX_SHARDS, len(os.sched_getaffinity(0)), size // MIN_SHARD_BYTES)
        if n < 2:
            return [None]
        with open(path, "rb") as stream:
            starts = sorted({0, *(_line_start(stream, size * i // n)
                                  for i in range(1, n))} - {size})
    except OSError:
        return [None]  # the reader says what is wrong with the path
    if len(starts) < 2:
        return [None]
    return list(zip(starts, [*starts[1:], None]))


def read_corpus(path, open_range: Callable[[Span | None], CorpusReader],
                consumer) -> CorpusStats:
    """Feed the corpus at `path` to a consumer, its ranges on several cores,
    and return the statistics of the whole corpus.

    open_range(span) makes the reader of a byte range, or of the whole file
    when span is None. The consumer has an Aggregator's methods:
    add_all(reader) consumes a range, and in a child counts() gives the
    consumer's state as plain tuples. The parent hands each later range's
    tuples to add_counts(), then that range's accepted records that prove
    duplicates of an earlier range's to remove_all().
    """
    spans = shard_spans(path)
    if spans == [None]:
        reader = open_range(None)
        consumer.add_all(reader)
        return reader.stats
    # Buffered output would otherwise be written again by a child.
    sys.stdout.flush()
    sys.stderr.flush()
    # pid -> read end of its pipe and the reader of its range, until reaped
    children: dict[int, tuple] = {}
    try:
        for span in spans[1:]:
            reader = open_range(span)
            pid, pipe = _fork(reader, consumer)
            children[pid] = pipe, reader
        head = open_range(spans[0])
        consumer.add_all(head)
        merge = _Merge(head, consumer)
        pending = list(children.items())
        for i, (pid, (pipe, reader)) in enumerate(pending):
            with pipe:
                merge.add(pipe, reader, last=i == len(pending) - 1)
            os.waitpid(pid, 0)
            del children[pid]
        return head.stats
    finally:
        if children:
            # Only a failed run gets here, so only it loads the module.
            import signal
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(reader: CorpusReader, consumer):
    """Start a child that reads `reader`'s range and writes its results to a
    pipe; return its pid and the pipe's read end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's code.
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                _send(out, reader, consumer)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _send(out, reader: CorpusReader, consumer) -> None:
    """Consume a range and write a header of its statistics, the consumer's
    state in chunks, None, the duplicate checks in chunks, and None.

    marshal writes plain data only, and needs no module beyond the
    interpreter's own. It keeps an interned string interned, so the parent
    gets the categories and actor ids as the strings it already holds."""
    def send(obj) -> None:
        data = marshal.dumps(obj)
        out.write(len(data).to_bytes(8, "little"))
        out.write(data)

    error = None
    try:
        consumer.add_all(reader)
    except (MalformedRecord, UnknownCategory) as exc:
        # Strict mode stopped the pass at its last line; the message reads
        # "line N: ...".
        error = (reader.lines, type(exc).__name__, str(exc).partition(": ")[2])
    stats = reader.stats
    codes, ids, years = reader.checks
    send((reader.lines, stats.records_read, stats.records_accepted,
          stats.records_rejected, dict(stats.rejection_reasons),
          stats.year_min, stats.year_max, years,
          stats.diagnostics, error))
    if error is None:
        items = iter(consumer.counts())
        while chunk := list(islice(items, CHUNK)):
            send(chunk)
    send(None)
    for i in range(0, len(ids), CHUNK):
        send((codes[i:i + CHUNK].tolist(), ids[i:i + CHUNK]))
    send(None)


class _Merge:
    """The statistics of the ranges merged so far, the ids they accepted, and
    their line count, starting from range 0 read in this process."""

    def __init__(self, head: CorpusReader, consumer):
        self.head = head
        self.stats = head.stats
        self.seen = head.seen
        self.lines = head.lines
        self.consumer = consumer

    def add(self, pipe, reader: CorpusReader, last: bool) -> None:
        """Merge the next range, read by `reader` in a child, from the
        child's pipe; the last range's ids are checked but not kept."""
        def load():
            size = int.from_bytes(pipe.read(8), "little")
            data = pipe.read(size)
            if not size or len(data) < size:
                raise IoFailure(f"cannot read corpus {self.head.path}: "
                                "a reading process ended early")
            return marshal.loads(data)

        (lines, read, accepted, rejected, reasons, lo, hi, years, diagnostics,
         error) = load()
        base, seen, strict = self.lines, self.seen, self.head.options.strict
        self.consumer.add_counts(chain.from_iterable(iter(load, None)))
        # "line N: reason (detail)", keyed by N
        notes = {}
        for message in diagnostics:
            where, _, note = message.partition(": ")
            notes[int(where[5:])] = note
        dropped = []
        for codes, ids in iter(load, None):
            for code, rec_id in zip(codes, ids):
                if rec_id not in seen:
                    if code & 1 and not last:
                        seen.add(rec_id)
                    continue
                line = code >> 1
                if strict:
                    raise MalformedRecord(base + line, f"duplicate id {rec_id!r}")
                reasons[REASON_DUPLICATE_ID] = reasons.get(REASON_DUPLICATE_ID, 0) + 1
                if code & 1:
                    accepted -= 1
                    rejected += 1
                    dropped.append(line)
                else:  # the duplicate check comes before the registry's
                    reasons[REASON_UNKNOWN_CATEGORY] -= 1
                if code & 1 or line in notes:
                    notes[line] = f"{REASON_DUPLICATE_ID} ({rec_id})"
            if len(notes) > MAX_KEPT_DIAGNOSTICS:
                notes = dict(sorted(notes.items())[:MAX_KEPT_DIAGNOSTICS])
        if dropped:
            records = reader.records_at(dropped)
            for record in records:
                years[record.year] -= 1
            self.consumer.remove_all(records)
            kept = [year for year, n in years.items() if n]
            lo, hi = (min(kept), max(kept)) if kept else (None, None)
        if error is not None:
            line, kind, text = error
            if kind == UnknownCategory.__name__:
                raise UnknownCategory(f"line {base + line}: {text}")
            raise MalformedRecord(base + line, text)

        stats = self.stats
        stats.records_read += read
        stats.records_accepted += accepted
        stats.records_rejected += rejected
        stats.rejection_reasons.update({k: n for k, n in reasons.items() if n})
        if lo is not None:
            stats.year_min = lo if stats.year_min is None else min(stats.year_min, lo)
            stats.year_max = hi if stats.year_max is None else max(stats.year_max, hi)
        stats.diagnostics += [f"line {base + line}: {note}"
                              for line, note in sorted(notes.items())]
        del stats.diagnostics[MAX_KEPT_DIAGNOSTICS:]
        self.lines += lines
