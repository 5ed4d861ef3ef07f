"""Reading a corpus in one byte range, or in two on two cores: the second in
a forked child, merged into the first.

NOAI is a linear function of integer counts, so the weighed tallies of the
parts of a corpus add up to the weighed tally of the whole. A corpus that is
a regular file of at least 2 * MIN_SHARD_BYTES, read by a process that may
run on at least two cores, is cut in two at the first line start at or after
its middle: after a \\n, or after a \\r that is not followed by \\n, so a
\\r\\n is never split. The first range is read in this process and the
second in a child made by os.fork(); each range runs the command's consumer
on its own CorpusReader, and an Aggregator tallies its range's cells where
it was read, so both processes count at once. The child sends back only plain
data (dicts, lists, tuples, ints and strs) through a pipe, in bounded chunks
serialized by `marshal`: its statistics, its duplicate checks, then the
consumer's state, an Aggregator's weighed cells. The parent merges them into
the first range's results:

- it applies the duplicate-id rule across the ranges. A record of the
  second range whose id the first accepted is a duplicate_id rejection after
  all: the child's counts of accepted records, of rejections by reason and
  of years are corrected for it, and then added to the first range's. The
  accepted ones are read again from their range and parsed again, and the
  consumer takes them back out of its weighed cells;
- it renumbers the child's diagnostics by adding the first range's line
  count, and keeps the first MAX_KEPT_DIAGNOSTICS in line order;
- under strict mode it raises the error with the smallest line number.

So every output, statistic and message is the one a single pass gives. Any
other corpus (a pipe, a short file, a single core, a platform without
os.fork, a fork that fails) is read in one range, in this process, and no
child is started.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
from collections.abc import Callable
from itertools import chain

from .errors import IoFailure, MalformedRecord, UnknownCategory
from .ingest import (
    MAX_KEPT_DIAGNOSTICS,
    REASON_DUPLICATE_ID,
    REASON_UNKNOWN_CATEGORY,
    CorpusReader,
    CorpusStats,
    _line_blocks,
)

#: Fewest corpus bytes per range. A fork costs about 1 ms, and the parent
#: loads and merges the child's tally at about 0.2 us a count.
#: institutions-rank has the densest tally measured: each of its 1.2 MiB
#: ranges credits about 100,000 (owner, category) pairs to about 50,000
#: counts, and the serial tail after both ranges are counted, about 11 ms,
#: is a sixth of the 70 ms pass over a range.
MIN_SHARD_BYTES = 1 << 20

#: Duplicate checks per chunk that a child writes, and the fewest values (an
#: Aggregator's cells) that close a chunk of whole entries of the state.
CHUNK = 1 << 10

Span = tuple[int, int | None]


def _line_start(stream, pos: int) -> int:
    """The first line start at or after byte `pos` > 0 of a seekable stream,
    or the stream's size if none follows: the end of the line that holds
    byte pos - 1. A line block never ends inside a \\r\\n."""
    stream.seek(pos - 1)
    return pos - 1 + len(next(_line_blocks(stream)).splitlines(True)[0])


def shard_spans(path) -> list[Span]:
    """The byte ranges to read the corpus at `path` in, the last one running
    to the end of the file: two, split at the first line start at or after
    the middle, or [(0, None)], the whole of it."""
    whole = [(0, None)]
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return whole
    try:
        # A stat, not an open: opening a named pipe would start its writer,
        # and closing it again could cut the writer off.
        info = os.stat(path)
        size = info.st_size
        if not stat.S_ISREG(info.st_mode) or size < 2 * MIN_SHARD_BYTES:
            return whole
        with open(path, "rb") as stream:
            edge = _line_start(stream, size // 2)
    except OSError:
        return whole  # the reader says what is wrong with the path
    return whole if edge == size else [(0, edge), (edge, None)]


def read_corpus(path, open_range: Callable[[Span], CorpusReader],
                consumer) -> CorpusStats:
    """Feed the corpus at `path` to a consumer, in the ranges of shard_spans,
    and return the statistics of the whole corpus.

    open_range(span) makes the reader of a byte range. The consumer has an
    Aggregator's methods: add_all(reader) consumes a range, and in the child
    counts() gives the consumer's state as plain tuples. The parent hands the
    second range's tuples to add_counts(), then that range's accepted records
    that prove duplicates of the first range's to remove_all(). A fork that
    fails, for want of processes or memory, leaves the corpus to be read in
    one range.
    """
    spans = shard_spans(path)
    pid = None
    try:
        if len(spans) == 2:
            tail = open_range(spans[1])
            # Buffered output would otherwise be written again by the child.
            flush_stdio()
            try:
                pid, pipe = _fork(tail, consumer)
            except OSError:
                spans = [(0, None)]
        head = open_range(spans[0])
        consumer.add_all(head)
        if pid is not None:
            with pipe:
                _merge(head, consumer, pipe, tail)
            os.waitpid(pid, 0)
            pid = None
        return head.stats
    finally:
        if pid is not None:
            # Only a failed run gets here, so only it loads the module.
            import signal
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def flush_stdio() -> None:
    """Flush standard output, then standard error, skipping either one that
    is None: the interpreter leaves it so when its descriptor was closed at
    start. An error writing standard output is raised. Standard error is
    written where it can be: a run whose standard error is broken goes on
    without it."""
    if sys.stdout is not None:
        sys.stdout.flush()
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass


def _fork(reader: CorpusReader, consumer):
    """Start a child that reads `reader`'s range and writes its results to a
    pipe; return its pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
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
    """Consume a range and write a header of its statistics, the duplicate
    checks in chunks, None, the consumer's state in chunks, and None.

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
        error = (reader.lines, type(exc) is UnknownCategory, str(exc).partition(": ")[2])
    stats = reader.stats
    codes, ids = reader.checks
    send((stats.records_read, stats.records_accepted, dict(stats.rejection_reasons),
          dict(stats.years), stats.diagnostics, error))
    for i in range(0, len(ids), CHUNK):
        send((codes[i:i + CHUNK].tolist(), ids[i:i + CHUNK]))
    send(None)
    if error is None:
        chunk, size = [], 0
        for entry in consumer.counts():
            chunk.append(entry)
            size += len(entry[1])
            if size >= CHUNK:
                send(chunk)
                chunk, size = [], 0
        send(chunk)
    send(None)


def _merge(head: CorpusReader, consumer, pipe, reader: CorpusReader) -> None:
    """Merge the second range, read by `reader` in the child, from the
    child's pipe into the first range's reader `head` and the consumer."""
    def load():
        size = int.from_bytes(pipe.read(8), "little")
        data = pipe.read(size)
        if not size or len(data) < size:
            raise IoFailure(f"cannot read corpus {head.path}: "
                            "a reading process ended early")
        return marshal.loads(data)

    read, accepted, reasons, years, diagnostics, error = load()
    base, seen, stats = head.lines, head.seen, head.stats
    notes = {line: (reason, detail) for line, reason, detail in diagnostics}
    dropped = []
    for codes, ids in iter(load, None):
        if seen.isdisjoint(ids):  # most chunks hold no duplicate
            continue
        for code, rec_id in zip(codes, ids):
            if rec_id not in seen:
                continue
            line = code >> 1
            if head.options.strict:
                raise MalformedRecord(f"line {base + line}: duplicate id {rec_id!r}")
            reasons[REASON_DUPLICATE_ID] = reasons.get(REASON_DUPLICATE_ID, 0) + 1
            if code & 1:
                accepted -= 1
                dropped.append(line)
            else:  # the duplicate check comes before the registry's
                reasons[REASON_UNKNOWN_CATEGORY] -= 1
            if code & 1 or line in notes:
                notes[line] = (REASON_DUPLICATE_ID, rec_id)
        if len(notes) > MAX_KEPT_DIAGNOSTICS:
            notes = dict(sorted(notes.items())[:MAX_KEPT_DIAGNOSTICS])
    if error is not None:
        line, unknown, text = error
        raise (UnknownCategory if unknown else MalformedRecord)(f"line {base + line}: {text}")
    consumer.add_counts(chain.from_iterable(iter(load, None)))
    if dropped:
        records = reader.records_at(dropped)
        for record in records:
            years[record.year] -= 1
        consumer.remove_all(records)

    stats.records_read += read
    stats.records_accepted += accepted
    # A Counter's += keeps only the counts above zero.
    stats.rejection_reasons += reasons
    stats.years += years
    stats.diagnostics += [(base + line, *note) for line, note in sorted(notes.items())]
    del stats.diagnostics[MAX_KEPT_DIAGNOSTICS:]
