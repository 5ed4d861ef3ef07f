"""Reading a corpus in byte ranges: one range and two give the same tally,
statistics, diagnostics, outputs, errors and exit codes, whatever lies on
either side of the range edge, a run in one range starts no process, and no
child process outlives a run."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import marshal
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noai.ingest as ingest
import noai.shards as shards
from conftest import REG10, random_corpus, registry_csv_text, serialize_record
from noai.cli import main
from noai.engine import Aggregator
from noai.errors import MalformedRecord, NoaiError, UnknownCategory
from noai.ingest import CorpusReader, CorpusStats, IngestOptions
from test_cli import CLI_DIGESTS, CLI_GOLDEN, DEMO_SPEC, child_env


@contextmanager
def shard_count(n):
    """Cut every corpus into n ranges, one or two, as if on n cores."""
    with mock.patch.object(shards, "MIN_SHARD_BYTES", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n))):
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def text(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def planted_corpus(seed: int, n_records: int = 60) -> bytes:
    """Good records with bad lines planted among them at random, so that
    every range edge has some on both sides: duplicates of earlier accepted
    and unknown-category ids, malformed lines, empty categories, unknown
    categories, blank lines, and lines ending in \\n, \\r\\n and a lone \\r."""
    rng = random.Random(seed)
    ids = []
    lines = []
    for i, record in enumerate(random_corpus(seed, n_records)):
        obj = serialize_record(record)
        kind = rng.choice(("good", "good", "dup", "malformed", "empty", "unknown",
                           "unknown-dup", "blank"))
        if kind == "dup" and ids:
            obj["id"] = rng.choice(ids)
        elif kind == "malformed":
            lines.append(text(obj)[: rng.randrange(1, 40)])
        elif kind == "empty":
            lines.append(text({**obj, "categories": []}))
        elif kind in ("unknown", "unknown-dup"):
            rec_id = rng.choice(ids) if kind == "unknown-dup" and ids else f"u{i}"
            lines.append(text({**obj, "id": rec_id, "categories": ["Alchemy"]}))
            ids.append(rec_id)
        elif kind == "blank":
            lines.append(" " * rng.randrange(3))
        lines.append(text(obj))
        ids.append(obj["id"])
    ends = [rng.choice((b"\n", b"\r\n", b"\r")) for _ in lines]
    return b"".join(line.encode() + end for line, end in zip(lines, ends))


def write(tmp_path, data: bytes):
    (tmp_path / "corpus.jsonl").write_bytes(data)
    (tmp_path / "registry.csv").write_text(registry_csv_text(REG10), encoding="utf-8")
    return tmp_path / "corpus.jsonl", tmp_path / "registry.csv"


def tally(path, n, options, registry=REG10):
    """The tally, statistics and diagnostics of a pass in n ranges."""
    agg = Aggregator()
    with shard_count(n):
        assert len(shards.shard_spans(path)) == n
        stats = shards.read_corpus(
            path, lambda span: CorpusReader(path, registry, options, span), agg)
    assert_no_child_left()
    return (dict(agg.counts()),
            stats.as_dict(), stats.diagnostics)


def cli_run(tmp_path, capsys, n, argv):
    """Exit code, stderr and written files of a CLI run in n ranges."""
    out = tmp_path / "out.json"
    for path in (out, tmp_path / "out.json.manifest.json"):
        path.unlink(missing_ok=True)
    with shard_count(n):
        code = main([*argv, "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--registry", str(tmp_path / "registry.csv"),
                     "--format", "json", "--out", str(out)])
    assert_no_child_left()
    files = [p.read_bytes() for p in (out, tmp_path / "out.json.manifest.json")
             if p.exists()]
    return code, capsys.readouterr().err, files


OPTIONS = [
    IngestOptions(),
    IngestOptions(actor_kind=None, window=(2016, 2018), require_doi=True),
]


def stats_corpus(seed: int, n_records: int = 60) -> list[bytes]:
    """The lines of a random_corpus with bad lines planted among them:
    malformed lines, empty and unknown categories, blank lines, and a
    record's id again on the next line, with a year no other record has,
    the only id that repeats."""
    rng = random.Random(seed)
    lines = []
    for i, record in enumerate(random_corpus(seed, n_records)):
        obj = serialize_record(record)
        lines.append(text(obj))
        kind = rng.choice(("good", "good", "dup", "malformed", "empty", "unknown", "blank"))
        if kind == "dup":
            lines.append(text({**obj, "year": 2030}))
        elif kind == "malformed":
            lines.append(text(obj)[: rng.randrange(1, 40)])
        elif kind == "empty":
            lines.append(text({**obj, "id": f"e{i}", "categories": []}))
        elif kind == "unknown":
            lines.append(text({**obj, "id": f"u{i}", "categories": ["Alchemy"]}))
        elif kind == "blank":
            lines.append(" " * rng.randrange(3))
    return [(line + "\n").encode() for line in lines]


def line_id(line: bytes):
    try:
        return json.loads(line)["id"]
    except (ValueError, KeyError):
        return None


class TestLineStarts:
    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.sampled_from([b"x", b"yz", b"\n", b"\r", b"\r\n"]),
                         min_size=1).map(b"".join),
           block=st.integers(1, 5), pick=st.integers(0))
    def test_first_line_start_at_or_after(self, data, block, pick):
        pos = 1 + pick % len(data)

        def starts_line(q):
            return (q == len(data) or data[q - 1:q] == b"\n"
                    or (data[q - 1:q] == b"\r" and data[q:q + 1] != b"\n"))

        with mock.patch.object(ingest, "READ_BLOCK", block):
            start = shards._line_start(io.BytesIO(data), pos)
        assert pos <= start <= len(data) and starts_line(start)
        assert not any(starts_line(q) for q in range(pos, start))
        assert data[:start].splitlines() + data[start:].splitlines() == data.splitlines()


class TestStatsSplitLaw:
    """A pass's statistics are counts: those of two ranges with no id on both
    sides of their edge add up to those of one pass."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("options", OPTIONS, ids=["countries", "world-filtered"])
    def test_ranges_add_up_to_one_pass(self, tmp_path, seed, options):
        lines = stats_corpus(seed)
        path, _ = write(tmp_path, b"".join(lines))
        whole = CorpusReader(path, REG10, options)
        list(whole)
        ids = [line_id(line) for line in lines]
        cuts = [cut for cut in range(len(lines) + 1)
                if not set(ids[:cut]) & set(ids[cut:]) - {None}]
        assert len(cuts) > len(lines) // 2
        for cut in cuts:
            edge = len(b"".join(lines[:cut]))
            parts = [CorpusReader(path, REG10, options, span)
                     for span in ((0, edge), (edge, None))]
            for part in parts:
                list(part)
            first, second = (part.stats for part in parts)
            summed = CorpusStats()
            summed.records_read = first.records_read + second.records_read
            summed.records_accepted = first.records_accepted + second.records_accepted
            summed.rejection_reasons = first.rejection_reasons + second.rejection_reasons
            summed.years = first.years + second.years
            stats = whole.stats
            assert (summed.records_read, summed.records_accepted) == (
                stats.records_read, stats.records_accepted), cut
            assert summed.rejection_reasons == stats.rejection_reasons, cut
            assert summed.years == stats.years, cut
            assert summed.as_dict() == stats.as_dict(), cut
            renumbered = [(parts[0].lines + line, reason, detail)
                          for line, reason, detail in second.diagnostics]
            assert ((first.diagnostics + renumbered)[:ingest.MAX_KEPT_DIAGNOSTICS]
                    == stats.diagnostics), cut


class TestShardedPass:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("options", OPTIONS, ids=["countries", "world-filtered"])
    def test_ranges_give_one_pass(self, tmp_path, seed, options):
        path, _ = write(tmp_path, planted_corpus(seed))
        assert tally(path, 2, options) == tally(path, 1, options)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_shifted_corpus_moves_every_edge(self, tmp_path, seed):
        # Leading blank lines move the edge through the lines after it.
        data = planted_corpus(seed, 30)
        for shift in range(0, 120, 7):
            path, _ = write(tmp_path, b"\n" * shift + data)
            one = tally(path, 1, IngestOptions())
            assert tally(path, 2, IngestOptions()) == one, shift

    @pytest.mark.parametrize("argv", [
        ["indicators", "--actor-kind", "country"],
        ["rank", "--window", "2016:2019"],
        ["series", "--doc-types", "article,review", "--require-doi"],
        ["validate"],
        ["validate", "--strict"],
    ], ids=lambda a: "-".join(a[:2]))
    def test_cli_outputs_do_not_depend_on_ranges(self, tmp_path, capsys, argv):
        for seed in range(3):
            write(tmp_path, planted_corpus(seed))
            one = cli_run(tmp_path, capsys, 1, argv)
            assert one[1].startswith("corpus: ")
            assert cli_run(tmp_path, capsys, 2, argv) == one

    def test_duplicates_past_the_last_edge(self, tmp_path):
        # The last lines repeat ids of the first: one accepted with a year no
        # other record has, one with an unknown category, which the duplicate
        # check comes before. Neither leaves a trace in the year range or in
        # the rejection reasons.
        def record(rec_id, year=2016, categories=("Oncology",)):
            return text({"id": rec_id, "year": year, "doc_type": "article",
                         "categories": list(categories), "countries": ["FRA"]})

        lines = [record("x"), record("y"), *(record(f"g{i}") for i in range(40)),
                 record("x", 2030, ("Mathematics", "Oncology")),
                 record("y", categories=("Alchemy",))]
        path, _ = write(tmp_path, "\n".join(lines).encode())
        one = tally(path, 1, IngestOptions())
        assert one[1]["year_range"] == [2016, 2016]
        assert one[1]["rejection_reasons"] == {"duplicate_id": 2}
        assert one[2] == [(43, "duplicate_id", "x"), (44, "duplicate_id", "y")]
        assert tally(path, 2, IngestOptions()) == one

    def test_validate_drops_diagnostics_of_duplicates(self, tmp_path, capsys):
        # Two copies of one unknown-category record, in different ranges:
        # the second is a duplicate, so it has no validate diagnostic.
        bad = text({"id": "x", "year": 2016, "doc_type": "article", "categories": ["Alchemy"]})
        good = [text({"id": f"g{i}", "year": 2016, "doc_type": "article",
                      "categories": ["Oncology"]}) for i in range(20)]
        write(tmp_path, "\n".join([bad, *good, bad, *good[:1]]).encode())
        results = [cli_run(tmp_path, capsys, n, ["validate"]) for n in (1, 2)]
        assert results[0] == results[1]
        assert json.loads(results[0][2][0])["diagnostics"] == [
            {"record_id": "x", "unknown_categories": ["Alchemy"]}]
        assert "duplicate_id=2" in results[0][1]

    def test_no_record_accepted(self, tmp_path, capsys):
        lines = [text({"id": f"u{i}", "year": 2016, "doc_type": "article",
                       "categories": ["Alchemy"]}) for i in range(10)]
        write(tmp_path, "\r\n".join(["oops", *lines, "", "{}"]).encode())
        one = cli_run(tmp_path, capsys, 1, ["indicators"])
        assert one[0] == 3 and one[1].endswith("noai: no record accepted\n")
        assert cli_run(tmp_path, capsys, 2, ["indicators"]) == one


def strict_corpus(position: int, bad: str) -> bytes:
    """Forty good lines, the bad line `bad` at `position` and a malformed last
    line, which a strict run must never report first."""
    good = [text(serialize_record(r)) for r in random_corpus(3, 40)]
    lines = [*good[:position], bad, *good[position:], "oops"]
    return "\r\n".join(lines).encode()


def strict_outcome(path, n):
    options = IngestOptions(strict=True)
    try:
        tally(path, n, options)
    except NoaiError as exc:
        assert_no_child_left()
        return type(exc), str(exc)
    raise AssertionError("a strict pass over a bad corpus ended without error")


class TestStrict:
    @pytest.mark.parametrize("kind", ["malformed", "unknown", "duplicate", "unknown-duplicate"])
    def test_first_error_in_line_order(self, tmp_path, kind):
        # The bad line moves through both ranges; the first error wins,
        # whichever range holds it.
        earlier = text(serialize_record(random_corpus(3, 1)[0]))
        for position in range(1, 41, 3):
            bad = {
                "malformed": "{not json",
                "unknown": text({"id": "zz", "year": 2016, "doc_type": "article",
                                 "categories": ["Alchemy"]}),
                "duplicate": earlier,
                "unknown-duplicate": text({**json.loads(earlier), "categories": ["Alchemy"]}),
            }[kind]
            path, _ = write(tmp_path, strict_corpus(position, bad))
            one = strict_outcome(path, 1)
            assert one[0] is (UnknownCategory if kind == "unknown" else MalformedRecord)
            assert one[1].startswith(f"line {position + 1}: ")
            assert strict_outcome(path, 2) == one, position

    def test_strict_cli_messages(self, tmp_path, capsys):
        unknown = text({"id": "zz", "year": 2016, "doc_type": "article",
                        "categories": ["Alchemy"]})
        for position, bad, message in (
                (5, "{not json", "malformed: "),
                (30, "oops", "malformed: "),
                (30, unknown, "record 'zz' has unknown categories ['Alchemy']")):
            write(tmp_path, strict_corpus(position, bad))
            one = cli_run(tmp_path, capsys, 1, ["indicators", "--strict"])
            assert one[0] == 3
            assert one[1].startswith(f"noai: line {position + 1}: {message}")
            assert cli_run(tmp_path, capsys, 2, ["indicators", "--strict"]) == one


class Failing(Aggregator):
    """Raises `error` on the range that starts at byte `start`."""

    def __init__(self, start, error):
        super().__init__()
        self.start, self.error = start, error

    def add_all(self, reader):
        if reader.span[0] == self.start:
            raise self.error
        super().add_all(reader)


class TestChildren:
    def test_children_are_reaped_when_the_parent_is_interrupted(self, tmp_path):
        path, _ = write(tmp_path, planted_corpus(0))
        with shard_count(2), pytest.raises(KeyboardInterrupt):
            shards.read_corpus(path, lambda span: CorpusReader(path, REG10, None, span),
                               Failing(0, KeyboardInterrupt()))
        assert_no_child_left()

    def test_a_child_that_fails_is_a_data_error(self, tmp_path):
        path, _ = write(tmp_path, planted_corpus(0))
        with shard_count(2):
            spans = shards.shard_spans(path)
            with pytest.raises(NoaiError, match="ended early"):
                shards.read_corpus(path, lambda span: CorpusReader(path, REG10, None, span),
                                   Failing(spans[1][0], MemoryError()))
        assert_no_child_left()


class TestChunks:
    @pytest.mark.parametrize("options", OPTIONS, ids=["countries", "world-filtered"])
    def test_small_chunks_give_one_pass(self, tmp_path, options):
        # With 3 per chunk, both the duplicate checks and the cells of the
        # child's state cross many chunks. A state chunk holds whole owners
        # and closes at its first entry that brings it to 3 cells or more.
        path, _ = write(tmp_path, planted_corpus(5, 200))
        one = tally(path, 1, options)
        loaded = []

        def loads(data):
            loaded.append(marshal.loads(data))
            return loaded[-1]

        with mock.patch.object(shards, "CHUNK", 3), \
                mock.patch.object(shards, "marshal", SimpleNamespace(dumps=marshal.dumps,
                                                                     loads=loads)):
            assert tally(path, 2, options) == one
        checks = [x for x in loaded if type(x) is tuple and len(x) == 2]
        state = [x for x in loaded if type(x) is list]
        assert len(checks) > 10 and all(len(ids) <= 3 for _, ids in checks)
        assert len(state) > 3
        assert all(sum(len(v) for _, v in chunk[:-1]) < 3 <= sum(len(v) for _, v in chunk)
                   for chunk in state[:-1])

    def test_duplicates_in_the_first_a_middle_and_the_last_chunk(self, tmp_path):
        # The parent checks a chunk of ids record by record only when it
        # holds an id the first range accepted; here the first, a middle
        # and the last of the child's chunks do.
        records = random_corpus(9, 90)
        data = "".join(text(serialize_record(r)) + "\n" for r in records).encode()
        path, _ = write(tmp_path, data)
        with shard_count(2):
            (_, edge), _ = shards.shard_spans(path)
        cut = data[:edge].count(b"\n")
        tail = len(records) - cut
        for j in (0, 3 * (tail // 6), tail - 1):
            # An id of the first range, of the same length, so the edge stays.
            records[cut + j] = records[cut + j]._replace(id=records[j].id)
        path, _ = write(tmp_path, "".join(text(serialize_record(r)) + "\n"
                                          for r in records).encode())
        one = tally(path, 1, IngestOptions())
        loaded = []

        def loads(data):
            loaded.append(marshal.loads(data))
            return loaded[-1]

        with mock.patch.object(shards, "CHUNK", 3), \
                mock.patch.object(shards, "marshal", SimpleNamespace(dumps=marshal.dumps,
                                                                     loads=loads)):
            assert tally(path, 2, IngestOptions()) == one
        head = {r.id for r in records[:cut]}
        checks = [x[1] for x in loaded if type(x) is tuple and len(x) == 2]
        hits = [i for i, ids in enumerate(checks) if head.intersection(ids)]
        assert len(checks) > 10 and hits == [0, tail // 6, len(checks) - 1]
        assert one[1]["rejection_reasons"]["duplicate_id"] == 3


class TestPipe:
    def test_piped_corpus_is_one_pass_and_matches_the_file(self, tmp_path, capsys):
        data = planted_corpus(4, 200)
        write(tmp_path, data)
        argv = ["indicators", "--registry", str(tmp_path / "registry.csv")]
        with shard_count(2):
            assert len(shards.shard_spans(tmp_path / "corpus.jsonl")) == 2
            assert main([*argv, "--corpus", str(tmp_path / "corpus.jsonl")]) == 0
        from_file = capsys.readouterr()
        assert from_file.out.startswith("actor,")

        r, w = os.pipe()
        feeder = threading.Thread(target=lambda: (os.write(w, data), os.close(w)))
        feeder.start()
        try:
            with shard_count(2):
                assert shards.shard_spans(f"/dev/fd/{r}") == [(0, None)]
                assert main([*argv, "--corpus", f"/dev/fd/{r}"]) == 0
        finally:
            feeder.join()
            os.close(r)
        assert capsys.readouterr() == from_file

        proc = subprocess.run(
            [sys.executable, "-m", "noai", *argv, "--corpus", "/dev/stdin"],
            input=data, capture_output=True, env=child_env(), timeout=60)
        assert (proc.stdout.decode(), proc.stderr.decode()) == tuple(from_file)


    def test_named_pipe_is_opened_once(self, tmp_path, capsys):
        # The writer starts when the reader opens the pipe. Were the pipe
        # opened to be classified and closed again, the writer would lose its
        # reader in the middle of more than a pipe buffer of data, and the
        # second open would wait for a writer that never comes.
        data = planted_corpus(4, 1000)
        assert len(data) > 1 << 17
        write(tmp_path, data)
        argv = ["indicators", "--registry", str(tmp_path / "registry.csv")]
        with shard_count(2):
            assert main([*argv, "--corpus", str(tmp_path / "corpus.jsonl")]) == 0
        from_file = capsys.readouterr()

        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        # With no writer yet, opening the pipe would block: classifying it
        # must not open it.
        spans = []
        probe = threading.Thread(target=lambda: spans.append(shards.shard_spans(fifo)))
        probe.start()
        probe.join(10)
        blocked = probe.is_alive()
        if blocked:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            probe.join(10)
        assert not blocked and spans == [[(0, None)]]

        failures = []

        def feed():
            try:
                with open(fifo, "wb") as out:
                    out.write(data)
            except OSError as exc:
                failures.append(exc)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "noai", *argv, "--corpus", str(fifo)],
                capture_output=True, env=child_env(), timeout=60)
        finally:
            if feeder.is_alive():
                # Release a writer still waiting for a reader.
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            feeder.join(10)
        assert not feeder.is_alive() and not failures
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            0, *from_file)


class TestOneRange:
    def test_a_run_in_one_range_starts_no_process(self, tmp_path, capsys):
        # From a pipe, on one core and from a corpus too short to cut, a run
        # prints what a run in two ranges prints, with os.fork failing.
        data = planted_corpus(4, 200)
        path, registry = write(tmp_path, data)
        argv = ["indicators", "--registry", str(registry)]
        with shard_count(2):
            assert len(shards.shard_spans(path)) == 2
            assert main([*argv, "--corpus", str(path)]) == 0
        two = capsys.readouterr()
        assert two.out.startswith("actor,")

        def fork():
            raise AssertionError("a run in one range started a process")

        with mock.patch.object(os, "fork", fork):
            r, w = os.pipe()
            feeder = threading.Thread(target=lambda: (os.write(w, data), os.close(w)))
            feeder.start()
            try:
                with shard_count(2):
                    assert main([*argv, "--corpus", f"/dev/fd/{r}"]) == 0
            finally:
                feeder.join(10)
                os.close(r)
            assert not feeder.is_alive() and capsys.readouterr() == two

            with shard_count(1):
                assert main([*argv, "--corpus", str(path)]) == 0
            assert capsys.readouterr() == two

            assert len(data) < 2 * shards.MIN_SHARD_BYTES
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(8))):
                assert main([*argv, "--corpus", str(path)]) == 0
            assert capsys.readouterr() == two
        assert_no_child_left()


def finished(path, edge=None):
    """The finished Aggregator of a pass in one range, or in two cut at byte
    `edge`."""
    agg = Aggregator()
    spans = [(0, None)] if edge is None else [(0, edge), (edge, None)]
    with mock.patch.object(shards, "shard_spans", lambda path: spans):
        shards.read_corpus(path, lambda span: CorpusReader(path, REG10, None, span), agg)
    assert_no_child_left()
    return agg.finish()


def k_lines(prefix, ks, n):
    """n records with k categories each, k taking the values of ks in turn."""
    cats = sorted(REG10.categories)
    return [(text({"id": f"{prefix}{i}", "year": 2016 + i % 3, "doc_type": "article",
                   "categories": cats[i % 5:i % 5 + ks[i % len(ks)]],
                   "oa": ["gold"] if i % 3 else [], "countries": ["FRA", "USA"][:1 + i % 2]})
             + "\n").encode() for i in range(n)]


class TestUnitAcrossRanges:
    """The merged unit is the lcm of the k of the accepted records, as in
    one pass."""

    def test_a_duplicate_takes_its_k_out_of_the_unit(self, tmp_path):
        # The only 5-category record repeats, in the second range, an id
        # that the first range accepted.
        first, second = k_lines("a", (1, 2), 20), k_lines("b", (1, 2), 20)
        dup = k_lines("a", (5,), 1)
        path, _ = write(tmp_path, b"".join(first + second + dup))
        one = finished(path)
        assert one.unit == 2
        assert len(CorpusReader(path, REG10).records_at([41])[0].subject_categories) == 5
        assert finished(path, len(b"".join(first))) == one

    @pytest.mark.parametrize("ks", [((1, 2), (1, 4)), ((1, 4), (1, 2)), ((2,), (3,))],
                             ids=["first-rescaled", "second-rescaled", "both-rescaled"])
    def test_ranges_of_different_units(self, tmp_path, ks):
        first, second = k_lines("a", ks[0], 20), k_lines("b", ks[1], 20)
        path, _ = write(tmp_path, b"".join(first + second))
        edge = len(b"".join(first))
        units = []
        for span in ((0, edge), (edge, None)):
            part = Aggregator()
            part.add_all(CorpusReader(path, REG10, None, span))
            units.append(part.finish().unit)
        assert units == [math.lcm(*ks[0]), math.lcm(*ks[1])]
        one = finished(path)
        assert one.unit == math.lcm(*units)
        assert finished(path, edge) == one


class TestForkFailure:
    def test_a_fork_that_fails_reads_one_range(self, tmp_path, capsys):
        # Without a process to spare, a corpus cut in two is read in one
        # range, as on one core: the same output, no fd left open, no child.
        path, registry = write(tmp_path, planted_corpus(4, 200))
        argv = ["indicators", "--registry", str(registry), "--corpus", str(path)]
        with shard_count(2):
            assert len(shards.shard_spans(path)) == 2
            assert main(argv) == 0
        two = capsys.readouterr()

        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        fds = set(os.listdir("/proc/self/fd"))
        with shard_count(2), mock.patch.object(os, "fork", fork):
            assert main(argv) == 0
        assert set(os.listdir("/proc/self/fd")) == fds
        assert capsys.readouterr() == two
        assert_no_child_left()


class TestShardCount:
    def test_eight_cores_give_two_ranges(self, tmp_path):
        path, _ = write(tmp_path, planted_corpus(0))
        with open(path, "rb") as stream:
            edge = shards._line_start(stream, path.stat().st_size // 2)
        with mock.patch.object(shards, "MIN_SHARD_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(8))):
            assert shards.shard_spans(path) == [(0, edge), (edge, None)]

    def test_one_core_or_a_short_corpus_is_one_pass(self, tmp_path):
        path, _ = write(tmp_path, planted_corpus(0))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
            assert shards.shard_spans(path) == [(0, None)]
        with mock.patch.object(shards, "MIN_SHARD_BYTES", path.stat().st_size):
            assert shards.shard_spans(path) == [(0, None)]


#: Each institution's whole output and group, in corpus order: u2, u3 and
#: u4 tie at 4 and come in reverse id order.
TOP_N_ACTORS = {"u4": (4, "G1"), "u3": (4, "G1"), "u1": (5, "G1"), "u6": (1, "G1"),
                "u2": (4, "G2"), "u5": (3, "G2")}


class TestTopN:
    """--top-n keeps the first N rows, in (-x_total, actor) order, of the
    rows that --min-pubs and --group keep, in one range and in two."""

    @pytest.mark.parametrize("extra,actors", [
        (["--top-n", "3"], ["u1", "u2", "u3"]),
        (["--min-pubs", "1", "--top-n", "2"], ["u1", "u2"]),
        (["--group", "G1", "--top-n", "2"], ["u1", "u3"]),
        (["--min-pubs", "3.5", "--group", "G1", "--top-n", "3"], ["u1", "u3", "u4"]),
        (["--group", "G2", "--top-n", "5"], ["u2", "u5"]),
    ], ids=["top", "min-pubs", "group", "both", "beyond"])
    def test_first_rows_after_the_filters(self, tmp_path, capsys, extra, actors):
        lines = [text({"id": f"{actor}-{i}", "year": 2018, "doc_type": "article",
                       "categories": ["Mathematics"], "oa": ["gold"] if i % 2 else [],
                       "institutions": [actor]})
                 for actor, (n, _) in TOP_N_ACTORS.items() for i in range(n)]
        write(tmp_path, "\n".join(lines).encode() + b"\n")
        (tmp_path / "actors.csv").write_text(
            "actor_id,kind,group,display_name\n"
            + "".join(f"{a},institution,{g},{a}\n" for a, (_, g) in TOP_N_ACTORS.items()),
            encoding="utf-8")
        argv = ["indicators", "--actors", str(tmp_path / "actors.csv"),
                "--actor-kind", "institution", *extra]
        one = cli_run(tmp_path, capsys, 1, argv)
        assert one[0] == 0
        assert [r["actor"] for r in json.loads(one[2][0])["rows"]] == actors
        assert cli_run(tmp_path, capsys, 2, argv) == one


class TestGoldenInRanges:
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_golden_digests_in_two_ranges(self, tmp_path, monkeypatch, capsys, out_format):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--spec", str(DEMO_SPEC), "--out", "corpus.jsonl",
                     "--registry-out", "registry.csv", "--actors-out", "actors.csv"]) == 0
        capsys.readouterr()
        for name, (command, extra) in sorted(CLI_GOLDEN.items()):
            argv = [command, "--corpus", "corpus.jsonl", "--registry", "registry.csv"]
            if command in ("indicators", "rank"):
                argv += ["--actors", "actors.csv"]
            out = f"out.{out_format}"
            with shard_count(2):
                assert len(shards.shard_spans("corpus.jsonl")) == 2
                code = main(argv + extra + ["--format", out_format, "--out", out])
            assert_no_child_left()
            err = capsys.readouterr().err
            digests = tuple(hashlib.sha256(data).hexdigest() for data in (
                (tmp_path / out).read_bytes(),
                (tmp_path / f"{out}.manifest.json").read_bytes(),
                err.encode("utf-8")))
            assert (code, *digests) == CLI_DIGESTS[name, out_format], name
