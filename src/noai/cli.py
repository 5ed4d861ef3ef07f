"""Command-line batch runs over publication corpora.

Subcommands: ``validate`` (corpus QA against a registry), ``indicators``
(the per-actor table), ``rank`` (rank shifts between plain and
normalized openness, with Spearman rho per level), ``series`` (yearly
world shares for plotting), and ``synth`` (deterministic test corpora).

A run with ``--out`` writes a manifest next to its output file: the
resolved config, corpus ingest statistics, the tool version, and the
list of files produced.  A run to standard output writes no manifest.
Manifests and outputs carry no timestamps, so identical inputs give
byte-identical files.  CSV is the canonical format; JSON mirrors the
same rows at full float precision.

Exit codes: 0 on success, 2 on a usage error, 3 on a data error or
an output that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from typing import NoReturn

from . import __version__
from .analysis import filter_actors, rank, rank_shift, spearman
from .engine import AggregationResult, Aggregator, build_indicator_table, yearly_series
from .errors import EmptyWindow, IoFailure, NoaiError
from .ingest import (
    CorpusReader,
    CorpusStats,
    IngestOptions,
    load_actor_registry,
    load_registry,
    validate_corpus,
)
from .model import (
    DEFAULT_PRIORITY,
    RAW_STATUSES,
    ActorKind,
    ClassificationRegistry,
    DocType,
    IndicatorRow,
    Level,
    OAStatus,
)
from .shards import flush_stdio, read_corpus

INDICATOR_COLUMNS = (
    "actor",
    "display_name",
    "x_total",
    "oa_share",
    "noai_subject_category",
    "noai_ost_discipline",
    "oa_gold_share",
    "oa_bronze_share",
    "oa_green_share",
    "n_oa_whole",
)

_INDICATOR_LEVELS = (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE)
_DEFAULT_RANK_LEVELS = "subject-category,ost-discipline"


class UsageError(Exception):
    """A post-parse configuration problem; maps to exit code 2."""


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like Y1:Y2, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window start {lo} is after end {hi}")
    return lo, hi


def _parse_top_n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_min_pubs(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _parse_doc_types(text: str) -> frozenset[DocType]:
    out = set()
    for part in text.split(","):
        part = part.strip()
        try:
            out.add(DocType(part))
        except ValueError:
            valid = ", ".join(d.value for d in DocType)
            raise argparse.ArgumentTypeError(
                f"unknown doc type {part!r} (valid: {valid})"
            ) from None
    return frozenset(out)


def _parse_priority(text: str) -> tuple[OAStatus, ...]:
    order = []
    for part in text.split(","):
        part = part.strip()
        if part not in RAW_STATUSES:
            raise argparse.ArgumentTypeError(
                f"priority entries must be gold, bronze or green, got {part!r}"
            )
        order.append(OAStatus(part))
    if len(order) != len(RAW_STATUSES) or set(order) != set(RAW_STATUSES):
        raise argparse.ArgumentTypeError(
            "priority must order gold, bronze and green exactly once each"
        )
    return tuple(order)


def _parse_levels(text: str) -> tuple[Level, ...]:
    levels = []
    for part in text.split(","):
        part = part.strip()
        try:
            level = Level(part)
        except ValueError:
            valid = ", ".join(lv.value for lv in Level)
            raise UsageError(f"unknown level {part!r} (valid: {valid})") from None
        if level not in levels:
            levels.append(level)
    return tuple(levels)


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Register exactly the flags `command` reads; argparse rejects the rest."""
    p.add_argument("--corpus", required=True, help="corpus file, one record per line")
    p.add_argument("--registry", required=True, help="classification registry CSV")
    p.add_argument("--window", type=_parse_window, metavar="Y1:Y2",
                   help="publication-year window, inclusive")
    p.add_argument("--doc-types", type=_parse_doc_types, metavar="LIST",
                   help="comma-separated document types to keep (default: all)")
    p.add_argument("--require-doi", action="store_true",
                   help="drop records without a DOI")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   dest="out_format", help="output format (default csv)")
    p.add_argument("--out", help="output path (default: standard output)")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first bad record instead of skipping")
    if command != "validate":
        p.add_argument("--priority", type=_parse_priority, default=DEFAULT_PRIORITY,
                       metavar="ORDER", help="OA status precedence, e.g. gold,bronze,green")
    if command == "series":
        p.add_argument("--level", help="field breakdown level "
                                       f"(default {Level.OST_DISCIPLINE.value})")
    if command == "rank":
        p.add_argument("--level", help="comma-separated normalization levels "
                                       f"(default {_DEFAULT_RANK_LEVELS})")
    if command in ("indicators", "rank"):
        p.add_argument("--actors", help="actor registry CSV (display names, groups)")
        p.add_argument("--actor-kind", choices=[k.value for k in ActorKind],
                       default=ActorKind.COUNTRY.value, help="which actor ids to credit")
        p.add_argument("--min-pubs", type=_parse_min_pubs, metavar="X",
                       help="keep actors with fractional output strictly above X")
        p.add_argument("--top-n", type=_parse_top_n, metavar="N",
                       help="keep only the N largest producers")
        p.add_argument("--group", help="keep only actors in this group")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noai",
        description="Field-normalized open-access indicators for publication corpora.",
    )
    parser.add_argument("--version", action="version",
                        version=f"noai {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("validate", "report corpus categories missing from the registry"),
        ("indicators", "per-actor indicator table"),
        ("rank", "rank shift between plain and normalized openness"),
        ("series", "yearly world OA shares"),
    ):
        _add_flags(sub.add_parser(name, help=help_text), name)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a spec")
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--registry-out", help="also write the implied registry CSV here")
    p.add_argument("--actors-out", help="also write the implied actor CSV here")

    return parser


def _json_safe(value):
    # The enums are str subclasses, which json writes as their values.
    return sorted(value) if isinstance(value, frozenset) else value


def _manifest(args: argparse.Namespace, corpus_stats: Mapping,
              outputs: Sequence[str]) -> str:
    manifest = {
        "tool": {"name": "noai", "version": __version__},
        "command": args.command,
        "config": {k: _json_safe(v) for k, v in vars(args).items() if k != "command"},
        "corpus_stats": dict(corpus_stats),
        "outputs": list(outputs),
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def _emit(args: argparse.Namespace, stats: CorpusStats, header: Sequence[str],
          csv_rows: Iterable[Iterable], payload: dict,
          preamble: Sequence[str] = ()) -> None:
    """Write the rows as CSV or the payload as JSON, then the manifest.

    A run to standard output writes no manifest: there is no file for it
    to sit beside.
    """
    if args.out_format == "csv":
        buf = io.StringIO()
        for line in preamble:
            buf.write(line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"command": args.command, **payload},
                          sort_keys=True, indent=2) + "\n"
    if args.out is None:
        if sys.stdout is None:
            raise IoFailure("cannot write output: standard output is closed")
        sys.stdout.write(text)
        return
    _write_text(args.out, text)
    _write_text(args.out + ".manifest.json", _manifest(args, stats.as_dict(), [args.out]))


def _say(line: str) -> None:
    """Write a line to standard error. A run whose standard error is closed
    (None) or cannot be written goes on without it, and never writes the
    line to standard output instead."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _print_stats(stats: CorpusStats) -> None:
    line = (f"corpus: {stats.records_read} read, "
            f"{stats.records_accepted} accepted, "
            f"{stats.records_rejected} rejected")
    reasons = {k: v for k, v in sorted(stats.rejection_reasons.items()) if v}
    if reasons:
        line += " (" + ", ".join(f"{k}={v}" for k, v in reasons.items()) + ")"
    _say(line)
    for line_no, reason, detail in stats.diagnostics:
        _say(f"  line {line_no}: {reason}" + (f" ({detail})" if detail else ""))


def _tally(args: argparse.Namespace, registry: ClassificationRegistry,
           kind: ActorKind | None) -> tuple[AggregationResult, CorpusStats]:
    """Stream the corpus into one Aggregator, in one byte range or in two on
    two cores (see noai.shards); kind None credits no actor."""
    options = IngestOptions(doc_types=args.doc_types, window=args.window,
                            require_doi=args.require_doi, strict=args.strict,
                            priority=args.priority, actor_kind=kind)
    agg = Aggregator()
    stats = read_corpus(args.corpus,
                        lambda span: CorpusReader(args.corpus, registry, options, span), agg)
    _print_stats(stats)
    if stats.records_accepted == 0:
        raise EmptyWindow("no record accepted")
    return agg.finish(), stats


def _table(args: argparse.Namespace,
           levels: Sequence[Level]) -> tuple[list[IndicatorRow], CorpusStats]:
    """The per-actor rows of `levels`, after the row filters of the flags."""
    if args.group is not None and (args.actors is None
                                   or args.actor_kind != ActorKind.INSTITUTION.value):
        raise UsageError("--group needs --actors and --actor-kind institution: "
                         "only institutions carry a group")
    registry = load_registry(args.registry)
    actors_meta = load_actor_registry(args.actors) if args.actors is not None else None
    result, stats = _tally(args, registry, ActorKind(args.actor_kind))
    table = build_indicator_table(result, registry, levels, actors_meta)
    if args.min_pubs is not None or args.group is not None:
        min_pubs = args.min_pubs if args.min_pubs is not None else float("-inf")
        table = filter_actors(table, min_pubs=min_pubs, group=args.group)
    if args.top_n is not None:  # the table is in (-x_total, actor) order
        table = table[:args.top_n]
    return table, stats


def cmd_indicators(args: argparse.Namespace) -> int:
    table, stats = _table(args, _INDICATOR_LEVELS)
    rows = [
        dict(zip(INDICATOR_COLUMNS, (
            r.actor,
            r.display_name,
            r.x_total,
            r.oa_share,
            r.noai[Level.SUBJECT_CATEGORY],
            r.noai[Level.OST_DISCIPLINE],
            *(r.oa_type_shares[t] for t in RAW_STATUSES),
            r.n_oa_whole,
        )))
        for r in table
    ]
    _emit(args, stats, INDICATOR_COLUMNS, (r.values() for r in rows),
          {"actor_kind": args.actor_kind, "window": args.window, "rows": rows})
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    levels = _parse_levels(_DEFAULT_RANK_LEVELS if args.level is None else args.level)
    table, stats = _table(args, levels)

    # One consistent actor set: drop rows whose indicator is undefined at
    # any requested level, and say so, rather than ranking shifting subsets.
    kept = []
    for r in table:
        undefined = [lv.value for lv in levels if r.noai[lv] is None]
        if undefined:
            _say(f"excluded {r.actor}: indicator undefined at " + ", ".join(undefined))
        else:
            kept.append(r)

    share_ranks = rank({r.actor: r.oa_share for r in kept})
    ordered = sorted(kept, key=lambda r: (share_ranks[r.actor].rank, r.actor))
    rows = [
        {
            "actor": r.actor,
            "display_name": r.display_name,
            "x_total": r.x_total,
            "oa_share": r.oa_share,
            "oa_share_rank": share_ranks[r.actor].rank,
        }
        for r in ordered
    ]
    rho: dict[str, float] = {}
    for level in levels:
        noai_ranks = rank({r.actor: r.noai[level] for r in kept})
        rho[level.value] = spearman(share_ranks, noai_ranks)
        shifts = rank_shift(share_ranks, noai_ranks)
        suffix = level.value.replace("-", "_")
        for r, row in zip(ordered, rows):
            row[f"noai_{suffix}"] = r.noai[level]
            row[f"noai_rank_{suffix}"] = noai_ranks[r.actor].rank
            row[f"rank_delta_{suffix}"] = shifts[r.actor]

    # rank() raised EmptyTable if no actor was kept, so rows[0] exists.
    _emit(args, stats, list(rows[0]), (r.values() for r in rows),
          {"actor_kind": args.actor_kind, "window": args.window,
           "spearman": rho, "rows": rows},
          preamble=[f"# spearman {lv} {value:.6f}" for lv, value in rho.items()])
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    level = Level.OST_DISCIPLINE
    if args.level is not None:
        levels = _parse_levels(args.level)
        if len(levels) != 1:
            raise UsageError("series takes a single level")
        level = levels[0]
    registry = load_registry(args.registry)
    result, stats = _tally(args, registry, None)
    years = yearly_series(result, registry, level)

    fields = sorted(set().union(*(r.field_shares.keys() for r in years)))
    shares = [{"year": r.year, "total_share": r.total_share,
               **{t.value: r.type_shares[t] for t in RAW_STATUSES}} for r in years]
    by_field = [{f: r.field_shares.get(f) for f in fields} for r in years]
    _emit(args, stats, ["year", "total_share", "gold", "bronze", "green", *fields],
          ([*s.values(), *f.values()] for s, f in zip(shares, by_field)),
          {"level": level.value,
           "rows": [{**s, "fields": f} for s, f in zip(shares, by_field)]})
    return 0


class _Survey:
    """validate's consumer: the diagnostics of validate_corpus, one dict of
    record id -> unknown categories per corpus range, one or two, in range
    order (see noai.shards). Accepted ids are unique within a range, so a
    record that proves a duplicate takes its diagnostic out of the last
    range's dict."""

    def __init__(self, registry: ClassificationRegistry):
        self.registry = registry
        self.parts: list[dict[str, tuple[str, ...]]] = []

    def add_all(self, reader: CorpusReader) -> None:
        self.parts.append(dict(validate_corpus(reader, self.registry)))

    def counts(self) -> Iterable[tuple]:
        return chain.from_iterable(part.items() for part in self.parts)

    def add_counts(self, counts: Iterable[tuple]) -> None:
        self.parts.append(dict(counts))

    def remove_all(self, records) -> None:
        for record in records:
            self.parts[-1].pop(record.id, None)


def cmd_validate(args: argparse.Namespace) -> int:
    registry = load_registry(args.registry)
    # No registry on the reader: a record with an unknown category is
    # accepted, so that validate_corpus can name its categories. No actor is credited.
    options = IngestOptions(doc_types=args.doc_types, window=args.window,
                            require_doi=args.require_doi, strict=False, actor_kind=None)
    survey = _Survey(registry)
    stats = read_corpus(args.corpus,
                        lambda span: CorpusReader(args.corpus, None, options, span), survey)
    _print_stats(stats)

    rows = [{"record_id": record_id, "unknown_categories": list(unknown)}
            for record_id, unknown in survey.counts()]
    _emit(args, stats, ["record_id", "unknown_categories"],
          (r.values() for r in rows), {"diagnostics": rows})
    if rows:
        _say(f"{len(rows)} record(s) with unclassifiable categories")
        if args.strict:
            return 3
    elif stats.records_rejected and args.strict:
        return 3
    return 0


def _stage(staged: dict[str, str], path: str, what: str) -> str:
    """Create an empty temporary file beside `path` for the run to write in
    its place, and record it in `staged`; fail as writing `path` would (an
    existing file is opened but not truncated), naming `path`."""
    target = os.path.realpath(path)
    tmp = staged[target] = f"{target}.{os.getpid()}.tmp"
    try:
        if os.path.exists(target):
            open(target, "r+").close()
        open(tmp, "w").close()
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: "
                        f"{OSError(exc.errno, exc.strerror, path)}") from exc
    return tmp


def cmd_synth(args: argparse.Namespace) -> int:
    # Imported here so that no other command pays for loading numpy.
    try:
        from .synth import generate, load_synth_spec, write_spec_actors, write_spec_registry
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise NoaiError("synth needs numpy, the synth extra: pip install 'noai[synth]'") from None

    spec = load_synth_spec(args.spec)
    outputs = [p for p in (args.out, args.registry_out, args.actors_out) if p is not None]
    # Every output is written to a temporary file, the small ones first so that
    # a path that cannot be written fails before any record is generated. Only
    # once all writes have succeeded do they replace their targets, so a failed
    # run leaves the files that already existed as they were.
    staged: dict[str, str] = {}
    try:
        if args.registry_out is not None:
            write_spec_registry(spec, _stage(staged, args.registry_out, "registry"))
        if args.actors_out is not None:
            write_spec_actors(spec, _stage(staged, args.actors_out, "actors"))
        n = generate(spec, _stage(staged, args.out, "corpus"))
        _write_text(_stage(staged, args.out + ".manifest.json", "manifest"),
                    _manifest(args, {"records_written": n}, outputs))
        for target, tmp in staged.items():
            os.replace(tmp, target)
    finally:
        for tmp in staged.values():
            if os.path.lexists(tmp):
                os.remove(tmp)
    _say(f"wrote {n} records to {args.out}")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "indicators": cmd_indicators,
    "rank": cmd_rank,
    "series": cmd_series,
    "synth": cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    # A run leaves constant cyclic garbage: the collector would only rescan the tally.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _say(f"noai: {exc}")
        return 2
    except (NoaiError, OSError) as exc:
        _say(f"noai: {exc}")
        return 3
    finally:
        if enabled:
            gc.enable()


def run() -> NoReturn:
    """The process entry of `python -m noai` and of the `noai` script: main()
    on the command line, then a flush of standard output and error, then
    os._exit, as a forked reader child ends.

    The interpreter's own exit would run a final collection and free every
    object and module, work that grows with the tally and that no output
    depends on: every file a run writes is closed by a `with` block before
    main() returns, and noai registers no atexit handler. Output that
    cannot be flushed is an I/O error, exit 3. A SystemExit from argparse
    (--help, --version, a usage error) takes the interpreter's usual exit.
    """
    code = main()
    try:
        flush_stdio()
    except OSError as exc:
        _say(f"noai: cannot write standard output: {exc}")
        code = 3
    os._exit(code)
