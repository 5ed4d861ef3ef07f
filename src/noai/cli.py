"""Command-line batch runs over publication corpora.

Subcommands: ``validate`` (corpus QA against a registry), ``indicators``
(the per-actor table), ``rank`` / ``compare`` (rank shifts between plain
and normalized openness, with Spearman rho per level), ``series``
(yearly world shares for plotting), and ``synth`` (deterministic test
corpora).

Every run writes a manifest next to its output: the resolved config,
corpus ingest statistics, the tool version, and the list of files
produced.  Manifests and outputs carry no timestamps, so identical
inputs give byte-identical files.  CSV is the canonical format; JSON
mirrors the same rows at full float precision.

Exit codes: 0 on success, 2 on a usage error, 3 on a data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from collections.abc import Iterable, Mapping, Sequence

from . import __version__
from .analysis import (
    ASCENDING,
    filter_actors,
    noai_metric,
    rank,
    rank_shift,
    spearman,
    top_actors,
)
from .engine import Aggregator, build_indicator_table, yearly_series
from .errors import EmptyWindow, NoaiError
from .ingest import (
    CorpusReader,
    IngestOptions,
    load_actor_registry,
    load_corpus,
    load_registry,
    validate_corpus,
)
from .model import (
    DEFAULT_PRIORITY,
    RAW_STATUSES,
    ActorKind,
    DocType,
    IndicatorTable,
    Level,
    OAStatus,
)
from .synth import generate, load_synth_spec, write_spec_actors, write_spec_registry

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
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like Y1:Y2, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window start {lo} is after end {hi}")
    return lo, hi


def _parse_doc_types(text: str) -> frozenset[DocType]:
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.add(DocType(part))
        except ValueError:
            valid = ", ".join(d.value for d in DocType)
            raise argparse.ArgumentTypeError(
                f"unknown doc type {part!r} (valid: {valid})"
            ) from None
    if not out:
        raise argparse.ArgumentTypeError("empty doc type list")
    return frozenset(out)


def _parse_priority(text: str) -> tuple[OAStatus, ...]:
    order = []
    for part in text.split(","):
        part = part.strip()
        try:
            status = OAStatus(part)
        except ValueError:
            status = None
        if status is None or status not in RAW_STATUSES:
            raise argparse.ArgumentTypeError(
                f"priority entries must be gold, bronze or green, got {part!r}"
            )
        order.append(status)
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
    if not levels:
        raise UsageError("empty level list")
    return tuple(levels)


def _add_common(p: argparse.ArgumentParser, level_help: str) -> None:
    p.add_argument("--corpus", required=True, help="corpus file, one record per line")
    p.add_argument("--registry", required=True, help="classification registry CSV")
    p.add_argument("--actors", help="actor registry CSV (display names, groups)")
    p.add_argument("--window", type=_parse_window, metavar="Y1:Y2",
                   help="publication-year window, inclusive")
    p.add_argument("--level", help=level_help)
    p.add_argument("--actor-kind", choices=[k.value for k in ActorKind],
                   default=ActorKind.COUNTRY.value, help="which actor ids to credit")
    p.add_argument("--doc-types", type=_parse_doc_types, metavar="LIST",
                   help="comma-separated document types to keep (default: all)")
    p.add_argument("--require-doi", action="store_true",
                   help="drop records without a DOI")
    p.add_argument("--min-pubs", type=float, metavar="X",
                   help="keep actors with fractional output strictly above X")
    p.add_argument("--top-n", type=int, metavar="N",
                   help="keep only the N largest producers")
    p.add_argument("--group", help="keep only actors in this group")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   dest="out_format", help="output format (default csv)")
    p.add_argument("--out", help="output path (default: standard output)")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first bad record instead of skipping")
    p.add_argument("--priority", type=_parse_priority, default=DEFAULT_PRIORITY,
                   metavar="ORDER", help="OA status precedence, e.g. gold,bronze,green")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noai",
        description="Field-normalized open-access indicators for publication corpora.",
    )
    parser.add_argument("--version", action="version",
                        version=f"noai {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate",
                       help="report corpus categories missing from the registry")
    _add_common(p, level_help="unused; validation covers all levels")

    p = sub.add_parser("indicators", help="per-actor indicator table")
    _add_common(p, level_help="accepted for uniformity; the column set is fixed")

    for name in ("rank", "compare"):
        p = sub.add_parser(
            name, help="rank shift between plain and normalized openness"
        )
        _add_common(
            p,
            level_help="comma-separated normalization levels "
                       f"(default {_DEFAULT_RANK_LEVELS})",
        )

    p = sub.add_parser("series", help="yearly world OA shares")
    _add_common(p, level_help="field breakdown level "
                              f"(default {Level.OST_DISCIPLINE.value})")

    p = sub.add_parser("synth", help="generate a synthetic corpus from a spec")
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--registry-out", help="also write the implied registry CSV here")
    p.add_argument("--actors-out", help="also write the implied actor CSV here")

    return parser


def _json_safe(value):
    if isinstance(value, (OAStatus, DocType, Level, ActorKind)):
        return value.value
    if isinstance(value, frozenset):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"command"}
    return {k: _json_safe(v) for k, v in vars(args).items() if k not in skip}


def _write_text(out_path: str | None, text: str) -> str:
    if out_path is None:
        sys.stdout.write(text)
        return "-"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return out_path


def _write_manifest(args: argparse.Namespace, corpus_stats: Mapping | None,
                    outputs: Sequence[str]) -> str:
    base = args.out if args.out else f"noai.{args.command}"
    path = base + ".manifest.json"
    manifest = {
        "tool": {"name": "noai", "version": __version__},
        "command": args.command,
        "config": _config_echo(args),
        "corpus_stats": dict(corpus_stats) if corpus_stats else None,
        "outputs": list(outputs),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]],
              preamble: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    for line in preamble:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _fmt2(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _print_stats(stats) -> None:
    line = (f"corpus: {stats.records_read} read, "
            f"{stats.records_accepted} accepted, "
            f"{stats.records_rejected} rejected")
    reasons = {k: v for k, v in sorted(stats.rejection_reasons.items()) if v}
    if reasons:
        line += " (" + ", ".join(f"{k}={v}" for k, v in reasons.items()) + ")"
    print(line, file=sys.stderr)
    for diag in stats.diagnostics:
        print(f"  {diag}", file=sys.stderr)


def _ingest_options(args: argparse.Namespace) -> IngestOptions:
    return IngestOptions(
        doc_types=args.doc_types,
        window=args.window,
        require_doi=args.require_doi,
        strict=args.strict,
    )


def _aggregate_table(args: argparse.Namespace, levels: tuple[Level, ...]):
    """Shared pipeline: stream the corpus once, return (table, stats)."""
    registry = load_registry(args.registry)
    actors_meta = load_actor_registry(args.actors) if args.actors else None
    reader = CorpusReader(args.corpus, registry=registry,
                          options=_ingest_options(args))
    agg = Aggregator(registry, levels, ActorKind(args.actor_kind),
                     priority=args.priority)
    agg.add_all(reader)
    if reader.stats.records_accepted == 0:
        raise EmptyWindow("no records in window")
    table = build_indicator_table(agg.finish(), actors_meta)
    return dataclasses.replace(table, window=args.window), reader.stats


def _apply_row_filters(args: argparse.Namespace,
                       table: IndicatorTable) -> IndicatorTable:
    if args.min_pubs is not None or args.group is not None:
        min_pubs = args.min_pubs if args.min_pubs is not None else float("-inf")
        table = filter_actors(table, min_pubs=min_pubs, group=args.group)
    if args.top_n is not None:
        table = top_actors(table, args.top_n)
    return table


def cmd_indicators(args: argparse.Namespace) -> int:
    table, stats = _aggregate_table(args, _INDICATOR_LEVELS)
    table = _apply_row_filters(args, table)
    _print_stats(stats)

    if args.out_format == "csv":
        rows = []
        for r in table.rows:
            rows.append([
                r.actor,
                r.display_name,
                _fmt2(r.x_total),
                _fmt2(r.oa_share),
                _fmt2(r.noai[Level.SUBJECT_CATEGORY]),
                _fmt2(r.noai[Level.OST_DISCIPLINE]),
                _fmt2(r.oa_type_shares[OAStatus.GOLD]),
                _fmt2(r.oa_type_shares[OAStatus.BRONZE]),
                _fmt2(r.oa_type_shares[OAStatus.GREEN]),
                str(r.n_oa_whole),
            ])
        text = _csv_text(INDICATOR_COLUMNS, rows)
    else:
        payload = {
            "command": "indicators",
            "actor_kind": table.actor_kind.value,
            "window": list(table.window) if table.window else None,
            "rows": [
                {
                    "actor": r.actor,
                    "display_name": r.display_name,
                    "x_total": r.x_total,
                    "oa_share": r.oa_share,
                    "noai_subject_category": r.noai[Level.SUBJECT_CATEGORY],
                    "noai_ost_discipline": r.noai[Level.OST_DISCIPLINE],
                    "oa_gold_share": r.oa_type_shares[OAStatus.GOLD],
                    "oa_bronze_share": r.oa_type_shares[OAStatus.BRONZE],
                    "oa_green_share": r.oa_type_shares[OAStatus.GREEN],
                    "n_oa_whole": r.n_oa_whole,
                }
                for r in table.rows
            ],
        }
        text = _json_text(payload)

    written = _write_text(args.out, text)
    _write_manifest(args, stats.as_dict(), [written])
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    levels = _parse_levels(args.level or _DEFAULT_RANK_LEVELS)
    table, stats = _aggregate_table(args, levels)
    table = _apply_row_filters(args, table)
    _print_stats(stats)

    # One consistent actor set: drop rows whose indicator is undefined at
    # any requested level, and say so, rather than ranking shifting subsets.
    kept = []
    for r in table.rows:
        undefined = [lv.value for lv in levels if r.noai[lv] is None]
        if undefined:
            print(f"excluded {r.actor}: indicator undefined at "
                  + ", ".join(undefined), file=sys.stderr)
        else:
            kept.append(r)
    table = IndicatorTable(actor_kind=table.actor_kind, window=table.window,
                           levels=table.levels, rows=tuple(kept))

    share_ranks = rank(table, "oa_share", ASCENDING)
    rho: dict[Level, float] = {}
    shifts: dict[Level, dict[str, int]] = {}
    noai_ranks = {}
    for level in levels:
        noai_ranks[level] = rank(table, noai_metric(level), ASCENDING)
        rho[level] = spearman(share_ranks, noai_ranks[level])
        shifts[level] = rank_shift(share_ranks, noai_ranks[level])

    by_actor = table.by_actor()
    share_by_actor = share_ranks.by_actor()
    ordered = sorted(table.rows, key=lambda r: (share_by_actor[r.actor].rank, r.actor))

    suffix = {lv: lv.value.replace("-", "_") for lv in levels}
    header = ["actor", "display_name", "x_total", "oa_share", "oa_share_rank"]
    for lv in levels:
        header += [f"noai_{suffix[lv]}", f"noai_rank_{suffix[lv]}",
                   f"rank_delta_{suffix[lv]}"]

    if args.out_format == "csv":
        preamble = [f"# spearman {lv.value} {rho[lv]:.6f}" for lv in levels]
        rows = []
        for r in ordered:
            cells = [r.actor, r.display_name, _fmt2(r.x_total), _fmt2(r.oa_share),
                     str(share_by_actor[r.actor].rank)]
            for lv in levels:
                cells += [
                    _fmt2(r.noai[lv]),
                    str(noai_ranks[lv].by_actor()[r.actor].rank),
                    str(shifts[lv][r.actor]),
                ]
            rows.append(cells)
        text = _csv_text(header, rows, preamble=preamble)
    else:
        json_rows = []
        for r in ordered:
            row = {
                "actor": r.actor,
                "display_name": r.display_name,
                "x_total": r.x_total,
                "oa_share": r.oa_share,
                "oa_share_rank": share_by_actor[r.actor].rank,
            }
            for lv in levels:
                row[f"noai_{suffix[lv]}"] = by_actor[r.actor].noai[lv]
                row[f"noai_rank_{suffix[lv]}"] = noai_ranks[lv].by_actor()[r.actor].rank
                row[f"rank_delta_{suffix[lv]}"] = shifts[lv][r.actor]
            json_rows.append(row)
        payload = {
            "command": args.command,
            "actor_kind": table.actor_kind.value,
            "window": list(table.window) if table.window else None,
            "spearman": {lv.value: rho[lv] for lv in levels},
            "rows": json_rows,
        }
        text = _json_text(payload)

    written = _write_text(args.out, text)
    _write_manifest(args, stats.as_dict(), [written])
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    level = Level.OST_DISCIPLINE
    if args.level:
        levels = _parse_levels(args.level)
        if len(levels) != 1:
            raise UsageError("series takes a single level")
        level = levels[0]
    registry = load_registry(args.registry)
    reader = CorpusReader(args.corpus, registry=registry,
                          options=_ingest_options(args))
    agg = Aggregator(registry, (level,), priority=args.priority)
    agg.add_all(reader)
    if reader.stats.records_accepted == 0:
        raise EmptyWindow("no records in window")
    rows = yearly_series(agg.finish()[level])
    _print_stats(reader.stats)

    fields = sorted(set().union(*(r.field_shares.keys() for r in rows)))
    if args.out_format == "csv":
        header = ["year", "total_share", "gold", "bronze", "green"] + fields
        csv_rows = []
        for r in rows:
            cells = [str(r.year), _fmt2(r.total_share),
                     _fmt2(r.type_shares[OAStatus.GOLD]),
                     _fmt2(r.type_shares[OAStatus.BRONZE]),
                     _fmt2(r.type_shares[OAStatus.GREEN])]
            cells += [_fmt2(r.field_shares.get(f)) for f in fields]
            csv_rows.append(cells)
        text = _csv_text(header, csv_rows)
    else:
        payload = {
            "command": "series",
            "level": level.value,
            "rows": [
                {
                    "year": r.year,
                    "total_share": r.total_share,
                    "gold": r.type_shares[OAStatus.GOLD],
                    "bronze": r.type_shares[OAStatus.BRONZE],
                    "green": r.type_shares[OAStatus.GREEN],
                    "fields": {f: r.field_shares.get(f) for f in fields},
                }
                for r in rows
            ],
        }
        text = _json_text(payload)

    written = _write_text(args.out, text)
    _write_manifest(args, reader.stats.as_dict(), [written])
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    registry = load_registry(args.registry)
    options = IngestOptions(doc_types=args.doc_types, window=args.window,
                            require_doi=args.require_doi, strict=False)
    records, stats = load_corpus(args.corpus, registry=None, options=options)
    diagnostics = validate_corpus(records, registry)
    _print_stats(stats)

    if args.out_format == "csv":
        rows = [[d.record_id, "|".join(d.unknown_categories)] for d in diagnostics]
        text = _csv_text(["record_id", "unknown_categories"], rows)
    else:
        payload = {
            "command": "validate",
            "diagnostics": [
                {"record_id": d.record_id,
                 "unknown_categories": list(d.unknown_categories)}
                for d in diagnostics
            ],
        }
        text = _json_text(payload)

    written = _write_text(args.out, text)
    _write_manifest(args, stats.as_dict(), [written])
    if diagnostics:
        print(f"{len(diagnostics)} record(s) with unclassifiable categories",
              file=sys.stderr)
        if args.strict:
            return 3
    elif stats.records_rejected and args.strict:
        return 3
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synth_spec(args.spec)
    n = generate(spec, args.out)
    outputs = [args.out]
    if args.registry_out:
        write_spec_registry(spec, args.registry_out)
        outputs.append(args.registry_out)
    if args.actors_out:
        write_spec_actors(spec, args.actors_out)
        outputs.append(args.actors_out)
    print(f"wrote {n} records to {args.out}", file=sys.stderr)
    _write_manifest(args, {"records_written": n}, outputs)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "indicators": cmd_indicators,
    "rank": cmd_rank,
    "compare": cmd_rank,
    "series": cmd_series,
    "synth": cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"noai: {exc}", file=sys.stderr)
        return 2
    except NoaiError as exc:
        print(f"noai: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"noai: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
