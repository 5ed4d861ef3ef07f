"""Expected outputs, computed without the code under test, and the checks.

Corpus lines are parsed here with the stdlib `json` module and sorted into
accepted and rejected by the reader's documented rules (see `ingest`). Indicator,
rank and series values come from the exact `Fraction` oracle in
`tests/oracle.py`; ranks and Spearman rho from its textbook formulas.
Values are compared with a relative tolerance of 1e-9 (the engine sums
floats, the oracle is exact); counts and ids must match exactly.
"""

from __future__ import annotations

import importlib.util
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction

from noai.model import ActorKind, Level, OAStatus

from workloads import SERIES_DOC_TYPES, SERIES_WINDOW

TOLERANCE = 1e-9
_DOC_TYPES = {"article", "letter", "review", "proceeding"}
_OA = {"gold", "bronze", "green"}
_TYPES = (OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN)


def load_oracle(path):
    spec = importlib.util.spec_from_file_location("noai_test_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Rec:
    """The record fields the oracle and the reader rules read."""

    __slots__ = ("id", "year", "doc_type", "doi", "raw_statuses",
                 "subject_categories", "countries", "institutions")

    def actors(self, kind):
        return self.countries if kind is ActorKind.COUNTRY else self.institutions


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) and v for v in value)


def parse(line: str):
    """A Rec, or the rejection reason of a line that fails the schema."""
    try:
        obj = json.loads(line)
    except ValueError:
        return "malformed"
    if not isinstance(obj, dict):
        return "malformed"
    rec_id, year = obj.get("id"), obj.get("year")
    oa, doi = obj.get("oa", []), obj.get("doi", False)
    if (not isinstance(rec_id, str) or not rec_id
            or type(year) is not int
            or obj.get("doc_type") not in _DOC_TYPES
            or not isinstance(oa, list) or not all(s in _OA for s in oa)
            or not _strings(obj.get("categories"))
            or type(doi) is not bool
            or not _strings(obj.get("countries", []))
            or not _strings(obj.get("institutions", []))):
        return "malformed"
    if not obj["categories"]:
        return "empty_categories"
    rec = Rec()
    rec.id, rec.year, rec.doc_type, rec.doi = rec_id, year, obj["doc_type"], doi
    rec.raw_statuses = frozenset(OAStatus(s) for s in oa)
    rec.subject_categories = tuple(dict.fromkeys(obj["categories"]))
    rec.countries = frozenset(obj.get("countries", []))
    rec.institutions = frozenset(obj.get("institutions", []))
    return rec


def ingest(lines, known=None, doc_types=None, window=None, require_doi=False):
    """Accepted records and the expected manifest `corpus_stats`.

    Checks run in this order: schema, document type, year window, DOI,
    duplicate id (the first accepted record wins), then unknown category
    when `known` is given.
    """
    accepted, reasons, seen = [], Counter(), set()
    for line in lines:
        rec = parse(line)
        if isinstance(rec, str):
            reason = rec
        elif doc_types is not None and rec.doc_type not in doc_types:
            reason = "doc_type_filtered"
        elif window is not None and not window[0] <= rec.year <= window[1]:
            reason = "year_filtered"
        elif require_doi and not rec.doi:
            reason = "no_doi"
        elif rec.id in seen:
            reason = "duplicate_id"
        elif known is not None and any(c not in known for c in rec.subject_categories):
            reason = "unknown_category"
        else:
            seen.add(rec.id)
            accepted.append(rec)
            continue
        reasons[reason] += 1
    years = [r.year for r in accepted]
    stats = {
        "records_read": len(lines),
        "records_accepted": len(accepted),
        "records_rejected": len(lines) - len(accepted),
        "rejection_reasons": dict(sorted(reasons.items())),
        "year_range": [min(years), max(years)] if years else None,
    }
    return accepted, stats


def _n_fields(rec, registry, level):
    if level is Level.SUBJECT_CATEGORY:
        return len(rec.subject_categories)
    col = 0 if level is Level.OST_DISCIPLINE else 1
    return len({registry.categories[c][col] for c in rec.subject_categories})


def _credits(records, registry, levels, kind) -> int:
    """Tally increments: per record, sum over levels of #fields x (1 + #actors)."""
    return sum(_n_fields(r, registry, lv) * (1 + len(r.actors(kind)))
               for r in records for lv in levels)


def _brute_force(oracle, records, registry, level, kind, window=None):
    bf = oracle.BruteForce(records, registry, level, actor_kind=kind, window=window)
    # The oracle finds an actor's cells by scanning every cell; index them
    # once so its per-actor formulas run in time linear in the corpus.
    by_actor = defaultdict(dict)
    for (actor, field), cell in bf.cells.items():
        by_actor[actor][field] = cell
    bf.actor_fields = lambda actor: by_actor[actor]
    return bf


def _suffix(level: Level) -> str:
    return level.value.replace("-", "_")


def _sum(values) -> Fraction:
    return sum(values, Fraction(0))


def _actor_rows(oracle, records, registry, levels, kind):
    """Exact per-actor values of the indicator table, and the cell count."""
    bfs = {lv: _brute_force(oracle, records, registry, lv, kind) for lv in levels}
    base = bfs[levels[0]]
    rows = {}
    for actor in base.actors():
        cells = base.actor_fields(actor).values()
        x = _sum(c.x for c in cells)
        row = {"x_total": x, "oa_share": 100 * _sum(c.oa for c in cells) / x,
               "n_oa_whole": base.whole_oa[actor]}
        for t in _TYPES:
            row[f"oa_{t.value}_share"] = 100 * _sum(c.by_type[t] for c in cells) / x
        for lv in levels:
            row["noai_" + _suffix(lv)] = bfs[lv].noai(actor)
        rows[actor] = row
    return rows, sum(len(bf.cells) for bf in bfs.values())


def _series_rows(oracle, records, registry, level):
    """World OA shares per year, overall, by type and by field, and the
    cell count of the per-year tallies (which credit countries too)."""
    rows, cells = {}, 0
    for year in sorted({r.year for r in records}):
        bf = oracle.BruteForce(records, registry, level, window=(year, year))
        cells += len(bf.cells)
        world = bf.world.values()
        x = _sum(c.x for c in world)
        row = {"total_share": 100 * _sum(c.oa for c in world) / x}
        for t in _TYPES:
            row[t.value] = 100 * _sum(c.by_type[t] for c in world) / x
        row["fields"] = {f: 100 * c.oa / c.x for f, c in bf.world.items() if c.x > 0}
        rows[str(year)] = row
    return rows, cells


def _floats(obj):
    if isinstance(obj, dict):
        return {k: _floats(v) for k, v in obj.items()}
    return float(obj) if isinstance(obj, Fraction) else obj


def build_reference(workload, lines, registry, oracle) -> dict:
    """Everything a correct run of `workload` on `lines` must report.

    `registry.categories` maps each known category to its (OST discipline,
    ERC sub-field), built from the spec. The result holds only JSON types,
    so that it can be cached.
    """
    levels = tuple(Level(lv) for lv in workload.levels)
    kind = ActorKind(workload.actor_kind)
    known = registry.categories
    command = workload.command[0]
    ref = {"credits": 0, "cells": 0, "actors_ranked": 0}
    if command == "validate":
        records, ref["stats"] = ingest(lines)
        ref["diagnostics"] = [
            {"record_id": r.id,
             "unknown_categories": [c for c in r.subject_categories if c not in known]}
            for r in records
            if any(c not in known for c in r.subject_categories)
        ]
        return ref
    if command == "series":
        records, ref["stats"] = ingest(lines, known=known,
                                       doc_types=SERIES_DOC_TYPES,
                                       window=SERIES_WINDOW, require_doi=True)
        rows, ref["cells"] = _series_rows(oracle, records, registry, levels[0])
        ref["series"] = _floats(rows)
        ref["credits"] = _credits(records, registry, levels, ActorKind.COUNTRY)
        return ref
    records, ref["stats"] = ingest(lines, known=known)
    ref["credits"] = _credits(records, registry, levels, kind)
    rows, ref["cells"] = _actor_rows(oracle, records, registry, levels, kind)
    if command == "rank":
        # Rows with an undefined indicator at any level are not ranked.
        rows = {a: {k: v for k, v in row.items()
                    if k in ("x_total", "oa_share") or k.startswith("noai_")}
                for a, row in rows.items() if None not in row.values()}
        ref["actors_ranked"] = len(rows)
    ref["rows"] = _floats(rows)
    return ref


def planted_errors(workload, ref: dict, planted: dict, unknown_ids: list) -> list[str]:
    """Differences between the reference's rejections and the lines planted.

    Clean generated lines are never malformed, empty, duplicated or of an
    unknown category, and planted lines pass the series filters or fail
    the schema first, so each of these counts is set by the planting alone.
    """
    want = {"malformed": planted["truncated"] + planted["wrong_type"],
            "empty_categories": planted["empty_categories"],
            "duplicate_id": planted["duplicate_id"]}
    if workload.command[0] == "validate":
        got_ids = [d["record_id"] for d in ref["diagnostics"]]
        errors = [] if got_ids == unknown_ids else [
            f"reference diagnoses {len(got_ids)} records, "
            f"{len(unknown_ids)} unknown-category lines were planted"]
    else:
        want["unknown_category"] = planted["unknown_category"]
        errors = []
    reasons = ref["stats"]["rejection_reasons"]
    errors += [f"reference rejects {reasons.get(r, 0)} lines as {r}, {n} were planted"
               for r, n in want.items() if reasons.get(r, 0) != n]
    return errors


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return type(a) in (int, float) and math.isclose(a, b, rel_tol=TOLERANCE,
                                                    abs_tol=TOLERANCE)


def _diff_values(label, got: dict, want: dict, errors: list) -> None:
    if set(got) != set(want):
        errors.append(f"{label}: keys {sorted(set(got) ^ set(want))} differ")
        return
    for key, value in want.items():
        if isinstance(value, dict):
            _diff_values(f"{label}.{key}", got[key], value, errors)
        elif not _close(got[key], value):
            errors.append(f"{label}.{key}: got {got[key]!r}, want {value!r}")


def _check_ranks(oracle, out, levels, errors: list) -> None:
    """Ranks must be the competition ranks of the printed values, and rho
    the textbook Spearman of them. The values themselves are checked
    against the exact reference; ranking them again here, rather than the
    exact values, accepts either order of two values that are equal in
    exact arithmetic but not as floats."""
    rows = out["rows"]
    share = [r["oa_share"] for r in rows]
    share_rank = oracle.competition_ranks(share)
    for lv in levels:
        s = _suffix(lv)
        values = [r[f"noai_{s}"] for r in rows]
        want = [(rank, rank - share_rank[i])
                for i, rank in enumerate(oracle.competition_ranks(values))]
        got = [(r[f"noai_rank_{s}"], r[f"rank_delta_{s}"]) for r in rows]
        if [r["oa_share_rank"] for r in rows] != share_rank or got != want:
            errors.append(f"ranks at {lv.value} do not rank the printed values")
        if not _close(out["spearman"][lv.value], oracle.textbook_spearman(share, values)):
            errors.append(f"spearman at {lv.value} differs from the textbook formula")


def check_output(workload, output: bytes, manifest: bytes, ref: dict, oracle) -> list[str]:
    """Differences between one run's JSON output and manifest and `ref`."""
    try:
        out = json.loads(output)
        stats = json.loads(manifest)["corpus_stats"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output or manifest: {exc!r}"]
    errors = []
    if stats != ref["stats"]:
        errors.append(f"corpus_stats {stats} != expected {ref['stats']}")
    command = workload.command[0]
    try:
        if command == "validate":
            if out["diagnostics"] != ref["diagnostics"]:
                errors.append("validate diagnostics differ from the planted unknown ids")
        elif command == "series":
            got = {}
            for r in out["rows"]:
                got[str(r["year"])] = {k: r[k] for k in ("total_share", "gold", "bronze", "green")}
                got[str(r["year"])]["fields"] = {f: v for f, v in r["fields"].items()
                                                 if v is not None}
            _diff_values("series", got, ref["series"], errors)
        else:
            fields = next(iter(ref["rows"].values())).keys()
            rows = {r["actor"]: {k: r[k] for k in fields} for r in out["rows"]}
            _diff_values("rows", rows, ref["rows"], errors)
            if command == "rank":
                _check_ranks(oracle, out, [Level(lv) for lv in workload.levels], errors)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        errors.append(f"output lacks an expected field: {exc!r}")
    return errors
