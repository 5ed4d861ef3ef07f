"""Acceptance gate: the contract checks, one printed verdict per criterion.

Each test exercises one guaranteed behavior end to end at its stated
tolerance and prints a single PASS/FAIL line so a log scan shows the
whole scoreboard.  Oracles live in tests/oracle.py and follow different
arithmetic routes (exact rationals, closed-form Spearman) than the
engine; the two must agree, never share code.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    REG10,
    TABLE_CATS,
    TABLE_REGISTRY,
    RawRecord,
    at_level,
    exact_counts,
    load_corpus,
    parsed,
    random_corpus,
    vectors,
    write_corpus,
)
from noai.analysis import filter_actors, rank, rank_shift, spearman
from noai.engine import Aggregator, build_indicator_table
from noai.ingest import CorpusReader
from noai.model import (
    ClassificationRegistry,
    DocType,
    IndicatorRow,
    Level,
    OAStatus,
)
from noai.synth import generate, world_spec
from oracle import BruteForce, textbook_spearman

pytestmark = pytest.mark.acceptance

GOLD, BRONZE, GREEN = OAStatus.GOLD, OAStatus.BRONZE, OAStatus.GREEN
CLOSED = OAStatus.CLOSED


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion}: {detail}"


def make_record(rec_id, cats, statuses=(), countries=(), institutions=(),
                year=2016, doc=DocType.ARTICLE):
    return RawRecord(
        id=rec_id, year=year, doc_type=doc, raw_statuses=frozenset(statuses),
        subject_categories=tuple(cats), has_doi=True, countries=frozenset(countries),
        institutions=frozenset(institutions),
    )


def test_01_mixed_counting_fixture():
    """Three categories, two disciplines, two countries: exact credit split.

    One record in an Aggregator, the code the CLI runs: each category takes
    1/3, and the two categories that share a discipline pool 2/3 there.
    """
    t0 = time.perf_counter()
    tol = 1e-12
    record = make_record("fixture", TABLE_CATS, (GOLD,), ("FRA", "USA"))
    problems = []
    sc = {cat: 1 / 3 for cat in TABLE_CATS}
    ost = {"Computer science": 2 / 3, "Medical research": 1 / 3}

    agg = Aggregator()
    agg.add_all(parsed([record]))
    tally = agg.finish()
    by_category = vectors(tally)
    # Whole counting on the geographic axis: each country's credit on a
    # field equals the field fraction times one.
    by_discipline = at_level(tally, TABLE_REGISTRY, Level.OST_DISCIPLINE)
    discipline_cells = by_discipline.cells
    for country in ("FRA", "USA"):
        if set(by_category.cells[country]) != set(sc):
            problems.append(f"{country} categories {sorted(by_category.cells[country])}")
        for cat, frac in sc.items():
            x, oa, _ = exact_counts(by_category.cells[country][cat], by_category.unit)
            if abs(x - frac) > tol or abs(oa - frac) > tol:
                problems.append(f"{country}/{cat} credit {x}")
        if set(discipline_cells[country]) != set(ost):
            problems.append(
                f"{country} disciplines {sorted(discipline_cells[country])}")
        for disc, frac in ost.items():
            x, _, _ = exact_counts(discipline_cells[country][disc], by_discipline.unit)
            if abs(x - frac) > tol:
                problems.append(f"{country}/{disc} credit {x}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    report("01 mixed-counting fixture", not problems,
           "; ".join(problems) or f"{elapsed * 1000:.0f}ms")


def test_02_status_priority_exhaustive(tmp_path):
    """All 8 raw-status subsets tally as gold, then bronze, then green.

    Each subset is one corpus line read into an Aggregator, the code the CLI
    runs; the record must land in the expected status slot of its world
    baseline and of its country's cell, and nowhere else.
    """
    category = TABLE_CATS[0]
    path = tmp_path / "one.jsonl"
    problems = []
    for subset in itertools.chain.from_iterable(
            itertools.combinations((GOLD, BRONZE, GREEN), k) for k in range(4)):
        present = set(subset)
        if GOLD in present:
            expected = GOLD
        elif BRONZE in present:
            expected = BRONZE
        elif GREEN in present:
            expected = GREEN
        else:
            expected = CLOSED
        write_corpus([make_record("r", (category,), present, ("FRA",))], path)
        agg = Aggregator()
        agg.add_all(CorpusReader(path, TABLE_REGISTRY))
        result = vectors(agg.finish())
        want = [result.unit if s is expected else 0 for s in OAStatus]
        for where, got in (("world", result.baselines[category]),
                           ("FRA", result.cells["FRA"][category])):
            if got != want:
                problems.append(
                    f"{sorted(s.value for s in present)} -> {where} {got}, "
                    f"want {expected.value}")
    report("02 status priority (8 subsets)", not problems, "; ".join(problems))


def test_03_world_unit_invariant(tmp_path):
    """An actor present on every record has NOAI exactly 1 at every level."""
    t0 = time.perf_counter()
    tol = 1e-9
    levels = tuple(Level)
    worst = 0.0
    problems = []
    for seed in range(100):
        spec = world_spec(seed=seed, n_records=1000)
        registry = ClassificationRegistry(
            {f.subject_category: (f.ost_discipline, f.erc_subfield)
             for f in spec.fields})
        agg = Aggregator()
        path = tmp_path / f"world-{seed}.jsonl"
        generate(spec, str(path))
        agg.add_all(parsed(record._replace(countries=record.countries | {"WORLD"})
                           for record in load_corpus(path)[0]))
        (row,) = [r for r in build_indicator_table(agg.finish(), registry, levels)
                  if r.actor == "WORLD"]
        for level, value in row.noai.items():
            worst = max(worst, abs(value - 1.0))
            if abs(value - 1.0) > tol:
                problems.append(f"seed {seed} {level.value}: {value!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s")
    report("03 world-unit invariant (100 corpora)", not problems,
           "; ".join(problems) or f"max |NOAI-1| = {worst:.2e}, {elapsed:.1f}s")


class TrialOutcome:
    """Worst-case deviations accumulated over the 50 seeded trials."""

    def __init__(self):
        self.n_trials = 0
        self.equivalence_worst = 0.0
        self.equivalence_problems = []
        self.conservation_worst = 0.0
        self.decomposition_worst = 0.0
        self.conservation_problems = []


def synthetic_trial(seed: int, tmp_dir: Path):
    """One seeded corpus of at most 1000 records, 20 actors, 10 fields."""
    if seed < 40:
        n = 200 + (seed * 37) % 801
        return random_corpus(seed=seed, n_records=n), REG10
    spec = world_spec(seed=seed, n_records=600)
    registry = ClassificationRegistry(
        {f.subject_category: (f.ost_discipline, f.erc_subfield)
         for f in spec.fields})
    path = tmp_dir / f"trial-{seed}.jsonl"
    generate(spec, str(path))
    return load_corpus(path)[0], registry


@pytest.fixture(scope="module")
def trials(tmp_path_factory) -> TrialOutcome:
    tol = 1e-9
    out = TrialOutcome()
    tmp_dir = tmp_path_factory.mktemp("trials")
    levels = tuple(Level)
    for seed in range(50):
        records, registry = synthetic_trial(seed, tmp_dir)
        level = levels[seed % 3]
        oracle = BruteForce(records, registry, level)
        agg = Aggregator()
        agg.add_all(parsed(records))
        tally = agg.finish()
        table = build_indicator_table(tally, registry, (level,))
        result = at_level(tally, registry, level)

        def flag(what, diff):
            out.equivalence_worst = max(out.equivalence_worst, diff)
            if diff > tol:
                out.equivalence_problems.append(f"seed {seed}: {what} {diff:.2e}")

        cells = result.cells
        if set(oracle.actors()) != set(cells):
            out.equivalence_problems.append(f"seed {seed}: actor sets differ")
            continue
        rows = {row.actor: row for row in table}
        for actor in oracle.actors():
            row = rows[actor]
            flag(f"{actor} x_total",
                 abs(row.x_total - float(oracle.x_total(actor))))
            flag(f"{actor} oa_share",
                 abs(row.oa_share - float(oracle.oa_share(actor))))
            for status in (GOLD, BRONZE, GREEN):
                flag(f"{actor} {status.value} share",
                     abs(row.oa_type_shares[status]
                         - float(oracle.type_share(actor, status))))
            for f, counts in cells[actor].items():
                x, oa, _ = exact_counts(counts, result.unit)
                world_x, world_oa, _ = exact_counts(result.baselines[f], result.unit)
                mine = (oa / x) / (world_oa / world_x) if x and world_oa else None
                ref = oracle.normalized_share(actor, f)
                if (mine is None) != (ref is None):
                    out.equivalence_problems.append(
                        f"seed {seed}: {actor}/{f} definedness")
                elif mine != ref:
                    out.equivalence_problems.append(
                        f"seed {seed}: {actor}/{f} normalized {mine} != {ref}")
            ref_noai = oracle.noai(actor)
            if (row.noai[level] is None) != (ref_noai is None):
                out.equivalence_problems.append(
                    f"seed {seed}: {actor} NOAI definedness")
            elif ref_noai is not None:
                flag(f"{actor} NOAI", abs(row.noai[level] - float(ref_noai)))

        # Conservation: world fractional totals return the record count,
        # and the three type shares rebuild every total OA share.
        baselines = [exact_counts(b, result.unit) for b in result.baselines.values()]
        world_x = math.fsum(x for x, _, _ in baselines)
        diff = abs(world_x - len(records))
        out.conservation_worst = max(out.conservation_worst, diff)
        if diff > tol:
            out.conservation_problems.append(f"seed {seed}: sum X_wj {diff:.2e}")
        world_oa = math.fsum(oa for _, oa, _ in baselines)
        world_types = math.fsum(
            by_type[t] for _, _, by_type in baselines for t in (GOLD, BRONZE, GREEN))
        diff = abs(world_oa - world_types)
        out.decomposition_worst = max(out.decomposition_worst, diff)
        if diff > tol:
            out.conservation_problems.append(f"seed {seed}: world types {diff:.2e}")
        for row in table:
            total = math.fsum(row.oa_type_shares[t] for t in (GOLD, BRONZE, GREEN))
            diff = abs(total - row.oa_share)
            out.decomposition_worst = max(out.decomposition_worst, diff)
            if diff > tol:
                out.conservation_problems.append(
                    f"seed {seed}: {row.actor} type sum {diff:.2e}")
        out.n_trials += 1
    return out


def test_04_oracle_equivalence(trials):
    """Streaming engine equals the exact-rational brute force on every trial."""
    ok = trials.n_trials == 50 and not trials.equivalence_problems
    detail = "; ".join(trials.equivalence_problems[:5]) or (
        f"50 trials, max deviation {trials.equivalence_worst:.2e}")
    report("04 oracle equivalence (50 trials)", ok, detail)


def test_05_conservation(trials):
    """Fractions spend exactly one credit per record; types rebuild the total."""
    ok = trials.n_trials == 50 and not trials.conservation_problems
    detail = "; ".join(trials.conservation_problems[:5]) or (
        f"max count drift {trials.conservation_worst:.2e}, "
        f"max share drift {trials.decomposition_worst:.2e}")
    report("05 conservation (every trial)", ok, detail)


def spearman_of(xs, ys) -> float:
    actors = [f"A{i:03d}" for i in range(len(xs))]
    return spearman(rank(dict(zip(actors, xs))), rank(dict(zip(actors, ys))))


def test_06_spearman_reference():
    """Tie-aware correlation matches the closed-form oracle for n = 2..200."""
    tol = 1e-12
    worst = 0.0
    problems = []
    for n in range(2, 201):
        rng = random.Random(n)
        smooth = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        ys = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        while len(set(smooth)) < n or len(set(ys)) < n:
            smooth = [rng.uniform(-1e6, 1e6) for _ in range(n)]
            ys = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        pairs = [("tie-free", smooth, ys)]
        tied_x = [float(rng.randrange(5)) for _ in range(n)]
        tied_y = [float(rng.randrange(5)) for _ in range(n)]
        while len(set(tied_x)) < 2 or len(set(tied_y)) < 2:
            tied_x = [float(rng.randrange(5)) for _ in range(n)]
            tied_y = [float(rng.randrange(5)) for _ in range(n)]
        pairs.append(("tied", tied_x, tied_y))
        for label, xs_, ys_ in pairs:
            diff = abs(spearman_of(xs_, ys_) - textbook_spearman(xs_, ys_))
            worst = max(worst, diff)
            if diff > tol:
                problems.append(f"n={n} {label}: {diff:.2e}")
        if spearman_of(smooth, smooth) != 1.0:
            problems.append(f"n={n} identical != 1.0")
        if spearman_of(smooth, [-v for v in smooth]) != -1.0:
            problems.append(f"n={n} reversed != -1.0")
    report("06 Spearman vs textbook oracle", not problems,
           "; ".join(problems[:5]) or f"max |diff| = {worst:.2e}")


def test_07_normalization_direction():
    """A low-OA-field specialist gains places under normalization."""
    registry = ClassificationRegistry({
        "Low Field": ("Engineering", "PE8"),
        "High Field": ("Fundamental biology", "LS1"),
    })
    records = []
    # Background without actors fixes the world baselines: Low Field is
    # globally the least open, High Field the most.
    for i in range(40):
        records.append(make_record(
            f"bg-low-{i}", ("Low Field",), (GOLD,) if i < 4 else ()))
    for i in range(60):
        records.append(make_record(
            f"bg-high-{i}", ("High Field",), (GOLD,) if i < 54 else ()))
    for i in range(10):  # E: only the low field, above-world openness there
        records.append(make_record(
            f"e-{i}", ("Low Field",), (GOLD,) if i < 2 else (), ("E",)))
    for i in range(10):  # B: only the high field, below-world openness there
        records.append(make_record(
            f"b-{i}", ("High Field",), (GOLD,) if i < 8 else (), ("B",)))

    agg = Aggregator()
    agg.add_all(parsed(records))
    result = agg.finish()
    problems = []
    shares = {}
    for f, counts in vectors(result).baselines.items():
        x, oa, _ = exact_counts(counts, result.unit)
        shares[f] = oa / x
    if not shares["Low Field"] < shares["High Field"]:
        problems.append("baseline ordering broken")

    table = build_indicator_table(result, registry, (Level.SUBJECT_CATEGORY,))
    share_ranks = rank({r.actor: r.oa_share for r in table})
    noai_ranks = rank({r.actor: r.noai[Level.SUBJECT_CATEGORY] for r in table})
    shifts = rank_shift(share_ranks, noai_ranks)
    if not shifts["E"] > 0:
        problems.append(f"E shift {shifts['E']}")
    if not shifts["B"] < 0:
        problems.append(f"B shift {shifts['B']}")
    report("07 normalization direction", not problems,
           "; ".join(problems) or f"E {shifts['E']:+d}, B {shifts['B']:+d}")


def test_08_threshold_semantics():
    """Default volume filter keeps strictly-greater-than-30 actors only."""
    table = [
        IndicatorRow(
            actor=a, display_name=a, group=None,
            x_total=x, oa_share=50.0, noai={Level.SUBJECT_CATEGORY: 1.0},
            oa_type_shares={}, n_oa_whole=0,
        )
        for a, x in (("AT-30", 30.0), ("ABOVE", 30.5), ("BIG", 500.0))
    ]
    kept = {row.actor for row in filter_actors(table)}
    problems = []
    if "AT-30" in kept:
        problems.append("x=30.0 not excluded")
    if "ABOVE" not in kept:
        problems.append("x=30.5 not included")
    report("08 threshold semantics", not problems,
           "; ".join(problems) or "30.0 out, 30.5 in")


def test_09_format_round_trip(tmp_path, monkeypatch, capsys):
    """CSV output re-reads to the in-memory values; reruns are byte-identical."""
    import csv as csv_mod

    from noai.cli import INDICATOR_COLUMNS, main
    from noai.synth import generate, write_spec_actors, write_spec_registry

    monkeypatch.chdir(tmp_path)
    spec = world_spec(seed=101, n_records=1500)
    generate(spec, str(tmp_path / "corpus.jsonl"))
    write_spec_registry(spec, str(tmp_path / "registry.csv"))
    write_spec_actors(spec, str(tmp_path / "actors.csv"))

    args = ["indicators", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--registry", str(tmp_path / "registry.csv"),
            "--actors", str(tmp_path / "actors.csv"),
            "--out", str(tmp_path / "table.csv")]
    assert main(args) == 0
    first = (tmp_path / "table.csv").read_bytes()
    first_manifest = (tmp_path / "table.csv.manifest.json").read_bytes()
    assert main(args) == 0
    problems = []
    if (tmp_path / "table.csv").read_bytes() != first:
        problems.append("rerun changed the table bytes")
    if (tmp_path / "table.csv.manifest.json").read_bytes() != first_manifest:
        problems.append("rerun changed the manifest bytes")

    registry = ClassificationRegistry(
        {f.subject_category: (f.ost_discipline, f.erc_subfield)
         for f in spec.fields})
    records, _ = load_corpus(str(tmp_path / "corpus.jsonl"), registry=registry)
    agg = Aggregator()
    agg.add_all(parsed(records))
    table = build_indicator_table(agg.finish(), registry,
                                  (Level.SUBJECT_CATEGORY, Level.OST_DISCIPLINE))
    by_actor = {r.actor: r for r in table}

    def render(value):
        return "" if value is None else f"{value:.2f}"

    with open(tmp_path / "table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.DictReader(fh))
    if len(rows) != len(table):
        problems.append(f"{len(rows)} rows vs {len(table)} in memory")
    for row in rows:
        mem = by_actor[row["actor"]]
        expect = {
            "actor": mem.actor,
            "display_name": mem.display_name,
            "x_total": render(mem.x_total),
            "oa_share": render(mem.oa_share),
            "noai_subject_category": render(mem.noai[Level.SUBJECT_CATEGORY]),
            "noai_ost_discipline": render(mem.noai[Level.OST_DISCIPLINE]),
            "oa_gold_share": render(mem.oa_type_shares[GOLD]),
            "oa_bronze_share": render(mem.oa_type_shares[BRONZE]),
            "oa_green_share": render(mem.oa_type_shares[GREEN]),
            "n_oa_whole": str(mem.n_oa_whole),
        }
        for column in INDICATOR_COLUMNS:
            if row[column] != expect[column]:
                problems.append(
                    f"{mem.actor}.{column}: file {row[column]!r} "
                    f"vs memory {expect[column]!r}")
    report("09 format round-trip", not problems,
           "; ".join(problems[:5]) or f"{len(rows)} rows byte-stable and exact")


def test_10_throughput(tmp_path):
    """One million records through the indicators command: < 60 s, < 2 GB."""
    import noai as package
    from noai.synth import generate, write_spec_actors, write_spec_registry

    spec = world_spec(seed=7, n_records=1_000_000)
    generate(spec, str(tmp_path / "big.jsonl"))
    write_spec_registry(spec, str(tmp_path / "registry.csv"))
    write_spec_actors(spec, str(tmp_path / "actors.csv"))

    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # `src` no longer resolves: put the package under test first, absolute,
    # and drop empty entries, which Python would read as the child's cwd.
    package_file = Path(package.__file__).resolve()
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(package_file.parents[1])] + [p for p in inherited if p]))
    runner = (
        "import resource, sys\n"
        "import noai\n"
        "print(f'NOAI_FILE {noai.__file__}')\n"
        "from noai.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(f'MAXRSS_KIB {peak}')\n"
        "sys.exit(rc)\n"
    )
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", runner, "indicators",
             "--corpus", str(tmp_path / "big.jsonl"),
             "--registry", str(tmp_path / "registry.csv"),
             "--actors", str(tmp_path / "actors.csv"),
             "--out", str(tmp_path / "table.csv")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
    except subprocess.TimeoutExpired as exc:
        report("10 throughput (1e6 records)", False,
               f"child killed after the {exc.timeout:g}s timeout")
    elapsed = time.perf_counter() - t0
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr[-200:]}")
    peak_kib = 0
    child_file = None
    for line in proc.stdout.splitlines():
        if line.startswith("MAXRSS_KIB"):
            peak_kib = int(line.split()[1])
        elif line.startswith("NOAI_FILE "):
            child_file = Path(line[len("NOAI_FILE "):]).resolve()
    if child_file != package_file:
        problems.append(f"child imported noai from {child_file}, "
                        f"not the package under test {package_file}")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    if peak_kib >= 2 * 1024 * 1024:
        problems.append(f"peak memory {peak_kib / 1024:.0f} MiB")
    report("10 throughput (1e6 records)", not problems,
           "; ".join(problems) or
           f"{elapsed:.1f}s, peak {peak_kib / 1024:.0f} MiB")
