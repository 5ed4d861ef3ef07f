"""Benchmark of the noai CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's corpus with `noai.synth.generate`. The timed
window then runs the CLI for S seconds, one fresh child process at a time,
and calls `generate` again at even steps through the window. A shared
machine's speed drifts by a third over minutes, so every timed operation
is bracketed by a fixed calibration task (stdlib JSON decoding and dict
tallying), and its time is scaled to the task's reference time: `wall_s`
and `setup_s` are medians of those scaled times, seconds at a fixed
machine speed. Every output is checked against a reference computed
without the code under test (reference.py). With `--trace 1` the window
alternates plain runs with traced runs (tracing.py), and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. The lines before it summarise the run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 8
MIN_REPS = 3
#: Median time of `calibrate` on the machine of the recorded baseline
#: (2 vCPUs of an Intel Xeon, Python 3.11.7); scaled times are relative to it.
CAL_REF_S = 0.1
REASONS = ("malformed", "empty_categories", "duplicate_id", "doc_type_filtered",
           "year_filtered", "no_doi", "unknown_category")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stderr: bytes


def run_child(argv, cwd: Path, env) -> Child:
    """Run `python3 ARGV` to its end through launch.py, one at a time."""
    result, err = cwd / "child.json", cwd / "stderr.txt"
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(result), str(err),
                    "--", sys.executable, *argv],
                   cwd=cwd, env=env, stdin=subprocess.DEVNULL, check=True)
    r = json.loads(result.read_text(encoding="utf-8"))
    return Child(r["wall_s"], r["cpu_s"], r["rss_kib"] / 1024, r["code"], err.read_bytes())


def calibration_inputs():
    """Fixed inputs of `calibrate`: record-shaped JSON lines and tally keys."""
    rng = random.Random(0)
    lines = [json.dumps({"id": f"W{i:08d}", "year": 2010 + i % 10,
                         "categories": [f"Category {rng.randrange(250):03d}"
                                        for _ in range(1 + i % 3)],
                         "countries": [f"C{rng.randrange(8):02d}" for _ in range(1 + i % 2)]})
             for i in range(6000)]
    keys = [(f"Category {rng.randrange(250):03d}", f"I{rng.randrange(400):03d}")
            for _ in range(150_000)]
    return lines, keys


def calibrate(lines, keys) -> float:
    """Time a fixed piece of JSON decoding and dict tallying, about 0.1 s,
    the kind of work the CLI does, using no noai code."""
    t0 = time.perf_counter()
    tally = {}
    for line in lines:
        record = json.loads(line)
        for category in record["categories"]:
            for actor in record["countries"]:
                tally[category, actor] = tally.get((category, actor), 0) + 1
    for key in keys:
        tally[key] = tally.get(key, 0) + 1
    return time.perf_counter() - t0


class Clock:
    """Scales the time of an operation to the machine's reference speed.

    `calibrate` runs before the first operation and after each one; an
    operation's time is scaled by CAL_REF_S over the mean of the two
    calibrations around it, so a slow spell of the machine cancels out.
    """

    def __init__(self):
        self.inputs = calibration_inputs()
        self.last = calibrate(*self.inputs)
        self.calibrations = [self.last]

    def scale(self, seconds: float) -> float:
        after = calibrate(*self.inputs)
        self.calibrations.append(after)
        scaled = seconds * CAL_REF_S / ((self.last + after) / 2)
        self.last = after
        return scaled


class Setup:
    """Writes the workload's corpus and times `noai.synth.generate`.

    The first call writes the corpus; later calls, spread over the timed
    window, write it again and must produce the same bytes. `times` holds
    the scaled time of each call.
    """

    def __init__(self, workload, seed: int, work: Path, clock: Clock):
        from workloads import corpus_spec

        self.spec = corpus_spec(workload, seed)
        self.work = work
        self.clock = clock
        self.times = []
        self.digests = set()

    def generate(self) -> Path:
        from noai.synth import generate

        path = self.work / f"generated-{len(self.times)}.jsonl"
        t0 = time.perf_counter()
        generate(self.spec, str(path))
        self.times.append(self.clock.scale(time.perf_counter() - t0))
        self.digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        return path

    def again(self) -> None:
        self.generate().unlink()


def write_inputs(workload, seed: int, setup: Setup, work: Path):
    """Write the corpus and registry; return the corpus lines and, for a
    dirty corpus, the planted counts and unknown-category ids (else None)."""
    from workloads import plant_bad_lines

    path = setup.generate()
    lines = path.read_text(encoding="utf-8").splitlines()
    path.unlink()
    planted = None
    if workload.corpus == "dirty":
        lines, *planted = plant_bad_lines(lines, seed)
        print(f"planted bad lines: {planted[0]}")
    (work / "corpus.jsonl").write_text("".join(line + "\n" for line in lines),
                                       encoding="utf-8")
    with open(work / "registry.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("subject_category", "ost_discipline", "erc_subfield"))
        writer.writerows((f.subject_category, f.ost_discipline, f.erc_subfield)
                         for f in setup.spec.fields)
    return lines, planted


def reference_for(workload, lines, spec, oracle) -> dict:
    """The reference for this corpus, computed once and cached in SCRATCH."""
    from reference import build_reference

    key = hashlib.sha256()
    for path in (HERE / "reference.py", HERE / "workloads.py", ORACLE):
        key.update(path.read_bytes())
    key.update(workload.name.encode())
    for line in lines:
        key.update(line.encode())
    cache = SCRATCH / "cache" / f"{workload.name}-{key.hexdigest()[:24]}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    registry = SimpleNamespace(categories={
        f.subject_category: (f.ost_discipline, f.erc_subfield) for f in spec.fields})
    ref = build_reference(workload, lines, registry, oracle)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(ref), encoding="utf-8")
    return ref


class Runner:
    """Runs the workload's command and checks what each run writes."""

    def __init__(self, workload, ref, oracle, work: Path):
        self.workload = workload
        self.ref = ref
        self.oracle = oracle
        self.work = work
        self.out = work / "out.json"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.argv = [*workload.command, "--corpus", str(work / "corpus.jsonl"),
                     "--registry", str(work / "registry.csv"),
                     "--format", "json", "--out", str(self.out)]
        self.good = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _run(self, prefix) -> Child:
        from reference import check_output

        for path in (self.out, Path(f"{self.out}.manifest.json")):
            path.unlink(missing_ok=True)
        child = run_child([*prefix, *self.argv], self.work, self.env)
        errors = []
        if child.code != 0:
            errors.append(f"exit code {child.code}")
        if b"Traceback" in child.stderr:
            errors.append("traceback on stderr")
        try:
            written = (self.out.read_bytes(),
                       Path(f"{self.out}.manifest.json").read_bytes())
        except OSError as exc:
            errors.append(f"missing output: {exc}")
        else:
            if self.good is None:
                found = check_output(self.workload, *written, self.ref, self.oracle)
                errors += found
                if not found:
                    self.good = written
            elif written != self.good:
                errors.append("output or manifest differs from an earlier run")
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors
        return child

    def plain(self) -> Child:
        return self._run(["-m", "noai"])

    def traced(self):
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        child = self._run([str(HERE / "tracing.py"), str(spans), "--"])
        try:
            return child, json.loads(spans.read_text(encoding="utf-8"))
        except OSError:  # the child died before main() ran; its run is counted failed
            return child, {"import_s": 0.0, "missing": [], "spans": []}


def probe_non_utf8(workload, work: Path, env) -> bool:
    """Run the command on a small file holding a non-UTF-8 line.

    It passes when the CLI exits 0 or 3 without a traceback.
    """
    from workloads import PROBE_CORPUS

    (work / "probe.jsonl").write_bytes(PROBE_CORPUS)
    child = run_child(["-m", "noai", *workload.command,
                       "--corpus", str(work / "probe.jsonl"),
                       "--registry", str(work / "registry.csv"),
                       "--format", "json", "--out", str(work / "probe-out.json")],
                      work, env)
    ok = child.code in (0, 3) and b"Traceback" not in child.stderr
    print(f"non-UTF-8 probe: {'passed' if ok else 'FAILED'} (exit code {child.code})")
    return ok


def layer_metrics(trace, n_lines, ref) -> dict:
    from tracing import layer_times

    total, own = layer_times(trace["spans"])
    read_s = total.get("ingest.read", 0.0) + own.get("ingest.load_corpus", 0.0)
    tally_s = own.get("engine.add_all", 0.0) + own.get("engine.yearly_series", 0.0)
    return {
        "ingest.read_s": read_s,
        "ingest.us_per_line": 1e6 * read_s / n_lines,
        "ingest.load_corpus_s": total.get("ingest.load_corpus", 0.0),
        "ingest.validate_corpus_s": total.get("ingest.validate_corpus", 0.0),
        "ingest.registry_s": total.get("ingest.load_registry", 0.0),
        "engine.add_s": own.get("engine.add_all", 0.0),
        "engine.ns_per_credit": 1e9 * tally_s / ref["credits"] if ref["credits"] else 0.0,
        "engine.finish_s": total.get("engine.finish", 0.0),
        "engine.table_s": total.get("engine.table", 0.0),
        "engine.series_s": own.get("engine.yearly_series", 0.0),
        "analysis.rank_s": total.get("analysis.rank", 0.0),
        "cli.import_s": trace["import_s"],
        "cli.self_s": own.get("cli.main", 0.0),
    }


#: Every metric this benchmark prints, with its unit.
END_TO_END = {"wall_s": "s", "records_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "ingest.read_s": "s", "ingest.us_per_line": "us", "ingest.lines_read": "count",
    "ingest.accepted": "count", **{f"ingest.rejected.{r}": "count" for r in REASONS},
    "ingest.accept_ratio": "ratio", "ingest.load_corpus_s": "s",
    "ingest.validate_corpus_s": "s", "ingest.registry_s": "s",
    "engine.add_s": "s", "engine.credits": "count", "engine.ns_per_credit": "ns",
    "engine.finish_s": "s", "engine.table_s": "s", "engine.cells": "count",
    "engine.series_s": "s", "analysis.rank_s": "s", "analysis.actors_ranked": "count",
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "proc.cpu_s": "s", "proc.trace_overhead_s": "s", "synth.us_per_record": "us",
    "trace.missing_spans": "count", "probe.non_utf8_failed": "count",
}


def measure(args, workload, work: Path) -> dict:
    from reference import load_oracle, planted_errors

    t_inputs = time.perf_counter()
    clock = Clock()
    setup = Setup(workload, args.seed, work, clock)
    lines, planted = write_inputs(workload, args.seed, setup, work)
    t_ref = time.perf_counter()
    oracle = load_oracle(ORACLE)
    ref = reference_for(workload, lines, setup.spec, oracle)
    runner = Runner(workload, ref, oracle, work)
    if planted:
        # The reference must reject exactly what was planted; outputs are
        # then held to the reference.
        errors = planted_errors(workload, ref, *planted)
        runner.attempted += 1
        runner.failed += bool(errors)
        runner.errors += errors
    probe_ok = (probe_non_utf8(workload, work, runner.env)
                if workload.corpus == "dirty" else True)

    plain, traced = [], []
    plain_s, traced_s = [], []  # scaled wall times
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (len(setup.times) < SETUP_REPS
                and elapsed >= args.seconds * len(setup.times) / SETUP_REPS):
            setup.again()
            continue
        done = (len(plain) >= MIN_REPS and len(traced) >= (MIN_REPS if args.trace else 0)
                and len(setup.times) == SETUP_REPS)
        # Start no run that would likely end after the window.
        step = ((statistics.median(c.wall_s for c in plain) + clock.last)
                * (1 + args.trace) if plain else 0.0)
        if done and elapsed + step > args.seconds:
            break
        plain.append(runner.plain())
        plain_s.append(clock.scale(plain[-1].wall_s))
        if args.trace:
            traced.append(runner.traced())
            traced_s.append(clock.scale(traced[-1][0].wall_s))
    runner.attempted += SETUP_REPS
    if len(setup.digests) != 1:
        runner.failed += SETUP_REPS
        runner.errors.append("generate wrote different bytes for the same spec")
    setup_s = statistics.median(setup.times)
    wall_s = statistics.median(plain_s)
    print(f"{workload.name} seed {args.seed}: {len(lines)} corpus lines; "
          f"setup_s median of {len(setup.times)}, run statistics of {len(plain)} "
          f"plain and {len(traced)} traced runs; inputs {t_ref - t_inputs:.1f} s, "
          f"reference and probe {t0 - t_ref:.1f} s, window {time.perf_counter() - t0:.1f} s")
    print(f"calibration loop: median {statistics.median(clock.calibrations):.4f} s of "
          f"{len(clock.calibrations)}, reference {CAL_REF_S} s")
    print("plain run wall_s, measured: " + " ".join(f"{c.wall_s:.3f}" for c in plain))
    print("plain run wall_s, scaled:   " + " ".join(f"{w:.3f}" for w in plain_s))
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed")
    for error in runner.errors[:10]:
        print(f"  error: {error}")

    if args.trace:
        per_run = [layer_metrics(trace, len(lines), ref) for _, trace in traced]
        values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        stats = ref["stats"]
        reasons = stats["rejection_reasons"]
        values.update({
            "ingest.lines_read": stats["records_read"],
            "ingest.accepted": stats["records_accepted"],
            **{f"ingest.rejected.{r}": reasons.get(r, 0) for r in REASONS},
            "ingest.accept_ratio": stats["records_accepted"] / stats["records_read"],
            "engine.credits": ref["credits"],
            "engine.cells": ref["cells"],
            "analysis.actors_ranked": ref["actors_ranked"],
            "cli.output_bytes": len(runner.good[0]) if runner.good else 0,
            "proc.cpu_s": statistics.median(c.cpu_s for c in plain),
            "proc.trace_overhead_s": statistics.median(traced_s) - wall_s,
            "synth.us_per_record": 1e6 * setup_s / setup.spec.n_records,
            "trace.missing_spans": len(traced[0][1]["missing"]),
            "probe.non_utf8_failed": 0 if probe_ok else 1,
        })
        if traced[0][1]["missing"]:
            print(f"missing from noai.cli: {traced[0][1]['missing']}")
    else:
        values = {
            "wall_s": wall_s,
            "records_per_s": len(lines) / wall_s,
            "peak_rss_mib": statistics.median(c.rss_mib for c in plain),
            "setup_s": setup_s,
        }
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noai" / "__init__.py").is_file() or not ORACLE.is_file():
        print(f"perfbench: no noai sources at {SRC} or no oracle at {ORACLE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import noai
    import noai.cli  # noqa: F401  (compiles the CLI's bytecode before timing)

    if Path(noai.__file__).resolve().parent != SRC / "noai":
        print(f"perfbench: imported noai from {noai.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
