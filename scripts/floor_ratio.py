"""Per-line cost of reading and tallying a corpus, against a stdlib floor.

    python3 scripts/floor_ratio.py CORPUS REGISTRY [--reps N]

In one process, and in turns so that a slow spell of the machine hits
both sides alike, it times:

- `noai`: a `CorpusReader` pass crediting country actors, fed to
  `Aggregator.add_all`, the work of `noai indicators` before `finish()`;
- the floor: `json.loads` of each line and a `Counter` tally of the same
  keys, by (year, category, category count, first OA tag) for the world
  and (country, category, category count, first OA tag), with no checks.

Both sides run with the cyclic garbage collector off, as `noai.cli.main`
runs, and its state is restored afterwards. It prints each side's median
µs per line and the median and quartiles of the ratio noai / floor, each
noai pass divided by the mean of the floor passes just before and after
it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from collections import Counter

from noai.engine import Aggregator
from noai.ingest import CorpusReader, IngestOptions, load_registry
from noai.model import ActorKind


def floor(corpus: str) -> None:
    world: Counter = Counter()
    actors: Counter = Counter()
    with open(corpus, "rb") as fh:
        for line in fh:
            obj = json.loads(line)
            categories = obj["categories"]
            k = len(categories)
            year = obj["year"]
            oa = obj["oa"]
            status = oa[0] if oa else "closed"
            countries = obj["countries"]
            for category in categories:
                world[year, category, k, status] += 1
                for country in countries:
                    actors[country, category, k, status] += 1


def read_and_tally(corpus: str, registry) -> None:
    agg = Aggregator()
    agg.add_all(CorpusReader(corpus, registry, IngestOptions(actor_kind=ActorKind.COUNTRY)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus")
    parser.add_argument("registry")
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    registry = load_registry(args.registry)
    with open(args.corpus, "rb") as fh:
        n = sum(1 for _ in fh)

    def us_per_line(fn, *fn_args) -> float:
        t0 = time.perf_counter()
        fn(*fn_args)
        return (time.perf_counter() - t0) / n * 1e6

    enabled = gc.isenabled()
    gc.disable()
    try:
        floors = [us_per_line(floor, args.corpus)]
        costs, ratios = [], []
        for _ in range(args.reps):
            costs.append(us_per_line(read_and_tally, args.corpus, registry))
            floors.append(us_per_line(floor, args.corpus))
            ratios.append(costs[-1] / ((floors[-2] + floors[-1]) / 2))
    finally:
        if enabled:
            gc.enable()
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{n} lines, {args.reps} passes each")
    print(f"floor {statistics.median(floors):.2f} us/line, "
          f"noai {statistics.median(costs):.2f} us/line")
    print(f"ratio median {median:.3f}, quartiles {q1:.3f} {q3:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
