"""End-to-end walkthrough on a seeded synthetic corpus.

Generates a corpus with its registry and actor files, then runs the
indicators, rank and series commands against it, leaving every output
(and its manifest) in the chosen directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from noai.cli import main as noai_main
from noai.synth import (
    generate,
    spec_to_dict,
    world_spec,
    write_spec_actors,
    write_spec_registry,
)


def run(argv: list[str]) -> int:
    print("$ noai " + " ".join(argv))
    code = noai_main(argv)
    if code != 0:
        print(f"command failed with exit code {code}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out",
                        help="directory for all generated files")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-records", type=int, default=20_000)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = world_spec(seed=args.seed, n_records=args.n_records)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n",
                         encoding="utf-8")
    corpus = out / "corpus.jsonl"
    registry = out / "registry.csv"
    actors = out / "actors.csv"
    n = generate(spec, str(corpus))
    write_spec_registry(spec, str(registry))
    write_spec_actors(spec, str(actors))
    print(f"generated {n} records -> {corpus}")

    common = ["--corpus", str(corpus), "--registry", str(registry)]
    per_actor = common + ["--actors", str(actors)]
    for argv in (
        ["indicators"] + per_actor + ["--out", str(out / "indicators.csv")],
        ["rank"] + per_actor + ["--out", str(out / "rank.csv")],
        ["series"] + common + ["--out", str(out / "series.csv")],
    ):
        code = run(argv)
        if code != 0:
            return code

    print()
    print((out / "indicators.csv").read_text(encoding="utf-8"), end="")
    print(f"\nall outputs and manifests in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
