"""Traced in-process run of the CLI, and the layer times of its spans.

Run as a script in a child process whose PYTHONPATH is the checkout's src:

    python3 perfbench/tracing.py SPANS_JSON -- <noai arguments>

It times `import noai.cli`, swaps the public layer names that `noai.cli`
imports for timing proxies, in that namespace only, calls
`noai.cli.main(argv)` and writes the spans to SPANS_JSON when the run ends.
A name that is no longer there is reported as missing; the other spans are
still recorded. Nothing in `src/noai` is changed.

A span is [name, start, end, parent index]. A layer's self time is its
span minus the spans nested in it. Reading is timed per `next()` call on
the corpus reader and recorded as one `ingest.read` span per batch of
records, whose length is the reading time summed over the batch, so that
reading nested inside the engine can be subtracted from it.
"""

import sys
import time

READ_BATCH = 4096

#: Functions imported by noai.cli -> span name.
FUNCTIONS = {
    "load_registry": "ingest.load_registry",
    "load_actor_registry": "ingest.load_registry",
    "load_corpus": "ingest.load_corpus",
    "validate_corpus": "ingest.validate_corpus",
    "build_indicator_table": "engine.table",
    "yearly_series": "engine.yearly_series",
    "rank": "analysis.rank",
    "spearman": "analysis.rank",
    "rank_shift": "analysis.rank",
}
#: Classes imported by noai.cli -> {method: span name}.
METHODS = {
    "Aggregator": {"add_all": "engine.add_all", "finish": "engine.finish"},
}
READER = "CorpusReader"


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def _parent(self):
        return self._open[-1] if self._open else None

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._parent()])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
        return wrapper

    def read(self, records):
        """Yield from `records`, timing each next() call."""
        clock = time.perf_counter
        iterator = iter(records)
        start, busy, n = None, 0.0, 0
        try:
            while True:
                t0 = clock()
                if start is None:
                    start = t0
                try:
                    record = next(iterator)
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                n += 1
                if n == READ_BATCH:
                    self.spans.append(["ingest.read", start, start + busy, self._parent()])
                    start, busy, n = None, 0.0, 0
                yield record
        finally:
            if start is not None:
                self.spans.append(["ingest.read", start, start + busy, self._parent()])

    def install(self, cli) -> list:
        """Swap the layer names in the `cli` module; return the ones missing."""
        missing = []
        for name, span in FUNCTIONS.items():
            fn = getattr(cli, name, None)
            if callable(fn):
                setattr(cli, name, self.timed(span, fn))
            else:
                missing.append(name)
        for name, methods in METHODS.items():
            cls = getattr(cli, name, None)
            if not isinstance(cls, type):
                missing.append(name)
                continue
            body = {}
            for method, span in methods.items():
                if callable(getattr(cls, method, None)):
                    body[method] = self.timed(span, getattr(cls, method))
                else:
                    missing.append(f"{name}.{method}")
            setattr(cli, name, type(name, (cls,), body))
        cls = getattr(cli, READER, None)
        if isinstance(cls, type) and callable(getattr(cls, "__iter__", None)):
            tracer = self
            setattr(cli, READER, type(READER, (cls,), {
                "__iter__": lambda reader: tracer.read(cls.__iter__(reader))}))
        else:
            missing.append(READER)
        return missing


def layer_times(spans):
    """Total and self seconds per span name."""
    nested = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            nested[parent] += end - start
    total, own = {}, {}
    for (name, start, end, _), inner in zip(spans, nested):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - inner)
    return total, own


def main() -> int:
    spans_path = sys.argv[1]
    argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    t0 = time.perf_counter()
    import noai.cli as cli
    import_s = time.perf_counter() - t0

    import json

    tracer = Tracer()
    missing = tracer.install(cli)
    code = 1
    try:
        code = tracer.timed("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "missing": missing,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
