"""Call-site tracer for the citemap layers, and the entry point of a traced job.

The tracer wraps each layer's public functions (``TARGETS``) and records one
span per call: name, start, end, parent span and job id. Spans stay in memory
and are written out when the job ends. Wrapping is by object identity: every
``citemap`` module whose namespace binds a traced function gets the wrapper,
under whatever name it was imported, so moving an import does not blind the
trace. A traced function that no longer exists is reported as 0 calls with a
warning. ``restore`` puts every original back.

Run as a script, it is one traced job of the benchmark::

    python3 perfbench/calltrace.py --spans OUT.json [--job-id ID] [--memory] -- <citemap cli args>

It records the script's start-up through ``import citemap.cli`` as the span
``setup.import``, runs ``citemap.cli.main`` on the arguments under the
tracer, restores the originals and writes the spans, the counts taken from
the traced calls' results and, with ``--memory``, each span's
``tracemalloc`` peak above its starting level.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # taken first, so setup.import also covers this script's own imports

import argparse
import contextlib
import functools
import importlib
import json
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

# layer (module name under citemap) -> traced public functions
TARGETS: dict[str, tuple[str, ...]] = {
    "corpus": ("load_corpus",),
    "terms": ("make_units", "build_lexicon"),
    "network": ("count_cooccurrences", "relevance_scores", "select_top_terms", "association_strength"),
    "clustering": ("cluster",),
    "layout": ("layout",),
    "exports": ("export_map", "export_network", "export_graph_json", "render_svg"),
    "compare": ("triplet_report",),
    "pipeline": ("run_pipeline", "analyze", "compare_networks"),
    "cli": ("main",),
}

# counts read from a traced call's result: span name -> {count name: reader}
COUNTERS: dict[str, dict[str, Callable[[Any], int]]] = {
    "terms.make_units": {"terms.units": len},
    "terms.build_lexicon": {"terms.lexicon_terms": len},
    "network.association_strength": {
        "network.edges": lambda sim: len(sim.strengths),
        "network.mapped_terms": lambda sim: len(sim.terms),
    },
    "layout.layout": {"layout.iterations": lambda result: result.iterations_used},
    "exports.export_map": {"pipeline.maps_written": lambda _: 1},
}


def citemap_modules() -> list[ModuleType]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "citemap" or name.startswith("citemap."))]


class Tracer:
    """Spans and counts of one job; wraps and restores the traced functions."""

    def __init__(self, job_id: str = "", memory: bool = False):
        self.job_id = job_id
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None, "job": self.job_id}
        if self.memory:
            # fold the peak so far into every open span before resetting it
            peak = tracemalloc.get_traced_memory()[1]
            for open_index in self._stack:
                self.spans[open_index]["peak"] = max(self.spans[open_index]["peak"], peak)
            tracemalloc.reset_peak()
            span["base"] = span["peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span["end"] = end
        self._stack.pop()
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            for open_index in (*self._stack, index):
                self.spans[open_index]["peak"] = max(self.spans[open_index]["peak"], peak)

    @contextlib.contextmanager
    def span(self, name: str, start: float | None = None) -> Iterator[None]:
        """Record one span around a block, optionally from an earlier start."""
        index = self._open(name)
        if start is not None:
            self.spans[index]["start"] = start
        try:
            yield
        finally:
            self._close(index)

    def _count(self, name: str, result: Any) -> None:
        for count_name, reader in COUNTERS.get(name, {}).items():
            try:
                self.counts[count_name] += reader(result)
            except (AttributeError, TypeError) as exc:
                warnings.warn(f"count {count_name} unreadable from {name} result: {exc}", stacklevel=2)

    def _wrap(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            self._count(name, result)
            return result
        return traced

    def install(self, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        """Wrap every binding of every target in the loaded citemap modules."""
        modules = citemap_modules()
        for layer, names in targets.items():
            module = sys.modules.get(f"citemap.{layer}")
            for name in names:
                span_name = f"{layer}.{name}"
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(span_name)
                    warnings.warn(f"citemap.{span_name} not found; reported as 0 calls", stacklevel=2)
                    continue
                wrapper = self._wrap(span_name, original)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        return {"job": self.job_id, "spans": self.spans, "counts": dict(sorted(self.counts.items())),
                "missing": self.missing}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one citemap CLI call under the call-site tracer.")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--job-id", default="", help="job id stored in every span")
    parser.add_argument("--memory", action="store_true", help="record tracemalloc peaks (slow; never timed)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the citemap CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.job_id, args.memory)
    if args.memory:
        tracemalloc.start()
    with tracer.span("setup.import", start=STARTED):
        cli = importlib.import_module("citemap.cli")
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        if args.memory:
            tracemalloc.stop()
        Path(args.spans).write_text(json.dumps(tracer.report()) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
