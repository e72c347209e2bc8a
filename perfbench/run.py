#!/usr/bin/env python3
"""Benchmark of the citemap CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload map_1k --seed 1 --seconds 50 --trace 0

A run generates its workload's corpora from the seed (the program sees them
only as corpus files), times a fresh interpreter importing ``citemap.cli``
(the set-up every CLI call pays), then runs jobs, one at a time, each a fresh
``python -m citemap.cli`` process on the checkout's ``src``, cycling over the
corpora until ``--seconds`` have passed. Every job's outputs are checked, and
a job on a corpus already run must reproduce its outputs byte for byte.

Before every job and every import timing the run also times ``reference.py``,
fixed work that never touches citemap. The host's speed drifts by 15-20% over
tens of seconds, so the reported times are in reference seconds: a wall time
divided by the run's median reference time, times ``REFERENCE_NOMINAL_S``.
The raw wall times are printed alongside.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced jobs with jobs run under the call-site tracer (``calltrace.py``),
then runs one ``tracemalloc`` job, and reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric by name
with its unit. Without ``src/citemap`` in the working directory the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpora

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 5
JOB_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 160.0  # no job starts, and none runs on, past this point of a run
# The layout stops at a relative tolerance that these corpora reach after
# anywhere from 400 to 2,700 iterations, which no per-run median can steady;
# a fixed iteration budget keeps the work per job comparable across seeds.
LAYOUT_MAX_ITER = 300
# median wall time of reference.py on the 2-core Xeon VM the bounds were set on
REFERENCE_NOMINAL_S = 0.45


@dataclass(frozen=True)
class Workload:
    make_corpus: Callable[[int], list[dict]]  # seed -> corpus records
    cli_args: tuple[str, ...]  # the timed job
    n_corpora: int
    quality_args: tuple[str, ...] = ()  # untimed map job giving the quality figures, if not the timed job


WORKLOADS = {
    # ROADMAP 1k rung: layout and clustering do nearly all the work
    "map_1k": Workload(
        lambda seed: corpora.pareto_topic(seed, 1000),
        ("pipeline", "--mode", "title-abstract", "--set", "both", "--min-occurrences", "10"),
        n_corpora=5,
    ),
    # three parses and three analyses, no exports, citation-context path
    "compare_1k": Workload(
        lambda seed: corpora.planted(seed, n_cited=400, n_citing=600),
        ("compare", "--min-occurrences", "10"),
        n_corpora=6,
        quality_args=("pipeline", "--mode", "title-abstract", "--set", "cited", "--min-occurrences", "10"),
    ),
}

END_TO_END_UNITS = {
    "job_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "layout_objective": "ratio", "cluster_quality": "ratio",
}
PER_LAYER_UNITS = {
    "layout.layout_s": "s", "layout.calls": "count", "layout.iterations": "count", "layout.ms_per_iter": "ms",
    "clustering.cluster_s": "s", "clustering.calls": "count",
    "terms.lexicon_s": "s", "terms.units_s": "s", "terms.units": "count", "terms.lexicon_terms": "count",
    "corpus.load_s": "s", "corpus.parses": "count",
    "network.cooc_s": "s", "network.relevance_s": "s", "network.assoc_s": "s", "network.edges": "count",
    "network.terms_kept_ratio": "ratio",
    "pipeline.self_s": "s", "pipeline.maps_computed": "count", "pipeline.maps_used_ratio": "ratio",
    "exports.write_s": "s", "exports.bytes": "bytes", "compare.report_s": "s", "cli.self_s": "s",
    "terms.peak_mb": "MB", "network.peak_mb": "MB", "clustering.peak_mb": "MB", "layout.peak_mb": "MB",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}
MEMORY_LAYERS = ("terms", "network", "clustering", "layout")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Job:
    kind: str  # "timed", "traced", "quality" or "memory"
    corpus: int
    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""
    quality: dict[str, float] = field(default_factory=dict)
    trace: dict = field(default_factory=dict)


def spawn(argv: list[str], env: dict[str, str], log: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run one process; return its spawn time, wall seconds from spawn to exit, max RSS in MB and exit code.

    The wait uses a pidfd, so a timeout kill can never reach a recycled pid,
    and ``wait4`` supplies this process's own resource usage.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss / 1024.0, (-1 if timed_out else proc.returncode)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_values(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer times, self times, counts and coverage of one traced job."""
    spans = trace["spans"]
    durations = [span["end"] - span["start"] for span in spans]
    covered_by_children = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            covered_by_children[span["parent"]] += duration
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, duration, children in zip(spans, durations, covered_by_children):
        total[span["name"]] += duration
        calls[span["name"]] += 1
        self_time[span["name"].split(".")[0]] += duration - children
    counts = defaultdict(int, trace["counts"])
    top_level = sum(d for span, d in zip(spans, durations) if span["parent"] is None)
    layout_s = total["layout.layout"]
    return {
        "layout.layout_s": layout_s,
        "layout.calls": calls["layout.layout"],
        "layout.iterations": counts["layout.iterations"],
        "layout.ms_per_iter": 1000.0 * layout_s / counts["layout.iterations"] if counts["layout.iterations"] else 0.0,
        "clustering.cluster_s": total["clustering.cluster"],
        "clustering.calls": calls["clustering.cluster"],
        "terms.lexicon_s": total["terms.build_lexicon"],
        "terms.units_s": total["terms.make_units"],
        "terms.units": counts["terms.units"],
        "terms.lexicon_terms": counts["terms.lexicon_terms"],
        "corpus.load_s": total["corpus.load_corpus"],
        "corpus.parses": calls["corpus.load_corpus"],
        "network.cooc_s": total["network.count_cooccurrences"],
        "network.relevance_s": total["network.relevance_scores"] + total["network.select_top_terms"],
        "network.assoc_s": total["network.association_strength"],
        "network.edges": counts["network.edges"],
        "network.terms_kept_ratio": (counts["network.mapped_terms"] / counts["terms.lexicon_terms"]
                                     if counts["terms.lexicon_terms"] else 0.0),
        "pipeline.self_s": self_time["pipeline"],
        "pipeline.maps_computed": calls["pipeline.analyze"],
        "pipeline.maps_used_ratio": (counts["pipeline.maps_written"] / calls["pipeline.analyze"]
                                     if calls["pipeline.analyze"] else 0.0),
        "exports.write_s": sum(t for name, t in total.items() if name.startswith("exports.")),
        "compare.report_s": total["compare.triplet_report"],
        "cli.self_s": self_time["cli"],
        "trace.coverage": top_level / wall,
    }


COUNT_METRICS = ("layout.calls", "layout.iterations", "clustering.calls", "terms.units", "terms.lexicon_terms",
                 "corpus.parses", "network.edges", "network.terms_kept_ratio", "pipeline.maps_computed",
                 "pipeline.maps_used_ratio", "exports.bytes")


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.started = time.perf_counter()
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.jobs: list[Job] = []
        self.reference_s: list[float] = []
        self.reference: dict[tuple[str, int], dict[str, str]] = {}
        self.notes: list[str] = []
        sys.path.insert(0, str(root / "src"))
        self.checks = importlib.import_module("checks")  # imports citemap from the checkout

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def time_reference(self) -> None:
        _, wall, _, code = spawn([sys.executable, str(BENCH_DIR / "reference.py")], self.env,
                                 self.dir / "reference.log", JOB_TIMEOUT_S)
        if code != 0:
            raise SetupError(f"reference.py exited with {code}")
        self.reference_s.append(wall)

    def in_reference_seconds(self, wall: float) -> float:
        return wall / median(self.reference_s) * REFERENCE_NOMINAL_S

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Median wall seconds for a fresh interpreter to import citemap.cli; times the reference too."""
        log = self.dir / "import.log"
        samples = []
        for _ in range(SETUP_SAMPLES):
            self.time_reference()
            _, wall, _, code = spawn([sys.executable, "-c", "import citemap.cli; print(citemap.cli.__file__)"],
                                     self.env, log, JOB_TIMEOUT_S)
            imported = log.read_text(encoding="utf-8").strip()
            if code != 0 or not Path(imported).resolve().is_relative_to((self.root / "src").resolve()):
                raise SetupError(f"citemap did not import from {self.root / 'src'}: {imported[-300:]}")
            samples.append(wall)
        return median(samples)

    def make_corpora(self) -> float:
        start = time.perf_counter()
        self.corpora = []
        for k in range(self.workload.n_corpora):
            path = self.dir / f"corpus{k}.jsonl"
            corpora.write_jsonl(path, self.workload.make_corpus(self.seed * 1000 + k))
            self.corpora.append(path)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps({"layout_max_iter": LAYOUT_MAX_ITER}) + "\n", encoding="utf-8")
        return time.perf_counter() - start

    # -- jobs -----------------------------------------------------------
    def run_job(self, kind: str, corpus: int) -> Job:
        job = Job(kind, corpus)
        index = len(self.jobs)
        self.jobs.append(job)
        out = self.dir / f"job{index}"
        cli_args = self.workload.quality_args if kind == "quality" else self.workload.cli_args
        cli_args = [*cli_args, "--config", str(self.config), "--corpus", str(self.corpora[corpus]), "--out", str(out)]
        if kind in ("traced", "memory"):
            spans = self.dir / f"job{index}.spans.json"
            argv = [sys.executable, str(BENCH_DIR / "calltrace.py"), "--spans", str(spans), "--job-id", str(index),
                    *(["--memory"] if kind == "memory" else []), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "citemap.cli", *cli_args]
        log = self.dir / f"job{index}.log"
        spawned, job.wall_s, job.rss_mb, code = spawn(argv, self.env, log,
                                                      max(1.0, min(JOB_TIMEOUT_S, self.remaining())))
        try:
            if code != 0:
                tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
                raise self.checks.CheckError("timed out" if code == -1 else f"exit code {code}: {tail}")
            self.check(job, cli_args[0], out)
            if kind in ("traced", "memory"):
                job.trace = json.loads(spans.read_text(encoding="utf-8"))
                job.trace["bytes"] = sum(p.stat().st_size for p in out.iterdir())
                # on Linux perf_counter is CLOCK_MONOTONIC, shared by all processes, so the job's
                # spans and this process's spawn time share one time line
                job.trace["spans"].append({"name": "setup.interpreter", "start": spawned, "parent": None,
                                           "end": min(span["start"] for span in job.trace["spans"])})
        except (self.checks.CheckError, OSError, ValueError, KeyError) as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            print(f"job {index} ({kind}, corpus {corpus}) failed: {job.error}", file=sys.stderr)
        return job

    def check(self, job: Job, subcommand: str, out: Path) -> None:
        if subcommand == "pipeline":
            job.quality = self.checks.check_map(out)
            names = self.checks.MAP_ARTIFACTS
        else:
            self.checks.check_compare(out)
            names = self.checks.COMPARE_ARTIFACTS
        found = self.checks.digests(out, names)
        key = (subcommand, job.corpus)
        if key in self.reference:
            self.checks.same_outputs(self.reference[key], found)
        else:
            self.reference[key] = found

    def window(self, kinds: tuple[str, ...]) -> None:
        """Cycle over the corpora, one job of each kind per step, for the run's seconds.

        Every corpus gets one step, and the first corpus a second one when a
        step is a single job, so each run checks that a corpus reproduces its
        outputs; after that a step starts only if it is expected to end
        within the window.
        """
        start = time.perf_counter()
        minimum = self.workload.n_corpora + (len(kinds) == 1)
        steps: list[float] = []
        while True:
            elapsed = time.perf_counter() - start
            if (len(steps) >= minimum and elapsed + median(steps) > self.seconds) or self.remaining() <= 0:
                break
            step_start = time.perf_counter()
            self.time_reference()
            for kind in kinds:
                self.run_job(kind, len(steps) % self.workload.n_corpora)
            steps.append(time.perf_counter() - step_start)

    # -- metrics --------------------------------------------------------
    def quality_figures(self) -> dict[str, float]:
        """Mean over the run's corpora of each corpus's first checked map."""
        kind = "quality" if self.workload.quality_args else "timed"
        if self.workload.quality_args:
            for corpus in range(self.workload.n_corpora):
                self.run_job("quality", corpus)
        first: dict[int, dict[str, float]] = {}
        for job in self.jobs:
            if job.kind == kind and not job.error:
                first.setdefault(job.corpus, job.quality)
        return {name: statistics.fmean(q[name] for q in first.values()) if first else 0.0
                for name in ("layout_objective", "cluster_quality")}

    def end_to_end(self, setup_wall_s: float) -> dict[str, float]:
        self.window(("timed",))
        timed = [job for job in self.jobs if job.kind == "timed" and not job.error]
        job_wall_s = median([j.wall_s for j in timed])
        metrics = {"job_s": self.in_reference_seconds(job_wall_s), "setup_s": self.in_reference_seconds(setup_wall_s),
                   "peak_rss_mb": median([j.rss_mb for j in timed])}
        metrics.update(self.quality_figures())
        self.notes.append(f"timed jobs: {len(timed)} over {self.workload.n_corpora} corpora")
        self.notes.append(f"wall medians: job {job_wall_s:.4f} s, setup {setup_wall_s:.4f} s, "
                          f"reference {median(self.reference_s):.4f} s over {len(self.reference_s)} timings")
        return metrics

    def per_layer(self) -> dict[str, float]:
        self.window(("timed", "traced"))
        self.run_job("memory", 0)
        ok = [job for job in self.jobs if not job.error]
        traced = [job for job in ok if job.kind == "traced"]
        values = [{**layer_values(job.trace, job.wall_s), "exports.bytes": job.trace["bytes"]} for job in traced]
        metrics = {name: median([v[name] for v in values]) for name in values[0]} if values else {}
        # counts: mean over the corpora of each corpus's first traced job, so they repeat exactly
        first: dict[int, dict[str, float]] = {}
        for job, value in zip(traced, values):
            first.setdefault(job.corpus, value)
        for name in COUNT_METRICS:
            metrics[name] = statistics.fmean(v[name] for v in first.values()) if first else 0.0
        untimed = median([job.wall_s for job in ok if job.kind == "timed"])
        metrics["trace.overhead"] = median([job.wall_s for job in traced]) / untimed - 1.0 if untimed else 0.0
        memory = [job for job in ok if job.kind == "memory"]
        for layer in MEMORY_LAYERS:
            peaks = [span["peak"] - span["base"] for job in memory for span in job.trace["spans"]
                     if span["name"].startswith(layer + ".")]
            metrics[f"{layer}.peak_mb"] = max(peaks, default=0) / 2 ** 20
        missing = sorted({name for job in traced for name in job.trace["missing"]})
        if missing:
            self.notes.append(f"traced functions not found (0 calls): {missing}")
        self.notes.append(f"traced jobs: {len(traced)}, untraced: {sum(j.kind == 'timed' for j in ok)}")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "citemap" / "cli.py").is_file():
        print(f"error: no citemap sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_wall_s = run.setup()
        gen_s = run.make_corpora()
        if args.trace:
            metrics, units = run.per_layer(), PER_LAYER_UNITS
        else:
            metrics, units = run.end_to_end(setup_wall_s), END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = len(run.jobs)
    failed = sum(1 for job in run.jobs if job.error)
    correct = failed == 0 and attempted > 0
    if correct:
        shutil.rmtree(run.dir, ignore_errors=True)
    else:
        print(f"failed jobs' files kept under {run.dir}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, window {args.seconds:g} s")
    print(f"corpus_gen_s = {gen_s:.4f} s (benchmark's own cost; not part of setup_s)")
    for note in run.notes:
        print(note)
    print(f"fail_frac = {failed / attempted if attempted else 1.0:.4f} ratio ({failed} of {attempted} jobs)")
    metrics = {name: metrics.get(name, 0.0) for name in units}  # a layer no job reached reads 0
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
