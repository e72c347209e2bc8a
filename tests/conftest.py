"""Shared fixtures and tiny builders for the test suite."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import citemap
import citemap.clustering as clustering_module
from citemap.corpus import CitationContext, Document
from citemap.network import CoocNetwork, SimilarityMatrix, TermNode
from citemap.pipeline import builtin_corpus_path


@pytest.fixture(scope="session")
def demo_corpus():
    return builtin_corpus_path("demo")


@pytest.fixture(scope="session")
def planted_corpus():
    return builtin_corpus_path("planted")


def doc(doc_id: str, set_tag: str = "cited", title: str = "untitled", **kwargs) -> Document:
    return Document(id=doc_id, title=title, set_tag=set_tag, **kwargs)


def ctx(citing: str, cited: str, text: str = "some snippet", ordinal: int = 1) -> CitationContext:
    return CitationContext(citing, cited, text, ordinal)


def network(term_occurrences: dict[str, int], edges: dict[tuple[int, int], int]) -> CoocNetwork:
    terms = tuple(TermNode(term, occ) for term, occ in term_occurrences.items())
    return CoocNetwork(terms, dict(edges))


def sim(n: int, strengths: dict[tuple[int, int], float]) -> SimilarityMatrix:
    return SimilarityMatrix(tuple(f"t{k}" for k in range(n)), dict(strengths))


def set_cpus(monkeypatch, cpus: int) -> None:
    """Pretend the affinity mask holds ``cpus`` CPUs, and let any network fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(clustering_module, "_PARALLEL_MIN_EDGES", 0)


def assert_no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, when a forked call never returns."""
    def expire(signum, frame):
        raise TimeoutError("a forked call did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def run_fresh(probe: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter on this checkout's ``citemap``, so nothing this process loaded counts."""
    src = str(Path(citemap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)


# runs ``patch``, then ``main(argv)``, counting the layout workers forked, and prints what it saw
FRESH_CLI_PROBE = """\
import json, os, sys
import citemap.fork as fork
from citemap.cli import main
workers = []
make_worker = fork.ForkedCall.__init__
fork.ForkedCall.__init__ = lambda self, *args: workers.append(1) or make_worker(self, *args)
{patch}
try:
    code = main({argv!r})
except KeyboardInterrupt:
    code = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps([code, len(workers), "numpy" in sys.modules, children_left]))
"""


@dataclass(frozen=True)
class FreshCli:
    code: int | str  # "interrupted" for a KeyboardInterrupt out of main
    workers: int  # layout workers forked
    numpy: bool  # numpy imported in the CLI process
    children_left: bool
    stderr: str


def run_cli_fresh(argv: list[str], patch: str = "", cpus: int | None = None) -> FreshCli:
    """``main(argv)`` in a fresh interpreter, after ``patch`` and, if given, with ``fork.cpus()`` returning ``cpus``."""
    if cpus is not None:
        patch = f"fork.cpus = lambda: {cpus}\n{patch}"
    result = run_fresh(FRESH_CLI_PROBE.format(patch=patch, argv=[str(arg) for arg in argv]))
    lines = result.stdout.splitlines()
    assert result.returncode == 0 and lines, result.stderr
    return FreshCli(*json.loads(lines[-1]), result.stderr)
