"""compare's three networks on forked workers: same reports, same failures, no child left behind."""

from __future__ import annotations

import importlib
import json
import os
import pickle
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import citemap.fork as fork_module
import citemap.pipeline as pipeline_module
from citemap.cli import main
from citemap.errors import ConfigError, StageError
from citemap.exports import write_json
from citemap.pipeline import PipelineConfig, compare_networks

from conftest import assert_no_children_left, set_cpus

REPO = Path(__file__).resolve().parents[1]
COMPARISON_GOLDEN = REPO / "tests" / "golden" / "planted" / "comparison.json"
NO_CITING = "error: stage 'units' failed: no units for mode 'title-abstract' / set 'citing'\n"


def all_cited(planted_corpus, tmp_path):
    """The planted corpus with every document tagged cited: the citing network has no units."""
    lines = []
    for line in planted_corpus.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "document":
            record["set_tag"] = "cited"
        lines.append(json.dumps(record, sort_keys=True))
    path = tmp_path / "all_cited.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.usefixtures("deadline")
class TestFailureParity:
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_failing_variant_reports_as_a_sequential_run(self, planted_corpus, tmp_path, monkeypatch, capfd, cpus):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(["compare", "--corpus", str(all_cited(planted_corpus, tmp_path)), "--out", str(out)]) == 3
        captured = capfd.readouterr()
        assert captured.err == NO_CITING
        assert captured.out == ""
        assert not out.exists()
        assert_no_children_left()


class TestStageErrorPickle:
    @pytest.mark.parametrize("cause", [ValueError("no units"), ConfigError("bad resolution"), OSError(2, "gone")])
    def test_round_trip_keeps_stage_cause_and_message(self, cause):
        error = StageError("units", cause)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is StageError
        assert copy.stage == "units"
        assert type(copy.cause) is type(cause) and copy.cause.args == cause.args
        assert str(copy) == str(error)


def planted_1k(monkeypatch, tmp_path) -> PipelineConfig:
    """The benchmark's compare job on ``planted(1000, 400, 600)``, with its layout budget."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpora = importlib.import_module("corpora")
    path = corpora.write_jsonl(tmp_path / "planted_1k.jsonl", corpora.planted(1000, n_cited=400, n_citing=600))
    return PipelineConfig(corpus=str(path), min_occurrences=10, layout_max_iter=300)


@pytest.mark.usefixtures("deadline")
class TestForkedCompare:
    @pytest.mark.parametrize("corpus", ["golden", "planted_1k"])
    def test_same_report_on_one_and_four_cpus(self, corpus, planted_corpus, tmp_path, monkeypatch):
        if corpus == "golden":
            config = PipelineConfig(corpus=str(planted_corpus))
        else:
            config = planted_1k(monkeypatch, tmp_path)
        forks = []
        real_forked = fork_module.forked
        monkeypatch.setattr(fork_module, "forked", lambda run, tasks, workers: forks.append((tasks, workers))
                            or real_forked(run, tasks, workers))
        reports = {}
        for cpus in (1, 4):
            set_cpus(monkeypatch, cpus)
            path = write_json(tmp_path / f"comparison_{cpus}.json", asdict(compare_networks(config)))
            reports[cpus] = path.read_bytes()
            assert ((3, 3) in forks) == (cpus == 4)  # the three networks, one worker each
            assert_no_children_left()
        assert reports[4] == reports[1]
        if corpus == "golden":
            assert reports[1] == COMPARISON_GOLDEN.read_bytes()


# where the layout fails, and how: a stage failure, a crash (not a stage error), or a dead process
COMPARE_FAILURES = [("child", "raise"), ("child", "crash"), ("child", "exit"), ("parent", "raise"), ("parent", "crash")]


@pytest.mark.usefixtures("deadline")
class TestFailingCompareWorker:
    """A compare worker that fails ends the call promptly, and every child is reaped."""

    @pytest.fixture
    def fail_in(self, monkeypatch):
        def arm(where: str, how: str) -> type[Exception]:
            parent, real_layout = os.getpid(), pipeline_module.layout

            def failing_layout(*args):
                if (os.getpid() == parent) == (where == "parent"):
                    if how == "exit":
                        os._exit(1)
                    raise (ValueError if how == "raise" else RuntimeError)("injected layout failure")
                return real_layout(*args)

            monkeypatch.setattr(pipeline_module, "layout", failing_layout)
            set_cpus(monkeypatch, 4)
            if how == "raise":
                return StageError
            return RuntimeError if where == "parent" else ChildProcessError
        return arm

    @pytest.mark.parametrize("where, how", COMPARE_FAILURES)
    def test_compare_raises(self, fail_in, where, how, planted_corpus, tmp_path, capsys):
        expected = fail_in(where, how)
        start = time.monotonic()
        with pytest.raises(expected) as caught:
            compare_networks(PipelineConfig(corpus=str(planted_corpus)))
        assert time.monotonic() - start < 10.0
        assert_no_children_left()
        if expected is StageError:
            assert caught.value.stage == "layout"
            assert str(caught.value) == "stage 'layout' failed: injected layout failure"
        if expected is not RuntimeError:  # the CLI reports what it can act on, with exit code 3
            capsys.readouterr()
            assert main(["compare", "--corpus", str(planted_corpus), "--out", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == f"error: {caught.value}\n"
            assert_no_children_left()
